"""Tests for perfbench's helpers and plans.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _reply(total_micros=900, wall_ms=3, cache_hits=7, ok=True):
    return {
        "ok": ok,
        "code": "OK" if ok else "INVALID_ARGUMENT",
        "response": {
            "kind": "solve",
            "meta": {"solver": "knapsack-dp", "wall_ms": wall_ms,
                     "cache_lookups": 10, "cache_hits": cache_hits,
                     "cache_evictions": 0, "gap_fraction": 0.0,
                     "cancelled": False, "warm": True},
            "solve": {
                "selection": {"time_ms": 600,
                              "evaluation": {"cost": {"total_micros": total_micros}}},
                "baseline": {"makespan_ms": 1000, "processing_time_ms": 1000,
                             "cost": {"total_micros": 1000}},
            },
        },
    }


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(metrics.percentile(values, 50), 50.5)
        self.assertAlmostEqual(metrics.percentile(values, 99), 99.01)
        self.assertEqual(metrics.percentile(values, 0), 1)
        self.assertEqual(metrics.percentile(values, 100), 100)

    def test_ignores_input_order_and_handles_one_value(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)
        self.assertEqual(metrics.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, median, q3, spread = metrics.quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(spread, (q3 - q1) / median)

    def test_median_worsening_follows_the_better_direction(self):
        self.assertAlmostEqual(metrics.median_worsening([10, 10, 10], [12, 12], "lower"), 0.2)
        self.assertAlmostEqual(metrics.median_worsening([10, 10, 10], [12, 12], "higher"), -0.2)
        self.assertAlmostEqual(metrics.median_worsening([4, 5, 6], [4, 4, 4], "higher"), 0.2)


class ProcTest(unittest.TestCase):
    def test_cpu_ticks_counts_fields_after_the_last_paren(self):
        # pid (comm) state ppid pgrp session tty tpgid flags minflt
        # cminflt majflt cmajflt utime stime ...
        stat = "42 (odd) name (x)) S 1 2 3 4 5 6 7 8 9 10 120 35 0 0 20 0 3 0"
        self.assertEqual(metrics.cpu_ticks(stat), 155)

    def test_vm_hwm(self):
        status = "Name:\tadvisor_server\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\n"
        self.assertEqual(metrics.vm_hwm_kb(status), 2048)
        with self.assertRaises(ValueError):
            metrics.vm_hwm_kb("Name:\tx\n")

    def test_reads_this_process(self):
        self.assertGreaterEqual(metrics.process_cpu_seconds(os.getpid()), 0.0)
        self.assertGreater(metrics.process_peak_rss_mb(os.getpid()), 0.0)


class DigestTest(unittest.TestCase):
    def test_ignores_wall_time_and_cache_telemetry(self):
        self.assertEqual(metrics.payload_digest(_reply(wall_ms=1, cache_hits=1)),
                         metrics.payload_digest(_reply(wall_ms=9, cache_hits=5)))

    def test_a_bill_off_by_one_micro_changes_it(self):
        self.assertNotEqual(metrics.payload_digest(_reply(total_micros=900)),
                            metrics.payload_digest(_reply(total_micros=901)))

    def test_does_not_depend_on_key_order(self):
        reply = _reply()
        reordered = json.loads(json.dumps(reply, sort_keys=True))
        self.assertEqual(metrics.payload_digest(reply),
                         metrics.payload_digest(reordered))

    def test_failed_replies_have_no_digest(self):
        self.assertIsNone(metrics.payload_digest(_reply(ok=False)))
        self.assertIsNone(metrics.payload_digest({"ok": True}))
        self.assertIsNone(metrics.payload_digest(None))

    def test_sequence_digest_is_order_sensitive(self):
        self.assertNotEqual(metrics.sequence_digest(["a", "b"]),
                            metrics.sequence_digest(["b", "a"]))


class AdviceGainTest(unittest.TestCase):
    def test_picks_the_optimised_quantity(self):
        response = _reply(total_micros=800)["response"]
        # IP = 1 - 600/1000, IC = 1 - 800/1000.
        self.assertAlmostEqual(metrics.advice_gains(response, {"scenario": "mv1"})[0], 0.4)
        self.assertAlmostEqual(metrics.advice_gains(response, {"scenario": "mv2"})[0], 0.2)
        self.assertAlmostEqual(
            metrics.advice_gains(response, {"scenario": "mv3", "alpha": 0.25})[0],
            0.25 * 0.4 + 0.75 * 0.2)

    def test_one_gain_per_provider_row(self):
        run_json = _reply()["response"]["solve"]
        response = {"kind": "compare-providers",
                    "providers": [{"run": run_json}, {"run": run_json}]}
        self.assertEqual(len(metrics.advice_gains(response, {"scenario": "mv1"})), 2)


def _span(name, index, parent, dur, request=0, **counters):
    args = {"request": request, "span": index, "parent": parent}
    args.update(counters)
    return {"name": name, "ph": "X", "ts": 0.0, "dur": dur, "args": args}


class LayerMetricsTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        events = [
            _span("request", 0, -1, 100.0, slot_lookup=1, warm_hit=0,
                  candgen_calls=1, candidates=20, cache_lookups=4, cache_hits=1,
                  request_bytes=120, reply_bytes=900, serve_ns=90000,
                  find_ns=1000, session_serve_ns=86000),
            _span("json.parse", 1, 0, 5.0),
            _span("service.serve", 2, 0, 80.0),
            _span("session.find", 3, 2, 1.0),
            _span("dispatch", 4, 2, 75.0),
            _span("candgen", 5, 4, 50.0),
            _span("search.knapsack-dp", 6, 4, 20.0),
            _span("request", 7, -1, 30.0, request=1, slot_lookup=1, warm_hit=1,
                  cache_lookups=4, cache_hits=3, request_bytes=100, reply_bytes=700,
                  serve_ns=14000, find_ns=500, session_serve_ns=12500),
            _span("search.knapsack-dp", 8, 7, 10.0, request=1),
        ]
        out, roots = metrics.layer_metrics(events)
        self.assertEqual(roots, [100.0, 30.0])
        self.assertAlmostEqual(out["json.parse_us"], 5.0 / 2)
        self.assertAlmostEqual(out["session.find_us"], 1.0 / 2)
        self.assertAlmostEqual(out["candgen.us"], 50.0 / 2)
        self.assertAlmostEqual(out["search.us.knapsack-dp"], 30.0 / 2)
        self.assertEqual(out["search.us.branch-and-bound"], 0.0)
        self.assertEqual(out["candgen.calls"], 1)
        self.assertEqual(out["candgen.candidates"], 20)
        self.assertEqual(out["session.warm_hit_ratio"], 0.5)
        self.assertEqual(out["search.cache_hit_ratio"], 0.5)
        self.assertEqual(out["wire.request_bytes"], 110)
        self.assertEqual(out["wire.reply_bytes"], 800)

    def test_service_and_dispatch_self_time_come_from_the_real_path(self):
        events = [
            _span("request", 0, -1, 100.0, serve_ns=90000, find_ns=1000,
                  session_serve_ns=86000),
            _span("service.serve", 1, 0, 80.0),
            _span("dispatch", 2, 1, 75.0),
            _span("candgen", 3, 2, 50.0),
            _span("search.knapsack-dp", 4, 2, 20.0),
            _span("request", 5, -1, 30.0, request=1, serve_ns=14000,
                  find_ns=500, session_serve_ns=12500),
            _span("search.knapsack-dp", 6, 5, 10.0, request=1),
        ]
        out, _ = metrics.layer_metrics(events)
        # Serve 90 - find 1 - session 86 = 3 us, and 14 - 0.5 - 12.5 = 1 us.
        self.assertAlmostEqual(out["service.serve_self_us"], (3.0 + 1.0) / 2)
        # Session 86 - leaves 70 = 16 us, and 12.5 - 10 = 2.5 us; the
        # traced dispatch span's own 5 us is not used.
        self.assertAlmostEqual(out["dispatch.self_us"], (16.0 + 2.5) / 2)


class PlanTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in workloads.WORKLOADS:
            a = workloads.make_plan(workload, 5)
            b = workloads.make_plan(workload, 5)
            self.assertEqual(a.loop_lines, b.loop_lines)
            self.assertEqual(a.create_lines + a.prime_lines,
                             b.create_lines + b.prime_lines)
            self.assertNotEqual(a.loop_lines, workloads.make_plan(workload, 6).loop_lines)
            self.assertEqual(len(a.loop_lines), workloads.PASS_REQUESTS[workload])

    def test_cold_drift_lines_cross_the_server_read_chunk(self):
        sizes = [len(line) for line in workloads.make_plan("cold-drift", 1).loop_lines]
        self.assertGreaterEqual(min(sizes), 1000)
        self.assertLessEqual(max(sizes), 8192)
        self.assertTrue(any(size > 4096 for size in sizes))

    def test_scenario_split_is_the_same_for_every_seed(self):
        for workload in workloads.WORKLOADS:
            splits = []
            for seed in (1, 2):
                split = {}
                for line in workloads.make_plan(workload, seed).loop_lines:
                    request = json.loads(line)["request"]
                    key = (request["session"], request.get("solver"), request["kind"],
                           request["objective"].get("scenario"))
                    if request["kind"] != "frontier" and request["session"] not in (
                            "plan-12", "plan-15"):
                        split[key] = split.get(key, 0) + 1
                splits.append(split)
            self.assertEqual(splits[0], splits[1], workload)

    def test_planning_mix_is_fixed(self):
        for seed in (1, 2):
            plan = workloads.make_plan("planning", seed)
            kinds = {}
            for line in plan.loop_lines:
                request = json.loads(line)["request"]
                key = request.get("solver") or request["kind"]
                kinds[key] = kinds.get(key, 0) + 1
            mix = workloads.PLANNING_MIX
            self.assertEqual(kinds["branch-and-bound"], mix["bnb-50"] + mix["bnb-100"])
            self.assertEqual(kinds["frontier"], mix["frontier-12"] + mix["frontier-15"])
            self.assertEqual(kinds["compare-providers"], mix["compare-providers"])


class BenchmarkSpecTest(unittest.TestCase):
    def test_names_and_units_match_what_run_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
