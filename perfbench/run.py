"""perfbench: end-to-end and per-layer benchmark of the cloudview advisor.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steady RUNS --workload NAME[,NAME...] --seconds S

Run from the repository root. The first form builds advisor_server and
the replay tool from source (into $CARGO_TARGET_DIR, default
.bench_build), drives the server over TCP with the seeded workload,
checks every reply against an in-process replay, and prints one JSON
object as its last stdout line: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The second form runs the first
RUNS times with seeds N, N+1, ... (--seed N, default 1) and prints each
end-to-end metric's median, quartiles and spread against its bound in
BENCHMARK.json.

README.md next to this file defines every metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

import client  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Server pool size (CLOUDVIEW_THREADS). The bounds were set on a 4-vCPU
# machine that gives about 2 effective cores and shares them with other
# tenants. There, with 2 threads, planning's p99 moved 19-28% between
# runs, because a parallel solve needs both vCPUs at once; with 1 thread
# it moved 7%. The pool's parallel speed-ups are measured in the traced
# run instead (pool.speedup.*).
POOL_THREADS = 1
# Set-ups per run, before and after the timed loop (the last one before
# it serves the loop); setup_s is their median. Spreading them over the
# run keeps a short burst of machine noise from deciding the median.
SETUPS_BEFORE = 11
SETUPS_AFTER = 10
REPLAY_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "setup_s": "s",
    "server_cpu_ms_per_req": "ms",
    "server_peak_rss_mb": "MB",
    "advice_gain": "fraction",
}


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: no cloudview sources at %s; run from a "
                         "repository checkout" % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DCLOUDVIEW_BUILD_TESTS=OFF",
                   "-DCLOUDVIEW_BUILD_BENCHMARKS=OFF",
                   "-DCLOUDVIEW_BUILD_EXAMPLES=OFF"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "advisor_server", "perfbench_replay"],
                   check=True, stdout=sys.stderr)
    work = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    return (os.path.join(build_dir, "cloudview", "advisor_server"),
            os.path.join(build_dir, "perfbench_replay"), work)


def replay(binary, env, plan_path, replies_path, trace_path=None):
    command = [binary, "--plan", plan_path, "--replies", replies_path]
    if trace_path:
        command += ["--trace", trace_path]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          timeout=REPLAY_TIMEOUT_S, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_once(args):
    server_bin, replay_bin, work = build()
    env = dict(os.environ, CLOUDVIEW_THREADS=str(POOL_THREADS))
    plan = workloads.make_plan(args.workload, args.seed)
    stem = os.path.join(work, args.workload)
    plan.write(stem + ".plan")

    setups = []
    server = None
    try:
        for _ in range(SETUPS_BEFORE):
            if server is not None:
                server.stop()
            server, times = client.set_up(server_bin, env, plan)
            setups.append(times)
        latencies, replies, wall_ns, cpu_s, passes, error = client.timed_loop(
            server, plan.loop_lines, args.seconds, workloads.MIN_REQUESTS)
        peak_rss_mb = metrics.process_peak_rss_mb(server.proc.pid)
        for _ in range(SETUPS_AFTER):
            server.stop()
            server, times = client.set_up(server_bin, env, plan)
            setups.append(times)
    finally:
        if server is not None:
            server.stop()

    # Reference: the same plan through CloudScenario::Dispatch in process
    # (and, traced, through each layer's public functions).
    trace_path = stem + ".trace.json" if args.trace else None
    summary = replay(replay_bin, env, stem + ".plan", stem + ".replies", trace_path)
    with open(stem + ".replies", "rb") as f:
        expected = [metrics.payload_digest(json.loads(line)) for line in f]

    n = len(plan.loop_lines)
    failed = 0
    gains = []
    for i, raw in enumerate(replies):
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = None
        digest = metrics.payload_digest(reply)
        if digest is None or digest != expected[i % n]:
            failed += 1
            continue
        if i < n and plan.objectives[i] is not None:
            gains.extend(metrics.advice_gains(reply["response"], plan.objectives[i]))
    attempted = len(replies)
    if error is not None:
        # The request in flight when the connection broke.
        print("perfbench: transport error after %d requests: %s" % (attempted, error),
              file=sys.stderr)
        attempted += 1
        failed += 1
    reference_ok = summary["failed"] == 0 and None not in expected
    mismatches = summary.get("mismatches", 0)
    correct = failed == 0 and reference_ok and mismatches == 0

    requests = len(latencies)
    latencies_ms = [ns / 1e6 for ns in latencies]
    p50_ms = metrics.percentile(latencies_ms, 50)
    p99_ms = metrics.percentile(latencies_ms, 99)
    print("perfbench: workload=%s seed=%d passes=%d requests=%d pool=%d "
          "nproc=%d samples_beyond_p99=%d digest=%s" % (
              args.workload, args.seed, passes, requests, POOL_THREADS,
              os.cpu_count() or 0, sum(1 for x in latencies_ms if x > p99_ms),
              metrics.sequence_digest(expected)[:16]))

    if not args.trace:
        values = {
            "req_per_s": requests / (wall_ns / 1e9),
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "server_cpu_ms_per_req": cpu_s * 1e3 / requests,
            "server_peak_rss_mb": peak_rss_mb,
            "advice_gain": statistics.fmean(gains) if gains else 0.0,
        }
        units = END_TO_END_UNITS
    else:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        values, server_us = metrics.layer_metrics(events)
        values["wire.overhead_us"] = p50_ms * 1e3 - metrics.percentile(server_us, 50)
        values["trace.overhead_us"] = (
            (summary["traced_ns"] - summary["untraced_ns"]) / 1e3 / summary["requests"])
        values["pool.cpu_per_wall"] = cpu_s / (wall_ns / 1e9)
        for name, row in summary["pool"].items():
            values["pool.speedup." + name] = row["ns_1"] / row["ns_2"] if row["ns_2"] else 0.0
        for key in ("setup.launch_ms", "setup.create_us", "setup.prime_us"):
            values[key] = statistics.median(s[key] for s in setups)
        units = metrics.LAYER_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed + mismatches,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_steady(args):
    """Runs each workload `args.steady` times (seeds --seed, --seed + 1,
    ...) as separate processes, as the benchmark's users do, and reports
    the spread of every end-to-end metric against its bound. With
    --baseline, also flags every median that is worse than the baseline
    set's by more than the bound."""
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    bounds = {name: m["bound"] for name, m in spec.items()}
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.loads(f.read().strip().splitlines()[-1])["values"]
    flagged = []
    report = {}
    for workload in args.workload.split(","):
        values = {}
        for seed in range(args.seed, args.seed + args.steady):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, check=True)
            result = json.loads(done.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit("perfbench: %s seed %d was not correct" % (workload, seed))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d runs)" % (workload, args.steady))
        print("  %-24s %-8s %14s %14s %14s %8s %6s %9s" % (
            "metric", "unit", "q1", "median", "q3", "spread", "bound",
            "vs base"))
        for name, vals in values.items():
            q1, median, q3, spread = metrics.quartiles(vals)
            notes = []
            if spread > bounds[name]:
                notes.append("OVER BOUND")
            change = ""
            if name in baseline.get(workload, {}):
                worse = metrics.median_worsening(
                    baseline[workload][name], vals, spec[name]["better"])
                change = "%+8.2f%%" % (100 * worse)
                if worse > bounds[name]:
                    notes.append("WORSE THAN BASELINE")
            if notes:
                flagged.append("%s/%s" % (workload, name))
            print("  %-24s %-8s %14.6g %14.6g %14.6g %7.2f%% %5.0f%% %9s%s" % (
                name, END_TO_END_UNITS[name], q1, median, q3, 100 * spread,
                100 * bounds[name], change,
                "".join("  " + n for n in notes)))
        report[workload] = values
    print(json.dumps({"flagged": flagged, "values": report}))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-loop length (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="report the spread over RUNS seeded runs")
    parser.add_argument("--baseline", metavar="FILE",
                        help="with --steady: an earlier --steady output to "
                             "compare the medians against")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.steady == 1 or args.steady < 0:
        parser.error("--steady needs at least 2 runs")
    if args.steady:
        return run_steady(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of " + ", ".join(workloads.WORKLOADS))
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
