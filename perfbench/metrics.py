"""Pure helpers for perfbench: percentiles, /proc readings, reply
digests, advice gain and the per-layer numbers derived from a trace.

Kept free of I/O beyond reading /proc so test_metrics.py can check them
on fixed inputs.
"""

import hashlib
import json
import os
import statistics

# Reply fields that legitimately differ between two servings of the
# same request: wall time and the session's cumulative cache telemetry.
VOLATILE_META = ("wall_ms", "cache_lookups", "cache_hits", "cache_evictions")


def percentile(values, q):
    """The q-th percentile (0..100) of `values`, interpolating linearly
    between the two nearest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values):
    """(q1, median, q3) the way statistics.quantiles(values, n=4) gives
    them, plus the spread (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return q1, median, q3, spread


def median_worsening(before, after, better):
    """How much worse the median of `after` is than that of `before`, as
    a share of the `before` median; negative when it is better. `better`
    is "lower" or "higher", as in BENCHMARK.json."""
    old = statistics.median(before)
    new = statistics.median(after)
    change = (new - old) / old if old else 0.0
    return change if better == "lower" else -change


def cpu_ticks(stat_text):
    """utime + stime, in clock ticks, from a /proc/<pid>/stat line. The
    command name may hold spaces and parentheses, so fields are counted
    from the last ')'."""
    fields = stat_text[stat_text.rindex(")") + 2:].split()
    # After the name: state is field 3 of stat(5); utime and stime are
    # fields 14 and 15.
    return int(fields[14 - 3]) + int(fields[15 - 3])


def vm_hwm_kb(status_text):
    """Peak resident set size (VmHWM) in kB from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def process_cpu_seconds(pid):
    with open("/proc/%d/stat" % pid) as f:
        return cpu_ticks(f.read()) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        return vm_hwm_kb(f.read()) / 1024.0


def payload_digest(reply):
    """SHA-256 of a reply's payload: selections, bills, frontier points,
    ledgers and the stable meta fields, in canonical JSON. None when the
    reply is not an OK reply with a response."""
    if not isinstance(reply, dict) or reply.get("ok") is not True:
        return None
    response = reply.get("response")
    if not isinstance(response, dict):
        return None
    meta = dict(response.get("meta", {}))
    for key in VOLATILE_META:
        meta.pop(key, None)
    payload = dict(response, meta=meta)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def sequence_digest(digests):
    """One digest over a whole request sequence, in order."""
    h = hashlib.sha256()
    for d in digests:
        h.update((d or "-").encode())
    return h.hexdigest()


def _gain(selection, baseline, objective):
    """Improvement of a selection over its no-view baseline on what the
    objective optimises: the paper's IP rate (MV1), IC rate (MV2) or
    alpha * IP + (1 - alpha) * IC (MV3)."""
    base_time = baseline["makespan_ms"] if objective.get(
        "time_includes_materialization", True) else baseline["processing_time_ms"]
    ip = 1.0 - selection["time_ms"] / base_time if base_time else 0.0
    base_cost = baseline["cost"]["total_micros"]
    cost = selection["evaluation"]["cost"]["total_micros"]
    ic = 1.0 - cost / base_cost if base_cost else 0.0
    scenario = objective.get("scenario", "mv3")
    if scenario == "mv1":
        return ip
    if scenario == "mv2":
        return ic
    alpha = objective.get("alpha", 0.5)
    return alpha * ip + (1.0 - alpha) * ic


def advice_gains(response, objective):
    """The gains one response contributes: its best point for solve,
    frontier and solve-joint, one per row for compare-providers."""
    kind = response["kind"]
    if kind == "solve":
        run = response["solve"]
        return [_gain(run["selection"], run["baseline"], objective)]
    if kind in ("frontier", "solve-joint"):
        run = response["frontier" if kind == "frontier" else "joint"]
        return [_gain(run["best"], run["baseline"], objective)]
    if kind == "compare-providers":
        return [_gain(row["run"]["selection"], row["run"]["baseline"], objective)
                for row in response["providers"]]
    return []


# Every per-layer metric and its unit, in BENCHMARK.json's order.
LAYER_UNITS = {
    "wire.request_bytes": "B",
    "wire.reply_bytes": "B",
    "wire.overhead_us": "us",
    "json.parse_us": "us",
    "json.write_us": "us",
    "codec.decode_us": "us",
    "codec.encode_us": "us",
    "session.find_us": "us",
    "session.warm_hit_ratio": "ratio",
    "service.serve_self_us": "us",
    "dispatch.self_us": "us",
    "candgen.us": "us",
    "candgen.calls": "count",
    "candgen.candidates": "count",
    "evaluator.build_us": "us",
    "search.us.knapsack-dp": "us",
    "search.us.branch-and-bound": "us",
    "search.us.arch-sweep": "us",
    "search.us.pareto-sweep": "us",
    "search.cache_hit_ratio": "ratio",
    "bnb.nodes_expanded": "count",
    "bnb.pruned_by_bound": "count",
    "bnb.bound_evaluations": "count",
    "bnb.jobs": "count",
    "timeline.generate_us": "us",
    "planner.create_us": "us",
    "planner.run_us": "us",
    "planner.solver_runs": "count",
    "providers.us": "us",
    "providers.rows": "count",
    "pool.cpu_per_wall": "s/s",
    "pool.speedup.branch-and-bound": "ratio",
    "pool.speedup.solve-joint": "ratio",
    "pool.speedup.compare-providers": "ratio",
    "pool.speedup.compare-policies": "ratio",
    "setup.launch_ms": "ms",
    "setup.create_us": "us",
    "setup.prime_us": "us",
    "trace.overhead_us": "us",
}

# Span name -> per-layer metric of its self time in the traced replay.
SELF_TIME_METRICS = {
    "json.parse": "json.parse_us",
    "json.write": "json.write_us",
    "codec.decode": "codec.decode_us",
    "codec.encode": "codec.encode_us",
    "session.find": "session.find_us",
    "candgen": "candgen.us",
    "evaluator.build": "evaluator.build_us",
    "search.knapsack-dp": "search.us.knapsack-dp",
    "search.branch-and-bound": "search.us.branch-and-bound",
    "search.arch-sweep": "search.us.arch-sweep",
    "search.pareto-sweep": "search.us.pareto-sweep",
    "timeline.generate": "timeline.generate_us",
    "planner.create": "planner.create_us",
    "planner.run": "planner.run_us",
    "providers": "providers.us",
}

# Spans of the work Dispatch hands to other layers. Dispatch's own time
# is the real AdvisorSession::Serve time minus these.
LEAF_SPANS = ("candgen", "evaluator.build", "timeline.generate",
              "planner.create", "planner.run", "providers")

# Root-span counter -> per-layer metric of its sum over the sequence.
COUNT_METRICS = {
    "candgen_calls": "candgen.calls",
    "candidates": "candgen.candidates",
    "bnb_nodes_expanded": "bnb.nodes_expanded",
    "bnb_pruned_by_bound": "bnb.pruned_by_bound",
    "bnb_bound_evaluations": "bnb.bound_evaluations",
    "bnb_jobs": "bnb.jobs",
    "solver_runs": "planner.solver_runs",
    "provider_rows": "providers.rows",
}


def layer_metrics(events):
    """Per-layer numbers from the replay's trace events.

    Times are self times (a span minus the spans directly inside it) in
    microseconds per request of the sequence. Counts are sums over the
    sequence. The service's and Dispatch's own time come from the real
    path's times on the root spans: AdvisorService::Serve minus
    SessionManager::Find minus AdvisorSession::Serve, and
    AdvisorSession::Serve minus the leaf spans of the same request.
    Also returns the root spans' durations, whose median is the
    server-side p50.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    child_time = [0.0] * len(spans)
    for e in spans:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_time[parent] += e["dur"]
    self_time = {}
    leaf_time = {}
    roots = []
    for i, e in enumerate(spans):
        name = e["name"]
        self_time[name] = self_time.get(name, 0.0) + e["dur"] - child_time[i]
        if name in LEAF_SPANS or name.startswith("search."):
            request = e["args"]["request"]
            leaf_time[request] = leaf_time.get(request, 0.0) + e["dur"]
        if e["args"]["parent"] < 0:
            roots.append(e)
    requests = len(roots)
    if not requests:
        raise ValueError("trace has no request spans")
    out = {metric: self_time.get(name, 0.0) / requests
           for name, metric in SELF_TIME_METRICS.items()}
    serve_self = dispatch_self = 0.0
    for root in roots:
        args = root["args"]
        serve_self += (args["serve_ns"] - args["find_ns"] - args["session_serve_ns"]) / 1e3
        dispatch_self += (args["session_serve_ns"] / 1e3
                          - leaf_time.get(args["request"], 0.0))
    out["service.serve_self_us"] = serve_self / requests
    out["dispatch.self_us"] = dispatch_self / requests
    counters = list(COUNT_METRICS) + ["slot_lookup", "warm_hit", "cache_lookups",
                                      "cache_hits", "request_bytes", "reply_bytes"]
    totals = {key: sum(root["args"].get(key, 0) for root in roots) for key in counters}
    for key, metric in COUNT_METRICS.items():
        out[metric] = totals[key]
    lookups = totals["slot_lookup"]
    out["session.warm_hit_ratio"] = totals["warm_hit"] / lookups if lookups else 0.0
    cache_lookups = totals["cache_lookups"]
    out["search.cache_hit_ratio"] = (totals["cache_hits"] / cache_lookups
                                     if cache_lookups else 0.0)
    out["wire.request_bytes"] = totals["request_bytes"] / requests
    out["wire.reply_bytes"] = totals["reply_bytes"] / requests
    return out, [root["dur"] for root in roots]
