"""Seeded request plans for the three advisor workloads.

A plan is everything the client sends: the sessions to create, one
priming request per session (run during set-up), and the timed
sequence. Every line is encoded here, before any clock starts, as the
exact bytes that go on the wire. The same (workload, seed) always
yields the same bytes.

Why each workload exists, and what it should leave unchanged, is in
README.md next to this file.
"""

import json
import random

# The SSB lattice has four dimensions of four levels each (three named
# levels plus ALL), so cuboid ids run over 0..255.
SSB_CUBOIDS = 256

# No-view baseline of the SSB default workload on five small instances,
# used only to put MV1 budgets and MV2 time limits in a range where
# some are tight and some are loose. Exactness does not matter.
SSB_BASE_COST_MICROS = 1_088_813
SSB_BASE_TIME_MS_AT_5 = 5_955_553

WORKLOADS = ("warm-advise", "cold-drift", "planning")

# Requests in one pass of each sequence. The timed loop repeats whole
# passes until --seconds have elapsed and at least MIN_REQUESTS were
# timed, enough for ten samples beyond p99. A pass takes 0.6-3 s, so the
# reference replay of one pass and the rest of the last pass add little
# to a run.
PASS_REQUESTS = {"warm-advise": 2000, "cold-drift": 500, "planning": 200}
MIN_REQUESTS = 1000

# planning: requests per pass of each class. Fixed counts (only the
# order and the parameters are seeded) keep the mix, and so the rate,
# the same from seed to seed. The counts put p50 in the middle of the
# group of compare-providers and 12-candidate frontiers (43% of the
# pass, above the 25% of mostly cheaper joint solves) and p99 inside the
# 100-candidate branch-and-bound class (the costliest 5%), never on a
# boundary between classes. README.md lists each class's cost.
PLANNING_MIX = {
    "bnb-50": 12,
    "bnb-100": 10,
    "solve-joint": 50,
    "frontier-12": 24,
    "frontier-15": 10,
    "timeline": 16,
    "compare-policies": 16,
    "compare-providers": 62,
}


def encode(envelope):
    """One wire line: compact JSON plus the newline."""
    return (json.dumps(envelope, separators=(",", ":")) + "\n").encode()


def _create(name, config):
    return encode({"op": "create_session", "name": name, "config": config})


def _request(request):
    return encode({"op": "request", "request": request})


def _ssb_config(max_candidates, nb_instances=5):
    return {
        "schema": "ssb",
        "nb_instances": nb_instances,
        "candidates": {"max_candidates": max_candidates},
    }


def _scenarios(rng, count):
    """`count` scenario names split as evenly as `count` allows between
    MV1, MV2 and MV3, in seeded order. Fixed counts keep the share of the
    costlier MV2 solves, and so the rate, the same from seed to seed."""
    names = [("mv1", "mv2", "mv3")[i % 3] for i in range(count)]
    rng.shuffle(names)
    return names


def _objective(rng, scenario, nb_instances=5):
    """A seeded MV1 budget, MV2 time limit or MV3 alpha."""
    if scenario == "mv1":
        budget = int(SSB_BASE_COST_MICROS * rng.uniform(0.35, 1.1))
        return {"scenario": "mv1", "budget_limit_micros": budget}
    if scenario == "mv2":
        base = SSB_BASE_TIME_MS_AT_5 * 5 / nb_instances
        return {"scenario": "mv2", "time_limit_ms": int(base * rng.uniform(0.2, 0.9))}
    return {"scenario": "mv3", "alpha": round(rng.uniform(0.0, 1.0), 3)}


class Plan:
    """Sessions, priming lines and the timed sequence of one run.

    `objectives[i]` is the objective loop request i optimises (None for
    the timeline kinds), which advice_gain needs to pick IP, IC or
    their blend.
    """

    def __init__(self):
        self.create_lines = []
        self.prime_lines = []
        self.loop_lines = []
        self.objectives = []

    def session(self, name, config):
        self.create_lines.append(_create(name, config))
        # Priming: one default solve on the session's default workload
        # builds its warm slot (candidates, evaluator, cache).
        self.prime_lines.append(_request({"kind": "solve", "session": name}))

    def add(self, request):
        self.loop_lines.append(_request(request))
        gains = request["kind"] not in ("timeline", "compare-policies")
        self.objectives.append(request.get("objective") if gains else None)

    def write(self, path):
        """The replay tool's input: a header line with the section sizes,
        then the set-up lines and the loop lines exactly as sent."""
        with open(path, "wb") as out:
            out.write(encode({"setup": len(self.create_lines) + len(self.prime_lines),
                              "loop": len(self.loop_lines)}))
            for line in self.create_lines + self.prime_lines + self.loop_lines:
                out.write(line)


def _warm_advise(plan, rng):
    # A fixed tenant roster (20..100 candidates, 2..10 instances), so
    # set-up does the same work on every seed; the seed drives the
    # request rotation and the objectives.
    tenants = []
    for i in range(16):
        nodes = (2, 3, 5, 8, 10)[i % 5]
        name = "tenant-%02d" % i
        plan.session(name, _ssb_config(20 + (80 * i) // 15, nodes))
        tenants.append((name, nodes))
    order = []
    while len(order) < PASS_REQUESTS["warm-advise"]:
        block = list(tenants)
        rng.shuffle(block)
        order.extend(block)
    order = order[:PASS_REQUESTS["warm-advise"]]
    scenarios = {name: _scenarios(rng, order.count((name, nodes)))
                 for name, nodes in tenants}
    for name, nodes in order:
        plan.add({"kind": "solve", "session": name,
                  "objective": _objective(rng, scenarios[name].pop(), nodes)})


def _drift_queries(rng, request_index):
    queries = []
    for q in range(rng.randint(13, 64)):
        target = rng.randrange(SSB_CUBOIDS)
        queries.append({
            "name": "drifted query %02d of request %d, rolled up to "
                    "cuboid %03d" % (q, request_index, target),
            "target": target,
            "frequency": rng.randint(1, 12),
        })
    return queries


def _cold_drift(plan, rng):
    sessions = [("drift-%d" % i, c, n)
                for i, (c, n) in enumerate(((20, 5), (30, 3), (40, 8), (50, 10)))]
    for name, candidates, nodes in sessions:
        plan.session(name, _ssb_config(candidates, nodes))
    scenarios = {name: _scenarios(rng, PASS_REQUESTS["cold-drift"] // len(sessions))
                 for name, _, _ in sessions}
    for i in range(PASS_REQUESTS["cold-drift"]):
        name, _, nodes = sessions[i % len(sessions)]
        plan.add({"kind": "solve", "session": name,
                  "objective": _objective(rng, scenarios[name].pop(), nodes),
                  "workload": {"kind": "queries",
                               "queries": _drift_queries(rng, i)}})


def _timeline_spec(rng):
    drifts = [{"kind": "query-churn", "rate": round(rng.uniform(0.05, 0.3), 3)}]
    if rng.random() < 0.5:
        drifts.append({"kind": "frequency-decay",
                       "factor": round(rng.uniform(0.7, 0.95), 3)})
    else:
        drifts.append({"kind": "seasonal-spike", "season_length": 4,
                       "phase": rng.randrange(4),
                       "amplitude": round(rng.uniform(0.2, 0.8), 3)})
    return {"num_periods": 12, "seed": rng.randrange(1 << 30),
            "drifts": drifts}


def _policy(rng):
    kind = rng.choice(("static", "every-k", "on-drift"))
    if kind == "every-k":
        return {"kind": "every-k", "k": rng.randint(2, 4)}
    if kind == "on-drift":
        return {"kind": "on-drift", "threshold": round(rng.uniform(0.1, 0.3), 3)}
    return {"kind": "static"}


def _planning_request(kind, rng, scenario):
    small = rng.choice(("plan-12", "plan-15"))
    if kind in ("bnb-50", "bnb-100"):
        return {"kind": "solve", "session": "plan-" + kind[4:],
                "solver": "branch-and-bound",
                "objective": _objective(rng, scenario)}
    if kind == "solve-joint":
        return {"kind": "solve-joint", "session": "plan-100",
                "objective": _objective(rng, scenario)}
    if kind.startswith("frontier-"):
        return {"kind": "frontier", "session": "plan-" + kind[9:],
                "objective": {"scenario": "mv3",
                              "alpha": round(rng.uniform(0.0, 1.0), 3)}}
    if kind == "timeline":
        return {"kind": "timeline", "session": small,
                "objective": _objective(rng, scenario),
                "timeline": _timeline_spec(rng),
                "policy": _policy(rng)}
    if kind == "compare-policies":
        return {"kind": "compare-policies", "session": small,
                "objective": _objective(rng, scenario),
                "timeline": _timeline_spec(rng),
                "policies": [{"kind": "static"},
                             {"kind": "every-k", "k": rng.randint(2, 4)},
                             {"kind": "on-drift",
                              "threshold": round(rng.uniform(0.1, 0.3), 3)}]}
    assert kind == "compare-providers", kind
    return {"kind": "compare-providers", "session": small,
            "objective": _objective(rng, scenario)}


def _planning(plan, rng):
    for candidates in (12, 15, 50, 100):
        plan.session("plan-%d" % candidates, _ssb_config(candidates))
    classes = [kind for kind, count in PLANNING_MIX.items() for _ in range(count)]
    rng.shuffle(classes)
    # Frontier requests take an MV3 alpha instead and ignore theirs.
    scenarios = {kind: _scenarios(rng, count) for kind, count in PLANNING_MIX.items()}
    for kind in classes:
        plan.add(_planning_request(kind, rng, scenarios[kind].pop()))


def make_plan(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r; expected one of %s"
                         % (workload, ", ".join(WORKLOADS)))
    # String seeding is stable across runs and Python versions.
    rng = random.Random("%s/%d" % (workload, seed))
    plan = Plan()
    {"warm-advise": _warm_advise, "cold-drift": _cold_drift,
     "planning": _planning}[workload](plan, rng)
    return plan
