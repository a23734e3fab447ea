"""advisor_server bounds a request line and survives hostile values.

Pipes, over stdin, an oversized line, a valid request, a line of exactly
the cap, a line one byte over it whose newline arrives in the same read,
and a final request with no trailing newline. Each oversized line must
get one InvalidArgument reply naming the cap and be discarded through
its newline; every other line must be served.

Then pipes four lines whose values once wrapped a bill or aborted the
server: nb_instances 1e15, a 9e18 milli-month storage period, a 1e15
spike amplitude and an INT64_MAX num_periods. Each must get one
InvalidArgument reply naming its field, and a well-formed solve on
another session must still be served by the same process.

    python3 tests/advisor_server_line_test.py build/advisor_server
"""

import json
import subprocess
import sys

MAX_LINE_BYTES = 1 << 20  # kMaxLineBytes in tools/advisor_server.cc
STATS = '{"op":"stats"}'


def padded_stats(length):
    head = '{"op":"stats","pad":"'
    line = head + "y" * (length - len(head) - 2) + '"}'
    assert len(line) == length
    return line


def run(server, stdin):
    done = subprocess.run([server], input=stdin, capture_output=True,
                          timeout=60, check=False)
    if done.returncode != 0:
        sys.exit("advisor_server exited %d: %s" %
                 (done.returncode, done.stderr.decode()[-500:]))
    return [json.loads(line) for line in done.stdout.decode().splitlines()]


def check_line_cap(server):
    lines = [
        "x" * (MAX_LINE_BYTES + 5000),
        STATS,
        padded_stats(MAX_LINE_BYTES),
        padded_stats(MAX_LINE_BYTES + 1),
    ]
    replies = run(server, ("\n".join(lines) + "\n" + STATS).encode())
    expected_ok = [False, True, True, False, True]
    if [reply["ok"] for reply in replies] != expected_ok:
        sys.exit("replies %s, expected ok flags %s" %
                 ([r.get("code") for r in replies], expected_ok))
    for reply in (replies[0], replies[3]):
        if (reply["code"] != "InvalidArgument" or
                str(MAX_LINE_BYTES) not in reply["message"]):
            sys.exit("oversized line got %s" % reply)
    print("advisor_server line cap: %d replies as expected" % len(replies))


def timeline(spec):
    return {"op": "request",
            "request": {"kind": "timeline", "timeline": spec}}


HOSTILE = [
    ("nb_instances",
     {"op": "create_session", "name": "wide",
      "config": {"nb_instances": 1000000000000000}}),
    ("storage_period",
     {"op": "create_session", "name": "long",
      "config": {"schema": "ssb", "prorate_storage": False,
                 "storage_period_milli_months": 9000000000000000000}}),
    ("amplitude",
     timeline({"num_periods": 4, "period_length_milli_months": 1000,
               "drifts": [{"kind": "seasonal-spike", "season_length": 2,
                           "amplitude": 1e15}]})),
    ("num_periods", timeline({"num_periods": 9223372036854775807})),
]


def check_hostile_values(server):
    lines = [json.dumps(envelope) for _, envelope in HOSTILE] + [
        json.dumps({"op": "create_session", "name": "good",
                    "config": {"schema": "ssb"}}),
        json.dumps({"op": "request",
                    "request": {"kind": "solve", "session": "good"}}),
    ]
    replies = run(server, ("\n".join(lines) + "\n").encode())
    if len(replies) != len(lines):
        sys.exit("%d replies to %d lines: %s" % (len(replies), len(lines),
                                                 replies))
    for (field, _), reply in zip(HOSTILE, replies):
        if (reply["code"] != "InvalidArgument" or
                field not in reply.get("message", "")):
            sys.exit("hostile %s got %s" % (field, reply))
    created, solved = replies[len(HOSTILE):]
    if not created["ok"] or not solved["ok"] or "response" not in solved:
        sys.exit("well-formed session after the hostile lines got %s, %s" %
                 (created, solved))
    print("advisor_server hostile values: %d refused, then served" %
          len(HOSTILE))


if __name__ == "__main__":
    check_line_cap(sys.argv[1])
    check_hostile_values(sys.argv[1])
