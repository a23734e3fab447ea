"""advisor_server's input loop bounds a request line.

Pipes, over stdin, an oversized line, a valid request, a line of exactly
the cap, a line one byte over it whose newline arrives in the same read,
and a final request with no trailing newline. Each oversized line must
get one InvalidArgument reply naming the cap and be discarded through
its newline; every other line must be served.

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


def main(server):
    lines = [
        "x" * (MAX_LINE_BYTES + 5000),
        STATS,
        padded_stats(MAX_LINE_BYTES),
        padded_stats(MAX_LINE_BYTES + 1),
    ]
    stdin = ("\n".join(lines) + "\n" + STATS).encode()
    done = subprocess.run([server], input=stdin, capture_output=True,
                          timeout=60, check=False)
    if done.returncode != 0:
        sys.exit("advisor_server exited %d: %s" %
                 (done.returncode, done.stderr.decode()[-500:]))
    replies = [json.loads(line) for line in done.stdout.decode().splitlines()]
    expected_ok = [False, True, True, False, True]
    if [reply["ok"] for reply in replies] != expected_ok:
        sys.exit("replies %s, expected ok flags %s" %
                 ([r.get("code") for r in replies], expected_ok))
    for reply in (replies[0], replies[3]):
        if (reply["code"] != "InvalidArgument" or
                str(MAX_LINE_BYTES) not in reply["message"]):
            sys.exit("oversized line got %s" % reply)
    print("advisor_server line cap: %d replies as expected" % len(replies))


if __name__ == "__main__":
    main(sys.argv[1])
