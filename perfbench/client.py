"""The TCP side of perfbench: launching advisor_server, setting it up,
and the closed-loop timed requests.

One client process, one connection, no client threads: the next request
goes out only after the previous reply has arrived.
"""

import gc
import os
import select
import socket
import subprocess
import time

import metrics

READY_TIMEOUT_S = 30.0
REPLY_TIMEOUT_S = 60.0
# During the timed loop the client and the server share one vCPU, and
# that vCPU changes to the next allowed one every MOVE_S seconds.
MOVE_S = 0.25


class ServerError(RuntimeError):
    pass


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One advisor_server process and the client's connection to it."""

    def __init__(self, binary, env):
        self.binary = binary
        self.env = env
        self.proc = None
        self.sock = None

    def launch(self):
        """Starts the server and returns once it prints its `listening`
        line on stderr. Retries on another port if the chosen one was
        taken between picking it and the server binding it."""
        for _ in range(5):
            port = _free_port()
            self.proc = subprocess.Popen(
                [self.binary, "--port", str(port)], env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE)
            line = self._read_stderr_line(READY_TIMEOUT_S)
            if b"listening" in line:
                self.port = port
                return
            self.stop()
            if b"bind" not in line:
                raise ServerError("advisor_server did not start: %r" % line)
        raise ServerError("advisor_server found no free port")

    def _read_stderr_line(self, timeout):
        fd = self.proc.stderr.fileno()
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return line
            chunk = self.proc.stderr.read1(4096)
            if not chunk:
                return line
            line += chunk
        return line

    def connect(self):
        self.sock = socket.create_connection(("127.0.0.1", self.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(REPLY_TIMEOUT_S)

    def roundtrip(self, line):
        """Sends one request line and returns its reply line (with the
        newline). A closed loop has one reply in flight, so the reply
        ends at the first newline that ends a read."""
        self.sock.sendall(line)
        data = self.sock.recv(1 << 20)
        while data and not data.endswith(b"\n"):
            more = self.sock.recv(1 << 20)
            if not more:
                break
            data += more
        if not data.endswith(b"\n"):
            raise ConnectionError("server closed the connection mid-reply")
        return data

    def stop(self):
        """Asks the server to shut down, then makes sure it has exited."""
        if self.sock is not None:
            try:
                self.roundtrip(b'{"op":"shutdown"}\n')
            except OSError:
                pass
            self.sock.close()
            self.sock = None
        if self.proc is not None:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stderr.close()
            self.proc = None


def _expect_ok(reply, what):
    if not reply.startswith(b'{"ok":true'):
        raise ServerError("%s failed: %s" % (what, reply[:300]))


def set_up(binary, env, plan):
    """Launch, listening line, every create_session, one priming request
    per session. Returns the live server and the phase times."""
    start = time.perf_counter_ns()
    server = Server(binary, env)
    try:
        server.launch()
        listening = time.perf_counter_ns()
        server.connect()
        for line in plan.create_lines:
            _expect_ok(server.roundtrip(line), "create_session")
        created = time.perf_counter_ns()
        for line in plan.prime_lines:
            _expect_ok(server.roundtrip(line), "priming request")
        primed = time.perf_counter_ns()
    except BaseException:
        server.stop()
        raise
    return server, {
        "setup_s": (primed - start) / 1e9,
        "setup.launch_ms": (listening - start) / 1e6,
        "setup.create_us": (created - listening) / 1e3,
        "setup.prime_us": (primed - created) / 1e3,
    }


def _pin(tids, cpus):
    os.sched_setaffinity(0, cpus)
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except ProcessLookupError:
            pass  # the server has exited; the loop reports why


def timed_loop(server, lines, seconds, min_requests):
    """Sends whole passes of `lines` until `seconds` have passed and at
    least `min_requests` were timed. Replies are kept as raw bytes and
    checked after the clock stops. Returns (latencies_ns, replies,
    wall_ns, cpu_s, passes, error); a transport error ends the loop
    early and is returned as `error`.

    The client and every server thread are pinned to one vCPU, so a
    round trip never waits for another vCPU to wake, and the vCPU moves
    round the allowed set every MOVE_S seconds, so each run spends the
    same share of its time on each vCPU whatever their neighbours do.
    The full set is restored before returning."""
    # Bound methods in locals and the reply read inlined (rather than
    # Server.roundtrip) keep the client's own cost per request small.
    send = server.sock.sendall
    recv = server.sock.recv
    clock = time.perf_counter_ns
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    tids = [int(t) for t in os.listdir("/proc/%d/task" % server.proc.pid)]
    move_ns = int(MOVE_S * 1e9)
    latencies = []
    replies = []
    passes = 0
    moves = 0
    error = None
    cpu_before = metrics.process_cpu_seconds(server.proc.pid)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        deadline = start + int(seconds * 1e9)
        next_move = start
        while True:
            for line in lines:
                t0 = clock()
                if t0 >= next_move:
                    _pin(tids, {cpus[moves % len(cpus)]})
                    moves += 1
                    next_move = t0 + move_ns
                    t0 = clock()
                send(line)
                data = recv(1 << 20)
                while data and data[-1] != 10:
                    more = recv(1 << 20)
                    if not more:
                        raise ConnectionError("server closed mid-reply")
                    data += more
                if not data:
                    raise ConnectionError("server closed the connection")
                latencies.append(clock() - t0)
                replies.append(data)
            passes += 1
            if clock() >= deadline and len(latencies) >= min_requests:
                break
    except OSError as e:
        error = e
    finally:
        wall = clock() - start
        if gc_was_enabled:
            gc.enable()
        _pin(tids, allowed)
    cpu = metrics.process_cpu_seconds(server.proc.pid) - cpu_before
    return latencies, replies, wall, cpu, passes, error
