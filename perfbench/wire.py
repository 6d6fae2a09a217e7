"""Socket side of the wire workloads: server process control and a
closed-loop JSONL client.

The client speaks the serving protocol directly (one JSON document per
line) instead of going through the program's own client, so the bytes on
the wire and the moment an answer is parsed are measured here.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import threading
import time
from typing import Dict, Iterator, List, Optional

DRAIN_EXIT_CODE = 128 + signal.SIGTERM


class Exchange:
    """One request/answer pair as the client saw it."""

    __slots__ = ("op", "sent", "done", "answer", "bytes_out", "bytes_in")

    def __init__(self, op: dict, sent: float, bytes_out: int):
        self.op = op
        self.sent = sent
        self.done = 0.0
        self.answer: Optional[dict] = None
        self.bytes_out = bytes_out
        self.bytes_in = 0

    @property
    def latency_s(self) -> float:
        return self.done - self.sent


def encode(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


class Connection:
    """One TCP connection driven by one thread: it keeps ``window``
    requests in flight and sends the next only when an answer arrives."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self._seq = 0

    def _send(self, op: dict, pending: Dict[str, Exchange], tag: str) -> None:
        self._seq += 1
        rid = f"{tag}{self._seq}"
        frame = encode(dict(op, request_id=rid))
        ex = Exchange(op, time.perf_counter(), len(frame))
        pending[rid] = ex
        self.sock.sendall(frame)

    def _receive(self, pending: Dict[str, Exchange]) -> Exchange:
        while b"\n" not in self._buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        answer = json.loads(line)
        done = time.perf_counter()
        ex = pending.pop(answer.get("request_id"))
        ex.done = done
        ex.answer = answer
        ex.bytes_in = len(line) + 1
        return ex

    def run(
        self,
        ops: Iterator[dict],
        lock: threading.Lock,
        window: int,
        stop_at: float,
        out: List[Exchange],
        tag: str,
    ) -> None:
        pending: Dict[str, Exchange] = {}

        def next_op() -> Optional[dict]:
            with lock:
                return next(ops, None)

        for _ in range(window):
            op = next_op()
            if op is None:
                break
            self._send(op, pending, tag)
        while pending:
            out.append(self._receive(pending))
            if time.perf_counter() < stop_at:
                op = next_op()
                if op is not None:
                    self._send(op, pending, tag)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def closed_loop(
    host: str, port: int, ops: List[dict], *, connections: int, window: int, seconds: float
) -> tuple:
    """Drive ``ops`` in order over ``connections`` connections for
    ``seconds``; returns ``(exchanges, start)``, ``start`` on the
    ``time.perf_counter`` clock.  Requests sent before the deadline are
    all answered and returned."""
    conns = [Connection(host, port) for _ in range(connections)]
    it = iter(ops)
    lock = threading.Lock()
    results: List[List[Exchange]] = [[] for _ in conns]
    errors: List[BaseException] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def drive(i: int) -> None:
        try:
            conns[i].run(it, lock, window, stop_at, results[i], f"c{i}-")
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for c in conns:
        c.close()
    if errors:
        raise errors[0]
    return [ex for r in results for ex in r], start


def call_all(host: str, port: int, ops: List[dict]) -> List[Exchange]:
    """Send ``ops`` one at a time over one connection (warm-up, final reads)."""
    conn = Connection(host, port)
    try:
        out: List[Exchange] = []
        conn.run(iter(ops), threading.Lock(), 1, float("inf"), out, "w-")
        return out
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Server process control


class ServerProcess:
    """A serving process in its own process group, started from the
    checkout root, that prints ``listening on HOST:PORT`` when ready."""

    def __init__(self, argv: List[str], *, root: str, stderr_path: str, env: dict):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.host, self.port = self._await_listening(timeout_s=120.0)

    def _await_listening(self, timeout_s: float) -> tuple:
        deadline = time.monotonic() + timeout_s
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode(errors="replace").splitlines():
                    if line.startswith("listening on "):
                        host, _, port = line[len("listening on "):].rpartition(":")
                        return host, int(port)
            elif self.proc.poll() is not None:
                break
        self.kill()
        raise RuntimeError(f"server did not start; see {self.stderr_path}")

    def group(self) -> List[int]:
        """Live (non-zombie) processes of the server's process group."""
        return [pid for pid, state in _group_members(self.pgid) if state != "Z"]

    def peak_rss_mb(self) -> float:
        """Largest peak resident set among the group's processes."""
        peak = 0
        for pid in self.group():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def stop(self, *, timeout_s: float = 60.0) -> List[str]:
        """SIGTERM, wait for the drain, then wait for the group to empty.
        Returns the hygiene problems found (empty when all is well)."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["server did not exit within %.0f s of SIGTERM" % timeout_s]
        if code != DRAIN_EXIT_CODE:
            problems.append(f"server exit code {code}, expected {DRAIN_EXIT_CODE}")
        deadline = time.monotonic() + 10.0
        while self.group() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = self.group()
        if left:
            problems.append(f"processes {left} of the server group outlived it")
            self.kill()
        self._close()
        return problems

    def kill(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def stats_json(self) -> Optional[dict]:
        """The last JSON object the server wrote to stderr (its stats)."""
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        start = text.rfind("\n{")
        start = 0 if text.startswith("{") and start < 0 else start + 1
        try:
            return json.loads(text[start:])
        except ValueError:
            return None


def _group_members(pgid: int) -> List[tuple]:
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append((int(name), fields[0]))
    return members
