"""Child processes of the benchmark: in-process workers and servers.

Every child is started with ``PYTHONPATH=src`` from the checkout root,
its stderr goes to a log file in the run's work directory, and
:meth:`Child.close` always reaps it (terminate, then kill).
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import re
import socket
import subprocess
import sys
import threading
import time

#: Longest wait for one reply from a child before the run is aborted.
REPLY_TIMEOUT_S = 150.0

#: Environment every benchmark process runs under. numpy asks the
#: kernel for transparent huge pages on large arrays, and whether it
#: gets them depends on how fragmented the host's memory is: on a
#: 2-vCPU VM that moved whole runs by up to 25% with no change in the
#: reference probe. Without huge pages the spread of ``serve``'s
#: ``op_s_p50`` across seeds fell from 9.0% to 4.3%, and of ``setup_s``
#: from 15% to 6-11%.
BENCH_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")

#: What a worker writes to stderr when its set-up is done. A server's
#: ``listening on`` line marks the same point in its stderr log.
READY_LINE = "perfbench worker ready"
SETUP_DONE = re.compile(re.escape(READY_LINE) + "|" + _LISTENING.pattern)


def child_env(root: pathlib.Path) -> "dict[str, str]":
    env = {**os.environ, **BENCH_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class ChildError(RuntimeError):
    """A child died, timed out or answered with an error."""


def vmhwm_mb(pid) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildError(f"VmHWM missing from /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


class Child:
    """A child process whose stdout lines are read on a thread."""

    def __init__(self, argv, root: pathlib.Path, log: pathlib.Path, cwd=None) -> None:
        self.log_path = log
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=str(cwd or root), env=child_env(root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )
        self._lines: "queue.Queue[bytes | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def reply(self) -> dict:
        """The next ``@@``-prefixed JSON reply (other stdout is skipped)."""
        while True:
            try:
                line = self._lines.get(timeout=REPLY_TIMEOUT_S)
            except queue.Empty:
                raise ChildError(
                    f"no reply within {REPLY_TIMEOUT_S:.0f} s (see {self.log_path})"
                ) from None
            if line is None:
                raise ChildError(f"child exited with {self.proc.wait()} (see {self.log_path})")
            if line.startswith(b"@@"):
                payload = json.loads(line[2:])
                if "error" in payload:
                    raise ChildError(payload["error"])
                return payload

    def send(self, cmd: dict) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self._reader.join(timeout=5)
        self._log.close()


def spawn_worker(root, log, extra=(), python_flags=()) -> "tuple[Child, float]":
    """Start a worker; return it and its raw set-up time."""
    start = time.perf_counter()
    child = Child(
        [sys.executable, *python_flags, str(root / "perfbench" / "worker.py"), *extra],
        root, log,
    )
    try:
        child.reply()
    except BaseException:
        child.close()
        raise
    return child, time.perf_counter() - start


class Server:
    """A render service child; ready once it answers ``ping``."""

    def __init__(self, argv, root, log, cwd) -> None:
        self.log_path = log
        self._log = open(log, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=str(cwd), env=child_env(root),
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.PIPE,
        )
        self._stderr_lines: "queue.Queue[str | None]" = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        try:
            self.host, self.port = self._wait_listening()
            conn = Connection(self.host, self.port)
            try:
                pong, _raw, _t = conn.request({"id": "setup", "op": "ping"})
            finally:
                conn.close()
            if not pong.get("ok"):
                raise ChildError(f"server ping failed: {pong}")
        except BaseException:
            self.close(graceful=False)
            raise
        self.setup_raw_s = time.perf_counter() - start

    def _read_stderr(self) -> None:
        for raw in self.proc.stderr:
            self._log.write(raw)
            self._stderr_lines.put(raw.decode("utf-8", "replace"))
        self._stderr_lines.put(None)

    def _wait_listening(self) -> "tuple[str, int]":
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while True:
            try:
                line = self._stderr_lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise ChildError("server did not start listening in time") from None
            if line is None:
                raise ChildError(f"server exited with {self.proc.wait()} (see {self.log_path})")
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def stats(self) -> dict:
        conn = Connection(self.host, self.port)
        try:
            response, _raw, _t = conn.request({"id": "stats", "op": "stats"})
        finally:
            conn.close()
        return response.get("stats", {})

    def close(self, graceful: bool = True) -> None:
        if self.proc.poll() is None and graceful:
            try:
                conn = Connection(self.host, self.port)
                try:
                    conn.request({"id": "bye", "op": "shutdown"})
                finally:
                    conn.close()
                self.proc.wait(timeout=20)
            except (OSError, ChildError, subprocess.TimeoutExpired, ValueError):
                pass
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        self._log.close()


class Connection:
    """One blocking JSON-lines connection; returns raw response bytes."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> "tuple[dict, bytes, tuple[float, float]]":
        line = (json.dumps(payload, sort_keys=True) + "\n").encode()
        start = time.perf_counter()
        self._file.write(line)
        self._file.flush()
        raw = self._file.readline()
        end = time.perf_counter()
        if not raw:
            raise ChildError("server closed the connection")
        return json.loads(raw), raw, (start, end)

    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
