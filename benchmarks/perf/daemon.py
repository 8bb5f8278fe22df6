"""Lifecycle of one ``repro-analyze serve`` subprocess, and its one client.

The daemon under test is a real child process (``python -m repro.cli
serve --port 0`` with default flags), so the load generator and the
program never share a GIL; they do share a CPU (:func:`one_cpu`, which
says why).  :class:`Daemon` owns the child from spawn to
reaping: the ephemeral port is parsed from the announce line under a
deadline, and ``__exit__`` always ends the process (SIGINT first when a
trace must be flushed, then terminate, then kill) — no orphan survives an
exception or Ctrl-C in the benchmark.

:class:`Client` is the whole load generator: one thread, one keep-alive
connection.  A non-200 or a socket error fails the *op*, not the run:
``post`` reports it as ``None`` and reconnects.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ANNOUNCE = re.compile(rb"listening on http://([0-9.]+):(\d+)")
READY_DEADLINE_S = 30.0
STOP_DEADLINE_S = 30.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class DaemonError(RuntimeError):
    """The daemon did not start, or died, before the benchmark was done."""


def confine_to_one_cpu() -> set[int]:
    """Confine this process, and every child it starts from now on, to one
    CPU; returns the CPUs it was allowed before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


@contextmanager
def one_cpu():
    """Confine this process, and every child it starts meanwhile, to one CPU.

    A closed loop with one client never has the generator and the daemon
    busy at once, so sharing a CPU costs the round trip nothing.  Apart,
    each side halts its (virtual) CPU while it waits for the other, and the
    wake-up is the hypervisor's to price: on the recording host an unpinned
    warm hit read 0.66-1.21 ms from run to run, one CPU each 0.62-0.81 ms,
    one shared CPU 0.57-0.69 ms.  The shared CPU is the steadiest reading of
    what the code costs, and the same on a host of any size.
    """
    allowed = confine_to_one_cpu()
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def child_env(root: Path) -> dict[str, str]:
    """The environment of every program under test: the caller's, plus ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Daemon:
    """``with Daemon(root, log) as daemon:`` — a ready daemon on ``daemon.port``."""

    def __init__(self, root: Path, log_path: Path, *, trace_path: Path | None = None):
        self.root = root
        self.log_path = log_path
        self.trace_path = trace_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def __enter__(self) -> "Daemon":
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=self.root,
                env=child_env(self.root),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        try:
            self.port = self._await_announce()
        except BaseException:
            self._reap(graceful=False)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A traced daemon writes its span log on SIGINT; after an error the
        # log is worthless, so go straight to terminate.
        self._reap(graceful=self.trace_path is not None and exc_type is None)

    def _await_announce(self) -> int:
        assert self.process is not None and self.process.stdout is not None
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + READY_DEADLINE_S
        seen = b""
        while True:
            match = ANNOUNCE.search(seen)
            if match:
                return int(match.group(2))
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DaemonError(
                    f"no announce line within {READY_DEADLINE_S:.0f}s; "
                    f"stderr: {self._log_tail()}"
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise DaemonError(
                    f"daemon exited with code {self.process.wait()} before "
                    f"announcing; stderr: {self._log_tail()}"
                )
            seen += chunk

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def _reap(self, *, graceful: bool) -> None:
        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None and graceful:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=STOP_DEADLINE_S)
                except subprocess.TimeoutExpired:
                    pass
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()

    # -- the program's own resource use, read from /proc ---------------------
    def cpu_seconds(self) -> float:
        """User + system CPU the daemon has used so far (all its threads)."""
        assert self.process is not None
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        # Fields after the parenthesised command name; utime and stime are
        # fields 14 and 15 of the whole line.
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM line in /proc status")


class Client:
    """One keep-alive connection to one daemon; every call is one round trip."""

    def __init__(self, port: int, *, timeout: float = 120.0):
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _request(self, method: str, path: str, body: str | None) -> dict | None:
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            self._connection.request(method, path, body=body)
            response = self._connection.getresponse()
            raw = response.read()
            if response.status != 200:
                return None
            return json.loads(raw)
        except (OSError, http.client.HTTPException, json.JSONDecodeError):
            self.close()  # the next op reconnects
            return None

    def post(self, payload: str) -> dict | None:
        """``POST /v1/query``; ``None`` on a non-200 or a socket error."""
        return self._request("POST", "/v1/query", payload)

    def get(self, path: str) -> dict | None:
        return self._request("GET", path, None)
