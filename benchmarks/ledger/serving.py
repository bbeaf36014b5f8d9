"""The ``repro serve`` subprocess, its HTTP clients and the load shapes.

Load is **closed loop**: each reader is one keep-alive connection whose
next request leaves only after the previous reply arrived, like the CLI
and ``curl`` callers the docs describe.  The writer of ``ingest_mix``
is the exception — it POSTs on a **schedule** and times each ingest
from the moment it was due, so a stall also charges the requests it
delays, and how late the generator itself ran is reported.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import quote

from .inputs import Cell
from .speed import SpeedMeter, process_cpu_seconds

#: Seconds a server may take to answer ``/healthz`` after spawn.
START_TIMEOUT = 60.0
#: Seconds a server gets to drain after SIGTERM before it is killed.
STOP_TIMEOUT = 20.0


class ServerError(RuntimeError):
    """The server subprocess failed to start, answer or stop."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` subprocess (its own GIL)."""

    def __init__(self, corpus_dir: str, flags: list[str], *, src_dir: str,
                 log_path: str) -> None:
        self.port = free_port()
        self.log_path = log_path
        self._log = open(log_path, "wb")
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        self.spawned_at = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", corpus_dir,
                 "--alias", "ieee", "--workers", "2", "--no-autopilot",
                 "--port", str(self.port), *flags],
                stdout=self._log, stderr=subprocess.STDOUT, env=env,
                cwd=os.path.dirname(log_path))
        except BaseException:
            self._log.close()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_healthy(self, meter: SpeedMeter | None = None) -> float:
        """Poll ``/healthz`` until 200; seconds since spawn.  *meter*
        takes its probe slices between polls."""
        deadline = self.spawned_at + START_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise ServerError(
                    f"server exited with {self.process.returncode} before "
                    f"/healthz answered\n{self.log_tail()}")
            try:
                client = Client(self.port, timeout=1.0)
                try:
                    if client.get("/healthz").status == 200:
                        return time.perf_counter() - self.spawned_at
                finally:
                    client.close()
            except OSError:
                pass
            if meter is not None:
                meter.after_wait()
            time.sleep(0.02)
        raise ServerError(f"/healthz did not answer within {START_TIMEOUT}s"
                          f"\n{self.log_tail()}")

    def cpu_seconds(self) -> float:
        """CPU seconds the server has used so far, all threads."""
        return process_cpu_seconds(self.pid)

    def peak_rss_mib(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        with open(self.log_path, encoding="utf-8", errors="replace") as log:
            return "".join(log.readlines()[-lines:])

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL; always waits for the
        process to end.  Returns its exit code."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
            return self.process.wait()
        finally:
            self._log.close()


@dataclass
class Reply:
    status: int
    body: bytes
    seconds: float
    #: CPU seconds the server used until the reply's first byte arrived
    #: (0 without a CPU clock).  What follows the first byte is transfer
    #: — today the 40 ms the body spends behind a delayed ACK — and no
    #: CPU the server burns meanwhile (an ingest beside it) is this
    #: request's.
    cpu: float = 0.0

    def json(self) -> dict:
        return json.loads(self.body)


class Client:
    """One keep-alive HTTP/1.1 connection.  With *cpu_clock* (the
    server's :meth:`Server.cpu_seconds`) every reply also says how many
    CPU seconds the server used while the client waited for its first
    byte."""

    def __init__(self, port: int, timeout: float = 60.0,
                 cpu_clock: Callable[[], float] | None = None) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=timeout)
        self._cpu_clock = cpu_clock or (lambda: 0.0)

    def _exchange(self, method: str, path: str, body: bytes | None,
                  headers: dict[str, str]) -> Reply:
        cpu = self._cpu_clock()
        started = time.perf_counter()
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        first_byte = time.perf_counter() - started
        cpu = self._cpu_clock() - cpu
        data = response.read()
        return Reply(response.status, data, time.perf_counter() - started,
                     min(cpu, first_byte))

    def get(self, path: str) -> Reply:
        return self._exchange("GET", path, None, {})

    def post(self, path: str, body: bytes, content_type: str) -> Reply:
        return self._exchange("POST", path, body,
                              {"Content-Type": content_type})

    def post_json(self, path: str, payload: dict) -> Reply:
        return self.post(path, json.dumps(payload).encode("utf-8"),
                         "application/json")

    def close(self) -> None:
        self._connection.close()


def search_path(cell: Cell, *, method: str = "auto",
                cache: bool = True) -> str:
    path = f"/search?q={quote(cell.nexi)}&k={cell.k}&method={method}"
    return path if cache else path + "&cache=0"


# ----------------------------------------------------------------------
# Load shapes
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One ``/search`` exchange as the client saw it."""

    cell: Cell
    started: float  # seconds since the window opened
    seconds: float
    cpu: float  # server CPU seconds until the first byte
    ok: bool
    nbytes: int
    #: The reply payload without its hits (method, cached, counters).
    info: dict


@dataclass
class ReaderLog:
    samples: list[Sample] = field(default_factory=list)
    error: BaseException | None = None


class AnswerOracle(Protocol):
    def matches(self, cell: Cell, payload: dict) -> bool:
        """Is the reply's hit list the expected one for its epoch?"""


def checked_search(client: Client, cell: Cell, oracle: AnswerOracle,
                   origin: float) -> Sample:
    """One ``method=auto`` search, compared with the oracle on
    (docid, sid, end, score)."""
    started = time.perf_counter() - origin
    reply = client.get(search_path(cell))
    ok, info = False, {}
    if reply.status == 200:
        info = reply.json()
        ok = oracle.matches(cell, info)
        del info["hits"]
    return Sample(cell, started, reply.seconds, reply.cpu, ok,
                  len(reply.body), info)


def read_loop(server: Server, schedule: list[Cell], oracle: AnswerOracle,
              origin: float, seconds: float, log: ReaderLog) -> None:
    """Walk *schedule* cyclically until the window closes."""
    client = Client(server.port, cpu_clock=server.cpu_seconds)
    try:
        deadline = origin + seconds
        for cell in itertools.cycle(schedule):
            if time.perf_counter() >= deadline:
                return
            log.samples.append(checked_search(client, cell, oracle, origin))
    except BaseException as error:
        log.error = error
        raise
    finally:
        client.close()


@dataclass
class IngestSample:
    due: float  # seconds since the window opened
    late: float  # how long after *due* the request left
    seconds: float  # ack latency measured from *due*
    cpu: float  # server CPU seconds from sending to the ack's first byte
    ok: bool


@dataclass
class WriterLog:
    samples: list[IngestSample] = field(default_factory=list)
    error: BaseException | None = None


#: The writer's schedule: first ingest at FIRST_DUE, one every PERIOD.
INGEST_FIRST_DUE = 1.0
INGEST_PERIOD = 2.0


def ingest_due_times(seconds: float) -> list[float]:
    due, times = INGEST_FIRST_DUE, []
    while due < seconds:
        times.append(due)
        due += INGEST_PERIOD
    return times


def write_loop(server: Server, documents: list[str], origin: float,
               due_times: list[float], log: WriterLog) -> None:
    """POST one document at each due time (open loop on one connection:
    a slow ack makes the next send late, and the lateness is recorded)."""
    client = Client(server.port, timeout=120.0, cpu_clock=server.cpu_seconds)
    try:
        for due, xml in zip(due_times, documents):
            delay = origin + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            reply = client.post("/ingest", xml.encode("utf-8"),
                                "application/xml")
            done = time.perf_counter()
            log.samples.append(IngestSample(
                due, sent - origin - due, done - origin - due, reply.cpu,
                reply.status == 200 and "docid" in reply.json()))
    except BaseException as error:
        log.error = error
        raise
    finally:
        client.close()


def run_threads(targets: list[tuple]) -> None:
    """Run ``(function, *args)`` tuples on one thread each; join all."""
    threads = [threading.Thread(target=target[0], args=target[1:],
                                daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
