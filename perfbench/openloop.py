"""Open-loop load generator: reads (and optional writes) sent on a fixed schedule.

Requests are sent when they are *due*, whether or not earlier ones have
completed, and each read is timed from its due time to the moment its
job finished (``Job.served_at``, peeked through the public
``AnalyticsEngine.job()`` before ``result()`` pops the job).  A stall of
the sender therefore shows up in the latency of every request it
delays, and how late the sender ran is reported separately.

Two threads drive a phase, never more than the 2 cores this benchmark
targets: the calling thread sends, one reaper thread collects finished
reads (releasing their in-flight slots) and notices when each write has
become visible on every replica.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from spans import Span, SpanRecorder

#: Reaper poll period.  Latencies come from ``served_at`` and are exact;
#: the poll period only bounds write-visibility resolution and how long
#: a finished read keeps its in-flight slot.
POLL_S = 0.001


def poisson_offsets(rate: float, duration_s: float,
                    rng: np.random.Generator,
                    windows: int = 1) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on its counts.

    The phase is cut into ``windows`` equal windows, each with exactly
    ``round(rate * duration_s / windows)`` arrivals placed as sorted
    uniform points (the arrival times of a Poisson process given how
    many arrived).  Fixing the counts fixes the sample sizes, and so the
    tail percentile every run reports.
    """
    width = duration_s / windows
    count = int(round(rate * width))
    return np.concatenate([
        np.sort(rng.uniform(w * width, (w + 1) * width, size=count))
        for w in range(windows)])


def periodic_offsets(rate: float, duration_s: float) -> np.ndarray:
    """Evenly spaced offsets (a fixed-rate stream)."""
    count = int(round(rate * duration_s))
    return (np.arange(count) + 0.5) / rate


@dataclass
class ReadOutcome:
    kind: str
    due: float
    served_at: float | None = None
    cached: bool = False
    submitted_at: float | None = None
    error: str | None = None

    @property
    def latency_s(self) -> float | None:
        if self.served_at is None or self.error is not None:
            return None
        return self.served_at - self.due


@dataclass
class WriteOutcome:
    seq: int
    due: float
    returned: float
    visible: float | None = None

    @property
    def visible_s(self) -> float | None:
        return None if self.visible is None else self.visible - self.returned


@dataclass
class PhaseResult:
    start: float  # perf_counter time of offset 0
    #: From the phase start to the last completed read.
    elapsed_s: float
    reads: list[ReadOutcome]
    writes: list[WriteOutcome]
    late_s: list[float]
    lag_max: int = 0
    pending_max: int = 0
    write_errors: int = 0

    def read_latencies(self) -> list[float]:
        return [r.latency_s for r in self.reads if r.latency_s is not None]

    @property
    def failed_reads(self) -> int:
        return sum(1 for r in self.reads if r.latency_s is None)


def _span(rec: SpanRecorder | None, name: str, **kw):
    return nullcontext() if rec is None else rec.span(name, **kw)


class _Reaper(threading.Thread):
    def __init__(self, group, recorder: SpanRecorder | None):
        super().__init__(name="perfbench-reaper", daemon=True)
        self.group = group
        self.recorder = recorder
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.sender_done = threading.Event()
        self.drain_deadline = float("inf")
        self.lag_max = 0
        self.pending_max = 0

    def reap(self, item: tuple) -> None:
        """Collect one finished read (also called inline by the sender
        for reads that finished at submit, i.e. cache hits)."""
        out, ticket, job, rid, read_id = item
        rec = self.recorder
        out.served_at = job.served_at
        out.cached = job.cached
        out.submitted_at = job.submitted_at
        try:
            with _span(rec, "read.result", req=rid, parent=read_id):
                self.group.result(ticket, timeout=0)
        except Exception as exc:  # failed job: a miss, reported by kind
            out.error = f"{type(exc).__name__}: {exc}"
        if rec is not None:
            rec.add(Span(read_id, "read", out.due,
                         out.served_at or time.perf_counter(), None, rid,
                         {"kind": out.kind, "cached": out.cached}))

    def run(self) -> None:
        reads: list[tuple] = []
        writes: list[WriteOutcome] = []
        reps = self.group.replicas
        while True:
            while True:
                try:
                    item = self.inbox.get_nowait()
                except queue.Empty:
                    break
                (writes if isinstance(item, WriteOutcome) else reads).append(
                    item)
            if reads:
                still = []
                for item in reads:
                    if item[2].done.is_set():
                        self.reap(item)
                    else:
                        still.append(item)
                reads = still
            applied = min(rep.applied_seq for rep in reps)
            if writes:
                now = time.perf_counter()
                while writes and applied > writes[0].seq:
                    writes.pop(0).visible = now
            self.lag_max = max(self.lag_max,
                               self.group.log.head_seq - applied)
            self.pending_max = max(self.pending_max, max(
                rep.engine.scheduler.pending() for rep in reps))
            if self.sender_done.is_set() and self.inbox.empty():
                if not reads and not writes:
                    return
                if time.perf_counter() > self.drain_deadline:
                    for item in reads:
                        item[0].error = "timeout: not served before drain"
                    return
            time.sleep(POLL_S)


def run_phase(group, schedule: list[tuple], duration_s: float, *,
              recorder: SpanRecorder | None = None,
              read_timeout: float = 20.0,
              drain_s: float = 30.0) -> PhaseResult:
    """Send ``schedule`` against ``group`` and collect every outcome.

    ``schedule`` items are ``(offset_s, "read", kind, params)`` or
    ``(offset_s, "write", src, dst, op)``, sorted by offset.  Shed,
    timed-out and failed reads get no latency.
    """
    reaper = _Reaper(group, recorder)
    reaper.start()
    reads: list[ReadOutcome] = []
    writes: list[WriteOutcome] = []
    late: list[float] = []
    write_errors = 0
    t0 = time.perf_counter() + 0.05
    try:
        for rid, item in enumerate(schedule):
            due = t0 + item[0]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            late.append(sent - due)
            if item[1] == "write":
                try:
                    with _span(recorder, "write.submit", req=rid):
                        res = group.apply_updates(item[2], item[3], item[4],
                                                  wait="none")
                except RuntimeError:
                    write_errors += 1
                    continue
                w = WriteOutcome(res["seq"], due, time.perf_counter())
                writes.append(w)
                reaper.inbox.put(w)
                continue
            kind, params = item[2], item[3]
            out = ReadOutcome(kind, due)
            reads.append(out)
            read_id = None if recorder is None else recorder.new_id()
            try:
                with _span(recorder, "read.submit", req=rid, parent=read_id):
                    ticket = group.submit(kind, timeout=read_timeout,
                                          **params)
            except Exception as exc:  # shed or refused: a failed read
                out.error = f"{type(exc).__name__}: {exc}"
                continue
            job = group.router.replicas[ticket.replica_id].engine.job(
                ticket.job_id)
            entry = (out, ticket, job, rid, read_id)
            if job.done.is_set():
                reaper.reap(entry)
            else:
                reaper.inbox.put(entry)
    finally:
        reaper.drain_deadline = time.perf_counter() + drain_s
        reaper.sender_done.set()
        reaper.join(timeout=drain_s + 10.0)
    for rep in group.replicas:
        write_errors += len(rep.drain_errors())
    ends = [r.served_at for r in reads if r.served_at is not None]
    elapsed = max(ends, default=t0 + duration_s) - t0
    return PhaseResult(t0, elapsed, reads, writes, late, reaper.lag_max,
                       reaper.pending_max, write_errors)
