"""Job queue with admission control and pressure-driven coalescing.

The scheduler sits between :meth:`AnalyticsEngine.submit` and the rank
world.  It enforces two serving-layer policies:

* **admission control** — a bounded FIFO: once ``max_pending`` jobs are
  queued, further submissions raise :class:`AdmissionError` immediately
  instead of growing an unbounded backlog (fail fast under overload);
* **batching** — the dispatcher takes the oldest job plus every job
  *already queued* with the same *batch key* (same analytic kind and
  identical non-source parameters), up to :data:`MAX_BATCH`, and runs
  them as one multi-source run — k pending BFS sources become one
  :func:`~repro.analytics.batched.multi_source_bfs` call, k PPR seeds one
  blocked sweep.  It never waits for more arrivals: jobs queue up only
  while the dispatcher is busy, so batches grow with queue pressure and
  an idle engine serves a lone query at once.

Jobs with ``batch_key=None`` are never coalesced.  Coalescing may overtake
earlier non-matching jobs by at most one batch (bounded reordering; each
batch is anchored at the *oldest* queued job, so no job starves).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["AdmissionError", "Job", "JobScheduler", "MAX_BATCH"]

#: Hard cap on jobs coalesced into one run.
MAX_BATCH = 16


class AdmissionError(RuntimeError):
    """Submission rejected: the pending queue is at its admission bound."""


@dataclass
class Job:
    """One submitted query and its completion state."""

    id: int
    kind: str
    params: dict[str, Any]
    batch_key: Hashable | None = None
    timeout: float | None = None
    submitted_at: float = field(default_factory=time.perf_counter)
    # Completion state (written by the dispatcher, read via the event).
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    result: Any = field(default=None, repr=False)
    error: BaseException | None = field(default=None, repr=False)
    cached: bool = False
    served_at: float | None = None

    def finish(self, result: Any = None,
               error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self.served_at = time.perf_counter()
        self.done.set()

    @property
    def latency_s(self) -> float | None:
        """Submit-to-completion seconds (None while pending)."""
        if self.served_at is None:
            return None
        return self.served_at - self.submitted_at


class JobScheduler:
    """Bounded FIFO that coalesces queued same-key jobs.

    Parameters
    ----------
    max_pending:
        Admission bound on queued (not yet dispatched) jobs.
    """

    def __init__(self, max_pending: int = 64):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self._queue: list[Job] = []
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._closed = False
        self._paused = False

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue ``job`` or raise :class:`AdmissionError` when full."""
        with self._nonempty:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if len(self._queue) >= self.max_pending:
                raise AdmissionError(
                    f"queue full ({self.max_pending} pending jobs); "
                    f"retry later")
            self._queue.append(job)
            self._nonempty.notify_all()

    def close(self) -> None:
        """Reject future submissions and wake any waiting dispatcher."""
        with self._nonempty:
            self._closed = True
            self._nonempty.notify_all()

    def pause(self) -> None:
        """Hold queued jobs back from :meth:`next_batch` until resumed."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        with self._nonempty:
            self._paused = False
            self._nonempty.notify_all()

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def drain(self) -> list[Job]:
        """Remove and return every queued job (used at shutdown)."""
        with self._lock:
            out, self._queue = self._queue, []
            return out

    # ------------------------------------------------------------------
    def next_batch(self, poll_timeout: float = 0.1) -> list[Job]:
        """Block up to ``poll_timeout`` for work; return a coalesced batch.

        Returns ``[]`` when nothing arrived (the dispatcher loops and
        re-checks its stop flag).  A batchable head job takes every
        same-key job queued at this moment with it, up to
        :data:`MAX_BATCH`; the call never waits for later arrivals.
        """
        deadline = time.monotonic() + poll_timeout
        with self._nonempty:
            while not self._queue or self._paused:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return []
                self._nonempty.wait(remaining)
            head = self._queue.pop(0)
            if head.batch_key is None:
                return [head]
            batch, rest = [head], []
            for job in self._queue:
                if job.batch_key == head.batch_key and len(batch) < MAX_BATCH:
                    batch.append(job)
                else:
                    rest.append(job)
            self._queue = rest
            return batch
