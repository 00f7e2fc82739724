"""The open-loop load generator against a fake group with scripted service times."""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from openloop import periodic_offsets, poisson_offsets, run_phase
from stats import goodput


class _Job:
    def __init__(self, cached: bool):
        self.done = threading.Event()
        self.cached = cached
        self.submitted_at = time.perf_counter()
        self.served_at = None
        self.error = None

    def finish(self, error=None):
        self.error = error
        self.served_at = time.perf_counter()
        self.done.set()


class _FakeGroup:
    """Reads: ``hit`` finishes at submit, ``miss`` after ``delay``,
    ``fail`` finishes with an error, ``shed`` is refused; ``stall``
    blocks the caller's submit for ``delay``.  Writes become visible
    after ``WRITE_DELAY``."""

    WRITE_DELAY = 0.1

    def __init__(self):
        self._jobs = {}
        self._ids = iter(range(10**6))
        engine = SimpleNamespace(job=self._jobs.__getitem__,
                                 scheduler=SimpleNamespace(pending=lambda: 0))
        self.rep = SimpleNamespace(id=0, engine=engine, applied_seq=0,
                                   drain_errors=lambda: [])
        self.replicas = [self.rep]
        self.router = SimpleNamespace(replicas={0: self.rep})
        self.log = SimpleNamespace(head_seq=0)
        self.timers = []

    def _later(self, delay, fn):
        t = threading.Timer(delay, fn)
        self.timers.append(t)
        t.start()

    def submit(self, kind, timeout=None, delay=0.0):
        if kind == "shed":
            raise RuntimeError("shed")
        if kind == "stall":
            time.sleep(delay)
        job = _Job(cached=kind in ("hit", "stall"))
        jid = next(self._ids)
        self._jobs[jid] = job
        if kind == "miss":
            self._later(delay, job.finish)
        elif kind == "fail":
            self._later(delay, lambda: job.finish(RuntimeError("boom")))
        else:
            job.finish()
        return SimpleNamespace(replica_id=0, job_id=jid)

    def result(self, ticket, timeout=None):
        job = self._jobs.pop(ticket.job_id)
        if job.error is not None:
            raise job.error
        return "ok"

    def apply_updates(self, src, dst, op, wait):
        seq = self.log.head_seq
        self.log.head_seq += 1

        def visible():
            self.rep.applied_seq = seq + 1

        self._later(self.WRITE_DELAY, visible)
        return {"seq": seq}


def _read(offset, kind, delay=0.0):
    return (offset, "read", kind, {"delay": delay})


def _run(schedule, duration=0.5):
    group = _FakeGroup()
    res = run_phase(group, schedule, duration, drain_s=5.0)
    for t in group.timers:
        t.join(timeout=5.0)
        assert not t.is_alive()
    return res


def test_latency_is_timed_from_the_due_time_not_the_send():
    # The first submit stalls the sender 0.2 s; the hit due at 0.01 s is
    # sent late, and its latency must include that wait.
    res = _run([_read(0.0, "stall", 0.2), _read(0.01, "hit")])
    hit = res.reads[1]
    assert res.late_s[1] >= 0.18
    assert hit.latency_s >= 0.18
    assert hit.latency_s == pytest.approx(hit.served_at - hit.due)


def test_a_hit_behind_a_slow_miss_keeps_its_own_latency():
    res = _run([_read(0.0, "miss", 0.3), _read(0.05, "hit")])
    miss, hit = res.reads
    assert miss.latency_s >= 0.3
    assert hit.latency_s < 0.05
    assert not miss.cached and hit.cached


def test_sheds_and_failures_are_misses_in_goodput():
    res = _run([_read(0.0, "hit"), _read(0.01, "shed"),
                _read(0.02, "fail", 0.01), _read(0.03, "miss", 0.2)])
    assert res.failed_reads == 2
    assert res.reads[1].error and res.reads[2].error
    lats = [r.latency_s for r in res.reads]
    assert lats[1] is None and lats[2] is None
    assert goodput(lats, 1.0, 1.0) == 2.0
    assert goodput(lats, 0.1, 1.0) == 1.0
    # Elapsed time runs from the phase start to the last served read.
    assert res.elapsed_s >= 0.2


def test_write_visibility_is_timed_from_the_return_of_the_write():
    res = _run([(0.0, "write", None, None, None), _read(0.02, "hit")])
    (w,) = res.writes
    assert w.visible_s == pytest.approx(_FakeGroup.WRITE_DELAY, abs=0.05)
    assert res.lag_max >= 1


def test_schedules_have_fixed_counts():
    rng = np.random.default_rng(3)
    off = poisson_offsets(40.0, 10.0, rng)
    assert len(off) == 400
    assert np.all(np.diff(off) >= 0) and off[0] >= 0 and off[-1] < 10.0
    assert np.allclose(np.diff(periodic_offsets(2.0, 10.0)), 0.5)
    assert len(periodic_offsets(2.0, 10.0)) == 20
