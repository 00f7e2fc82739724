"""Serving layer: engine robustness, result cache, scheduler admission.

The headline property (an ISSUE acceptance criterion): a deliberately
failing job aborts *only itself* — the rank world, graph shards, and
dispatcher keep serving subsequent queries with no rebuild.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    AnalyticsEngine,
    EngineClosedError,
    Job,
    JobFailedError,
    JobScheduler,
    ResultCache,
    SERVING_KINDS,
    cache_key,
    canonical_params,
)
from repro.service.engine import JobTimeoutError
from repro.service.scheduler import MAX_BATCH


@pytest.fixture(scope="module")
def engine(small_web):
    n, edges = small_web
    eng = AnalyticsEngine(3, edges=edges, n=n, partition="rand",
                          default_timeout=120.0)
    yield eng
    eng.shutdown()


# ---------------------------------------------------------------------------
# engine basics
# ---------------------------------------------------------------------------
def test_engine_serves_every_kind(engine, small_web):
    n, _ = small_web
    pr = engine.query("pagerank", max_iters=5)
    assert pr["scores"].shape == (n,)
    bfs = engine.query("bfs", source=0)
    assert bfs["levels"].shape == (n,) and bfs["levels"][0] == 0
    wcc = engine.query("wcc")
    assert wcc["labels"].shape == (n,)
    clo = engine.query("closeness", vertex=3)
    assert 0.0 <= clo["score"] <= 1.0
    ppr = engine.query("ppr", seed=5, max_iters=30)
    assert ppr["scores"].shape == (n,)
    assert ppr["scores"].sum() == pytest.approx(1.0, abs=1e-9)
    tri = engine.query("triangles")
    assert tri["total"] >= 0
    assert set(SERVING_KINDS) == {
        "pagerank", "wcc", "triangles", "bfs", "closeness", "ppr"}


def test_engine_matches_direct_run(engine, small_web):
    """Served BFS equals a plain dist_run of the same analytic."""
    from conftest import dist_run, gather_by_gid
    from repro.analytics import distributed_bfs

    n, edges = small_web
    served = engine.query("bfs", source=11)["levels"]

    def fn(comm, g):
        return g.unmap[: g.n_loc], distributed_bfs(comm, g, 11)

    direct = gather_by_gid(dist_run(edges, n, 3, fn, "rand"))
    assert np.array_equal(served, direct)


def test_failing_job_leaves_engine_serving(engine):
    """ISSUE acceptance criterion: failure aborts the job, not the world."""
    before = engine.query("bfs", source=21)["levels"]
    for fail_rank in (0, 2):
        with pytest.raises(JobFailedError, match="injected failure"):
            engine.query("_debug_fail", fail_rank=fail_rank)
        # Same engine, same resident shards — and identical answers.
        after = engine.query("bfs", source=21)["levels"]
        assert np.array_equal(before, after)
    st = engine.status()
    assert st["jobs"]["failed"] >= 2
    assert st["pending"] == 0


def test_job_timeout_aborts_only_that_job(engine):
    with pytest.raises(JobTimeoutError):
        engine.query("_debug_sleep", seconds=30.0, timeout=0.3)
    assert engine.query("closeness", vertex=9)["vertex"] == 9


def test_cache_hit_returns_identical_array(engine):
    h0 = engine.cache.stats()["hits"]
    a = engine.query("pagerank", max_iters=7)
    b = engine.query("pagerank", max_iters=7)
    assert engine.cache.stats()["hits"] == h0 + 1
    assert b["scores"] is a["scores"]  # served by reference, no recompute
    # Different params are a different key.
    c = engine.query("pagerank", max_iters=8)
    assert c["scores"] is not a["scores"]


def test_batching_coalesces_compatible_queries(engine, small_web):
    n, _ = small_web
    d0 = engine.status()["jobs"]["batches"]
    engine.pause()
    ids = [engine.submit("bfs", source=100 + i) for i in range(4)]
    engine.resume()
    levels = [engine.result(j)["levels"] for j in ids]
    st = engine.status()
    # 4 compatible queries ran as one collective dispatch.
    assert st["jobs"]["batches"] == d0 + 1
    assert st["jobs"]["max_batch_size"] >= 4
    for i, lev in enumerate(levels):
        assert lev[100 + i] == 0


def test_queue_pressure_coalesces_without_pause(engine):
    """BFS jobs queued behind a busy dispatcher run as one dispatch."""
    d0 = engine.status()["jobs"]["batches"]
    busy = engine.submit("_debug_sleep", seconds=0.5)
    ids = [engine.submit("bfs", source=200 + i) for i in range(4)]
    levels = [engine.result(j)["levels"] for j in ids]
    engine.result(busy)
    st = engine.status()
    # One dispatch for the sleep job, one for the 4 coalesced BFS jobs.
    assert st["jobs"]["batches"] == d0 + 2
    assert st["jobs"]["max_batch_size"] >= 4
    for i, lev in enumerate(levels):
        assert lev[200 + i] == 0


def test_dispatch_error_fails_and_counts_the_batch(engine, monkeypatch):
    """A session failure outside any rank fails the whole batch with a
    typed error, counts it in ``jobs.failed``, and the engine serves on."""
    real_run = engine._session.run
    calls = []

    def broken_once(*a, **kw):
        if not calls:
            calls.append(1)
            raise BrokenPipeError("worker pipe closed")
        return real_run(*a, **kw)

    monkeypatch.setattr(engine._session, "run", broken_once)
    failed0 = engine.status()["jobs"]["failed"]
    engine.pause()
    ids = [engine.submit("bfs", source=300 + i) for i in range(3)]
    engine.resume()
    for j in ids:
        with pytest.raises(JobFailedError, match="dispatch error") as info:
            engine.result(j)
        assert isinstance(info.value.__cause__, BrokenPipeError)
    assert engine.status()["jobs"]["failed"] == failed0 + 3
    assert engine.query("bfs", source=300)["levels"][300] == 0


def test_incompatible_directions_do_not_coalesce(engine):
    engine.pause()
    j_out = engine.submit("bfs", source=40, direction="out")
    j_in = engine.submit("bfs", source=40, direction="in")
    engine.resume()
    out = engine.result(j_out)["levels"]
    inn = engine.result(j_in)["levels"]
    assert out[40] == 0 and inn[40] == 0
    assert not np.array_equal(out, inn)


def test_admission_bound_rejects(small_web):
    n, edges = small_web
    with AnalyticsEngine(2, edges=edges, n=n, max_pending=2,
                         cache_capacity=0) as eng:
        eng.pause()
        eng.submit("bfs", source=1)
        eng.submit("bfs", source=2)
        with pytest.raises(AdmissionError):
            eng.submit("bfs", source=3)
        # Rejected submissions leave no ghost jobs behind.
        assert eng.status()["jobs"]["submitted"] == 2
        eng.resume()


def test_status_and_shutdown(small_web):
    n, edges = small_web
    eng = AnalyticsEngine(2, edges=edges, n=n)
    st = eng.status()
    assert st["nranks"] == 2 and st["n_global"] == n
    assert st["built_from"] == "build"
    assert len(st["fingerprint"]) == 16
    eng.query("wcc")
    st = eng.status()
    assert st["comm"]["n_collectives"] > 0
    assert st["jobs"]["completed"] == 1
    eng.shutdown()
    with pytest.raises(EngineClosedError):
        eng.submit("wcc")
    eng.shutdown()  # idempotent


def test_fingerprint_tracks_graph_identity(small_web):
    n, edges = small_web
    with AnalyticsEngine(2, edges=edges, n=n) as a, \
            AnalyticsEngine(2, edges=edges[:-10], n=n) as b:
        assert a.fingerprint != b.fingerprint


def test_engine_rejects_unknown_kind(engine):
    with pytest.raises(ValueError, match="unknown analytic kind"):
        engine.submit("pagerankk")


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
def test_cache_lru_eviction_and_counters():
    c = ResultCache(capacity=2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == (True, 1)  # refreshes "a"
    c.put("c", 3)  # evicts "b", the least recently used
    assert c.get("b") == (False, None)
    assert c.get("a") == (True, 1)
    assert c.get("c") == (True, 3)
    s = c.stats()
    assert (s["hits"], s["misses"], s["evictions"]) == (3, 1, 1)
    assert s["size"] == 2
    c.clear()
    assert len(c) == 0 and c.stats()["size"] == 0


def test_cache_capacity_zero_disables():
    c = ResultCache(capacity=0)
    c.put("a", 1)
    assert c.get("a") == (False, None)


def test_canonical_params_order_and_numpy():
    p1 = canonical_params({"b": np.int64(2), "a": 1.0})
    p2 = canonical_params({"a": 1.0, "b": 2})
    assert p1 == p2
    k1 = cache_key("fp", "bfs", {"source": np.int64(4)})
    k2 = cache_key("fp", "bfs", {"source": 4})
    assert k1 == k2
    assert cache_key("fp", "bfs", {"source": 5}) != k1
    assert cache_key("other", "bfs", {"source": 4}) != k1
    # Array-valued params participate by content.
    ka = cache_key("fp", "ppr", {"seeds": np.array([1, 2])})
    kb = cache_key("fp", "ppr", {"seeds": np.array([1, 2])})
    kc = cache_key("fp", "ppr", {"seeds": np.array([2, 1])})
    assert ka == kb and ka != kc


# ---------------------------------------------------------------------------
# JobScheduler
# ---------------------------------------------------------------------------
def _job(i, batch_key=None):
    return Job(id=i, kind="t", params={}, batch_key=batch_key, timeout=None)


def test_scheduler_fifo_and_bound():
    s = JobScheduler(max_pending=2)
    s.submit(_job(1))
    s.submit(_job(2))
    with pytest.raises(AdmissionError):
        s.submit(_job(3))
    assert [j.id for j in s.next_batch()] == [1]
    assert [j.id for j in s.next_batch()] == [2]
    assert s.pending() == 0


def test_scheduler_coalesces_by_batch_key():
    s = JobScheduler(max_pending=2 * MAX_BATCH)
    for i in range(MAX_BATCH + 1):
        s.submit(_job(i, batch_key=("bfs",)))
    s.submit(_job(99, batch_key=("other",)))
    b1 = s.next_batch()
    # MAX_BATCH caps the coalesce
    assert [j.id for j in b1] == list(range(MAX_BATCH))
    b2 = s.next_batch()
    assert [j.id for j in b2] == [MAX_BATCH]  # different key blocks merging
    assert [j.id for j in s.next_batch()] == [99]


def test_scheduler_never_waits_for_arrivals():
    """A lone batchable job dispatches at once; a same-key job submitted
    after the pop goes into the next batch, not this one."""
    s = JobScheduler(max_pending=16)
    s.submit(_job(1, batch_key=("bfs",)))
    assert [j.id for j in s.next_batch()] == [1]
    s.submit(_job(2, batch_key=("bfs",)))
    assert [j.id for j in s.next_batch()] == [2]
    assert s.pending() == 0


def test_scheduler_none_key_never_batches():
    s = JobScheduler(max_pending=16)
    s.submit(_job(1))
    s.submit(_job(2))
    assert [j.id for j in s.next_batch()] == [1]


def test_scheduler_close_and_drain():
    s = JobScheduler(max_pending=4)
    s.submit(_job(1))
    s.close()
    with pytest.raises(RuntimeError, match="closed"):
        s.submit(_job(2))
    assert [j.id for j in s.drain()] == [1]
    assert s.next_batch(poll_timeout=0.01) == []


def test_scheduler_concurrent_submitters():
    s = JobScheduler(max_pending=64)
    errs = []

    def feed(base):
        try:
            for i in range(8):
                s.submit(_job(base + i))
        except Exception as e:  # pragma: no cover
            errs.append(e)

    ts = [threading.Thread(target=feed, args=(100 * k,)) for k in range(3)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errs
    seen = []
    while s.pending():
        seen.extend(j.id for j in s.next_batch())
    assert len(seen) == 24 and len(set(seen)) == 24
