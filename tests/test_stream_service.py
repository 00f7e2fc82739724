"""Streaming updates through the serving layer and the CLI.

The serving contract: :meth:`AnalyticsEngine.apply_updates` mutates the
resident graph between queries (serialized by the dispatcher), evolves
the fingerprint so stale cache keys become unreachable, invalidates
affected cached results, and every later query answers for the new
epoch's snapshot — matching a fresh engine built on the updated edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.io import write_edges
from repro.service import AnalyticsEngine, JobFailedError


@pytest.fixture(scope="module")
def base_edges():
    rng = np.random.default_rng(5)
    n = 300
    return n, rng.integers(0, n, size=(1500, 2), dtype=np.int64)


def test_apply_updates_end_to_end(base_edges):
    n, edges = base_edges
    rng = np.random.default_rng(6)
    new = rng.integers(0, n, size=(40, 2), dtype=np.int64)
    with AnalyticsEngine(3, edges=edges, n=n) as eng:
        fp0 = eng.fingerprint
        r1 = eng.query("pagerank", max_iters=8)
        assert eng.query("pagerank", max_iters=8)["scores"] is r1["scores"]

        out = eng.apply_updates(new[:, 0], new[:, 1])
        assert out["epoch"] == 1 and out["n_inserted"] == 40
        assert eng.epoch == 1 and eng.fingerprint != fp0
        st = eng.status()
        assert st["stream"]["batches_applied"] == 1
        assert st["stream"]["edges_inserted"] == 40
        assert st["stream"]["cache_invalidated"] >= 1
        assert st["m_global"] == len(edges) + 40

        # Post-update queries answer for the new snapshot: identical to
        # a fresh engine built on the full updated edge list.
        r2 = eng.query("pagerank", max_iters=8)
        assert not np.array_equal(r1["scores"], r2["scores"])
        with AnalyticsEngine(3, edges=np.concatenate((edges, new)),
                             n=n) as fresh:
            ref = fresh.query("pagerank", max_iters=8)
        np.testing.assert_allclose(r2["scores"], ref["scores"], atol=1e-13)

        w = eng.query("wcc")
        assert w["labels"].shape == (n,)


def test_deletes_and_missing_deletes(base_edges):
    n, edges = base_edges
    with AnalyticsEngine(2, edges=edges, n=n) as eng:
        out = eng.apply_updates(edges[:5, 0], edges[:5, 1],
                                op=np.full(5, -1, dtype=np.int64))
        assert out["n_deleted"] == 5
        assert eng.status()["m_global"] == len(edges) - 5
        fp = eng.fingerprint
        # A batch with no effective mutation (the delete misses) advances
        # the epoch but leaves fingerprint and cache alone.
        hits0 = eng.cache.stats()["invalidations"]
        out = eng.apply_updates([n - 1], [n - 1], op=[-1])
        assert out["n_missing"] == 1 and out["n_deleted"] == 0
        assert eng.epoch == 2
        assert eng.fingerprint == fp
        assert eng.cache.stats()["invalidations"] == hits0


def test_update_failure_leaves_engine_serving(base_edges):
    n, edges = base_edges
    with AnalyticsEngine(2, edges=edges, n=n) as eng:
        before = eng.query("bfs", source=3)["levels"]
        with pytest.raises(JobFailedError, match="out-of-range"):
            eng.apply_updates([n + 50], [0])
        # The failed batch mutated nothing and the engine keeps serving.
        assert eng.epoch == 0
        assert eng.status()["stream"]["batches_applied"] == 0
        assert np.array_equal(eng.query("bfs", source=3)["levels"], before)


def test_updates_interleave_with_queries(base_edges):
    """Each query sees exactly the epoch it was submitted after."""
    n, edges = base_edges
    rng = np.random.default_rng(9)
    with AnalyticsEngine(2, edges=edges, n=n) as eng:
        seen = []
        for _ in range(3):
            new = rng.integers(0, n, size=(10, 2), dtype=np.int64)
            eng.apply_updates(new[:, 0], new[:, 1])
            seen.append(eng.query("pagerank", max_iters=6)["scores"])
        assert eng.epoch == 3
        assert eng.status()["stream"]["batches_applied"] == 3
        assert not np.array_equal(seen[0], seen[1])
        assert not np.array_equal(seen[1], seen[2])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
@pytest.fixture
def stream_files(tmp_path):
    rng = np.random.default_rng(12)
    n = 200
    edges = rng.integers(0, n, size=(1200, 2), dtype=np.int64)
    path = tmp_path / "g.bin"
    write_edges(path, edges)
    upd = tmp_path / "updates.txt"
    lines = ["# streaming updates"]
    lines += [f"+ {rng.integers(0, n)} {rng.integers(0, n)}"
              for _ in range(30)]
    lines += [f"- {u} {v}" for u, v in edges[:10]]
    upd.write_text("\n".join(lines) + "\n")
    return path, upd


def test_cli_stream_apply(stream_files, capsys):
    path, upd = stream_files
    rc = main(["stream-apply", str(path), str(upd),
               "--ranks", "2", "--batch-size", "16", "--iters", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "40 updates in 3 batch(es)" in out
    assert "epoch 3" in out
    assert "incremental" in out or "full" in out


def test_cli_serve_with_updates(stream_files, tmp_path, capsys):
    path, upd = stream_files
    qfile = tmp_path / "q.txt"
    qfile.write_text("pagerank max_iters=4\nwcc\n")
    rc = main(["serve", str(path), "--ranks", "2", "--repeat", "2",
               "--queries", str(qfile), "--updates", str(upd)])
    assert rc == 0
    out = capsys.readouterr().out
    # The update file is fed live through the shared log while the
    # workload runs; after the final sync the replica has applied it.
    assert "fed update batch seq 0 (40 updates)" in out
    assert "replica 0: epoch 1, seq 1, +30/-10 edges" in out
    assert "served 4 queries" in out
