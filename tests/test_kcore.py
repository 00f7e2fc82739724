"""Approximate k-core sweep: bounds, invariance, structure."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import approx_kcore, distributed_bfs, exact_kcore
from repro.analytics.common import global_max_degree_vertex
from repro.analytics.exchange import HaloExchange
from repro.baselines import coreness_ref
from repro.graph.csr import segment_sum
from repro.runtime import MAX, SUM


def run_kcore(edges, n, p, kind="vblock", **kw):
    def fn(comm, g):
        res = approx_kcore(comm, g, **kw)
        return g.unmap[: g.n_loc], res.stage_removed, res.stages_run, res.survivors

    outs = dist_run(edges, n, p, fn, kind)
    return gather_by_gid(outs), outs[0][2], outs[0][3]


def clique(k, base=0):
    return [(base + i, base + j) for i in range(k) for j in range(k) if i != j]


@pytest.mark.parametrize("p", [1, 2, 4])
def test_upper_bound_property_without_lcc(small_web, p):
    """Without LCC filtering the bound must dominate exact coreness."""
    n, edges = small_web
    stages, _, _ = run_kcore(edges, n, p, lcc_restrict=False, max_stage=20)
    ub = (1 << stages.astype(np.int64)) - 1
    exact = coreness_ref(n, edges)
    assert (ub >= exact).all()


def test_bounds_not_absurdly_loose(small_web):
    """The geometric sweep is within one doubling of exact coreness."""
    n, edges = small_web
    stages, _, _ = run_kcore(edges, n, 2, lcc_restrict=False, max_stage=20)
    ub = (1 << stages.astype(np.int64)) - 1
    exact = coreness_ref(n, edges)
    # A vertex with coreness c survives every stage with 2^i <= c, so its
    # bound is < 4c + 4 (counting multi-edges can only raise it further,
    # hence the slack for the few duplicated-edge vertices).
    loose = ub > 4 * exact + 8
    assert loose.mean() < 0.05


@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_rank_and_partition_invariance(small_web, kind):
    n, edges = small_web
    s1, _, _ = run_kcore(edges, n, 1, "vblock")
    s4, _, _ = run_kcore(edges, n, 4, kind)
    assert (s1 == s4).all()


def test_clique_survives_until_degree_bound():
    """An 18-clique (degree 17+17=34) survives stages up to 2^5 = 32."""
    n = 18
    edges = np.array(clique(n), dtype=np.int64)
    stages, stages_run, survivors = run_kcore(edges, n, 2, max_stage=10)
    # alive degree counts both directions: 2*(n-1) = 34 >= 32 = 2^5,
    # so the clique survives stage 5 and dies at stage 6 (k=64).
    assert (stages == 6).all()
    assert survivors == 0


def test_star_peels_immediately():
    k = 20
    edges = np.array([[0, i] for i in range(1, k)], dtype=np.int64)
    stages, _, _ = run_kcore(edges, k, 2, max_stage=8)
    # Leaves have degree 1 < 2: removed at stage 1; then the hub follows.
    assert (stages[1:] == 1).all()
    assert stages[0] <= 2


def test_lcc_restriction_removes_secondary_components():
    """Two disjoint cliques: the paper's LCC step drops the smaller one."""
    edges = np.array(clique(10) + clique(8, base=10), dtype=np.int64)
    n = 18
    with_lcc, _, _ = run_kcore(edges, n, 2, max_stage=8, lcc_restrict=True)
    without, _, _ = run_kcore(edges, n, 2, max_stage=8, lcc_restrict=False)
    # Without LCC both cliques survive to their degree-determined stages;
    # with LCC the smaller clique is cut at the first stage's LCC pass.
    assert (without[10:] > 1).all()
    assert (with_lcc[10:] == 1).all()
    assert (with_lcc[:10] == without[:10]).all()


def test_empty_graph():
    stages, stages_run, survivors = run_kcore(
        np.empty((0, 2), dtype=np.int64), 5, 2, max_stage=5)
    assert (stages == 1).all()  # all vertices have degree 0 < 2
    assert survivors == 0


def test_survivors_capped_by_max_stage():
    edges = np.array(clique(12), dtype=np.int64)
    stages, stages_run, survivors = run_kcore(edges, 12, 2, max_stage=2)
    # Degree 22 >= 4: the clique survives both stages.
    assert survivors == 12
    assert (stages == 3).all()  # max_stage + 1 sentinel


def test_invalid_max_stage(small_web):
    from repro.runtime import SpmdError

    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: approx_kcore(c, g, max_stage=0))


# -- the incremental peel against a full-recount oracle --------------------
#
# The oracles are the straightforward recount peel: every round recounts
# each local vertex's alive neighbors over the whole adjacency.  They issue
# the same collectives and kill in the same order as the kernels.


def _recount_alive_degree(g, alive):
    deg = np.zeros(g.n_loc, dtype=np.int64)
    for indptr, adj in ((g.out_indexes, g.out_edges), (g.in_indexes, g.in_edges)):
        if len(adj):
            deg += segment_sum(indptr, alive[adj].astype(np.int64))
    return deg


def _recount_approx_kcore(comm, g, max_stage, lcc_restrict):
    halo = HaloExchange(comm, g)
    n_loc = g.n_loc
    alive = np.ones(g.n_total, dtype=bool)
    stage_removed = np.zeros(n_loc, dtype=np.int64)
    stages_run = 0
    survivors = comm.allreduce(n_loc, SUM)
    for i in range(1, max_stage + 1):
        k = 1 << i
        while True:
            kill = alive[:n_loc] & (_recount_alive_degree(g, alive) < k)
            if comm.allreduce(int(kill.sum()), SUM) == 0:
                break
            stage_removed[kill] = i
            alive[:n_loc][kill] = False
            halo.exchange(alive)
        n_alive = comm.allreduce(int(alive[:n_loc].sum()), SUM)
        stages_run = i
        if n_alive == 0:
            survivors = 0
            break
        if lcc_restrict:
            pivot, _ = global_max_degree_vertex(comm, g, restrict=alive)
            lev = distributed_bfs(comm, g, pivot, direction="both",
                                  restrict=alive)
            outside = alive[:n_loc] & (lev < 0)
            n_out = comm.allreduce(int(outside.sum()), SUM)
            if n_out:
                stage_removed[outside] = i
                alive[:n_loc][outside] = False
                halo.exchange(alive)
            survivors = n_alive - n_out
        else:
            survivors = n_alive
    else:
        stage_removed[alive[:n_loc]] = max_stage + 1
    return stage_removed, stages_run, survivors


def _recount_exact_kcore(comm, g):
    halo = HaloExchange(comm, g)
    n_loc = g.n_loc
    alive = np.ones(g.n_total, dtype=bool)
    coreness = np.zeros(n_loc, dtype=np.int64)
    n_rounds = 0
    k = 1
    remaining = comm.allreduce(n_loc, SUM)
    while remaining > 0:
        while True:
            kill = alive[:n_loc] & (_recount_alive_degree(g, alive) < k)
            n_kill = comm.allreduce(int(kill.sum()), SUM)
            n_rounds += 1
            if n_kill == 0:
                break
            coreness[kill] = k - 1
            alive[:n_loc][kill] = False
            halo.exchange(alive)
        remaining = comm.allreduce(int(alive[:n_loc].sum()), SUM)
        k += 1
    max_core = comm.allreduce(int(coreness.max()) if n_loc else 0, MAX)
    return coreness, max_core, n_rounds


def _multi_edges_graph():
    """Self-loops on every 5th vertex plus duplicated edges."""
    rng = np.random.default_rng(8)
    n = 80
    edges = rng.integers(0, n, size=(300, 2), dtype=np.int64)
    loops = np.repeat(np.arange(0, n, 5), 2)
    edges = np.concatenate([edges, np.stack([loops, loops], 1), edges[:60]])
    return n, edges


def _ghost_death_graph():
    """Vertex 2 drops below k=2 only when its ghost neighbor 3 dies.

    Under vblock at p=2, ranks own {0,1,2} and {3,4,5}.  Leaf 4 dies
    first, then 3 (now degree 1); vertex 2 (neighbors 1 and ghost 3) then
    has degree 1 and dies, while the triangle 0-1-5 survives k=2.
    """
    edges = [(0, 1), (1, 5), (5, 0), (1, 2), (2, 3), (3, 4)]
    return 6, np.array(edges, dtype=np.int64)


@pytest.fixture(params=["small_web", "multi_edges", "ghost_death"])
def peel_graph(request):
    if request.param == "small_web":
        return request.getfixturevalue("small_web")
    if request.param == "multi_edges":
        return _multi_edges_graph()
    return _ghost_death_graph()


def test_ghost_death_graph_premise():
    """The ghost-death graph really peels across the rank boundary."""
    n, edges = _ghost_death_graph()
    coreness = gather_by_gid(dist_run(
        edges, n, 2, lambda c, g: (g.unmap[: g.n_loc],
                                   exact_kcore(c, g).coreness)))
    assert coreness.tolist() == [2, 2, 1, 1, 1, 2]


@pytest.mark.parametrize("kind", ["vblock", "rand"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_incremental_peel_matches_recount(peel_graph, p, kind):
    n, edges = peel_graph
    max_stage = 8

    def fn(comm, g):
        out = [g.unmap[: g.n_loc]]
        for lcc in (True, False):
            res = approx_kcore(comm, g, max_stage=max_stage, lcc_restrict=lcc)
            want = _recount_approx_kcore(comm, g, max_stage, lcc)
            out.append(((res.stage_removed, res.stages_run, res.survivors),
                        want))
        res = exact_kcore(comm, g)
        out.append(((res.coreness, res.max_core, res.n_rounds),
                    _recount_exact_kcore(comm, g)))
        return out

    for rank_out in dist_run(edges, n, p, fn, kind):
        for got, want in rank_out[1:]:
            assert (got[0] == want[0]).all()
            assert got[1:] == want[1:]
