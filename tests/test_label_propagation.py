"""Label Propagation: determinism, convergence, community recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import label_propagation
from repro.analytics.common import row_mode
from repro.analytics.label_propagation import _tie_hash


def run_lp(edges, n, p, kind="vblock", **kw):
    def fn(comm, g):
        res = label_propagation(comm, g, **kw)
        return g.unmap[: g.n_loc], res.labels, res.n_iters

    outs = dist_run(edges, n, p, fn, kind)
    return gather_by_gid(outs), outs[0][2]


def two_cliques(k=8):
    """Two disjoint cliques — LP must find exactly two communities."""
    edges = []
    for base in (0, k):
        for i in range(k):
            for j in range(k):
                if i != j:
                    edges.append((base + i, base + j))
    return 2 * k, np.array(edges, dtype=np.int64)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_two_cliques_found(p):
    n, edges = two_cliques()
    labels, _ = run_lp(edges, n, p, n_iters=10, seed=1)
    assert len(np.unique(labels[: n // 2])) == 1
    assert len(np.unique(labels[n // 2 :])) == 1
    assert labels[0] != labels[-1]


@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_rank_and_partition_invariance(small_web, kind):
    """Seeded runs give identical labels regardless of ranks/partitioning."""
    n, edges = small_web
    base, _ = run_lp(edges, n, 1, "vblock", n_iters=5, seed=3)
    other, _ = run_lp(edges, n, 4, kind, n_iters=5, seed=3)
    assert (base == other).all()


def test_labels_are_vertex_ids(small_web):
    n, edges = small_web
    labels, _ = run_lp(edges, n, 2, n_iters=5, seed=0)
    assert ((labels >= 0) & (labels < n)).all()


def test_isolated_vertices_keep_own_label(small_web):
    n, edges = small_web
    deg = np.bincount(edges.reshape(-1), minlength=n)
    labels, _ = run_lp(edges, n, 2, n_iters=5, seed=0)
    isolated = deg == 0
    assert (labels[isolated] == np.flatnonzero(isolated)).all()


def test_early_stop_on_convergence():
    n, edges = two_cliques(5)
    labels, iters = run_lp(edges, n, 2, n_iters=50, seed=1)
    assert iters < 50  # converges long before the budget


def test_zero_iterations_identity(small_web):
    n, edges = small_web
    labels, iters = run_lp(edges, n, 2, n_iters=0)
    assert iters == 0
    assert (labels == np.arange(n)).all()


def test_seed_changes_tie_breaking():
    """On a tie-heavy graph different seeds may give different labelings."""
    # A 4-cycle: every vertex sees two distinct neighbor labels -> all ties.
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64)
    outcomes = set()
    for seed in range(8):
        labels, _ = run_lp(edges, 4, 1, n_iters=1, seed=seed)
        outcomes.add(tuple(labels.tolist()))
    assert len(outcomes) > 1


def test_star_graph_leaves_agree():
    """Every leaf adopts the hub's label after one iteration.

    (Synchronous LP famously oscillates on bipartite structures — the hub
    itself may flip between leaf labels — so only the leaves' agreement is
    a stable property.)
    """
    k = 10
    edges = np.array([[0, i] for i in range(1, k)], dtype=np.int64)
    labels, _ = run_lp(edges, k, 2, n_iters=3, seed=0)
    assert len(np.unique(labels[1:])) == 1


def test_directionality_ignored():
    """Labels flow against edge direction too (the paper ignores it).

    In an out-star 0→{1,2,3} the leaves have *no out-edges*; if direction
    mattered they could never change label.  With undirected propagation
    they all adopt the hub's label after one iteration.
    """
    edges = np.array([[0, 1], [0, 2], [0, 3]], dtype=np.int64)
    labels, _ = run_lp(edges, 4, 2, n_iters=1, seed=0)
    assert (labels[1:] == 0).all()


def test_planted_communities_recovered():
    """The synthetic crawl's planted hosts should dominate LP communities."""
    from repro.generators import webcrawl

    wc = webcrawl(1500, avg_degree=10, p_intra=0.9, seed=4)
    labels, _ = run_lp(wc.edges, wc.n, 2, n_iters=10, seed=1)
    # Agreement metric: fraction of edges whose endpoints agree on
    # community in both the planted truth and the LP labels.
    src, dst = wc.edges[:, 0], wc.edges[:, 1]
    truth_same = wc.community[src] == wc.community[dst]
    lp_same = labels[src] == labels[dst]
    agreement = (truth_same == lp_same).mean()
    assert agreement > 0.7


def test_negative_iters_rejected(small_web):
    from repro.runtime import SpmdError

    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: label_propagation(c, g, n_iters=-1))


# -- row_mode: the per-row "most frequent value" kernel of LP and PuLP -----

#: Tie-break keys handed to ``row_mode``: none (ties go to the highest
#: value, as in PuLP), a 2-valued key (ties survive it, so the value
#: decides), and LP's own hash.
TIEBREAKS = {
    "none": None,
    "coarse": lambda r, v: ((r * 7 + v * 3) % 2).astype(np.uint64),
    "lp_hash": lambda r, v: _tie_hash(r, v, 3, 11),
}


def _row_mode_oracle(rows, values, n_rows, tiebreak):
    """Per-row dict counts; winner = max((count, tiebreak, value))."""
    def tb(r, v):
        return 0 if tiebreak is None else int(
            tiebreak(np.array([r]), np.array([v]))[0])

    counts = [{} for _ in range(n_rows)]
    for r, v in zip(rows.tolist(), values.tolist()):
        counts[r][v] = counts[r].get(v, 0) + 1
    chosen = np.zeros(n_rows, dtype=np.int64)
    has_any = np.zeros(n_rows, dtype=bool)
    for r, c in enumerate(counts):
        if c:
            chosen[r] = max((n, tb(r, v), v) for v, n in c.items())[2]
            has_any[r] = True
    return chosen, has_any


@st.composite
def row_value_pairs(draw):
    """(n_rows, n_values, pairs): few distinct values so ties are common,
    up to 8 rows so some stay empty, and pairs in arbitrary order."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n_values = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                    st.integers(0, n_values - 1)),
                          max_size=40))
    return n_rows, n_values, pairs


@settings(max_examples=150, deadline=None)
@given(case=row_value_pairs(), tiebreak=st.sampled_from(sorted(TIEBREAKS)))
@example(case=(3, 4, []), tiebreak="none")
@example(case=(3, 4, [(2, 1)]), tiebreak="lp_hash")
@example(case=(2, 3, [(1, 2), (0, 0), (1, 0), (1, 2), (1, 0), (0, 1)]),
         tiebreak="coarse")
def test_row_mode_matches_dict_oracle(case, tiebreak):
    n_rows, n_values, pairs = case
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    tb = TIEBREAKS[tiebreak]
    chosen, has_any = row_mode(rows, values, n_rows, n_values, tb)
    want_chosen, want_any = _row_mode_oracle(rows, values, n_rows, tb)
    assert (has_any == want_any).all()
    assert (chosen[has_any] == want_chosen[has_any]).all()


@pytest.mark.parametrize("tiebreak", sorted(TIEBREAKS))
def test_row_mode_single_entry(tiebreak):
    chosen, has_any = row_mode(np.array([2]), np.array([6]), 4, 7,
                               TIEBREAKS[tiebreak])
    assert has_any.tolist() == [False, False, True, False]
    assert chosen[2] == 6


def test_row_mode_key_overflow_raises():
    """The packed key must fit int64: n_rows * n_values < 2**63."""
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        row_mode(np.array([0]), np.array([0]), 1 << 32, 1 << 31)
    # Just below the limit the largest key, 2**63 - 3, is still exact.
    top = (1 << 62) - 2
    chosen, has_any = row_mode(np.array([1]), np.array([top]), 2, top + 1)
    assert has_any.tolist() == [False, True] and chosen[1] == top
