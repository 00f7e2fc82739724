"""Shared helpers for the distributed analytics."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph
from ..runtime import MAXLOC, SUM, Communicator

__all__ = [
    "NOT_VISITED",
    "QUEUED",
    "combined_adjacency",
    "global_max_degree_vertex",
    "row_mode",
]

# Status-array encoding of the paper's Algorithm 2.
NOT_VISITED = -2
QUEUED = -1


def combined_adjacency(g: DistGraph, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, neighbors) flat adjacency pairs of local vertices.

    ``direction`` selects out-edges, in-edges, or the concatenation of both
    (the undirected view used by WCC, Label Propagation and k-core).
    """
    if direction == "out":
        return expand_rows(g.out_indexes), g.out_edges
    if direction == "in":
        return expand_rows(g.in_indexes), g.in_edges
    if direction == "both":
        rows = np.concatenate(
            [expand_rows(g.out_indexes), expand_rows(g.in_indexes)])
        nbrs = np.concatenate([g.out_edges, g.in_edges])
        return rows, nbrs
    raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")


def global_max_degree_vertex(
    comm: Communicator,
    g: DistGraph,
    restrict: np.ndarray | None = None,
) -> tuple[int, int]:
    """Global id and degree of the highest-total-degree vertex.

    ``restrict`` optionally masks local vertices (e.g. "still alive" in
    FW–BW trimming or k-core peeling).  Ties break to the lowest global id.
    Returns ``(-1, -1)`` if no vertex is eligible anywhere.
    """
    deg = g.total_degrees()
    if restrict is not None:
        deg = np.where(restrict[: g.n_loc], deg, -1)
    if len(deg):
        i = int(np.argmax(deg))
        local_best = (int(deg[i]), int(g.unmap[i]))
    else:
        local_best = (-1, g.n_global)  # worse than any real candidate
    # MAXLOC keeps the lowest "index" (here: global id) on value ties.
    best_deg, best_gid = comm.allreduce(local_best, MAXLOC)
    if best_deg < 0:
        return -1, -1
    return int(best_gid), int(best_deg)


def row_mode(
    rows: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    n_values: int,
    tiebreak: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Most frequent value of each row of a flat ``(row, value)`` list.

    ``rows`` lie in ``[0, n_rows)`` and ``values`` in ``[0, n_values)``, in
    any order.  Among a row's most frequent values the winner is the one
    with the highest ``tiebreak(run_rows, run_values)`` key, then the
    highest value; without ``tiebreak``, ties go to the highest value.

    One packed ``row * n_values + value`` int64 key is sorted once; runs
    of equal keys are the (row, value) counts, and the winner is a
    segmented lexicographic maximum over each row's runs.

    Returns ``(chosen, has_any)``: ``has_any[r]`` is false for rows with
    no entries, and ``chosen[r]`` is valid only where it is true.  Raises
    ``ValueError`` unless ``n_rows * n_values < 2**63`` (every packed key
    fits int64).
    """
    if n_rows * n_values >= 1 << 63:
        raise ValueError(
            f"row_mode: n_rows * n_values = {n_rows} * {n_values} must be "
            "below 2**63 to pack (row, value) into one int64 key")
    chosen = np.zeros(n_rows, dtype=np.int64)
    has_any = np.zeros(n_rows, dtype=bool)
    if len(rows) == 0:
        return chosen, has_any
    key = rows.astype(np.int64)
    key *= n_values
    key += values
    key.sort()
    run_starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    run_counts = np.diff(np.append(run_starts, len(key)))
    run_rows, run_vals = np.divmod(key[run_starts], n_values)

    def row_max(score, rrows):
        """Mask of the runs scoring their row's maximum (rrows sorted)."""
        firsts = np.flatnonzero(np.concatenate(([True], rrows[1:] != rrows[:-1])))
        best = np.maximum.reduceat(score, firsts)
        return score == np.repeat(best, np.diff(np.append(firsts, len(rrows))))

    top = row_max(run_counts, run_rows)
    run_rows, run_vals = run_rows[top], run_vals[top]
    if tiebreak is not None:
        top = row_max(tiebreak(run_rows, run_vals), run_rows)
        run_rows, run_vals = run_rows[top], run_vals[top]
    # Runs are in ascending value order within a row: the last one wins.
    last = np.append(run_rows[1:] != run_rows[:-1], True)
    chosen[run_rows[last]] = run_vals[last]
    has_any[run_rows[last]] = True
    return chosen, has_any


def global_sum(comm: Communicator, value) -> int:
    """Convenience allreduce(SUM) for scalar counters."""
    return comm.allreduce(value, SUM)
