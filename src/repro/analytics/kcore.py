"""Approximate k-core decomposition (paper §III-D, Fig. 6).

The exact coreness of every vertex is expensive at web scale, so the paper
computes *upper bounds* by a geometric sweep: for ``i = 1..27`` it
iteratively removes vertices of (total) degree below ``2^i`` and then keeps
only the largest connected component of the pruned graph.  A vertex
eliminated during stage ``i`` therefore has coreness below ``2^i``; the
survivors of stage ``i`` form (the giant component of) the ``2^i``-core.

We record, for each vertex, the last stage it survived; Fig. 6's cumulative
coreness distribution follows directly.

Peeling is incremental (the work-efficient peel of Dhulipala, Blelloch &
Shun's GBBS k-core): alive-neighbor degrees start at the total degrees and
are decremented along the reverse adjacency of each vertex as it dies, so a
peel round costs the edges of the vertices it removes.  Exact k-core (:mod:`~repro.analytics.kcore_exact`) uses
the same :class:`_Peel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .bfs import _gather_ranges, distributed_bfs
from .common import combined_adjacency, global_max_degree_vertex
from .exchange import HaloExchange

__all__ = ["KCoreResult", "approx_kcore"]


@dataclass(frozen=True)
class KCoreResult:
    """Per-rank approximate-coreness output.

    ``stage_removed[v] = i`` means local vertex ``v`` was eliminated during
    the ``2^i`` stage (degree pruning or falling outside the largest
    component), bounding its coreness by ``2^i − 1``; vertices surviving
    the whole sweep hold ``max_stage + 1``.
    """

    stage_removed: np.ndarray  # int64 per local vertex
    stages_run: int
    survivors: int  # global count of vertices surviving every stage

    def coreness_upper_bound(self) -> np.ndarray:
        """Per-vertex coreness upper bound (``2^stage − 1``)."""
        return (1 << self.stage_removed.astype(np.int64)) - 1


class _Peel:
    """Alive flags of local + ghost vertices and the alive-neighbor degree
    of each local vertex, kept current as vertices die.

    Degrees count both edge directions with multiplicity; ``deg`` of a
    dead vertex keeps shrinking but is never read.
    """

    def __init__(self, g: DistGraph, halo: HaloExchange):
        self.n_loc, self.halo = g.n_loc, halo
        rows, nbrs = combined_adjacency(g, "both")
        # Reverse adjacency: rev_rows[rev_ptr[u]:rev_ptr[u + 1]] are the
        # local rows with an adjacency entry pointing at (local or ghost) u.
        # Only their multiset matters (it feeds a bincount), so the sort
        # need not be stable.
        self.rev_rows = rows[np.argsort(nbrs)]
        self.rev_ptr = np.zeros(g.n_total + 1, dtype=np.int64)
        np.cumsum(np.bincount(nbrs, minlength=g.n_total),
                  out=self.rev_ptr[1:])
        self.deg = g.total_degrees().astype(np.int64)
        self.alive = np.ones(g.n_total, dtype=bool)

    def kill(self, local: np.ndarray) -> None:
        """Mark the ``local`` mask (alive vertices only) dead, refresh the
        ghosts with one halo exchange (collective), and drop the edges of
        every newly dead local or ghost vertex from ``deg``."""
        n_loc = self.n_loc
        ghosts_before = self.alive[n_loc:].copy()
        self.alive[:n_loc][local] = False
        self.halo.exchange(self.alive)
        dead = np.concatenate([
            np.flatnonzero(local),
            n_loc + np.flatnonzero(ghosts_before & ~self.alive[n_loc:])])
        hit = _gather_ranges(self.rev_rows, self.rev_ptr[dead],
                             self.rev_ptr[dead + 1])
        self.deg -= np.bincount(hit, minlength=n_loc)


def approx_kcore(
    comm: Communicator,
    g: DistGraph,
    max_stage: int = 27,
    halo: HaloExchange | None = None,
    lcc_restrict: bool = True,
) -> KCoreResult:
    """Run the geometric k-core sweep.

    Parameters
    ----------
    max_stage:
        Highest stage ``i`` (threshold ``2^i``); the paper uses 27.  The
        sweep ends early once no vertices survive.
    lcc_restrict:
        When true (the paper's procedure), each stage additionally keeps
        only the largest connected component of the pruned graph — an
        approximation that can under-estimate bounds of vertices in other
        dense components.  With ``False`` the survivors of stage ``i`` are
        exactly the ``2^i``-core shell union, making
        :meth:`KCoreResult.coreness_upper_bound` a true upper bound on the
        (degree-based) coreness of every vertex.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be >= 1")
    with comm.region("kcore"):
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc = g.n_loc

        peel = _Peel(g, halo)
        alive = peel.alive
        stage_removed = np.zeros(n_loc, dtype=np.int64)
        stages_run = 0
        survivors = comm.allreduce(n_loc, SUM)

        for i in range(1, max_stage + 1):
            k = 1 << i
            # Peel to a fixed point of "remove alive vertices with < k alive
            # neighbors" (the (2^i)-core of the remaining graph).
            while True:
                kill = alive[:n_loc] & (peel.deg < k)
                n_kill = comm.allreduce(int(kill.sum()), SUM)
                if n_kill == 0:
                    break
                stage_removed[kill] = i
                peel.kill(kill)

            n_alive = comm.allreduce(int(alive[:n_loc].sum()), SUM)
            stages_run = i
            if n_alive == 0:
                survivors = 0
                break

            # Keep only the largest connected component of the pruned graph.
            if lcc_restrict:
                pivot, _ = global_max_degree_vertex(comm, g, restrict=alive)
                lev = distributed_bfs(comm, g, pivot, direction="both",
                                      restrict=alive)
                outside = alive[:n_loc] & (lev < 0)
                n_out = comm.allreduce(int(outside.sum()), SUM)
                if n_out:
                    stage_removed[outside] = i
                    peel.kill(outside)
                survivors = n_alive - n_out
            else:
                survivors = n_alive
        else:
            # Survivors of the full sweep: coreness bound is open-ended.
            still = alive[:n_loc]
            stage_removed[still] = max_stage + 1

        return KCoreResult(stage_removed=stage_removed, stages_run=stages_run,
                           survivors=survivors)
