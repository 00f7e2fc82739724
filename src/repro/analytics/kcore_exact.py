"""Exact distributed k-core decomposition (refinement of §III-D's bounds).

The paper notes that its approximate coreness "upper bounds can be refined,
if required, to compute exact coreness values for each vertex" — this
module is that refinement: a distributed peeling sweep with unit threshold
increments instead of the geometric 2^i schedule.  A vertex's coreness is
``k−1`` where ``k`` is the first threshold whose peel removes it.

Degrees count both edge directions with multiplicity (the undirected
multigraph view the whole analytic family uses); on simple graphs without
reciprocal duplicates this equals the textbook undirected coreness (the
test suite checks against NetworkX ``core_number``).

The peel is incremental (shared with :func:`~repro.analytics.approx_kcore`):
alive-neighbor degrees are decremented along the reverse adjacency of each
vertex as it dies, so each round costs the edges of the vertices it
removes plus an O(n_loc) threshold scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MAX, SUM, Communicator
from .exchange import HaloExchange
from .kcore import _Peel

__all__ = ["ExactKCoreResult", "exact_kcore"]


@dataclass(frozen=True)
class ExactKCoreResult:
    """Per-rank exact coreness output."""

    coreness: np.ndarray  # per local vertex
    max_core: int  # global degeneracy
    n_rounds: int  # total peel rounds across all thresholds


def exact_kcore(
    comm: Communicator,
    g: DistGraph,
    halo: HaloExchange | None = None,
) -> ExactKCoreResult:
    """Exact coreness of every vertex by incremental-threshold peeling."""
    with comm.region("kcore_exact"):
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc = g.n_loc

        peel = _Peel(g, halo)
        alive = peel.alive
        coreness = np.zeros(n_loc, dtype=np.int64)
        n_rounds = 0

        k = 1
        remaining = comm.allreduce(n_loc, SUM)
        while remaining > 0:
            # Peel at threshold k to a fixed point.
            while True:
                kill = alive[:n_loc] & (peel.deg < k)
                n_kill = comm.allreduce(int(kill.sum()), SUM)
                n_rounds += 1
                if n_kill == 0:
                    break
                coreness[kill] = k - 1
                peel.kill(kill)
            remaining = comm.allreduce(int(alive[:n_loc].sum()), SUM)
            k += 1

        local_max = int(coreness.max()) if n_loc else 0
        max_core = int(comm.allreduce(local_max, MAX))
        return ExactKCoreResult(coreness=coreness, max_core=max_core,
                                n_rounds=n_rounds)
