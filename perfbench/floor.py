"""Runtime latency floor: the cost of a collective with no payload.

Measured in the traced run only, on a world of its own after the
workload has finished, so it never competes with the measured phase.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime import SUM, run_spmd

CALLS = 1000  # timed barrier and scalar-allreduce calls each
WARMUP = 50
A2A_ROWS = 1 << 15  # int64 rows sent to each peer by alltoallv_flat
A2A_REPS = 30


def _probe(comm) -> tuple[float, float, float]:
    def timed(call, reps: int) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    for _ in range(WARMUP):
        comm.barrier()
        comm.allreduce(1.0, SUM)
    barrier = timed(comm.barrier, CALLS)
    allreduce = timed(lambda: comm.allreduce(1.0, SUM), CALLS)
    send = np.arange(A2A_ROWS * comm.size, dtype=np.int64)
    counts = np.full(comm.size, A2A_ROWS, dtype=np.int64)
    for _ in range(3):
        comm.alltoallv_flat(send, counts)
    a2a = timed(lambda: comm.alltoallv_flat(send, counts), A2A_REPS)
    return barrier, allreduce, a2a


def measure(nranks: int) -> dict[str, float]:
    """Per-call medians, maximum over ranks."""
    per_rank = run_spmd(nranks, _probe, backend="threads")
    barrier, allreduce, a2a = (max(v) for v in zip(*per_rank))
    return {"runtime.barrier_us": barrier * 1e6,
            "runtime.allreduce_us": allreduce * 1e6,
            "runtime.alltoallv_ms": a2a * 1e3}
