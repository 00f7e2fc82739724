"""``batch-paper6``: the paper's cold pipeline on the web-crawl stand-in.

Write a binary edge file, then striped read -> distributed build -> the
six paper analytics, each repeated on the resident graph.  Nearly all
the work is in ``io``, ``graph``, the runtime's alltoallv path and the
analytics kernels; ``service``, ``serve`` and ``stream`` are never
touched, so a serving change must predict no change here.

Untraced rounds time each analytic between two barriers (maximum over
ranks).  Traced rounds additionally take ``comm.trace`` summary deltas
around each call -- the benchmark never wraps a call in ``comm.region``,
since an analytic's own region replaces an enclosing one.
"""

from __future__ import annotations

import time
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from report import Report
from spans import SpanRecorder
from stats import median

from repro.analytics import (
    approx_kcore,
    distributed_bfs,
    harmonic_centrality_many,
    label_propagation,
    largest_scc,
    pagerank,
    top_degree_vertices,
    validate_bfs_levels,
    validate_components,
    validate_pagerank,
    wcc,
)
from repro.generators import webcrawl_edges
from repro.graph import build_dist_graph_with_stats
from repro.io import striped_read, write_edges
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd

NRANKS = 2
N = 100_000
DEGREE = 16.0
#: The graph plays the part of the paper's fixed crawl dataset, so it
#: does not change with ``--seed``; the seed shuffles the edge file, and
#: with it which records each rank reads.  Across generator seeds the
#: graph's structure (giant SCC, BFS depth from the hubs) moves the
#: analytic times by 10-20%, which would drown the changes the benchmark
#: exists to catch.
GRAPH_SEED = 1
SETUP_WARMUP = 1
SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 4  # two untraced, two traced
PR_ITERS = 20
LP_ITERS = 5
HARMONIC_K = 4

#: ``comm.trace`` summary key -> per-layer metric it sums to.
RUNTIME_TOTALS = {"compute_s": "runtime.compute_s", "comm_s": "runtime.comm_s",
                  "idle_s": "runtime.idle_s",
                  "bytes_sent": "runtime.bytes_sent"}
#: Metric stem of each analytic, in the order a round runs them.
ANALYTICS = ("pagerank", "labelprop", "wcc", "scc", "harmonic", "kcore")
#: Calls per round: the sub-second analytics repeat within a round, so
#: their medians rest on more samples.
REPS = {"pagerank": 3, "labelprop": 1, "wcc": 3, "scc": 3, "harmonic": 3,
        "kcore": 1}


def _digest(*arrays: np.ndarray) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def _calls(comm, g):
    """Analytic name -> (call, digest of the result or None)."""
    def harmonic():
        return harmonic_centrality_many(
            comm, g, top_degree_vertices(comm, g, HARMONIC_K))

    return {
        "pagerank": (lambda: pagerank(comm, g, max_iters=PR_ITERS), None),
        "labelprop": (lambda: label_propagation(comm, g, n_iters=LP_ITERS),
                      lambda r: _digest(r.labels)),
        "wcc": (lambda: wcc(comm, g), lambda r: _digest(r.labels)),
        "scc": (lambda: largest_scc(comm, g), lambda r: _digest(r.in_scc)),
        "harmonic": (harmonic, lambda rs: _digest(
            np.array([(r.vertex, r.score, r.n_reaching) for r in rs]))),
        "kcore": (lambda: approx_kcore(comm, g),
                  lambda r: _digest(r.coreness_upper_bound())),
    }


def _timed(comm, call, traced: bool):
    """Run ``call`` between two barriers; with ``traced``, also the
    ``comm.trace`` summary deltas it caused on this rank."""
    comm.barrier()
    s0 = comm.trace.summary() if traced else None
    t0 = time.perf_counter()
    res = call()
    comm.barrier()
    entry = {"wall": time.perf_counter() - t0}
    if traced:
        s1 = comm.trace.summary()
        entry.update({k: s1[k] - s0[k] for k in (
            "compute_s", "comm_s", "idle_s", "bytes_sent", "n_collectives")})
        entry["n_collectives"] -= 1  # the closing barrier
    return res, entry


def _job(comm, path: str, seconds: float, trace: bool,
         rec: SpanRecorder | None):
    """One rank's run: setups, analytic rounds, then untimed checks."""
    def span(name: str):
        if rec is None:
            return nullcontext()
        return rec.span(name, rank=comm.rank, req=comm.rank)

    out: dict = {"setup": [], "rounds": [], "violations": []}
    part = VertexBlockPartition(N, comm.size)
    g = None
    for i in range(SETUP_WARMUP + SETUP_REPEATS):
        g = None
        comm.barrier()
        t0 = time.perf_counter()
        with span("setup"):
            with span("striped_read"):
                chunk, info = striped_read(comm, path)
            with span("build"):
                g, st = build_dist_graph_with_stats(comm, chunk, part)
        comm.barrier()
        wall = time.perf_counter() - t0
        if i >= SETUP_WARMUP:
            out["setup"].append({"wall": wall, "read": info.read_s,
                                 "exchange": st.exchange_s,
                                 "convert": st.convert_s, "m_out": st.m_out})

    calls = _calls(comm, g)
    pagerank(comm, g, max_iters=2)  # warm-up: halo and kernel paths
    digests: dict[str, set] = {a: set() for a in ANALYTICS}
    last: dict = {}
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        # In a traced run, rounds alternate untraced / traced so the
        # tracing overhead is the gap between the two kinds of round.
        traced = trace and r % 2 == 1
        rnd: dict = {"traced": traced}
        for name in ANALYTICS:
            call, digest = calls[name]
            for _ in range(REPS[name]):
                with span(name) if traced else nullcontext():
                    res, entry = _timed(comm, call, traced)
                rnd.setdefault(name, []).append(entry)
                last[name] = res
                if digest is not None:
                    digests[name].add(digest(res))
        out["rounds"].append(rnd)
        r += 1
        more = r < (MIN_ROUNDS_TRACED if trace else MIN_ROUNDS) \
            or time.perf_counter() < deadline
        if not comm.bcast(more):
            break

    # Output checks (untimed).
    bad = list(validate_pagerank(comm, g, last["pagerank"].scores,
                                 tol=last["pagerank"].final_delta))
    bad += validate_components(comm, g, last["wcc"].labels)
    root = int(top_degree_vertices(comm, g, 1)[0])
    bad += validate_bfs_levels(comm, g, distributed_bfs(comm, g, root),
                               root)
    for name, seen in digests.items():
        # Every repeat of a deterministic analytic must agree exactly.
        if any(comm.allgather(len(seen) > 1)):
            bad.append(f"{name}: results differ across repeats")
    out["violations"] = bad
    out["n_checks"] = 3 + len(digests)
    return out


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        rec: SpanRecorder | None) -> Report:
    edges = webcrawl_edges(N, avg_degree=DEGREE, seed=GRAPH_SEED)
    order = np.random.default_rng(seed).permutation(len(edges))
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "webcrawl.bin"
    write_edges(path, edges[order])
    del edges, order

    ranks = run_spmd(NRANKS, _job, str(path), seconds, trace,
                     rec if trace else None, backend="threads")
    rep = Report()
    setups = list(zip(*(r["setup"] for r in ranks)))  # per repeat
    rounds = list(zip(*(r["rounds"] for r in ranks)))
    n_calls = len(rounds) * sum(REPS.values())
    rep.attempted = len(setups) + n_calls + ranks[0]["n_checks"]
    rep.violations = ranks[0]["violations"]
    rep.failed = len(rep.violations)
    rep.notes.append(f"n={N} m={int(DEGREE * N)} rounds={len(rounds)} "
                     f"setups={len(setups)}")

    def setup_med(key: str) -> float:
        return median([max(s[key] for s in per) for per in setups])

    def calls(name: str, traced: bool) -> list[tuple[dict, ...]]:
        """Every call of one analytic, as its per-rank entries."""
        return [tuple(rk[name][i] for rk in per) for per in rounds
                if per[0]["traced"] == traced for i in range(REPS[name])]

    def wall_med(name: str, traced: bool) -> float:
        return median([max(e["wall"] for e in call)
                       for call in calls(name, traced)])

    if not trace:
        rep.metrics["setup_s"] = setup_med("wall")
        # One pass of the six analytics, as a user running the paper's
        # suite on a resident graph waits for it.
        rep.metrics["latency_ms"] = 1e3 * sum(wall_med(a, False)
                                              for a in ANALYTICS)
        for name in ANALYTICS:
            rep.detail(f"{name}_s", wall_med(name, False), "s")
        return rep

    m_out = [s["m_out"] for s in setups[0]]
    rep.metrics["partition.edge_imbalance"] = max(m_out) / np.mean(m_out)

    def med(name: str, key: str, fold=max) -> float:
        """Median over traced calls of ``fold`` over the ranks."""
        return median([fold(e[key] for e in call)
                       for call in calls(name, True)])

    # Runtime totals of one pass of the six analytics, summed over ranks.
    for key, metric in RUNTIME_TOTALS.items():
        rep.metrics[metric] = sum(med(a, key, sum) for a in ANALYTICS)
    rep.metrics["runtime.collectives"] = sum(
        med(a, "n_collectives", lambda xs: next(iter(xs))) for a in ANALYTICS)
    plain = sum(wall_med(a, False) for a in ANALYTICS)
    spanned = sum(wall_med(a, True) for a in ANALYTICS)
    rep.metrics["trace.overhead_frac"] = spanned / plain - 1.0

    rep.detail("io.read_s", setup_med("read"), "s")
    rep.detail("build.exchange_s", setup_med("exchange"), "s")
    rep.detail("build.convert_s", setup_med("convert"), "s")
    for name in ANALYTICS:
        rep.detail(f"analytics.{name}.comp_s", med(name, "compute_s"), "s")
        rep.detail(f"runtime.{name}.comm_s", med(name, "comm_s"), "s")
        rep.detail(f"runtime.{name}.idle_s", med(name, "idle_s"), "s")
        rep.detail(f"runtime.{name}.collectives", med(
            name, "n_collectives", lambda xs: next(iter(xs))), "count")
        rep.detail(f"runtime.{name}.bytes_sent",
                   med(name, "bytes_sent", sum), "bytes")
    return rep
