"""``serve-hot`` and ``serve-write``: open-loop reads against a replica
group, without and with a concurrent write stream.

Every phase runs on a fresh ``ReplicaGroup`` (the delta overlay of a
written-to group keeps growing, so reusing one would make a later phase
slower than an earlier one).  Rates are fixed constants, never derived
from the capacity a run measures, so a faster commit is offered the same
load as a slower one.

``serve-hot``: the mix of the older serving bench (bfs 0.55 / ppr 0.25 /
pagerank 0.2) with 80% of point keys from a hot pool of 8 vertices, so
cache hits, the submit path, the router and admission dominate.

``serve-write``: the same tier with snapshot reads, uniform point keys
(no reuse) and a fixed-rate stream of insert/delete batches, so kernels,
scheduler coalescing and the batch window dominate reads, and writes go
through ``UpdateLog`` -> replica catch-up -> ``DynamicDistGraph.apply``
-> cache invalidation.  The stream crosses the 25% compaction threshold
in every phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from openloop import PhaseResult, periodic_offsets, poisson_offsets, run_phase
from report import Report
from spans import SpanRecorder
from stats import goodput, median, percentile, tail_percentile

from repro.analytics import (
    batched_personalized_pagerank,
    distributed_bfs,
    pagerank,
    validate_bfs_levels,
    validate_components,
    validate_pagerank,
    wcc,
)
from repro.generators import webcrawl_edges
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd
from repro.serve import ReplicaGroup

NRANKS = 2
REPLICAS = 1
N = 30_000
DEGREE = 8.0
#: The graph plays the part of a fixed dataset and does not change with
#: ``--seed``; the seed draws the traffic (hot pool, read and write
#: streams, check queries).
GRAPH_SEED = 1
#: Admission bound per replica: high enough that only real overload
#: sheds at the fixed rates below.
MAX_INFLIGHT = 32
MIX = {"bfs": 0.55, "ppr": 0.25, "pagerank": 0.2}
PARAMS = {"ppr": {"max_iters": 6}, "pagerank": {"max_iters": 6}}
HOT_POOL = 8
READ_TIMEOUT_S = 20.0
#: Goodput counts reads served within this limit, well above a cold
#: query (tens of milliseconds on a 2-core host).
GOODPUT_LIMIT_S = 1.0
SETUP_REPEATS = 5
CHECK_BFS_SOURCES = 4
CHECK_PPR_SEEDS = 2
#: Served PageRank/PPR scores must equal a direct computation on the
#: rebuilt graph within this tolerance (summation order differs between
#: the delta overlay and a fresh CSR).
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-15


@dataclass(frozen=True)
class ServeConfig:
    hot_fraction: float
    snapshot_reads: bool
    rates: dict[str, float]  # phase -> offered reads per second
    write_rate: float = 0.0  # update batches per second
    write_batch: int = 0  # updates per batch (half inserts, half deletes)
    #: Each phase is cut into this many equal windows with a fixed
    #: number of reads each; latency percentiles are taken per window
    #: and the median over windows is reported, so host noise that
    #: spoils one window does not move the run's figure.
    windows: int = 3


CONFIGS = {
    "serve-hot": ServeConfig(hot_fraction=0.8, snapshot_reads=False,
                             rates={"light": 20.0, "heavy": 40.0}),
    # An apply costs about the same for 4096 and 8192 updates (the ghost
    # rebuild dominates), so one batch a second of 8192 carries the
    # volume that crosses the compaction threshold in a phase while
    # keeping the dispatcher idle most of the time: near saturation, the
    # read latency of a run swings with the host's CPU steal.
    "serve-write": ServeConfig(hot_fraction=0.0, snapshot_reads=True,
                               rates={"light": 2.0, "heavy": 4.0},
                               write_rate=1.0, write_batch=8192,
                               windows=1),
}


def _read_schedule(cfg: ServeConfig, rate: float, duration: float,
                   hot: np.ndarray, rng: np.random.Generator) -> list[tuple]:
    kinds = sorted(MIX)
    weights = np.array([MIX[k] for k in kinds])
    offsets = poisson_offsets(rate, duration, rng, cfg.windows)
    items = []
    for off in offsets:
        kind = kinds[rng.choice(len(kinds), p=weights / weights.sum())]
        if rng.random() < cfg.hot_fraction:
            v = int(hot[rng.integers(0, HOT_POOL)])
        else:
            v = int(rng.integers(0, N))
        if kind == "bfs":
            params = {"source": v}
        elif kind == "ppr":
            params = {"seed": v, **PARAMS["ppr"]}
        else:
            params = dict(PARAMS["pagerank"])
        items.append((float(off), "read", kind, params))
    return items


def _write_stream(cfg: ServeConfig, duration: float, base: np.ndarray,
                  rng: np.random.Generator):
    """Fixed-rate update batches and the edge multiset they leave.

    Each batch inserts random pairs and deletes distinct stored copies
    of base edges, so the final multiset is base - deleted + inserted
    whatever order the ops inside a batch are applied in.
    """
    offsets = periodic_offsets(cfg.write_rate, duration)
    half = cfg.write_batch // 2
    victims = rng.permutation(len(base))[: half * len(offsets)]
    items, inserted = [], []
    for i, off in enumerate(offsets):
        ins = rng.integers(0, N, size=(half, 2), dtype=np.int64)
        dels = base[victims[i * half:(i + 1) * half]]
        both = np.concatenate((ins, dels))
        op = np.concatenate((np.ones(half, dtype=np.int64),
                             -np.ones(half, dtype=np.int64)))
        items.append((float(off), "write", both[:, 0].copy(),
                      both[:, 1].copy(), op))
        inserted.append(ins)
    keep = np.ones(len(base), dtype=bool)
    keep[victims] = False
    final = np.concatenate([base[keep]] + inserted) if inserted else base
    return items, final


def _new_group(cfg: ServeConfig, edges: np.ndarray) -> tuple[ReplicaGroup,
                                                              float]:
    """Construct a group and serve its first query; returns the setup
    time (construction up to the first served query)."""
    t0 = time.perf_counter()
    group = ReplicaGroup(NRANKS, replicas=REPLICAS,
                         max_inflight=MAX_INFLIGHT,
                         snapshot_reads=cfg.snapshot_reads, edges=edges,
                         n=N, backend="threads")
    try:
        group.query("bfs", source=0)
    except BaseException:
        group.shutdown()
        raise
    return group, time.perf_counter() - t0


def _warm(group: ReplicaGroup, hot: np.ndarray) -> None:
    """One query of each kind, so lazy paths run before timing, and the
    hot keys, so the phase measures a filled cache rather than the
    transient of its first misses."""
    group.query("ppr", seed=1, **PARAMS["ppr"])
    group.query("pagerank", **PARAMS["pagerank"])
    for v in hot.tolist():
        group.query("bfs", source=v)
        group.query("ppr", seed=v, **PARAMS["ppr"])


def _instrument(group: ReplicaGroup, rec: SpanRecorder) -> None:
    rec.wrap(group.router, "route", "Router.route")
    for rep in group.replicas:
        rec.wrap(rep.snapshots, "acquire", "SnapshotRegistry.acquire")
        rec.wrap(rep.engine, "submit", "AnalyticsEngine.submit")
        rec.wrap(rep.engine, "result", "AnalyticsEngine.result")
        rec.wrap(rep.engine, "apply_updates", "AnalyticsEngine.apply_updates")


def _check_queries(rng: np.random.Generator) -> list[tuple[str, dict]]:
    sources = rng.integers(0, N, size=CHECK_BFS_SOURCES)
    seeds = rng.integers(0, N, size=CHECK_PPR_SEEDS)
    return ([("bfs", {"source": int(s)}) for s in sources]
            + [("wcc", {}), ("pagerank", dict(PARAMS["pagerank"]))]
            + [("ppr", {"seed": int(s), **PARAMS["ppr"]}) for s in seeds])


def _assemble(comm, g, local: np.ndarray) -> np.ndarray | None:
    gids = comm.gatherv(g.unmap[: g.n_loc].astype(np.int64))
    vals = comm.gatherv(np.ascontiguousarray(local))
    if comm.rank:
        return None
    gids, vals = gids[0], vals[0]
    cols = local.shape[1:] if local.ndim > 1 else ()
    out = np.zeros((g.n_global,) + cols, dtype=local.dtype)
    out[gids] = vals.reshape((-1,) + cols)
    return out


def _direct(comm, edges: np.ndarray, queries: list[tuple[str, dict]]):
    """Reference answers from a graph rebuilt from the final edge set,
    each validated on that graph (served and reference answers share the
    kernels, so equality alone would not catch a kernel that is wrong).
    Returns ``(answers, violations)`` on rank 0."""
    chunk = np.array_split(edges, comm.size)[comm.rank]
    g = build_dist_graph(comm, chunk, VertexBlockPartition(N, comm.size))
    out, bad = [], []
    for kind, p in queries:
        if kind == "bfs":
            local = distributed_bfs(comm, g, p["source"])
            bad += validate_bfs_levels(comm, g, local, p["source"])
        elif kind == "wcc":
            local = wcc(comm, g).labels
            bad += validate_components(comm, g, local)
        elif kind == "pagerank":
            res = pagerank(comm, g, max_iters=p["max_iters"])
            local = res.scores
            bad += validate_pagerank(comm, g, local, tol=res.final_delta)
        else:
            local = batched_personalized_pagerank(
                comm, g, np.array([p["seed"]]), max_iters=p["max_iters"],
                tol=1e-10).scores[:, 0]
        out.append(_assemble(comm, g, local))
    return out, bad


def _compare(kind: str, served, ref: np.ndarray) -> bool:
    if kind == "bfs":
        got = served["levels"]
        return bool(np.array_equal(np.where(got < 0, -1, got),
                                   np.where(ref < 0, -1, ref)))
    if kind == "wcc":
        return bool(np.array_equal(served["labels"], ref))
    return bool(np.allclose(served["scores"], ref, rtol=SCORE_RTOL,
                            atol=SCORE_ATOL))


@dataclass
class _Phase:
    """One phase's outcome plus the group counters it ended with."""

    name: str
    res: PhaseResult
    status: dict
    served: list  # answers to the check queries, after sync
    traced: bool
    comm: dict  # engine comm totals over the phase, all replicas and ranks


def _comm_totals(group: ReplicaGroup) -> dict:
    """``comm.trace`` totals of every engine of the group, summed."""
    out: dict = {}
    for rp in group.replicas:
        for k, v in rp.engine.status()["comm"].items():
            out[k] = out.get(k, 0) + v
    return out


def _run_phase(cfg: ServeConfig, name: str, edges: np.ndarray,
               schedule: list[tuple], duration: float, hot: np.ndarray,
               checks: list[tuple[str, dict]], rec: SpanRecorder | None,
               setups: list[float]) -> _Phase:
    group, setup_s = _new_group(cfg, edges)
    setups.append(setup_s)
    try:
        _warm(group, hot)
        if rec is not None:
            _instrument(group, rec)
        comm0 = _comm_totals(group)
        res = run_phase(group, schedule, duration, recorder=rec,
                        read_timeout=READ_TIMEOUT_S)
        comm1 = _comm_totals(group)
        # Output checks (untimed): converge, then serve a fixed sample.
        synced = group.sync(timeout=120.0)
        served = [group.query(kind, timeout=120.0, **p)
                  for kind, p in checks] if synced else []
        return _Phase(name, res, group.status(), served, rec is not None,
                      {k: comm1[k] - comm0[k] for k in comm1})
    finally:
        group.shutdown()


def run(workload: str, seed: int, seconds: float, trace: bool,
        rec: SpanRecorder | None) -> Report:
    cfg = CONFIGS[workload]
    duration = seconds / 2.0
    for rate in cfg.rates.values():  # fail before measuring, not after
        tail_percentile(int(round(rate * duration / cfg.windows)))
    rng = np.random.default_rng(seed)
    edges = webcrawl_edges(N, avg_degree=DEGREE, seed=GRAPH_SEED)
    final = edges
    writes: list[tuple] = []
    if cfg.write_rate:
        writes, final = _write_stream(cfg, duration, edges, rng)
    checks = _check_queries(rng)
    hot = rng.integers(0, N, size=HOT_POOL if cfg.hot_fraction else 0)
    schedules = {}
    for phase, rate in cfg.rates.items():
        reads = _read_schedule(cfg, rate, duration, hot, rng)
        schedules[phase] = sorted(reads + writes, key=lambda it: it[0])

    # Phases: untraced runs light + heavy; a traced run adds an untraced
    # heavy phase first, to measure the tracing overhead against.
    if trace:
        plan = [("heavy", None), ("light", rec), ("heavy", rec)]
    else:
        plan = [("light", None), ("heavy", None)]
    setups: list[float] = []
    phases = [_run_phase(cfg, name, edges, schedules[name], duration, hot,
                         checks, r, setups) for name, r in plan]
    while len(setups) < SETUP_REPEATS:
        group, setup_s = _new_group(cfg, edges)
        group.shutdown()
        setups.append(setup_s)

    rep = Report()
    refs, bad = run_spmd(NRANKS, _direct, final, checks,
                         backend="threads")[0]
    rep.violations += [f"reference on the final edge set: {v}" for v in bad]
    rep.failed += len(bad)
    for ph in phases:
        rep.attempted += len(ph.res.reads) + len(ph.res.writes) + len(checks)
        rep.failed += ph.res.failed_reads + ph.res.write_errors
        if len(ph.served) != len(checks):
            rep.violations.append(f"{ph.name}: group did not converge")
            rep.failed += len(checks)
            continue
        for (kind, p), served, ref in zip(checks, ph.served, refs):
            if not _compare(kind, served, ref):
                rep.violations.append(
                    f"{ph.name}: served {kind} {p} differs from a direct "
                    f"computation on the final edge set")
                rep.failed += 1

    for ph in phases:
        per_window = len(ph.res.reads) // cfg.windows
        rep.notes.append(
            f"{ph.name}{' (traced)' if ph.traced else ''}: "
            f"{len(ph.res.reads)} reads in {cfg.windows} windows, "
            f"{len(ph.res.read_latencies())} served, "
            f"{len(ph.res.writes)} writes, tail=p"
            f"{tail_percentile(per_window)} of {per_window} per window, "
            f"stream={ph.status['per_replica'][0]['stream']}")
    if not trace:
        rep.metrics["setup_s"] = median(setups)
        # The median read latency over both rates: the median of the
        # phases' window medians.  Tail latencies and the per-rate
        # medians are printed as details: with ten samples beyond the
        # percentile, or reads queueing behind a write stream, their
        # run-to-run spread is wider than any bound the benchmark may set.
        p50s = []
        for ph in phases:
            wins = _windows(ph.res, duration, cfg.windows)
            p50s += [median(w) for w in wins]
            p50, tail = _window_latencies(ph.res, duration, cfg.windows)
            rep.detail(f"read_p50_ms.{ph.name}", p50 * 1e3, "ms")
            rep.detail(f"read_tail_ms.{ph.name}", tail * 1e3, "ms")
            if ph.name == "heavy":
                rep.detail("goodput_qps.heavy", goodput(
                    [r.latency_s for r in ph.res.reads], GOODPUT_LIMIT_S,
                    ph.res.elapsed_s), "1/s")
        rep.metrics["latency_ms"] = median(p50s) * 1e3
        if cfg.write_rate:
            rep.detail("write_visible_ms", _write_visible_ms(phases), "ms")
        return rep

    _layer_metrics(rep, cfg, phases, duration, rec, edges)
    return rep


def _write_visible_ms(phases: list[_Phase]) -> float:
    """Median time from a write's return until every replica applied it."""
    return median([w.visible_s for ph in phases for w in ph.res.writes
                   if w.visible_s is not None]) * 1e3


def _windows(res: PhaseResult, duration: float,
             windows: int) -> list[list[float]]:
    """Latencies of the served reads of each equal window of a phase; a
    failed read has no latency (it is counted in ``failed``)."""
    width = duration / windows
    wins: list[list[float]] = [[] for _ in range(windows)]
    for r in res.reads:
        if r.latency_s is not None:
            w = min(windows - 1, int((r.due - res.start) / width))
            wins[w].append(r.latency_s)
    return wins


def _window_latencies(res: PhaseResult, duration: float,
                      windows: int) -> tuple[float, float]:
    """Median over windows of each window's median and tail latency.

    The tail percentile is fixed by the scheduled reads per window (a
    phase too short to leave 10 reads beyond any percentile raises).
    """
    q = tail_percentile(len(res.reads) // windows)
    wins = _windows(res, duration, windows)
    return (median([median(w) for w in wins]),
            median([percentile(w, q) for w in wins]))


def _layer_metrics(rep: Report, cfg: ServeConfig, phases: list[_Phase],
                   duration: float, rec: SpanRecorder,
                   edges: np.ndarray) -> None:
    traced = [ph for ph in phases if ph.traced]
    m = rep.metrics
    part = VertexBlockPartition(N, NRANKS)
    m_out = np.bincount(part.owner_of(edges[:, 0]), minlength=NRANKS)
    m["partition.edge_imbalance"] = m_out.max() / m_out.mean()
    # Runtime totals of the traced phases, over every rank and replica.
    for key, metric in (("compute_s", "runtime.compute_s"),
                        ("comm_s", "runtime.comm_s"),
                        ("idle_s", "runtime.idle_s"),
                        ("n_collectives", "runtime.collectives"),
                        ("bytes_sent", "runtime.bytes_sent")):
        m[metric] = sum(ph.comm[key] for ph in traced)
    heavy = {ph.traced: median(ph.res.read_latencies())
             for ph in phases if ph.name == "heavy"}
    m["trace.overhead_frac"] = heavy[True] / heavy[False] - 1.0

    for ph in traced:
        rep.detail(f"read_tail_ms.{ph.name}", _window_latencies(
            ph.res, duration, cfg.windows)[1] * 1e3, "ms")
    reads = [r for ph in traced for r in ph.res.reads
             if r.served_at is not None and r.error is None]
    hits = [r.served_at - r.submitted_at for r in reads if r.cached]
    if hits:
        rep.detail("service.hit_us", median(hits) * 1e6, "us")
    for kind in sorted(MIX):
        miss = [r.served_at - r.submitted_at for r in reads
                if not r.cached and r.kind == kind]
        if miss:
            rep.detail(f"service.miss_ms.{kind}", median(miss) * 1e3, "ms")
    jobs = [rp["jobs"] for ph in traced for rp in ph.status["per_replica"]]
    rep.detail("scheduler.batch_size",
               sum(j["batched_jobs"] for j in jobs)
               / max(1, sum(j["batches"] for j in jobs)), "jobs")
    rep.detail("scheduler.pending_max",
               max(ph.res.pending_max for ph in traced), "count")
    cache = [ph.status["cache_totals"] for ph in traced]
    hit_n = sum(c["hits"] for c in cache)
    rep.detail("cache.hit_ratio", hit_n / max(1, hit_n + sum(
        c["misses"] for c in cache)), "ratio")
    rep.detail("cache.evictions", sum(c["evictions"] for c in cache),
               "count")
    rep.detail("cache.invalidations",
               sum(c["invalidations"] for c in cache), "count")
    rep.detail("router.route_us",
               median(rec.durations("Router.route")) * 1e6, "us")
    rep.detail("router.sheds",
               sum(ph.status["router"]["sheds"] for ph in traced), "count")
    rep.detail("replica.lag_max", max(ph.res.lag_max for ph in traced),
               "count")
    if cfg.snapshot_reads:
        rep.detail("snapshots.acquire_us", median(
            rec.durations("SnapshotRegistry.acquire")) * 1e6, "us")
    if cfg.write_rate:
        rep.detail("write_visible_ms", _write_visible_ms(traced), "ms")
        rep.detail("stream.apply_ms", median(
            rec.durations("AnalyticsEngine.apply_updates")) * 1e3, "ms")
        streams = [rp["stream"] for ph in traced
                   for rp in ph.status["per_replica"]]
        rep.detail("stream.compactions",
                   sum(s["compactions"] for s in streams), "count")
        rep.detail("stream.ghost_rebuilds",
                   sum(s["ghost_rebuilds"] for s in streams), "count")
    late = [x for ph in traced for x in ph.res.late_s]
    rep.detail("loadgen.late_ms", percentile(late, 95) * 1e3, "ms")
