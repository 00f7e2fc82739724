#!/usr/bin/env python
"""Serving tour: one resident graph, many queries, no rebuilds.

Spins up an :class:`~repro.service.AnalyticsEngine` (a persistent SPMD
rank world holding the distributed graph), then walks through what the
serving layer buys over one-shot ``run_spmd`` jobs:

1. a burst of mixed queries — compatible BFS/PPR queries coalesce into
   multi-source batches, each sharing one set of collectives;
2. repeated queries — answered from the LRU result cache, never dispatched;
3. a deliberately failing job — aborted cleanly while the world survives
   and keeps serving.

Run:  python examples/serving.py [--n 20000] [--ranks 4]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.generators import webcrawl_edges
from repro.service import AnalyticsEngine, JobFailedError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000, help="number of pages")
    ap.add_argument("--ranks", type=int, default=4, help="SPMD ranks")
    args = ap.parse_args()

    edges = webcrawl_edges(args.n, avg_degree=12, seed=1)
    print(f"generated crawl: {args.n:,} pages, {len(edges):,} links")

    t0 = time.perf_counter()
    with AnalyticsEngine(args.ranks, edges=edges, n=args.n) as eng:
        print(f"engine up in {time.perf_counter() - t0:.2f}s "
              f"(graph fingerprint {eng.fingerprint})")

        # --- 1. a burst of mixed queries ------------------------------
        # Paused, the burst queues up as it would behind a busy
        # dispatcher; queued same-kind queries then coalesce.
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        eng.pause()
        bfs_ids = [eng.submit("bfs", source=int(s))
                   for s in rng.integers(0, args.n, 6)]
        ppr_ids = [eng.submit("ppr", seed=int(s), max_iters=20)
                   for s in rng.integers(0, args.n, 4)]
        pr_id = eng.submit("pagerank", max_iters=10)
        eng.resume()
        for jid in bfs_ids + ppr_ids:
            eng.result(jid)
        pr = eng.result(pr_id)
        st = eng.status()
        print(f"\nburst of 11 queries served in "
              f"{time.perf_counter() - t0:.2f}s — "
              f"{st['jobs']['batches']} dispatches, largest batch "
              f"{st['jobs']['max_batch_size']} "
              f"(6 BFS sources ran as one multi-source traversal)")
        top = np.argsort(-pr["scores"])[:3]
        print("top pages by PageRank:",
              ", ".join(f"{v} ({pr['scores'][v]:.2e})" for v in top))

        # --- 2. the cache ---------------------------------------------
        t0 = time.perf_counter()
        again = eng.query("pagerank", max_iters=10)
        dt = time.perf_counter() - t0
        assert again["scores"] is pr["scores"]
        print(f"\nrepeated PageRank served from cache in {dt * 1e3:.1f}ms "
              f"(same array, zero collectives)")

        # --- 3. failure isolation -------------------------------------
        try:
            eng.query("_debug_fail", fail_rank=1)
        except JobFailedError as exc:
            print(f"\ninjected failure contained: {exc}")
        check = eng.query("bfs", source=0)
        print(f"world still serving: BFS from 0 reaches "
              f"{(check['levels'] >= 0).sum():,} pages")

        st = eng.status()
        print(f"\nfinal status: {st['jobs']['completed']} completed, "
              f"{st['jobs']['failed']} failed, cache "
              f"{st['cache']['hits']} hits / {st['cache']['misses']} misses, "
              f"{st['comm']['n_collectives']} collectives, "
              f"{st['comm']['bytes_sent'] / 1e6:.1f} MB exchanged")


if __name__ == "__main__":
    main()
