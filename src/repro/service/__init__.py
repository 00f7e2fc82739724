"""Analytics-serving layer: persistent engine, scheduler, result cache.

The ROADMAP's north star is a system that *serves* — many queries against
one resident graph, not one cold pipeline per invocation.  This package is
that layer:

* :class:`AnalyticsEngine` — keeps an SPMD rank world alive, builds or
  checkpoint-loads the distributed graph exactly once, and serves
  ``submit()``/``result()`` queries with per-job timeouts and failure
  isolation (a crashing job aborts only itself);
* :class:`JobScheduler` — bounded-FIFO admission control plus coalescing
  of compatible queued queries (k BFS sources → one multi-source run,
  k PPR seeds → one blocked sweep);
* :class:`ResultCache` — LRU keyed on (graph fingerprint, analytic,
  canonical params) with hit/miss/eviction counters.

See ``examples/serving.py`` for an end-to-end walkthrough and
``python -m repro serve`` for the CLI front end.
"""

from .cache import ResultCache, cache_key, canonical_params
from .engine import (
    SERVING_KINDS,
    AnalyticsEngine,
    EngineClosedError,
    JobFailedError,
    JobTimeoutError,
    SnapshotUnavailableError,
)
from .scheduler import AdmissionError, Job, JobScheduler

__all__ = [
    "AnalyticsEngine",
    "JobScheduler",
    "Job",
    "ResultCache",
    "cache_key",
    "canonical_params",
    "AdmissionError",
    "EngineClosedError",
    "JobFailedError",
    "JobTimeoutError",
    "SnapshotUnavailableError",
    "SERVING_KINDS",
]
