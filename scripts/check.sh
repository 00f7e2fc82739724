#!/usr/bin/env bash
# Repository health check: lint (when ruff is available), the spmdlint SPMD
# correctness passes (shallow strict + whole-program --deep strict against
# the checked-in baseline), the seeded-violation fixture corpora (run as
# the parametrized pytest module tests/test_check_corpus.py), the runtime
# race fixtures, one smoke run per versioned benchmarks/BENCH_*.json
# baseline (fails on ratio regression vs the recorded baseline), the
# perfbench harness's own tests, the paper-shape assertions of the
# analytics benches, and the tier-1 suite twice (verifier on; then buffer
# sanitizer on as well).
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tracked compiled artifacts =="
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    tracked_pyc=$(git ls-files -- '*.pyc' '**/__pycache__/*' || true)
    if [ -n "$tracked_pyc" ]; then
        echo "FAIL: compiled artifacts are tracked:" >&2
        echo "$tracked_pyc" >&2
        exit 1
    fi
    echo "ok: no tracked .pyc/__pycache__ files"
else
    echo "skip: not a git checkout"
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples scripts
else
    echo "== ruff not installed; skipping lint (pip install -e '.[dev]') =="
fi

echo "== spmdlint (strict) =="
PYTHONPATH=src python -m repro check src/repro --strict

echo "== spmdlint autofix drift gate (--fix --check) =="
# Fails when `repro check --fix` would still change a file: mechanical
# findings (SPMD013 wraps, PERF001/PERF003 hoists) must be applied and
# committed, not left for CI to discover.
PYTHONPATH=src python -m repro check src/repro --fix --check

echo "== spmdlint whole-program (--deep, strict, baselined) =="
PYTHONPATH=src python -m repro check src/repro --deep --strict \
    --baseline .spmdlint-baseline.json --cache .spmdlint-cache.json

echo "== spmdlint extras (benchmarks + examples, shallow, baselined) =="
# Shallow only: the harness files are single-module entry points, and
# the deep pass would pull their private helpers into the repo summary
# table.  Grandfathered findings live in their own baseline so drift in
# benchmark code never masks (or is masked by) src/repro findings.
PYTHONPATH=src python -m repro check benchmarks examples --strict \
    --baseline .spmdlint-extras-baseline.json

echo "== spmdlint fixture corpora (pytest, parametrized) =="
PYTHONPATH=src python -m pytest -x -q tests/test_check_corpus.py

echo "== runtime race fixtures (sanitizer end-to-end) =="
for script in tests/fixtures/racecheck/race_*.py; do
    PYTHONPATH=src python "$script"
done

# Every versioned baseline benchmarks/BENCH_<name>.json is guarded by its
# bench's --smoke mode (small sizes, load-invariant ratios vs the recorded
# baseline).  Adding a baseline file automatically adds its smoke run here.
for baseline in benchmarks/BENCH_*.json; do
    name=$(basename "$baseline" .json)
    name=${name#BENCH_}
    bench="benchmarks/bench_${name}.py"
    if [ ! -f "$bench" ]; then
        echo "FAIL: $baseline has no matching $bench" >&2
        exit 1
    fi
    echo "== bench smoke: $bench (guards $baseline) =="
    PYTHONPATH=src python "$bench" --smoke
done

echo "== repository benchmark harness tests (perfbench/tests) =="
# Not under testpaths: the harness's own unit tests (statistics, open-loop
# schedule, spans, run-line contract) run here instead.
PYTHONPATH=src python -m pytest -q perfbench/tests

echo "== paper-shape benches (Table IV/V, Fig 2/5/6 assertions) =="
# Not under testpaths either: these assert the paper's shapes (k-core and
# Label Propagation are the long-running analytics, LP slowest on Rand-ER,
# community-size and coreness distributions) on the kernels they time.
PYTHONPATH=src python -m pytest -q --benchmark-disable \
    benchmarks/bench_table4_analytics.py::test_report_table4 \
    benchmarks/bench_fig2_strong_scaling.py \
    benchmarks/bench_fig5_community_sizes.py \
    benchmarks/bench_fig6_coreness.py \
    benchmarks/bench_table5_communities.py

echo "== serve smoke: 2-replica group, mixed query+update workload =="
# End-to-end through the CLI: start a replica group, serve point and
# global queries with snapshot reads while update batches stream through
# the shared log, and shut down cleanly (exit 0 is the clean-shutdown
# check; the grep asserts the group actually came up replicated).
serve_tmp=$(mktemp -d)
trap 'rm -rf "$serve_tmp"' EXIT
PYTHONPATH=src python - "$serve_tmp" <<'PY'
import sys
from pathlib import Path
import numpy as np
from repro.io import write_edges

tmp = Path(sys.argv[1])
rng = np.random.default_rng(23)
n = 400
write_edges(tmp / "g.bin", rng.integers(0, n, size=(2400, 2), dtype=np.int64))
(tmp / "q.txt").write_text(
    "pagerank max_iters=5\nbfs source=3\nbfs source=3\nwcc\nppr seed=7\n")
(tmp / "u.txt").write_text("".join(
    f"+ {rng.integers(0, n)} {rng.integers(0, n)}\n" for _ in range(12)))
PY
serve_out=$(PYTHONPATH=src python -m repro serve "$serve_tmp/g.bin" \
    --ranks 2 --replicas 2 --snapshot-reads \
    --queries "$serve_tmp/q.txt" --updates "$serve_tmp/u.txt" \
    --update-batch 4 --timeout 120)
echo "$serve_out" | tail -n 8
echo "$serve_out" | grep -q "replica group up: 2 replicas" || {
    echo "FAIL: serve smoke did not start a 2-replica group" >&2; exit 1; }
echo "$serve_out" | grep -q "served 5 queries" || {
    echo "FAIL: serve smoke did not serve the full workload" >&2; exit 1; }

echo "== pytest (tier 1, collective-schedule verifier on) =="
PYTHONPATH=src python -m pytest -x -q "$@"

echo "== pytest (buffer sanitizer on) =="
REPRO_SANITIZE_BUFFERS=1 PYTHONPATH=src python -m pytest -x -q "$@"

echo "== pytest smoke subset on the procs backend =="
# Engines and explicit-backend tests run on spawned-process ranks; the
# dist_run reference harness stays pinned to threads (ground truth).
REPRO_BACKEND=procs PYTHONPATH=src python -m pytest -x -q \
    tests/test_backends.py tests/test_backend_equivalence.py \
    tests/test_service.py tests/test_stream_service.py \
    tests/test_stream_equivalence.py::test_procs_backend_stream_bitwise
