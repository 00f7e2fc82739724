"""Repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-paper6 --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from ``--seed``; the run measures for about ``--seconds`` seconds,
checks the program's outputs, prints every metric by name with its unit
plus the environment it ran in, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports the per-layer metrics,
recorded by spans around the benchmark's own calls into each layer
(written to ``.perfbench_out/``).  Every workload reports the same
metric names; figures only one workload can measure are printed on
``detail`` lines.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-paper6", "serve-hot", "serve-write")
#: Environment switches that slow every collective; numbers taken with
#: them on are not comparable, so the benchmark refuses to run.
REFUSED_ENV = ("REPRO_VERIFY_COLLECTIVES", "REPRO_SANITIZE_BUFFERS")
RANKS = 2
BACKEND = "threads"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": BACKEND, "ranks": RANKS,
        "python": platform.python_version(), "numpy": numpy_version,
        "commit": _git_commit(),
    }


def _switched_on(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no", "off")


def check_names(metrics: dict[str, float], units: dict[str, str]) -> None:
    """Every workload reports exactly the metrics of the manifest's
    group, so a result line is comparable across workloads and commits."""
    missing = sorted(set(units) - set(metrics))
    unknown = sorted(set(metrics) - set(units))
    if missing or unknown:
        raise RuntimeError(f"metrics not reported: {missing}; "
                           f"metrics missing from BENCHMARK.json: {unknown}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    on = [name for name in REFUSED_ENV if _switched_on(name)]
    if on:
        print(f"refusing to measure with {', '.join(on)} set",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import numpy as np

    import batch
    import floor
    import serving
    from spans import SpanRecorder, self_time_by_name

    rec = SpanRecorder() if args.trace else None
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "batch-paper6":
            report = batch.run(args.seed, args.seconds, bool(args.trace),
                               workdir, rec)
        else:
            report = serving.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        report.metrics.update(floor.measure(RANKS))

    check_names(report.metrics, units)
    print("env " + json.dumps(_environment(args, np.__version__)))
    for line in report.notes:
        print("note " + line)
    for v in report.violations:
        print("CHECK FAILED " + v)
    if rec is not None:
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        rec.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
        for name, (count, total) in sorted(
                self_time_by_name(rec.spans()).items()):
            print(f"self {name:<32} n={count:<7} {total:.4f} s")
    for name, value in report.metrics.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    for name, (value, unit) in report.details.items():
        print(f"detail {name:<34} {value:.6g} {unit}")
    print(f"{'failed_frac':<34} {report.failed_frac:.6g} ratio")
    correct = not report.violations
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in report.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
