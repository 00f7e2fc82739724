"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Metrics of one run (names as in ``BENCHMARK.json``), operation
    counts, output-check violations and free-form lines for the log.

    ``details`` holds figures that only this workload can measure (the
    per-analytic times of ``batch-paper6``, the cache and stream figures
    of the serving workloads): they are printed by name with their unit
    but kept out of the result line, which carries only the metrics every
    workload reports.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def detail(self, name: str, value: float, unit: str) -> None:
        self.details[name] = (float(value), unit)

    @property
    def failed_frac(self) -> float:
        return self.failed / max(1, self.attempted)
