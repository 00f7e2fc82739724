import json
from pathlib import Path

import pytest

from run import check_names

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("group", ["end_to_end", "per_layer"])
def test_a_run_must_report_every_metric_of_its_group(group):
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    check_names(dict.fromkeys(units, 1.0), units)
    first = next(iter(units))
    with pytest.raises(RuntimeError, match="not reported"):
        check_names({k: 1.0 for k in units if k != first}, units)
    with pytest.raises(RuntimeError, match="missing from BENCHMARK.json"):
        check_names({**dict.fromkeys(units, 1.0), "extra": 1.0}, units)
