import pytest

from stats import (
    goodput,
    median,
    percentile,
    samples_beyond,
    tail_percentile,
)


@pytest.mark.parametrize("n, q", [(20, 50), (100, 90), (150, 93),
                                  (200, 95), (1000, 99), (5000, 99)])
def test_tail_percentile_leaves_ten_beyond(n, q):
    assert tail_percentile(n) == q
    assert samples_beyond(n, q) >= 10
    if q < 99:
        assert samples_beyond(n, q + 1) < 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_nearest_rank_percentile_counts_samples_beyond():
    values = list(range(1, 101))[::-1]
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile([5.0], 99) == 5.0


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_goodput_counts_failures_and_slow_reads_as_misses():
    lats = [0.1, None, 2.0, 0.5, 1.0]
    assert goodput(lats, limit_s=1.0, duration_s=2.0) == 1.5
    with pytest.raises(ValueError):
        goodput(lats, 1.0, 0.0)
