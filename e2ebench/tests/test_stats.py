"""The reporting rule: a percentile needs at least ten samples beyond it."""

import pytest

import stats


def test_nearest_rank_returns_an_observed_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 0.5) == 3.0
    assert stats.percentile(samples, 0.99) == 5.0
    assert stats.percentile(samples, 0.0) == 1.0


def test_samples_beyond_counts_strictly_larger_ranks():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(999, 0.99) == 9
    assert stats.samples_beyond(100, 0.9) == 10


@pytest.mark.parametrize(
    "count, fraction",
    [(1000, 0.99), (999, 0.95), (200, 0.95), (199, 0.9), (100, 0.9), (99, 0.75), (120, 0.9), (20, 0.5), (19, None)],
)
def test_tail_fraction_is_highest_percentile_with_ten_beyond(count, fraction):
    assert stats.tail_fraction(count) == fraction
    if fraction is not None:
        assert stats.samples_beyond(count, fraction) >= stats.MIN_BEYOND


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
