"""Percentiles and the sample-count rule."""

import pytest

from stats import percentile, samples_beyond, summarize, supported_tail


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]  # sorted: 1 2 3 4
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_of_one_sample_is_that_sample():
    assert percentile([7.5], 90) == 7.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, q, beyond", [
    (100, 90, 10),   # ranks 0..99, p90 at 89.1: ranks 90..99 lie beyond
    (99, 90, 10),    # p90 at exactly rank 88.2 -> 89..98
    (10, 90, 1),
    (21, 50, 10),    # median is rank 10 exactly: 11..20 beyond
    (1000, 99, 10),
])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond


@pytest.mark.parametrize("n, tail", [
    (19, None),   # even the median has only 9 samples beyond
    (21, 50.0),
    (99, 90.0),
    (100, 90.0),
    (900, 90.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_supported_tail_needs_ten_samples_beyond(n, tail):
    assert supported_tail(n) == tail


def test_summarize_states_counts():
    s = summarize([float(v) for v in range(1, 101)], "ms")
    assert s["samples"] == 100
    assert s["p50"] == pytest.approx(50.5)
    assert s["p90_samples_beyond"] == 10
    assert s["tail_pct"] == 90.0
    assert s["tail"] == s["p90"]
    thin = summarize([1.0, 2.0, 3.0], "ms")
    assert thin["tail_pct"] is None and thin["tail"] is None
    assert thin["p90_samples_beyond"] == 1
