"""The percentile and sample-count rule."""

from perfbench.stats import describe_timing, percentile, reportable_percentile, samples_beyond


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(20, 50.0) == 10
    assert reportable_percentile(5) is None
    assert reportable_percentile(19) is None
    assert reportable_percentile(20) == 50.0
    assert reportable_percentile(99) == 50.0
    assert reportable_percentile(100) == 90.0
    assert reportable_percentile(1000) == 99.0
    assert reportable_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile([3.0], 99.0) == 3.0


def test_describe_timing_states_the_sample_count():
    few = describe_timing("op", [1.0, 3.0, 2.0])
    assert "p50 2.0000 s" in few and "n=3" in few and "no percentile above p50" in few
    many = describe_timing("op", [float(i) for i in range(1, 101)])
    assert "n=100" in many and "p90 90.0000 s" in many
