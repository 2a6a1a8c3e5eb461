"""The benchmark's own arithmetic."""

import statistics

import pytest

from perfbench import stats
from perfbench.tracer import Tracer, merge_tables


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def self_time_by_name(spans):
    totals = {}
    for (name, _s, _e, _p), own in zip(spans, stats.self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 4.0, 8.0, 0),
        ("b.inner", 5.0, 6.0, 2),
    ]
    assert stats.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert self_time_by_name(spans)["b"] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [("root", 0.0, 2.0, None), ("late", 1.5, 2.5, 0)]
    assert stats.self_times(spans) == pytest.approx([1.5, 1.0])


def test_self_time_never_negative():
    spans = [("root", 0.0, 1.0, None), ("a", 0.0, 1.0, 0), ("b", 0.0, 1.0, 0)]
    assert stats.self_times(spans)[0] == 0.0


def test_tracer_stack_matches_stored_span_self_times():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 0.5
        tracer.call("leaf", leaf, (), {})
        clock.now += 0.25
        tracer.call("leaf", leaf, (), {})

    def outer():
        clock.now += 2.0
        tracer.call("middle", middle, (), {})

    tracer.call("outer", outer, (), {})
    spans = [
        ("outer", 0.0, 4.75, None),
        ("middle", 2.0, 4.75, 0),
        ("leaf", 2.5, 3.5, 1),
        ("leaf", 3.75, 4.75, 1),
    ]
    expected = self_time_by_name(spans)
    for label, own in expected.items():
        assert tracer.table[label][2] == pytest.approx(own)
    assert tracer.table["leaf"][0] == 2
    assert tracer.table["outer"][1] == pytest.approx(4.75)
    assert tracer.current is None


def test_tracer_books_a_span_that_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("boom", boom, (), {})
    assert tracer.table["boom"][0] == 1


def test_merge_tables_sums_rows():
    merged = merge_tables([{"a": [1, 2.0, 1.0]}, {"a": [2, 1.0, 0.5], "b": [1, 1.0, 1.0]}])
    assert merged == {"a": [3, 3.0, 1.5], "b": [1, 1.0, 1.0]}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summarize_reports_the_sample_count():
    small = stats.summarize([3.0, 1.0, 2.0])
    assert small == {"median": 2.0, "n": 3}
    big = stats.summarize([float(i) for i in range(1, 201)])
    assert big["n"] == 200 and big["p90"] == 180.0


def test_failure_share():
    assert stats.failure_share(200, 5) == 0.025
    assert stats.failure_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failure_share(3, 4)
    with pytest.raises(ValueError):
        stats.failure_share(-1, 0)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 12.0, 10.1, 9.9, 10.4, 10.0, 11.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([4.0]) == 0.0
