"""Metrics registry: instruments, tally fold-in, null defaults."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("launches")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ParameterError):
            MetricsRegistry().counter("c").inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ParameterError):
            registry.gauge("metric")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("occupancy")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(52.5)
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.mean == pytest.approx(17.5)

    def test_bucket_assignment(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 1}

    def test_value_on_a_bound_lands_in_that_bound(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (1.0, 10, float("-inf"), float("inf")):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"le_1": 2, "le_10": 1, "le_inf": 1}

    def test_nan_lands_in_the_inf_bucket(self):
        # NaN compares false against every bound, so it is <= none of
        # them and counts where values above the last bound do.
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        histogram.observe(float("nan"))
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"le_1": 0, "le_10": 0, "le_inf": 1}
        assert histogram.count == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ParameterError):
            MetricsRegistry().histogram("h", buckets=(10.0, 1.0))

    def test_empty_histogram_snapshot(self):
        snapshot = MetricsRegistry().histogram("h").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean"] == 0.0


def _hist(values, buckets=(1.0, 10.0, 100.0)):
    histogram = MetricsRegistry().histogram("h", buckets=buckets)
    for value in values:
        histogram.observe(value)
    return histogram


class TestHistogramPercentile:
    """Boundary and interpolation semantics of Histogram.percentile."""

    def test_empty_histogram_has_no_percentiles(self):
        assert _hist([]).percentile(50) is None
        assert _hist([]).percentile(0) is None
        assert _hist([]).percentile(100) is None

    def test_single_sample_is_every_percentile(self):
        histogram = _hist([3.0])
        for p in (0, 1, 50, 99, 100):
            assert histogram.percentile(p) == 3.0

    def test_p0_is_min_and_p100_is_max(self):
        histogram = _hist([0.5, 2.0, 50.0, 500.0])
        assert histogram.percentile(0) == 0.5
        assert histogram.percentile(100) == 500.0

    def test_out_of_range_p_rejected(self):
        histogram = _hist([1.0])
        with pytest.raises(ParameterError):
            histogram.percentile(-0.1)
        with pytest.raises(ParameterError):
            histogram.percentile(100.1)

    def test_value_on_bucket_edge(self):
        # 1.0 lands in the first bucket (le_1); the degenerate
        # lo == hi == 1.0 interval must not divide by zero.
        histogram = _hist([1.0, 1.0])
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(100) == 1.0

    def test_overflow_bucket_clamps_to_max(self):
        histogram = _hist([500.0, 600.0])  # both past the last bound
        assert histogram.percentile(99) <= 600.0
        assert histogram.percentile(1) >= 500.0

    def test_interpolates_within_a_bucket(self):
        # Four samples in (1, 10]: p50 targets 2 of 4, mid-bucket.
        histogram = _hist([2.0, 4.0, 6.0, 8.0])
        estimate = histogram.percentile(50)
        assert 1.0 < estimate < 10.0

    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=900.0),
            min_size=1,
            max_size=40,
        ),
        p=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_always_within_observed_range(self, values, p):
        histogram = _hist(values)
        estimate = histogram.percentile(p)
        assert estimate is not None
        assert min(values) <= estimate <= max(values)

    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=900.0),
            min_size=1,
            max_size=40,
        ),
        p_lo=st.floats(min_value=0.0, max_value=100.0),
        p_hi=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_p(self, values, p_lo, p_hi):
        if p_lo > p_hi:
            p_lo, p_hi = p_hi, p_lo
        histogram = _hist(values)
        assert histogram.percentile(p_lo) <= histogram.percentile(p_hi)


class TestHistogramMerge:
    def test_merge_accumulates_everything(self):
        a = _hist([0.5, 2.0])
        b = _hist([50.0, 500.0])
        a.merge(b)
        assert a.count == 4
        assert a.sum == pytest.approx(552.5)
        assert a.min == 0.5
        assert a.max == 500.0

    def test_merge_into_empty(self):
        a = _hist([])
        a.merge(_hist([2.0]))
        assert a.count == 1
        assert a.min == a.max == 2.0

    def test_merge_empty_is_identity(self):
        a = _hist([2.0, 3.0])
        before = a.snapshot()
        a.merge(_hist([]))
        assert a.snapshot() == before

    def test_merge_mismatched_buckets_rejected(self):
        with pytest.raises(ParameterError):
            _hist([]).merge(_hist([], buckets=(1.0, 2.0)))

    @given(
        left=st.lists(
            st.floats(min_value=0.01, max_value=900.0), max_size=20
        ),
        right=st.lists(
            st.floats(min_value=0.01, max_value=900.0), max_size=20
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_combined_observation(self, left, right):
        merged = _hist(left)
        merged.merge(_hist(right))
        combined = _hist(left + right).snapshot()
        snapshot = merged.snapshot()
        # Sums (and the derived mean) accumulate in different orders;
        # everything else is exact.
        for key in ("sum", "mean"):
            assert snapshot.pop(key) == pytest.approx(combined.pop(key))
        assert snapshot == combined


class TestRegistry:
    def test_snapshot_is_jsonable_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(1.5)
        registry.histogram("c").observe(0.1)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b", "c"]
        json.dumps(snapshot)  # must not raise
        assert snapshot["b"] == {"type": "counter", "value": 2}

    def test_record_tally_folds_limb_ops(self):
        registry = MetricsRegistry()
        tally = OpTally()
        tally.charge("add", 3)
        tally.charge("lsr", 7)
        registry.record_tally(tally)
        registry.record_tally(tally)
        assert registry.counter("limb_ops.add").value == 6
        assert registry.counter("limb_ops.lsr").value == 14

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            MetricsRegistry().counter("")

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert registry.snapshot() == {}


class TestNullRegistry:
    def test_default_registry_is_null(self):
        assert isinstance(get_registry(), NullMetricsRegistry)
        assert not get_registry().enabled

    def test_null_instruments_swallow_updates(self):
        NULL_REGISTRY.counter("c").inc(5)
        NULL_REGISTRY.gauge("g").set(3)
        NULL_REGISTRY.histogram("h").observe(1.0)
        tally = OpTally()
        tally.charge("add")
        NULL_REGISTRY.record_tally(tally)
        assert NULL_REGISTRY.snapshot() == {}

    def test_use_registry_scopes_installation(self):
        registry = MetricsRegistry()
        before = get_registry()
        with use_registry(registry):
            assert get_registry() is registry
            get_registry().counter("scoped").inc()
        assert get_registry() is before
        assert registry.counter("scoped").value == 1

    def test_set_registry_none_restores_null(self):
        set_registry(MetricsRegistry())
        try:
            assert get_registry().enabled
        finally:
            set_registry(None)
        assert isinstance(get_registry(), NullMetricsRegistry)
