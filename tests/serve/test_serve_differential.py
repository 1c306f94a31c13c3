"""Differential tests: the one serving loop against the frozen oracle.

``tests/serve/serve_oracle.py`` holds the plain serving loop, its
pricer, the per-arrival admission loop, the per-draw arrival and
placement hashes, and the linear-scan histogram lookup that the
memoised, single-loop serving path replaced. Every outcome here must
equal theirs exactly: timelines, launches, SLO reports, the point
document (without its run identity), raised errors, metrics snapshots,
arrival times, placements and histogram buckets.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PermanentDeviceError, ReproError
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, use_registry
from repro.obs.slo import LatencyDigest, SLOTracker
from repro.obs.trace import Tracer, use_tracer
from repro.serve import (
    OpenLoopArrivals,
    RequestClass,
    ResilienceSpec,
    ServeSpec,
    home_shard,
    make_layout,
    simulate,
    simulate_resilient,
)
from repro.serve.service import _admitted_arrivals
from repro.serve.shard import home_shards
from tests.serve import serve_oracle

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

IDENTITY = ("run_id", "created_at", "git_sha")

request_classes = st.builds(
    RequestClass,
    workload=st.sampled_from(["vec_add", "vec_mul", "mean", "variance", "linreg"]),
    security_bits=st.sampled_from([27, 54, 109]),
    rate_qps=st.one_of(
        st.sampled_from([500.0, 20000.0, 96000.0]),
        st.floats(200.0, 60000.0),
    ),
    ops_per_request=st.sampled_from([1, 4, 64]),
)

specs = st.builds(
    ServeSpec,
    classes=st.lists(
        request_classes, min_size=1, max_size=3, unique_by=lambda c: c.key
    ).map(tuple),
    duration_s=st.sampled_from([1e-3, 4e-3, 1e-2]),
    seed=st.one_of(st.integers(0, 50), st.sampled_from([1.0, True])),
    healthy=st.one_of(
        st.sampled_from([1.0, 0.9, 0.5, 0.25, 1e-4]),
        st.floats(1e-5, 1.0, exclude_min=True),
    ),
    max_batch=st.sampled_from([1, 3, 16, 64]),
    max_wait_s=st.sampled_from([0.0, 1e-4, 2e-3]),
    margin_bits=st.sampled_from([0.0, 2.0, 40.0]),
)


def _without_identity(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in IDENTITY}


def _headroom_spans(tracer) -> list:
    return [
        (span.name, span.attrs)
        for span in tracer.finished
        if span.name == "noise.headroom"
    ]


def _run(simulate_fn, spec):
    """One point under a recording registry and tracer."""
    registry, tracer = MetricsRegistry(), Tracer()
    with use_registry(registry), use_tracer(tracer):
        try:
            outcome = simulate_fn(spec)
        except ReproError as exc:
            outcome = exc
    return outcome, registry.snapshot(), _headroom_spans(tracer)


class TestSimulateMatchesTheOracle:
    @SLOW
    @given(spec=specs)
    def test_points_are_identical(self, spec):
        want, want_metrics, want_spans = _run(serve_oracle.simulate, spec)
        got, got_metrics, got_spans = _run(simulate, spec)
        assert got_spans == want_spans
        if isinstance(want, ReproError):
            # A fully disabled fleet, or a batch too large for MRAM.
            assert type(got) is type(want)
            assert str(got) == str(want)
            return
        assert got.timelines == want.timelines
        assert got.launches == want.launches
        assert got.reports == want.reports
        assert _without_identity(got.doc) == _without_identity(want.doc)
        assert list(got.doc) == list(want.doc)
        # The one loop also counts its launches per shard; every other
        # instrument is the plain loop's, value for value.
        if want.launches:
            want_metrics["serve.shard.launches"] = {
                "type": "counter",
                "value": len(want.launches),
            }
        assert got_metrics == want_metrics

    @pytest.mark.parametrize("healthy", [1.0, 0.9, 0.5, 0.25])
    def test_gate_traffic_at_healthy_fractions(self, healthy):
        spec = ServeSpec(
            classes=(RequestClass("vec_add", 54, 96000.0, 64),),
            duration_s=0.02,
            seed=1,
            healthy=healthy,
        )
        want, got = serve_oracle.simulate(spec), simulate(spec)
        assert got.timelines == want.timelines
        assert got.launches == want.launches
        assert got.reports == want.reports
        assert _without_identity(got.doc) == _without_identity(want.doc)


class TestFullyDisabledFleet:
    """``healthy=0.0001`` disables all 2,524 DPUs."""

    SPEC = ServeSpec(
        classes=(RequestClass(security_bits=54, rate_qps=20000.0),),
        duration_s=5e-3,
        healthy=0.0001,
    )

    def test_simulate_raises_the_plain_loops_error(self):
        with pytest.raises(PermanentDeviceError) as got:
            simulate(self.SPEC)
        with pytest.raises(PermanentDeviceError) as want:
            serve_oracle.simulate(self.SPEC)
        assert str(got.value) == str(want.value)
        assert got.value.message == (
            "every DPU in the fleet is disabled by the fault plan"
        )
        assert got.value.dpus_available == 0

    def test_the_resilient_loop_rejects_instead(self):
        result = simulate_resilient(ResilienceSpec(serve=self.SPEC, n_shards=1))
        report = result.reports["vec_add@54"]
        assert report["completed"] == 0
        assert report["rejected"] > 0
        assert result.failed and not result.launches


class TestAdmissionAccounting:
    @pytest.mark.parametrize(
        "cls, margin_bits",
        [
            (RequestClass("vec_add", 54, 20000.0), 2.0),  # admitted
            (RequestClass("vec_mul", 54, 20000.0), 2.0),  # refused
            (RequestClass("vec_add", 54, 1.0), 2.0),  # no arrivals
            (RequestClass("vec_mul", 54, 1.0), 2.0),  # no arrivals, refused
        ],
    )
    def test_snapshot_spans_and_trackers_match(self, cls, margin_bits):
        spec = ServeSpec(classes=(cls,), duration_s=5e-3, margin_bits=margin_bits)
        outcomes = []
        for admit in (serve_oracle._admitted_arrivals, _admitted_arrivals):
            registry, tracer = MetricsRegistry(), Tracer()
            trackers = {cls.key: SLOTracker(spec.objectives)}
            with use_registry(registry), use_tracer(tracer):
                admitted = admit(spec, trackers, registry)
            outcomes.append(
                (
                    admitted,
                    trackers[cls.key].rejected,
                    registry.snapshot(),
                    _headroom_spans(tracer),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_violation_is_recorded_per_arrival(self):
        spec = ServeSpec(classes=(RequestClass("vec_mul", 54, 20000.0),), duration_s=5e-3)
        registry, tracer = MetricsRegistry(), Tracer()
        trackers = {"vec_mul@54": SLOTracker()}
        with use_registry(registry), use_tracer(tracer):
            assert _admitted_arrivals(spec, trackers, registry) == {"vec_mul@54": []}
        refused = trackers["vec_mul@54"].rejected
        assert refused > 0
        assert len(_headroom_spans(tracer)) == refused
        snapshot = registry.snapshot()
        assert snapshot["noise.headroom_violations"]["value"] == refused
        assert snapshot["serve.rejected.vec_mul@54"]["value"] == refused

    def test_empty_stream_creates_no_counter(self):
        spec = ServeSpec(classes=(RequestClass("vec_add", 54, 1.0),), duration_s=1e-3)
        registry = MetricsRegistry()
        trackers = {"vec_add@54": SLOTracker()}
        _admitted_arrivals(spec, trackers, registry)
        assert registry.snapshot() == {}


class TestDrawStreams:
    """Arrival and placement draws come from a process-wide memo."""

    @SLOW
    @given(
        seed=st.one_of(st.integers(0, 10**6), st.sampled_from([1, 1.0, True, "x"])),
        class_key=st.sampled_from(["vec_add@54", "mean@109", "k"]),
        rates=st.lists(st.floats(100.0, 200000.0), min_size=1, max_size=3),
        horizons=st.lists(st.floats(1e-5, 5e-3), min_size=1, max_size=3),
    )
    def test_arrival_times_match_the_per_draw_hash(
        self, seed, class_key, rates, horizons
    ):
        for rate in rates:
            for horizon in horizons:
                got = OpenLoopArrivals(class_key, rate, seed=seed)
                want = serve_oracle.OpenLoopArrivals(class_key, rate, seed=seed)
                assert got.times_until(horizon) == want.times_until(horizon)

    def test_stream_extended_out_of_order(self):
        # Each rate reads the gaps drawn for the one before; the short
        # horizons come before and after the long one.
        key = "out-of-order@54"
        for rate, horizon in ((5000.0, 1e-3), (90000.0, 2e-2), (700.0, 3e-3)):
            got = OpenLoopArrivals(key, rate, seed=11).times_until(horizon)
            want = serve_oracle.OpenLoopArrivals(key, rate, seed=11).times_until(horizon)
            assert got == want

    def test_seeds_that_compare_equal_keep_their_own_streams(self):
        # 1 == 1.0 == True, but the hash sees "1", "1.0" and "True".
        drawn = []
        for seed in (1, 1.0, True):
            got = OpenLoopArrivals("equal-seeds@54", 20000.0, seed=seed)
            want = serve_oracle.OpenLoopArrivals("equal-seeds@54", 20000.0, seed=seed)
            times = got.times_until(2e-3)
            assert times == want.times_until(2e-3)
            drawn.append(times)
        assert drawn[0] != drawn[1] != drawn[2] != drawn[0]
        layout = make_layout(4)
        for seed in (True, 1.0, 1):
            assert [home_shard(layout, seed, "equal-seeds@54", i) for i in range(64)] == [
                serve_oracle.home_shard(layout, seed, "equal-seeds@54", i)
                for i in range(64)
            ]

    @SLOW
    @given(
        seed=st.one_of(st.integers(0, 10**6), st.sampled_from([1, 1.0, True])),
        n_shards=st.sampled_from([1, 2, 3, 4, 40]),
        indices=st.lists(st.integers(0, 3000), min_size=1, max_size=8),
    )
    def test_placements_match_the_per_draw_hash(self, seed, n_shards, indices):
        layout = make_layout(n_shards)
        for index in indices:
            assert home_shard(layout, seed, "vec_add@54", index) == (
                serve_oracle.home_shard(layout, seed, "vec_add@54", index)
            )
        count = max(indices) + 1
        assert home_shards(layout, seed, "vec_add@54", count) == [
            serve_oracle.home_shard(layout, seed, "vec_add@54", i)
            for i in range(count)
        ]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b and type(a) is type(b)


#: Bounds of the SLO digest (181 of them) and the registry default.
BOUNDS = (LatencyDigest()._hist.bounds, DEFAULT_BUCKETS)

values = st.one_of(
    st.sampled_from(BOUNDS[0] + BOUNDS[1]),
    st.sampled_from([math.inf, -math.inf, math.nan, 0, 0.0, -0.0, 1, 10, -3]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6),
)


class TestHistogramMatchesTheLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(bounds=st.sampled_from(BOUNDS), observed=st.lists(values, max_size=40))
    def test_buckets_min_and_max(self, bounds, observed):
        got = Histogram("h", buckets=bounds)
        want = serve_oracle.Histogram("h", buckets=bounds)
        for value in observed:
            got.observe(value)
            want.observe(value)
        assert got.bucket_counts == want.bucket_counts
        assert got.count == want.count
        assert _same(got.min, want.min)
        assert _same(got.max, want.max)
        assert _same(got.sum, want.sum)

    def test_each_special_value_alone(self):
        for value in (math.nan, math.inf, -math.inf, -1.0, 0, 1e-6, 1000.0, 1000):
            for bounds in BOUNDS:
                got = Histogram("h", buckets=bounds)
                want = serve_oracle.Histogram("h", buckets=bounds)
                got.observe(value)
                want.observe(value)
                assert got.bucket_counts == want.bucket_counts, value
