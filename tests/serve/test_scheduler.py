"""Batch formation and the serial device timeline."""

import pytest

from repro.errors import ParameterError
from repro.pim.faults import FaultPlan
from repro.serve import (
    BatchScheduler,
    RequestClass,
    ResilienceSpec,
    ServeSpec,
    simulate,
    simulate_resilient,
)


def _spec(*classes, max_batch=1, max_wait_s=0.0, duration_s=2e-3):
    classes = classes or (RequestClass(security_bits=54, rate_qps=20000.0),)
    return ServeSpec(
        classes=classes,
        duration_s=duration_s,
        seed=3,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
    )


class TestBatchFormation:
    def test_max_batch_seals_at_the_filling_arrival(self):
        scheduler = BatchScheduler(max_batch=2, max_wait_s=10.0)
        batches = scheduler.form_batches([0.0, 0.1, 0.2])
        assert batches[0] == (0.1, [0, 1])  # sealed by request 1
        # The straggler waits out its own timer.
        assert batches[1] == (0.2 + 10.0, [2])

    def test_timer_seals_a_partial_batch(self):
        scheduler = BatchScheduler(max_batch=100, max_wait_s=1e-3)
        batches = scheduler.form_batches([0.0, 0.5e-3, 5.0e-3])
        # First two inside the 1 ms window; the third opens a new batch.
        assert batches[0] == (1e-3, [0, 1])
        assert batches[1] == (5e-3 + 1e-3, [2])

    def test_timer_fires_without_a_later_arrival(self):
        scheduler = BatchScheduler(max_batch=100, max_wait_s=2e-3)
        batches = scheduler.form_batches([0.04])
        assert batches == [(0.042, [0])]

    def test_empty_arrivals_form_no_batches(self):
        assert BatchScheduler().form_batches([]) == []

    def test_validation(self):
        with pytest.raises(ParameterError):
            BatchScheduler(max_batch=0)
        with pytest.raises(ParameterError):
            BatchScheduler(max_wait_s=-1.0)


class TestSchedule:
    """The device-timeline invariants of the one serving loop, through
    the unsharded point :func:`simulate`."""

    def test_device_is_serial_and_work_conserving(self):
        launches = simulate(_spec()).launches
        assert len(launches) > 3
        for earlier, later in zip(launches, launches[1:]):
            assert later.service_start_s == max(
                later.seal_s, earlier.complete_s
            )
        # First launch starts the moment its batch seals.
        assert launches[0].service_start_s == launches[0].seal_s

    def test_timeline_phase_decomposition_is_complete(self):
        timelines = simulate(_spec(max_batch=4, max_wait_s=1e-4)).timelines
        assert timelines
        for timeline in timelines:
            assert timeline.queue_s >= 0.0
            assert timeline.dispatch_s >= 0.0
            phases = (
                timeline.queue_s
                + timeline.dispatch_s
                + timeline.launch_s
                + timeline.kernel_s
                + timeline.fault_s
                + timeline.transfer_s
            )
            assert phases == pytest.approx(timeline.latency_s)

    def test_fault_seconds_are_the_pricing_residual(self):
        # Transient launch faults price retry time into the breakdown's
        # total beyond launch+kernel; the loop must attribute it.
        rspec = ResilienceSpec(
            serve=_spec(max_batch=64, max_wait_s=2e-3, duration_s=1e-2),
            n_shards=1,
            plan=FaultPlan(seed=3, transient_rate=0.3),
        )
        launches = simulate_resilient(rspec).launches
        assert any(launch.fault_s > 0 for launch in launches)
        for launch in launches:
            assert launch.fault_s == (
                launch.service_seconds - launch.launch_s - launch.kernel_s
            )

    def test_latency_includes_transfer(self):
        result = simulate(_spec())
        for launch in result.launches:
            assert launch.complete_s == (
                launch.service_start_s
                + launch.service_seconds
                + launch.transfer_s
            )
        for timeline in result.timelines:
            assert timeline.complete_s - timeline.transfer_s >= (
                timeline.service_start_s
            )

    def test_classes_interleave_on_one_device(self):
        result = simulate(
            _spec(
                RequestClass("vec_add", 109, 20000.0, 4),
                RequestClass("vec_mul", 109, 20000.0, 4),
            )
        )
        keys = [launch.class_key for launch in result.launches]
        assert set(keys) == {"vec_add@109", "vec_mul@109"}
        assert keys != sorted(keys)  # the classes take turns
        for earlier, later in zip(result.launches, result.launches[1:]):
            assert later.service_start_s >= earlier.complete_s

    def test_deterministic_output_order(self):
        spec = _spec(
            RequestClass("vec_add", 109, 20000.0, 4),
            RequestClass("vec_mul", 109, 20000.0, 4),
            max_batch=4,
            max_wait_s=1e-4,
        )
        first, second = simulate(spec), simulate(spec)
        assert [t.to_dict() for t in first.timelines] == [
            t.to_dict() for t in second.timelines
        ]
        assert [l.to_dict() for l in first.launches] == [
            l.to_dict() for l in second.launches
        ]
