"""Differential tests: the period-skipping simulator against the oracle.

``tests/pim/sim_oracle.py`` holds the per-cycle loop that
:meth:`~repro.pim.sim.DPUSimulator.run` replaced, and the tasklet
activity breakdown as it was before its single-pass rewrite. Every
outcome here must equal theirs exactly: the :class:`SimResult`, the
recorded issues and DMA transfers, the activity breakdown, and the
watchdog's error message.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TransientDeviceError
from repro.harness.experiments import sim_validation_cases
from repro.pim.config import UPMEMConfig
from repro.pim.sim import (
    COMPUTE,
    DMA,
    DPUSimulator,
    Phase,
    SimResult,
    SimTrace,
    TaskletProgram,
    simulate_kernel,
)
from tests.pim import sim_oracle

CFG = UPMEMConfig()
REVOLVE = CFG.pipeline_revolve_cycles

SLOW = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Compute phases (empty, short, long) and DMA phases (empty and up to
#: 4 KB), in any order.
phases = st.one_of(
    st.builds(
        Phase,
        st.just(COMPUTE),
        st.one_of(st.just(0), st.integers(1, 50), st.integers(0, 3000)),
    ),
    st.builds(Phase, st.just(DMA), st.one_of(st.just(0), st.integers(0, 4096))),
)
programs = st.lists(phases, min_size=1, max_size=6).map(
    lambda p: TaskletProgram(tuple(p))
)


@st.composite
def tasklet_programs(draw):
    """1-24 tasklets: all running one program, as a kernel launch
    does, or each its own."""
    tasklets = draw(st.integers(1, CFG.max_tasklets))
    if draw(st.booleans()):
        return [draw(programs)] * tasklets
    return draw(st.lists(programs, min_size=tasklets, max_size=tasklets))


def _fast(programs, trace=None, max_cycles=None):
    return DPUSimulator(CFG).run(programs, trace=trace, max_cycles=max_cycles)


def _oracle(programs, trace=None, max_cycles=None):
    return sim_oracle.run(programs, CFG, trace=trace, max_cycles=max_cycles)


def _traced(run, programs):
    trace = SimTrace()
    result = run(programs, trace=trace)
    return result, trace


def _assert_same_run(programs):
    fast, fast_trace = _traced(_fast, programs)
    slow, slow_trace = _traced(_oracle, programs)
    assert fast == slow
    assert fast_trace.issues == slow_trace.issues
    assert fast_trace.dmas == slow_trace.dmas
    assert fast_trace.tasklet_activity(
        REVOLVE, fast.cycles
    ) == sim_oracle.tasklet_activity(slow_trace, REVOLVE, slow.cycles)
    return fast


def _watchdog_outcome(run, programs, max_cycles):
    """The trip message (or None), and what the trace holds by then."""
    trace = SimTrace()
    try:
        run(programs, trace=trace, max_cycles=max_cycles)
    except TransientDeviceError as error:
        return str(error), trace.issues, trace.dmas
    return None, trace.issues, trace.dmas


class TestGeneratedPrograms:
    @given(tasklet_programs())
    @SLOW
    def test_matches_oracle(self, programs):
        _assert_same_run(programs)

    @given(tasklet_programs(), st.floats(0.0, 1.5), st.integers(-2, 2))
    @SLOW
    def test_watchdog_matches_oracle(self, programs, fraction, nudge):
        """The same trip, with the same message and the same trace up
        to it, whether the watchdog fires early, just before the
        finish, or not at all."""
        finish = _oracle(programs).cycles
        max_cycles = max(1, int(finish * fraction) + nudge)
        assert _watchdog_outcome(
            _fast, programs, max_cycles
        ) == _watchdog_outcome(_oracle, programs, max_cycles)

    @pytest.mark.parametrize("tasklets", [1, 4, 11, 12, 16, 24])
    def test_uniform_compute(self, tasklets):
        _assert_same_run([TaskletProgram((Phase(COMPUTE, 997),))] * tasklets)

    def test_staggered_lengths(self):
        """Phases ending one after another: each end is an event that
        breaks the period and starts a new one."""
        _assert_same_run(
            [
                TaskletProgram((Phase(COMPUTE, 100 + 37 * i), Phase(DMA, 64)))
                for i in range(CFG.max_tasklets)
            ]
        )


#: The validation experiment's 128-bit kernels, by name.
KERNELS = {label.split()[0]: kernel for label, kernel, _ in sim_validation_cases()}


#: (kernel, elements, tasklets) -> (cycles, instructions, DMA busy
#: cycles), as the per-cycle loop computed them: the eight
#: ``ext_sim_validation`` cases and the eight untraced ``sim_kernels``
#: benchmark cases (vec_add and reduce_sum are in both).
PINNED = {
    ("vec_add", 4096, 4): (224878, 70144, 108178.33174825177),
    ("vec_add", 4096, 16): (111390, 70144, 108178.33174825172),
    ("vec_mul", 512, 4): (5233574, 1899120, 17619.05529137529),
    ("vec_mul", 512, 16): (1906262, 1899120, 18851.055291375276),
    ("tensor_mul", 256, 4): (10449095, 3794320, 21099.819114219114),
    ("tensor_mul", 256, 16): (3805022, 3794320, 22947.81911421912),
    ("reduce_sum", 4096, 4): (156951, 53056, 37702.11058275057),
    ("reduce_sum", 4096, 16): (59180, 53056, 37702.11058275057),
    ("vec_mul", 16, 4): (163904, 59348, 1128.0954778554778),
    ("vec_mul", 16, 16): (60466, 59344, 2976.0954778554774),
    ("tensor_mul", 16, 4): (653419, 237144, 1896.238694638695),
    ("tensor_mul", 16, 16): (238669, 237152, 3744.238694638694),
}


class TestPinnedKernels:
    @pytest.mark.parametrize(
        "case", sorted(PINNED), ids=lambda c: "{}-{}@{}".format(*c)
    )
    def test_matches_per_cycle_result(self, case):
        name, n_elements, tasklets = case
        cycles, issued, dma_busy = PINNED[case]
        assert simulate_kernel(
            KERNELS[name], n_elements, tasklets, CFG
        ) == SimResult(cycles, issued, dma_busy, tasklets)

    def test_traced_vec_add_matches_oracle(self, monkeypatch):
        """The ``sim_kernels`` benchmark's traced item, issue by issue."""
        kernel = KERNELS["vec_add"]
        fast_trace, slow_trace = SimTrace(), SimTrace()
        fast = simulate_kernel(kernel, 4096, 16, CFG, trace=fast_trace)
        monkeypatch.setattr(
            DPUSimulator,
            "run",
            lambda self, programs, trace=None: _oracle(programs, trace=trace),
        )
        slow = simulate_kernel(kernel, 4096, 16, CFG, trace=slow_trace)
        assert fast == slow
        assert len(fast_trace.issues) == 70144
        assert fast_trace.issues == slow_trace.issues
        assert fast_trace.dmas == slow_trace.dmas
        assert fast_trace.tasklet_activity(
            REVOLVE, fast.cycles
        ) == sim_oracle.tasklet_activity(slow_trace, REVOLVE, slow.cycles)
