"""Per-layer microbenchmarks of the cycle-level DPU simulator (``repro.pim.sim``).

Not a paper figure: these time this library's simulator on the cases
the ``ext_sim_validation`` experiment runs.

* :func:`~repro.pim.sim.simulate_kernel` on each validation case: four
  128-bit kernels (vec_add, vec_mul, tensor_mul, reduce_sum) at 4 and 16
  tasklets;
* one traced run, vec_add at 16 tasklets, with
  :meth:`~repro.pim.sim.SimTrace.tasklet_activity` — the work behind
  ``repro profile``.

Each row checks that the simulated cycles fall inside the analytic
bracket ``max(compute, dma) * 0.98 .. (compute + dma) * 1.03`` and
that the issued instructions match the kernel's count. With
benchmarking enabled, each row appends one ``metrics.jsonl`` record
whose gauges hold the median, IQR and round count in seconds. With
``--benchmark-disable`` every row runs once as a correctness smoke
test and records nothing.
"""

import pytest

from repro.harness.experiments import SIM_VALIDATION_TASKLETS, sim_validation_cases
from repro.pim.config import UPMEMConfig
from repro.pim.dma import dma_cycles
from repro.pim.sim import SimTrace, simulate_kernel
from repro.pim.tasklet import pipeline_cycles, split_evenly

CFG = UPMEMConfig()
#: kernel name -> (kernel, elements), as ``ext_sim_validation`` runs them.
CASES = {label.split()[0]: (k, n) for label, k, n in sim_validation_cases()}


def _check(kernel, n_elements, tasklets, sim):
    cpe = kernel.cycles_per_element()
    shares = [round(s * cpe) for s in split_evenly(n_elements, tasklets)]
    compute = pipeline_cycles(shares, CFG.pipeline_revolve_cycles)
    dma = dma_cycles(n_elements * kernel.mram_bytes_per_element(), CFG)
    assert max(compute, dma) * 0.98 <= sim.cycles <= (compute + dma) * 1.03
    assert sim.instructions_issued == pytest.approx(sum(shares), rel=0.01)


@pytest.mark.parametrize("tasklets", SIM_VALIDATION_TASKLETS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_simulate_kernel(benchmark, record_row, name, tasklets):
    kernel, n_elements = CASES[name]
    kernel.cycles_per_element()  # price the kernel outside the timing
    sim = benchmark(simulate_kernel, kernel, n_elements, tasklets, CFG)
    _check(kernel, n_elements, tasklets, sim)
    record_row(f"sim.run.{name}.t{tasklets}", benchmark)


def test_bench_traced_vec_add(benchmark, record_row):
    kernel, n_elements = CASES["vec_add"]
    kernel.cycles_per_element()

    def traced():
        trace = SimTrace()
        sim = simulate_kernel(kernel, n_elements, 16, CFG, trace=trace)
        activity = trace.tasklet_activity(CFG.pipeline_revolve_cycles, sim.cycles)
        return sim, trace, activity

    sim, trace, activity = benchmark(traced)
    _check(kernel, n_elements, 16, sim)
    assert len(trace.issues) == sim.instructions_issued
    for stats in activity.values():
        assert sum(stats.values()) == pytest.approx(sim.cycles, abs=1.5)
    record_row("sim.traced.vec_add.t16", benchmark)
