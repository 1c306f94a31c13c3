"""The PIM backend: prices requests on the modelled UPMEM system.

Thin adapter from :class:`~repro.backends.base.OpRequest` to the device
kernels and :class:`~repro.pim.runtime.PIMRuntime`. The moduli used for
the modular kernels are the paper's per-width coefficient moduli (the
27/54/109-bit security levels map onto 32/64/128-bit containers,
Section 3), so the kernels' conditional-subtract costs are measured on
exactly the residue distributions the scheme produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import Backend, OpRequest, TimingBreakdown
from repro.core.params import BFVParameters
from repro.obs.energy import kernel_energy
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.runtime import PIMRuntime

#: Paper mapping: container width -> security level (bits of q).
WIDTH_TO_SECURITY = {32: 27, 64: 54, 128: 109}


def modulus_for_width(width_bits: int) -> int:
    """The security level's coefficient modulus for a container width."""
    return BFVParameters.security_level(
        WIDTH_TO_SECURITY[width_bits]
    ).coeff_modulus


@dataclass
class PIMBackend(Backend):
    """UPMEM PIM system backend (modelled; see :mod:`repro.pim`)."""

    runtime: PIMRuntime = field(default_factory=PIMRuntime)
    include_transfer: bool = False

    name = "pim"

    def _kernel_for(self, request: OpRequest):
        """The request's kernel. Building one is cheap: its cost sample
        is memoised process-wide (:func:`~repro.pim.kernels.base.sample_tally`)."""
        limbs = request.limbs
        if request.op == "vec_add":
            return VecAddKernel(limbs, modulus_for_width(request.width_bits))
        if request.op == "vec_mul":
            return VecMulKernel(limbs)
        if request.op == "tensor_mul":
            return TensorMulKernel(limbs)
        if request.op == "reduce_sum":
            return ReduceSumKernel(limbs, modulus_for_width(request.width_bits))
        raise AssertionError(request.op)  # pragma: no cover - OpRequest validates

    def _price(self, request: OpRequest) -> TimingBreakdown:
        kernel = self._kernel_for(request)
        timing = self.runtime.time_kernel(
            kernel,
            request.n_elements,
            work_units=request.effective_work_units,
            launches=request.launches,
            include_transfer=self.include_transfer,
        )
        energy = kernel_energy(timing)
        return TimingBreakdown(
            backend=self.name,
            op=request.op,
            seconds=timing.total_seconds,
            detail={
                "dpus_used": timing.dpus_used,
                "tasklets": timing.tasklets_per_dpu,
                "cycles_per_element": timing.cycles_per_element,
                "kernel_s": timing.kernel_seconds,
                "launch_s": timing.launch_seconds,
                "bound": "compute" if timing.compute_bound else "dma",
                "transfer_s": timing.host_to_dpu_seconds
                + timing.dpu_to_host_seconds,
                "energy_j": energy.total_j,
                "movement_bytes": energy.total_bytes,
            },
        )

    def describe(self) -> str:
        return "UPMEM PIM: " + self.runtime.config.describe()
