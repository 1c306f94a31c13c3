"""Batch formation and the per-request record, in modelled time.

Scheduling is deliberately minimal and fully deterministic:

* **Batch formation** is per request class (one class = one workload
  kind at one security level — requests with different kernels or
  parameters cannot share a launch). A batch opens at its first
  request's arrival and seals when it reaches ``max_batch`` requests
  or when the formation timer (``max_wait_s`` after the first
  request) expires, whichever is earlier. Formation depends only on
  the arrival stream, so it is independent of device load — the
  timer runs while the device serves earlier batches.
* **Service** is one serial timeline per shard
  (:func:`repro.serve.resilience.simulate_resilient`): sealed batches
  across all classes are served in ``(seal time, class, index)``
  order; each launch occupies the device for its priced modelled
  duration (kernel + launch overhead + any fault/retry seconds) plus
  the host<->DPU transfer for the batch.

Every request carries a :class:`RequestTimeline` decomposing its
modelled latency into the phases the dashboard reports::

    arrival --queue--> sealed --dispatch--> service start
            --launch--> --kernel--> --transfer--> complete

``queue`` is batch-formation wait, ``dispatch`` is time spent sealed
but behind earlier launches (the head-of-line signal that saturation
produces), and launch/kernel/transfer come from the priced
:class:`~repro.backends.base.TimingBreakdown` detail — the same
numbers the perf baselines gate, so the decomposition cannot drift
from the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["RequestTimeline", "BatchLaunch", "BatchScheduler"]


@dataclass(slots=True)
class RequestTimeline:
    """One request's modelled lifecycle (all times in modelled seconds).

    Slotted: a serving point holds one per request.

    Phase durations (``launch_s``/``kernel_s``/``fault_s``/
    ``transfer_s``) are the whole batch's — a request's latency
    includes its batch's full service, which is what a user of the
    service experiences.
    """

    request_id: str
    class_key: str
    arrival_s: float
    batch_formed_s: float
    service_start_s: float
    launch_s: float
    kernel_s: float
    fault_s: float
    transfer_s: float
    complete_s: float
    batch_index: int
    batch_size: int

    @property
    def queue_s(self) -> float:
        """Batch-formation wait: arrival until the batch sealed."""
        return self.batch_formed_s - self.arrival_s

    @property
    def dispatch_s(self) -> float:
        """Sealed-but-waiting: the device was busy with earlier work."""
        return self.service_start_s - self.batch_formed_s

    @property
    def latency_s(self) -> float:
        """End-to-end modelled latency (arrival to completion)."""
        return self.complete_s - self.arrival_s

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "class": self.class_key,
            "arrival_s": self.arrival_s,
            "batch_formed_s": self.batch_formed_s,
            "service_start_s": self.service_start_s,
            "queue_s": self.queue_s,
            "dispatch_s": self.dispatch_s,
            "launch_s": self.launch_s,
            "kernel_s": self.kernel_s,
            "fault_s": self.fault_s,
            "transfer_s": self.transfer_s,
            "complete_s": self.complete_s,
            "latency_s": self.latency_s,
            "batch_index": self.batch_index,
            "batch_size": self.batch_size,
        }


@dataclass
class BatchLaunch:
    """One shared kernel launch: a sealed batch's trip through the device."""

    index: int
    class_key: str
    batch_size: int
    ops: int
    seal_s: float
    service_start_s: float
    complete_s: float
    service_seconds: float
    launch_s: float
    kernel_s: float
    fault_s: float
    transfer_s: float
    bound: str
    dpus_used: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "class": self.class_key,
            "batch_size": self.batch_size,
            "ops": self.ops,
            "seal_s": self.seal_s,
            "service_start_s": self.service_start_s,
            "complete_s": self.complete_s,
            "service_seconds": self.service_seconds,
            "launch_s": self.launch_s,
            "kernel_s": self.kernel_s,
            "fault_s": self.fault_s,
            "transfer_s": self.transfer_s,
            "bound": self.bound,
            "dpus_used": self.dpus_used,
        }


class BatchScheduler:
    """Deterministic batch formation for one class's arrival stream."""

    def __init__(self, max_batch: int = 64, max_wait_s: float = 2e-3):
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1: {max_batch}")
        if max_wait_s < 0:
            raise ParameterError(
                f"max_wait_s must be non-negative: {max_wait_s}"
            )
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s

    def form_batches(self, arrivals) -> list:
        """Group one class's arrival times into sealed batches.

        Returns ``[(seal_time, [arrival_index, ...]), ...]`` in seal
        order. A batch seals at the arrival of its ``max_batch``-th
        request, or ``max_wait_s`` after its first request — the timer
        fires even when no later request arrives to observe it.
        """
        batches = []
        current: list = []
        deadline = 0.0
        for index, t in enumerate(arrivals):
            if current and t > deadline:
                batches.append((deadline, current))
                current = []
            if not current:
                deadline = t + self.max_wait_s
            current.append(index)
            if len(current) == self.max_batch:
                batches.append((t, current))
                current = []
        if current:
            batches.append((deadline, current))
        return batches
