"""Frozen test oracle: the serving path before the one-loop rewrite.

These are the plain serving loop (``BatchScheduler.schedule`` and the
``simulate`` built on it), its own pricer (``_make_pricer`` and
``serving_pricer``), the per-arrival admission loop, the per-draw
arrival and placement hashes, and the linear-scan histogram bucket
lookup, kept verbatim so the differential tests can check the fast
serving path against them. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math

from repro.backends import get_backend
from repro.backends.base import TimingBreakdown
from repro.core.params import BFVParameters
from repro.core.planner import HeadroomGuard, plan_budget
from repro.errors import ParameterError
from repro.harness.chaos import plan_for_healthy_fraction
from repro.obs.gate import SCHEMA_VERSION
from repro.obs.metrics import Histogram as _Histogram
from repro.obs.metrics import get_registry
from repro.obs.runident import run_identity
from repro.obs.slo import VERDICT_SLO_BREACH, VERDICT_SLO_OK, SLOTracker
from repro.pim.config import UPMEMConfig
from repro.pim.faults import _unit_hash, use_fault_plan
from repro.serve.scheduler import BatchLaunch, RequestTimeline
from repro.serve.scheduler import BatchScheduler as _BatchScheduler
from repro.serve.service import (
    SERVE_BACKEND,
    RequestClass,
    ServeResult,
    ServeSpec,
    _class_circuit,
    _PredictedStamp,
)


class Histogram(_Histogram):
    """The histogram with its linear-scan bucket lookup."""

    __slots__ = ()

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1


class OpenLoopArrivals:
    """Deterministic Poisson arrivals for one request class.

    ``rate_qps`` requests per modelled second on average, starting at
    modelled time zero, for ``duration_s`` seconds. ``class_key`` salts
    the hash stream so concurrent classes draw independently under one
    seed.
    """

    def __init__(self, class_key: str, rate_qps: float, seed: int = 0):
        if rate_qps <= 0:
            raise ParameterError(f"rate_qps must be positive: {rate_qps}")
        self.class_key = class_key
        self.rate_qps = rate_qps
        self.seed = seed

    def interarrival(self, index: int) -> float:
        """The exponential gap before arrival ``index`` (seconds)."""
        u = _unit_hash("serve.arrival", self.seed, self.class_key, index)
        # u is in [0, 1); 1-u is in (0, 1], so log never sees zero.
        return -math.log(1.0 - u) / self.rate_qps

    def times_until(self, duration_s: float) -> list:
        """All arrival times in ``[0, duration_s)``, strictly ordered."""
        if duration_s <= 0:
            raise ParameterError(
                f"duration must be positive: {duration_s}"
            )
        times = []
        t = 0.0
        index = 0
        while True:
            t += self.interarrival(index)
            if t >= duration_s:
                return times
            times.append(t)
            index += 1


def home_shard(
    layout: ShardLayout, seed: int, class_key: str, request_index: int
) -> int:
    """The deterministic home shard of one request's ciphertext.

    A seeded hash draw, so placement is uniform, stable across
    processes, and independent of fleet health — a degraded shard keeps
    its assignments (the health-aware scheduler reroutes them, which is
    what the routed/redispatch counters measure).
    """
    draw = _unit_hash("serve.place", seed, class_key, request_index)
    return int(draw * layout.n_shards)


class BatchScheduler(_BatchScheduler):
    """Batch formation plus the plain loop's serial device timeline."""

    def schedule(self, class_arrivals: dict, pricer) -> tuple:
        """Serve every class's batches on one serial device timeline.

        ``class_arrivals`` maps class key -> list of arrival times;
        ``pricer(class_key, batch_size)`` returns the
        :class:`~repro.backends.base.TimingBreakdown` for one shared
        launch of that many requests. Returns ``(timelines,
        launches)``, both in deterministic order (service order; within
        a batch, arrival order).
        """
        sealed = []
        for class_key in sorted(class_arrivals):
            arrivals = class_arrivals[class_key]
            for batch_index, (seal, members) in enumerate(
                self.form_batches(arrivals)
            ):
                sealed.append((seal, class_key, batch_index, members))
        # Device order: earliest-sealed first; class key then per-class
        # index break ties deterministically.
        sealed.sort(key=lambda item: (item[0], item[1], item[2]))

        timelines = []
        launches = []
        device_free = 0.0
        for launch_index, (seal, class_key, batch_index, members) in enumerate(
            sealed
        ):
            breakdown = pricer(class_key, len(members))
            detail = breakdown.detail
            launch_s = float(detail.get("launch_s", 0.0))
            kernel_s = float(detail.get("kernel_s", 0.0))
            transfer_s = float(detail.get("transfer_s", 0.0))
            fault_s = breakdown.seconds - launch_s - kernel_s
            start = max(seal, device_free)
            complete = start + breakdown.seconds + transfer_s
            device_free = complete
            launches.append(
                BatchLaunch(
                    index=launch_index,
                    class_key=class_key,
                    batch_size=len(members),
                    ops=int(detail.get("ops", len(members))),
                    seal_s=seal,
                    service_start_s=start,
                    complete_s=complete,
                    service_seconds=breakdown.seconds,
                    launch_s=launch_s,
                    kernel_s=kernel_s,
                    fault_s=fault_s,
                    transfer_s=transfer_s,
                    bound=str(detail.get("bound", "?")),
                    dpus_used=int(detail.get("dpus_used", 0)),
                )
            )
            arrivals = class_arrivals[class_key]
            for member in members:
                timelines.append(
                    RequestTimeline(
                        request_id=f"{class_key}/{member}",
                        class_key=class_key,
                        arrival_s=arrivals[member],
                        batch_formed_s=seal,
                        service_start_s=start,
                        launch_s=launch_s,
                        kernel_s=kernel_s,
                        fault_s=fault_s,
                        transfer_s=transfer_s,
                        complete_s=complete,
                        batch_index=batch_index,
                        batch_size=len(members),
                    )
                )
        return timelines, launches


def _make_pricer(spec: ServeSpec):
    """The per-launch pricing closure: (class key, batch) -> breakdown.

    Prices through the exact experiment path — the workload factory and
    ``Backend.time_op`` — and memoizes per (class, batch size): pricing
    is a pure function of the spec (fault plans for fixed disabled-DPU
    counts are stateless across launches).
    """
    from repro.obs.registry import GRID_WORKLOADS

    backend = get_backend(SERVE_BACKEND)
    by_key = {c.key: c for c in spec.classes}
    cache: dict = {}

    def pricer(class_key: str, batch_size: int) -> TimingBreakdown:
        cached = cache.get((class_key, batch_size))
        if cached is not None:
            return cached
        cls = by_key[class_key]
        ops = batch_size * cls.ops_per_request
        workload = GRID_WORKLOADS[cls.workload].factory(
            cls.security_bits, ops
        )
        seconds = 0.0
        launch_s = kernel_s = transfer_s = energy_j = 0.0
        dpus_used = movement_bytes = 0
        bound = "?"
        for request in workload.device_requests():
            breakdown = backend.time_op(request)
            seconds += breakdown.seconds
            detail = breakdown.detail
            launch_s += float(detail.get("launch_s", 0.0))
            kernel_s += float(detail.get("kernel_s", 0.0))
            transfer_s += float(detail.get("transfer_s", 0.0))
            energy_j += float(detail.get("energy_j", 0.0))
            movement_bytes += int(detail.get("movement_bytes", 0))
            dpus_used = max(dpus_used, int(detail.get("dpus_used", 0)))
            bound = str(detail.get("bound", bound))
        merged = TimingBreakdown(
            backend=SERVE_BACKEND,
            op=cls.workload,
            seconds=seconds,
            detail={
                "launch_s": launch_s,
                "kernel_s": kernel_s,
                "transfer_s": transfer_s,
                "dpus_used": dpus_used,
                "bound": bound,
                "ops": ops,
                "energy_j": energy_j,
                "movement_bytes": movement_bytes,
            },
        )
        cache[(class_key, batch_size)] = merged
        return merged

    return pricer


def _admitted_arrivals(spec: ServeSpec, trackers: dict, registry) -> dict:
    """Noise-headroom admission over every class's arrival stream.

    Returns class key -> admitted arrival times; rejected arrivals are
    charged to the class's tracker and counters. Shared by the plain
    point simulation and the sharded resilience simulation so admission
    semantics can never diverge between the two.
    """
    guard = HeadroomGuard(margin_bits=spec.margin_bits)
    class_arrivals: dict = {}
    for cls in spec.classes:
        params = BFVParameters.security_level(cls.security_bits)
        plan_bits = plan_budget(
            params, _class_circuit(cls.workload, cls.ops_per_request)
        ).remaining_bits
        stamp = _PredictedStamp(pred_bits=plan_bits)
        arrivals = OpenLoopArrivals(
            cls.key, cls.rate_qps, seed=spec.seed
        ).times_until(spec.duration_s)
        admitted = []
        for t in arrivals:
            guard.check(f"serve.admit.{cls.key}", stamp, params)
            if plan_bits < spec.margin_bits:
                trackers[cls.key].reject()
                registry.counter(f"serve.rejected.{cls.key}").inc()
            else:
                admitted.append(t)
                registry.counter(f"serve.requests.{cls.key}").inc()
        class_arrivals[cls.key] = admitted
    return class_arrivals


def simulate(spec: ServeSpec) -> ServeResult:
    """Run one serving point end to end in modelled time.

    Deterministic: the same spec yields byte-identical timelines,
    digest state, and document (modulo the run identity stamped into
    the document).
    """
    config = UPMEMConfig()
    plan = plan_for_healthy_fraction(spec.healthy, spec.seed, config)
    registry = get_registry()
    trackers = {c.key: SLOTracker(spec.objectives) for c in spec.classes}
    class_arrivals = _admitted_arrivals(spec, trackers, registry)

    scheduler = BatchScheduler(
        max_batch=spec.max_batch, max_wait_s=spec.max_wait_s
    )
    pricer = _make_pricer(spec)
    with use_fault_plan(plan):
        timelines, launches = scheduler.schedule(class_arrivals, pricer)

    for timeline in timelines:
        trackers[timeline.class_key].observe(timeline.latency_s)
        registry.histogram("serve.latency_s").observe(timeline.latency_s)
    energy_total_j = 0.0
    movement_total_bytes = 0
    for launch in launches:
        registry.counter("serve.launches").inc()
        registry.histogram("serve.batch_size").observe(launch.batch_size)
        # Guaranteed cache hit: the scheduler priced every
        # (class, batch) pair through this same memoizing pricer, so
        # this reuses the fault-plan-priced breakdown verbatim.
        priced = pricer(launch.class_key, launch.batch_size)
        energy_total_j += float(priced.detail.get("energy_j", 0.0))
        movement_total_bytes += int(priced.detail.get("movement_bytes", 0))
    if launches:
        registry.counter("serve.energy_j").inc(energy_total_j)
        registry.counter("serve.movement_bytes").inc(movement_total_bytes)

    busy_s = sum(l.complete_s - l.service_start_s for l in launches)
    horizon = max(
        [spec.duration_s] + [l.complete_s for l in launches]
    )
    reports = {
        key: tracker.report(duration_s=spec.duration_s)
        for key, tracker in trackers.items()
    }
    breached = any(
        r["verdict"] == VERDICT_SLO_BREACH for r in reports.values()
    )
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "serve-point",
        "spec": spec.to_dict(),
        "n_dpus": config.n_dpus,
        "effective_dpus": plan.effective_dpus(config),
    }
    doc.update(run_identity())
    doc["classes"] = {key: reports[key] for key in sorted(reports)}
    doc["device"] = {
        "launches": len(launches),
        "busy_s": busy_s,
        "horizon_s": horizon,
        "utilization": busy_s / horizon if horizon > 0 else 0.0,
    }
    doc["launches"] = [l.to_dict() for l in launches]
    completed = sum(r["completed"] for r in reports.values())
    doc["energy"] = {
        "total_j": energy_total_j,
        "avg_watts": energy_total_j / horizon if horizon > 0 else 0.0,
        "j_per_request": (
            energy_total_j / completed if completed else None
        ),
        "movement_bytes": movement_total_bytes,
    }
    doc["verdict"] = VERDICT_SLO_BREACH if breached else VERDICT_SLO_OK
    return ServeResult(
        spec=spec,
        timelines=timelines,
        launches=launches,
        reports=reports,
        doc=doc,
    )


def serving_pricer(cls: RequestClass):
    """The fault-free serving pricer of one class: requests -> breakdown."""
    pricer = _make_pricer(ServeSpec(classes=(cls,), healthy=1.0))
    return lambda n_requests: pricer(cls.key, n_requests)
