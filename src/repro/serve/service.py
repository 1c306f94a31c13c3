"""Serving points, capacity sweeps, persistence, and exports.

A **serving point** is one fully-specified simulation
(:class:`ServeSpec` -> :func:`simulate`): seeded open-loop arrivals per
request class, batch formation, a serial PIM device timeline priced by
the exact experiment pricing path, admission control through
:class:`~repro.core.planner.HeadroomGuard`, degraded fleets through the
PR-5 fault layer, and per-class SLO accounting
(:class:`~repro.obs.slo.SLOTracker`). It runs the one serving event
loop, :func:`repro.serve.resilience.simulate_resilient`, on a single
shard of the whole fleet.

A **capacity sweep** (:func:`sweep_capacity`) asks the ROADMAP item-2
question directly: for each security level and fleet-health fraction,
step the offered QPS across a grid and report p50/p99/p99.9 modelled
latency, burn rates, and the *sustainable QPS* — the highest offered
rate whose point still meets every SLO objective. Sweeps can record
through the PR-6 run registry (each point memoized in the ``points``
table, the invocation logged in the ``runs`` ledger), so an
interrupted sweep resumes with zero recomputation and repeated sweeps
accumulate a longitudinal record.

Two invariants mirror the chaos harness:

* the **zero-fault serving point prices through the untouched path**:
  :func:`check_serving_baseline` sums the single-shard pricer over each
  experiment's canonical batch ladder and must reproduce
  ``baselines/perf.json`` series totals bit-for-bit (MODEL-DRIFT
  otherwise);
* **everything is seeded** — a spec + seed yields byte-identical
  request timelines, digest state, and sweep documents (modulo the
  run identity).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.core.params import BFVParameters
from repro.core.planner import CircuitShape, HeadroomGuard, plan_budget
from repro.errors import ParameterError
from repro.harness.chaos import plan_for_healthy_fraction
from repro.obs.gate import SCHEMA_VERSION, Doc
from repro.obs.metrics import get_registry
from repro.obs.runident import run_identity
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    VERDICT_SLO_BREACH,
    VERDICT_SLO_OK,
)
from repro.obs.trace import get_tracer
from repro.pim.config import UPMEMConfig
from repro.serve.arrivals import OpenLoopArrivals
from repro.serve.scheduler import BatchLaunch
from repro.serve.shard import ShardedPricer, whole_fleet_pricer

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_QPS_GRID",
    "DEFAULT_HEALTHY_GRID",
    "RequestClass",
    "ServeSpec",
    "ServeResult",
    "simulate",
    "sweep_capacity",
    "check_serving_baseline",
    "SWEEP_DOC",
    "render_point_text",
    "render_sweep_text",
    "timelines_to_chrome_trace",
    "emit_request_spans",
]

#: Offered-QPS grid swept by default (requests/s per class).
DEFAULT_QPS_GRID = (1000.0, 4000.0, 16000.0)

#: Fleet-health fractions swept by default (>= 3 points; matches the
#: grid registry's axis).
DEFAULT_HEALTHY_GRID = (1.0, 0.9, 0.8)

#: The backend serving batches are priced on.
SERVE_BACKEND = "pim"


def _class_circuit(workload: str, ops: int) -> CircuitShape:
    """The noise-circuit shape of one request (``ops`` ciphertext ops)."""
    fan_in = max(1, ops)
    if workload == "vec_add":
        return CircuitShape()
    if workload == "vec_mul":
        return CircuitShape(multiplicative_depth=1)
    if workload == "mean":
        return CircuitShape(additions_per_level=fan_in)
    if workload in ("variance", "linreg"):
        return CircuitShape(
            multiplicative_depth=1, additions_per_level=fan_in
        )
    raise ParameterError(
        f"no serving circuit for workload {workload!r}; "
        "known: vec_add, vec_mul, mean, variance, linreg"
    )


@dataclass(frozen=True)
class _PredictedStamp:
    """Adapter giving :class:`HeadroomGuard` the shape it checks."""

    pred_bits: float


@dataclass(frozen=True)
class RequestClass:
    """One stream of homogeneous requests.

    A request bundles ``ops_per_request`` ciphertext operations of one
    workload kind at one security level — the unit a user submits. A
    shared kernel launch packs whole requests, so a batch of ``B``
    requests prices the workload at ``B * ops_per_request`` ciphertext
    operations.
    """

    workload: str = "vec_add"
    security_bits: int = 109
    rate_qps: float = 1000.0
    ops_per_request: int = 64
    #: Scheduling priority (higher = more important). The resilience
    #: layer's load shedder drops the *lowest* priority classes first
    #: when the SLO burn rate crosses its threshold; the unsharded
    #: point never sheds, so it ignores it.
    priority: int = 0

    def __post_init__(self):
        from repro.obs.registry import GRID_WORKLOADS

        if self.workload not in GRID_WORKLOADS:
            raise ParameterError(
                f"unknown serving workload {self.workload!r}; known: "
                f"{sorted(GRID_WORKLOADS)}"
            )
        if self.rate_qps <= 0:
            raise ParameterError(
                f"rate_qps must be positive: {self.rate_qps}"
            )
        if self.ops_per_request < 1:
            raise ParameterError(
                f"ops_per_request must be >= 1: {self.ops_per_request}"
            )

    @property
    def key(self) -> str:
        return f"{self.workload}@{self.security_bits}"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "security_bits": self.security_bits,
            "rate_qps": self.rate_qps,
            "ops_per_request": self.ops_per_request,
            "priority": self.priority,
        }


@dataclass(frozen=True)
class ServeSpec:
    """One serving point, fully specified (and therefore reproducible)."""

    classes: tuple = (RequestClass(),)
    duration_s: float = 0.5
    seed: int = 0
    healthy: float = 1.0
    max_batch: int = 64
    max_wait_s: float = 2e-3
    margin_bits: float = 2.0
    objectives: tuple = DEFAULT_OBJECTIVES

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ParameterError(
                f"duration must be positive: {self.duration_s}"
            )
        if not 0.0 < self.healthy <= 1.0:
            raise ParameterError(
                f"healthy fraction must be in (0, 1]: {self.healthy}"
            )
        keys = [c.key for c in self.classes]
        if len(set(keys)) != len(keys):
            raise ParameterError(
                f"request classes must be distinct: {keys}"
            )
        if not self.classes:
            raise ParameterError("need at least one request class")

    def to_dict(self) -> dict:
        return {
            "classes": [c.to_dict() for c in self.classes],
            "duration_s": self.duration_s,
            "seed": self.seed,
            "healthy": self.healthy,
            "max_batch": self.max_batch,
            "max_wait_s": self.max_wait_s,
            "margin_bits": self.margin_bits,
            "objectives": [o.to_dict() for o in self.objectives],
        }

    def token(self) -> str:
        """A short stable hash of everything but the offered rates.

        Used to namespace registry sweep keys: two sweeps with
        different windows, batching, seeds, or objectives can share a
        registry without colliding, while the same sweep re-run finds
        its memoized points.
        """
        doc = self.to_dict()
        for entry in doc["classes"]:
            entry.pop("rate_qps")
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class ServeResult:
    """Everything one serving point produced."""

    spec: ServeSpec
    timelines: list
    launches: list
    reports: dict
    doc: dict


def _admitted_arrivals(spec: ServeSpec, trackers: dict, registry) -> dict:
    """Noise-headroom admission over every class's arrival stream.

    Returns class key -> admitted arrival times; rejected arrivals are
    charged to the class's tracker and counters. Admission depends only
    on the class's planned noise budget, so a class admits or refuses
    its whole stream, and each counter is charged once per class.
    """
    guard = HeadroomGuard(margin_bits=spec.margin_bits)
    class_arrivals: dict = {}
    for cls in spec.classes:
        params = BFVParameters.security_level(cls.security_bits)
        plan_bits = plan_budget(
            params, _class_circuit(cls.workload, cls.ops_per_request)
        ).remaining_bits
        arrivals = OpenLoopArrivals(
            cls.key, cls.rate_qps, seed=spec.seed
        ).times_until(spec.duration_s)
        if plan_bits < spec.margin_bits:
            # The guard still sees, and records, every refused arrival.
            stamp = _PredictedStamp(pred_bits=plan_bits)
            tracker = trackers[cls.key]
            for _ in arrivals:
                guard.check(f"serve.admit.{cls.key}", stamp, params)
                tracker.reject()
            counter, admitted = f"serve.rejected.{cls.key}", []
        else:
            counter, admitted = f"serve.requests.{cls.key}", arrivals
        if arrivals:
            registry.counter(counter).inc(len(arrivals))
        class_arrivals[cls.key] = admitted
    return class_arrivals


#: ``serve-point`` fields copied from the one-shard resilient document,
#: in document order (its run identity included).
_POINT_FIELDS = (
    "n_dpus",
    "effective_dpus",
    "run_id",
    "created_at",
    "git_sha",
    "classes",
    "device",
)


def simulate(spec: ServeSpec) -> ServeResult:
    """Run one serving point end to end in modelled time.

    The resilient loop on one shard of the whole fleet, without hedging
    or shedding, reported as a ``serve-point`` document with
    :class:`~repro.serve.scheduler.BatchLaunch` records. Deterministic:
    the same spec yields byte-identical timelines, digest state, and
    document (modulo the run identity stamped into the document).
    Raises :class:`~repro.errors.PermanentDeviceError` when a batch
    reaches a fleet whose every DPU is disabled.
    """
    from repro.harness.chaos import plan_for_healthy_fraction
    from repro.serve.resilience import ResilienceSpec, _serve

    result = _serve(ResilienceSpec(serve=spec, n_shards=1))
    if result.failed:
        # One shard under a fixed plan fails only when the whole fleet
        # is disabled: pricing the first failed batch raises the
        # runtime's own error.
        config = UPMEMConfig()
        plan = plan_for_healthy_fraction(spec.healthy, spec.seed, config)
        class_key, batch_size = result.failed[0]
        ShardedPricer(spec.classes, result.layout, plan, config).price(
            0, class_key, batch_size
        )
    sharded = result.doc
    names = [f.name for f in fields(BatchLaunch)]
    launches = [
        BatchLaunch(**{name: getattr(launch, name) for name in names})
        for launch in result.launches
    ]
    registry = get_registry()
    if launches:
        registry.counter("serve.launches").inc(len(launches))
        batch_sizes = registry.histogram("serve.batch_size")
        for launch in launches:
            batch_sizes.observe(launch.batch_size)
        registry.counter("serve.energy_j").inc(sharded["energy"]["total_j"])
        registry.counter("serve.movement_bytes").inc(
            sharded["energy"]["movement_bytes"]
        )

    doc = {"schema": SCHEMA_VERSION, "kind": "serve-point", "spec": spec.to_dict()}
    for key in _POINT_FIELDS:
        doc[key] = sharded[key]
    doc["launches"] = [launch.to_dict() for launch in launches]
    doc["energy"] = sharded["energy"]
    doc["verdict"] = sharded["verdict"]
    return ServeResult(
        spec=spec,
        timelines=result.timelines,
        launches=launches,
        reports=result.reports,
        doc=doc,
    )


# -- capacity sweep ----------------------------------------------------------

#: Scalar metrics persisted per sweep point (None encoded as -1.0; all
#: real values are non-negative).
_POINT_METRICS = (
    "completed",
    "rejected",
    "p50_ms",
    "p99_ms",
    "p999_ms",
    "mean_ms",
    "qps_completed",
    "max_burn_rate",
    "utilization",
    "energy_j",
    "avg_watts",
    "j_per_request",
)


def _point_summary(result: ServeResult, class_key: str) -> dict:
    """The persistable scalar summary of one sweep point."""
    report = result.reports[class_key]
    latency = report["latency"]
    burns = [o["burn_rate"] for o in report["objectives"]]
    return {
        "completed": float(report["completed"]),
        "rejected": float(report["rejected"]),
        "p50_ms": latency["p50_ms"],
        "p99_ms": latency["p99_ms"],
        "p999_ms": latency["p999_ms"],
        "mean_ms": latency["mean_ms"],
        "qps_completed": report.get("qps_completed", 0.0),
        "max_burn_rate": max(burns) if burns else 0.0,
        "utilization": result.doc["device"]["utilization"],
        "energy_j": result.doc["energy"]["total_j"],
        "avg_watts": result.doc["energy"]["avg_watts"],
        "j_per_request": result.doc["energy"]["j_per_request"],
    }


def _point_verdict(summary: dict) -> str:
    if summary["rejected"] > 0 or summary["max_burn_rate"] > 1.0:
        return VERDICT_SLO_BREACH
    return VERDICT_SLO_OK


def _encode(value) -> float:
    return -1.0 if value is None else float(value)


def _decode(value: float):
    return None if value == -1.0 else value


def sweep_capacity(
    workload: str = "vec_add",
    security_levels=(27, 54, 109),
    healthy_grid=DEFAULT_HEALTHY_GRID,
    qps_grid=DEFAULT_QPS_GRID,
    duration_s: float = 0.5,
    seed: int = 0,
    ops_per_request: int = 64,
    max_batch: int = 64,
    max_wait_s: float = 2e-3,
    margin_bits: float = 2.0,
    objectives=DEFAULT_OBJECTIVES,
    registry=None,
    baseline: dict | None = None,
    progress=None,
) -> dict:
    """The capacity sweep: QPS × security level × fleet health.

    ``registry`` (an open :class:`~repro.obs.registry.RunRegistry`)
    memoizes each point's summary metrics in the points table —
    re-running the same sweep re-prices nothing, an interrupted sweep
    resumes where it stopped, and the resumed document is bit-identical
    to the direct one (modulo run identity). ``baseline`` (a perf
    baseline document) adds the zero-fault bit-identity cross-check.
    ``progress`` receives a label as each point starts pricing.
    """
    levels = sorted(set(int(b) for b in security_levels))
    fractions = sorted(set(healthy_grid), reverse=True)
    rates = sorted(set(float(q) for q in qps_grid))
    if not rates:
        raise ParameterError("qps grid must be non-empty")

    base_spec = ServeSpec(
        classes=(
            RequestClass(
                workload=workload,
                security_bits=levels[0],
                rate_qps=rates[0],
                ops_per_request=ops_per_request,
            ),
        ),
        duration_s=duration_s,
        seed=seed,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
        margin_bits=margin_bits,
        objectives=tuple(objectives),
    )

    cells: dict = {}
    priced = 0
    memoized = 0
    for bits in levels:
        by_health: dict = {}
        for fraction in fractions:
            points = []
            for qps in rates:
                cls = RequestClass(
                    workload=workload,
                    security_bits=bits,
                    rate_qps=qps,
                    ops_per_request=ops_per_request,
                )
                spec = replace(
                    base_spec, classes=(cls,), healthy=fraction
                )
                label = f"{cls.key} h={fraction:g} qps={qps:g}"
                summary = None
                key_prefix = (
                    f"serve:v{SCHEMA_VERSION}:{spec.token()}:"
                    f"class={cls.key}:healthy={fraction:g}"
                )
                if registry is not None:
                    summary = _recalled_point(registry, key_prefix, qps)
                if summary is None:
                    if progress is not None:
                        progress(label)
                    result = simulate(spec)
                    summary = _point_summary(result, cls.key)
                    priced += 1
                    if registry is not None:
                        for name in _POINT_METRICS:
                            registry.record_point(
                                f"{key_prefix}:metric={name}",
                                qps,
                                _encode(summary[name]),
                            )
                else:
                    memoized += 1
                points.append(
                    {"qps": qps}
                    | summary
                    | {"verdict": _point_verdict(summary)}
                )
            passing = [
                p["qps"] for p in points if p["verdict"] == VERDICT_SLO_OK
            ]
            by_health[f"{fraction:g}"] = {
                "points": points,
                "sustainable_qps": max(passing) if passing else None,
            }
        cells[str(bits)] = by_health

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "serve-sweep",
        "workload": workload,
        "security_levels": levels,
        "healthy": fractions,
        "qps_grid": rates,
        "duration_s": duration_s,
        "seed": seed,
        "ops_per_request": ops_per_request,
        "max_batch": max_batch,
        "max_wait_s": max_wait_s,
        "margin_bits": margin_bits,
        "objectives": [o.to_dict() for o in objectives],
        "n_dpus": UPMEMConfig().n_dpus,
    }
    doc.update(run_identity())
    doc["cells"] = cells
    if baseline is not None:
        doc["baseline_check"] = check_serving_baseline(
            baseline,
            workload=workload,
            security_levels=levels,
            ops_per_request=ops_per_request,
        )
    if registry is not None:
        # The ledger row shares the document's identity so the two can
        # be correlated after the fact.
        identity = {
            k: doc[k] for k in ("run_id", "created_at", "git_sha")
        }
        registry.record_run(
            identity
            | {
                "command": "serve sweep",
                "owner": "serve",
                "cells_done": priced,
                "cells_failed": 0,
                "wall_s": 0.0,
                "modelled_ms": 0.0,
                "rollups": {
                    "serve": {
                        "workload": workload,
                        "points": priced + memoized,
                        "memoized": memoized,
                        "breaches": sum(
                            1
                            for by_health in cells.values()
                            for entry in by_health.values()
                            for p in entry["points"]
                            if p["verdict"] == VERDICT_SLO_BREACH
                        ),
                        "energy_j": sum(
                            p["energy_j"]
                            for by_health in cells.values()
                            for entry in by_health.values()
                            for p in entry["points"]
                        ),
                    }
                },
            }
        )
    return doc


def _recalled_point(registry, key_prefix: str, qps: float):
    """A memoized point summary from the registry, or ``None``."""
    summary = {}
    for name in _POINT_METRICS:
        recorded = registry.points(f"{key_prefix}:metric={name}")
        if qps not in recorded:
            return None
        summary[name] = _decode(recorded[qps])
    # Counts round-trip through REAL columns; present them as recorded.
    return summary


# -- the zero-fault bit-identity gate ----------------------------------------


def check_serving_baseline(
    baseline: dict,
    pricer_for=whole_fleet_pricer,
    workload: str = "vec_add",
    security_levels=(27, 54, 109),
    ops_per_request: int = 64,
) -> list:
    """Gate a serving pricer against ``baselines/perf.json``.

    For every experiment whose cells are ``workload`` at one of the
    requested security levels, price the experiment's canonical batch
    ladder through ``pricer_for(cls)`` — a fault-free pricer of one
    request class taking a request count, by default the single-shard
    serving pricer (:func:`repro.serve.shard.whole_fleet_pricer`) —
    one launch per batch size, and compare the accumulated pim
    milliseconds to the committed series total, which must match
    **bit-for-bit**, exactly like the grid's fault-free cells. Returns
    verdict dicts with ``verdict`` in {"ok", "MODEL-DRIFT", "new"}.
    """
    from repro.obs.registry import EXPERIMENT_CELLS

    verdicts = []
    for eid, (cell_workload, bits, batches) in sorted(
        EXPERIMENT_CELLS.items()
    ):
        if cell_workload != workload or bits not in security_levels:
            continue
        # One serving class per experiment; the ladder's batch sizes
        # must land on whole requests to reuse the per-launch pricer.
        if any(b % ops_per_request for b in batches):
            spec_ops = 1
        else:
            spec_ops = ops_per_request
        cls = RequestClass(
            workload=workload,
            security_bits=bits,
            rate_qps=1.0,
            ops_per_request=spec_ops,
        )
        price = pricer_for(cls)
        total_ms = 0.0
        for batch in batches:
            total_ms += price(batch // spec_ops).seconds * 1e3
        recorded = (
            baseline.get("experiments", {})
            .get(eid, {})
            .get("modelled", {})
            .get("series_totals", {})
            .get(SERVE_BACKEND)
        )
        if recorded is None:
            verdict = "new"
        elif recorded == total_ms:
            verdict = "ok"
        else:
            verdict = "MODEL-DRIFT"
        verdicts.append(
            {
                "experiment": eid,
                "class": cls.key,
                "expected_ms": recorded,
                "got_ms": total_ms,
                "verdict": verdict,
            }
        )
    return verdicts


#: What a capacity-sweep document (``repro serve sweep -o``) must carry.
SWEEP_DOC = Doc(
    name="serving sweep",
    key="cells",
    kind="serve-sweep",
    record_hint="repro serve sweep -o <file>",
)


# -- rendering ---------------------------------------------------------------


def _fmt_ms(value) -> str:
    return "-" if value is None else f"{value:9.3f}"


def render_point_text(result: ServeResult) -> str:
    """One serving point as a terminal report."""
    spec = result.spec
    doc = result.doc
    lines = [
        f"serving point — seed {spec.seed}, {spec.duration_s:g} s window, "
        f"{spec.healthy * 100:g}% healthy "
        f"({doc['effective_dpus']}/{doc['n_dpus']} DPUs), "
        f"batch <= {spec.max_batch} within {spec.max_wait_s * 1e3:g} ms"
    ]
    for key in sorted(result.reports):
        report = result.reports[key]
        latency = report["latency"]
        lines.append(f"\n{key}:")
        lines.append(
            f"  completed {report['completed']} "
            f"({report.get('qps_completed', 0.0):,.0f} qps), "
            f"rejected {report['rejected']}"
        )
        lines.append(
            f"  latency ms: p50 {_fmt_ms(latency['p50_ms'])}  "
            f"p99 {_fmt_ms(latency['p99_ms'])}  "
            f"p99.9 {_fmt_ms(latency['p999_ms'])}  "
            f"max {_fmt_ms(latency['max_ms'])}"
        )
        for objective in report["objectives"]:
            lines.append(
                f"  {objective['name']}: {objective['bad']} bad "
                f"(burn rate {objective['burn_rate']:.3f}, budget "
                f"{objective['error_budget_remaining']:+.3f}) "
                f"-> {objective['verdict']}"
            )
        lines.append(f"  verdict: {report['verdict']}")
    device = doc["device"]
    lines.append(
        f"\ndevice: {device['launches']} launches, "
        f"busy {device['busy_s'] * 1e3:,.2f} ms of "
        f"{device['horizon_s'] * 1e3:,.2f} ms "
        f"({device['utilization'] * 100:.1f}% utilized)"
    )
    energy = doc["energy"]
    per_request = energy["j_per_request"]
    lines.append(
        f"energy: {energy['total_j']:.3f} J modelled "
        f"({energy['avg_watts']:.1f} W avg, "
        + (
            f"{per_request * 1e3:.3f} mJ/request, "
            if per_request is not None
            else "no completed requests, "
        )
        + f"{energy['movement_bytes']:,} bytes moved)"
    )
    lines.append(f"point verdict: {doc['verdict']}")
    return "\n".join(lines)


def render_sweep_text(doc: dict) -> str:
    """The capacity sweep as a terminal table, with the verdict summary."""
    lines = [
        f"serving capacity sweep — {doc['workload']}, seed {doc['seed']}, "
        f"{doc['duration_s']:g} s window, {doc['ops_per_request']} "
        f"ops/request, fleet {doc['n_dpus']} DPUs"
    ]
    ok = breach = 0
    total_energy_j = 0.0
    sustainable_lines = []
    for bits in doc["security_levels"]:
        by_health = doc["cells"][str(bits)]
        for fraction_key, entry in by_health.items():
            lines.append(f"\n{doc['workload']}@{bits}, {fraction_key} healthy:")
            lines.append(
                "       qps  completed   p50 ms     p99 ms   p99.9 ms"
                "     burn  verdict"
            )
            for point in entry["points"]:
                if point["verdict"] == VERDICT_SLO_OK:
                    ok += 1
                else:
                    breach += 1
                total_energy_j += point.get("energy_j") or 0.0
                lines.append(
                    f"  {point['qps']:8g}  {point['completed']:9g}  "
                    f"{_fmt_ms(point['p50_ms'])}  {_fmt_ms(point['p99_ms'])}  "
                    f"{_fmt_ms(point['p999_ms'])}  "
                    f"{point['max_burn_rate']:7.3f}  {point['verdict']}"
                )
            sustainable = entry["sustainable_qps"]
            sustainable_lines.append(
                f"  {doc['workload']}@{bits} at {fraction_key} healthy: "
                + (
                    f"{sustainable:g} qps"
                    if sustainable is not None
                    else "none (every point breached)"
                )
            )
    lines.append(
        f"\nSLO verdict summary: {ok} SLO-OK, {breach} SLO-BREACH over "
        f"{ok + breach} points"
    )
    lines.append(
        f"modelled energy: {total_energy_j:.3f} J across all points"
    )
    lines.append("sustainable QPS:")
    lines.extend(sustainable_lines)
    for verdict in doc.get("baseline_check", []):
        lines.append(
            f"baseline gate: {verdict['experiment']} ({verdict['class']}) "
            f"-> {verdict['verdict']}"
        )
    return "\n".join(lines)


# -- exports -----------------------------------------------------------------


def timelines_to_chrome_trace(timelines) -> dict:
    """Request timelines as a Chrome trace, one process per class.

    Timestamps are **modelled** microseconds (arrival = ``ts``). Each
    request is a complete event with nested phase events (queue /
    dispatch / launch / kernel / fault / transfer); overlapping
    requests of one class spread across a small pool of lanes
    (``tid``) so concurrent lifetimes stay readable.
    """
    from repro.obs.export import merge_chrome_traces

    by_class: dict = {}
    for timeline in timelines:
        by_class.setdefault(timeline.class_key, []).append(timeline)
    if not by_class:
        raise ParameterError("no request timelines to export")

    documents = []
    for class_key in sorted(by_class):
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": f"serve class {class_key}"},
            }
        ]
        lanes: list = []
        for timeline in sorted(
            by_class[class_key], key=lambda t: (t.arrival_s, t.request_id)
        ):
            tid = None
            for lane, free_at in enumerate(lanes):
                if free_at <= timeline.arrival_s:
                    tid = lane
                    break
            if tid is None:
                if len(lanes) < 32:
                    lanes.append(0.0)
                    tid = len(lanes) - 1
                else:
                    tid = min(range(len(lanes)), key=lanes.__getitem__)
            lanes[tid] = timeline.complete_s
            tid += 1  # tid 0 carries the metadata event
            base = {
                "cat": "serve",
                "ph": "X",
                "pid": 1,
                "tid": tid,
            }
            events.append(
                base
                | {
                    "name": "serve.request",
                    "ts": timeline.arrival_s * 1e6,
                    "dur": timeline.latency_s * 1e6,
                    "args": {
                        "request_id": timeline.request_id,
                        "batch_index": timeline.batch_index,
                        "batch_size": timeline.batch_size,
                        "latency_ms": timeline.latency_s * 1e3,
                    },
                }
            )
            phases = (
                ("serve.queue", timeline.arrival_s, timeline.queue_s),
                (
                    "serve.dispatch",
                    timeline.batch_formed_s,
                    timeline.dispatch_s,
                ),
                (
                    "serve.launch",
                    timeline.service_start_s,
                    timeline.launch_s,
                ),
                (
                    "serve.kernel",
                    timeline.service_start_s + timeline.launch_s,
                    timeline.kernel_s + timeline.fault_s,
                ),
                (
                    "serve.transfer",
                    timeline.complete_s - timeline.transfer_s,
                    timeline.transfer_s,
                ),
            )
            for name, start, duration in phases:
                if duration <= 0:
                    continue
                events.append(
                    base
                    | {
                        "name": name,
                        "ts": start * 1e6,
                        "dur": duration * 1e6,
                        "args": {"request_id": timeline.request_id},
                    }
                )
        documents.append(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        )
    return merge_chrome_traces(documents)


def emit_request_spans(result: ServeResult) -> int:
    """Re-emit request timelines as nested ``repro.obs`` spans.

    Wall durations are meaningless here (the spans open and close
    immediately); the *modelled* clock rides on ``modelled_s`` and the
    phase attributes, matching the convention every other
    instrumentation site uses. No-op (returns 0) under the null
    tracer.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return 0
    emitted = 0
    for timeline in result.timelines:
        with tracer.span(
            "serve.request",
            attrs={
                "request_id": timeline.request_id,
                "class": timeline.class_key,
                "modelled_s": timeline.latency_s,
                "arrival_s": timeline.arrival_s,
                "batch_index": timeline.batch_index,
                "batch_size": timeline.batch_size,
            },
        ):
            for name, duration in (
                ("serve.queue", timeline.queue_s),
                ("serve.dispatch", timeline.dispatch_s),
                ("serve.launch", timeline.launch_s),
                ("serve.kernel", timeline.kernel_s + timeline.fault_s),
                ("serve.transfer", timeline.transfer_s),
            ):
                with tracer.span(name, attrs={"modelled_s": duration}):
                    pass
        emitted += 1
    return emitted
