"""Serving-capacity benchmark (`repro serve`).

Benchmarks the deterministic serving simulation — seeded open-loop
arrivals batched into shared PIM kernel launches — and appends one
``metrics.jsonl`` record (run id, git SHA, QPS and tail-latency
gauges) so serving capacity trends ride the same longitudinal tooling
as the figure regenerations.

Two per-layer rows time the serving loop's own costs, each checked
against committed or exact expectations:

* :func:`~repro.serve.resilience.simulate_resilient` at the RESILIENCE
  gate's knee (96,000 QPS, 4 shards, the one-dead-shard
  :func:`~repro.serve.resilience.degraded_plan` of seed 1), whose
  scalars must equal the point ``baselines/resilience.json`` recorded;
* :meth:`~repro.obs.metrics.Histogram.observe` on the SLO digest's 181
  bounds, every bound plus ±inf and NaN, with exact bucket counts.

With benchmarking enabled each appends one ``metrics.jsonl`` record of
its median, IQR and round count; with ``--benchmark-disable`` each
runs once as a correctness smoke test and records nothing.
"""

import json
import math
import pathlib

from repro import obs
from repro.obs.slo import LatencyDigest
from repro.pim.config import UPMEMConfig
from repro.serve import (
    BreakerSpec,
    RequestClass,
    ResilienceSpec,
    ServeSpec,
    degraded_plan,
    simulate,
    simulate_resilient,
)
from repro.serve.resilience import _point_scalars

RESILIENCE_BASELINE = (
    pathlib.Path(__file__).resolve().parents[1] / "baselines" / "resilience.json"
)

_SPEC = ServeSpec(
    classes=(
        RequestClass(
            workload="vec_add", security_bits=109, rate_qps=2000.0
        ),
    ),
    duration_s=0.25,
    seed=0,
)


def _point_gauges(registry, report, energy=None) -> None:
    """Publish one serving report as gauges on ``registry``."""
    latency = report["latency"]
    burns = [o["burn_rate"] for o in report["objectives"]]
    energy = energy or {}
    for name, value in (
        ("serve.qps_completed", report["qps_completed"]),
        ("serve.completed", float(report["completed"])),
        ("serve.rejected", float(report["rejected"])),
        ("serve.p50_ms", latency["p50_ms"]),
        ("serve.p99_ms", latency["p99_ms"]),
        ("serve.p999_ms", latency["p999_ms"]),
        ("serve.max_burn_rate", max(burns) if burns else 0.0),
        ("energy.joules.total", energy.get("total_j")),
        ("energy.watts_avg", energy.get("avg_watts")),
        ("energy.joules_per_request", energy.get("j_per_request")),
        ("movement.bytes.total", energy.get("movement_bytes")),
    ):
        if value is not None:
            registry.gauge(name).set(float(value))


def test_bench_serving_point(benchmark, _metrics_log, _run_identity):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        result = benchmark.pedantic(
            simulate, args=(_SPEC,), iterations=1, rounds=3
        )

    report = result.reports[_SPEC.classes[0].key]
    # Modelled-time invariants: every arrival is served, in order,
    # with identical results on every benchmark round (seeded clock).
    assert report["completed"] == len(result.timelines)
    assert report["rejected"] == 0

    _point_gauges(registry, report, energy=result.doc.get("energy"))
    with open(_metrics_log, "a") as handle:
        handle.write(
            json.dumps(
                {
                    "run_id": _run_identity["run_id"],
                    "timestamp": _run_identity["created_at"],
                    "git_sha": _run_identity["git_sha"],
                    "experiment": "serving",
                    "metrics": registry.snapshot(),
                }
            )
            + "\n"
        )


def test_bench_serving_degraded_fleet(benchmark):
    spec = ServeSpec(
        classes=_SPEC.classes,
        duration_s=_SPEC.duration_s,
        seed=_SPEC.seed,
        healthy=0.8,
    )
    result = benchmark.pedantic(
        simulate, args=(spec,), iterations=1, rounds=3
    )
    report = result.reports[spec.classes[0].key]
    assert report["completed"] == len(result.timelines)


def test_bench_resilient_knee(benchmark, record_row):
    gate = json.loads(RESILIENCE_BASELINE.read_text())
    knobs = gate["config"]
    seed, qps, shards = 1, 96000.0, 4
    plan, _victim = degraded_plan(seed, gate["shard_counts"], UPMEMConfig())
    rspec = ResilienceSpec(
        serve=ServeSpec(
            classes=(
                RequestClass(
                    gate["workload"],
                    gate["security_bits"],
                    qps,
                    gate["ops_per_request"],
                ),
            ),
            duration_s=gate["duration_s"],
            seed=seed,
            max_batch=gate["max_batch"],
            max_wait_s=gate["max_wait_s"],
        ),
        n_shards=shards,
        breaker=BreakerSpec(**knobs["breaker"]),
        retry_budget=knobs["retry_budget"],
        hedge_after_s=knobs["hedge_after_s"],
        shed_burn_threshold=knobs["shed_burn_threshold"],
        plan=plan.scaled(),
    )
    result = benchmark(simulate_resilient, rspec)
    key = f"seed={seed}:shards={shards}:fleet=degraded:qps={qps:g}"
    assert _point_scalars(result) == gate["points"][key]
    record_row("serve.resilient.knee", benchmark)


def test_bench_histogram_observe(benchmark, record_row):
    bounds = LatencyDigest()._hist.bounds
    values = bounds + (math.inf, -math.inf, math.nan)

    def observe_all():
        histogram = obs.MetricsRegistry().histogram("h", buckets=bounds)
        for value in values:
            histogram.observe(value)
        return histogram

    histogram = benchmark(observe_all)
    # One value on each bound; -inf joins the first, +inf and NaN the
    # implicit overflow bucket.
    assert histogram.bucket_counts == [2] + [1] * (len(bounds) - 1) + [2]
    record_row("obs.hist_observe.digest_bounds", benchmark)
