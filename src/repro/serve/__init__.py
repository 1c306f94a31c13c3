"""``repro.serve`` — a deterministic batched serving model over PIM.

The paper's small-workload story is dominated by fixed kernel-launch
overhead, which makes batching *the* deployment question: a realistic
multi-user service packs many users' ciphertext operations into shared
PIM kernel launches. This package turns that question into a
computable, regression-gated model (ROADMAP item 2):

* :mod:`repro.serve.arrivals` — a seeded open-loop Poisson arrival
  process on the **modelled clock** (SHA-256 unit draws, no wall-clock
  or :mod:`random` state, exactly the :mod:`repro.pim.faults`
  discipline), memoised per ``(seed, class)`` stream process-wide;
* :mod:`repro.serve.scheduler` — per-class batch formation (seal on
  ``max_batch`` or a ``max_wait`` timer); every request carries a
  :class:`~repro.serve.scheduler.RequestTimeline` decomposing modelled
  latency into queue → dispatch → launch → kernel → transfer phases;
* :mod:`repro.serve.service` — :class:`~repro.serve.service.ServeSpec`,
  the single-point simulation (the resilient loop on one shard of the
  whole fleet, priced by the *exact* experiment pricing path, so the
  zero-fault point stays bit-identical to ``baselines/perf.json``),
  the capacity sweep over QPS × security level × fleet health
  (resumable through the PR-6 run registry), the sweep document
  persistence, and the Chrome-trace export (one lane per request
  class).

Fault tolerance rides on top (PR 10):

* :mod:`repro.serve.shard` — rank-aligned fleet partitioning with
  deterministic ciphertext→shard placement and per-shard pricing
  (single shard + zero faults stays bit-identical to
  ``baselines/perf.json``);
* :mod:`repro.serve.resilience` — the one serving event loop:
  health-aware routing, per-shard circuit breakers, retry budgets, hedged dispatch, SLO-coupled load
  shedding, and the RESILIENCE gate
  (``baselines/resilience.json``, ``repro resil record|check|html``).

SLO accounting (digests, burn rates, verdicts) lives in
:mod:`repro.obs.slo`; the CLI surface is ``repro serve run|sweep|html``
and the capacity dashboard is
:func:`repro.obs.htmlreport.render_serve_report`. See
``docs/observability.md`` ("Serving & SLOs") and
``docs/robustness.md`` ("Sharded serving & resilience").
"""

from repro.serve.arrivals import OpenLoopArrivals
from repro.serve.scheduler import (
    BatchLaunch,
    BatchScheduler,
    RequestTimeline,
)
from repro.serve.resilience import (
    BreakerSpec,
    CircuitBreaker,
    ResilienceResult,
    ResilienceSpec,
    capture_resilience_run,
    check_resilience_runs,
    degraded_plan,
    render_resilience_text,
    simulate_resilient,
)
from repro.serve.service import (
    DEFAULT_HEALTHY_GRID,
    DEFAULT_QPS_GRID,
    RequestClass,
    ServeSpec,
    check_serving_baseline,
    emit_request_spans,
    render_point_text,
    render_sweep_text,
    simulate,
    sweep_capacity,
    timelines_to_chrome_trace,
)
from repro.serve.shard import (
    ShardedPricer,
    ShardLayout,
    home_shard,
    home_shards,
    make_layout,
    whole_fleet_pricer,
)

__all__ = [
    "OpenLoopArrivals",
    "RequestTimeline",
    "BatchLaunch",
    "BatchScheduler",
    "RequestClass",
    "ServeSpec",
    "DEFAULT_HEALTHY_GRID",
    "DEFAULT_QPS_GRID",
    "simulate",
    "sweep_capacity",
    "check_serving_baseline",
    "emit_request_spans",
    "render_point_text",
    "render_sweep_text",
    "timelines_to_chrome_trace",
    "ShardLayout",
    "make_layout",
    "home_shard",
    "home_shards",
    "ShardedPricer",
    "whole_fleet_pricer",
    "BreakerSpec",
    "CircuitBreaker",
    "ResilienceSpec",
    "ResilienceResult",
    "simulate_resilient",
    "degraded_plan",
    "capture_resilience_run",
    "check_resilience_runs",
    "render_resilience_text",
]
