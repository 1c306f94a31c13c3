"""Benchmark-suite fixtures.

Each ``bench_*`` module does two things:

* regenerates one paper table/figure through the experiment harness
  (the regeneration itself is benchmarked — it is pure deterministic
  model evaluation — and the formatted table is written to
  ``benchmarks/results/<experiment>.txt`` as a tangible artifact);
* benchmarks the *real* computation underlying that figure (limb
  kernels, NTTs, BFV primitives) so ``pytest benchmarks/
  --benchmark-only`` also reports genuine wall-clock numbers for this
  Python implementation.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import obs
from repro.harness.experiments import get_experiment
from repro.harness.report import format_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
METRICS_PATH = RESULTS_DIR / "metrics.jsonl"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def _run_identity() -> dict:
    """One identity (run_id / timestamp / git SHA) for the whole session."""
    from repro.obs.baseline import run_identity

    return run_identity()


@pytest.fixture(scope="session")
def _metrics_log():
    """The session's metrics log, appended across sessions by default.

    Every record carries a run identity, so accumulated history stays
    attributable; set ``REPRO_BENCH_FRESH=1`` to truncate instead and
    start a clean single-session log.
    """
    from repro.obs.baseline import prepare_metrics_log

    return prepare_metrics_log(METRICS_PATH)


@pytest.fixture(scope="session")
def regenerate(_metrics_log, _run_identity):
    """Run an experiment, persist its table and metrics, return its rows.

    Each regeneration runs under its own :class:`~repro.obs.MetricsRegistry`
    and appends one JSONL record — ``run_id``, ISO ``timestamp``, git
    SHA, the experiment id, and the metrics snapshot (kernel launches,
    DPU occupancy, compute-vs-DMA tallies, per-backend request counts)
    — to ``benchmarks/results/metrics.jsonl``.
    """
    import json

    def _regenerate(experiment_id: str):
        experiment = get_experiment(experiment_id)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            rows = experiment.run()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(
            format_experiment(experiment, rows) + "\n"
        )
        with open(_metrics_log, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "run_id": _run_identity["run_id"],
                        "timestamp": _run_identity["created_at"],
                        "git_sha": _run_identity["git_sha"],
                        "experiment": experiment_id,
                        "metrics": registry.snapshot(),
                    }
                )
                + "\n"
            )
        return rows

    return _regenerate


@pytest.fixture
def record_row(request, _metrics_log, _run_identity):
    """Append one benchmark row's timing summary to ``metrics.jsonl``.

    The record's ``experiment`` is the benchmark module's name, and its
    gauges hold the row's median, IQR and round count in seconds.
    """
    import json

    def _record(name: str, benchmark) -> None:
        if benchmark.stats is None:  # --benchmark-disable: nothing timed
            return
        stats = benchmark.stats.stats
        registry = obs.MetricsRegistry()
        registry.gauge(f"{name}.median_s").set(stats.median)
        registry.gauge(f"{name}.iqr_s").set(stats.iqr)
        registry.gauge(f"{name}.rounds").set(float(stats.rounds))
        with open(_metrics_log, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "run_id": _run_identity["run_id"],
                        "timestamp": _run_identity["created_at"],
                        "git_sha": _run_identity["git_sha"],
                        "experiment": request.module.__name__.rsplit(".", 1)[-1],
                        "metrics": registry.snapshot(),
                    }
                )
                + "\n"
            )

    return _record


@pytest.fixture(scope="session")
def tiny_crypto():
    """A small, fast BFV context for real-arithmetic benchmarks."""
    from repro.core.params import BFVParameters
    from repro.poly.modring import find_ntt_prime
    from repro.workloads.context import WorkloadContext

    params = BFVParameters(
        poly_degree=64,
        coeff_modulus=find_ntt_prime(60, 64),
        plain_modulus=257,
    )
    return WorkloadContext.from_params(params, seed=1)
