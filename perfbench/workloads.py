"""The benchmark's four workloads: inputs from a seed, one pass, checks.

Each workload is a ``(setup, expect, run_pass)`` triple. ``setup(seed)``
does what the program needs before its first item (imports, keys,
specs, layouts) and returns a state object. ``expect(state)`` fills
``state.expected`` with the expected outputs; it is the benchmark's own
work, so neither set-up nor the pass is timed across it.
``run_pass(state)`` runs the fixed inputs once, one item after another,
and returns a :class:`PassResult`. Every item's output is compared with
its expected value, so a wrong expected value always surfaces as a
failed item.

Host time is what is measured. Every modelled number (cycles, modelled
seconds, request timelines) is an output to check, never a metric.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "expected.json"


@dataclass
class PassResult:
    """One pass: per-item outcomes plus the workload's unit of work."""

    items: list = field(default_factory=list)  # (name, ok, note)
    #: Host seconds per item, from the end of the previous item (or the
    #: start of the pass) to the end of its check: they add up to the pass.
    item_s: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # name -> output
    work: float = 0.0  # work items done (the headline rate's numerator)
    samples: dict = field(default_factory=dict)  # label -> host seconds
    _mark: float = field(default_factory=perf_counter)

    def check(self, name: str, got, want, holds: bool = True, note: str = "") -> None:
        """One item: ``got`` must equal ``want`` and ``holds`` be true."""
        self.observed[name] = got
        ok = _canonical(got) == _canonical(want) and holds
        self._end(name, ok, "" if ok else note or "output differs")

    def fail(self, name: str, note: str) -> None:
        self._end(name, False, note)

    def _end(self, name: str, ok: bool, note: str) -> None:
        now = perf_counter()
        self.items.append((name, ok, note))
        self.item_s.append(now - self._mark)
        self._mark = now


def _canonical(value) -> str:
    """JSON text with sorted keys: NaN-safe, order-free equality."""
    return json.dumps(value, sort_keys=True)


def _load_expected(workload: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text())[workload]


# -- paper_model -------------------------------------------------------------
#
# Every registered experiment except the cycle-level simulation, with
# cold caches, in registry order: nearly all host time is limb-kernel
# cost derivation feeding the analytic pricer.

SKIPPED_EXPERIMENTS = ("ext_sim_validation",)


def _rows_doc(rows) -> list:
    return json.loads(
        json.dumps(
            [
                {"label": r.label, "x": r.x, "series": r.series, "extra": r.extra}
                for r in rows
            ]
        )
    )


def _series_totals(rows) -> dict:
    totals: dict = {}
    for row in rows:
        for name, value in row.series.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def setup_paper_model(seed: int):
    """Deterministic: the seed is recorded and ignored."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.runner import run_experiment

    ids = [eid for eid in EXPERIMENTS if eid not in SKIPPED_EXPERIMENTS]
    return SimpleNamespace(ids=ids, run=run_experiment)


def expect_paper_model(state) -> None:
    """Gated experiments from ``baselines/perf.json``, the rest as recorded."""
    perf = json.loads((ROOT / "baselines" / "perf.json").read_text())
    recorded = _load_expected("paper_model")
    state.gated = set(perf["experiments"])
    state.expected = {}
    for eid in state.ids:
        if eid in state.gated:
            modelled = perf["experiments"][eid]["modelled"]
            state.expected[eid] = {
                "n_rows": modelled["n_rows"],
                "series_totals": modelled["series_totals"],
            }
        else:
            state.expected[eid] = recorded.get(eid)


def run_paper_model(state) -> PassResult:
    result = PassResult()
    for eid in state.ids:
        try:
            rows = state.run(eid)
        except Exception as exc:  # an item that raises is a failed item
            result.fail(eid, f"{type(exc).__name__}: {exc}")
            continue
        want = state.expected[eid]
        if eid in state.gated:
            got = {"n_rows": len(rows), "series_totals": _series_totals(rows)}
        else:
            got = _rows_doc(rows)
        result.check(eid, got, want)
        result.work += 1
    return result


# -- sim_kernels -------------------------------------------------------------
#
# The cycle-level DPU simulator on the four validation kernels at 4 and
# 16 tasklets (either side of the 11-cycle revolve), plus one traced run
# with the tasklet activity breakdown. vec_mul and tensor_mul are
# compute-bound; vec_add at 16 tasklets is DMA-bound.

SIM_TASKLETS = (4, 16)
#: Analytic-vs-simulated tolerance of the validation experiment.
SIM_TOLERANCE = 0.20


def _sim_cases():
    from repro.backends.pim import modulus_for_width
    from repro.pim.kernels import (
        ReduceSumKernel,
        TensorMulKernel,
        VecAddKernel,
        VecMulKernel,
    )

    modulus = modulus_for_width(128)
    return (
        ("vec_add", VecAddKernel(4, modulus), 4096),
        ("vec_mul", VecMulKernel(4), 16),
        ("tensor_mul", TensorMulKernel(4), 16),
        ("reduce_sum", ReduceSumKernel(4, modulus), 4096),
    )


def _sim_doc(sim) -> list:
    return [sim.cycles, sim.instructions_issued, sim.dma_busy_cycles, sim.tasklets]


def setup_sim_kernels(seed: int):
    """Deterministic: the seed is recorded and ignored."""
    from repro.pim.runtime import PIMRuntime
    from repro.pim.sim import SimTrace, simulate_kernel

    cases = [
        (f"{label}@{tasklets}", kernel, n_elements, tasklets)
        for label, kernel, n_elements in _sim_cases()
        for tasklets in SIM_TASKLETS
    ]
    return SimpleNamespace(
        config=PIMRuntime().config,
        cases=cases,
        traced=next(c for c in cases if c[0] == "vec_add@16"),
        simulate=simulate_kernel,
        trace_type=SimTrace,
    )


def expect_sim_kernels(state) -> None:
    """The recorded results, and each case's analytic cycle count.

    Deriving the analytic counts prices every kernel once, so a pass
    times the simulator alone.
    """
    from repro.pim.dma import dma_cycles
    from repro.pim.tasklet import pipeline_cycles, split_evenly

    config = state.config
    state.expected = _load_expected("sim_kernels")
    state.analytic = {}
    for name, kernel, n_elements, tasklets in state.cases:
        cpe = kernel.cycles_per_element()
        dma = dma_cycles(n_elements * kernel.mram_bytes_per_element(), config)
        compute = pipeline_cycles(
            [round(s * cpe) for s in split_evenly(n_elements, tasklets)],
            config.pipeline_revolve_cycles,
        )
        state.analytic[name] = max(compute, dma)


def run_sim_kernels(state) -> PassResult:
    result = PassResult()
    for name, kernel, n_elements, tasklets in state.cases:
        sim = state.simulate(kernel, n_elements, tasklets, state.config)
        analytic = state.analytic[name]
        error = abs(sim.cycles - analytic) / analytic
        result.check(
            name,
            _sim_doc(sim),
            state.expected.get(name),
            error <= SIM_TOLERANCE,
            f"result differs or analytic error {error:.3f} > {SIM_TOLERANCE}",
        )
        result.work += sim.instructions_issued
    name, kernel, n_elements, tasklets = state.traced
    trace = state.trace_type()
    sim = state.simulate(kernel, n_elements, tasklets, state.config, trace=trace)
    activity = trace.tasklet_activity(
        state.config.pipeline_revolve_cycles, sim.cycles
    )
    got = {"sim": _sim_doc(sim), "activity": json.loads(json.dumps(activity))}
    result.check("trace", got, state.expected.get("trace"))
    result.work += sim.instructions_issued
    return result


# -- bfv_circuits ------------------------------------------------------------
#
# Real BFV with public-key encryption at the 54- and 109-bit levels and
# the paper's three circuits over three encrypted users: mean (add
# tree), variance (square without relinearization, then add) and linreg
# (multiply pairs, add, relinearize the sum once). Every result is
# decrypted, decoded and compared slot by slot with plaintext
# arithmetic mod t.

#: Parameter overrides per level. The 54-bit preset's t = 65537 leaves
#: no noise budget for one multiplication, so that level uses the
#: batching prime t = 12289 and 18-bit relinearization digits (4.4 to
#: 5.2 bits of budget remain after each circuit on seeds 1 to 3).
BFV_LEVELS = {54: {"plain_modulus": 12289, "relin_base_bits": 18}, 109: {}}
BFV_USERS = 3


def _centered(value: int, t: int) -> int:
    value %= t
    return value - t if value > t // 2 else value


def bfv_reference(values, t: int) -> dict:
    """Plaintext slot arithmetic mod ``t`` for the three circuits."""
    a, b, c = values
    return {
        "mean": [_centered(x + y + z, t) for x, y, z in zip(a, b, c)],
        "variance": [_centered(x * x + y * y, t) for x, y in zip(a, b)],
        "linreg": [_centered(x * z + y * z, t) for x, y, z in zip(a, b, c)],
    }


def setup_bfv_circuits(seed: int):
    """The seed drives keys, plaintexts and encryption randomness."""
    import numpy as np

    from repro.core import (
        BatchEncoder,
        BFVParameters,
        Decryptor,
        Encryptor,
        Evaluator,
        KeyGenerator,
    )

    levels = {}
    for bits, overrides in BFV_LEVELS.items():
        params = BFVParameters.security_level(bits, **overrides)
        keys = KeyGenerator(params, seed=seed).generate()
        t = params.plain_modulus
        rng = np.random.default_rng([seed, bits])
        values = [
            [int(v) for v in rng.integers(-(t // 2), t // 2 + 1, params.poly_degree)]
            for _ in range(BFV_USERS)
        ]
        levels[bits] = SimpleNamespace(
            encoder=BatchEncoder(params),
            encryptor=Encryptor(params, keys.public_key, seed=seed + 1),
            decryptor=Decryptor(params, keys.secret_key),
            evaluator=Evaluator(params, relin_key=keys.relin_key),
            values=values,
            plain_modulus=t,
        )
    return SimpleNamespace(levels=levels)


def expect_bfv_circuits(state) -> None:
    state.expected = {
        f"{circuit}@{bits}": slots
        for bits, level in state.levels.items()
        for circuit, slots in bfv_reference(level.values, level.plain_modulus).items()
    }


def run_bfv_circuits(state) -> PassResult:
    result = PassResult()

    def op(label, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        result.samples.setdefault(label, []).append(perf_counter() - t0)
        result.work += 1
        return out

    for bits, level in state.levels.items():
        ev, enc, encoder = level.evaluator, level.encryptor, level.encoder
        x0, x1, x2 = (
            op(f"encrypt@{bits}", enc.encrypt, encoder.encode(v))
            for v in level.values
        )
        outputs = {
            "mean": op(
                f"add@{bits}", ev.add, op(f"add@{bits}", ev.add, x0, x1), x2
            ),
            "variance": op(
                f"add@{bits}",
                ev.add,
                op(f"square@{bits}", ev.square, x0, False),
                op(f"square@{bits}", ev.square, x1, False),
            ),
            "linreg": op(
                f"relin@{bits}",
                ev.relinearize,
                op(
                    f"add@{bits}",
                    ev.add,
                    op(f"multiply@{bits}", ev.multiply, x0, x2, False),
                    op(f"multiply@{bits}", ev.multiply, x1, x2, False),
                ),
            ),
        }
        for circuit, ciphertext in outputs.items():
            name = f"{circuit}@{bits}"
            plain = op(f"decrypt@{bits}", level.decryptor.decrypt, ciphertext)
            result.check(name, encoder.decode(plain), state.expected[name])
    return result


# -- serve_fleet -------------------------------------------------------------
#
# The RESILIENCE gate's traffic (``baselines/resilience.json``: one
# vec_add@54 class, its QPS grid straddling the degraded-fleet knee, its
# batching, breaker, retry and hedging settings) through the plain
# serving loop (one shard, no faults), the resilient loop (four shards,
# the gate's one-dead-shard plan for the seed) and the one-shard
# zero-fault resilient loop, which must equal the plain loop bit for
# bit. The ladder runs for the gate's first fault seed, whose points the
# gate recorded, and for the run's own seed. Pricing is memoised per
# (class, batch), so host time goes to the event loops, the SHA-256
# arrival and placement draws and the latency histograms.

RESIL_BASELINE = ROOT / "baselines" / "resilience.json"
SERVE_SHARDS = 4


def offered_requests(class_key: str, rate_qps: float, seed: int, duration_s: float) -> int:
    """Arrivals of one class, drawn here rather than by the program.

    The documented arrival discipline of ``repro.serve.arrivals``:
    exponential gaps from SHA-256 over ``serve.arrival:seed:class:index``
    (first 8 bytes over 2**64), counted until ``duration_s``.
    """
    t, count = 0.0, 0
    while True:
        digest = hashlib.sha256(
            f"serve.arrival:{seed}:{class_key}:{count}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        t += -math.log(1.0 - u) / rate_qps
        if t >= duration_s:
            return count
        count += 1


def setup_serve_fleet(seed: int):
    """The seed drives the arrival draws, placement and the dead shard."""
    from repro.pim.config import UPMEMConfig
    from repro.serve import (
        RequestClass,
        ResilienceSpec,
        ServeSpec,
        degraded_plan,
        simulate,
        simulate_resilient,
    )
    from repro.serve.resilience import BreakerSpec, _point_scalars

    gate = json.loads(RESIL_BASELINE.read_text())
    knobs = gate["config"]
    resilience = dict(
        breaker=BreakerSpec(**knobs["breaker"]),
        retry_budget=knobs["retry_budget"],
        hedge_after_s=knobs["hedge_after_s"],
        shed_burn_threshold=knobs["shed_burn_threshold"],
    )
    config = UPMEMConfig()
    points = []
    for fault_seed in dict.fromkeys((gate["seeds"][0], seed)):
        plan, _victim = degraded_plan(fault_seed, gate["shard_counts"], config)
        for qps in gate["qps_grid"]:
            cls = RequestClass(
                gate["workload"], gate["security_bits"], qps,
                gate["ops_per_request"],
            )
            spec = ServeSpec(
                classes=(cls,), duration_s=gate["duration_s"], seed=fault_seed,
                max_batch=gate["max_batch"], max_wait_s=gate["max_wait_s"],
            )
            points.append(SimpleNamespace(
                label=f"seed={fault_seed}:qps={qps:g}",
                gate_key=f"seed={fault_seed}:shards={{}}:fleet={{}}:qps={qps:g}",
                spec=spec,
                sharded=ResilienceSpec(
                    serve=spec, n_shards=SERVE_SHARDS, plan=plan.scaled(),
                    **resilience,
                ),
                single=ResilienceSpec(serve=spec, n_shards=1, **resilience),
            ))
    return SimpleNamespace(
        gate=gate,
        points=points,
        simulate=simulate,
        simulate_resilient=simulate_resilient,
        scalars=_point_scalars,
    )


def expect_serve_fleet(state) -> None:
    """Offered counts drawn independently, and the gate's recorded points."""
    expected = {}
    recorded = state.gate["points"]
    for point in state.points:
        spec = point.spec
        expected[point.label] = sum(
            offered_requests(c.key, c.rate_qps, spec.seed, spec.duration_s)
            for c in spec.classes
        )
        for kind, shards, fleet in (("sharded", SERVE_SHARDS, "degraded"),
                                    ("one_shard", 1, "healthy")):
            key = point.gate_key.format(shards, fleet)
            if key in recorded:
                expected[f"{kind}@{point.label}"] = recorded[key]
    state.expected = expected


def _accounted(result) -> int:
    """Requests a point accounts for: each finishes or is refused.

    The SLO trackers count shed and failed requests as refused, next to
    those the admission guard turned away.
    """
    return len(result.timelines) + sum(
        r["rejected"] for r in result.reports.values()
    )


def _one_each(result) -> bool:
    """Every finished request has exactly one timeline (hedges merged)."""
    completed = sum(r["completed"] for r in result.reports.values())
    ids = {t.request_id for t in result.timelines}
    return completed == len(result.timelines) == len(ids)


def run_serve_fleet(state) -> PassResult:
    result = PassResult()
    for point in state.points:
        label, offered = point.label, state.expected[point.label]
        plain = state.simulate(point.spec)
        result.check(
            f"plain@{label}", _accounted(plain), offered, _one_each(plain),
            "requests not conserved",
        )
        for kind, rspec in (("sharded", point.sharded), ("one_shard", point.single)):
            name = f"{kind}@{label}"
            out = state.simulate_resilient(rspec)
            holds = _one_each(out)
            if kind == "one_shard":
                holds = holds and (out.timelines, out.reports) == (
                    plain.timelines, plain.reports
                )
            result.check(name, _accounted(out), offered, holds,
                         "requests not conserved, or differs from the plain loop")
            if name in state.expected:
                result.check(f"{name}:gate", state.scalars(out),
                             state.expected[name],
                             note="differs from the RESILIENCE gate's point")
        result.work += 3 * offered
    return result


WORKLOADS = {
    "paper_model": (setup_paper_model, expect_paper_model, run_paper_model),
    "sim_kernels": (setup_sim_kernels, expect_sim_kernels, run_sim_kernels),
    "bfv_circuits": (setup_bfv_circuits, expect_bfv_circuits, run_bfv_circuits),
    "serve_fleet": (setup_serve_fleet, expect_serve_fleet, run_serve_fleet),
}

#: Workloads whose inputs do not depend on the seed.
SEED_IGNORED = ("paper_model", "sim_kernels")
