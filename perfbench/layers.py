"""Benchmark-side tracing hooks and the per-layer metrics they give.

A traced pass installs a recording :class:`repro.obs.Tracer` and wraps
the public entry point of each layer in a span (``HOOKS``). The
program's own spans (``experiment.*``, ``pim.time_kernel.*``,
``backend.*``, ...) nest under them. Two leaf functions are called
about 10^5 times each per serving pass, so they get a cheap counting
timer instead of a span (``LEAVES``); their time is moved from the
enclosing span's self time to their own layer.

Wrapping replaces module and class attributes for the whole process,
which is why only the single-pass worker process installs the hooks.
Layer self times come from :func:`repro.obs.export.path_tree`; per-call
times come from the raw spans.

Shares (unit ``frac``) are self time over the traced pass's wall time;
``*_per_s`` rates are one over the median host time per call. What each
metric family should move, as end-to-end metric on workload:

=============================================  ===============================
``harness.*``, ``kernels.*``, ``runtime.*``    ``wall_s`` on paper_model
``backends.*``                                 ``wall_s`` on paper_model,
                                               ``setup_s`` on serve_fleet
``sim.*``                                      ``wall_s`` on sim_kernels
``core.keygen_setup_share``                    ``setup_s`` on bfv_circuits
``core.*_per_s.*``, ``poly.*``                 ``wall_s`` on bfv_circuits
``serve.*``, ``obs.hist_observe_*``            ``wall_s`` on serve_fleet
``obs.spans``, ``obs.trace_overhead_frac``     nothing: the hooks' own cost,
                                               kept out of every end-to-end
                                               metric
``other.self_share``                           nothing: time outside every
                                               hooked layer
=============================================  ===============================

The layer a workload isolates should move on that workload and stay
near zero on the others: ``kernels.*`` not on bfv_circuits, ``sim.*``
only on sim_kernels, ``poly.*`` not on the mean circuits.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from workloads import BFV_LEVELS, SKIPPED_EXPERIMENTS, _accounted

#: Homomorphic operations timed per call, at each BFV level.
CORE_OPS = ("encrypt", "add", "square", "multiply", "relin", "decrypt")


def _bits(args, kwargs):
    return args[0].params.security_bits


def _sim_attrs(args, kwargs, out):
    trace = kwargs.get("trace", args[2] if len(args) > 2 else None)
    return {
        "bench.instr": out.instructions_issued,
        "bench.cycles": out.cycles,
        "bench.trace_issues": len(trace.issues) if trace is not None else 0,
    }


def _kernel_shape(args, kwargs, out):
    kernel = args[0]
    modulus = getattr(kernel, "modulus", None)
    return {"bench.shape": f"{type(kernel).__name__}/{kernel.limbs}/{modulus}"}


def _serve_attrs(args, kwargs, out):
    return {"bench.requests": _accounted(out), "bench.launches": len(out.launches)}


#: (span name, module, attribute, name suffix from the call, span
#: attributes from the call and its result)
HOOKS = (
    ("harness.exp", "repro.harness.runner", "run_experiment",
     lambda args, kwargs: args[0], None),
    ("kernels.execute", "repro.pim.kernels.base", "Kernel.execute",
     None, _kernel_shape),
    ("runtime.time_kernel", "repro.pim.runtime", "PIMRuntime.time_kernel",
     None, None),
    ("backends.time_op", "repro.backends.base", "Backend.time_op", None, None),
    ("sim.run", "repro.pim.sim", "DPUSimulator.run", None, _sim_attrs),
    ("sim.activity", "repro.pim.sim", "SimTrace.tasklet_activity", None, None),
    ("core.keygen", "repro.core.keys", "KeyGenerator.generate", None, None),
    ("core.encrypt", "repro.core.encryptor", "Encryptor.encrypt", _bits, None),
    ("core.add", "repro.core.evaluator", "Evaluator.add", _bits, None),
    ("core.square", "repro.core.evaluator", "Evaluator.square", _bits, None),
    ("core.multiply", "repro.core.evaluator", "Evaluator.multiply", _bits, None),
    ("core.relin", "repro.core.evaluator", "Evaluator.relinearize", _bits, None),
    ("core.decrypt", "repro.core.decryptor", "Decryptor.decrypt", _bits, None),
    ("poly.convolve", "repro.poly.polynomial", "negacyclic_convolve", None, None),
    ("serve.simulate", "repro.serve.service", "simulate", None, _serve_attrs),
    ("serve.resilient", "repro.serve.resilience", "simulate_resilient",
     None, _serve_attrs),
    ("serve.arrivals", "repro.serve.arrivals", "OpenLoopArrivals.times_until",
     None, None),
)

#: (layer name, module, attribute) of hot leaves timed without spans.
LEAVES = (
    ("serve.placement", "repro.serve.shard", "home_shard"),
    ("obs.hist_observe", "repro.obs.metrics", "Histogram.observe"),
)

#: Program span-name prefixes and the hook family they belong to.
PROGRAM_SPANS = (
    ("experiment.", "harness.exp"),
    ("workload.", "harness.exp"),
    ("pim.time_kernel.", "runtime.time_kernel"),
    ("backend.", "backends.time_op"),
)

HOOK_NAMES = tuple(h[0] for h in HOOKS)


def family(name: str) -> str:
    """The hook (or leaf) a span name belongs to, or ``"other"``."""
    for hook in HOOK_NAMES:
        if name == hook or name.startswith(hook + "."):
            return hook
    for prefix, hook in PROGRAM_SPANS:
        if name.startswith(prefix):
            return hook
    return "other"


def _patch(module_name: str, attribute: str, make) -> None:
    module = importlib.import_module(module_name)
    if "." in attribute:
        owner_name, attr = attribute.split(".")
        owner = getattr(module, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, attribute)
    wrapped = make(original)
    # Modules that imported the function by name hold their own binding.
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "") or "").startswith("repro") and (
            getattr(mod, attribute, None) is original
        ):
            setattr(mod, attribute, wrapped)


class Hooks:
    """The installed wrappers and the leaf timers they feed."""

    def __init__(self, tracer):
        self.tracer = tracer
        #: leaf layer -> enclosing span name -> [calls, seconds]
        self.leaves = {name: defaultdict(lambda: [0, 0.0]) for name, _, _ in LEAVES}
        for name, module, attribute, suffix, attrs in HOOKS:
            _patch(module, attribute, functools.partial(self._span, name, suffix, attrs))
        for name, module, attribute in LEAVES:
            _patch(module, attribute, functools.partial(self._leaf, name))

    def _span(self, name, suffix, attrs, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            with tracer.span(label) as span:
                out = original(*args, **kwargs)
                if attrs is not None:
                    span.set_attrs(attrs(args, kwargs, out))
            return out

        return wrapper

    def _leaf(self, name, original):
        tracer, stats = self.tracer, self.leaves[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                parent = tracer.current_span
                entry = stats[parent.name if parent is not None else ""]
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    def reset_leaves(self) -> None:
        for stats in self.leaves.values():
            stats.clear()


def _within(spans, root):
    return [
        s for s in spans if s.start_s >= root.start_s and s.end_s <= root.end_s
    ]


def derive(spans, hooks: Hooks, setup_span, pass_span) -> dict:
    """Per-layer metrics of one traced pass (``per_layer`` in BENCHMARK.json)."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.obs.export import path_tree

    wall = pass_span.wall_s
    in_pass = _within(spans, pass_span)
    in_setup = _within(spans, setup_span)

    # Self time and call count per hook family, from the path table.
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    price_misses = 0
    for path, node in path_tree(in_pass).items():
        fam = family(node["name"])
        self_s[fam] += node["self_wall_s"]
        if node["name"] == fam:
            calls[fam] += node["count"]
        if fam == "backends.time_op" and node["name"] == fam and ";serve." in path:
            price_misses += node["count"]
    for leaf, stats in hooks.leaves.items():
        for parent, (count, seconds) in stats.items():
            self_s[family(parent)] -= seconds
            self_s[leaf] += seconds
            calls[leaf] += count

    inclusive: dict = defaultdict(list)
    totals: dict = defaultdict(float)
    shapes = set()
    for span in in_pass:
        inclusive[span.name].append(span.wall_s)
        for key, value in span.attrs.items():
            if key == "bench.shape":
                shapes.add(value)
            elif key.startswith("bench."):
                totals[key[6:]] += value

    def share(fam):
        return self_s[fam] / wall

    def sum_of(name):
        return sum(inclusive.get(name, ()))

    execute_calls = calls["kernels.execute"]
    sim_s = sum_of("sim.run")
    setup_wall = setup_span.wall_s
    keygen_s = sum(s.wall_s for s in in_setup if s.name == "core.keygen")
    metrics = {
        "harness.experiments": len([s for s in in_pass if s.name.startswith("harness.exp.")]),
        "kernels.execute_calls": execute_calls,
        "kernels.cost_shapes": len(shapes),
        "kernels.cost_useful_frac": len(shapes) / execute_calls if execute_calls else 0.0,
        "kernels.execute_share": share("kernels.execute"),
        "runtime.time_kernel_calls": calls["runtime.time_kernel"],
        "runtime.time_kernel_share": share("runtime.time_kernel"),
        "backends.time_op_calls": calls["backends.time_op"],
        "backends.time_op_share": share("backends.time_op"),
        "sim.run_calls": calls["sim.run"],
        "sim.run_share": share("sim.run"),
        "sim.instr_issued": totals["instr"],
        "sim.cycles": totals["cycles"],
        "sim.cycles_per_host_s": totals["cycles"] / sim_s if sim_s else 0.0,
        "sim.trace_issue_records": totals["trace_issues"],
        "sim.activity_share": share("sim.activity"),
        "core.keygen_setup_share": keygen_s / setup_wall,
        "poly.convolve_calls": calls["poly.convolve"],
        "poly.convolve_share": share("poly.convolve"),
        "serve.points": calls["serve.simulate"] + calls["serve.resilient"],
        "serve.requests": totals["requests"],
        "serve.launches": totals["launches"],
        "serve.simulate_share": share("serve.simulate"),
        "serve.resilient_share": share("serve.resilient"),
        "serve.arrivals_share": share("serve.arrivals"),
        "serve.placement_share": share("serve.placement"),
        "serve.price_misses": price_misses,
        "obs.hist_observe_calls": calls["obs.hist_observe"],
        "obs.hist_observe_share": share("obs.hist_observe"),
        "obs.spans": len(in_pass),
        "other.self_share": share("other"),
    }
    for op in CORE_OPS:
        for bits in BFV_LEVELS:
            times = inclusive.get(f"core.{op}.{bits}")
            metrics[f"core.{op}_per_s.{bits}"] = (
                1.0 / statistics.median(times) if times else 0.0
            )
    for eid in EXPERIMENTS:
        if eid in SKIPPED_EXPERIMENTS:
            continue
        metrics[f"harness.exp_share.{eid}"] = sum_of(f"harness.exp.{eid}") / wall
    return metrics
