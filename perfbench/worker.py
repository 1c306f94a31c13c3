"""One pass of one workload in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays cold
caches and imports exactly as a ``repro`` command does. It sets up the
workload, works out the expected outputs (timed by neither set-up nor
the pass), runs one pass, checks every item and prints one JSON line::

    python3 perfbench/worker.py --workload paper_model --seed 1 [--trace FILE]

With ``--trace`` the layer hooks (:mod:`layers`) and a recording tracer
are on; the spans are written to ``FILE`` as JSON lines when the pass
ends, and the line carries the per-layer metrics. Set-up ends at the
``setup_done`` reading of the system-wide monotonic clock, which the
parent compares with the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from time import perf_counter

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(workloads.ROOT / "src"))
    from repro.obs.trace import NULL_TRACER, Tracer, use_tracer

    setup, expect, run_pass = workloads.WORKLOADS[args.workload]
    tracer, hooks = NULL_TRACER, None
    if args.trace:
        import layers

        tracer = Tracer()
        hooks = layers.Hooks(tracer)

    with use_tracer(tracer):
        with tracer.span("bench.setup") as setup_span:
            state = setup(args.seed)
        setup_done = time.monotonic()
        with tracer.span("bench.expect"):
            expect(state)
        if hooks is not None:
            hooks.reset_leaves()
        start = perf_counter()
        with tracer.span("bench.pass") as pass_span:
            result = run_pass(state)
        wall = perf_counter() - start

    doc = {
        "setup_done": setup_done,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": result.work,
        "items": result.items,
        "item_s": result.item_s,
        "samples": result.samples,
    }
    if hooks is not None:
        import layers
        from repro.obs.export import write_jsonl

        spans = tracer.finished
        write_jsonl(spans, args.trace)
        doc["layers"] = layers.derive(spans, hooks, setup_span, pass_span)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
