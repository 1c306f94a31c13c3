"""Host wall-clock benchmark of this reproduction: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter started by
this script (``worker.py``), one after another, until the next pass
would end after ``S`` seconds (at least two passes). Every pass checks
its outputs. With ``--trace 0`` the passes run untraced and the result
carries the end-to-end metrics, each the median over the passes. With
``--trace 1`` untraced and traced passes alternate: the traced passes
give the per-layer metrics (medians), and traced over untraced median
wall time, minus one, is ``obs.trace_overhead_frac``.

The output lists every metric by name and unit, the workload's own
headline figures and the run identity and machine fingerprint; its last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, stamped the same way, is
written to ``perfbench/out/``. The workloads and the metrics' names,
units and directions are those of ``BENCHMARK.json``; what each
per-layer metric means is in ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import SEED_IGNORED

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = HERE / "out"
MIN_PASSES = 2
#: One pass takes under 20 s; a hung worker must not outlive the run.
WORKER_TIMEOUT_S = 120


class BenchError(Exception):
    """A pass could not run (as opposed to an output that failed its check)."""


def run_pass(workload: str, seed: int, trace_file=None) -> dict:
    """One pass in a fresh interpreter; its set-up time is measured here."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        command += ["--trace", str(trace_file)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} pass exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["setup_done"] - started
    return doc


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Passes until the next one would overrun: ``(untraced, traced)``."""
    plain, traced = [], []
    trace_file = OUT / f"{workload}-seed{seed}.jsonl"
    start = time.monotonic()
    while True:
        if trace and len(traced) < len(plain):
            traced.append(run_pass(workload, seed, trace_file))
        else:
            plain.append(run_pass(workload, seed))
        done = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_PASSES and len(traced) >= trace and (
            elapsed + elapsed / done > seconds
        ):
            return plain, traced


def _median(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def _as_listed(values: dict, listed: list) -> dict:
    """``values`` as the metrics ``listed`` in BENCHMARK.json, with units."""
    names = [m["name"] for m in listed]
    if set(values) != set(names):
        raise BenchError(
            "measured metrics differ from BENCHMARK.json: "
            f"unlisted {sorted(set(values) - set(names))}, "
            f"unmeasured {sorted(set(names) - set(values))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def end_to_end(passes) -> dict:
    values = {key: _median(passes, key) for key in ("setup_s", "wall_s", "peak_rss_mb")}
    return _as_listed(values, BENCHMARK["end_to_end"])


def per_layer(plain, traced) -> dict:
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    values["obs.trace_overhead_frac"] = (
        _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
    )
    return _as_listed(values, BENCHMARK["per_layer"])


def headline(workload: str, plain) -> list:
    """The workload's own figures, in the units its users think in."""
    rate = statistics.median(p["work"] / p["wall_s"] for p in plain)
    if workload == "sim_kernels":
        return [("sim_minstr_per_s", rate / 1e6, "Minstr/s", "")]
    if workload == "serve_fleet":
        return [("serve_kreq_per_s", rate / 1e3, "kreq/s", "")]
    if workload == "bfv_circuits":
        figures = [("he_ops_per_s", rate, "1/s", "")]
        for op in ("multiply", "relin"):
            times = [s for p in plain for s in p["samples"][f"{op}@109"]]
            figures.append((f"he_{op}_ms_p50", statistics.median(times) * 1e3,
                            "ms", f"109-bit, n={len(times)}"))
        return figures
    return [("experiments_per_s", rate, "1/s", "")]


def fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # git (run identities) must not look for a repository above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    items = [item for p in plain + traced for item in p["items"]]
    failed = [f"{name}: {note}" for name, ok, note in items if not ok]
    try:
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.runident import run_identity

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload not in SEED_IGNORED,
        "trace": args.trace,
        "identity": run_identity(),
        "machine": fingerprint(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "failed_items": sorted(set(failed)),
        "metrics": metrics,
        "samples": {
            "untraced": [{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "work")}
                         for p in plain],
            "traced_wall_s": [p["wall_s"] for p in traced],
        },
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"({'seed used' if doc['seed_used'] else 'deterministic, seed ignored'}) "
          f"passes={len(plain)} untraced + {len(traced)} traced")
    print(f"identity {json.dumps(doc['identity'])} machine {json.dumps(doc['machine'])}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':36s} {len(failed) / len(items):.6g} "
          f"({len(failed)} of {len(items)} items)")
    if not args.trace:
        for name, value, unit, note in headline(args.workload, plain):
            print(f"  {name:36s} {value:.6g} {unit} {note}".rstrip())
    for name in doc["failed_items"]:
        print(f"  FAILED {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
