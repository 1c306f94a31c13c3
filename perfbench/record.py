"""Record the expected outputs of the deterministic workloads.

Run once on a commit whose modelled outputs are known good::

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: the rows of every paper_model
experiment that ``baselines/perf.json`` does not gate, and every
sim_kernels ``SimResult`` plus the traced run's activity table. The
gated experiments are checked against ``baselines/perf.json`` itself,
bfv_circuits computes its expected values from its generated inputs
and serve_fleet checks against its own arrival draws and
``baselines/resilience.json``, so they record nothing.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    if not workloads.EXPECTED_PATH.exists():
        workloads.EXPECTED_PATH.write_text(
            json.dumps({name: {} for name in workloads.SEED_IGNORED})
        )
    doc = {}
    for name in workloads.SEED_IGNORED:
        setup, expect, run_pass = workloads.WORKLOADS[name]
        state = setup(0)
        expect(state)
        observed = run_pass(state).observed
        gated = getattr(state, "gated", ())
        doc[name] = {k: v for k, v in observed.items() if k not in gated}
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
