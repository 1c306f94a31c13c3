"""Tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload's check is shown to catch one deliberately wrong expected
value, so no check passes vacuously. The inputs are cut down to keep
the tests short; the checks are the ones a full pass runs.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.ROOT / "src"))
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _error_rate(result) -> float:
    return sum(not ok for _, ok, _ in result.items) / len(result.items)


def _paper_model(state):
    state.ids = ["fig1a", "fig2b"]
    totals = state.expected["fig1a"]["series_totals"]
    name = sorted(totals)[0]
    totals[name] += 1.0


def _sim_kernels(state):
    state.cases = [c for c in state.cases if c[0] == "vec_add@4"]
    state.expected["vec_add@4"][0] += 1


def _bfv_circuits(state):
    state.levels = {54: state.levels[54]}
    state.expected["mean@54"][0] += 1


def _serve_offered(state):
    state.points = state.points[:2]
    state.expected[state.points[1].label] += 1


def _serve_gate(state):
    state.points = state.points[:2]
    state.expected[f"sharded@{state.points[0].label}"]["shards"][0]["launches"] += 1


@pytest.mark.parametrize(
    "name,tamper",
    [
        ("paper_model", _paper_model),
        ("sim_kernels", _sim_kernels),
        ("bfv_circuits", _bfv_circuits),
        ("serve_fleet", _serve_offered),
        ("serve_fleet", _serve_gate),
    ],
)
def test_wrong_expected_value_is_an_error(name, tamper):
    setup, expect, run_pass = workloads.WORKLOADS[name]
    state = setup(7)
    expect(state)
    tamper(state)
    result = run_pass(state)
    assert _error_rate(result) > 0
    # Only the tampered values fail: the rest of the pass still checks out.
    assert any(ok for _, ok, _ in result.items)


def test_serve_fleet_runs_the_gate_seed_and_the_given_seed():
    setup, expect, _ = workloads.WORKLOADS["serve_fleet"]
    state = setup(5)
    expect(state)
    seeds = {point.spec.seed for point in state.points}
    assert seeds == {state.gate["seeds"][0], 5}
    # Every gate-seed point has its recorded sharded and one-shard scalars.
    gate_checks = [name for name in state.expected if "@" in name]
    assert len(gate_checks) == 2 * len(state.gate["qps_grid"])


def test_independent_arrival_count_matches_the_program():
    from repro.serve.arrivals import OpenLoopArrivals

    arrivals = OpenLoopArrivals("vec_add@54", 96000.0, seed=3)
    want = len(arrivals.times_until(0.01))
    assert workloads.offered_requests("vec_add@54", 96000.0, 3, 0.01) == want


def test_benchmark_json_stays_within_the_format_limits():
    doc = BENCHMARK
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_traced_pass_reports_every_layer_metric(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "sim_kernels",
         "--seed", "1", "--trace", str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, check=True,
    )
    doc = json.loads(out.stdout.splitlines()[-1])
    assert not [item for item in doc["items"] if not item[1]]
    layer_names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(doc["layers"]) == layer_names - {"obs.trace_overhead_frac"}
    # The simulator is the layer this workload isolates.
    assert doc["layers"]["sim.run_share"] > 0.5
    assert doc["layers"]["kernels.execute_share"] == 0.0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_model",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
