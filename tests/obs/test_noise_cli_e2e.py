"""End-to-end ``repro noise`` subcommands, in-process.

Drives record → check → report through the real CLI against the tiny
security levels, then locks the ``EXIT_DATA`` (2) convention for
*every* recorded-artifact-consuming subcommand — perf, noise, faults,
grid, and serve alike — so "nothing recorded yet" can never regress
into a traceback or be confused with a tripped gate (exit 1).
"""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import EXIT_DATA, EXIT_ERROR, main
from repro.obs.runident import git_sha


@pytest.fixture()
def noise_paths(tmp_path):
    return {
        "baseline": str(tmp_path / "noise.json"),
        "history": str(tmp_path / "noise-history.jsonl"),
        "html": str(tmp_path / "noise.html"),
    }


def _noise(command, paths, *extra):
    return main(
        [
            "noise",
            command,
            *extra,
            "--baseline",
            paths["baseline"],
            "--history",
            paths["history"],
        ]
    )


class TestNoiseCliEndToEnd:
    def test_record_check_report_cycle(
        self, noise_paths, tiny_security_levels, capsys
    ):
        assert _noise("record", noise_paths, "27", "54") == 0
        out = capsys.readouterr().out
        assert "recorded 6 noise trajectories" in out

        baseline = json.loads(open(noise_paths["baseline"]).read())
        assert set(baseline["levels"]) == {"27", "54"}
        assert baseline["run_id"]
        assert baseline["git_sha"] == git_sha()

        assert _noise("check", noise_paths) == 0
        out = capsys.readouterr().out
        assert "0 NOISE-DRIFT" in out

        assert _noise("report", noise_paths, "-o", noise_paths["html"]) == 0
        html = open(noise_paths["html"]).read()
        assert "<svg" in html and "27-bit level" in html

    def test_check_update_adopts_current(
        self, noise_paths, tiny_security_levels, capsys
    ):
        assert _noise("record", noise_paths, "27") == 0
        before = json.loads(open(noise_paths["baseline"]).read())
        assert _noise("check", noise_paths, "--update") == 0
        after = json.loads(open(noise_paths["baseline"]).read())
        assert after["run_id"] != before["run_id"]
        capsys.readouterr()

    def test_drifted_baseline_fails_with_one(
        self, noise_paths, tiny_security_levels, capsys
    ):
        assert _noise("record", noise_paths, "27") == 0
        baseline = json.loads(open(noise_paths["baseline"]).read())
        step = baseline["levels"]["27"]["workloads"]["mean"]["trajectory"][0]
        step["pred_bits"] += 1.0
        with open(noise_paths["baseline"], "w") as handle:
            json.dump(baseline, handle)
        assert _noise("check", noise_paths) == 1
        out = capsys.readouterr().out
        assert "NOISE-DRIFT" in out


class TestExitDataConvention:
    """Exit 2 = "no recorded data yet", for every subcommand family."""

    def test_the_convention_itself(self):
        assert EXIT_DATA == 2  # 1 means "failed"; 2 means "no data yet"

    _RECORDED = ("--baseline", "--history")

    @pytest.mark.parametrize(
        ("argv", "flags"),
        [
            (["noise", "check"], _RECORDED),
            (["noise", "report"], _RECORDED),
            (["energy", "check"], _RECORDED),
            (["energy", "report"], _RECORDED),
            (["perf", "check"], _RECORDED),
            (["perf", "diff", "a", "b"], _RECORDED),
            (["perf", "html"], _RECORDED),
            (["faults", "html"], ("--sweep",)),
            (["serve", "html"], ("--sweep",)),
            (["resil", "check"], _RECORDED),
            (["resil", "html"], _RECORDED),
            (["grid", "status"], ("--db",)),
            (["why", "fig1a"], ("--against", "--history")),
            (["forensics", "html"], ("--run-a", "--run-b")),
            (
                ["forensics", "shifts"],
                ("--history", "--energy-history", "--noise-history", "--db"),
            ),
        ],
        ids=lambda value: (
            "-".join(value[:2]) if isinstance(value, list) else None
        ),
    )
    def test_missing_data_exits_two(self, argv, flags, tmp_path, capsys):
        extra = []
        for index, flag in enumerate(flags):
            extra += [flag, str(tmp_path / f"absent-{index}.json")]
        status = main(argv + extra)
        captured = capsys.readouterr()
        assert status == EXIT_DATA
        assert "record a run first" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv", [["run", "nope"], ["profile", "nope"]], ids=lambda v: v[0]
    )
    def test_unknown_id_exits_error(self, argv, capsys):
        """A typed library error is one stderr line and EXIT_ERROR (3):
        neither a tripped gate (1) nor missing data (2)."""
        assert EXIT_ERROR not in (1, EXIT_DATA)
        status = main(argv)
        captured = capsys.readouterr()
        assert status == EXIT_ERROR
        assert captured.err.count("\n") == 1
        assert "'nope'" in captured.err
        assert "Traceback" not in captured.err
