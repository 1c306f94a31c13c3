"""End-to-end ``repro profile`` CLI, and missing-data perf exits.

Drives the real CLI paths: profile a kernel spec and an experiment,
re-load the Chrome-trace and HTML artifacts from disk, and check the
``perf diff`` / ``perf html`` degradation contract — a clear message
and :data:`~repro.harness.cli.EXIT_DATA` (2, distinct from failure's 1)
when the recorded history does not exist yet.
"""

import json

import pytest

from repro.harness.cli import EXIT_DATA, EXIT_ERROR, main
from repro.obs.export import validate_chrome_trace


class TestProfileKernelSpec:
    def test_text_report_and_exit_zero(self, capsys):
        assert main(["profile", "vec_mul:128", "--elements", "64"]) == 0
        out = capsys.readouterr().out
        assert "pipeline profile — kernel vec_mul:128" in out
        assert "verdict: pipeline-bound" in out
        assert "dma engine" in out

    def test_unknown_target_exits_error(self, capsys):
        assert main(["profile", "no_such_thing"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "ParameterError: unknown kernel" in err

    def test_html_artifact(self, tmp_path, capsys):
        html_path = tmp_path / "profile.html"
        status = main(
            [
                "profile",
                "vec_add:128",
                "--elements",
                "64",
                "--html",
                str(html_path),
            ]
        )
        assert status == 0
        html = html_path.read_text()
        assert "dma-bound" in html
        assert "occbar" in html


class TestProfileExperiment:
    @pytest.fixture()
    def artifacts(self, tmp_path, capsys):
        chrome = tmp_path / "profile-chrome.json"
        html = tmp_path / "profile.html"
        status = main(
            [
                "profile",
                "fig1a",
                "--max-elements",
                "128",
                "--chrome",
                str(chrome),
                "--html",
                str(html),
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        return chrome, html, captured

    def test_text_report(self, artifacts):
        _, _, captured = artifacts
        assert "pipeline profile — experiment fig1a" in captured.out
        assert "verdict: dma-bound" in captured.out
        assert "load balance" in captured.out

    def test_chrome_trace_merges_host_and_device_lanes(self, artifacts):
        chrome, _, _ = artifacts
        document = json.loads(chrome.read_text())
        validate_chrome_trace(document)
        processes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "repro model" in processes  # the host span timeline
        assert any(p.startswith("DPU sim:") for p in processes)
        threads = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "dma engine" in threads
        assert any(t.startswith("tasklet") for t in threads)

    def test_html_report(self, artifacts):
        _, html, _ = artifacts
        content = html.read_text()
        assert "fig1a" in content
        assert "occbar" in content


class TestPerfMissingDataExits:
    def test_diff_without_history_exits_data(self, tmp_path, capsys):
        status = main(
            [
                "perf",
                "diff",
                "aaaa",
                "bbbb",
                "--history",
                str(tmp_path / "none.jsonl"),
            ]
        )
        assert status == EXIT_DATA
        err = capsys.readouterr().err
        assert "no run history" in err
        assert "repro perf record" in err

    def test_diff_with_empty_history_exits_data(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text("")
        status = main(
            ["perf", "diff", "aaaa", "bbbb", "--history", str(history)]
        )
        assert status == EXIT_DATA
        assert "missing or empty" in capsys.readouterr().err

    def test_html_without_any_data_exits_data(self, tmp_path, capsys):
        status = main(
            [
                "perf",
                "html",
                "--history",
                str(tmp_path / "none.jsonl"),
                "--baseline",
                str(tmp_path / "none.json"),
            ]
        )
        assert status == EXIT_DATA
        assert "nothing to render" in capsys.readouterr().err

    def test_exit_data_distinct_from_failure(self):
        assert EXIT_DATA == 2  # 1 means "failed"; 2 means "no data yet"