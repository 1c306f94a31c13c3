"""Batch runner: fail-fast diagnostics and --keep-going collection."""

import pytest

from repro.errors import ExperimentError
from repro.harness.cli import EXIT_ERROR, main
from repro.harness.experiments import EXPERIMENTS, Experiment
from repro.harness.runner import BatchResults, run_all, run_experiment


@pytest.fixture()
def broken_experiment(monkeypatch):
    """Register a deliberately failing experiment for the test's duration."""

    def explode():
        raise ValueError("synthetic failure")

    experiment = Experiment(
        id="broken",
        title="Always fails",
        paper_ref="none",
        description="test-only failing experiment",
        unit="ms",
        runner=explode,
    )
    patched = dict(EXPERIMENTS)
    patched["broken"] = experiment
    monkeypatch.setattr(
        "repro.harness.experiments.EXPERIMENTS", patched
    )
    monkeypatch.setattr("repro.harness.runner.EXPERIMENTS", patched)
    return experiment


class TestFailFast:
    def test_failure_names_the_experiment(self, broken_experiment):
        with pytest.raises(ExperimentError, match="'broken' failed"):
            run_all(["fig1a", "broken"])

    def test_original_exception_chained(self, broken_experiment):
        with pytest.raises(ExperimentError) as excinfo:
            run_all(["broken"])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unknown_id_raises_even_with_keep_going(self):
        with pytest.raises(ExperimentError):
            run_all(["no_such_experiment"], keep_going=True)


class TestKeepGoing:
    def test_collects_failures_and_continues(self, broken_experiment):
        results = run_all(["broken", "fig1a"], keep_going=True)
        assert "fig1a" in results
        assert "broken" not in results
        assert set(results.failures) == {"broken"}
        assert isinstance(results.failures["broken"], ValueError)

    def test_no_failures_leaves_mapping_empty(self):
        results = run_all(["fig1a"])
        assert isinstance(results, BatchResults)
        assert results.failures == {}

    def test_results_iterate_like_plain_dict(self):
        results = run_all(["fig1a"])
        assert list(results) == ["fig1a"]
        assert results["fig1a"] == run_experiment("fig1a")

    def test_failure_records_carry_type_and_message(self, broken_experiment):
        results = run_all(["broken", "fig1a"], keep_going=True)
        assert results.failure_records() == [
            {
                "experiment": "broken",
                "error_type": "ValueError",
                "message": "synthetic failure",
                "fault_class": None,
                "header": "broken: ValueError: synthetic failure",
            }
        ]

    def test_failure_record_header_leads_with_experiment_id(
        self, broken_experiment
    ):
        """Every failure record's one-line header starts with the
        experiment id, so grepping a batch log always finds the id."""
        results = run_all(["broken"], keep_going=True)
        (record,) = results.failure_records()
        assert record["header"].startswith(record["experiment"] + ": ")
        assert record["error_type"] in record["header"]
        assert record["message"] in record["header"]

    def test_failure_records_empty_without_failures(self):
        assert run_all(["fig1a"]).failure_records() == []


class TestFaultClassification:
    """Fault-injected failures carry their class in --keep-going records."""

    @pytest.fixture()
    def faulty_experiment(self, monkeypatch):
        def make(exc):
            def explode():
                raise exc

            experiment = Experiment(
                id="faulty",
                title="Device fault",
                paper_ref="none",
                description="test-only device-fault experiment",
                unit="ms",
                runner=explode,
            )
            patched = dict(EXPERIMENTS)
            patched["faulty"] = experiment
            monkeypatch.setattr(
                "repro.harness.experiments.EXPERIMENTS", patched
            )
            monkeypatch.setattr("repro.harness.runner.EXPERIMENTS", patched)

        return make

    def test_classify_fault_buckets(self):
        from repro.errors import (
            DeviceError,
            PermanentDeviceError,
            TransientDeviceError,
        )
        from repro.harness.runner import classify_fault

        assert classify_fault(PermanentDeviceError("dead")) == "permanent"
        assert classify_fault(TransientDeviceError("blip")) == "transient"
        assert classify_fault(DeviceError("plain")) is None
        assert classify_fault(ValueError("nope")) is None

    def test_permanent_fault_tagged_in_header(self, faulty_experiment):
        from repro.errors import PermanentDeviceError

        faulty_experiment(
            PermanentDeviceError("retry budget exhausted", dpu=7, rank=0)
        )
        results = run_all(["faulty"], keep_going=True)
        (record,) = results.failure_records()
        assert record["fault_class"] == "permanent"
        assert record["header"].startswith("faulty: [permanent] ")
        assert "dpu=7" in record["header"]

    def test_transient_fault_tagged_in_header(self, faulty_experiment):
        from repro.errors import TransientDeviceError

        faulty_experiment(TransientDeviceError("watchdog fired", attempts=1))
        results = run_all(["faulty"], keep_going=True)
        (record,) = results.failure_records()
        assert record["fault_class"] == "transient"
        assert record["header"].startswith("faulty: [transient] ")


class TestTraceExperiment:
    def test_returns_rows_and_spans(self):
        from repro.harness.runner import trace_experiment
        from repro.obs.trace import get_tracer

        rows, spans = trace_experiment("fig1a")
        assert rows == run_experiment("fig1a")
        names = {span.name for span in spans}
        assert "experiment.fig1a" in names
        assert any(n.startswith("pim.time_kernel.") for n in names)
        # The recording tracer was scoped: the global default is back.
        assert not get_tracer().enabled


class TestKeepGoingCLI:
    def test_cli_flag_reports_failure_and_exits_nonzero(
        self, broken_experiment, capsys
    ):
        status = main(["run", "--keep-going", "broken", "fig1a"])
        captured = capsys.readouterr()
        assert status == 1
        assert "experiment 'broken' FAILED" in captured.err
        # Both the exception type and its message are reported.
        assert "ValueError: synthetic failure" in captured.err
        assert "1 of 2 experiments failed" in captured.err
        assert "fig1a" in captured.out  # the good experiment still printed

    def test_cli_without_flag_exits_error(self, broken_experiment, capsys):
        assert main(["run", "broken"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "ExperimentError" in err and "synthetic failure" in err

    def test_cli_success_exits_zero(self, capsys):
        assert main(["run", "fig1a"]) == 0
