"""The one gate stack, once per gate: persistence, validation, and the
record/check/report CLI flow under the EXIT_DATA convention."""

import json
import shutil

import pytest

from repro.errors import ParameterError
from repro.harness.cli import EXIT_DATA, _GATE_CLI, main
from repro.obs.gate import gates, read_doc, write_doc

GATES = gates()

#: Extra ``check`` arguments that keep a gate's re-capture cheap.
CHECK_ARGS = {
    "perf": ["fig1a", "--skip-wall", "--repeats", "1"],
    "noise": ["27"],
}


@pytest.fixture(params=GATES, ids=[gate.name for gate in GATES])
def gate(request):
    return request.param


def test_gate_table_is_the_cli_table():
    assert [gate.name for gate in GATES] == list(_GATE_CLI)


def test_committed_baseline_round_trips_byte_identically(gate, tmp_path):
    doc = read_doc(gate.baseline, gate)
    copy = tmp_path / "baseline.json"
    write_doc(doc, copy)
    with open(gate.baseline, "rb") as handle:
        assert copy.read_bytes() == handle.read()


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc, gate: doc.update(schema=99),
        lambda doc, gate: doc.update(kind="bogus"),
        lambda doc, gate: doc.pop(gate.key),
    ],
    ids=["schema", "kind", "required-key"],
)
def test_malformed_document_names_the_record_command(gate, damage, tmp_path):
    doc = read_doc(gate.baseline, gate)
    damage(doc, gate)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError, match=gate.record_hint):
        read_doc(path, gate)


@pytest.mark.parametrize("verb", ["check", "report"])
def test_missing_baseline_exits_data(gate, verb, tmp_path, capsys):
    if verb == "report":
        verb = _GATE_CLI[gate.name].report
    status = main(
        [
            gate.name,
            verb,
            "--baseline",
            str(tmp_path / "absent.json"),
            "--history",
            str(tmp_path / "absent.jsonl"),
        ]
    )
    err = capsys.readouterr().err
    assert status == EXIT_DATA
    assert gate.record_hint in err
    assert "Traceback" not in err


def test_check_update_rewrites_the_baseline(gate, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    history = tmp_path / "history.jsonl"
    shutil.copy(gate.baseline, baseline)
    committed = read_doc(baseline, gate)
    status = main(
        [gate.name, "check", "--update"]
        + CHECK_ARGS.get(gate.name, [])
        + ["--baseline", str(baseline), "--history", str(history)]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "baseline re-recorded" in out
    rewritten = read_doc(baseline, gate)
    assert rewritten["run_id"] != committed["run_id"]
    assert len(history.read_text().splitlines()) == 1
