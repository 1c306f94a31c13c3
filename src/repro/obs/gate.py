"""One gate stack: the record/check/report machinery behind every gate.

The modelled results are locked by four exact-match gates — MODEL-DRIFT
(``perf``: :mod:`repro.obs.perf`), NOISE-DRIFT (``noise``:
:mod:`repro.obs.noisegate`), ENERGY-DRIFT (``energy``:
:mod:`repro.obs.energy`) and RESILIENCE-DRIFT (``resil``:
:mod:`repro.serve.resilience`). Each gate module keeps only its domain
logic — how to capture a run and how to compare two — and describes
itself with one :class:`Gate` record. Everything the gates share lives
here once:

* persistence — :func:`write_doc` / :func:`read_doc` (one JSON
  document, schema-validated on read), :func:`append_history` /
  :func:`read_history` (one JSON line per recorded run) and
  :func:`find_run` (a file path or a run-id prefix in a history);
* the :class:`Verdict` row every comparison returns, :func:`exit_code`
  and :func:`render_check`.

``repro <gate> record|check|<report>`` (:mod:`repro.harness.cli`)
drives every gate through this module. The faults-sweep and
serving-sweep documents are not gates but persist through the same
:func:`write_doc` / :func:`read_doc` with their own :class:`Doc`.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ParameterError

__all__ = [
    "SCHEMA_VERSION",
    "VERDICT_OK",
    "VERDICT_NEW",
    "VERDICT_FASTER",
    "VERDICT_REGRESSION",
    "VERDICT_MODEL_DRIFT",
    "VERDICT_NOISE_DRIFT",
    "VERDICT_ENERGY_DRIFT",
    "VERDICT_RESILIENCE_DRIFT",
    "FAILING_VERDICTS",
    "Doc",
    "Gate",
    "Verdict",
    "gates",
    "write_doc",
    "read_doc",
    "append_history",
    "read_history",
    "find_run",
    "exit_code",
    "render_check",
]

#: Version stamped into every recorded document; readers refuse any
#: other, so a layout change cannot be silently misread as drift.
SCHEMA_VERSION = 1

VERDICT_OK = "ok"
VERDICT_NEW = "new"
VERDICT_FASTER = "faster"
VERDICT_REGRESSION = "REGRESSION"
VERDICT_MODEL_DRIFT = "MODEL-DRIFT"
VERDICT_NOISE_DRIFT = "NOISE-DRIFT"
VERDICT_ENERGY_DRIFT = "ENERGY-DRIFT"
VERDICT_RESILIENCE_DRIFT = "RESILIENCE-DRIFT"

#: The verdicts that fail a gate; ``ok``, ``new``, ``faster`` and the
#: grid's ``partial`` pass.
FAILING_VERDICTS = frozenset(
    {
        VERDICT_REGRESSION,
        VERDICT_MODEL_DRIFT,
        VERDICT_NOISE_DRIFT,
        VERDICT_ENERGY_DRIFT,
        VERDICT_RESILIENCE_DRIFT,
    }
)


@dataclass(frozen=True, kw_only=True)
class Doc:
    """The shape a recorded document must have to be read back."""

    #: What the document is called in error messages ("perf",
    #: "faults sweep").
    name: str
    #: The top-level mapping every document of this shape carries.
    key: str
    #: The ``kind`` stamp the document must carry (``None``: none).
    kind: str | None = None
    #: The command that records one, named in every read error.
    record_hint: str


@dataclass(frozen=True, kw_only=True)
class Gate(Doc):
    """One exact-match gate: where it keeps its runs and its domain logic.

    ``name`` is the CLI family (``repro <name> record|check|...``).
    """

    #: Default committed baseline and run-history paths.
    baseline: str
    history: str
    #: The verdict that fails this gate when its model moved.
    drift: str
    #: Why drift cannot be noise, for the check report's footer.
    drift_cause: str
    #: ``capture(args, baseline, progress) -> doc``: record a run from
    #: the CLI arguments; with a baseline, re-capture exactly what it
    #: recorded. ``progress`` receives a label per captured item.
    capture: Callable
    #: ``compare(baseline, current, args) -> [Verdict]``.
    compare: Callable
    #: ``summary(doc) -> str``: what ``record`` prints about a capture.
    summary: Callable
    #: Passing verdicts counted in the check footer, before the drift.
    labels: tuple = (VERDICT_OK, VERDICT_NEW)
    #: What the check footer calls its rows.
    rows: str = "checks"


def gates() -> tuple:
    """The four gates, in CLI order."""
    from repro.obs.energy import GATE as energy
    from repro.obs.noisegate import GATE as noise
    from repro.obs.perf import GATE as perf
    from repro.serve.resilience import GATE as resil

    return (perf, noise, energy, resil)


@dataclass(frozen=True)
class Verdict:
    """One compared row: a label, its verdict, and the notes behind it."""

    key: str
    verdict: str
    notes: tuple = field(default_factory=tuple)
    #: A short aside printed after the key (perf: the wall ratio).
    detail: str | None = None

    @property
    def failed(self) -> bool:
        return self.verdict in FAILING_VERDICTS

    def describe(self, width: int = len(VERDICT_MODEL_DRIFT)) -> str:
        line = f"[{self.verdict:>{width}}] {self.key}"
        if self.detail is not None:
            line += f"  ({self.detail})"
        for note in self.notes:
            line += "\n" + " " * (width + 3) + f"- {note}"
        return line


# -- persistence ------------------------------------------------------------


def _validate(doc, spec: Doc, source: str) -> dict:
    if not isinstance(doc, dict):
        raise ParameterError(
            f"{source}: {spec.name} document must be a JSON object"
        )
    if doc.get("schema") != SCHEMA_VERSION or doc.get("kind") != spec.kind:
        raise ParameterError(
            f"{source}: unsupported {spec.name} document (schema "
            f"{doc.get('schema')!r}, kind {doc.get('kind')!r}; this build "
            f"reads schema {SCHEMA_VERSION}, kind {spec.kind!r}); "
            f"re-record with '{spec.record_hint}'"
        )
    if not isinstance(doc.get(spec.key), dict):
        raise ParameterError(
            f"{source}: {spec.name} document missing '{spec.key}'; "
            f"re-record with '{spec.record_hint}'"
        )
    return doc


def write_doc(doc: dict, path) -> None:
    """Write one document as pretty-printed, key-sorted JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_doc(path, spec: Doc) -> dict:
    """Read one document and validate it against ``spec``."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ParameterError(
            f"no {spec.name} document at {path}; record one with "
            f"'{spec.record_hint}'"
        )
    return _validate(json.loads(path.read_text()), spec, str(path))


def append_history(doc: dict, path) -> None:
    """Append one recorded run to a JSONL history file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(doc, sort_keys=True) + "\n")


def read_history(path, spec: Doc) -> list:
    """Every run in a history file, oldest first (missing file: ``[]``)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    return [
        _validate(json.loads(line), spec, str(path))
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def find_run(run_ref: str, history_path, spec: Doc) -> dict:
    """Resolve a run reference: a JSON file path or a run-id prefix.

    File paths win; otherwise the newest history entry whose ``run_id``
    starts with ``run_ref`` is returned.
    """
    if os.path.exists(run_ref):
        return read_doc(run_ref, spec)
    matches = [
        doc
        for doc in read_history(history_path, spec)
        if str(doc.get("run_id", "")).startswith(run_ref)
    ]
    if not matches:
        raise ParameterError(
            f"run {run_ref!r} is neither a file nor a run-id prefix in "
            f"{history_path}"
        )
    return matches[-1]


# -- verdicts -----------------------------------------------------------------


def exit_code(verdicts) -> int:
    """0 when no verdict failed, 1 otherwise."""
    return 1 if any(v.failed for v in verdicts) else 0


def _identity(doc: dict) -> str:
    return (
        f"run {str(doc.get('run_id', '?'))[:12]} "
        f"({doc.get('created_at', '?')}, git {str(doc.get('git_sha'))[:12]})"
    )


def render_check(gate: Gate, verdicts, baseline: dict, current: dict) -> str:
    """The check report: one row per verdict and a summary footer."""
    lines = [
        f"{gate.name} check — current capture vs committed baseline",
        f"  baseline: {_identity(baseline)}",
        f"  current:  {_identity(current)}",
        "",
    ]
    lines.extend(v.describe(len(gate.drift)) for v in verdicts)
    counts = Counter(v.verdict for v in verdicts)
    lines.append("")
    lines.append(
        "summary: "
        + ", ".join(f"{counts[k]} {k}" for k in gate.labels + (gate.drift,))
        + f" of {len(verdicts)} {gate.rows}"
    )
    if counts[gate.drift]:
        lines.append(
            f"{gate.drift_cause} — re-baseline deliberately with "
            f"'repro {gate.name} check --update'"
        )
    return "\n".join(lines)
