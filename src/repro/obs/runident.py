"""Run identity: one stamping discipline for every recorded artifact.

Every persistent record this project produces — perf baselines
(:mod:`repro.obs.baseline`), noise calibrations
(:mod:`repro.obs.noisegate`), chaos sweeps
(:mod:`repro.harness.chaos`), and the run registry
(:mod:`repro.obs.registry`) — carries the same three identity fields:

* ``run_id`` — a fresh uuid4 hex string, unique per recording;
* ``created_at`` — an ISO-8601 UTC timestamp (second precision);
* ``git_sha`` — the commit the recording process ran from, or ``None``
  outside a checkout.

Keeping the capture here (rather than per-recorder) is what makes
records *joinable*: a registry cell, a perf-history line, and a noise
trajectory recorded by the same process share a ``run_id``, and the
longitudinal dashboards trend any of them against ``git_sha``.
"""

from __future__ import annotations

import os
import subprocess
import uuid
from datetime import datetime, timezone

__all__ = ["git_sha", "run_identity", "stamp"]


#: Resolved directory -> its commit SHA (or ``None``), one ``git``
#: subprocess per directory per process.
_GIT_SHAS: dict = {}


def git_sha(cwd=None) -> str | None:
    """The current git commit SHA, or ``None`` outside a checkout.

    Memoised per process for each resolved directory (``cwd``, or the
    working directory when it is ``None``): every serving point stamps
    an identity, and the commit does not move under a running process.
    """
    try:
        where = os.path.realpath(os.getcwd() if cwd is None else cwd)
    except OSError:  # the working directory was removed
        return None
    if where not in _GIT_SHAS:
        _GIT_SHAS[where] = _read_git_sha(where)
    return _GIT_SHAS[where]


def _read_git_sha(cwd) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_identity() -> dict:
    """A fresh run identity: uuid, ISO-8601 UTC timestamp, git SHA."""
    return {
        "run_id": uuid.uuid4().hex,
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
    }


def stamp(doc: dict) -> dict:
    """Merge a fresh identity into ``doc`` in place and return it."""
    doc.update(run_identity())
    return doc
