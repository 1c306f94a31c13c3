"""Shared run-identity stamping, and its re-export compatibility."""

import subprocess
import uuid

from repro.obs import runident


class TestRunIdentity:
    def test_identity_fields(self):
        identity = runident.run_identity()
        assert set(identity) == {"run_id", "created_at", "git_sha"}
        uuid.UUID(hex=identity["run_id"])  # 32 lowercase hex chars
        assert "T" in identity["created_at"]  # ISO-8601

    def test_run_ids_are_unique(self):
        assert (
            runident.run_identity()["run_id"]
            != runident.run_identity()["run_id"]
        )

    def test_stamp_updates_in_place_and_returns(self):
        doc = {"schema": 1}
        assert runident.stamp(doc) is doc
        assert doc["schema"] == 1
        assert "run_id" in doc

    def test_git_sha_in_repo(self):
        sha = runident.git_sha()
        assert sha is None or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_git_sha_outside_repo_is_none(self, tmp_path):
        assert runident.git_sha(cwd=tmp_path) is None

    def test_git_sha_starts_one_subprocess_per_directory(
        self, monkeypatch, tmp_path
    ):
        calls = []

        def fake_run(args, **kwargs):
            calls.append(kwargs["cwd"])
            return subprocess.CompletedProcess(args, 0, stdout="f" * 40 + "\n")

        monkeypatch.setattr(runident, "_GIT_SHAS", {})
        monkeypatch.setattr(runident.subprocess, "run", fake_run)
        for _ in range(5):
            assert runident.run_identity()["git_sha"] == "f" * 40
        assert len(calls) == 1
        runident.git_sha(cwd=tmp_path)
        runident.git_sha(cwd=tmp_path)
        assert len(calls) == 2


class TestReExports:
    def test_baseline_still_exposes_identity_helpers(self):
        """Callers predating runident keep importing these from
        baseline (and the package root); all one function."""
        from repro import obs
        from repro.obs import baseline

        assert baseline.run_identity is runident.run_identity
        assert baseline.git_sha is runident.git_sha
        assert obs.run_identity is runident.run_identity
