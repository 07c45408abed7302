"""The contract-aware linter: fixture corpora, CLI, and the live tree.

Three layers of pinning:

* the **bad** fixture corpus must trigger every rule id exactly where
  seeded (a checker that stops firing is a silent hole in CI);
* the **clean** fixture corpus and the **live** ``src/repro`` tree must
  produce zero findings (the repo ships lint-clean — new violations
  fail, not accumulate);
* the static contract tables must agree with the **runtime** they
  describe: ``hash_participation()`` vs ``_hash_payload``,
  and ``REGISTRY_AXES`` vs the live registries.
"""

import json
from pathlib import Path

import pytest

from repro.lint import Baseline, Finding, run_lint
from repro.lint.cli import main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "lint"
CLEAN = FIXTURES / "clean"
BAD = FIXTURES / "bad"

ALL_RULES = (
    "D101", "D102", "D103", "D104", "D105", "E901",
    "H201", "H202", "H203", "H204",
    "R301", "R302", "R303", "R304",
)


def lint_tree(root: Path, **kwargs):
    return run_lint(str(root / "pkg"), repo_root=str(root), **kwargs)


# ----------------------------------------------------------------------
# Fixture corpora
# ----------------------------------------------------------------------
class TestFixtureCorpora:
    def test_clean_tree_has_zero_findings(self):
        assert lint_tree(CLEAN) == []

    def test_bad_tree_triggers_every_rule(self):
        rules = {f.rule for f in lint_tree(BAD)}
        assert rules == set(ALL_RULES)

    def test_bad_tree_counts_are_exact(self):
        """Each seeded violation is found once — no duplicates, no
        misses (a checker double-reporting is as wrong as one missing)."""
        counts: dict = {}
        for f in lint_tree(BAD):
            counts[f.rule] = counts.get(f.rule, 0) + 1
        assert counts == {
            "D101": 2, "D102": 3, "D103": 2, "D104": 3, "D105": 2,
            "E901": 1,
            "H201": 1, "H202": 1, "H203": 2, "H204": 4,
            "R301": 1, "R302": 1, "R303": 1, "R304": 2,
        }

    def test_inline_suppression_holds(self):
        """clock.py carries one `# lint: ignore[D101]` wall-clock read;
        it must not be reported while the unsuppressed ones are."""
        clock = [
            f for f in lint_tree(BAD)
            if f.path.endswith("clock.py") and f.rule == "D101"
        ]
        assert len(clock) == 2
        assert not any("suppressed" in f.message for f in clock)

    def test_select_and_ignore_prefixes(self):
        only_d = lint_tree(BAD, select=["D"])
        assert only_d and all(f.rule.startswith("D") for f in only_d)
        no_d104 = {f.rule for f in lint_tree(BAD, ignore=["D104"])}
        assert "D104" not in no_d104 and "D101" in no_d104
        families = {f.rule[0] for f in lint_tree(BAD, select=["H2", "R"])}
        assert families == {"H", "R"}

    def test_findings_are_sorted_and_stable(self):
        once, twice = lint_tree(BAD), lint_tree(BAD)
        assert once == twice
        keys = [(f.path, f.line, f.rule, f.message) for f in once]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# CLI: exit codes, JSON report, baseline
# ----------------------------------------------------------------------
class TestCli:
    def _argv(self, root: Path, *extra: str):
        return [str(root / "pkg"), "--repo-root", str(root), *extra]

    def test_exit_codes(self, tmp_path, capsys):
        empty = tmp_path / "none.json"
        assert main(self._argv(CLEAN, "--baseline", str(empty))) == 0
        assert main(self._argv(BAD, "--baseline", str(empty))) == 1
        out = capsys.readouterr().out
        assert "# OK: 0 findings" in out
        assert "D101" in out and "docs/static_analysis.md" in out

    def test_json_report(self, tmp_path, capsys):
        artifact = tmp_path / "report" / "lint.json"
        code = main(
            self._argv(
                BAD,
                "--baseline", str(tmp_path / "none.json"),
                "--json", "--json-out", str(artifact),
            )
        )
        assert code == 1
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads(artifact.read_text())
        assert stdout_report == file_report
        assert not file_report["ok"]
        assert file_report["counts"]["D101"] == 2
        sample = file_report["findings"][0]
        assert set(sample) == {"rule", "path", "line", "message"}

    def test_baseline_roundtrip(self, tmp_path, capsys):
        """--write-baseline then rerun: every finding baselined, exit 0;
        a *new* violation still fails."""
        baseline = tmp_path / "lint-baseline.json"
        assert main(
            self._argv(BAD, "--baseline", str(baseline), "--write-baseline")
        ) == 0
        assert main(self._argv(BAD, "--baseline", str(baseline))) == 0
        out = capsys.readouterr().out
        assert "[baselined]" in out
        # drop one entry from the baseline -> that finding is new again
        payload = json.loads(baseline.read_text())
        removed = payload["findings"].pop()
        baseline.write_text(json.dumps(payload))
        assert main(self._argv(BAD, "--baseline", str(baseline))) == 1
        assert removed["rule"] in capsys.readouterr().out

    def test_baseline_tolerates_line_drift(self):
        found = lint_tree(BAD)
        shifted = [
            Finding(f.rule, f.path, f.line + 7, f.message) for f in found
        ]
        baseline = Baseline(shifted)
        assert all(baseline.covers(f) for f in found)

    def test_empty_baseline_file_is_no_baseline(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(self._argv(CLEAN, "--baseline", str(empty))) == 0

    def test_missing_package_root_errors(self):
        with pytest.raises(SystemExit):
            main(["/nonexistent/nowhere"])


# ----------------------------------------------------------------------
# The live tree ships lint-clean
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_live_tree_is_clean(self):
        findings = run_lint(str(REPO / "src" / "repro"))
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_seeded_violation_is_caught_live(self, tmp_path):
        """Copy the live tree, plant one wall-clock read in the core,
        and the linter must catch exactly it — proof the live run has
        teeth, not a scope hole."""
        import shutil

        shutil.copytree(REPO / "src" / "repro", tmp_path / "repro")
        shutil.copytree(
            REPO / "tests", tmp_path / "tests",
            ignore=shutil.ignore_patterns("fixtures", "__pycache__"),
        )
        (tmp_path / "README.md").write_text(
            (REPO / "README.md").read_text()
        )
        if (REPO / "docs").is_dir():
            shutil.copytree(REPO / "docs", tmp_path / "docs")
        victim = tmp_path / "repro" / "core" / "state.py"
        victim.write_text(
            victim.read_text()
            + "\n\ndef _leak():\n    import time\n    return time.time()\n"
        )
        findings = run_lint(str(tmp_path / "repro"), repo_root=str(tmp_path))
        assert [f.rule for f in findings] == ["D101"]
        assert findings[0].path.endswith("core/state.py")


# ----------------------------------------------------------------------
# Static tables == runtime behavior
# ----------------------------------------------------------------------
class TestContractTables:
    def test_registry_contract_matches_live_registries(self):
        from repro.contracts import verify_registry_contract

        verify_registry_contract()  # raises on drift

    def test_registry_contract_diff_is_field_level(self, monkeypatch):
        import repro.contracts as contracts

        broken = dict(contracts.REGISTRY_AXES)
        broken["daemon"] = dict(broken["daemon"])
        broken["daemon"]["names"] = ("synchronous",)  # drop the rest
        monkeypatch.setattr(contracts, "REGISTRY_AXES", broken)
        with pytest.raises(ValueError, match="registered but undeclared"):
            contracts.verify_registry_contract()

    def test_hash_participation_matches_hash_payload(self):
        """The table --dry-run prints is exactly the payload key set of
        a default-axes config (plus nothing, minus nothing)."""
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.store import _hash_payload, hash_participation

        hashed, neutral = hash_participation()
        config = ScenarioConfig(protocol="ss-spst-t", seed=3)
        payload = _hash_payload(config)
        assert set(payload) == set(hashed)
        for name, default in neutral.items():
            assert getattr(config, name) == default

    def test_dry_run_prints_hash_participation(self, capsys):
        from repro.experiments.campaign import main as campaign_main

        code = campaign_main(
            ["--figure", "fig07", "--seeds", "1", "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# hash-participating fields (23):" in out
        assert "# hash-neutral at default (14):" in out
        assert "daemon='distributed'" in out
