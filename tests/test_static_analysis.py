"""Tests for the whole-program static verifier (repro.analysis.static).

Covers: each REP006-REP012 pass firing on its synthetic fixture, inline
suppression in both spellings, baseline load/match/stale/update behavior,
JSON and SARIF schema stability, fingerprint robustness to line drift,
the CLI entry points, and — the acceptance bar — a clean run over the
shipped tree.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import RULES, analyze_paths
from repro.analysis.static.baseline import Baseline
from repro.analysis.static.finding import Finding
from repro.analysis.static.modgraph import parse_source
from repro.analysis.static.runner import analyze_modules
from repro.analysis.static.suppress import codes_suppressed_on
from repro.cli import main as cli_main
from repro.errors import UsageError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "static"
SRC = REPO_ROOT / "src"


def _rules_found(report):
    return {finding.rule for finding in report.active}


def _findings_for(report, rule):
    return [f for f in report.active if f.rule == rule]


def _active(source, path):
    return analyze_modules([parse_source(source, path)]).active


class TestPassesOnFixtures:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_paths([str(FIXTURES)])

    @pytest.mark.parametrize(
        "rule", ["REP006", "REP007", "REP008", "REP009", "REP010",
                 "REP011", "REP012"])
    def test_each_rule_fires(self, report, rule):
        findings = _findings_for(report, rule)
        if not findings:
            pytest.fail(f"{rule} produced no findings on its fixture")
        for finding in findings:
            if finding.line <= 0:
                pytest.fail(f"{rule} finding has no line: {finding}")
            if rule not in ("REP012",) and finding.col < 0:
                pytest.fail(f"{rule} finding has no column: {finding}")

    def test_rep006_catches_every_bad_form(self, report):
        messages = " | ".join(
            f.message for f in _findings_for(report, "REP006"))
        for fragment in ("'soon'", "1.5", "boolean", "true-division",
                         "extra required parameter"):
            if fragment not in messages:
                pytest.fail(f"REP006 missed the {fragment} form: {messages}")

    def test_rep008_resolves_transitive_subclasses(self, report):
        paths = {f.path for f in _findings_for(report, "REP008")}
        if not any("rep008_bad_hooks" in p for p in paths):
            pytest.fail("REP008 did not resolve the two-level subclass")

    def test_rep012_reports_upward_and_cycle(self, report):
        messages = [f.message for f in _findings_for(report, "REP012")]
        if not any("must point downward" in m for m in messages):
            pytest.fail(f"no upward-import finding: {messages}")
        if not any("import cycle" in m for m in messages):
            pytest.fail(f"no cycle finding: {messages}")

    def test_sorted_iteration_not_flagged(self, report):
        for finding in _findings_for(report, "REP009"):
            if "fine" in finding.snippet or "sorted(" in finding.snippet:
                pytest.fail(f"sorted() iteration flagged: {finding}")

    def test_findings_sorted_and_rendered(self, report):
        keys = [(f.path, f.line, f.col, f.rule) for f in report.active]
        if keys != sorted(keys):
            pytest.fail("findings are not in (path, line, col) order")
        rendered = report.active[0].render()
        parts = rendered.split(":")
        if len(parts) < 4:
            pytest.fail(f"render() is not file:line:col: message: {rendered}")


class TestCleanTree:
    def test_shipped_src_is_clean_under_baseline(self):
        baseline = Baseline.load(REPO_ROOT / ".repro-static-baseline.json")
        report = analyze_paths([str(SRC)], baseline=baseline)
        if report.active:
            details = "\n".join(f.render() for f in report.active)
            pytest.fail(f"shipped tree has active findings:\n{details}")
        if not report.baselined:
            pytest.fail("expected the sanitizer id() entries to be baselined")
        if report.stale:
            pytest.fail(f"stale baseline entries: {report.stale}")

    def test_rule_registry_covers_all_codes(self):
        expected = {f"REP{n:03d}" for n in range(1, 13)}
        if set(RULES) != expected:
            pytest.fail(f"rule registry mismatch: {sorted(RULES)}")


class TestSuppression:
    def test_spellings(self):
        cases = {
            "x = 1  # repro: noqa[REP009]": {"REP009"},
            "x = 1  # repro: noqa[REP009,REP010]": {"REP009", "REP010"},
            "x = 1  # repro: noqa": {"*"},
            "x = 1  # noqa: REP009": {"REP009"},
            "x = 1  # noqa": {"*"},
            "x = 1": set(),
        }
        for text, want in cases.items():
            got = set(codes_suppressed_on(text))
            if got != want:
                pytest.fail(f"{text!r}: suppressed {got}, want {want}")

    def test_inline_suppression_silences_new_pass(self, tmp_path):
        bad = tmp_path / "repro" / "mem"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text(
            "def f(s):\n"
            "    for x in {1, 2}:  # repro: noqa[REP009]\n"
            "        s.append(x)\n"
        )
        report = analyze_paths([str(tmp_path)])
        if report.active:
            pytest.fail(f"suppressed finding leaked: {report.active}")
        if report.suppressed != 1:
            pytest.fail(f"suppressed count {report.suppressed}, want 1")

    def test_classic_rules_accept_bracket_spelling(self):
        source = "import time\nt = time.time()  # repro: noqa[REP001]\n"
        if _active(source, "src/repro/x.py"):
            pytest.fail("bracketed suppression ignored by the hygiene rules")

    def test_classic_rep002_exempt_under_tests(self):
        source = "def test_x():\n    assert 1 == 1\n"
        if _active(source, "tests/test_x.py"):
            pytest.fail("REP002 applied to test code")
        if not _active(source, "src/repro/x.py"):
            pytest.fail("REP002 missing on simulator code")


class TestBaseline:
    def _bad_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "mem"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "def f(out):\n"
            "    for x in {1, 2}:\n"
            "        out.append(x)\n"
        )
        return tmp_path

    def test_baselined_findings_do_not_fail(self, tmp_path):
        tree = self._bad_tree(tmp_path)
        first = analyze_paths([str(tree)])
        if len(first.active) != 1:
            pytest.fail(f"fixture should yield 1 finding: {first.active}")

        baseline_path = tmp_path / "baseline.json"
        Baseline.empty().save(baseline_path, first.active)
        baseline = Baseline.load(baseline_path)
        second = analyze_paths([str(tree)], baseline=baseline)
        if second.active:
            pytest.fail(f"baselined finding still active: {second.active}")
        if len(second.baselined) != 1 or second.stale:
            pytest.fail("baseline bookkeeping wrong")

    def test_fingerprint_survives_line_drift(self, tmp_path):
        tree = self._bad_tree(tmp_path)
        first = analyze_paths([str(tree)])
        baseline_path = tmp_path / "baseline.json"
        Baseline.empty().save(baseline_path, first.active)

        # Insert lines above the finding: line number changes, identity
        # must not.
        mod = tree / "repro" / "mem" / "mod.py"
        mod.write_text('"""Docstring pushes everything down."""\n\n\n'
                       + mod.read_text())
        report = analyze_paths(
            [str(tree)], baseline=Baseline.load(baseline_path))
        if report.active:
            pytest.fail("line drift broke the fingerprint match")

    def test_stale_entries_reported_and_expired(self, tmp_path):
        tree = self._bad_tree(tmp_path)
        first = analyze_paths([str(tree)])
        baseline_path = tmp_path / "baseline.json"
        Baseline.empty().save(baseline_path, first.active)

        # Fix the violation; the baseline entry must surface as stale.
        mod = tree / "repro" / "mem" / "mod.py"
        mod.write_text(
            "def f(out):\n"
            "    for x in sorted({1, 2}):\n"
            "        out.append(x)\n"
        )
        baseline = Baseline.load(baseline_path)
        report = analyze_paths([str(tree)], baseline=baseline)
        if report.active or len(report.stale) != 1:
            pytest.fail(f"stale detection wrong: {report.stale}")

        # --update-baseline semantics: rewrite from current findings
        # drops the stale entry.
        count = baseline.save(baseline_path, report.active)
        if count != 0:
            pytest.fail("stale entry survived the baseline rewrite")
        if json.loads(baseline_path.read_text())["entries"]:
            pytest.fail("baseline file still has entries after rewrite")

    def test_update_preserves_justifications(self, tmp_path):
        tree = self._bad_tree(tmp_path)
        first = analyze_paths([str(tree)])
        baseline_path = tmp_path / "baseline.json"
        Baseline.empty().save(baseline_path, first.active)
        data = json.loads(baseline_path.read_text())
        data["entries"][0]["justification"] = "known benign ordering"
        baseline_path.write_text(json.dumps(data))

        baseline = Baseline.load(baseline_path)
        baseline.save(baseline_path, first.active)
        kept = json.loads(baseline_path.read_text())["entries"][0]
        if kept["justification"] != "known benign ordering":
            pytest.fail("justification lost across --update-baseline")

    def test_malformed_baseline_raises_usage_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(UsageError):
            Baseline.load(bad)
        bad.write_text('{"version": 99, "entries": []}')
        with pytest.raises(UsageError):
            Baseline.load(bad)


class TestOutputs:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_paths([str(FIXTURES)])

    def test_json_schema(self, report):
        payload = json.loads(report.render("json"))
        for key in ("version", "tool", "findings", "baselined",
                    "stale_baseline"):
            if key not in payload:
                pytest.fail(f"JSON report missing {key!r}")
        finding = payload["findings"][0]
        for key in ("rule", "severity", "path", "line", "col", "message",
                    "fingerprint"):
            if key not in finding:
                pytest.fail(f"JSON finding missing {key!r}")

    def test_sarif_schema(self, report):
        log = json.loads(report.render("sarif"))
        if log["version"] != "2.1.0":
            pytest.fail(f"SARIF version {log['version']}")
        if "sarif-2.1.0" not in log["$schema"]:
            pytest.fail(f"unexpected $schema {log['$schema']}")
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        rule_ids = {rule["id"] for rule in driver["rules"]}
        if not {"REP001", "REP006", "REP012"} <= rule_ids:
            pytest.fail(f"driver rule table incomplete: {sorted(rule_ids)}")
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        if result["ruleId"] not in rule_ids:
            pytest.fail("result ruleId not in driver rules")
        if location["region"]["startLine"] < 1:
            pytest.fail("SARIF line numbers must be 1-based")
        if location["region"]["startColumn"] < 1:
            pytest.fail("SARIF column numbers must be 1-based")
        if "reproFingerprint/v1" not in result["partialFingerprints"]:
            pytest.fail("fingerprint missing from SARIF result")

    def test_sarif_marks_baselined_as_suppressed(self, tmp_path):
        shutil.copytree(FIXTURES, tmp_path / "tree")
        first = analyze_paths([str(tmp_path / "tree")])
        baseline_path = tmp_path / "baseline.json"
        Baseline.empty().save(baseline_path, first.active)
        report = analyze_paths(
            [str(tmp_path / "tree")], baseline=Baseline.load(baseline_path))
        log = json.loads(report.render("sarif"))
        results = log["runs"][0]["results"]
        if not results or not all("suppressions" in r for r in results):
            pytest.fail("baselined results not marked suppressed in SARIF")


class TestEntryPoints:
    def test_cli_static_exits_1_on_fixtures(self, capsys):
        code = cli_main(["lint", str(FIXTURES), "--no-baseline"])
        out = capsys.readouterr().out
        if code != 1:
            pytest.fail(f"exit code {code}, want 1")
        if "REP006" not in out or ":" not in out:
            pytest.fail(f"no file:line findings in output:\n{out}")

    def test_cli_static_clean_on_src_with_baseline(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = cli_main(["lint", "src"])
        capsys.readouterr()
        if code != 0:
            pytest.fail("shipped tree not clean through the CLI")

    def test_cli_writes_sarif_file(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "report.sarif"
        code = cli_main([
            "lint", str(FIXTURES), "--no-baseline",
            "--format", "sarif", "--output", str(out_path)])
        capsys.readouterr()
        if code != 1:
            pytest.fail(f"exit code {code}, want 1")
        log = json.loads(out_path.read_text())
        if log["version"] != "2.1.0":
            pytest.fail("SARIF file malformed")

    def test_module_entry_point_lint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(FIXTURES),
             "--no-baseline"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        if proc.returncode != 1:
            pytest.fail(
                f"python -m repro lint exit {proc.returncode}:\n"
                f"{proc.stdout}\n{proc.stderr}")
        if "REP012" not in proc.stdout:
            pytest.fail(f"REP012 missing from output:\n{proc.stdout}")

    def test_whole_tree_lints_clean(self, capsys, monkeypatch):
        # Directory walks skip tests/fixtures, so one run covers the tree.
        monkeypatch.chdir(REPO_ROOT)
        code = cli_main(["lint", "src", "tests", "scripts"])
        capsys.readouterr()
        if code != 0:
            pytest.fail("lint over src+tests+scripts not clean")

    def test_static_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "--static", "src"])
        capsys.readouterr()
        if exc.value.code != 2:
            pytest.fail(f"--static exit {exc.value.code}, want 2")


class TestFindingModel:
    def test_fingerprint_root_independent(self):
        a = Finding("REP009", "src/repro/mem/mod.py", 3, 4, "m", "for x in s:")
        b = Finding("REP009", "repro/mem/mod.py", 9, 4, "m", "for x in s:")
        if a.fingerprint != b.fingerprint:
            pytest.fail("fingerprint depends on the scan root")

    def test_fingerprint_changes_with_content(self):
        a = Finding("REP009", "repro/mem/mod.py", 3, 4, "m", "for x in s:")
        b = Finding("REP009", "repro/mem/mod.py", 3, 4, "m", "for y in s:")
        if a.fingerprint == b.fingerprint:
            pytest.fail("editing the flagged line must change identity")

    def test_severity_defaults(self):
        if Finding("REP006", "p", 1, 0, "m").severity != "error":
            pytest.fail("contract rules should be errors")
        if Finding("REP009", "p", 1, 0, "m").severity != "warning":
            pytest.fail("determinism heuristics should be warnings")
