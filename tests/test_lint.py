"""Tests for the hygiene rules REP001-005 (repro.analysis.static.hygiene).

One positive and one negative case per rule, the noqa escape hatch, the
hot-package inference from module names, the CLI exit codes — and the
meta check that the shipped source tree itself lints clean.
"""

from pathlib import Path

import pytest

from repro.analysis.static import analyze_paths, run_static
from repro.analysis.static.modgraph import parse_source
from repro.analysis.static.runner import analyze_modules
from repro.errors import UsageError

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def findings(source, path):
    """Every active finding for one module's source, in line order."""
    return analyze_modules([parse_source(source, path)]).active


def codes(source, path="src/repro/core/x.py"):
    return [f.rule for f in findings(source, path)]


class TestREP001Nondeterminism:
    def test_global_random_flagged(self):
        assert codes("import random\nx = random.random()\n") == ["REP001"]

    def test_global_randint_flagged(self):
        assert codes("import random\nx = random.randint(0, 7)\n") == ["REP001"]

    def test_imported_random_name_flagged(self):
        source = "from random import shuffle\nshuffle(items)\n"
        assert codes(source) == ["REP001"]

    def test_seeded_generator_allowed(self):
        source = "import random\nrng = random.Random(1)\nx = rng.random()\n"
        assert codes(source) == []

    def test_wall_clock_flagged(self):
        assert codes("import time\nt = time.time()\n") == ["REP001"]
        assert codes("import time\nt = time.perf_counter()\n") == ["REP001"]

    def test_datetime_now_flagged(self):
        source = "import datetime\nt = datetime.datetime.now()\n"
        assert codes(source) == ["REP001"]


class TestREP002Assert:
    def test_assert_flagged(self):
        assert codes("assert x is not None\n") == ["REP002"]

    def test_raise_instead_passes(self):
        source = (
            "from repro.errors import SimulationError\n"
            "if x is None:\n"
            "    raise SimulationError('x vanished')\n"
        )
        assert codes(source) == []


class TestREP003ExceptionHierarchy:
    def test_builtin_raise_flagged(self):
        assert codes("raise ValueError('bad')\n") == ["REP003"]
        assert codes("raise RuntimeError('bad')\n") == ["REP003"]

    def test_repro_error_allowed(self):
        assert codes("raise SimulationError('bad')\n") == []
        assert codes("raise errors.ConfigError('bad')\n") == []

    def test_usage_error_allowed(self):
        assert codes("raise UsageError('bad')\n") == []

    def test_not_implemented_allowed(self):
        assert codes("raise NotImplementedError\n") == []

    def test_bare_reraise_allowed(self):
        assert codes("try:\n    f()\nexcept KeyError:\n    raise\n") == []

    def test_local_subclass_allowed(self):
        source = (
            "class MyError(SimulationError):\n"
            "    pass\n"
            "raise MyError('bad')\n"
        )
        assert codes(source) == []

    def test_unknown_name_not_flagged(self):
        # A name the linter cannot resolve is given the benefit of the doubt.
        assert codes("raise some_exception_factory()\n") == []


class TestREP004HotPathSlots:
    BARE = "from dataclasses import dataclass\n@dataclass\nclass P:\n    x: int\n"
    SLOTTED = (
        "from dataclasses import dataclass\n"
        "@dataclass(slots=True)\nclass P:\n    x: int\n"
    )

    def test_hot_path_dataclass_without_slots_flagged(self):
        assert codes(self.BARE, path="src/repro/mem/x.py") == ["REP004"]

    def test_hot_path_dataclass_with_slots_passes(self):
        assert codes(self.SLOTTED, path="src/repro/cache/x.py") == []

    def test_cold_path_dataclass_exempt(self):
        assert codes(self.BARE, path="src/repro/core/x.py") == []

    def test_hot_inferred_from_each_hot_package(self):
        for package in ("mem", "cache", "dram", "icnt", "cores"):
            path = f"src/repro/{package}/x.py"
            assert codes(self.BARE, path=path) == ["REP004"], package

    def test_hot_taken_from_module_name(self):
        # The package under the last ``repro`` directory decides; a path
        # with no module identity, or a module merely named like a hot
        # package, is cold.
        assert codes(self.BARE, path="lib/repro/dram/x.py") == ["REP004"]
        assert codes(self.BARE, path="cache/repro/core/x.py") == []
        assert codes(self.BARE, path="src/repro/runner/cache.py") == []
        assert codes(self.BARE, path="elsewhere.py") == []

    def test_plain_class_exempt(self):
        assert codes("class P:\n    pass\n", path="src/repro/mem/x.py") == []


class TestREP005FrozenConfigMutation:
    def test_direct_config_store_flagged(self):
        assert codes("config.l1_size = 4\n") == ["REP005"]

    def test_nested_config_store_flagged(self):
        assert codes("self._config.l1.assoc = 2\n") == ["REP005"]
        assert codes("self.cfg.dram.channels = 8\n") == ["REP005"]

    def test_augmented_store_flagged(self):
        assert codes("config.l1.assoc += 1\n") == ["REP005"]

    def test_binding_a_config_attribute_allowed(self):
        # Storing *the config itself* onto self is the normal idiom.
        assert codes("self.config = config\n") == []

    def test_reading_config_allowed(self):
        assert codes("assoc = config.l1.assoc\n") == []


class TestSuppression:
    def test_targeted_noqa(self):
        assert codes("assert x  # noqa: REP002\n") == []

    def test_bare_noqa(self):
        assert codes("assert x  # noqa\n") == []

    def test_noqa_for_other_code_does_not_suppress(self):
        assert codes("assert x  # noqa: REP001\n") == ["REP002"]


class TestEntryPoints:
    def test_syntax_error_raises_usage_error(self):
        with pytest.raises(UsageError, match="syntax error"):
            parse_source("def broken(:\n", "bad.py")

    def test_violations_sorted_by_line(self):
        source = "assert b\nassert a\n"
        assert [f.line for f in findings(source, "x.py")] == [1, 2]

    def test_render_format(self):
        finding = findings("assert x\n", "pkg/mod.py")[0]
        assert finding.render() == (
            "pkg/mod.py:1:0: REP002 assert vanishes under python -O; raise "
            "SimulationError (or another ReproError) for protocol violations"
        )

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "mem"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("assert x\n")
        (package / "good.py").write_text("x = 1\n")
        pycache = package / "__pycache__"
        pycache.mkdir()
        (pycache / "skipped.py").write_text("assert x\n")
        fixtures = package / "fixtures"
        fixtures.mkdir()
        (fixtures / "skipped.py").write_text("assert x\n")
        report = analyze_paths([str(tmp_path)])
        assert [f.rule for f in report.active] == ["REP002"]
        # A fixtures directory given as the root is still analysed.
        report = analyze_paths([str(fixtures)])
        assert [f.rule for f in report.active] == ["REP002"]

    def test_lint_paths_rejects_non_python(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(UsageError, match="not a python file"):
            analyze_paths([str(target)])

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert run_static([str(clean)], no_baseline=True) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert run_static([str(dirty)], no_baseline=True) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "1 violation(s)" in out


class TestShippedTreeIsClean:
    def test_src_lints_clean(self):
        # The tree the repo ships must satisfy its own hygiene rules.
        report = analyze_paths([str(REPO_SRC)])
        hygiene = [f for f in report.active if f.rule <= "REP005"]
        assert hygiene == []
