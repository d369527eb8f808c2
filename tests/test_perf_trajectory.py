"""The perf ledger (``scripts/perf_trajectory.py``) on hand-built runs.

Every run here is a pair of perfbench output lines written by hand, so no
test runs the benchmark itself.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNT_NAMES = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]

#: Counts of ``sec4_design_matrix`` at seed 1; the rest are made up.
SEC4_COUNTS = {
    "sim.cycles": 107_528,
    "sim.cycles_fast_forwarded": 7_591,
    "cores.sm.steps": 799_496,
}
#: The entry's three untraced runs give ``wall_s`` 10, 11 and 12 s.
ENTRY_WALLS = (10.0, 11.0, 12.0)


def lines(workload, trace, *, seed=1, nproc=2, correct=True, failed=0,
          metrics=None):
    """The last two stdout lines of one perfbench run."""
    detail = {
        "workload": workload, "seed": seed, "held_out_seed": 12,
        "trace": trace,
        "fingerprint": {"commit": "0" * 40, "code_version": "0" * 16,
                        "python": "3.11.7", "nproc": nproc,
                        "platform": "Linux-x86_64"},
    }
    if trace:
        values = {m["name"]: (1_000 + i if m["unit"] == "count" else 0.5)
                  for i, m in enumerate(BENCHMARK["per_layer"])}
        if workload == "sec4_design_matrix":
            values.update(SEC4_COUNTS)
    else:
        values = {m["name"]: 1.0 for m in BENCHMARK["end_to_end"]}
        values["wall_s"] = ENTRY_WALLS[-1]
    values.update(metrics or {})
    units = {m["name"]: m["unit"]
             for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    result = {
        "correct": correct, "attempted": 48, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }
    return "\n".join([json.dumps({"detail": detail}), json.dumps(result)])


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """The script, writing to ``tmp_path``, with a hand-built perfbench."""
    spec = importlib.util.spec_from_file_location(
        "perf_trajectory", ROOT / "scripts" / "perf_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "TRAJECTORY", tmp_path / "BENCH_perf.json")
    monkeypatch.setattr(module, "CHECK_LINES", tmp_path / "perf_check.jsonl")
    walls = {w: iter(ENTRY_WALLS) for w in WORKLOADS}

    def perfbench(workload, seed, seconds, trace):
        metrics = None if trace else {"wall_s": next(walls[workload], 12.0)}
        return module.parse_run(lines(workload, trace, seed=seed,
                                      metrics=metrics))

    monkeypatch.setattr(module, "perfbench", perfbench)
    return module


@pytest.fixture
def entry(ledger):
    assert ledger.main(["append"]) == 0
    return json.loads(ledger.TRAJECTORY.read_text())["entries"][-1]


def judge(ledger, entry, workload="sec4_design_matrix", traced=None,
          plain=None):
    """Gate one workload's hand-built runs; the other stays as recorded."""
    runs = {w: (ledger.parse_run(lines(w, 1)), ledger.parse_run(lines(w, 0)))
            for w in WORKLOADS}
    runs[workload] = (ledger.parse_run(traced or lines(workload, 1)),
                      ledger.parse_run(plain or lines(workload, 0)))
    return ledger.judge(entry, BENCHMARK, {w: t for w, (t, _) in runs.items()},
                        {w: p for w, (_, p) in runs.items()})


def test_append_writes_a_schema_2_entry_that_check_passes(ledger, entry,
                                                          capsys):
    trajectory = json.loads(ledger.TRAJECTORY.read_text())
    assert trajectory["schema"] == 2 and len(trajectory["entries"]) == 1
    assert entry["host"] == {"python": "3.11.7", "nproc": 2,
                             "platform": "Linux-x86_64"}
    assert set(entry["workloads"]) == set(WORKLOADS)
    for record in entry["workloads"].values():
        assert set(record["counts"]) == set(COUNT_NAMES)
        assert record["end_to_end"]["wall_s"] == list(ENTRY_WALLS)
        assert "cores.sm.step_self_s" in record["per_layer"]
    assert entry["workloads"]["sec4_design_matrix"]["counts"][
        "cores.sm.steps"] == 799_496
    assert ledger.main(["check"]) == 0
    assert capsys.readouterr().out.endswith("perf_trajectory: ok\n")
    # Two perfbench lines per run: one traced and one untraced per workload.
    assert len(ledger.CHECK_LINES.read_text().splitlines()) == 4 * len(WORKLOADS)


@pytest.mark.parametrize("name, now", [
    ("cores.sm.steps", 799_497),
    # Fewer fast-forwarded cycles is worse: its better direction is higher.
    ("sim.cycles_fast_forwarded", 7_590),
])
def test_a_count_moving_worse_fails(ledger, entry, name, now):
    failures = judge(ledger, entry, traced=lines(
        "sec4_design_matrix", 1, metrics={name: now}))
    assert len(failures) == 1 and name in failures[0]


def test_a_count_falling_passes_and_is_printed(ledger, entry, capsys):
    assert judge(ledger, entry, traced=lines(
        "sec4_design_matrix", 1, metrics={"cores.sm.steps": 799_000})) == []
    printed = [line for line in capsys.readouterr().out.splitlines()
               if "cores.sm.steps" in line]
    assert "799000" in printed[0] and printed[0].endswith("better")


@pytest.mark.parametrize("wall, failed", [(14.9, False), (15.1, True)])
def test_a_same_host_wall_regression_beyond_its_bound_fails(
        ledger, entry, wall, failed):
    # The bound (25%) is taken from the worst of the entry's runs, 12 s.
    failures = judge(ledger, entry, plain=lines(
        "sec4_design_matrix", 0, metrics={"wall_s": wall}))
    assert bool(failures) is failed
    assert all("wall_s" in failure for failure in failures)


def test_a_wall_regression_on_another_host_is_not_gated(ledger, entry,
                                                        capsys):
    assert judge(ledger, entry, plain=lines(
        "sec4_design_matrix", 0, nproc=4, metrics={"wall_s": 20.0})) == []
    out = capsys.readouterr().out
    assert "NOT gated" in out
    assert any("wall_s" in line and line.endswith("not gated")
               for line in out.splitlines())


@pytest.mark.parametrize("trace, broken", [
    (0, {"correct": False}),
    (1, {"failed": 1}),
])
def test_a_failed_run_fails(ledger, entry, trace, broken):
    run = lines("service_mixed", trace, **broken)
    failures = judge(ledger, entry, "service_mixed",
                     **{"traced" if trace else "plain": run})
    assert len(failures) == 1 and "service_mixed" in failures[0]


def test_a_run_at_another_seed_is_refused(ledger, entry):
    with pytest.raises(SystemExit) as refused:
        judge(ledger, entry, traced=lines("sec4_design_matrix", 1, seed=12))
    assert refused.value.code == 2


def test_check_without_an_entry_is_refused(ledger):
    with pytest.raises(SystemExit) as refused:
        ledger.main(["check"])
    assert refused.value.code == 2
