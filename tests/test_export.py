"""CSV/JSON export tests."""

import csv
import io
import json

from repro.core.explorer import explore_design_space
from repro.core.latency_profile import profile_latency_tolerance
from repro.core.metrics import run_kernel
from repro.sim.config import tiny_gpu
from repro.core.export import (
    exploration_to_dict,
    exploration_to_json,
    metrics_to_dict,
    metrics_to_nested_dict,
    profile_to_csv,
    run_fragment,
    runs_to_text,
    write_text,
)
from repro.workloads.suite import get_benchmark


class TestMetricsExport:
    def test_metrics_to_dict_flattens_queues(self):
        m = run_kernel(tiny_gpu(), get_benchmark("nn", 0.1))
        d = metrics_to_dict(m)
        assert d["benchmark"] == "nn"
        assert "l2_accessq_full_fraction" in d
        assert "dram_schedq_rejections" in d
        assert all(not isinstance(v, dict) for v in d.values())

    def test_metrics_to_csv_round_trip(self):
        runs = [
            run_kernel(tiny_gpu(), get_benchmark(n, 0.1))
            for n in ("nn", "leukocyte")
        ]
        text = runs_to_text(runs, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["benchmark"] for r in rows] == ["nn", "leukocyte"]
        assert float(rows[0]["ipc"]) > 0

    def test_empty_runs(self):
        assert runs_to_text([], "csv") == ""
        assert runs_to_text([], "json") == "[]"

    def test_fragments_join_to_the_whole_document(self):
        """Header plus per-run fragments is exactly the one-writer CSV
        and the one-``dumps`` JSON array, whether the items are runs or
        fragments rendered earlier."""
        runs = [
            run_kernel(tiny_gpu(), get_benchmark(n, 0.05))
            for n in ("nn", "sc", "nn")
        ]
        runs[0].extras["note"] = {"lines": "a\nb", "empty": {}}
        for count in range(len(runs) + 1):
            subset = runs[:count]
            out = io.StringIO()
            if subset:
                rows = [metrics_to_dict(m) for m in subset]
                writer = csv.DictWriter(out, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            whole = {
                "csv": out.getvalue(),
                "json": json.dumps(
                    [metrics_to_nested_dict(m) for m in subset], indent=2),
            }
            for fmt, text in whole.items():
                assert runs_to_text(subset, fmt) == text
                fragments = [run_fragment(m, fmt) for m in subset]
                assert runs_to_text(fragments, fmt) == text


class TestProfileExport:
    def test_profile_to_csv(self):
        profile = profile_latency_tolerance(
            "nn", tiny_gpu(), latencies=(0, 200), iteration_scale=0.1)
        rows = list(csv.DictReader(io.StringIO(profile_to_csv(profile))))
        assert [int(r["latency"]) for r in rows] == [0, 200]
        assert float(rows[0]["normalized_ipc"]) > float(
            rows[1]["normalized_ipc"])


class TestExplorationExport:
    def test_exploration_round_trips_through_json(self):
        result = explore_design_space(
            tiny_gpu(), benchmarks=("leukocyte",),
            configs={"baseline": (), "l2": ("l2",)}, iteration_scale=0.1)
        data = json.loads(exploration_to_json(result))
        assert data["benchmarks"] == ["leukocyte"]
        assert "l2" in data["speedups"]
        assert data["speedups"]["l2"]["leukocyte"] > 0
        assert data == exploration_to_dict(result)


class TestWriteText:
    def test_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.csv"
        write_text(target, "x,y\n1,2\n")
        assert target.read_text().startswith("x,y")

