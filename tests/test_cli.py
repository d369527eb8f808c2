"""CLI smoke tests (tiny config, heavily scaled down)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "nn"])
        assert args.config == "small"
        assert args.scale == 1.0

    @pytest.mark.parametrize("argv, timeline, sanitize", [
        ([], None, None),
        (["--timeline", "--sanitize"], 2000, 64),
        (["--timeline", "100", "--sanitize", "1"], 100, 1),
    ])
    def test_run_probe_flags_take_optional_values(
            self, argv, timeline, sanitize):
        args = build_parser().parse_args(["run", "nn", *argv])
        assert (args.timeline, args.sanitize) == (timeline, sanitize)

    @pytest.mark.parametrize("argv", [
        # A positional benchmark: --benchmarks would be ignored.
        ["run", "nn", "--benchmarks", "sc"],
        ["profile", "sc", "--benchmarks", "nn"],
        ["trace", "nn", "--benchmarks", "sc"],
        ["breakdown", "nn", "--benchmarks", "sc"],
        # validate always runs the whole suite.
        ["validate", "--benchmarks", "nn"],
        # replicate reads --seeds.
        ["replicate", "sc", "--seed", "3"],
        # run takes its window and epoch as --timeline / --sanitize values.
        ["run", "nn", "--config", "tiny", "--scale", "0.1", "--window", "50"],
        ["run", "nn", "--config", "tiny", "--scale", "0.1",
         "--sanitize-interval", "1"],
    ])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "lbm" in out and "leukocyte" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Flit size (crossbar)" in out
        assert "Memory pipeline width" in out

    def test_run(self, capsys):
        assert main(["run", "nn", "--config", "tiny", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "L2 accessQ full" in out

    def test_run_magic(self, capsys):
        assert main([
            "run", "nn", "--config", "tiny", "--scale", "0.1",
            "--magic-latency", "100",
        ]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_congestion(self, capsys):
        assert main([
            "congestion", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn", "leukocyte",
        ]) == 0
        out = capsys.readouterr().out
        assert "Section III" in out

    def test_latency_profile(self, capsys):
        assert main([
            "latency-profile", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn", "--latencies", "0", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_explore(self, capsys):
        assert main([
            "explore", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn",
        ]) == 0
        out = capsys.readouterr().out
        assert "Speedup over baseline" in out


class TestAnalysisCommands:
    def test_diagnose(self, capsys):
        assert main([
            "diagnose", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "leukocyte",
        ]) == 0
        out = capsys.readouterr().out
        assert "Bottleneck classification" in out

    def test_breakdown(self, capsys):
        assert main([
            "breakdown", "nn", "--config", "tiny", "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Latency breakdown" in out
        assert "congestion share" in out

    def test_replicate(self, capsys):
        assert main([
            "replicate", "nn", "--config", "tiny", "--scale", "0.1",
            "--seeds", "1", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Replication" in out and "CV" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert main([
            "export", str(target), "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn",
        ]) == 0
        assert target.exists()
        assert "benchmark" in target.read_text().splitlines()[0]

    def test_validate_parser_wiring(self):
        args = build_parser().parse_args(["validate", "--scale", "0.2"])
        assert args.scale == 0.2
        assert args.func.__name__ == "_cmd_experiment"


class TestTelemetryCommands:
    def test_run_timeline(self, capsys):
        assert main([
            "run", "nn", "--config", "tiny", "--scale", "0.1",
            "--timeline", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cycle-windowed telemetry" in out
        assert "dram bus util" in out

    def test_profile(self, capsys, tmp_path):
        target = tmp_path / "profile.json"
        assert main([
            "profile", "sc", "--config", "tiny", "--scale", "0.1",
            "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "Top-down cycle accounting" in out
        assert "conserved=true" in out
        document = json.loads(target.read_text())
        assert document["benchmark"] == "sc"
        assert sum(document["classes"].values()) == document["sm_cycles"]

    def test_profile_diff(self, capsys, tmp_path):
        target = tmp_path / "diff.json"
        assert main([
            "profile", "sc", "--config", "tiny", "--scale", "0.1",
            "--diff", "baseline", "l2", "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "Profile diff" in out
        assert "speedup" in out
        document = json.loads(target.read_text())
        assert document["a"]["config"] == "baseline"
        assert document["b"]["config"] == "l2"
        assert "classes_reclaimed" in document

    def test_profile_unknown_label_exits_2(self, capsys):
        assert main([
            "profile", "sc", "--config", "tiny", "--scale", "0.1",
            "--config-label", "turbo",
        ]) == 2
        assert "turbo" in capsys.readouterr().err

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        assert main([
            "trace", "nn", "--config", "tiny", "--scale", "0.1",
            "--out", str(target), "--stride", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "Per-hop latencies" in out
        trace = json.loads(target.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["stride"] == 1

    def test_export_json_format(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main([
            "export", str(target), "--format", "json",
            "--config", "tiny", "--scale", "0.1", "--benchmarks", "nn",
        ]) == 0
        assert "(json)" in capsys.readouterr().out
        runs = json.loads(target.read_text())
        assert runs[0]["benchmark"] == "nn"
        assert "full_fraction" in runs[0]["l2_accessq"]  # nested queues

    def test_repro_error_exits_2(self, capsys):
        # stride 0 reaches the telemetry UsageError, a ReproError:
        # main() reports it as a one-liner instead of a traceback.
        assert main([
            "trace", "nn", "--config", "tiny", "--scale", "0.1",
            "--stride", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "stride" in err
