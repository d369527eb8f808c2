#!/usr/bin/env python3
"""The repository benchmark: paper experiments timed end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload sec4_design_matrix --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --record                  # rewrite reference.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus the tracing overhead).  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the run's details
(fingerprint, seeds, failed checks).  See README.md for the workloads and
the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("sec4_design_matrix", "service_mixed")
#: Seed reserved for checking a claim after tuning on another seed.
HELD_OUT_SEED = 12

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "peak_rss_mb": "MB",
    "rtt_p50_ms": "ms",
    "rtt_p90_ms": "ms",
    "ops_per_s": "1/s",
}

#: Per-layer span metrics: name -> (tracer layer, "self" seconds or "calls").
SPANS = {
    "cores.sm.step_self_s": ("cores.sm", "self"),
    "cores.sm.steps": ("cores.sm", "calls"),
    "cache.l1.self_s": ("cache.l1", "self"),
    "cache.l1.calls": ("cache.l1", "calls"),
    "sim.engine_self_s": ("sim.engine", "self"),
    "sim.wake_s": ("sim.wake", "self"),
    "sim.fast_forward_s": ("sim.fast_forward", "self"),
    "icnt.step_self_s": ("icnt", "self"),
    "icnt.steps": ("icnt", "calls"),
    "cache.l2.step_s": ("cache.l2", "self"),
    "cache.l2.steps": ("cache.l2", "calls"),
    "dram.step_s": ("dram", "self"),
    "dram.steps": ("dram", "calls"),
    "gpu.build_s": ("gpu.build", "self"),
    "core.collect_metrics_s": ("core.collect_metrics", "self"),
    "runner.job_key_s": ("runner.job_key", "self"),
    "runner.store_get_s": ("runner.store_get", "self"),
    "runner.store_gets": ("runner.store_get", "calls"),
    "runner.store_put_s": ("runner.store_put", "self"),
    "runner.store_puts": ("runner.store_put", "calls"),
    "runner.batch_self_s": ("runner.batch", "self"),
    "runner.execute_self_s": ("runner.execute", "self"),
    "core.export_s": ("core.export", "self"),
    "service.submit_s": ("service.submit", "self"),
    "service.status_s": ("service.status", "self"),
    "service.results_s": ("service.results", "self"),
    "service.execute_self_s": ("service.execute", "self"),
}
#: Tracer counters that are not spans.
COUNTERS = ("sim.cycles", "sim.cycles_fast_forwarded", "runner.store_hits",
            "service.queue_wait_s")
#: Layers that simulate (their sum is the simulator's share of host time).
SIM_LAYERS = ("cores.sm", "cache.l1", "sim.engine", "sim.wake", "sim.fast_forward",
              "icnt", "cache.l2", "dram", "gpu.build", "core.collect_metrics")
MEMORY_LAYERS = ("icnt", "cache.l2", "dram")


def fingerprint() -> dict[str, object]:
    """What makes results comparable: code, interpreter and machine."""
    from repro.runner import code_version

    commit = None
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        commit = (
            (ROOT / ".git" / ref[5:]).read_text().strip()
            if ref.startswith("ref: ") else ref
        )
    except OSError:
        pass  # not a git checkout: code_version identifies the sources
    return {
        "commit": commit,
        "code_version": code_version(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def measure(workload, seconds: float, trace: bool) -> list:
    """Timed passes until the next would overrun ``seconds``.

    With ``trace``, passes alternate untraced and traced (at least one
    of each), so the overhead is measured inside one run.
    """
    from tracer import Tracer

    passes: list = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 else None
        gc.collect()  # start every pass from the same heap state
        began = time.perf_counter()
        passes.append((workload.run_pass(len(passes), tracer), tracer))
        durations.append(time.perf_counter() - began)
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + max(durations[-2:]) > seconds:
            return passes


def end_to_end(passes: list, workload) -> dict[str, float]:
    from common import percentile

    results = [r for r, _ in passes]
    wall = workload.wall_s(results)
    ops = workload.op_latencies(results)
    return {
        "setup_s": statistics.median(workload.setup_s),
        "wall_s": wall,
        "sim_kcycles_per_s": statistics.median(r.sim_cycles for r in results) / wall / 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
        "rtt_p50_ms": percentile(ops, 0.5),
        "rtt_p90_ms": percentile(ops, 0.9),
        "ops_per_s": statistics.median(len(r.op_ms) for r in results) / wall,
    }


def per_layer(passes: list) -> dict[str, float]:
    from common import percentile
    from repro.runner import code_version

    plain = [r for r, t in passes if t is None]
    samples: dict[str, list[float]] = {}
    for result, tracer in passes:
        if tracer is None:
            continue
        self_ns, calls, counts = (tracer.merged(f) for f in ("self_ns", "calls", "counts"))
        row = {
            name: self_ns[layer] / 1e9 if kind == "self" else calls[layer]
            for name, (layer, kind) in SPANS.items()
        }
        row.update({name: counts[name] for name in COUNTERS})
        row["trace.host_s"] = result.wall_s
        for share, layers in (("share.sim_layers", SIM_LAYERS),
                              ("share.memory_layers", MEMORY_LAYERS)):
            row[share] = sum(self_ns[x] for x in layers) / 1e9 / result.wall_s
        for name, value in row.items():
            samples.setdefault(name, []).append(value)
    # Times vary run to run: take the median.  Counts are exact and, for
    # the service, differ per pass: take the first traced pass's.
    out = {
        name: int(values[0]) if units(name) == "count" else statistics.median(values)
        for name, values in samples.items()
    }
    plain_wall = statistics.median(r.wall_s for r in plain)
    out["trace.overhead_s"] = out["trace.host_s"] - plain_wall
    out["trace.overhead_frac"] = out["trace.overhead_s"] / plain_wall
    stored = [ms for r in plain for ms in r.by_class.get("stored", [])]
    out["service.stored_rtt_p50_ms"] = percentile(stored, 0.5) if stored else 0.0
    digest_runs = []
    for _ in range(3):
        start = time.perf_counter()
        code_version.__wrapped__()
        digest_runs.append(time.perf_counter() - start)
    out["runner.code_version_s"] = statistics.median(digest_runs)
    out.update(passes[0][0].model)
    return out


def units(name: str) -> str:
    from common import MODEL_COUNTS

    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in MODEL_COUNTS:
        return MODEL_COUNTS[name][2]
    if name.startswith("share.") or name.endswith("_frac"):
        return "frac"
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def run(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from sims import DriverWorkload
    from service import ServiceWorkload

    run_dir = Path(".perfbench-run") / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    trace = bool(args.trace)
    workload = None
    try:
        if args.workload == "service_mixed":
            workload = ServiceWorkload(args.seed, run_dir, child_env(), trace)
        else:
            workload = DriverWorkload(args.seed, child_env(), trace)
        passes = measure(workload, args.seconds, trace)
        metrics = per_layer(passes) if trace else end_to_end(passes, workload)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    results = [r for r, _ in passes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "passes": len(passes),
        "traced_passes": sum(1 for _, t in passes if t is not None),
        "pass_wall_s": [round(r.wall_s, 4) for r in results],
        "setup_samples_s": workload.setup_s,
        "failed_frac": failed / attempted,
        "checks": [c for r in results for c in r.checks][:20],
        **workload.details(results),
    }
    for name, value in sorted(metrics.items()):
        print(f"{name:32s} {value:14.6g} {units(name)}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    table = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(table.values()))["metrics"])
    print(f"{'metric':32s}" + "".join(f"{w:>22s}" for w in table))
    for metric in names:
        row = "".join(f"{table[w]['metrics'][metric]['value']:22.6g}" for w in table)
        print(f"{metric:32s}{row} {table[WORKLOADS[0]]['metrics'][metric]['unit']}")
    row = "".join(f"{r['failed'] / r['attempted']:22.6g}" for r in table.values())
    print(f"{'failed_frac':32s}{row} frac")
    return 0 if all(r["correct"] for r in table.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current model")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.record:
        sys.path.insert(0, str(SRC))
        from sims import REFERENCE_PATH, record_references

        REFERENCE_PATH.write_text(json.dumps(record_references(), indent=1) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
