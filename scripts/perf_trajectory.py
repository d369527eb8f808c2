#!/usr/bin/env python
"""Record and gate the simulator's speed with the repository benchmark.

``BENCH_perf.json`` at the repo root is the ledger of ``perfbench/run.py``
results, one entry per change, so the harness's cost is reviewed like any
other diff.  ``BENCHMARK.json`` names the command, the workloads, the run
budget and every metric's unit, direction and bound; this script keeps no
table of its own.  Two verbs::

    python scripts/perf_trajectory.py append   # record a new entry
    python scripts/perf_trajectory.py check    # gate this checkout

``append`` runs every workload at seed 1 for ``run_seconds``: three
untraced runs and one traced run.  It appends one entry holding each
end-to-end metric of all three runs, the traced per-layer split, every
per-layer work count and the host part of perfbench's fingerprint
(python, nproc, platform).  Run it on the machine that defines the
reference numbers and commit the result.

``check`` compares this checkout against the latest entry:

* Work counts (per-layer metrics whose unit is ``count``) come from one
  traced run at the smallest budget.  perfbench takes them from the first
  traced pass, so they are exact and host-independent.  A count that moves
  in its worse direction fails; a move the other way is printed.
* End-to-end metrics come from one untraced run per workload at the
  entry's budget.  They are gated only when this host's fingerprint equals
  the entry's: each must stay within its bound of the worst of the entry's
  three runs.  On any other host they are printed and not gated.

Every run must be ``correct`` with no failed operation.  ``check`` writes
the two JSON lines of each perfbench run it makes to ``perf_check.jsonl``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The committed ledger (append-only entries, newest last).
TRAJECTORY = REPO_ROOT / "BENCH_perf.json"

#: The benchmark declaration: command, workloads, budget, metrics.
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

#: Where ``check`` leaves the perfbench output it judged.
CHECK_LINES = REPO_ROOT / "perf_check.jsonl"

#: Bumped when the ledger layout changes.
TRAJECTORY_SCHEMA = 2

#: The tuning seed; perfbench holds seed 12 out for checking claims.
SEED = 1

#: Untraced runs per workload in an entry.
RUNS = 3

#: The part of perfbench's fingerprint that names the host.
HOST_KEYS = ("python", "nproc", "platform")


def _fail(message: str) -> NoReturn:
    print(f"perf_trajectory: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def load_trajectory() -> dict:
    if not TRAJECTORY.is_file():
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    data = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    if data.get("schema") != TRAJECTORY_SCHEMA:
        _fail(
            f"{TRAJECTORY.name} has schema {data.get('schema')!r}, "
            f"this tool expects {TRAJECTORY_SCHEMA}"
        )
    return data


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run, parsed by :func:`parse_run`."""
    command = [*load_benchmark()["command"], "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    print(" ".join(command), file=sys.stderr, flush=True)
    proc = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                          text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        _fail(f"perfbench exited {proc.returncode}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """perfbench's last two lines: the result, with the detail as ``detail``."""
    detail, result = stdout.strip().splitlines()[-2:]
    return {**json.loads(detail), **json.loads(result)}


def host(run: dict) -> dict:
    fingerprint = run["detail"]["fingerprint"]
    return {key: fingerprint[key] for key in HOST_KEYS}


def value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def run_failures(run: dict, workload: str, seed: int) -> list[str]:
    """Refuse a run of another workload or seed; report a failed one."""
    detail = run["detail"]
    if (detail["workload"], detail["seed"]) != (workload, seed):
        _fail(f"a {detail['workload']} run at seed {detail['seed']} cannot "
              f"be compared with the entry's {workload} at seed {seed}")
    if run["correct"] is not True or run["failed"]:
        return [f"{workload} trace {detail['trace']}: correct "
                f"{run['correct']}, {run['failed']} of {run['attempted']} "
                "operations failed"]
    return []


def workload_record(benchmark: dict, plain: list[dict], traced: dict) -> dict:
    """What an entry keeps of one workload's runs."""
    layers = benchmark["per_layer"]
    return {
        "end_to_end": {
            metric["name"]: [value(run, metric["name"]) for run in plain]
            for metric in benchmark["end_to_end"]
        },
        "per_layer": {
            metric["name"]: value(traced, metric["name"])
            for metric in layers if metric["unit"] != "count"
        },
        "counts": {
            metric["name"]: value(traced, metric["name"])
            for metric in layers if metric["unit"] == "count"
        },
    }


def judge(entry: dict, benchmark: dict, traced: dict[str, dict],
          plain: dict[str, dict]) -> list[str]:
    """Gate fresh runs (per workload) against ``entry``; return failures."""
    failures: list[str] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        recorded = entry["workloads"].get(workload)
        if recorded is None:
            failures.append(f"{workload}: not in the entry; run append")
            continue
        for run in (traced[workload], plain[workload]):
            failures += run_failures(run, workload, entry["seed"])

        print(f"{workload}: work counts (traced, seed {entry['seed']})")
        for metric in benchmark["per_layer"]:
            if metric["unit"] != "count":
                continue
            name, before = metric["name"], recorded["counts"][metric["name"]]
            now = value(traced[workload], name)
            worse = now > before if metric["better"] == "lower" else now < before
            verdict = "WORSE" if worse else "better" if now != before else "="
            print(f"  {name:32s} {now:>12} entry {before:>12}  {verdict}")
            if worse:
                failures.append(f"{workload} {name}: {now} against the "
                                f"entry's {before} ({metric['better']} is better)")

        fresh = plain[workload]
        gated = host(fresh) == entry["host"]
        if gated:
            print(f"{workload}: end to end, gated against the worst of "
                  f"the entry's {RUNS} runs")
        else:
            moved = {k: (entry["host"][k], v) for k, v in host(fresh).items()
                     if entry["host"][k] != v}
            print(f"{workload}: end to end, NOT gated: host differs {moved}")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs = recorded["end_to_end"][name]
            now = value(fresh, name)
            if metric["better"] == "lower":
                worst = max(runs)
                limit = worst * (1 + bound)
                worse = now > limit
            else:
                worst = min(runs)
                limit = worst * (1 - bound)
                worse = now < limit
            verdict = ("WORSE" if worse else "ok") if gated else "not gated"
            print(f"  {name:32s} {now:12.6g} worst {worst:12.6g} "
                  f"limit {limit:12.6g} {metric['unit']}  {verdict}")
            if gated and worse:
                failures.append(f"{workload} {name}: {now:.6g} is past "
                                f"{limit:.6g} ({bound:.0%} from the entry's "
                                f"worst run, {worst:.6g})")
    return failures


def cmd_append() -> int:
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]
    trajectory = load_trajectory()
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        plain = [perfbench(workload, SEED, seconds, 0) for _ in range(RUNS)]
        traced = perfbench(workload, SEED, seconds, 1)
        failures = [f for run in (*plain, traced)
                    for f in run_failures(run, workload, SEED)]
        if failures:
            _fail("not recording failed runs: " + "; ".join(failures))
        workloads[workload] = workload_record(benchmark, plain, traced)
    fingerprint = traced["detail"]["fingerprint"]
    entry = {
        "commit": fingerprint["commit"],
        "code_version": fingerprint["code_version"],
        "host": host(traced),
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
    }
    trajectory["entries"].append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n",
                          encoding="utf-8")
    print(f"appended entry {entry['commit']} on {entry['host']}")
    print(f"wrote {TRAJECTORY}")
    return 0


def cmd_check() -> int:
    benchmark = load_benchmark()
    entries = load_trajectory()["entries"]
    if not entries:
        _fail(f"{TRAJECTORY.name} has no entry yet; run append first")
    entry = entries[-1]
    names = [w["name"] for w in benchmark["workloads"]]
    # Counts from the smallest budget: perfbench always runs one untraced
    # and one traced pass, and the counts come from the traced one.
    traced = {w: perfbench(w, entry["seed"], 0, 1) for w in names}
    plain = {w: perfbench(w, entry["seed"], entry["seconds"], 0) for w in names}
    with CHECK_LINES.open("w", encoding="utf-8") as out:
        for run in (*traced.values(), *plain.values()):
            result = {k: v for k, v in run.items() if k != "detail"}
            out.write(json.dumps({"detail": run["detail"]}) + "\n")
            out.write(json.dumps(result) + "\n")
    print(f"comparing against entry {entry['commit']} on {entry['host']}")
    failures = judge(entry, benchmark, traced, plain)
    if failures:
        print("perf_trajectory: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("perf_trajectory: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("append", help="record fresh benchmark runs as the newest entry")
    sub.add_parser("check", help="fail when this checkout regresses against the entry")
    mode = parser.parse_args(argv).mode
    return cmd_append() if mode == "append" else cmd_check()


if __name__ == "__main__":
    sys.exit(main())
