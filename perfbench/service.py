"""The service workload: one ``repro serve`` daemon and one closed-loop client.

The client issues a seeded sequence of small ``tiny``-config sweep
submissions, one at a time.  An operation is one round trip: submit,
poll ``status`` until the submission settles, fetch ``results``.  Three
classes of submission exercise different paths through the daemon:

``cold``
    Jobs not yet in the store: the daemon simulates them and puts the
    results.
``stored``
    A new submission id whose jobs are all in the store already: the
    all-hit ``BatchRunner`` path plus store gets.
``coalesced``
    A repeat of a submission that is already done: answered from the
    daemon's registry, then results are read from the store.

Untraced runs talk to a daemon child process; traced runs host the same
daemon and socket server in-process, so the wrappers reach its verbs.
"""

from __future__ import annotations

import itertools
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.explorer import SECTION_IV_CONFIGS
from repro.core.export import runs_to_text
from repro.core.profile import config_for_label
from repro.runner import Job
from repro.service.client import ServiceClient
from repro.service.daemon import DONE, TERMINAL, ReproDaemon
from repro.service.protocol import ServiceError, sweep_spec
from repro.service.server import ServiceServer
from repro.sim.config import tiny_gpu
from repro.workloads.suite import PAPER_SUITE

from common import PassResult, model_counts
from tracer import Tracer

#: Iteration scale of every submitted job: one or two iterations per
#: warp, so a cold job simulates for a few milliseconds.
SCALE = 0.03
#: Operations per pass by class.  Reads outnumber writes so that service,
#: runner and export work, not simulation, dominates host time.  The
#: shares put ``rtt_p90_ms`` inside the cold (store-put) class and
#: ``rtt_p50_ms`` inside the stored (store-read) class, away from the
#: class boundaries.  Three cold ops admit exactly 12 stored orders.
CLASS_MIX = {"cold": 3, "stored": 12, "coalesced": 9}
#: Client ``status`` poll interval: well below the ~5 ms ``stored`` round
#: trip, so the poll does not quantize round-trip times (the CLI's 0.2 s
#: default would).
POLL_S = 0.001
#: Daemons spawned per untraced run to time set-up; the last one serves.
SETUP_REPEATS = 3
#: Give up on a daemon that does not answer ``ping`` within this.
START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Op:
    cls: str
    label: str
    benchmarks: tuple[str, ...]
    seed: int

    def spec(self) -> dict[str, Any]:
        return sweep_spec(
            config="tiny", configs=[self.label], benchmarks=list(self.benchmarks),
            seeds=[self.seed], scale=SCALE,
        )


def plan_pass(seed: int, index: int) -> list[Op]:
    """The seeded operation sequence of one pass.

    All ops of a pass share one Section IV label and a simulator seed
    unique to the pass, so cold jobs are never in the store.  A cold op
    is one new benchmark; a stored op names two or three earlier cold
    benchmarks in an order not submitted before (a new submission id);
    a coalesced op repeats an earlier op verbatim.
    """
    rng = random.Random(f"service:{seed}:{index}")
    sim_seed = seed * 1000 + index + 1
    label = rng.choice(list(SECTION_IV_CONFIGS))
    fresh = list(PAPER_SUITE)
    rng.shuffle(fresh)
    cold: list[str] = []
    issued: list[Op] = []
    submitted: set[tuple[str, ...]] = set()
    remaining = dict(CLASS_MIX)
    while any(remaining.values()):
        stored = [
            benches for size in (2, 3)
            for benches in itertools.permutations(cold, size)
            if benches not in submitted
        ]
        ready = [
            cls for cls, available in
            (("cold", True), ("stored", stored), ("coalesced", issued))
            if remaining[cls] and available
        ]
        cls = rng.choices(ready, [remaining[c] for c in ready])[0]
        remaining[cls] -= 1
        if cls == "cold":
            cold.append(fresh.pop())
            op = Op("cold", label, (cold[-1],), sim_seed)
        elif cls == "stored":
            op = Op("stored", label, rng.choice(stored), sim_seed)
        else:
            earlier = rng.choice(issued)
            op = Op("coalesced", label, earlier.benchmarks, sim_seed)
        submitted.add(op.benchmarks)
        issued.append(op)
    return issued


class DaemonProcess:
    """A ``repro serve`` child on a fresh socket and state dir."""

    def __init__(self, run_dir: Path, index: int, env: dict[str, str]) -> None:
        self.socket = run_dir / f"d{index}.sock"
        self.log = run_dir / f"d{index}.log"
        self.env = env
        self.state_dir = run_dir / f"state{index}"
        self.proc: subprocess.Popen[bytes] | None = None

    def start(self) -> float:
        """Spawn and wait until ``ping`` answers; returns the seconds taken."""
        start = time.perf_counter()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", str(self.socket), "--state-dir", str(self.state_dir),
                 "--workers", "1", "--jobs", "1"],
                env=self.env, stdout=log, stderr=log,
            )
        client = ServiceClient(socket_path=self.socket)
        while True:
            try:
                client.ping()
                return time.perf_counter() - start
            except ServiceError:
                if self.proc.poll() is not None or (
                    time.perf_counter() - start > START_TIMEOUT_S
                ):
                    self.stop()
                    raise RuntimeError(
                        f"daemon did not answer ping: {self.log.read_text()[-2000:]}"
                    ) from None
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the daemon, read from /proc."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class InProcessDaemon:
    """The daemon and socket server hosted in this process (traced runs)."""

    def __init__(self, run_dir: Path) -> None:
        self.socket = run_dir / "inproc.sock"
        self.daemon = ReproDaemon(run_dir / "state", workers=1, jobs=1)
        self.server = ServiceServer(self.daemon, socket_path=self.socket)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.server.request_stop()
        self.thread.join(30)
        self.daemon.stop(30)


class ServiceWorkload:
    def __init__(self, seed: int, run_dir: Path, env: dict[str, str], traced: bool) -> None:
        self.seed = seed
        self.setup_s: list[float] = []
        self.daemons: list[DaemonProcess] = []
        self.inproc: InProcessDaemon | None = None
        if traced:
            self.inproc = InProcessDaemon(run_dir)
            self.socket = self.inproc.socket
        else:
            for index in range(SETUP_REPEATS):
                if self.daemons:
                    self.daemons[-1].stop()
                daemon = DaemonProcess(run_dir, index, env)
                self.daemons.append(daemon)
                self.setup_s.append(daemon.start())
            self.socket = self.daemons[-1].socket
        self.client = ServiceClient(socket_path=self.socket)

    def _round_trip(self, op: Op) -> tuple[str, str]:
        """Submit, poll until settled, fetch; returns (text, problem)."""
        status = self.client.submit(op.spec())
        if status["coalesced"] != (op.cls == "coalesced"):
            return "", f"{op.cls} op came back coalesced={status['coalesced']}"
        while status["state"] not in TERMINAL:
            time.sleep(POLL_S)
            status = self.client.status(status["id"])
        if status["state"] != DONE:
            return "", f"submission {status['state']}: {status.get('error', '')}"
        return self.client.results(status["id"])["text"], ""

    def run_pass(self, index: int, tracer: Tracer | None = None) -> PassResult:
        ops = plan_pass(self.seed, index)
        latencies: list[float] = []
        texts: list[str] = []
        problems: list[str] = []
        daemon = self.inproc.daemon if self.inproc else None
        with tracer.installed(daemon) if tracer else nullcontext():
            start = time.perf_counter()
            for op in ops:
                began = time.perf_counter()
                try:
                    text, problem = self._round_trip(op)
                except ServiceError as exc:
                    text, problem = "", f"{exc.code}: {exc}"
                latencies.append((time.perf_counter() - began) * 1e3)
                texts.append(text)
                problems.append(problem)
            wall = time.perf_counter() - start
        # Reference: the same jobs run serially in this process.
        tiny = tiny_gpu()
        reference = {
            (op.label, bench): Job(
                config_for_label(tiny, op.label), bench, seed=op.seed,
                iteration_scale=SCALE,
            ).execute()
            for op in ops if op.cls == "cold" for bench in op.benchmarks
        }
        checks = []
        by_class: dict[str, list[float]] = {}
        for op, text, problem, rtt in zip(ops, texts, problems, latencies):
            by_class.setdefault(op.cls, []).append(rtt)
            expected = runs_to_text(
                [reference[(op.label, b)] for b in op.benchmarks], "csv"
            )
            if not problem and text != expected:
                problem = "results differ from the serial reference"
            if problem:
                checks.append(f"{op.cls} {op.label} {op.benchmarks}: {problem}")
        runs = list(reference.values())
        return PassResult(
            wall_s=wall,
            op_ms=latencies,
            sim_cycles=sum(m.cycles for m in runs),
            attempted=len(ops),
            failed=len(checks),
            model=model_counts(runs),
            checks=checks,
            by_class=by_class,
        )

    def op_latencies(self, results: list[PassResult]) -> list[float]:
        """Every round trip of every pass (each pass plans its own ops)."""
        return [ms for r in results for ms in r.op_ms]

    def wall_s(self, results: list[PassResult]) -> float:
        return statistics.median(r.wall_s for r in results)

    def peak_rss_mb(self) -> float:
        return self.daemons[-1].peak_rss_mb()

    def details(self, results: list[PassResult]) -> dict[str, object]:
        return {
            "poll_interval_ms": POLL_S * 1e3,
            "class_rtt_p50_ms": {
                cls: statistics.median(ms for r in results for ms in r.by_class[cls])
                for cls in CLASS_MIX
            },
        }

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()
        if self.inproc is not None:
            self.inproc.stop()
