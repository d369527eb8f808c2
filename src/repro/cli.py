"""Command-line interface.

Every experiment in the paper can be regenerated from the shell::

    repro suite                     # list the benchmark models
    repro table1                    # print Table I
    repro run lbm                   # run one benchmark, print its metrics
    repro run lbm --timeline        # ... plus per-window telemetry sparklines
    repro run lbm --sanitize 1      # ... with invariant checks every cycle
    repro profile lbm               # top-down cycle accounting + blame chains
    repro profile lbm --diff baseline l2  # explain a speedup as reclaimed stalls
    repro congestion                # Section III queue-occupancy study
    repro latency-profile           # Figure 1
    repro explore                   # Section IV design-space exploration
    repro diagnose                  # name each benchmark's bottleneck
    repro breakdown lbm             # per-hop latency breakdown of one kernel
    repro trace lbm --out trace.json  # Chrome/Perfetto trace of sampled requests
    repro replicate sc              # seed-sensitivity of one benchmark
    repro export out.csv            # dump suite metrics as CSV
    repro export out.json --format json  # ... or nested JSON
    repro validate                  # evaluate every claim of the paper
    repro campaign run DIR --configs baseline l2 --seeds 1 2  # sharded sweep
    repro campaign status DIR       # done/failed/claimed/pending + workers
    repro campaign resume DIR       # pick up a killed campaign, no rework
    repro serve --socket repro.sock           # simulation-as-a-service daemon
    repro submit --socket repro.sock --benchmarks nn sc --wait --out runs.csv
    repro status ID --socket repro.sock       # poll one submission
    repro results ID --socket repro.sock --out runs.csv
    repro cancel ID --socket repro.sock

All experiment commands accept ``--scale`` (iteration scale, default 1.0;
smaller is faster) and ``--config`` (small / fermi / tiny); each accepts
``--seed``, ``--seeds`` or ``--benchmarks`` only where it reads them.

Every command that simulates runs through the batch runner and
additionally accepts ``--jobs N`` (process-pool fan-out;
``--jobs 1`` stays in-process), ``--no-cache`` and ``--cache-dir``.  The
experiment commands (``congestion``, ``latency-profile``, ``explore``,
``diagnose``, ``replicate``, ``validate``) share one flag group and one
handler: each builds its experiment's plan, runs it, and prints the report.
Results are cached on disk keyed by config + kernel + seed + probes +
code version;
``repro cache info`` / ``repro cache clear`` / ``repro cache evict``
manage the store (``info`` also reports lifetime hit-rate statistics and
orphaned temp files).  Report output on stdout is byte-identical whatever
the parallelism or cache state — cache notes and truncation warnings go
to stderr.

``repro campaign run|status|resume`` shards a sweep (Section IV config
labels x benchmarks x seeds) into a persistent campaign directory that
any number of worker processes execute cooperatively: work units are
claimed through atomic claim files (stale claims of dead workers are
taken over after a heartbeat timeout), results land in one shared store,
and a killed campaign resumes from exactly what is done.  The merged
export (``--out``) is byte-identical to running the same sweep serially.

``repro serve`` runs the simulation service: a long-lived daemon
listening on a unix socket (``--socket PATH``) or loopback TCP
(``--port N``) whose JSON job API ``repro submit|status|results|cancel``
speaks.  Identical in-flight submissions from concurrent clients
coalesce onto one simulation pass; the submission queue is bounded
(typed ``queue-full`` backpressure); SIGTERM drains gracefully.  Results
fetched from the daemon are byte-identical to a local ``repro export``
of the same sweep.

Observability: ``repro run --timeline [CYCLES]`` attaches a
:class:`repro.telemetry.WindowSampler` and renders its timeline view as
cycle-windowed IPC / queue-congestion / occupancy sparklines (the optional
value is the window length, default 2000); ``repro run --sanitize
[CYCLES]`` attaches the invariant sanitizer (the optional value is the
epoch interval, default 64); ``repro profile`` attaches a
:class:`repro.telemetry.WindowSampler` and renders its attribution view:
the top-down cycle-accounting tree plus back-pressure blame chains
(``--window`` sets the window length; ``--diff A B``
explains the speedup between two Section IV config labels as reclaimed
stall cycles; ``--json`` exports the document); ``repro trace`` attaches
the :class:`repro.telemetry.RequestTracer` and writes Chrome trace-event
JSON (open in chrome://tracing or https://ui.perfetto.dev) along with a
per-hop latency digest (``--stride`` / ``--limit`` control sampling).
Batch commands additionally accept ``--events PATH`` (append a JSONL
runner event log: job start/finish with wall times, cache hits, retries,
pool utilization) and ``--progress`` (a one-line stderr ticker).

Errors deriving from :class:`repro.errors.ReproError` (bad usage, cycle
limits, sanitizer violations) print as ``error: ...`` on stderr with exit
code 2 instead of a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Sequence

from repro.core.congestion import congestion_plan
from repro.core.latency_breakdown import breakdown_plan, congestion_share
from repro.core.design_space import render_table_i
from repro.core.explorer import exploration_plan
from repro.core.latency_profile import latency_profile_plan
from repro.core.metrics import ProbeSpec, RunMetrics
from repro.core.profile import (
    config_for_label,
    diagnosis_plan,
    profile_diff,
    profile_plan,
    render_diagnoses,
    sweep_matrix,
)
from repro.core.replication import replication_plan
from repro.core.validation import validation_plan
from repro.core.export import export_runs, write_text
from repro.errors import ReproError, UsageError
from repro.core.report import (
    render_congestion,
    render_figure1,
    render_profile,
    render_profile_diff,
    render_section_iv,
    render_timeline,
)
from repro.core.synergy import analyze_synergy
from repro.runner import (
    BatchRunner,
    CampaignManifest,
    CampaignWorker,
    EventLog,
    Job,
    ResultCache,
    campaign_results,
    campaign_status,
    render_status,
)
from repro.runner.campaign import (
    DEFAULT_POLL,
    DEFAULT_STALE_AFTER,
    default_store,
)
from repro.runner.plan import Plan, combine
from repro.service import (
    DEFAULT_QUEUE_DEPTH,
    ReproDaemon,
    ServiceClient,
    serve as service_serve,
    sweep_spec,
)
from repro.service.protocol import NAMED_CONFIGS as _CONFIGS
from repro.runner.cache import default_cache_dir
from repro.sim.config import GPUConfig
from repro.telemetry import (
    DEFAULT_TRACE_LIMIT,
    DEFAULT_TRACE_STRIDE,
    DEFAULT_WINDOW,
)
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE, SPECS


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", choices=sorted(_CONFIGS), default="small",
        help="architecture configuration (default: small)")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="benchmark iteration scale; < 1 runs faster (default: 1.0)")


def _add_common(
    parser: argparse.ArgumentParser, *, seed: bool = True,
    benchmarks: bool = True,
) -> None:
    _add_config(parser)
    if seed:
        parser.add_argument("--seed", type=int, default=1)
    if benchmarks:
        parser.add_argument(
            "--benchmarks", nargs="*", default=list(PAPER_SUITE),
            metavar="NAME", help="subset of the suite to run")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    """The Section IV sweep matrix flags of ``campaign run`` and ``submit``."""
    _add_config(parser)
    parser.add_argument(
        "--benchmarks", nargs="*", default=list(PAPER_SUITE),
        metavar="NAME", help="benchmarks in the sweep (default: the suite)")
    parser.add_argument(
        "--seeds", nargs="*", type=int, default=[1], metavar="SEED",
        help="seeds in the sweep (default: 1)")
    parser.add_argument(
        "--configs", nargs="*", default=["baseline"], metavar="LABEL",
        help="Section IV scaling labels in the sweep (baseline, l1, l2, "
             "dram, l1+l2, l2+dram; default: baseline)")


def _add_runner(parser: argparse.ArgumentParser) -> None:
    """Batch-execution flags for commands ported onto repro.runner."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the batch (default: all CPUs; 1 runs "
             "in-process)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this invocation")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="append a JSONL runner event log (job start/finish with wall "
             "times, cache hits, retries, pool utilization) to PATH")
    parser.add_argument(
        "--progress", action="store_true",
        help="show a one-line progress ticker on stderr while the batch "
             "runs (stdout output is unaffected)")


def _run_jobs(args: argparse.Namespace, jobs: Sequence[Job]) -> list[RunMetrics]:
    """Run ``jobs`` on the runner the command's flags describe.

    Cache reuse and truncated runs are noted on stderr, so report output
    on stdout stays byte-identical across ``--jobs`` settings and
    cold/warm cache runs.  The ``--events`` log closes on return.
    """
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    log = EventLog(args.events) if args.events else contextlib.nullcontext()
    with log as events:
        runner = BatchRunner(
            jobs=args.jobs, cache=cache, events=events,
            progress=args.progress)
        runs = runner.run(jobs)
    stats = runner.last_stats
    if stats.cache_hits:
        print(
            f"cache: {stats.cache_hits} of {stats.unique} job(s) served "
            f"from cache ({stats.executed} executed)",
            file=sys.stderr)
    # A job submitted twice returns one shared metrics object.
    truncated = len({id(m) for m in runs if m.truncated})
    if truncated:
        print(
            f"warning: {truncated} run(s) hit the cycle limit; their "
            "metrics are truncated lower bounds",
            file=sys.stderr)
    return runs


def _config(args: argparse.Namespace) -> GPUConfig:
    return _CONFIGS[args.config]()


def _report_sim_profile(profiler, args: argparse.Namespace) -> None:
    """Print the cProfile top-N to stderr; optionally dump pstats data.

    Output goes to stderr so the metrics table on stdout stays
    byte-identical with and without profiling.
    """
    import pstats

    top = args.profile_sim if args.profile_sim is not None else 25
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(top)
    if args.profile_out:
        profiler.dump_stats(args.profile_out)
        print(f"wrote profile data to {args.profile_out}", file=sys.stderr)


def _cmd_suite(_args: argparse.Namespace) -> int:
    rows = [
        [name, spec.pattern, spec.iterations,
         spec.loads_per_iter * spec.txns_per_load, spec.compute_per_iter,
         spec.description[:58]]
        for name, spec in SPECS.items()
    ]
    print(render_table(
        ["benchmark", "pattern", "iters", "txns/iter", "compute/iter",
         "description"],
        rows, title="Synthetic models of the paper's benchmark suite",
        align="llrrrl"))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table_i())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.magic_latency is not None:
        config = config.with_magic_memory(args.magic_latency)
    probes = None
    if args.sanitize is not None or args.timeline is not None:
        probes = ProbeSpec(sanitize_interval=args.sanitize,
                           timeline_window=args.timeline)
    job = Job(config, args.benchmark, seed=args.seed,
              iteration_scale=args.scale, probes=probes)
    if args.profile_sim is not None or args.profile_out is not None:
        # cProfile sees only this process's frames: execute the job
        # here, never in a pool worker or from the cache.
        import cProfile

        with cProfile.Profile() as profiler:
            metrics = job.execute()
        _report_sim_profile(profiler, args)
    else:
        [metrics] = _run_jobs(args, [job])
    rows = [
        ["cycles", metrics.cycles],
        ["instructions", metrics.instructions],
        ["IPC", f"{metrics.ipc:.3f}"],
        ["L1 hit rate", f"{metrics.l1_hit_rate:.1%}"],
        ["L2 hit rate", f"{metrics.l2_hit_rate:.1%}"],
        ["avg L1 miss latency", f"{metrics.l1_avg_miss_latency:.0f} cy"],
        ["L1 missQ full (of busy)", f"{metrics.l1_missq.full_fraction:.1%}"],
        ["L2 accessQ full (of busy)", f"{metrics.l2_accessq.full_fraction:.1%}"],
        ["L2 respQ full (of busy)", f"{metrics.l2_respq.full_fraction:.1%}"],
        ["DRAM schedQ full (of busy)", f"{metrics.dram_schedq.full_fraction:.1%}"],
        ["DRAM row-hit rate", f"{metrics.dram_row_hit_rate:.1%}"],
        ["DRAM bus utilization", f"{metrics.dram_bus_utilization:.1%}"],
        ["DRAM reads / writes", f"{metrics.dram_reads} / {metrics.dram_writes}"],
        ["mem-pipeline stall cycles", metrics.mem_pipeline_stall_cycles],
    ] + [
        [f"  {cause}", cycles]
        for cause, cycles in metrics.mem_stall_cycles_by_cause.items()
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"{args.benchmark} on {args.config} (scale {args.scale})"))
    sanitizer = metrics.extras.get("sanitizer")
    if sanitizer:
        print(
            f"\nsanitizer: {sanitizer['checks_run']} checks, "
            f"{sanitizer['requests_tracked']} requests tracked, "
            f"{sanitizer['requests_retired']} retired, "
            f"{sanitizer['requests_in_flight']} in flight — all invariants held"
        )
    timeline = metrics.extras.get("timeline")
    if timeline is not None:
        print()
        print(render_timeline(timeline))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _config(args)
    plan = combine([
        profile_plan(
            config_for_label(config, label),
            args.benchmark,
            config_label=label,
            iteration_scale=args.scale,
            seed=args.seed,
            window=args.window,
        )
        for label in (args.diff or [args.config_label])
    ])
    documents = plan.fold(_run_jobs(args, plan.jobs))
    if args.diff is not None:
        document = profile_diff(*documents)
        print(render_profile_diff(document))
    else:
        [document] = documents
        print(render_profile(document))
    if args.json:
        path = write_text(args.json, json.dumps(document, indent=2) + "\n")
        print(f"\nwrote profile JSON to {path}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    probes = ProbeSpec(trace_stride=args.stride, trace_limit=args.limit)
    [metrics] = _run_jobs(args, [
        Job(_config(args), args.benchmark, seed=args.seed,
            iteration_scale=args.scale, probes=probes)
    ])
    trace = metrics.extras["trace"]
    path = write_text(
        args.out, json.dumps(trace, separators=(",", ":")) + "\n")
    meta = trace["otherData"]
    spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(
        f"wrote {path}: {spans} spans from {meta['requests_sampled']} "
        f"sampled requests (of {meta['requests_created']} created, "
        f"stride {meta['stride']}) — open in chrome://tracing or "
        "https://ui.perfetto.dev"
    )
    hops = metrics.extras["trace_hops"]
    if hops:
        rows = [
            [h["hop"], h["count"], f"{h['mean']:.1f}",
             f"{h['p50']:.0f}", f"{h['p95']:.0f}"]
            for h in hops
        ]
        print()
        print(render_table(
            ["hop", "requests", "mean cy", "p50", "p95"], rows,
            title="Per-hop latencies over the sampled requests",
            align="lrrrr"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.static import run_static

    return run_static(
        args.paths,
        fmt=args.format,
        output=args.output,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
        no_baseline=args.no_baseline,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Every paper experiment: run its plan, print its rendered report."""
    plan = args.plan(args, _config(args))
    report = plan.fold(_run_jobs(args, plan.jobs))
    print(args.render(report))
    return 0 if args.passed(report) else 1


def _latency_profile_plan(args: argparse.Namespace, config: GPUConfig) -> Plan:
    latencies = args.latencies or list(range(0, 801, args.step))
    return combine([
        latency_profile_plan(
            name, config, latencies=latencies,
            iteration_scale=args.scale, seed=args.seed)
        for name in args.benchmarks
    ])


def _render_explore(result) -> str:
    text = render_section_iv(result, analyze_synergy(result))
    degraded = result.degraded_benchmarks("l1")
    if degraded:
        text += (f"\n\nIsolated L1 scaling degraded: {', '.join(degraded)} "
                 "(the paper's counter-productive case)")
    return text


def _render_replicate(report) -> str:
    return (f"{report.to_table()}\n\n"
            f"worst coefficient of variation: {report.worst_cv():.1%}")


def _cmd_breakdown(args: argparse.Namespace) -> int:
    config = _config(args)
    plan = breakdown_plan(
        config, args.benchmark, iteration_scale=args.scale, seed=args.seed)
    breakdown = plan.fold(_run_jobs(args, plan.jobs))
    print(breakdown.to_table())
    share = congestion_share(breakdown, config)
    print(
        f"\ncongestion share of the L2-miss round trip: {share:.0%} "
        "(latency beyond the unloaded path)"
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    runs = _run_jobs(args, sweep_matrix(
        _config(args), ["baseline"], args.benchmarks, [args.seed], args.scale))
    path = export_runs(runs, args.output, args.format)
    print(f"wrote {len(runs)} runs to {path} ({args.format})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        orphans = len(cache.orphan_temps())
        removed = cache.clear()
        note = f" (swept {orphans} orphaned temp file(s))" if orphans else ""
        print(
            f"removed {removed} cached result(s) from {cache.directory}{note}"
        )
    elif args.action == "evict":
        if args.max_bytes is None:
            raise UsageError("cache evict requires --max-bytes")
        evicted = cache.evict(args.max_bytes)
        count, size, _ = cache.stats()
        print(
            f"evicted {len(evicted)} entr(ies); cache {cache.directory}: "
            f"{count} entries, {size} bytes"
        )
    else:
        count, size, orphans = cache.stats()
        print(f"cache {cache.directory}: {count} entries, {size} bytes")
        if orphans:
            print(
                f"warning: {orphans} orphaned temp file(s) from killed "
                "writers (cache clear sweeps them)"
            )
        usage = cache.usage_stats()
        lookups = usage["hits"] + usage["misses"]
        if lookups:
            print(
                f"lifetime lookups: {lookups} ({usage['hits']} hits, "
                f"{usage['misses']} misses, "
                f"{usage['hits'] / lookups:.1%} hit rate over "
                f"{usage['batches']} batches)"
            )
    return 0


def _campaign_store(args: argparse.Namespace) -> ResultCache:
    """The campaign's shared store (default: ``<dir>/store``).

    Either way the store's eviction is manifest-protected: a size bound
    can never delete entries the campaign counts as done.
    """
    return default_store(
        args.directory,
        max_bytes=getattr(args, "store_max_bytes", None),
        cache_dir=args.cache_dir or None,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    store = _campaign_store(args)
    if args.action == "status":
        print(render_status(campaign_status(args.directory, cache=store)))
        return 0

    if args.action == "run":
        jobs = sweep_matrix(
            _config(args), args.configs, args.benchmarks, args.seeds,
            args.scale)

        def _verify_join() -> None:
            # Joining an existing campaign: the requested sweep must be
            # the same work list, otherwise results would not line up.
            manifest = CampaignManifest.load(args.directory)
            requested = list(dict.fromkeys(job.key() for job in jobs))
            if manifest.keys() != requested:
                raise UsageError(
                    f"campaign at {args.directory} exists with a different "
                    "work list; resume it without sweep flags, or use a "
                    "fresh directory"
                )

        if CampaignManifest.path_for(args.directory).exists():
            _verify_join()
        else:
            try:
                CampaignManifest.create(args.directory, jobs)
            except UsageError:
                # Lost the creation race to a concurrently started
                # worker: join its manifest instead of bailing out.
                if not CampaignManifest.path_for(args.directory).exists():
                    raise
                _verify_join()

    worker = CampaignWorker(
        args.directory,
        worker=args.worker,
        jobs=args.jobs,
        cache=store,
        stale_after=args.stale_after,
        poll=args.poll,
        retry_failed=getattr(args, "retry_failed", False),
    )
    report = worker.run(wait=not args.no_wait)
    status = campaign_status(args.directory, cache=store)
    print(
        f"worker {worker.worker}: executed {report.executed}, "
        f"failed {report.failed} "
        f"({report.skipped_done} already done)", file=sys.stderr)
    print(render_status(status))
    if args.out and status.done == status.total:
        results = campaign_results(args.directory, cache=store)
        path = export_runs(results, args.out, args.format)
        print(f"wrote {len(results)} runs to {path} ({args.format})")
    return 0 if status.done == status.total else 1


def _service_client(args: argparse.Namespace) -> ServiceClient:
    if not args.socket and args.port is None:
        raise UsageError(
            "connect with --socket PATH or --port N (matching `repro serve`)")
    return ServiceClient(
        socket_path=args.socket or None, port=args.port, host=args.host)


def _render_submission(status: dict) -> str:
    line = (
        f"submission {status['id']}: {status['state']} "
        f"({status['done']}/{status['total']} done, "
        f"{status['clients']} client(s))"
    )
    if status.get("error"):
        line += f"\n  error: {status['error']}"
    return line


def _cmd_serve(args: argparse.Namespace) -> int:
    state_dir = args.state_dir or (default_cache_dir() / "service")
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    daemon = ReproDaemon(
        state_dir,
        cache=cache,
        workers=args.workers,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
    )
    # Build the listener before announcing, so the printed address is
    # already accepting connections (CI waits on this line).
    print(
        f"repro service: state dir {daemon.state_dir}, "
        f"{args.workers} worker(s), queue depth {args.queue_depth}",
        file=sys.stderr)
    server = service_serve(
        daemon, socket_path=args.socket or None, port=args.port,
        host=args.host)
    print(
        f"repro service: drained and stopped ({server.address})",
        file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    with _service_client(args) as client:
        spec = sweep_spec(
            config=args.config,
            configs=args.configs,
            benchmarks=args.benchmarks,
            seeds=args.seeds,
            scale=args.scale,
        )
        response = client.submit(spec)
        if response.get("coalesced"):
            print(
                f"coalesced onto in-flight submission {response['id']}",
                file=sys.stderr)
        print(_render_submission(response))
        if not (args.wait or args.out):
            return 0
        status = client.wait_done(
            response["id"], poll=args.poll, timeout=args.timeout)
        print(_render_submission(status))
        if status["state"] != "done":
            return 1
        if args.out:
            result = client.results(status["id"], args.format)
            path = write_text(args.out, result["text"])
            print(f"wrote {status['total']} runs to {path} ({args.format})")
        return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _service_client(args) as client:
        if args.follow:
            state = None
            for message in client.stream_events(args.id):
                if "done" in message:
                    state = message.get("state")
                    break
                event = message.get("event", {})
                print(json.dumps(event, separators=(",", ":")))
            status = client.status(args.id)
            print(_render_submission(status))
            return 0 if state == "done" else 1
        status = client.status(args.id)
        print(_render_submission(status))
        if args.events:
            for record in client.events(args.id)["events"]:
                print(json.dumps(record, separators=(",", ":")))
        return 0


def _cmd_results(args: argparse.Namespace) -> int:
    with _service_client(args) as client:
        result = client.results(args.id, args.format)
    if args.out:
        path = write_text(args.out, result["text"])
        print(f"wrote results of {args.id} to {path} ({args.format})")
    else:
        sys.stdout.write(result["text"])
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    with _service_client(args) as client:
        status = client.cancel(args.id)
    print(_render_submission(status))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Characterizing Memory Bottlenecks in "
                    "GPGPU Workloads' (IISWC 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list the benchmark models").set_defaults(
        func=_cmd_suite)
    sub.add_parser("table1", help="print Table I").set_defaults(
        func=_cmd_table1)

    run = sub.add_parser("run", help="run one benchmark and print metrics")
    run.add_argument("benchmark", choices=sorted(SPECS))
    run.add_argument(
        "--magic-latency", type=int, default=None,
        help="use the fixed-latency magic memory below L1 (Figure 1 mode)")
    run.add_argument(
        "--sanitize", type=int, nargs="?", const=64, default=None,
        metavar="CYCLES",
        help="attach the invariant sanitizer (request conservation, MSHR "
             "leaks, queue bounds, deadlock) with CYCLES between epochs "
             "(default: 64; 1 checks every cycle); fails loudly on "
             "violations")
    run.add_argument(
        "--timeline", type=int, nargs="?", const=DEFAULT_WINDOW,
        default=None, metavar="CYCLES",
        help="attach the window sampler and print per-window IPC / "
             "queue-congestion / occupancy sparklines over windows of "
             "CYCLES cycles (default: 2000)")
    run.add_argument(
        "--profile-sim", type=int, nargs="?", const=25, default=None,
        metavar="N",
        help="profile the simulation with cProfile and print the top N "
             "functions by cumulative time to stderr (default N: 25; "
             "the job runs in this process, never from the cache)")
    run.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="also dump the raw pstats profile data to PATH (for "
             "snakeviz / pstats post-processing; implies profiling)")
    _add_common(run, benchmarks=False)
    _add_runner(run)
    run.set_defaults(func=_cmd_run)

    profile = sub.add_parser(
        "profile",
        help="top-down cycle accounting and bottleneck blame chains for "
             "one benchmark")
    profile.add_argument("benchmark", choices=sorted(SPECS))
    profile.add_argument(
        "--config-label", default="baseline", metavar="LABEL",
        help="Section IV scaling label to profile (baseline, l1, l2, "
             "dram, l1+l2, l2+dram; default: baseline)")
    profile.add_argument(
        "--diff", nargs=2, default=None, metavar=("A", "B"),
        help="profile two Section IV labels and explain B's speedup over "
             "A as reclaimed stall cycles (overrides --config-label)")
    profile.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="CYCLES",
        help="attribution window length in cycles (default: 2000)")
    profile.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the profile (or diff) document as JSON to PATH")
    _add_common(profile, benchmarks=False)
    _add_runner(profile)
    profile.set_defaults(func=_cmd_profile)

    trace = sub.add_parser(
        "trace",
        help="run one benchmark and write a Chrome/Perfetto trace of "
             "sampled requests")
    trace.add_argument("benchmark", choices=sorted(SPECS))
    trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output path for the trace-event JSON (default: trace.json)")
    trace.add_argument(
        "--stride", type=int, default=DEFAULT_TRACE_STRIDE, metavar="N",
        help="trace every N-th coalescer-issued request (default: 16; "
             "1 traces everything)")
    trace.add_argument(
        "--limit", type=int, default=DEFAULT_TRACE_LIMIT, metavar="N",
        help="cap on traced requests (default: 4096)")
    _add_common(trace, benchmarks=False)
    _add_runner(trace)
    trace.set_defaults(func=_cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="run the whole-program static verifier (REP001-012): "
             "hygiene rules, component contracts, determinism and "
             "layering")
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src); a directory "
             "walk skips fixtures directories below it")
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default: text)")
    lint.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to a file instead of stdout")
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: "
             ".repro-static-baseline.json in the working directory, "
             "if present)")
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file: report every finding")
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings (preserving "
             "justifications of surviving entries) and exit 0")
    lint.set_defaults(func=_cmd_lint)

    def _add_experiment(name, help, plan, render, passed=lambda _: True,
                        **flags):
        parser = sub.add_parser(name, help=help)
        _add_common(parser, **flags)
        _add_runner(parser)
        parser.set_defaults(
            func=_cmd_experiment, plan=plan, render=render, passed=passed)
        return parser

    _add_experiment(
        "congestion", "Section III: queue-occupancy measurement",
        lambda args, config: congestion_plan(
            config, args.benchmarks, args.scale, args.seed),
        render_congestion)

    prof = _add_experiment(
        "latency-profile", "Figure 1: latency tolerance profile",
        _latency_profile_plan, render_figure1)
    prof.add_argument(
        "--latencies", nargs="*", type=int, default=None,
        help="explicit latency points (default 0..800)")
    prof.add_argument(
        "--step", type=int, default=100,
        help="latency grid step when --latencies not given (default 100)")

    _add_experiment(
        "explore", "Section IV: design-space exploration",
        lambda args, config: exploration_plan(
            config, args.benchmarks, iteration_scale=args.scale,
            seed=args.seed),
        _render_explore)

    _add_experiment(
        "diagnose", "name each benchmark's bottleneck from its blame profile",
        lambda args, config: diagnosis_plan(
            config, args.benchmarks, args.scale, args.seed),
        render_diagnoses)

    breakdown = sub.add_parser(
        "breakdown", help="per-hop latency breakdown of one benchmark")
    breakdown.add_argument("benchmark", choices=sorted(SPECS))
    _add_common(breakdown, benchmarks=False)
    _add_runner(breakdown)
    breakdown.set_defaults(func=_cmd_breakdown)

    repl = _add_experiment(
        "replicate", "seed-sensitivity of one benchmark's metrics",
        lambda args, config: replication_plan(
            config, args.benchmark, seeds=args.seeds,
            iteration_scale=args.scale),
        _render_replicate, seed=False, benchmarks=False)
    repl.add_argument("benchmark", choices=sorted(SPECS))
    repl.add_argument(
        "--seeds", nargs="*", type=int, default=[1, 2, 3, 4, 5])
    # replicate has no --seed: reject it rather than read it as --seeds.
    repl.allow_abbrev = False

    export = sub.add_parser(
        "export", help="run the suite and export metrics as CSV or JSON")
    export.add_argument("output", help="output path")
    export.add_argument(
        "--format", choices=["csv", "json"], default="csv",
        help="export format: flat csv or nested json preserving the "
             "queue families (default: csv)")
    _add_common(export)
    _add_runner(export)
    export.set_defaults(func=_cmd_export)

    _add_experiment(
        "validate",
        "run the full battery and evaluate every claim of the paper",
        lambda args, config: validation_plan(
            config, iteration_scale=args.scale, seed=args.seed),
        lambda report: report.to_table(),
        lambda report: report.passed, benchmarks=False)

    cache = sub.add_parser(
        "cache", help="inspect, clear or size-bound the on-disk result cache")
    cache.add_argument(
        "action", choices=["info", "clear", "evict"],
        help="info: entry count, size, orphans and lifetime hit rate; "
             "clear: delete every entry (sweeping orphaned temp files); "
             "evict: drop least-recently-used entries past --max-bytes")
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="size bound for the evict action")
    cache.set_defaults(func=_cmd_cache)

    campaign = sub.add_parser(
        "campaign",
        help="distributed, resumable sweep campaigns over a shared "
             "result store")
    csub = campaign.add_subparsers(dest="action", required=True)

    def _add_campaign_worker(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("directory", help="campaign directory")
        parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes for this worker's batches (default: "
                 "all CPUs)")
        parser.add_argument(
            "--worker", default=None, metavar="NAME",
            help="worker name for claims/ledger/event log (default: "
                 "worker-<pid>)")
        parser.add_argument(
            "--stale-after", type=float, default=DEFAULT_STALE_AFTER,
            metavar="SECONDS",
            help="take over a claim whose heartbeat is older than this "
                 f"(default: {DEFAULT_STALE_AFTER:.0f}s)")
        parser.add_argument(
            "--poll", type=float, default=DEFAULT_POLL, metavar="SECONDS",
            help="poll interval while other workers hold the remaining "
                 f"units (default: {DEFAULT_POLL}s)")
        parser.add_argument(
            "--no-wait", action="store_true",
            help="return when nothing is claimable instead of waiting "
                 "for other workers' units to settle")
        parser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="shared result store (default: <directory>/store)")
        parser.add_argument(
            "--store-max-bytes", type=int, default=None, metavar="N",
            help="size-bound the shared store: LRU-evict entries past N "
                 "bytes after each write")
        parser.add_argument(
            "--out", default=None, metavar="PATH",
            help="export the merged results here once every unit is done")
        parser.add_argument(
            "--format", choices=["csv", "json"], default="csv",
            help="export format for --out (default: csv)")

    crun = csub.add_parser(
        "run",
        help="create the campaign manifest (config labels x benchmarks x "
             "seeds) if absent, then work it; rerunning the same command "
             "joins as another worker")
    _add_sweep(crun)
    _add_campaign_worker(crun)
    crun.set_defaults(func=_cmd_campaign)

    cresume = csub.add_parser(
        "resume",
        help="work an existing campaign: completed units are never "
             "re-simulated, stale claims are taken over")
    cresume.add_argument(
        "--retry-failed", action="store_true",
        help="re-attempt units whose latest ledger record is a failure")
    _add_campaign_worker(cresume)
    cresume.set_defaults(func=_cmd_campaign)

    cstatus = csub.add_parser(
        "status",
        help="merged campaign view: unit counts, per-worker event-log "
             "summaries, live claims")
    cstatus.add_argument("directory", help="campaign directory")
    cstatus.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result store (default: <directory>/store)")
    cstatus.set_defaults(func=_cmd_campaign)

    def _add_service_conn(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--socket", default=None, metavar="PATH",
            help="unix socket the daemon listens on")
        parser.add_argument(
            "--port", type=int, default=None, metavar="N",
            help="loopback TCP port the daemon listens on (instead of "
                 "--socket; 0 picks a free port)")
        parser.add_argument(
            "--host", default="127.0.0.1", metavar="HOST",
            help="TCP bind/connect host for --port (default: 127.0.0.1)")

    srv = sub.add_parser(
        "serve",
        help="run the simulation service: a daemon that coalesces "
             "identical submissions, queues with backpressure and drains "
             "gracefully on SIGTERM")
    _add_service_conn(srv)
    srv.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="daemon state (store + per-submission event logs; default: "
             "<cache dir>/service)")
    srv.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent submissions executed (default: 1)")
    srv.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="process-pool width per submission (default: all CPUs; "
             "1 runs in-process)")
    srv.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH, metavar="N",
        help="bound on queued submissions; submits past it are rejected "
             f"with the typed queue-full error (default: {DEFAULT_QUEUE_DEPTH})")
    srv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result store for the daemon (default: <state-dir>/store)")
    srv.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running daemon; identical concurrent "
             "submissions coalesce onto one simulation pass")
    _add_service_conn(submit)
    _add_sweep(submit)
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the submission settles (implied by --out)")
    submit.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="status poll interval with --wait (default: 0.2s)")
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (default: wait forever)")
    submit.add_argument(
        "--out", default=None, metavar="PATH",
        help="wait, then write the merged results here")
    submit.add_argument(
        "--format", choices=["csv", "json"], default="csv",
        help="export format for --out (default: csv)")
    submit.set_defaults(func=_cmd_submit)

    sstatus = sub.add_parser(
        "status", help="show one submission's state and progress")
    sstatus.add_argument("id", help="submission id (from `repro submit`)")
    _add_service_conn(sstatus)
    sstatus.add_argument(
        "--events", action="store_true",
        help="also print the submission's event log as JSON lines")
    sstatus.add_argument(
        "--follow", action="store_true",
        help="stream events as they happen until the submission settles")
    sstatus.set_defaults(func=_cmd_status)

    results = sub.add_parser(
        "results",
        help="fetch a completed submission's merged results "
             "(byte-identical to a local `repro export` of the sweep)")
    results.add_argument("id", help="submission id (from `repro submit`)")
    _add_service_conn(results)
    results.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the results here (default: stdout)")
    results.add_argument(
        "--format", choices=["csv", "json"], default="csv",
        help="export format (default: csv)")
    results.set_defaults(func=_cmd_results)

    cancel = sub.add_parser(
        "cancel",
        help="cancel a submission (queued: immediately; running: at the "
             "next chunk boundary)")
    cancel.add_argument("id", help="submission id (from `repro submit`)")
    _add_service_conn(cancel)
    cancel.set_defaults(func=_cmd_cancel)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (`... | head`, `... | grep -q`) closed the
        # pipe: the conventional quiet exit, not a traceback.  Detach
        # stdout so interpreter shutdown does not re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as exc:
        # One line per error (multi-line diagnostics are indented under
        # it) instead of a traceback; exit code 2 distinguishes simulator
        # failures from the validation-failed exit code 1.
        message = str(exc).splitlines() or [exc.__class__.__name__]
        print(f"error: {message[0]}", file=sys.stderr)
        for line in message[1:]:
            print(f"  {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
