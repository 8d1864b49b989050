"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report`` — run a full study and print every figure's rows.
* ``catalog`` — print the §4 CDN deployment-size table.
* ``troubleshoot`` — the §5 workflow: worst anycast vantages + traceroutes.
* ``failover`` — withdraw a front-end and trace the §2 overload cascade.
* ``telemetry`` — pretty-print a saved telemetry snapshot as a run report.
* ``trace`` — render a trace timeline summary from a ``trace.json``.
* ``serve`` — run a campaign, then stream it through the live service
  (online §6 predictions at every day close).
* ``replay`` — stream a recorded dataset through the live service at a
  configurable speed-up, with checkpoint/resume and fault kill points.

Study-running commands also accept ``--telemetry-out`` (export the run's
merged telemetry snapshot as JSON, or Prometheus text for ``.prom``/
``.txt`` paths), ``--trace-out`` (export the run's merged trace timeline
as Chrome/Perfetto ``trace.json``), ``--progress`` (a live stderr
ticker fed by worker heartbeats), ``--history-out`` (append the run's
perf record to a ``BENCH_history.json`` ledger), and ``--log-level`` /
``--log-format`` (structured logging on stderr, quiet unless
requested).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Sequence

from repro.analysis.anycast_perf import anycast_penalty_ccdf
from repro.analysis.load import load_latency_tradeoff, shed_traffic_fractions
from repro.analysis.poor_paths import poor_path_duration, poor_path_prevalence
from repro.analysis.prediction_eval import evaluate_prediction
from repro.cdn.catalog import catalog
from repro.cdn.failover import WithdrawalSimulator
from repro.clients.population import ClientPopulationConfig
from repro.core.predictor import PredictorConfig
from repro.core.study import AnycastStudy
from repro.faults import FaultPlan
from repro.faults.inject import InjectedCrashError
from repro.geo.coords import haversine_km
from repro.errors import ReproError, StorageError
from repro.identity import service_context
from repro.measurement.export import load_dataset, recover_dataset, save_dataset
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
)
from repro.measurement.storage import atomic_write_text
from repro.measurement.probes import ProbeNetwork
from repro.net.topology import AsRole
from repro.service.ingest import LiveService, ServiceConfig
from repro.service.predictor import predictions_to_obj
from repro.service.replay import dirty_events, events_from_dataset
from repro.simulation.campaign import CampaignConfig, CampaignProgress
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset
from repro.simulation.episodes import OverloadPlan
from repro.simulation.scenario import ScenarioConfig
from repro.telemetry import (
    BenchHistory,
    RunContext,
    Telemetry,
    TelemetrySnapshot,
    TraceLog,
    configure_logging,
    format_run_report,
    format_trace_report,
    manifest_path_for,
    record_from_snapshot,
    write_run_manifest,
)

#: Process exit code of a service run killed by an injected crash — the
#: chaos tests' "process died mid-stream" signal, distinct from argparse
#: errors (2) and analysis failures.
EXIT_SERVICE_CRASHED = 3


def _study_config(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed,
        population=ClientPopulationConfig(prefix_count=args.prefixes),
        calendar=SimulationCalendar(num_days=args.days),
        workers=getattr(args, "workers", 1),
        engine=getattr(args, "engine", "reference"),
    )


def _campaign_config(args: argparse.Namespace) -> CampaignConfig:
    """Campaign knobs from the CLI's resilience flags.

    ``--resume-from DIR`` both reads existing shard checkpoints from
    ``DIR`` and keeps spilling new ones there, so an interrupted campaign
    can be re-invoked with the same flag until it completes.
    """
    fault_plan = None
    spec = getattr(args, "fault_plan", None)
    if spec:
        fault_plan = FaultPlan.from_spec(spec)
    resume_from = getattr(args, "resume_from", None)
    checkpoint_dir = resume_from or getattr(args, "checkpoint_dir", None)
    listener = None
    if getattr(args, "progress", False):
        listener = _progress_ticker()
    return CampaignConfig(
        progress_listener=listener,
        fault_plan=fault_plan,
        max_retries=getattr(args, "max_retries", 2),
        shard_timeout=getattr(args, "shard_timeout", None),
        allow_partial=bool(getattr(args, "allow_partial", False)),
        checkpoint_dir=checkpoint_dir,
        resume=resume_from is not None,
        validation=getattr(args, "validation_policy", "lenient"),
        sketch_threshold=getattr(args, "sketch_threshold", None),
        sketch_accuracy=getattr(args, "sketch_accuracy", None)
        or DEFAULT_RELATIVE_ACCURACY,
        sketch_max_buckets=getattr(args, "sketch_max_buckets", None)
        or DEFAULT_MAX_BUCKETS,
        frontend_capacity=getattr(args, "frontend_capacity", None),
        overload_plan=(
            OverloadPlan.from_spec(getattr(args, "overload_plan"))
            if getattr(args, "overload_plan", None)
            else None
        ),
        load_policy=getattr(args, "load_policy", None) or "none",
    )


def _progress_ticker():
    """A ``progress_listener`` rendering a one-line stderr ticker."""

    def listener(progress: CampaignProgress) -> None:
        done = (
            progress.num_days > 0
            and progress.days_completed >= progress.num_days
        )
        end = "\n" if done else ""
        print(f"\r{progress.format()}", end=end, file=sys.stderr, flush=True)

    return listener


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prefixes", type=int, default=400,
        help="client /24 count (default 400)",
    )
    parser.add_argument(
        "--days", type=int, default=7,
        help="campaign length in days (default 7)",
    )
    parser.add_argument(
        "--seed", type=int, default=2015, help="scenario seed (default 2015)"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes for the campaign (default 1; results are "
            "bit-identical for any value)"
        ),
    )
    parser.add_argument(
        "--engine", choices=("reference", "vectorized", "matrix"),
        default="reference",
        help=(
            "measurement engine (default reference; vectorized is several "
            "times faster and matrix faster still — the two batched "
            "engines are bit-identical to each other and across worker "
            "counts, and statistically equivalent to reference)"
        ),
    )
    parser.add_argument(
        "--fault-plan", metavar="SPEC",
        help=(
            "inject deterministic faults: comma-joined kind[:count][@shard] "
            "specs, kinds crash/hang/exception/corrupt/merge "
            "(e.g. 'crash:1,exception:2@0'); surviving runs stay "
            "bit-identical to the fault-free run; record-level kinds "
            "record-corrupt/record-clock-skew/record-truncate dirty "
            "individual measurements before the validation gate"
        ),
    )
    parser.add_argument(
        "--validation-policy", choices=("strict", "lenient", "repair"),
        default="lenient",
        help=(
            "invalid-record handling at the ingest gate: strict raises, "
            "lenient quarantines and drops (default), repair clamps "
            "recoverable values and quarantines the rest"
        ),
    )
    parser.add_argument(
        "--quarantine-out", metavar="PATH",
        help="write the run's quarantine log (reasons, counts, samples) here",
    )
    parser.add_argument(
        "--sketch-threshold", type=int, metavar="N",
        help=(
            "promote latency digests to bounded sketches above N samples "
            "and switch the diff/passive logs to their bounded forms — "
            "campaign memory becomes independent of client count; "
            "percentiles then answer within --sketch-accuracy, and "
            "per-client passive figures (4/7/8) become unavailable "
            "(default: exact mode, no sketches)"
        ),
    )
    parser.add_argument(
        "--sketch-accuracy", type=float, metavar="ALPHA",
        help=(
            "relative quantile accuracy of the sketches used above "
            "--sketch-threshold (default 0.01 = 1%%)"
        ),
    )
    parser.add_argument(
        "--sketch-max-buckets", type=int, metavar="N",
        help=(
            "hard per-sketch bucket cap; a sketch over the cap halves "
            "its resolution (doubling its error bound) until it fits, "
            "making peak memory flat in client count (default 512)"
        ),
    )
    parser.add_argument(
        "--frontend-capacity", type=float, metavar="HEADROOM",
        help=(
            "give every front end a finite capacity provisioned as "
            "HEADROOM times its baseline expected load (must exceed 1.0, "
            "e.g. 1.5); turns on the convex queueing-delay latency term "
            "and per-front-end utilization/shed telemetry"
        ),
    )
    parser.add_argument(
        "--overload-plan", metavar="SPEC",
        help=(
            "inject deterministic overload episodes: comma-joined "
            "kind[:count][@day] specs, kinds flash-crowd/regional-event/"
            "drain/failure (e.g. 'flash-crowd:1@2,drain:1'); requires "
            "--frontend-capacity; same seed + spec compiles to the same "
            "episodes on every shard and engine"
        ),
    )
    parser.add_argument(
        "--load-policy", choices=("none", "withdraw", "fastroute"),
        default="none",
        help=(
            "load-management response to overload (requires "
            "--frontend-capacity): none serves everything through "
            "saturated front ends, withdraw hard-withdraws any front end "
            "that exceeds capacity (the §2 cascade baseline), fastroute "
            "sheds traffic down the anycast layer rings with per-front-"
            "end shed fractions evolved from local signals only"
        ),
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per shard after its first attempt (default 2)",
    )
    parser.add_argument(
        "--shard-timeout", type=float, metavar="SECONDS",
        help=(
            "declare a shard attempt hung after this many seconds and "
            "retry it (default: wait forever)"
        ),
    )
    parser.add_argument(
        "--allow-partial", action="store_true",
        help=(
            "finish with a partial dataset (manifest lists the missing "
            "client ranges) instead of failing when a shard exhausts its "
            "retries"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="spill each completed shard's partial dataset here",
    )
    parser.add_argument(
        "--resume-from", metavar="DIR",
        help=(
            "reuse intact shard checkpoints from DIR (and keep "
            "checkpointing there); implies --checkpoint-dir DIR"
        ),
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help=(
            "write the run's merged telemetry snapshot here (JSON; "
            "Prometheus text format for .prom/.txt paths)"
        ),
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help=(
            "write the run's merged trace timeline here as Chrome/"
            "Perfetto trace-event JSON (one lane per shard; open in "
            "ui.perfetto.dev or chrome://tracing, or summarize with "
            "'repro trace')"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true",
        help=(
            "render a live one-line progress ticker on stderr (days, "
            "beacons/s, shard completion, retries) fed by worker "
            "heartbeats"
        ),
    )
    parser.add_argument(
        "--history-out", metavar="PATH",
        help=(
            "append this run's perf record (engine, beacons/s, phase "
            "splits, peak RSS, dataset digest) to a BENCH_history.json "
            "ledger at PATH; check it with tools/bench_history.py"
        ),
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        help="enable structured logging on stderr at this level",
    )
    parser.add_argument(
        "--log-format", choices=("json", "text"),
        help="structured log line format (default text; implies --log-level info)",
    )


def _configure_telemetry(
    args: argparse.Namespace, context: RunContext
) -> None:
    """Install the structured-log handler, bound to ``context``, when
    either flag was given."""
    if args.log_level is None and args.log_format is None:
        return
    configure_logging(
        level=args.log_level or "info",
        fmt=args.log_format or "text",
        context=context,
    )


def _export_telemetry(
    args: argparse.Namespace, snapshot: TelemetrySnapshot
) -> None:
    """Write the run's telemetry snapshot if ``--telemetry-out`` was given."""
    path = args.telemetry_out
    if not path:
        return
    if path.endswith((".prom", ".txt")):
        content = snapshot.to_prometheus()
    else:
        content = snapshot.to_json()
    if not content.endswith("\n"):
        content += "\n"
    atomic_write_text(path, content)
    print(f"wrote telemetry snapshot to {path}")


def _export_trace(
    args: argparse.Namespace, snapshot: TelemetrySnapshot
) -> None:
    """Write the run's trace timeline if ``--trace-out`` was given."""
    if not args.trace_out:
        return
    trace = snapshot.trace
    if trace is None or not trace.events:
        print("no trace events recorded; skipping --trace-out", file=sys.stderr)
        return
    atomic_write_text(
        args.trace_out,
        json.dumps(trace.to_perfetto_obj(), indent=2, sort_keys=True) + "\n",
    )
    print(
        f"wrote trace timeline ({len(trace.events)} events) to "
        f"{args.trace_out}"
    )


def _append_history(
    args: argparse.Namespace, study: AnycastStudy, label: str
) -> None:
    """Append this run's perf record if ``--history-out`` was given."""
    if not getattr(args, "history_out", None):
        return
    record = record_from_snapshot(
        study.telemetry_snapshot(), label, dataset=study.dataset
    )
    history = BenchHistory.load(args.history_out)
    history.append(record)
    history.save(args.history_out)
    print(
        f"appended perf record ({record.engine}, "
        f"{record.beacons_per_second:,.0f} beacons/s) to {args.history_out}"
    )


def _export_quarantine(args: argparse.Namespace, study: AnycastStudy) -> None:
    """Write the run's quarantine log if ``--quarantine-out`` was given."""
    if not getattr(args, "quarantine_out", None):
        return
    quarantine = study.quarantine
    atomic_write_text(
        args.quarantine_out,
        json.dumps(quarantine.to_obj(), indent=2, sort_keys=True) + "\n",
    )
    print(
        f"wrote quarantine log ({quarantine.total} records) to "
        f"{args.quarantine_out}"
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags of the live-service loop (``serve`` and ``replay``)."""
    parser.add_argument(
        "--window-days", type=int, default=1, metavar="N",
        help="sliding prediction window length in days (§6 default: 1)",
    )
    parser.add_argument(
        "--metric-percentile", type=float, default=25.0, metavar="P",
        help="latency percentile scoring each target (§6 default: 25)",
    )
    parser.add_argument(
        "--min-samples", type=int, default=20, metavar="N",
        help=(
            "measurements a (group, target) needs inside the window to "
            "be considered (§6 default: 20)"
        ),
    )
    parser.add_argument(
        "--speed", type=float, default=0.0, metavar="X",
        help=(
            "replay pacing in simulated seconds per wall-clock second "
            "(86400 streams one day per second; default 0 = unpaced)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help=(
            "also spill a service checkpoint every N processed events "
            "(default 0 = at day closes only)"
        ),
    )
    parser.add_argument(
        "--predictions-out", metavar="PATH",
        help="write every closed day's online predictions here (JSON)",
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH",
        help=(
            "write the service run manifest (event counts, predictions/"
            "stream/quarantine digests) here (JSON)"
        ),
    )


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """Service knobs from the CLI flags (shared by serve/replay)."""
    fault_plan = None
    spec = getattr(args, "fault_plan", None)
    if spec:
        fault_plan = FaultPlan.from_spec(spec)
    resume_from = getattr(args, "resume_from", None)
    checkpoint_dir = resume_from or getattr(args, "checkpoint_dir", None)
    return ServiceConfig(
        window_days=args.window_days,
        predictor=PredictorConfig(
            metric_percentile=args.metric_percentile,
            min_samples=args.min_samples,
        ),
        validation=getattr(args, "validation_policy", "lenient"),
        sketch_threshold=getattr(args, "sketch_threshold", None),
        sketch_accuracy=getattr(args, "sketch_accuracy", None)
        or DEFAULT_RELATIVE_ACCURACY,
        sketch_max_buckets=getattr(args, "sketch_max_buckets", None)
        or DEFAULT_MAX_BUCKETS,
        checkpoint_dir=checkpoint_dir,
        resume=resume_from is not None,
        checkpoint_every_events=args.checkpoint_every,
        seed=args.seed,
        fault_plan=fault_plan,
        speed=args.speed,
    )


def _run_service(
    args: argparse.Namespace,
    config: ServiceConfig,
    source: Callable[[], StudyDataset],
    label: str,
) -> int:
    """Stream the dataset ``source`` returns through the live service
    and write its outputs.

    The structured logs carry the service's run identity from before
    ``source`` is called (a replay's export load included) to the end;
    ``serve`` logs its campaign half under the campaign's.
    """
    context = service_context(config)
    _configure_telemetry(args, context)
    dataset = source()
    telemetry = Telemetry(context={**context.as_dict(), "mode": label})
    listener = (
        _progress_ticker() if getattr(args, "progress", False) else None
    )
    events = dirty_events(
        dataset, events_from_dataset(dataset), config.fault_plan, config.seed
    )
    service = LiveService(
        config,
        num_days=dataset.calendar.num_days,
        telemetry=telemetry,
        progress_listener=listener,
        source_fingerprint=dataset.digest(),
    )
    try:
        result = service.run_stream(events)
    except InjectedCrashError as error:
        print(f"service crashed mid-stream: {error}", file=sys.stderr)
        if config.checkpoint_dir:
            print(
                f"resume with --resume-from {config.checkpoint_dir}",
                file=sys.stderr,
            )
        return EXIT_SERVICE_CRASHED
    print(
        f"{label} complete: {result.events_total:,} events, "
        f"{result.beacons_admitted:,} beacons admitted, "
        f"{result.days_closed} days closed"
    )
    if result.resumed_from_cursor:
        print(
            f"resumed from checkpoint at event {result.resumed_from_cursor:,}"
        )
    if result.retries:
        print(f"absorbed {result.retries} transient fault(s) via restart")
    print(f"predictions digest: {result.predictions_digest}")
    print(f"stream digest:      {result.stream_digest}")
    print(f"quarantine digest:  {result.quarantine_digest}")
    if args.predictions_out:
        atomic_write_text(
            args.predictions_out,
            json.dumps(
                predictions_to_obj(result.predictions),
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        print(f"wrote online predictions to {args.predictions_out}")
    if args.manifest_out:
        atomic_write_text(
            args.manifest_out,
            json.dumps(result.manifest(), indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote service manifest to {args.manifest_out}")
    if getattr(args, "quarantine_out", None):
        atomic_write_text(
            args.quarantine_out,
            json.dumps(
                service.gate.quarantine.to_obj(), indent=2, sort_keys=True
            )
            + "\n",
        )
        print(
            f"wrote quarantine log ({service.gate.quarantine.total} "
            f"records) to {args.quarantine_out}"
        )
    snapshot = telemetry.snapshot()
    _export_telemetry(args, snapshot)
    _export_trace(args, snapshot)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a campaign, then stream its dataset through the live service.

    The campaign itself runs clean and exact-mode (its dataset is the
    stream source of record); ``--fault-plan``, ``--validation-policy``,
    ``--sketch-*``, and the checkpoint flags all apply to the *service*
    loop consuming the stream.
    """
    study = AnycastStudy(_study_config(args))
    _configure_telemetry(args, study.context)
    dataset = study.dataset
    print(
        f"campaign dataset ready: {dataset.measurement_count:,} "
        f"measurements over {dataset.calendar.num_days} days; streaming"
    )
    return _run_service(args, _service_config(args), lambda: dataset, "serve")


def cmd_replay(args: argparse.Namespace) -> int:
    """Stream a recorded dataset export through the live service."""
    return _run_service(
        args,
        _service_config(args),
        lambda: load_dataset(args.dataset),
        "replay",
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Run a study and print (or write) the full figure report."""
    study = AnycastStudy(_study_config(args), campaign=_campaign_config(args))
    _configure_telemetry(args, study.context)
    report = study.full_report()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        write_run_manifest(
            manifest_path_for(args.out),
            study.telemetry_snapshot(),
            dataset=study.dataset,
            extra={"artifact": args.out},
        )
        print(f"wrote report to {args.out}")
    else:
        print(report)
    _export_quarantine(args, study)
    snapshot = study.telemetry_snapshot()
    _export_telemetry(args, snapshot)
    _export_trace(args, snapshot)
    _append_history(args, study, "repro-report")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a campaign and persist its dataset as JSON."""
    study = AnycastStudy(_study_config(args), campaign=_campaign_config(args))
    _configure_telemetry(args, study.context)
    dataset = study.dataset
    save_dataset(dataset, args.dataset)
    if dataset.is_partial:
        print(
            "warning: partial dataset — missing client ranges "
            f"{list(dataset.missing_ranges())} "
            f"(coverage {dataset.coverage_fraction:.1%})",
            file=sys.stderr,
        )
    manifest_path = manifest_path_for(args.dataset)
    write_run_manifest(
        manifest_path,
        study.telemetry_snapshot(),
        dataset=dataset,
        extra={"artifact": args.dataset},
    )
    print(
        f"campaign complete: {dataset.beacon_count:,} beacons, "
        f"{dataset.measurement_count:,} measurements -> {args.dataset}"
    )
    print(f"wrote run manifest to {manifest_path}")
    print(study.campaign_stats.format())
    _export_quarantine(args, study)
    snapshot = study.telemetry_snapshot()
    _export_telemetry(args, snapshot)
    _export_trace(args, snapshot)
    _append_history(args, study, "repro-run")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Pretty-print a saved telemetry snapshot as a run report."""
    with open(args.snapshot, "r", encoding="utf-8") as handle:
        snapshot = TelemetrySnapshot.from_json(handle.read())
    if args.prometheus:
        print(snapshot.to_prometheus(), end="")
    else:
        print(format_run_report(snapshot, top=args.top))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a timeline summary from a saved trace.

    Accepts both serializations: the Perfetto ``trace.json`` written by
    ``--trace-out`` (sniffed by its ``traceEvents`` key) and the
    compact event-list form embedded in telemetry snapshots.
    """
    with open(args.trace, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if "traceEvents" in document:
        trace = TraceLog.from_perfetto_obj(document)
    elif "events" in document:
        trace = TraceLog.from_obj(document)
    elif "trace" in document:
        # A telemetry snapshot with an embedded trace also works.
        trace = TraceLog.from_obj(document["trace"])
    else:
        print(
            f"{args.trace}: neither a Perfetto trace nor a repro trace "
            "export",
            file=sys.stderr,
        )
        return 2
    print(format_trace_report(trace), end="")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Replay dataset-only figures from a saved campaign."""
    try:
        dataset = load_dataset(args.dataset)
    except StorageError as error:
        if not args.recover:
            print(
                f"damaged dataset: {error}\n"
                "(re-run with --recover to salvage intact records)",
                file=sys.stderr,
            )
            return 2
        dataset, recovery = recover_dataset(args.dataset)
        report = recovery.report
        print(
            "recovered damaged dataset: "
            f"{recovery.recovered_measurement_count:,}/"
            f"{recovery.claimed_measurement_count:,} measurements salvaged "
            f"({report.frames_corrupt} corrupt frames"
            f"{', torn tail' if report.torn_tail else ''})",
            file=sys.stderr,
        )
    sections = {
        "fig3": lambda: anycast_penalty_ccdf(dataset).format(),
        "fig5": lambda: poor_path_prevalence(dataset).format(),
        "fig6": lambda: poor_path_duration(dataset).format(),
        "fig9": lambda: evaluate_prediction(dataset).format(),
        "load": lambda: load_latency_tradeoff(dataset).format(),
        "shed": lambda: shed_traffic_fractions(dataset).format(),
    }
    wanted = args.figures
    if not wanted:
        # The load figures only exist for capacity-enabled campaigns;
        # default to them exactly when the dataset can answer.
        wanted = ["fig3", "fig5", "fig6", "fig9"]
        if dataset.load_summary is not None:
            wanted += ["load", "shed"]
    for name in wanted:
        if name not in sections:
            print(
                f"unknown figure {name!r}; dataset-only figures: "
                f"{', '.join(sorted(sections))}",
                file=sys.stderr,
            )
            return 2
        print(sections[name]())
        print()
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    """Print the §4 CDN deployment-size table."""
    for entry in catalog(include_bing=True, bing_locations=args.bing_locations):
        flags = []
        if entry.is_outlier:
            flags.append("outlier")
        if entry.is_anycast:
            flags.append("anycast")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{entry.name:24s} {entry.locations:5d}{suffix}")
    return 0


def cmd_troubleshoot(args: argparse.Namespace) -> int:
    """Find the worst anycast vantages and print their traceroutes."""
    study = AnycastStudy(_study_config(args))
    _configure_telemetry(args, study.context)
    scenario = study.scenario
    topology = scenario.topology
    network = scenario.network
    probes = ProbeNetwork(topology, coverage=1.0, seed=args.seed)

    cases = []
    for access in topology.ases_with_role(AsRole.ACCESS):
        for metro in sorted(access.pop_metros):
            location = topology.metro_db.get(metro).location
            path = network.anycast_path(access.asn, metro, location)
            served = haversine_km(location, path.frontend.location)
            nearest = network.nearest_frontends(location, 1)[0]
            inflation = served - haversine_km(location, nearest.location)
            if inflation > args.min_inflation_km:
                cases.append((inflation, access.asn, metro))
    cases.sort(reverse=True)

    print(
        f"{len(cases)} vantages with anycast carried "
        f">{args.min_inflation_km:.0f} km past the nearest front-end"
    )
    for inflation, asn, metro in cases[: args.top]:
        result = probes.investigate(network, asn, metro)
        if result is None:
            continue
        anycast_trace, unicast_trace = result
        print("=" * 70)
        print(f"AS{asn} @ {metro}: +{inflation:.0f} km")
        print(anycast_trace.format())
        print("best unicast alternative:")
        print(unicast_trace.format())
    return 0


def cmd_failover(args: argparse.Namespace) -> int:
    """Withdraw a front-end and print the §2 overload cascade."""
    study = AnycastStudy(_study_config(args))
    _configure_telemetry(args, study.context)
    scenario = study.scenario
    simulator = WithdrawalSimulator(
        scenario.topology,
        scenario.deployment,
        scenario.clients,
        headroom=args.headroom,
    )
    frontend_id = args.frontend
    if frontend_id not in simulator.baseline_loads:
        known = ", ".join(sorted(simulator.baseline_loads)[:8])
        print(
            f"unknown front-end {frontend_id!r}; known ids start: {known}...",
            file=sys.stderr,
        )
        return 2
    result = simulator.cascade([frontend_id], max_rounds=args.max_rounds)
    print(result.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Analyzing the Performance of an Anycast CDN' "
            "(IMC 2015)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="run a study and print every figure"
    )
    _add_scale_arguments(report)
    report.add_argument("--out", help="write the report to a file")
    report.set_defaults(func=cmd_report)

    run = subparsers.add_parser(
        "run", help="run a campaign and save the dataset to JSON"
    )
    _add_scale_arguments(run)
    run.add_argument("dataset", help="output dataset path (JSON)")
    run.set_defaults(func=cmd_run)

    analyze = subparsers.add_parser(
        "analyze", help="analyze a saved dataset (dataset-only figures)"
    )
    analyze.add_argument("dataset", help="dataset path from 'run'")
    analyze.add_argument(
        "--figures", nargs="*",
        help=(
            "subset of figures: fig3 fig5 fig6 fig9 load shed (default: "
            "all that the dataset can answer; load/shed need a "
            "--frontend-capacity campaign)"
        ),
    )
    analyze.add_argument(
        "--recover", action="store_true",
        help=(
            "salvage intact records from a damaged framed dataset "
            "(torn tail, corrupt frames) instead of failing"
        ),
    )
    analyze.set_defaults(func=cmd_analyze)

    catalog_parser = subparsers.add_parser(
        "catalog", help="print the §4 CDN size table"
    )
    catalog_parser.add_argument(
        "--bing-locations", type=int, default=64,
        help="location count for the measured CDN row",
    )
    catalog_parser.set_defaults(func=cmd_catalog)

    troubleshoot = subparsers.add_parser(
        "troubleshoot", help="find and trace poor anycast vantages (§5)"
    )
    _add_scale_arguments(troubleshoot)
    troubleshoot.add_argument("--top", type=int, default=3)
    troubleshoot.add_argument("--min-inflation-km", type=float, default=300.0)
    troubleshoot.set_defaults(func=cmd_troubleshoot)

    failover = subparsers.add_parser(
        "failover", help="withdraw a front-end and trace the cascade (§2)"
    )
    _add_scale_arguments(failover)
    failover.add_argument("frontend", help="front-end id, e.g. fe-lon")
    failover.add_argument("--headroom", type=float, default=1.5)
    failover.add_argument("--max-rounds", type=int, default=10)
    failover.set_defaults(func=cmd_failover)

    telemetry = subparsers.add_parser(
        "telemetry",
        help="pretty-print a telemetry snapshot (from --telemetry-out)",
    )
    telemetry.add_argument("snapshot", help="snapshot JSON path")
    telemetry.add_argument(
        "--top", type=int, default=12,
        help="counters to show before folding the rest (default 12)",
    )
    telemetry.add_argument(
        "--prometheus", action="store_true",
        help="emit Prometheus text exposition format instead of the report",
    )
    telemetry.set_defaults(func=cmd_telemetry)

    trace = subparsers.add_parser(
        "trace",
        help="summarize a trace timeline (from --trace-out)",
    )
    trace.add_argument(
        "trace",
        help="trace path: Perfetto trace.json or a telemetry snapshot",
    )
    trace.set_defaults(func=cmd_trace)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run a campaign, then stream its dataset through the live "
            "online-predictor service"
        ),
    )
    _add_scale_arguments(serve)
    _add_service_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    replay = subparsers.add_parser(
        "replay",
        help=(
            "stream a recorded dataset (from 'run') through the live "
            "service at configurable speed-up"
        ),
    )
    replay.add_argument("dataset", help="dataset path from 'run'")
    replay.add_argument(
        "--seed", type=int, default=2015,
        help="service seed for fault-plan compilation (default 2015)",
    )
    replay.add_argument(
        "--fault-plan", metavar="SPEC",
        help=(
            "inject deterministic faults into the service loop: "
            "crash/exception specs kill or trip the loop mid-stream; "
            "record-* specs dirty beacon values before the gate"
        ),
    )
    replay.add_argument(
        "--validation-policy", choices=("strict", "lenient", "repair"),
        default="lenient",
        help="invalid-record handling at the service's ingest gate",
    )
    replay.add_argument(
        "--quarantine-out", metavar="PATH",
        help="write the service's quarantine log here (JSON)",
    )
    replay.add_argument(
        "--sketch-threshold", type=int, metavar="N",
        help=(
            "promote the service window's digests to bounded sketches "
            "above N samples per (group, target) bucket"
        ),
    )
    replay.add_argument(
        "--sketch-accuracy", type=float, metavar="ALPHA",
        help="relative quantile accuracy above --sketch-threshold",
    )
    replay.add_argument(
        "--sketch-max-buckets", type=int, metavar="N",
        help="hard per-sketch bucket cap in the service window",
    )
    replay.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="spill service checkpoints here (at day closes)",
    )
    replay.add_argument(
        "--resume-from", metavar="DIR",
        help=(
            "restore the service from a checkpoint in DIR and continue "
            "the stream; implies --checkpoint-dir DIR"
        ),
    )
    replay.add_argument(
        "--telemetry-out", metavar="PATH",
        help=(
            "write the service telemetry snapshot here (JSON; Prometheus "
            "text format for .prom/.txt paths)"
        ),
    )
    replay.add_argument(
        "--trace-out", metavar="PATH",
        help=(
            "write the service trace timeline here as Chrome/Perfetto "
            "trace-event JSON"
        ),
    )
    replay.add_argument(
        "--progress", action="store_true",
        help="render a live one-line day/throughput ticker on stderr",
    )
    replay.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        help="enable structured logging on stderr at this level",
    )
    replay.add_argument(
        "--log-format", choices=("json", "text"),
        help="structured log line format (default text)",
    )
    _add_service_arguments(replay)
    replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Bad input the library rejects (any :class:`repro.errors.ReproError`,
    e.g. an invalid population size or fault plan) prints one
    ``error: <message>`` line on stderr and exits 2, like argparse.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
