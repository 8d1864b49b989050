"""CI performance smoke test for the measurement engines.

Runs one small campaign through both engines on the same host and fails
(exit code 1) if the vectorized engine's serial beacon throughput is not
at least ``--min-speedup`` times the reference engine's.  CI passes 3.0
here and 2.0 for ``--min-matrix-speedup``: low enough that shared CI
runners don't flake, while still catching any change that de-vectorizes
the hot path.

Also asserts the vectorized engine's correctness contract: a serial run
and a 2-worker sharded run produce bit-identical datasets (same
``StudyDataset.digest()``).

The matrix leg (always on) runs the same campaign through the whole-day
matrix engine and enforces its two contracts: the dataset digest is
bit-identical to the vectorized run's (the chunked engine is the matrix
engine's oracle — they share every counter-keyed draw), and its beacon
throughput is at least ``--min-matrix-speedup`` times the vectorized
serial rate.

With ``--fault-plan`` the smoke additionally runs the same sharded
campaign under an injected fault schedule (worker crashes, hangs,
transient exceptions, corrupted payloads, merge failures — see
``repro.faults``) and fails unless the retried run's digest is
bit-identical to the clean run's.  ``--fault-manifest-out`` writes that
chaos run's manifest (fired faults, retry counters, coverage) for CI to
archive.

With ``--dirty-plan`` it runs the dirty-data chaos leg: the same campaign
with record-level faults (``record-corrupt``, ``record-clock-skew``,
``record-truncate``) under the lenient validation policy, asserting the
quarantine identity — the clean measurement count equals the dirty count
plus exactly the quarantined records — and that serial, 2-worker sharded,
and reference-engine runs agree on the dirty digest and quarantine
accounting.  It then saves the dirty dataset through the framed exporter,
tears its tail off, and requires the recovery loader to salvage the
intact prefix.  ``--dirty-manifest-out`` archives the accounting.

The sketch leg (always on) reruns the campaign in bounded sketch mode
(``--sketch-threshold``), requires the serial and 2-worker sketch digests
to match bit-for-bit, and requires the sketch-mode Fig 3/Fig 5 headline
fractions to stay within ``--sketch-tolerance`` of the exact run's.

The memory leg (``--memory-populations A,B``) runs the bounded campaign
at two population sizes with a tracemalloc probe around each and fails
if peak traced memory grows super-linearly in the population — the
cheap in-smoke guard against retention regressions; the strict flatness
gate lives in ``tools/memory_smoke.py``.  Every leg records both
tracemalloc peaks and ``resource.getrusage`` peak RSS in its manifest.

Usage::

    PYTHONPATH=src python tools/perf_smoke.py [--min-speedup 3.0] \\
        [--fault-plan crash:1] [--fault-manifest-out manifest.json] \\
        [--dirty-plan record-corrupt:8] [--dirty-manifest-out dirty.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Optional, Sequence

from repro.analysis.anycast_perf import WORLD, anycast_penalty_ccdf
from repro.analysis.poor_paths import poor_path_prevalence
from repro.clients.population import ClientPopulationConfig
from repro.faults import FaultPlan
from repro.measurement.export import recover_dataset, save_dataset
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.episodes import OverloadPlan
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import (
    BenchHistory,
    MemoryProbe,
    peak_rss_bytes,
    record_from_snapshot,
    write_run_manifest,
)


def _timed_serial(scenario: Scenario, engine: str):
    """Run one serial campaign; timings come from its telemetry snapshot."""
    runner = CampaignRunner(scenario, CampaignConfig(engine=engine))
    with MemoryProbe() as probe:
        dataset = runner.run()
    snapshot = runner.telemetry.snapshot()
    seconds = snapshot.gauges["campaign.wall_seconds"]["value"]
    rate = snapshot.counters["campaign.beacons_total"] / seconds
    return dataset, rate, seconds, snapshot, probe.peak_bytes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prefixes", type=int, default=200)
    parser.add_argument("--days", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required vectorized/reference beacons-per-second ratio",
    )
    parser.add_argument(
        "--min-matrix-speedup", type=float, default=2.0,
        help="required matrix/vectorized beacons-per-second ratio",
    )
    parser.add_argument(
        "--fault-plan", metavar="SPEC",
        help=(
            "also run a fault-injected 2-worker campaign (spec like "
            "'crash:1,exception:1') and require its retried digest to "
            "match the clean run bit-for-bit"
        ),
    )
    parser.add_argument(
        "--fault-manifest-out", metavar="PATH",
        help="write the chaos run's manifest here (requires --fault-plan)",
    )
    parser.add_argument(
        "--dirty-plan", metavar="SPEC",
        help=(
            "also run the dirty-data chaos leg (spec of record-level "
            "kinds like 'record-corrupt:8,record-clock-skew:4') and "
            "require exact quarantine accounting across serial, sharded, "
            "and reference runs plus torn-tail recovery"
        ),
    )
    parser.add_argument(
        "--dirty-manifest-out", metavar="PATH",
        help=(
            "write the dirty-data leg's manifest here (requires "
            "--dirty-plan)"
        ),
    )
    parser.add_argument(
        "--sketch-threshold", type=int, default=64, metavar="N",
        help=(
            "per-digest exact-sample budget for the bounded sketch leg "
            "(digests above it compress into mergeable sketches)"
        ),
    )
    parser.add_argument(
        "--sketch-tolerance", type=float, default=0.05, metavar="FRAC",
        help=(
            "max absolute drift allowed between exact and sketch-mode "
            "Fig 3 / Fig 5 headline fractions"
        ),
    )
    parser.add_argument(
        "--max-load-overhead", type=float, default=0.10, metavar="FRAC",
        help=(
            "max beacons/s throughput loss the finite-capacity leg "
            "(--frontend-capacity path with a live overload drill) may "
            "cost over the capacity-off vectorized run"
        ),
    )
    parser.add_argument(
        "--memory-populations", default="120,360", metavar="A,B",
        help=(
            "two prefix counts for the memory leg; peak traced memory "
            "must not grow super-linearly between them (empty to skip)"
        ),
    )
    parser.add_argument(
        "--memory-slack", type=float, default=1.25, metavar="X",
        help=(
            "memory leg tolerance: peak ratio must be <= population "
            "ratio times this factor"
        ),
    )
    parser.add_argument(
        "--rss-manifest-out", metavar="PATH",
        help="write the memory/RSS accounting manifest here",
    )
    parser.add_argument(
        "--history-out", metavar="PATH", default="BENCH_history.json",
        help=(
            "append one perf-history record per engine leg to this "
            "ledger for tools/bench_history.py (empty string disables; "
            "default %(default)s)"
        ),
    )
    args = parser.parse_args(argv)

    scenario = Scenario.build(
        ScenarioConfig(
            seed=args.seed,
            population=ClientPopulationConfig(prefix_count=args.prefixes),
            calendar=SimulationCalendar(num_days=args.days),
        )
    )

    ref_dataset, ref_rate, ref_seconds, ref_snapshot, ref_peak = (
        _timed_serial(scenario, "reference")
    )
    vec_dataset, vec_rate, vec_seconds, vec_snapshot, vec_peak = (
        _timed_serial(scenario, "vectorized")
    )
    mat_dataset, mat_rate, mat_seconds, mat_snapshot, mat_peak = (
        _timed_serial(scenario, "matrix")
    )
    speedup = vec_rate / ref_rate
    matrix_speedup = mat_rate / vec_rate

    if mat_dataset.digest() != vec_dataset.digest():
        print(
            "FAIL: matrix engine digest diverged from its vectorized "
            "oracle (the engines must share every counter-keyed draw)"
        )
        return 1

    sharded_runner = ParallelCampaignRunner(
        scenario, CampaignConfig(engine="vectorized"), workers=2
    )
    sharded = sharded_runner.run()
    if sharded.digest() != vec_dataset.digest():
        print("FAIL: vectorized serial and 2-worker digests diverged")
        return 1
    sharded_counters = sharded_runner.telemetry.snapshot().counters
    for name in ("campaign.beacons_total", "campaign.measurements_total"):
        if sharded_counters[name] != vec_snapshot.counters[name]:
            print(
                f"FAIL: merged 2-worker {name} "
                f"({sharded_counters[name]:,.0f}) != serial "
                f"({vec_snapshot.counters[name]:,.0f})"
            )
            return 1

    print(
        f"perf smoke ({args.prefixes} /24s x {args.days} days, "
        f"seed {args.seed}):"
    )
    print(f"  reference:  {ref_seconds:6.2f}s  ({ref_rate:9,.0f} beacons/s)")
    print(f"  vectorized: {vec_seconds:6.2f}s  ({vec_rate:9,.0f} beacons/s)")
    print(f"  matrix:     {mat_seconds:6.2f}s  ({mat_rate:9,.0f} beacons/s)")
    for label, snapshot in (
        ("reference", ref_snapshot),
        ("vectorized", vec_snapshot),
        ("matrix", mat_snapshot),
    ):
        phases = ", ".join(
            f"{path.rsplit('/', 1)[-1]}={record.seconds:.2f}s"
            for path, record in snapshot.span_children("campaign/day")
        )
        print(f"  {label} day phases: {phases}")
    print(f"  speedup: {speedup:.2f}x (required >= {args.min_speedup:.1f}x)")
    print(
        f"  matrix speedup over vectorized: {matrix_speedup:.2f}x "
        f"(required >= {args.min_matrix_speedup:.1f}x)"
    )
    print(
        f"  peak traced memory: reference {ref_peak / 1e6:.1f} MB, "
        f"vectorized {vec_peak / 1e6:.1f} MB, "
        f"matrix {mat_peak / 1e6:.1f} MB "
        f"(process peak RSS {peak_rss_bytes() / 1e6:.1f} MB)"
    )
    print("  vectorized serial == 2-worker digest: ok")
    print("  vectorized serial == 2-worker merged telemetry counters: ok")
    print("  matrix serial == vectorized serial digest: ok")

    # ------------------------------------------------------------------
    # Sketch leg: bounded mode must shard exactly and answer the headline
    # figures within tolerance of the exact oracle.
    sketch_config = CampaignConfig(
        engine="vectorized", sketch_threshold=args.sketch_threshold
    )
    with MemoryProbe() as sketch_probe:
        sketch_dataset = CampaignRunner(scenario, sketch_config).run()
    sketch_sharded = ParallelCampaignRunner(
        scenario, sketch_config, workers=2
    ).run()
    if sketch_sharded.digest() != sketch_dataset.digest():
        print("FAIL: sketch-mode serial and 2-worker digests diverged")
        return 1
    if sketch_dataset.measurement_count != vec_dataset.measurement_count:
        print(
            "FAIL: sketch-mode campaign lost measurements "
            f"({sketch_dataset.measurement_count:,} vs "
            f"{vec_dataset.measurement_count:,})"
        )
        return 1

    exact_fig3 = anycast_penalty_ccdf(vec_dataset)
    sketch_fig3 = anycast_penalty_ccdf(sketch_dataset)
    for threshold, exact_fraction in exact_fig3.fraction_slower[
        WORLD
    ].items():
        sketch_fraction = sketch_fig3.fraction_slower[WORLD][threshold]
        if abs(sketch_fraction - exact_fraction) > args.sketch_tolerance:
            print(
                f"FAIL: Fig 3 world fraction >= {threshold:.0f}ms drifted "
                f"{exact_fraction:.3f} -> {sketch_fraction:.3f} in sketch "
                f"mode (tolerance {args.sketch_tolerance})"
            )
            return 1
    exact_fig5 = poor_path_prevalence(vec_dataset)
    sketch_fig5 = poor_path_prevalence(sketch_dataset)
    for threshold in exact_fig5.thresholds:
        exact_fraction = exact_fig5.mean_fraction(threshold)
        sketch_fraction = sketch_fig5.mean_fraction(threshold)
        if abs(sketch_fraction - exact_fraction) > args.sketch_tolerance:
            print(
                f"FAIL: Fig 5 fraction >= {threshold:.0f}ms drifted "
                f"{exact_fraction:.3f} -> {sketch_fraction:.3f} in sketch "
                f"mode (tolerance {args.sketch_tolerance})"
            )
            return 1
    print(
        f"  sketch (threshold {args.sketch_threshold}): serial == 2-worker "
        "digest: ok"
    )
    print(
        f"  sketch Fig 3 + Fig 5 fractions within "
        f"{args.sketch_tolerance} of exact: ok "
        f"(peak traced memory {sketch_probe.peak_bytes / 1e6:.1f} MB)"
    )

    # ------------------------------------------------------------------
    # Load leg: finite front-end capacity with a live overload drill must
    # not slow the hot path — the schedule is computed once at setup and
    # folded as per-day extras, so throughput should be within noise of
    # the capacity-off run.
    load_config = CampaignConfig(
        engine="vectorized",
        frontend_capacity=1.5,
        overload_plan=OverloadPlan.from_spec("flash-crowd:1,drain:1"),
        load_policy="fastroute",
    )
    load_runner = CampaignRunner(scenario, load_config)
    load_dataset = load_runner.run()
    load_snapshot = load_runner.telemetry.snapshot()
    load_seconds = load_snapshot.gauges["campaign.wall_seconds"]["value"]
    load_rate = (
        load_snapshot.counters["campaign.beacons_total"] / load_seconds
    )
    if load_dataset.load_summary is None:
        print("FAIL: capacity-enabled run produced no load summary")
        return 1
    load_sharded = ParallelCampaignRunner(
        scenario, load_config, workers=2
    ).run()
    if load_sharded.digest() != load_dataset.digest():
        print("FAIL: load-leg serial and 2-worker digests diverged")
        return 1
    load_floor = vec_rate * (1.0 - args.max_load_overhead)
    if load_rate < load_floor:
        print(
            f"FAIL: capacity-enabled path ran at {load_rate:,.0f} "
            f"beacons/s, more than {args.max_load_overhead:.0%} below the "
            f"capacity-off rate ({vec_rate:,.0f} beacons/s)"
        )
        return 1
    print(
        f"  load leg (capacity 1.5x, fastroute, flash-crowd+drain): "
        f"{load_seconds:6.2f}s  ({load_rate:9,.0f} beacons/s, "
        f"{load_rate / vec_rate:.2f}x of capacity-off; floor "
        f"{1.0 - args.max_load_overhead:.0%})"
    )
    print("  load leg serial == 2-worker digest + load summary: ok")

    # ------------------------------------------------------------------
    # Memory leg: bounded-mode peak memory must not grow super-linearly
    # in the population.
    memory_leg = None
    if args.memory_populations:
        try:
            small_pop, large_pop = (
                int(part) for part in args.memory_populations.split(",")
            )
        except ValueError:
            print(
                "FAIL: --memory-populations must be two comma-separated "
                f"integers, got {args.memory_populations!r}"
            )
            return 1
        if not 0 < small_pop < large_pop:
            print(
                "FAIL: --memory-populations must be increasing and "
                f"positive, got {args.memory_populations!r}"
            )
            return 1
        peaks = {}
        for prefixes in (small_pop, large_pop):
            mem_scenario = Scenario.build(
                ScenarioConfig(
                    seed=args.seed,
                    population=ClientPopulationConfig(
                        prefix_count=prefixes
                    ),
                    calendar=SimulationCalendar(num_days=2),
                )
            )
            with MemoryProbe() as probe:
                CampaignRunner(mem_scenario, sketch_config).run()
            peaks[prefixes] = probe.peak_bytes
        pop_ratio = large_pop / small_pop
        peak_ratio = peaks[large_pop] / peaks[small_pop]
        limit = pop_ratio * args.memory_slack
        memory_leg = {
            "populations": [small_pop, large_pop],
            "peak_traced_bytes": {
                str(pop): peak for pop, peak in peaks.items()
            },
            "peak_ratio": peak_ratio,
            "limit": limit,
        }
        if peak_ratio > limit:
            print(
                f"FAIL: sketch-mode peak memory grew {peak_ratio:.2f}x "
                f"from {small_pop} to {large_pop} prefixes (limit "
                f"{limit:.2f}x = {pop_ratio:.1f}x population x "
                f"{args.memory_slack} slack)"
            )
            return 1
        print(
            f"  memory ({small_pop} -> {large_pop} prefixes): peak "
            f"{peaks[small_pop] / 1e6:.1f} MB -> "
            f"{peaks[large_pop] / 1e6:.1f} MB "
            f"({peak_ratio:.2f}x <= {limit:.2f}x): ok"
        )

    if args.rss_manifest_out:
        write_run_manifest(
            args.rss_manifest_out,
            vec_snapshot,
            dataset=vec_dataset,
            extra={
                "peak_traced_bytes": {
                    "reference": ref_peak,
                    "vectorized": vec_peak,
                    "matrix": mat_peak,
                    "sketch": sketch_probe.peak_bytes,
                },
                "peak_rss_bytes": peak_rss_bytes(),
                "sketch_threshold": args.sketch_threshold,
                "memory_leg": memory_leg,
            },
        )
        print(f"  wrote memory manifest to {args.rss_manifest_out}")

    if args.fault_plan:
        chaos_runner = ParallelCampaignRunner(
            scenario,
            CampaignConfig(
                engine="vectorized",
                fault_plan=FaultPlan.from_spec(args.fault_plan),
                max_retries=3,
                retry_backoff_seconds=0.0,
            ),
            workers=2,
        )
        chaos_dataset = chaos_runner.run()
        chaos_snapshot = chaos_runner.telemetry.snapshot()
        if args.fault_manifest_out:
            write_run_manifest(
                args.fault_manifest_out,
                chaos_snapshot,
                dataset=chaos_dataset,
                extra={
                    "fault_plan": args.fault_plan,
                    "fired_faults": [
                        list(point) for point in chaos_runner.fired_faults
                    ],
                },
            )
            print(f"  wrote chaos manifest to {args.fault_manifest_out}")
        if chaos_dataset.digest() != vec_dataset.digest():
            print(
                f"FAIL: fault plan {args.fault_plan!r} survived retries but "
                "produced a different digest than the fault-free run"
            )
            return 1
        print(
            f"  chaos ({args.fault_plan}): fired "
            f"{chaos_snapshot.counters.get('faults.injected_total', 0):.0f} "
            "faults, retried digest == clean digest: ok"
        )
    elif args.fault_manifest_out:
        print("FAIL: --fault-manifest-out requires --fault-plan")
        return 1

    if args.dirty_plan:
        dirty_plan = FaultPlan.from_spec(args.dirty_plan)
        dirty_config = CampaignConfig(
            engine="vectorized",
            fault_plan=dirty_plan,
            validation="lenient",
        )
        dirty_runner = CampaignRunner(scenario, dirty_config)
        dirty_dataset = dirty_runner.run()
        quarantine = dirty_runner.quarantine
        dirty_snapshot = dirty_runner.telemetry.snapshot()
        planted = int(
            dirty_snapshot.counters.get("faults.records_planted_total", 0)
        )
        if planted == 0:
            print(
                f"FAIL: dirty plan {args.dirty_plan!r} planted no records "
                "(the chaos leg asserted nothing)"
            )
            return 1
        clean_count = vec_dataset.measurement_count
        dirty_count = dirty_dataset.measurement_count
        if clean_count != dirty_count + quarantine.dropped:
            print(
                "FAIL: quarantine identity broken: clean measurements "
                f"({clean_count:,}) != dirty ({dirty_count:,}) + "
                f"quarantined dropped ({quarantine.dropped:,})"
            )
            return 1

        dirty_sharded_runner = ParallelCampaignRunner(
            scenario, dirty_config, workers=2
        )
        dirty_sharded = dirty_sharded_runner.run()
        if dirty_sharded.digest() != dirty_dataset.digest():
            print("FAIL: dirty serial and 2-worker digests diverged")
            return 1
        if dirty_sharded_runner.quarantine.digest() != quarantine.digest():
            print(
                "FAIL: dirty serial and 2-worker quarantine logs diverged"
            )
            return 1

        ref_dirty_runner = CampaignRunner(
            scenario,
            CampaignConfig(
                engine="reference",
                fault_plan=dirty_plan,
                validation="lenient",
            ),
        )
        ref_dirty_runner.run()
        if ref_dirty_runner.quarantine.counts != quarantine.counts:
            print(
                "FAIL: reference and vectorized engines quarantined "
                f"different records ({ref_dirty_runner.quarantine.counts} "
                f"vs {quarantine.counts})"
            )
            return 1

        # Torn-tail recovery: export the dirty dataset through the framed
        # writer, rip the tail off, and salvage what survived.
        with tempfile.TemporaryDirectory(prefix="perf-smoke-") as tmpdir:
            dirty_path = os.path.join(tmpdir, "dirty-dataset.json")
            save_dataset(dirty_dataset, dirty_path)
            size = os.path.getsize(dirty_path)
            with open(dirty_path, "r+b") as handle:
                handle.truncate(size - 200)
            recovered, recovery = recover_dataset(dirty_path)
        if recovery.report.complete:
            print(
                "FAIL: torn-tail export still reported a complete recovery"
            )
            return 1
        if recovered.beacon_count != dirty_dataset.beacon_count:
            print(
                "FAIL: torn-tail recovery lost client records "
                f"({recovered.beacon_count:,} of "
                f"{dirty_dataset.beacon_count:,} beacons)"
            )
            return 1

        if args.dirty_manifest_out:
            write_run_manifest(
                args.dirty_manifest_out,
                dirty_snapshot,
                dataset=dirty_dataset,
                extra={
                    "dirty_plan": args.dirty_plan,
                    "records_planted": planted,
                    "quarantine": quarantine.summary(),
                    "quarantine_digest": quarantine.digest(),
                    "torn_tail_recovery": recovery.to_obj(),
                },
            )
            print(f"  wrote dirty-data manifest to {args.dirty_manifest_out}")

        print(
            f"  dirty ({args.dirty_plan}): planted {planted} records, "
            f"quarantined {quarantine.total} "
            f"({dict(sorted(quarantine.counts.items()))})"
        )
        print("  clean == dirty + quarantined measurement identity: ok")
        print("  dirty serial == 2-worker digest + quarantine digest: ok")
        print("  reference == vectorized quarantine counts: ok")
        print(
            "  torn-tail recovery: salvaged "
            f"{recovery.recovered_measurement_count:,}/"
            f"{recovery.claimed_measurement_count:,} measurements: ok"
        )
    elif args.dirty_manifest_out:
        print("FAIL: --dirty-manifest-out requires --dirty-plan")
        return 1

    if args.history_out:
        # Seed the perf-history ledger so tools/bench_history.py has a
        # record per leg even on a job's very first run.  Each record's
        # engine and config hash come from its run context: the load
        # leg's capacity, drill and policy are data settings, so it
        # gets its own group.
        history = BenchHistory.load(args.history_out)
        for dataset, snapshot in (
            (ref_dataset, ref_snapshot),
            (vec_dataset, vec_snapshot),
            (mat_dataset, mat_snapshot),
            (load_dataset, load_snapshot),
        ):
            history.append(
                record_from_snapshot(snapshot, "perf-smoke", dataset=dataset)
            )
        history.save(args.history_out)
        print(
            f"  appended 4 perf-history records to {args.history_out} "
            f"({len(history.records)} total)"
        )

    if speedup < args.min_speedup:
        print(
            f"FAIL: vectorized engine only {speedup:.2f}x over reference "
            f"(required >= {args.min_speedup:.1f}x)"
        )
        return 1
    if matrix_speedup < args.min_matrix_speedup:
        print(
            f"FAIL: matrix engine only {matrix_speedup:.2f}x over "
            f"vectorized (required >= {args.min_matrix_speedup:.1f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
