"""CI performance smoke: engine throughput ratios, load floor, memory growth.

Times one small campaign through the reference, vectorized and matrix
engines on the same host and fails (exit code 1) unless the vectorized
engine's serial beacon throughput is at least ``--min-speedup`` times the
reference engine's and the matrix engine's is at least
``--min-matrix-speedup`` times the vectorized engine's.  CI passes 3.0
and 2.0: low enough that shared CI runners don't flake, while still
catching any change that de-vectorizes the hot path.  The timed matrix
run must also reproduce the vectorized run's dataset digest (the chunked
engine is the matrix engine's oracle), so a fast but wrong matrix engine
cannot pass.

The load leg reruns the vectorized campaign with finite front-end
capacity, a live overload drill and fastroute shedding, and fails if its
throughput falls more than ``--max-load-overhead`` below the
capacity-off run's.  Every timed leg runs under the same tracemalloc
probe, so the two rates compare like with like.

The memory leg (``--memory-populations A,B``) runs a bounded sketch-mode
campaign at two population sizes under a tracemalloc probe and fails if
peak traced memory grows super-linearly in the population: the cheap
guard against retention regressions.  The strict flatness gate lives in
``tools/memory_smoke.py``.

The smoke measures; the determinism contracts (serial == sharded,
fault-retried == clean, clean == dirty + quarantined, sketch figures
near exact) are asserted by the test suite.  ``--rss-manifest-out``
writes the tracemalloc peaks and the process peak RSS, and
``--history-out`` appends one ledger record per timed leg for
``tools/bench_history.py``.

Usage::

    PYTHONPATH=src python tools/perf_smoke.py [--min-speedup 3.0] \\
        [--min-matrix-speedup 2.0] [--rss-manifest-out manifest.json] \\
        [--history-out BENCH_history.json]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.clients.population import ClientPopulationConfig
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset
from repro.simulation.episodes import OverloadPlan
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import (
    BenchHistory,
    MemoryProbe,
    TelemetrySnapshot,
    peak_rss_bytes,
    record_from_snapshot,
    write_run_manifest,
)

#: The timed engines, slowest first.
ENGINES = ("reference", "vectorized", "matrix")


class Leg(NamedTuple):
    """One timed serial campaign."""

    dataset: StudyDataset
    snapshot: TelemetrySnapshot
    seconds: float
    rate: float
    #: tracemalloc peak.
    peak_bytes: int


def _scenario(seed: int, prefixes: int, days: int) -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=seed,
            population=ClientPopulationConfig(prefix_count=prefixes),
            calendar=SimulationCalendar(num_days=days),
        )
    )


def _timed_serial(scenario: Scenario, config: CampaignConfig) -> Leg:
    """Run one serial campaign; timings come from its telemetry snapshot.

    Every leg runs under a tracemalloc probe, which slows it, so the
    legs' rates compare like with like.
    """
    runner = CampaignRunner(scenario, config)
    with MemoryProbe() as probe:
        dataset = runner.run()
    snapshot = runner.telemetry.snapshot()
    seconds = snapshot.gauges["campaign.wall_seconds"]["value"]
    rate = snapshot.counters["campaign.beacons_total"] / seconds
    return Leg(dataset, snapshot, seconds, rate, probe.peak_bytes)


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
        "--sketch-threshold", type=int, default=64, metavar="N",
        help=(
            "per-digest exact-sample budget of the memory leg's bounded "
            "campaigns (digests above it compress into mergeable sketches)"
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
            "append one perf-history record per timed leg to this "
            "ledger for tools/bench_history.py (empty string disables; "
            "default %(default)s)"
        ),
    )
    args = parser.parse_args(argv)

    populations: List[int] = []
    if args.memory_populations:
        try:
            populations = [
                int(part) for part in args.memory_populations.split(",")
            ]
        except ValueError:
            pass
        if len(populations) != 2 or not 0 < populations[0] < populations[1]:
            parser.error(
                "--memory-populations must be two increasing positive "
                f"integers, got {args.memory_populations!r}"
            )

    scenario = _scenario(args.seed, args.prefixes, args.days)
    legs: Dict[str, Leg] = {
        engine: _timed_serial(scenario, CampaignConfig(engine=engine))
        for engine in ENGINES
    }
    if legs["matrix"].dataset.digest() != legs["vectorized"].dataset.digest():
        print(
            "FAIL: matrix engine digest diverged from its vectorized "
            "oracle (the engines must share every counter-keyed draw)"
        )
        return 1
    vec_rate = legs["vectorized"].rate
    speedup = vec_rate / legs["reference"].rate
    matrix_speedup = legs["matrix"].rate / vec_rate

    print(
        f"perf smoke ({args.prefixes} /24s x {args.days} days, "
        f"seed {args.seed}):"
    )
    for engine in ENGINES:
        leg = legs[engine]
        print(
            f"  {engine + ':':11} {leg.seconds:6.2f}s  "
            f"({leg.rate:9,.0f} beacons/s)"
        )
    for engine in ENGINES:
        phases = ", ".join(
            f"{path.rsplit('/', 1)[-1]}={record.seconds:.2f}s"
            for path, record in legs[engine].snapshot.span_children(
                "campaign/day"
            )
        )
        print(f"  {engine} day phases: {phases}")
    print(f"  speedup: {speedup:.2f}x (required >= {args.min_speedup:.1f}x)")
    print(
        f"  matrix speedup over vectorized: {matrix_speedup:.2f}x "
        f"(required >= {args.min_matrix_speedup:.1f}x)"
    )
    print(
        "  peak traced memory: "
        + ", ".join(
            f"{engine} {legs[engine].peak_bytes / 1e6:.1f} MB"
            for engine in ENGINES
        )
        + f" (process peak RSS {peak_rss_bytes() / 1e6:.1f} MB)"
    )
    print("  matrix serial == vectorized serial digest: ok")

    failures: List[str] = []
    if speedup < args.min_speedup:
        failures.append(
            f"vectorized engine only {speedup:.2f}x over reference "
            f"(required >= {args.min_speedup:.1f}x)"
        )
    if matrix_speedup < args.min_matrix_speedup:
        failures.append(
            f"matrix engine only {matrix_speedup:.2f}x over vectorized "
            f"(required >= {args.min_matrix_speedup:.1f}x)"
        )

    # ------------------------------------------------------------------
    # Load leg: finite front-end capacity with a live overload drill must
    # not slow the hot path — the schedule is computed once at setup and
    # folded as per-day extras, so throughput should be within noise of
    # the capacity-off run.
    load = _timed_serial(
        scenario,
        CampaignConfig(
            engine="vectorized",
            frontend_capacity=1.5,
            overload_plan=OverloadPlan.from_spec("flash-crowd:1,drain:1"),
            load_policy="fastroute",
        ),
    )
    legs["load"] = load
    print(
        f"  load leg (capacity 1.5x, fastroute, flash-crowd+drain): "
        f"{load.seconds:6.2f}s  ({load.rate:9,.0f} beacons/s, "
        f"{load.rate / vec_rate:.2f}x of capacity-off; floor "
        f"{1.0 - args.max_load_overhead:.0%})"
    )
    if load.rate < vec_rate * (1.0 - args.max_load_overhead):
        failures.append(
            f"capacity-enabled path ran at {load.rate:,.0f} beacons/s, "
            f"more than {args.max_load_overhead:.0%} below the "
            f"capacity-off rate ({vec_rate:,.0f} beacons/s)"
        )

    # ------------------------------------------------------------------
    # Memory leg: bounded-mode peak memory must not grow super-linearly
    # in the population.
    memory_leg = None
    if populations:
        small_pop, large_pop = populations
        sketch_config = CampaignConfig(
            engine="vectorized", sketch_threshold=args.sketch_threshold
        )
        peaks = {}
        for prefixes in populations:
            mem_scenario = _scenario(args.seed, prefixes, 2)
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
        print(
            f"  memory ({small_pop} -> {large_pop} prefixes): peak "
            f"{peaks[small_pop] / 1e6:.1f} MB -> "
            f"{peaks[large_pop] / 1e6:.1f} MB "
            f"({peak_ratio:.2f}x, limit {limit:.2f}x)"
        )
        if peak_ratio > limit:
            failures.append(
                f"sketch-mode peak memory grew {peak_ratio:.2f}x from "
                f"{small_pop} to {large_pop} prefixes (limit {limit:.2f}x "
                f"= {pop_ratio:.1f}x population x {args.memory_slack} "
                "slack)"
            )

    if args.rss_manifest_out:
        write_run_manifest(
            args.rss_manifest_out,
            legs["vectorized"].snapshot,
            dataset=legs["vectorized"].dataset,
            extra={
                "peak_traced_bytes": {
                    engine: legs[engine].peak_bytes for engine in ENGINES
                },
                "peak_rss_bytes": peak_rss_bytes(),
                "sketch_threshold": args.sketch_threshold,
                "memory_leg": memory_leg,
            },
        )
        print(f"  wrote memory manifest to {args.rss_manifest_out}")

    if args.history_out:
        # Seed the perf-history ledger so tools/bench_history.py has a
        # record per leg even on a job's very first run.  Each record's
        # engine and config hash come from its run context: the load
        # leg's capacity, drill and policy are data settings, so it
        # gets its own group.
        history = BenchHistory.load(args.history_out)
        for leg in legs.values():
            history.append(
                record_from_snapshot(
                    leg.snapshot, "perf-smoke", dataset=leg.dataset
                )
            )
        history.save(args.history_out)
        print(
            f"  appended {len(legs)} perf-history records to "
            f"{args.history_out} ({len(history.records)} total)"
        )

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
