"""Performance benchmarks for the simulation substrate itself.

These are classic microbenchmarks (not figure reproductions): how fast the
BGP solver converges, how fast the data plane resolves, and how fast a
full campaign runs — serial and sharded across worker processes, with
both measurement engines.  They guard against performance regressions in
the hot paths every figure depends on.
"""

import os

import pytest

from conftest import write_report

from repro.cdn.deployment import DeploymentConfig, attach_cdn
from repro.cdn.network import CdnNetwork
from repro.clients.population import ClientPopulationConfig
from repro.geo.metros import MetroDatabase
from repro.net.bgp import Announcement, RouteComputation
from repro.net.topology import AsRole, TopologyBuilder, populate_base_internet
from repro.clients.workload import WorkloadConfig
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import (
    MemoryProbe,
    manifest_path_for,
    peak_rss_bytes,
    write_run_manifest,
)

#: Worker count for the parallel campaign cases, sized to the host — a
#: worker per core.  Parallel cases skip on single-core hosts, where
#: sharding can only lose (process startup plus scenario rebuild on the
#: same core that runs the work).
PARALLEL_WORKERS = os.cpu_count() or 1


def build_world(seed=11):
    builder = TopologyBuilder(MetroDatabase())
    populate_base_internet(builder, seed=seed)
    deployment = attach_cdn(builder, DeploymentConfig(), seed=seed)
    return builder.build(), deployment


def test_bgp_anycast_computation(benchmark):
    topology, deployment = build_world()
    computation = RouteComputation(topology)
    announcement = Announcement(
        prefix=deployment.anycast_prefix, origin_asn=deployment.asn
    )
    rib = benchmark(computation.compute, announcement)
    assert len(rib) == len(topology)


def test_cdn_network_construction(benchmark):
    """Builds the anycast RIB plus one unicast RIB per front-end."""
    topology, deployment = build_world()
    network = benchmark(CdnNetwork, topology, deployment)
    assert len(network.frontends) == len(deployment.frontends)


def test_data_plane_resolution(benchmark):
    topology, deployment = build_world()
    network = CdnNetwork(topology, deployment)
    pairs = [
        (a.asn, sorted(a.pop_metros)[0])
        for a in topology.ases_with_role(AsRole.ACCESS)
    ]

    def resolve_all():
        total_km = 0.0
        for asn, metro in pairs:
            total_km += network.anycast_path(asn, metro).total_km
        return total_km

    benchmark(resolve_all)


def _campaign_scenario():
    config = ScenarioConfig(
        seed=3,
        population=ClientPopulationConfig(prefix_count=150),
        calendar=SimulationCalendar(num_days=1),
    )
    return Scenario.build(config)


def test_single_campaign_day(benchmark):
    """End-to-end cost of one measured day at a small population."""
    scenario = _campaign_scenario()

    def run_day():
        return CampaignRunner(scenario).run().measurement_count

    measurements = benchmark.pedantic(run_day, rounds=3, iterations=1)
    assert measurements > 0


def test_single_campaign_day_vectorized(benchmark):
    """The same day through the vectorized measurement engine."""
    scenario = _campaign_scenario()
    config = CampaignConfig(engine="vectorized")

    def run_day():
        return CampaignRunner(scenario, config).run().measurement_count

    measurements = benchmark.pedantic(run_day, rounds=3, iterations=1)
    assert measurements > 0


def test_single_campaign_day_matrix(benchmark):
    """The same day through the whole-day matrix engine."""
    scenario = _campaign_scenario()
    config = CampaignConfig(engine="matrix")

    def run_day():
        return CampaignRunner(scenario, config).run().measurement_count

    measurements = benchmark.pedantic(run_day, rounds=3, iterations=1)
    assert measurements > 0


def test_single_campaign_day_parallel(benchmark):
    """The same day sharded across worker processes.

    Each worker rebuilds the scenario, so the win over serial only shows
    at populations large enough to amortize startup — and needs as many
    free cores as workers.  The digest assertion is the real guarantee:
    the parallel path produces a bit-identical dataset.
    """
    if PARALLEL_WORKERS < 2:
        pytest.skip("host has fewer than 2 cores; sharding cannot win")
    scenario = _campaign_scenario()
    serial_digest = CampaignRunner(scenario).run().digest()

    def run_day():
        return ParallelCampaignRunner(
            scenario, workers=PARALLEL_WORKERS
        ).run()

    dataset = benchmark.pedantic(run_day, rounds=3, iterations=1)
    assert dataset.measurement_count > 0
    assert dataset.digest() == serial_digest


def _timed_run(scenario, engine, workers=1):
    """Run one campaign; return (dataset, stats, telemetry snapshot).

    Timings come from the run's own telemetry — the ``campaign.wall_seconds``
    gauge and the phase-span tree — rather than an external stopwatch, so
    the benchmark reports exactly what every other consumer of the
    snapshot sees.
    """
    config = CampaignConfig(engine=engine)
    if workers == 1:
        runner = CampaignRunner(scenario, config)
    else:
        runner = ParallelCampaignRunner(scenario, config, workers=workers)
    dataset = runner.run()
    return dataset, runner.stats, runner.telemetry.snapshot()


def _wall_seconds(snapshot):
    return snapshot.gauges["campaign.wall_seconds"]["value"]


def _beacon_rate(snapshot):
    return snapshot.counters["campaign.beacons_total"] / _wall_seconds(snapshot)


def test_campaign_engines_report():
    """Record engine and sharding wall-clock for a multi-day campaign.

    Writes the numbers (plus the host's core count, which bounds the
    achievable sharding speedup) to
    ``benchmarks/out/pipeline_performance.txt``.  A multi-day run is the
    representative regime — the paper's campaign spans a month — and it
    amortizes the one-time path-cache warm-up that dominates day 1 for
    every engine.  The parallel timing rows are skipped (with a note) on
    single-core hosts, where sharding can only lose; the vectorized
    serial-vs-sharded digest check still runs, because it is a
    correctness property, not a timing.

    Three engines are recorded: reference (scalar oracle), vectorized
    (chunked per-client batches), and matrix (whole-day cross-client
    draws).  Matrix and vectorized share every counter-keyed stream, so
    the report asserts their digests match bit for bit, while reference
    is only statistically equivalent.  The analysis read path is timed
    too: one framed-JSON parse against one memory-mapped columnar
    sidecar load of the same export.
    """
    config = ScenarioConfig(
        seed=3,
        population=ClientPopulationConfig(prefix_count=600),
        calendar=SimulationCalendar(num_days=3),
    )
    scenario = Scenario.build(config)
    cores = os.cpu_count() or 1

    reference, ref_stats, ref_snapshot = _timed_run(scenario, "reference")
    vectorized, vec_stats, vec_snapshot = _timed_run(scenario, "vectorized")
    matrix, mat_stats, mat_snapshot = _timed_run(scenario, "matrix")
    assert matrix.digest() == vectorized.digest(), (
        "matrix engine diverged from its vectorized oracle"
    )
    ref_seconds = _wall_seconds(ref_snapshot)
    vec_seconds = _wall_seconds(vec_snapshot)
    mat_seconds = _wall_seconds(mat_snapshot)
    speedup = _beacon_rate(vec_snapshot) / _beacon_rate(ref_snapshot)
    matrix_speedup = _beacon_rate(mat_snapshot) / _beacon_rate(vec_snapshot)

    lines = [
        "pipeline performance: 3-day campaign, 600 client /24s",
        f"host cores: {cores}",
        (
            f"engine=reference  serial: {ref_seconds:7.2f}s  "
            f"({_beacon_rate(ref_snapshot):8,.0f} beacons/s)"
        ),
        (
            f"engine=vectorized serial: {vec_seconds:7.2f}s  "
            f"({_beacon_rate(vec_snapshot):8,.0f} beacons/s)"
        ),
        (
            f"engine=matrix     serial: {mat_seconds:7.2f}s  "
            f"({_beacon_rate(mat_snapshot):8,.0f} beacons/s)"
        ),
        f"vectorized speedup over reference: {speedup:.2f}x (target >= 5x)",
        (
            f"matrix speedup over vectorized: {matrix_speedup:.2f}x "
            "(bit-identical digests; CI gates >= 2x via tools/perf_smoke.py)"
        ),
    ]
    for label, snapshot in (
        ("reference", ref_snapshot),
        ("vectorized", vec_snapshot),
        ("matrix", mat_snapshot),
    ):
        phases = ", ".join(
            f"{path.rsplit('/', 1)[-1]}={record.seconds:.2f}s"
            for path, record in snapshot.span_children("campaign/day")
        )
        lines.append(f"engine={label:10s} day phases: {phases}")
    member_table = dict(mat_snapshot.span_children("campaign")).get(
        "campaign/matrix-member-table"
    )
    if member_table is not None:
        lines.append(
            "engine=matrix     one-time member table: "
            f"{member_table.seconds:.2f}s (amortized across all days)"
        )

    if cores >= 2:
        for engine in ("reference", "vectorized", "matrix"):
            dataset, stats, snapshot = _timed_run(
                scenario, engine, workers=PARALLEL_WORKERS
            )
            serial = {
                "reference": reference,
                "vectorized": vectorized,
                "matrix": matrix,
            }[engine]
            assert dataset.digest() == serial.digest()
            lines.append(
                f"engine={engine:10s} parallel: {_wall_seconds(snapshot):7.2f}s  "
                f"({_beacon_rate(snapshot):8,.0f} beacons/s, "
                f"workers={PARALLEL_WORKERS})"
            )
    else:
        lines.append(
            "parallel timing: skipped (single-core host; sharding adds "
            "process startup without adding compute)"
        )
        for engine, serial in (
            ("vectorized", vectorized), ("matrix", matrix)
        ):
            sharded, _, _ = _timed_run(scenario, engine, workers=2)
            assert sharded.digest() == serial.digest()
            lines.append(
                f"{engine} serial vs workers=2: identical "
                "(same StudyDataset.digest())"
            )

    # Regression guards, looser than the recorded headline numbers so a
    # noisy host does not flake the suite.
    assert speedup >= 3.0, (
        f"vectorized engine only {speedup:.2f}x over reference"
    )
    assert matrix_speedup >= 1.5, (
        f"matrix engine only {matrix_speedup:.2f}x over vectorized"
    )

    lines.extend(_analysis_load_report(matrix))

    memory_lines, memory_record = _memory_report()
    lines.extend(memory_lines)

    report_path = write_report("pipeline_performance", "\n".join(lines))
    # The manifest makes the recorded numbers self-describing: which
    # configuration produced them, and where the wall-clock went.
    write_run_manifest(
        manifest_path_for(str(report_path)),
        mat_snapshot,
        dataset=matrix,
        extra={"artifact": str(report_path), "memory": memory_record},
    )


def _analysis_load_report(dataset):
    """Time the analysis read path: framed parse vs columnar sidecar.

    Saves the campaign's dataset once (which writes both the framed
    export and its ``.cols`` sidecar), then times a best-of-five framed
    parse against a best-of-five memory-mapped columnar load and
    asserts both return the same dataset.  A collection runs before
    each timed load so the generations left behind by the campaign runs
    above don't trip a full GC inside one timing window and not another.
    """
    import gc
    import tempfile
    import time

    from repro.measurement.export import (
        load_dataset,
        recover_dataset,
        save_dataset,
    )

    with tempfile.TemporaryDirectory(prefix="bench-load-") as tmpdir:
        path = os.path.join(tmpdir, "dataset.json")
        save_dataset(dataset, path)
        export_mb = os.path.getsize(path) / (1024.0 * 1024.0)
        sidecar_mb = os.path.getsize(path + ".cols") / (1024.0 * 1024.0)
        framed_seconds, columnar_seconds = [], []
        for _ in range(5):
            gc.collect()
            start = time.perf_counter()
            framed = recover_dataset(path)[0]  # frames only, no sidecar
            framed_seconds.append(time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            columnar = load_dataset(path)
            columnar_seconds.append(time.perf_counter() - start)
    assert framed.digest() == dataset.digest()
    assert columnar.digest() == dataset.digest()
    framed_best = min(framed_seconds)
    columnar_best = min(columnar_seconds)
    return [
        "analysis load (same export, best of 5):",
        (
            f"  framed JSON parse:      {framed_best:6.3f}s "
            f"({export_mb:.1f} MB export)"
        ),
        (
            f"  columnar sidecar mmap:  {columnar_best:6.3f}s "
            f"({sidecar_mb:.1f} MB sidecar)"
        ),
        (
            f"  columnar speedup: {framed_best / columnar_best:.2f}x "
            "(identical StudyDataset.digest())"
        ),
    ]


def _memory_scenario(clients: int) -> Scenario:
    """Fixed shape (150 /24s x 2 days), client load behind it scaled.

    The per-day beacon cap is lifted so the load knob actually reaches
    the measurement path — the same construction ``tools/memory_smoke.py``
    gates in CI, scaled down to benchmark-friendly sizes.
    """
    return Scenario.build(
        ScenarioConfig(
            seed=3,
            population=ClientPopulationConfig(
                prefix_count=150,
                volume_median_queries=max(1.0, clients / 150),
            ),
            workload=WorkloadConfig(max_beacons_per_day=1_000_000),
            calendar=SimulationCalendar(num_days=2),
        )
    )


def _memory_report():
    """Measure peak memory: exact vs sketch mode, then sketch under 3x load.

    Returns the report lines and a manifest record.  Fails the benchmark
    if sketch-mode peak memory grows with load (it must be nearly flat;
    exact mode is the linear baseline recorded for contrast).  The sizes
    and the 1.15x limit are exactly the ones ``tools/memory_smoke.py``
    gates in CI — smaller sizes sit in a regime where fixed transient
    buffers dominate the (small) peaks and the ratio reads as growth,
    which is how this report once claimed 1.87x while the gate held.
    """
    base_clients, scaled_clients = 100_000, 300_000
    load_ratio = scaled_clients / base_clients
    sketch_config = CampaignConfig(
        engine="vectorized", sketch_threshold=32, sketch_max_buckets=32
    )

    # Every probed run gets its own cold scenario, built OUTSIDE the
    # probe window — exactly how the CI gate measures.  This report once
    # claimed 1.87x growth against the gate's 1.15x because its windows
    # were uneven: the base sketch run reused a scenario whose caches a
    # prior run had already warmed (deflating its peak), while the
    # scaled window also swallowed its own scenario construction.
    exact_scenario = _memory_scenario(base_clients)
    base = _memory_scenario(base_clients)
    scaled_scenario = _memory_scenario(scaled_clients)
    with MemoryProbe() as exact_probe:
        exact = CampaignRunner(
            exact_scenario, CampaignConfig(engine="vectorized")
        ).run()
    with MemoryProbe() as sketch_probe:
        sketched = CampaignRunner(base, sketch_config).run()
    with MemoryProbe() as scaled_probe:
        scaled = CampaignRunner(scaled_scenario, sketch_config).run()

    peak_ratio = scaled_probe.peak_bytes / sketch_probe.peak_bytes
    # Same flat-memory contract tools/memory_smoke.py gates in CI: the
    # campaign shape is fixed, so peak memory must not track the load.
    # The benchmark records and enforces the same 1.15x limit so the
    # recorded number can never contradict the gate.
    assert peak_ratio <= 1.15, (
        f"sketch-mode peak memory grew {peak_ratio:.3f}x under "
        f"{load_ratio:.0f}x load — breaks the flat-memory contract "
        f"(tools/memory_smoke.py gates <= 1.15x)"
    )

    mb = 1024.0 * 1024.0
    lines = [
        "memory (tracemalloc peak, 150 /24s x 2 days, load scaled):",
        (
            f"  exact  @ {base_clients:7,} clients: "
            f"{exact_probe.peak_bytes / mb:6.1f} MB "
            f"({exact.measurement_count:,} measurements)"
        ),
        (
            f"  sketch @ {base_clients:7,} clients: "
            f"{sketch_probe.peak_bytes / mb:6.1f} MB "
            f"({sketched.measurement_count:,} measurements)"
        ),
        (
            f"  sketch @ {scaled_clients:7,} clients: "
            f"{scaled_probe.peak_bytes / mb:6.1f} MB "
            f"({scaled.measurement_count:,} measurements)"
        ),
        (
            f"  sketch peak growth under {load_ratio:.0f}x load: "
            f"{peak_ratio:.3f}x (flat-memory contract: <= 1.15x, same "
            f"limit tools/memory_smoke.py gates in CI)"
        ),
        f"  process peak RSS: {peak_rss_bytes() / mb:.1f} MB",
    ]
    record = {
        "exact_peak_bytes": exact_probe.peak_bytes,
        "sketch_peak_bytes": sketch_probe.peak_bytes,
        "sketch_scaled_peak_bytes": scaled_probe.peak_bytes,
        "load_ratio": load_ratio,
        "sketch_peak_ratio": peak_ratio,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    return lines, record
