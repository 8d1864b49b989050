"""Campaign-level sketch mode: shard parity, chaos, figure tolerance.

The constant-memory mode is only usable if it keeps the guarantees the
exact pipeline already has: serial == sharded bit-for-bit (even with the
bucket cap binding), fault-injected runs recover to the clean digest,
checkpoints resume, and the headline figures stay within the sketch's
error tolerance of the exact-mode answers.
"""

import pytest

from repro.analysis.anycast_perf import (
    EUROPE,
    UNITED_STATES,
    WORLD,
    anycast_penalty_ccdf,
)
from repro.analysis.poor_paths import poor_path_prevalence
from repro.analysis.prediction_eval import evaluate_prediction
from repro.clients.population import ClientPopulationConfig
from repro.clients.workload import WorkloadConfig
from repro.core.predictor import HistoryBasedPredictor
from repro.faults import FaultPlan
from repro.simulation.campaign import (
    _MAX_BLOCK_BEACONS,
    CampaignConfig,
    CampaignRunner,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig

#: Sketch config whose bucket cap genuinely binds on the smoke scenario
#: (the parity claims below are vacuous if no sketch ever compresses).
CAPPED = dict(engine="vectorized", sketch_threshold=4, sketch_max_buckets=8)


@pytest.fixture(scope="module")
def sketch_scenario() -> Scenario:
    return Scenario.build(ScenarioConfig.smoke_scale(seed=11))


@pytest.fixture(scope="module")
def serial_capped(sketch_scenario):
    runner = CampaignRunner(sketch_scenario, CampaignConfig(**CAPPED))
    dataset = runner.run()
    return runner, dataset


def test_cap_binds_and_telemetry_counts_halvings(serial_capped):
    runner, dataset = serial_capped
    _, sketched, _, _, halvings = dataset.ecs_aggregates.sketch_stats()
    assert sketched > 0
    assert halvings > 0  # the 8-bucket cap forced compressions
    counters = runner.telemetry.snapshot().counters
    assert counters["sketch.compressions_total"] > 0


def test_serial_matches_sharded_with_binding_cap(
    sketch_scenario, serial_capped
):
    _, serial_dataset = serial_capped
    sharded = ParallelCampaignRunner(
        sketch_scenario, CampaignConfig(**CAPPED), workers=2
    ).run()
    assert sharded.digest() == serial_dataset.digest()


def test_chaos_retry_is_bit_identical_in_sketch_mode(
    sketch_scenario, serial_capped
):
    _, serial_dataset = serial_capped
    runner = ParallelCampaignRunner(
        sketch_scenario,
        CampaignConfig(
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
            **CAPPED,
        ),
        workers=2,
    )
    dataset = runner.run()
    assert dataset.digest() == serial_dataset.digest()
    counters = runner.telemetry.snapshot().counters
    assert counters["faults.injected_total"] == 1


def test_dirty_data_sketch_run_is_shard_invariant(sketch_scenario):
    # On the matrix engine, quarantined cells meet promoted cells in its
    # one chunk sink; the vectorized engine is its oracle.
    serial = {}
    for engine in ("vectorized", "matrix"):
        dirty = CampaignConfig(
            fault_plan=FaultPlan.from_spec(
                "record-corrupt:3,record-clock-skew:2"
            ),
            validation="lenient",
            **{**CAPPED, "engine": engine},
        )
        runner = CampaignRunner(sketch_scenario, dirty)
        dataset = runner.run()
        sharded = ParallelCampaignRunner(
            sketch_scenario, dirty, workers=2
        ).run()
        assert sharded.digest() == dataset.digest(), engine
        serial[engine] = (dataset.digest(), runner.quarantine.total)
    assert serial["matrix"] == serial["vectorized"]
    assert serial["matrix"][1] > 0


def test_checkpoint_resume_in_sketch_mode(
    sketch_scenario, serial_capped, tmp_path
):
    _, serial_dataset = serial_capped
    checkpoint_dir = str(tmp_path / "ckpt")
    first = ParallelCampaignRunner(
        sketch_scenario,
        CampaignConfig(checkpoint_dir=checkpoint_dir, **CAPPED),
        workers=2,
    )
    first.run()
    resumed = ParallelCampaignRunner(
        sketch_scenario,
        CampaignConfig(
            checkpoint_dir=checkpoint_dir, resume=True, **CAPPED
        ),
        workers=2,
    )
    dataset = resumed.run()
    counters = resumed.telemetry.snapshot().counters
    assert counters["checkpoint.loaded_total"] == 2  # no shard re-ran
    assert dataset.digest() == serial_dataset.digest()


class TestChunkedEngine:
    """Client-days larger than one beacon block stay deterministic."""

    @pytest.fixture(scope="class")
    def heavy_scenario(self) -> Scenario:
        # Two /24s with enough daily volume that at least one client-day
        # exceeds _MAX_BLOCK_BEACONS, forcing the chunked path.
        return Scenario.build(
            ScenarioConfig(
                seed=5,
                population=ClientPopulationConfig(
                    prefix_count=2,
                    volume_median_queries=40_000.0,
                ),
                workload=WorkloadConfig(max_beacons_per_day=50_000),
                calendar=SimulationCalendar(num_days=1),
            )
        )

    def test_chunked_run_is_shard_invariant(self, heavy_scenario):
        config = CampaignConfig(
            engine="vectorized", sketch_threshold=32, sketch_max_buckets=64
        )
        serial = CampaignRunner(heavy_scenario, config).run()
        # With 2 client-days, a total beyond 2 blocks means at least one
        # client-day actually chunked.
        assert serial.beacon_count > 2 * _MAX_BLOCK_BEACONS
        sharded = ParallelCampaignRunner(
            heavy_scenario, config, workers=2
        ).run()
        assert sharded.digest() == serial.digest()


class TestFigureTolerance:
    """Figs 3, 5, and 9 from a sketch campaign track the exact answers."""

    @pytest.fixture(scope="class")
    def figure_datasets(self, sketch_scenario):
        exact = CampaignRunner(
            sketch_scenario, CampaignConfig(engine="vectorized")
        ).run()
        # Production accuracy: 1% sketches, default cap — the config the
        # README documents for large campaigns.
        sketched = CampaignRunner(
            sketch_scenario,
            CampaignConfig(engine="vectorized", sketch_threshold=32),
        ).run()
        return exact, sketched

    def test_sketch_mode_keeps_every_measurement(self, figure_datasets):
        exact, sketched = figure_datasets
        assert sketched.measurement_count == exact.measurement_count

    def test_fig3_penalty_fractions(self, figure_datasets):
        exact, sketched = figure_datasets
        reference = anycast_penalty_ccdf(exact).fraction_slower
        bounded = anycast_penalty_ccdf(sketched).fraction_slower
        assert set(reference) == {EUROPE, WORLD, UNITED_STATES}
        assert set(bounded) == set(reference)
        for region, curve in reference.items():
            assert set(curve) == {1.0, 10.0, 25.0, 50.0, 100.0}
            for threshold, fraction in curve.items():
                assert bounded[region][threshold] == pytest.approx(
                    fraction, abs=0.05
                ), (region, threshold)

    def test_fig5_poor_path_prevalence(self, figure_datasets):
        exact, sketched = figure_datasets
        reference = poor_path_prevalence(exact)
        bounded = poor_path_prevalence(sketched)
        for threshold in reference.thresholds:
            assert reference.mean_fraction(threshold) == pytest.approx(
                bounded.mean_fraction(threshold), abs=0.05
            )

    def test_fig9_prediction(self, figure_datasets):
        exact, sketched = figure_datasets
        reference = evaluate_prediction(exact, HistoryBasedPredictor())
        bounded = evaluate_prediction(sketched, HistoryBasedPredictor())
        for ref in reference.summaries:
            bnd = bounded.summary(ref.grouping, ref.percentile)
            assert ref.fraction_improved == pytest.approx(
                bnd.fraction_improved, abs=0.1
            )
            assert ref.fraction_worse == pytest.approx(
                bnd.fraction_worse, abs=0.1
            )
