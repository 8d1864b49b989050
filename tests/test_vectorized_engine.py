"""The vectorized measurement engine and its bulk sink APIs.

Two contracts under test:

* **Determinism within the engine** — a vectorized run is a pure function
  of the seed, and serial ≡ sharded ≡ parallel bit-for-bit (same
  :meth:`StudyDataset.digest`), exactly like the reference engine.
* **Statistical equivalence across engines** — the two engines consume
  different random streams, so their datasets differ bit-for-bit, but
  they share the workload draws (query/beacon volumes, passive traffic)
  and sample the same distributions, so the paper's headline statistics
  (Fig 3 penalty fractions, Fig 5 poor-path prevalence) and the pooled
  RTT distributions must agree within tolerance.
"""

import numpy as np
import pytest

from repro.dns.authoritative import ANYCAST_TARGET
from repro.errors import AnalysisError, ConfigurationError, MeasurementError
from repro.analysis.anycast_perf import anycast_penalty_ccdf
from repro.analysis.poor_paths import poor_path_prevalence
from repro.clients.population import ClientPopulationConfig
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def reference_dataset(engine_scenario):
    return CampaignRunner(
        engine_scenario, CampaignConfig(engine="reference")
    ).run()


@pytest.fixture(scope="module")
def vectorized_dataset(engine_scenario):
    return CampaignRunner(
        engine_scenario, CampaignConfig(engine="vectorized")
    ).run()


@pytest.fixture(scope="module")
def matrix_dataset(engine_scenario):
    return CampaignRunner(
        engine_scenario, CampaignConfig(engine="matrix")
    ).run()


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max CDF distance)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    values = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, values, side="right") / len(a)
    cdf_b = np.searchsorted(b, values, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def pooled_rtts(dataset, target_id=None):
    """All ECS-aggregated RTT samples, optionally for one target."""
    samples = []
    aggregates = dataset.ecs_aggregates
    for day in aggregates.days:
        for _, tid, digest in aggregates.iter_day(day):
            if target_id is None or tid == target_id:
                samples.extend(digest.values())
    return samples


class TestVectorizedDeterminism:
    def test_same_seed_same_digest(self, engine_scenario, vectorized_dataset):
        again = CampaignRunner(
            engine_scenario, CampaignConfig(engine="vectorized")
        ).run()
        assert again.digest() == vectorized_dataset.digest()

    def test_serial_equals_parallel(self, engine_scenario, vectorized_dataset):
        runner = ParallelCampaignRunner(
            engine_scenario, CampaignConfig(engine="vectorized"), workers=2
        )
        parallel = runner.run()
        assert parallel.digest() == vectorized_dataset.digest()
        assert runner.stats is not None
        assert runner.stats.engine == "vectorized"

    def test_sliced_halves_merge_to_serial(
        self, engine_scenario, vectorized_dataset
    ):
        config = CampaignConfig(engine="vectorized")
        half = len(engine_scenario.clients) // 2
        first = CampaignRunner(
            engine_scenario, config, client_slice=(0, half)
        ).run()
        second = CampaignRunner(
            engine_scenario, config,
            client_slice=(half, len(engine_scenario.clients)),
        ).run()
        assert (first + second).digest() == vectorized_dataset.digest()

    def test_engines_differ_bit_for_bit(
        self, reference_dataset, vectorized_dataset
    ):
        # Different random streams: equality across engines would mean
        # one is silently running the other's code path.
        assert reference_dataset.digest() != vectorized_dataset.digest()


class TestMatrixEngine:
    """The whole-day matrix engine is an exact twin of the vectorized one.

    Unlike reference vs vectorized (different streams, statistical
    equivalence), matrix vs vectorized share every counter-keyed draw,
    so their datasets must match **bit for bit** — the chunked vectorized
    engine is the matrix engine's oracle.
    """

    def test_matrix_equals_vectorized_digest(
        self, vectorized_dataset, matrix_dataset
    ):
        assert matrix_dataset.digest() == vectorized_dataset.digest()

    def test_same_seed_same_digest(self, engine_scenario, matrix_dataset):
        again = CampaignRunner(
            engine_scenario, CampaignConfig(engine="matrix")
        ).run()
        assert again.digest() == matrix_dataset.digest()

    def test_serial_equals_parallel(self, engine_scenario, matrix_dataset):
        runner = ParallelCampaignRunner(
            engine_scenario, CampaignConfig(engine="matrix"), workers=2
        )
        parallel = runner.run()
        assert parallel.digest() == matrix_dataset.digest()
        assert runner.stats.engine == "matrix"

    def test_sliced_halves_merge_to_serial(
        self, engine_scenario, matrix_dataset
    ):
        config = CampaignConfig(engine="matrix")
        half = len(engine_scenario.clients) // 2
        first = CampaignRunner(
            engine_scenario, config, client_slice=(0, half)
        ).run()
        second = CampaignRunner(
            engine_scenario, config,
            client_slice=(half, len(engine_scenario.clients)),
        ).run()
        assert (first + second).digest() == matrix_dataset.digest()

    def test_sketch_mode_matches_vectorized(self, engine_scenario):
        matrix = CampaignRunner(
            engine_scenario,
            CampaignConfig(engine="matrix", sketch_threshold=32),
        ).run()
        vectorized = CampaignRunner(
            engine_scenario,
            CampaignConfig(engine="vectorized", sketch_threshold=32),
        ).run()
        assert matrix.digest() == vectorized.digest()


class TestEngineEquivalence:
    def test_shared_workload_draws(
        self, reference_dataset, vectorized_dataset
    ):
        # Query/beacon volumes come from the same derived streams in both
        # engines, so the counts — and the passive production log — are
        # identical, not merely close.
        assert reference_dataset.beacon_count == vectorized_dataset.beacon_count
        assert (
            reference_dataset.measurement_count
            == vectorized_dataset.measurement_count
        )
        ref_passive = reference_dataset.passive
        vec_passive = vectorized_dataset.passive
        assert ref_passive.days == vec_passive.days
        for day in ref_passive.days:
            assert ref_passive.clients_on(day) == vec_passive.clients_on(day)
            for client_key in ref_passive.clients_on(day):
                assert ref_passive.frontends_for(day, client_key) == (
                    vec_passive.frontends_for(day, client_key)
                )

    def test_fig3_penalty_fractions_agree(
        self, reference_dataset, vectorized_dataset
    ):
        reference = anycast_penalty_ccdf(reference_dataset).fraction_slower
        vectorized = anycast_penalty_ccdf(vectorized_dataset).fraction_slower
        for region in ("world", "europe"):
            for threshold in (10.0, 25.0, 100.0):
                assert reference[region][threshold] == pytest.approx(
                    vectorized[region][threshold], abs=0.05
                )

    def test_fig5_poor_path_prevalence_agrees(
        self, reference_dataset, vectorized_dataset
    ):
        reference = poor_path_prevalence(reference_dataset)
        vectorized = poor_path_prevalence(vectorized_dataset)
        for threshold in reference.thresholds:
            assert reference.mean_fraction(threshold) == pytest.approx(
                vectorized.mean_fraction(threshold), abs=0.05
            )

    def test_pooled_rtt_distributions_agree(
        self, reference_dataset, vectorized_dataset
    ):
        anycast = ks_statistic(
            pooled_rtts(reference_dataset, ANYCAST_TARGET),
            pooled_rtts(vectorized_dataset, ANYCAST_TARGET),
        )
        everything = ks_statistic(
            pooled_rtts(reference_dataset), pooled_rtts(vectorized_dataset)
        )
        assert anycast < 0.05
        assert everything < 0.05

    def test_per_path_rtt_distributions_agree(
        self, reference_dataset, vectorized_dataset
    ):
        # Per (client, anycast path), pooled across days.  Tolerance is
        # looser than the global pools: a single path sees only a few
        # hundred samples and its own daily-congestion realizations.
        ref_agg = reference_dataset.ecs_aggregates
        vec_agg = vectorized_dataset.ecs_aggregates
        sizes = {}
        for day in ref_agg.days:
            for group, tid, digest in ref_agg.iter_day(day):
                if tid == ANYCAST_TARGET:
                    sizes[group] = sizes.get(group, 0) + digest.count
        busiest = sorted(sizes, key=sizes.get, reverse=True)[:5]
        assert busiest, "no anycast samples aggregated"
        for group in busiest:
            samples = []
            for aggregate in (ref_agg, vec_agg):
                pooled = []
                for day in aggregate.days:
                    digest = aggregate.digest(day, group, ANYCAST_TARGET)
                    if digest is not None:
                        pooled.extend(digest.values())
                samples.append(pooled)
            assert ks_statistic(*samples) < 0.12


class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(engine="warp")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(engine="warp")

    def test_campaign_config_overrides_scenario(self):
        scenario = Scenario.build(
            ScenarioConfig(
                seed=5,
                population=ClientPopulationConfig(prefix_count=20),
                calendar=SimulationCalendar(num_days=1),
                engine="vectorized",
            )
        )
        inherited = CampaignRunner(scenario)
        inherited.run()
        assert inherited.stats.engine == "vectorized"
        overridden = CampaignRunner(
            scenario, CampaignConfig(engine="reference")
        )
        overridden.run()
        assert overridden.stats.engine == "reference"

    def test_stats_format_names_engine(self, engine_scenario):
        runner = CampaignRunner(
            engine_scenario, CampaignConfig(engine="vectorized")
        )
        runner.run()
        assert "engine=vectorized" in runner.stats.format()


class TestLatencyDigestBulk:
    def test_extend_accepts_plain_sequences(self):
        aggregate = GroupedDailyAggregates("ecs")
        aggregate.observe_many(0, "g", "anycast", [2.0, 4.0])
        aggregate.observe_many(0, "g", "anycast", (6.0,))
        assert aggregate.digest(0, "g", "anycast").values() == (2.0, 4.0, 6.0)

    def test_percentile_bounds_checked_on_numpy_path(self):
        aggregate = GroupedDailyAggregates("ecs")
        aggregate.observe_many(0, "g", "anycast", np.arange(100, dtype=float))
        digest = aggregate.digest(0, "g", "anycast")
        for q in (-1.0, 101.0):
            with pytest.raises(AnalysisError):
                digest.percentile(q)

    def test_empty_digest_still_raises(self):
        # The block's table holds NaN for an empty cell beside full ones;
        # the view raises instead of returning it.
        aggregate = GroupedDailyAggregates("ecs")
        aggregate.observe_runs(
            0,
            [("g", "anycast", 0, 2), ("g", "fe-a", 2, 2), ("g", "fe-b", 2, 3)],
            np.array([1.0, 2.0, 3.0]),
        )
        with pytest.raises(AnalysisError):
            aggregate.digest(0, "g", "fe-a").percentile(50.0)


class TestBulkSinks:
    def test_observe_many_matches_repeated_observe(self):
        bulk = GroupedDailyAggregates("ecs")
        scalar = GroupedDailyAggregates("ecs")
        rtts = np.array([10.0, 20.0, 30.0])
        bulk.observe_many(1, "g", "anycast", rtts)
        for rtt in rtts:
            scalar.observe(1, "g", "anycast", float(rtt))
        assert bulk.digest(1, "g", "anycast").values() == (
            scalar.digest(1, "g", "anycast").values()
        )

    def test_observe_many_empty_batch_is_noop(self):
        aggregate = GroupedDailyAggregates("ecs")
        aggregate.observe_many(0, "g", "anycast", np.empty(0))
        assert aggregate.days == ()

    def test_diff_log_observe_columns_matches_scalar(self):
        bulk = RequestDiffLog()
        scalar = RequestDiffLog()
        anycast = np.array([30.0, 45.0])
        unicast = np.array([20.0, 50.0])
        bulk.observe_columns(
            2,
            np.full(2, 7),
            np.full(2, bulk.region_code("europe")),
            anycast,
            unicast,
        )
        for a, b in zip(anycast, unicast):
            scalar.observe(2, 7, "europe", float(a), float(b))
        assert list(bulk.rows()) == list(scalar.rows())

    def test_diff_log_observe_columns_rejects_mismatched_lengths(self):
        log = RequestDiffLog()
        code = log.region_code("europe")
        with pytest.raises(MeasurementError):
            log.observe_columns(
                0, np.zeros(2), np.full(2, code), np.zeros(2), np.zeros(3)
            )
