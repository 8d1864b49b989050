"""Sharded parallel campaign execution and mergeable measurement logs.

The determinism contract under test: a client's measurements are
identical regardless of iteration order, shard assignment, or worker
count, so serial ≡ sharded-and-merged ≡ parallel, bit for bit (same
:meth:`StudyDataset.digest`).
"""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.clients.population import ClientPopulationConfig
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.simulation.campaign import CampaignConfig, CampaignRunner, CampaignStats
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import (
    ParallelCampaignRunner,
    run_campaign,
    shard_bounds,
)
from repro.simulation.scenario import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def tiny_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=23,
        population=ClientPopulationConfig(prefix_count=60),
        calendar=SimulationCalendar(num_days=2),
    )


@pytest.fixture(scope="module")
def tiny_scenario(tiny_config) -> Scenario:
    return Scenario.build(tiny_config)


@pytest.fixture(scope="module")
def tiny_dataset(tiny_scenario):
    return CampaignRunner(tiny_scenario).run()


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_shards_than_clients(self):
        bounds = shard_bounds(2, 5)
        assert bounds == [(0, 1), (1, 2)]

    def test_covers_population_contiguously(self):
        bounds = shard_bounds(1234, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1234
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(0, 2)
        with pytest.raises(ConfigurationError):
            shard_bounds(10, 0)


class TestMergeAggregates:
    def test_shard_split_equals_unsharded(self):
        whole = GroupedDailyAggregates("ecs")
        part_a = GroupedDailyAggregates("ecs")
        part_b = GroupedDailyAggregates("ecs")
        samples = [
            (0, "g1", "anycast", 10.0),
            (0, "g1", "fe-a", 12.0),
            (0, "g2", "anycast", 30.0),
            (1, "g1", "anycast", 11.0),
        ]
        for i, (day, group, target, rtt) in enumerate(samples):
            whole.observe(day, group, target, rtt)
            (part_a if i % 2 == 0 else part_b).observe(day, group, target, rtt)
        part_a.merge(part_b)
        assert part_a.days == whole.days
        for day in whole.days:
            assert part_a.groups_on(day) == whole.groups_on(day)
            for group, target, digest in whole.iter_day(day):
                merged = part_a.digest(day, group, target)
                assert sorted(merged.values()) == sorted(digest.values())

    def test_merge_empty_shard_is_identity(self):
        agg = GroupedDailyAggregates("ldns")
        agg.observe(0, "r1", "anycast", 5.0)
        agg.merge(GroupedDailyAggregates("ldns"))
        assert agg.digest(0, "r1", "anycast").count == 1

    def test_merge_disjoint_days(self):
        a = GroupedDailyAggregates("ecs")
        b = GroupedDailyAggregates("ecs")
        a.observe(0, "g", "anycast", 1.0)
        b.observe(3, "g", "anycast", 2.0)
        a.merge(b)
        assert a.days == (0, 3)

    def test_merge_does_not_alias_source(self):
        a = GroupedDailyAggregates("ecs")
        b = GroupedDailyAggregates("ecs")
        b.observe(0, "g", "anycast", 1.0)
        a.merge(b)
        a.digest(0, "g", "anycast").add(99.0)
        assert b.digest(0, "g", "anycast").count == 1

    def test_mismatched_grouping_rejected(self):
        with pytest.raises(MeasurementError):
            GroupedDailyAggregates("ecs").merge(GroupedDailyAggregates("ldns"))


class TestMergeRequestDiffs:
    def test_merge_remaps_region_codes(self):
        a = RequestDiffLog()
        b = RequestDiffLog()
        # Same regions, observed in different orders, so the per-log
        # codes disagree — exactly what per-shard logs produce.
        a.observe(0, 1, "europe", 30.0, 20.0)
        b.observe(0, 2, "asia", 50.0, 45.0)
        b.observe(1, 3, "europe", 25.0, 26.0)
        a.merge(b)
        assert len(a) == 3
        assert a.diffs("europe") == pytest.approx([10.0, -1.0])
        assert a.diffs("asia") == pytest.approx([5.0])

    def test_merge_empty(self):
        a = RequestDiffLog()
        a.observe(0, 1, "europe", 30.0, 20.0)
        a.merge(RequestDiffLog())
        assert len(a) == 1
        empty = RequestDiffLog()
        empty.merge(a)
        assert empty.diffs() == pytest.approx([10.0])

    def test_rows_carry_day(self):
        log = RequestDiffLog()
        log.observe(5, 1, "europe", 30.0, 20.0)
        assert next(log.rows()).day == 5


class TestMergePassive:
    def test_shard_split_equals_unsharded(self):
        whole = PassiveLog()
        part_a = PassiveLog()
        part_b = PassiveLog()
        records = [
            (0, "p1", "fe-a", 10),
            (0, "p1", "fe-b", 3),
            (0, "p2", "fe-a", 7),
            (2, "p1", "fe-a", 4),
        ]
        for i, record in enumerate(records):
            whole.record(*record)
            (part_a if i % 2 == 0 else part_b).record(*record)
        part_a.merge(part_b)
        assert part_a.days == whole.days
        for day in whole.days:
            for client_key in whole.clients_on(day):
                assert part_a.frontends_for(day, client_key) == (
                    whole.frontends_for(day, client_key)
                )

    def test_merge_sums_overlapping_cells(self):
        a = PassiveLog()
        b = PassiveLog()
        a.record(0, "p1", "fe-a", 10)
        b.record(0, "p1", "fe-a", 5)
        a.merge(b)
        assert a.frontends_for(0, "p1") == {"fe-a": 15}

    def test_merge_empty_and_disjoint_days(self):
        a = PassiveLog()
        a.merge(PassiveLog())
        assert a.days == ()
        b = PassiveLog()
        b.record(1, "p1", "fe-a", 2)
        a.merge(b)
        assert a.days == (1,)


class TestDatasetMerge:
    def test_sliced_halves_merge_to_serial_digest(self, tiny_scenario, tiny_dataset):
        half = len(tiny_scenario.clients) // 2
        first = CampaignRunner(tiny_scenario, client_slice=(0, half)).run()
        second = CampaignRunner(
            tiny_scenario, client_slice=(half, len(tiny_scenario.clients))
        ).run()
        merged = first + second
        assert merged.digest() == tiny_dataset.digest()
        assert merged.beacon_count == tiny_dataset.beacon_count
        assert merged.measurement_count == tiny_dataset.measurement_count

    def test_merge_order_is_irrelevant(self, tiny_scenario, tiny_dataset):
        half = len(tiny_scenario.clients) // 2
        first = CampaignRunner(tiny_scenario, client_slice=(0, half)).run()
        second = CampaignRunner(
            tiny_scenario, client_slice=(half, len(tiny_scenario.clients))
        ).run()
        assert (second + first).digest() == tiny_dataset.digest()

    def test_empty_slice_merges_as_identity(self, tiny_scenario, tiny_dataset):
        full = CampaignRunner(tiny_scenario).run()
        empty = CampaignRunner(tiny_scenario, client_slice=(0, 0)).run()
        assert (full + empty).digest() == tiny_dataset.digest()

    def test_mismatched_calendar_rejected(self, tiny_scenario, tiny_dataset):
        other_config = ScenarioConfig(
            seed=23,
            population=ClientPopulationConfig(prefix_count=60),
            calendar=SimulationCalendar(num_days=1),
        )
        other = CampaignRunner(Scenario.build(other_config)).run()
        with pytest.raises(MeasurementError):
            tiny_dataset + other

    def test_invalid_slice_rejected(self, tiny_scenario):
        with pytest.raises(ConfigurationError):
            CampaignRunner(tiny_scenario, client_slice=(5, 3))
        with pytest.raises(ConfigurationError):
            CampaignRunner(tiny_scenario, client_slice=(0, 10_000))


class TestParallelRunner:
    def test_parallel_digest_matches_serial(self, tiny_scenario, tiny_dataset):
        runner = ParallelCampaignRunner(tiny_scenario, workers=2)
        parallel = runner.run()
        assert parallel.digest() == tiny_dataset.digest()
        stats = runner.stats
        assert stats is not None
        assert stats.workers == 2
        assert stats.beacon_count == tiny_dataset.beacon_count
        # The stats come from the coordinator's merged telemetry: the
        # shards' counters and per-day spans, the coordinator's wall time.
        assert stats.measurement_count == tiny_dataset.measurement_count
        assert len(stats.day_seconds) == tiny_scenario.calendar.num_days
        assert stats.wall_seconds == pytest.approx(
            runner.telemetry.snapshot().gauges["campaign.wall_seconds"][
                "value"
            ]
        )
        assert stats.wall_seconds > 0
        # Merged dataset is re-homed on the coordinator's client objects.
        assert parallel.clients is tiny_scenario.clients

    def test_workers_resolution_order(self, tiny_scenario):
        assert ParallelCampaignRunner(tiny_scenario).workers == 1
        assert (
            ParallelCampaignRunner(
                tiny_scenario, CampaignConfig(workers=3)
            ).workers
            == 3
        )
        assert (
            ParallelCampaignRunner(
                tiny_scenario, CampaignConfig(workers=3), workers=2
            ).workers
            == 2
        )

    def test_workers_clamped_to_population(self, tiny_scenario):
        runner = ParallelCampaignRunner(tiny_scenario, workers=10_000)
        assert runner.workers == len(tiny_scenario.clients)

    def test_workers_follow_clamped_shard_count(self, tiny_scenario):
        # Regression: the pool must be sized off the clamped shard list
        # (shard_bounds caps shards at the population), never the raw
        # request — otherwise an oversized request spawns idle workers.
        runner = ParallelCampaignRunner(tiny_scenario, workers=10_000)
        assert runner.shards == len(tiny_scenario.clients)
        assert runner.workers == runner.shards

    def test_effective_workers_gauge_reports_clamp(self):
        # 3 clients, 10 requested workers: the gauge must report the
        # clamped count actually used, end to end through a real run.
        scenario = Scenario.build(
            ScenarioConfig(
                seed=23,
                population=ClientPopulationConfig(prefix_count=3),
                calendar=SimulationCalendar(num_days=1),
            )
        )
        runner = ParallelCampaignRunner(scenario, workers=10)
        dataset = runner.run()
        assert runner.workers == 3
        assert runner.stats is not None and runner.stats.workers == 3
        gauges = runner.telemetry.snapshot().gauges
        assert gauges["campaign.effective_workers"]["value"] == 3
        assert gauges["campaign.shards"]["value"] == 3
        assert gauges["campaign.client_coverage"]["value"] == 1.0
        assert not dataset.is_partial

    def test_single_worker_runs_inline(self, tiny_scenario, tiny_dataset):
        runner = ParallelCampaignRunner(tiny_scenario, workers=1)
        assert runner.run().digest() == tiny_dataset.digest()
        assert runner.stats is not None and runner.stats.workers == 1

    def test_run_campaign_dispatch(self, tiny_config, tiny_dataset):
        scenario = Scenario.build(tiny_config)
        dataset, stats = run_campaign(scenario)
        assert dataset.digest() == tiny_dataset.digest()
        assert stats.beacon_count == dataset.beacon_count

    def test_invalid_worker_counts(self, tiny_scenario):
        with pytest.raises(ConfigurationError):
            ParallelCampaignRunner(tiny_scenario, workers=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(workers=0)


class TestCampaignStats:
    def test_serial_run_emits_stats(self, tiny_scenario):
        runner = CampaignRunner(tiny_scenario)
        dataset = runner.run()
        stats = runner.stats
        assert stats is not None
        assert stats.beacon_count == dataset.beacon_count
        assert stats.measurement_count == dataset.measurement_count
        assert len(stats.day_seconds) == tiny_scenario.calendar.num_days
        assert stats.wall_seconds > 0
        assert stats.beacons_per_second > 0
        cache = stats.path_cache
        assert cache.anycast_hits + cache.anycast_misses > 0
        assert 0.0 < cache.anycast_hit_rate <= 1.0
        assert 0.0 < cache.unicast_hit_rate <= 1.0
        assert "beacons" in stats.format()

    def test_empty_stats_rates_are_zero(self):
        stats = CampaignStats()
        assert stats.beacons_per_second == 0.0
        assert stats.path_cache.anycast_hit_rate == 0.0
