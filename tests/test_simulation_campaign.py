"""Integration tests: scenario build and campaign execution."""

import pytest

from repro.errors import ConfigurationError
from repro.clients.population import ClientPopulationConfig
from repro.dns.authoritative import ANYCAST_TARGET
from repro.rand import derive_rng
from repro.simulation.campaign import (
    CampaignRunner,
    largest_remainder_apportion,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig


class TestScenarioBuild:
    def test_components_wired(self, small_scenario):
        scenario = small_scenario
        assert len(scenario.clients) > 0
        assert scenario.network.frontends
        assert len(scenario.ldns_directory) > 0
        # Every client's resolver and /24 are geolocatable.
        for client in scenario.clients[:20]:
            scenario.geolocation.lookup(client.key)
            scenario.geolocation.lookup(client.ldns_id)

    def test_client_index(self, small_scenario):
        client = small_scenario.clients[3]
        assert small_scenario.client_index(client.key) == 3
        assert small_scenario.client_by_key(client.key) is client
        with pytest.raises(ConfigurationError):
            small_scenario.client_index("0.0.0.0/24")

    def test_build_deterministic(self, small_scenario_config):
        a = Scenario.build(small_scenario_config)
        b = Scenario.build(small_scenario_config)
        assert [c.key for c in a.clients] == [c.key for c in b.clients]
        assert [c.ldns_id for c in a.clients] == [c.ldns_id for c in b.clients]

    def test_seed_changes_world(self, small_scenario_config):
        import dataclasses

        other = dataclasses.replace(small_scenario_config, seed=43)
        a = Scenario.build(small_scenario_config)
        b = Scenario.build(other)
        assert [c.daily_queries for c in a.clients] != [
            c.daily_queries for c in b.clients
        ]

    def test_geo_error_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(geolocation_error_fraction=2.0)


class TestCampaign:
    def test_measurements_are_four_per_beacon(self, small_dataset):
        assert small_dataset.measurement_count == 4 * small_dataset.beacon_count

    def test_every_day_has_data(self, small_dataset):
        days = tuple(range(small_dataset.calendar.num_days))
        assert small_dataset.ecs_aggregates.days == days
        assert small_dataset.passive.days == days

    def test_anycast_measured_for_active_clients(self, small_dataset):
        day = 0
        groups = small_dataset.ecs_aggregates.groups_on(day)
        assert groups
        with_anycast = [
            g
            for g in groups
            if small_dataset.ecs_aggregates.digest(day, g, ANYCAST_TARGET)
        ]
        assert len(with_anycast) == len(groups)

    def test_diff_log_matches_beacons(self, small_dataset):
        assert len(small_dataset.request_diffs) == small_dataset.beacon_count

    def test_passive_volume_plausible(self, small_dataset, small_scenario):
        total_mean = sum(c.daily_queries for c in small_scenario.clients)
        day_total = small_dataset.passive.total_queries(0)
        assert 0.5 * total_mean <= day_total <= 1.5 * total_mean

    def test_ldns_aggregates_group_by_resolver(self, small_dataset, small_scenario):
        ldns_ids = {c.ldns_id for c in small_scenario.clients}
        for group in small_dataset.ldns_aggregates.groups_on(0):
            assert group in ldns_ids

    def test_rtts_are_integral(self, small_dataset):
        for _, _, digest in small_dataset.ecs_aggregates.iter_day(0):
            for value in digest.values()[:5]:
                assert value == round(value)

    def test_campaign_deterministic(self, small_scenario_config):
        a = CampaignRunner(Scenario.build(small_scenario_config)).run()
        b = CampaignRunner(Scenario.build(small_scenario_config)).run()
        assert a.beacon_count == b.beacon_count
        assert a.measurement_count == b.measurement_count
        assert a.request_diffs.diffs()[:100] == b.request_diffs.diffs()[:100]

    def test_same_seed_same_digest(self, small_scenario_config, small_dataset):
        rerun = CampaignRunner(Scenario.build(small_scenario_config)).run()
        assert rerun.digest() == small_dataset.digest()

    def test_different_seed_different_digest(self, small_scenario_config,
                                             small_dataset):
        import dataclasses

        other = dataclasses.replace(small_scenario_config, seed=43)
        rerun = CampaignRunner(Scenario.build(other)).run()
        assert rerun.digest() != small_dataset.digest()

    def test_passive_counts_sum_to_query_volume(self, small_dataset,
                                                small_scenario):
        """Largest-remainder apportionment: the passive log's per-day
        counts for a client sum exactly to that day's drawn query volume
        (independent rounding could drift by a query per route)."""
        scenario = small_scenario
        seed = scenario.config.seed
        workload = scenario.workload_model
        for day in range(scenario.calendar.num_days):
            is_weekend = scenario.calendar.is_weekend(day)
            for client in scenario.clients[:40]:
                rng = derive_rng(seed, "campaign", day, client.key)
                queries = workload.daily_queries(client, is_weekend, rng)
                recorded = sum(
                    small_dataset.passive.frontends_for(
                        day, client.key
                    ).values()
                )
                assert recorded == max(queries, 0)

    def test_dataset_lookups(self, small_dataset):
        client = small_dataset.clients[0]
        assert small_dataset.client_by_key(client.key) is client
        assert small_dataset.client_by_index(0) is client
        assert small_dataset.volume_weight(client.key) == client.daily_queries

    def test_progress_listener_invoked(self):
        from repro.simulation.campaign import CampaignConfig

        config = ScenarioConfig(
            seed=7,
            population=ClientPopulationConfig(prefix_count=30),
            calendar=SimulationCalendar(num_days=2),
        )
        seen = []
        runner = CampaignRunner(
            Scenario.build(config),
            CampaignConfig(
                progress_listener=lambda row: seen.append(
                    (row.days_completed, row.num_days)
                )
            ),
        )
        runner.run()
        assert seen == [(1, 2), (2, 2)]


class TestLargestRemainderApportion:
    def test_sums_exactly(self):
        for total in (0, 1, 5, 17, 1000):
            for fractions in ((1.0,), (0.5, 0.5), (0.2, 0.3, 0.5),
                              (1 / 3, 1 / 3, 1 / 3)):
                counts = largest_remainder_apportion(total, fractions)
                assert sum(counts) == total
                assert all(count >= 0 for count in counts)

    def test_largest_remainder_wins(self):
        assert largest_remainder_apportion(10, (1 / 3, 2 / 3)) == [3, 7]

    def test_independent_rounding_would_drift(self):
        # round(2.5) == 2 under banker's rounding, so the old per-rank
        # int(round(...)) recorded 4 of these 5 queries.
        assert sum(largest_remainder_apportion(5, (0.5, 0.5))) == 5

    def test_ties_break_to_earliest_index(self):
        assert largest_remainder_apportion(5, (0.5, 0.5)) == [3, 2]

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            largest_remainder_apportion(-1, (1.0,))
        with pytest.raises(ConfigurationError):
            largest_remainder_apportion(3, ())
