"""Shared fixtures: small deterministic scenarios and datasets.

The expensive fixtures are session-scoped — tests treat them as read-only.
"""

from __future__ import annotations

import pytest

from repro.cdn.deployment import DeploymentConfig, attach_cdn
from repro.cdn.network import CdnNetwork
from repro.clients.population import ClientPopulationConfig
from repro.geo.metros import MetroDatabase
from repro.net.topology import (
    TopologyBuilder,
    TopologyConfig,
    populate_base_internet,
)
from repro.simulation.campaign import CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig

#: Scenario scale used by the shared fixtures — small enough to keep the
#: suite fast, big enough that every analysis has data.
SMALL_PREFIXES = 150
SMALL_DAYS = 4


@pytest.fixture(scope="session")
def metro_db() -> MetroDatabase:
    return MetroDatabase()


@pytest.fixture(scope="session")
def small_scenario_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=42,
        population=ClientPopulationConfig(prefix_count=SMALL_PREFIXES),
        calendar=SimulationCalendar(num_days=SMALL_DAYS),
    )


@pytest.fixture(scope="session")
def small_scenario(small_scenario_config) -> Scenario:
    return Scenario.build(small_scenario_config)


@pytest.fixture(scope="session")
def small_dataset(small_scenario):
    return CampaignRunner(small_scenario).run()


@pytest.fixture(scope="session")
def engine_scenario() -> Scenario:
    """The 120-client, 3-day scenario the engine-equivalence tests and
    the per-engine golden digests share."""
    return Scenario.build(
        ScenarioConfig(
            seed=23,
            population=ClientPopulationConfig(prefix_count=120),
            calendar=SimulationCalendar(num_days=3),
        )
    )


@pytest.fixture(scope="session")
def cdn_world(metro_db):
    """A frozen (topology, deployment, network) triple without clients."""
    builder = TopologyBuilder(metro_db)
    populate_base_internet(builder, TopologyConfig(), seed=7)
    deployment = attach_cdn(builder, DeploymentConfig(), seed=7)
    topology = builder.build()
    network = CdnNetwork(topology, deployment)
    return topology, deployment, network
