"""Performance benchmarks for the simulation substrate itself.

These are classic microbenchmarks (not figure reproductions): how fast the
BGP solver converges, how fast the data plane resolves, and how fast a
full campaign runs — serial and sharded across worker processes, with
each measurement engine.  They time the hot paths every figure depends
on; the engine-throughput and digest gates live in ``tools/perf_smoke.py``
and ``tools/memory_smoke.py``, which CI runs.
"""

import os

import pytest

from repro.cdn.deployment import DeploymentConfig, attach_cdn
from repro.cdn.network import CdnNetwork
from repro.clients.population import ClientPopulationConfig
from repro.geo.metros import MetroDatabase
from repro.net.bgp import Announcement, RouteComputation
from repro.net.topology import AsRole, TopologyBuilder, populate_base_internet
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig

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
