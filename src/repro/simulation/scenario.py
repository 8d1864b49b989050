"""Scenario: everything wired together, deterministically, from one seed.

A :class:`Scenario` is the simulated counterpart of the paper's
measurement setting: a synthetic Internet, the CDN attached to it, a
client population with resolvers and geolocation, the latency model, and
the dynamic processes (churn, episodes) over a calendar.  Campaigns
(:mod:`repro.simulation.campaign`) run on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.cdn.deployment import CdnDeployment, DeploymentConfig, attach_cdn
from repro.cdn.network import CdnNetwork
from repro.clients.population import (
    ClientPopulationConfig,
    ClientPrefix,
    generate_population,
)
from repro.clients.workload import WorkloadConfig, WorkloadModel
from repro.dns.ldns import LdnsConfig, LdnsDirectory
from repro.geo.geolocation import GeolocationDatabase
from repro.geo.metros import MetroDatabase
from repro.identity import RUN
from repro.latency.model import LatencyConfig, LatencyModel
from repro.net.topology import TopologyBuilder, TopologyConfig, populate_base_internet
from repro.rand import derive_seed
from repro.simulation.churn import ChurnConfig, RouteChurnModel
from repro.simulation.clock import SimulationCalendar
from repro.simulation.episodes import EpisodeConfig, PoorPathEpisodeModel


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of a full study, with paper-calibrated defaults.

    The ``seed`` derives independent per-subsystem seeds, so changing one
    subsystem's randomness never perturbs the others.
    """

    seed: int = 2015
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    ldns: LdnsConfig = field(default_factory=LdnsConfig)
    population: ClientPopulationConfig = field(
        default_factory=ClientPopulationConfig
    )
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    episodes: EpisodeConfig = field(default_factory=EpisodeConfig)
    calendar: SimulationCalendar = field(default_factory=SimulationCalendar)
    geolocation_error_fraction: float = 0.02
    #: Default worker-process count for campaigns over this scenario.
    #: Results are bit-identical for any value; >1 shards the client
    #: population across processes (see repro.simulation.parallel).
    #: Like ``engine``, a run setting: a campaign config resolves its
    #: unset fields from these defaults (repro.identity.resolve), and
    #: the run identity counts the resolved campaign config.
    workers: int = field(default=1, metadata=RUN)
    #: Default measurement engine for campaigns over this scenario:
    #: ``"reference"`` (scalar, one draw per sample — the oracle),
    #: ``"vectorized"`` (numpy-batched per (client, day) block, several
    #: times faster), or ``"matrix"`` (whole-day cross-client batches,
    #: fastest).  All are deterministic per seed and bit-identical
    #: across worker counts; ``"vectorized"`` and ``"matrix"`` share
    #: counter-based draw streams and produce bit-identical datasets to
    #: each other, while ``"reference"`` consumes randomness differently
    #: and matches only within itself.
    engine: str = field(default="reference", metadata=RUN)

    def __post_init__(self) -> None:
        if not 0.0 <= self.geolocation_error_fraction <= 1.0:
            raise ConfigurationError(
                "geolocation_error_fraction must be in [0, 1]"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.engine not in ("reference", "vectorized", "matrix"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected 'reference', "
                "'vectorized', or 'matrix'"
            )

    @classmethod
    def paper_scale(cls, seed: int = 2015) -> "ScenarioConfig":
        """The scale the benchmarks reproduce the paper at:
        1500 client /24s over the 28 days of April 2015."""
        return cls(
            seed=seed,
            population=ClientPopulationConfig(prefix_count=1500),
            calendar=SimulationCalendar(num_days=28),
        )

    @classmethod
    def laptop_scale(cls, seed: int = 2015) -> "ScenarioConfig":
        """A sub-minute configuration for exploration and examples:
        400 client /24s over one simulated week."""
        return cls(
            seed=seed,
            population=ClientPopulationConfig(prefix_count=400),
            calendar=SimulationCalendar(num_days=7),
        )

    @classmethod
    def smoke_scale(cls, seed: int = 2015) -> "ScenarioConfig":
        """A seconds-long configuration for tests and CI smoke runs."""
        return cls(
            seed=seed,
            population=ClientPopulationConfig(prefix_count=100),
            calendar=SimulationCalendar(num_days=3),
        )


class Scenario:
    """A fully built study environment.

    Use :meth:`build`; the constructor takes prebuilt parts (for tests
    that want to substitute one).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        network: CdnNetwork,
        deployment: CdnDeployment,
        clients: Tuple[ClientPrefix, ...],
        ldns_directory: LdnsDirectory,
        geolocation: GeolocationDatabase,
        latency_model: LatencyModel,
        workload_model: WorkloadModel,
    ) -> None:
        if not clients:
            raise ConfigurationError("a scenario needs at least one client")
        self.config = config
        self.network = network
        self.deployment = deployment
        self.clients = clients
        self.ldns_directory = ldns_directory
        self.geolocation = geolocation
        self.latency_model = latency_model
        self.workload_model = workload_model
        self.calendar = config.calendar
        self._client_index = {
            client.key: index for index, client in enumerate(clients)
        }

    @classmethod
    def build(cls, config: Optional[ScenarioConfig] = None) -> "Scenario":
        """Construct the whole environment from a configuration.

        Build order matters: base Internet, then the CDN attaches (so its
        peering sees all ISPs), then resolvers, then clients (who need
        resolvers assigned and geolocation registered).
        """
        cfg = config or ScenarioConfig()
        metro_db = MetroDatabase()
        builder = TopologyBuilder(metro_db)
        populate_base_internet(
            builder, cfg.topology, seed=derive_seed(cfg.seed, "topology")
        )
        deployment = attach_cdn(
            builder, cfg.deployment, seed=derive_seed(cfg.seed, "cdn")
        )
        topology = builder.build()
        network = CdnNetwork(topology, deployment)

        geolocation = GeolocationDatabase(
            error_fraction=cfg.geolocation_error_fraction,
            seed=derive_seed(cfg.seed, "geolocation"),
        )
        ldns_directory = LdnsDirectory(
            topology, cfg.ldns, seed=derive_seed(cfg.seed, "ldns")
        )
        for server in ldns_directory:
            geolocation.register(server.ldns_id, server.location)

        clients = generate_population(
            topology,
            ldns_directory,
            geolocation,
            cfg.population,
            seed=derive_seed(cfg.seed, "population"),
        )
        return cls(
            config=cfg,
            network=network,
            deployment=deployment,
            clients=clients,
            ldns_directory=ldns_directory,
            geolocation=geolocation,
            latency_model=LatencyModel(cfg.latency),
            workload_model=WorkloadModel(cfg.workload),
        )

    # ------------------------------------------------------------------

    @property
    def topology(self):
        """The frozen topology (via the CDN network)."""
        return self.network.topology

    @property
    def metro_db(self) -> MetroDatabase:
        """The metro database."""
        return self.network.topology.metro_db

    def client_index(self, client_key: str) -> int:
        """Stable integer index of a client /24 (for packed logs)."""
        try:
            return self._client_index[client_key]
        except KeyError:
            raise ConfigurationError(f"unknown client {client_key!r}") from None

    def client_by_key(self, client_key: str) -> ClientPrefix:
        """Client record by /24 key."""
        return self.clients[self.client_index(client_key)]

    def new_churn_model(self) -> RouteChurnModel:
        """A fresh churn process (deterministic for the scenario seed)."""
        return RouteChurnModel(
            self.clients,
            self.network,
            self.calendar,
            self.config.churn,
            seed=derive_seed(self.config.seed, "churn"),
        )

    def new_episode_model(self) -> PoorPathEpisodeModel:
        """A fresh poor-path episode process."""
        return PoorPathEpisodeModel(
            self.clients,
            self.calendar,
            self.config.episodes,
            seed=derive_seed(self.config.seed, "episodes"),
        )
