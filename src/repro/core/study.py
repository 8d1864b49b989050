"""End-to-end study orchestration: build, measure, analyze.

:class:`AnycastStudy` stitches the whole reproduction together the way §3
describes the measurement apparatus: build the environment, run the
campaign once, then answer each figure from the collected dataset.  All
figure methods are cached — the expensive parts (scenario build, campaign)
run at most once per study instance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.affinity import (
    AffinityResult,
    SwitchDistanceResult,
    daily_switch_rate,
    frontend_affinity,
    switch_distance_cdf,
)
from repro.analysis.ldns_proximity import LdnsProximityResult, ldns_proximity
from repro.analysis.tcp_disruption import format_disruption_table, tcp_disruption
from repro.analysis.anycast_perf import (
    AnycastDistanceResult,
    AnycastPenaltyResult,
    anycast_distance_cdf,
    anycast_penalty_ccdf,
)
from repro.analysis.poor_paths import (
    PoorPathDuration,
    PoorPathPrevalence,
    poor_path_duration,
    poor_path_prevalence,
)
from repro.analysis.geo_artifacts import (
    GeoArtifactResult,
    geolocation_artifacts,
)
from repro.analysis.prediction_eval import (
    PredictionEvaluation,
    evaluate_prediction,
)
from repro.analysis.proximity import (
    DiminishingReturnsResult,
    NthClosestDistances,
    diminishing_returns,
    nth_closest_distance_cdf,
)
from repro.cdn.catalog import CdnCatalogEntry, catalog
from repro.errors import MeasurementError
from repro.core.predictor import HistoryBasedPredictor, PredictorConfig
from repro.measurement.validate import QuarantineLog
from repro.simulation.campaign import CampaignConfig, CampaignStats
from repro.simulation.dataset import StudyDataset
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.identity import run_context
from repro.telemetry import Telemetry, TelemetrySnapshot, get_logger

_log = get_logger("study")


class AnycastStudy:
    """One full reproduction run of the paper's measurement study."""

    def __init__(
        self,
        config: Optional[ScenarioConfig] = None,
        campaign: Optional[CampaignConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._config = config or ScenarioConfig()
        self._campaign_config = campaign or CampaignConfig()
        #: The run's identity (seed, engine, workers, config hash).
        self.context = run_context(self._config, self._campaign_config)
        self.telemetry = telemetry or Telemetry(self.context)
        self._scenario: Optional[Scenario] = None
        self._dataset: Optional[StudyDataset] = None
        self._campaign_stats: Optional[CampaignStats] = None
        self._quarantine: Optional[QuarantineLog] = None

    # ------------------------------------------------------------------
    # Expensive, cached stages
    # ------------------------------------------------------------------

    @property
    def scenario(self) -> Scenario:
        """The built environment (constructed on first use)."""
        if self._scenario is None:
            with self.telemetry.span("scenario_build"):
                self._scenario = Scenario.build(self._config)
            _log.info(
                "scenario built",
                extra={
                    "clients": len(self._scenario.clients),
                    "frontends": len(self._scenario.network.frontends),
                },
            )
        return self._scenario

    @property
    def dataset(self) -> StudyDataset:
        """The campaign output (run on first use).

        Honors the configured worker count (``CampaignConfig.workers``,
        falling back to ``ScenarioConfig.workers``) — sharded parallel
        runs produce bit-identical datasets — and the configured
        measurement engine (``CampaignConfig.engine``, falling back to
        ``ScenarioConfig.engine``): ``"vectorized"`` synthesizes each
        (client, day) beacon block as numpy batches, several times
        faster than the scalar ``"reference"`` oracle and statistically
        equivalent to it.
        """
        if self._dataset is None:
            runner = ParallelCampaignRunner(
                self.scenario, self._campaign_config, telemetry=self.telemetry
            )
            self._dataset = runner.run()
            self._campaign_stats = runner.stats
            self._quarantine = runner.quarantine
        return self._dataset

    @property
    def campaign_stats(self) -> CampaignStats:
        """Instrumentation from the campaign (runs it on first use)."""
        self.dataset
        assert self._campaign_stats is not None
        return self._campaign_stats

    @property
    def quarantine(self) -> QuarantineLog:
        """The campaign's quarantine log (runs the campaign on first use).

        Empty for a clean run; non-empty exactly when the validation
        gate rejected or repaired records (dirty-data faults, or a
        workload that organically produced invalid records).
        """
        self.dataset
        assert self._quarantine is not None
        return self._quarantine

    def telemetry_snapshot(self) -> TelemetrySnapshot:
        """Freeze the study's telemetry (shard-merged) for export."""
        return self.telemetry.snapshot()

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------

    def fig1_diminishing_returns(
        self, candidate_sizes: Tuple[int, ...] = (1, 3, 5, 7, 9)
    ) -> DiminishingReturnsResult:
        """Fig 1: min latency to nearest-N front-ends per /24."""
        scenario = self.scenario
        return diminishing_returns(
            self.dataset,
            scenario.network.frontends,
            scenario.geolocation,
            candidate_sizes,
        )

    def fig2_client_distance(self) -> NthClosestDistances:
        """Fig 2: distance from volume-weighted clients to Nth-closest
        front-end."""
        scenario = self.scenario
        return nth_closest_distance_cdf(
            scenario.clients,
            scenario.network.frontends,
            scenario.geolocation,
        )

    def fig3_anycast_penalty(self) -> AnycastPenaltyResult:
        """Fig 3: CCDF of anycast minus best measured unicast."""
        return anycast_penalty_ccdf(self.dataset)

    def fig4_anycast_distance(self, day: int = 0) -> AnycastDistanceResult:
        """Fig 4: distance to the anycast front-end, one production day."""
        scenario = self.scenario
        return anycast_distance_cdf(
            self.dataset,
            scenario.network.frontends,
            scenario.geolocation,
            day=day,
        )

    def fig5_poor_path_prevalence(self) -> PoorPathPrevalence:
        """Fig 5: daily fraction of /24s with a better unicast option."""
        return poor_path_prevalence(self.dataset)

    def fig6_poor_path_duration(self) -> PoorPathDuration:
        """Fig 6: persistence of poor paths over the month."""
        return poor_path_duration(self.dataset)

    def fig7_frontend_affinity(self, num_days: int = 7) -> AffinityResult:
        """Fig 7: cumulative fraction of clients changing front-ends.

        The window is clamped to the campaign length, so short test
        studies still produce the figure.
        """
        num_days = min(num_days, self.dataset.calendar.num_days)
        return frontend_affinity(self.dataset, start_day=0, num_days=num_days)

    def fig8_switch_distance(self) -> SwitchDistanceResult:
        """Fig 8: distance change when the front-end changes."""
        scenario = self.scenario
        return switch_distance_cdf(
            self.dataset,
            scenario.network.frontends,
            scenario.geolocation,
        )

    def fig9_prediction(
        self, predictor_config: Optional[PredictorConfig] = None
    ) -> PredictionEvaluation:
        """Fig 9: improvement from prediction-driven DNS redirection."""
        predictor = HistoryBasedPredictor(predictor_config)
        return evaluate_prediction(self.dataset, predictor)

    def ldns_proximity(self) -> LdnsProximityResult:
        """§3.3's premise: how close are clients to their LDNS?"""
        scenario = self.scenario
        return ldns_proximity(scenario.clients, scenario.ldns_directory)

    def daily_switch_rate(self, day: int = 0) -> float:
        """§5's K-root comparison: single-day front-end switch rate."""
        return daily_switch_rate(self.dataset, day)

    def footnote1_geo_artifacts(
        self, day: int = 0, threshold_km: float = 3000.0
    ) -> GeoArtifactResult:
        """Footnote 1: geolocation-error share of the distance tail."""
        scenario = self.scenario
        return geolocation_artifacts(
            self.dataset,
            scenario.network.frontends,
            scenario.geolocation,
            day=day,
            threshold_km=threshold_km,
        )

    def cdn_size_table(self) -> Tuple[CdnCatalogEntry, ...]:
        """§4's CDN deployment-size comparison, with this deployment's
        actual front-end count substituted for Bing's."""
        return catalog(
            include_bing=True,
            bing_locations=len(self.scenario.network.frontends),
        )

    # ------------------------------------------------------------------

    def full_report(self) -> str:
        """All figures plus the side analyses — EXPERIMENTS.md's raw
        material."""
        # Materialize the expensive stages before the analysis span so
        # the campaign's own phase tree does not nest under "analysis".
        self.dataset
        producers = (
            ("fig1", lambda: self.fig1_diminishing_returns().format()),
            ("fig2", lambda: self.fig2_client_distance().format()),
            ("fig3", lambda: self.fig3_anycast_penalty().format()),
            ("fig4", lambda: self.fig4_anycast_distance().format()),
            ("fig5", lambda: self.fig5_poor_path_prevalence().format()),
            ("fig6", lambda: self.fig6_poor_path_duration().format()),
            ("fig7", lambda: self.fig7_frontend_affinity().format()),
            ("fig8", lambda: self.fig8_switch_distance().format()),
            ("fig9", lambda: self.fig9_prediction().format()),
            ("ldns_proximity", lambda: self.ldns_proximity().format()),
            (
                "geo_artifacts",
                lambda: self.footnote1_geo_artifacts().format(),
            ),
            (
                "tcp_disruption",
                lambda: format_disruption_table(
                    tcp_disruption(self.dataset)
                ),
            ),
            (
                "switch_rate",
                lambda: (
                    "§5 — single-day front-end switch rate: "
                    f"{self.daily_switch_rate(0):.1%} "
                    "(roots were 1.1-4.7% [20, 33])"
                ),
            ),
        )
        sections = []
        with self.telemetry.span("analysis"):
            for name, produce in producers:
                with self.telemetry.span(name):
                    try:
                        sections.append(produce())
                    except MeasurementError as error:
                        # Bounded (sketch-mode) campaigns trade per-client
                        # passive rows and raw diff samples for flat
                        # memory; figures that need them are skipped
                        # rather than failing the whole report.
                        sections.append(
                            f"{name} — unavailable in bounded sketch mode: "
                            f"{error}"
                        )
        table = ["§4 — CDN deployment sizes"]
        for entry in self.cdn_size_table():
            marker = " (anycast)" if entry.is_anycast else ""
            table.append(f"  {entry.name:24s} {entry.locations:5d}{marker}")
        sections.append("\n".join(table))
        return "\n\n".join(sections)
