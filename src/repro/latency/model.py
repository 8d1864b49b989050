"""RTT model: geography plus noise.

The paper's beacon measures HTTP fetch latency between a client and a
front-end.  We synthesize that latency from the simulated path:

``rtt = propagation(path) + per-hop processing + last-mile access delay
+ jitter (+ any episode inflation the campaign layer adds)``

* Propagation is round-trip great-circle distance over the walked metro
  path at fiber speed, times a circuitousness factor (fiber does not follow
  geodesics).
* The backbone leg gets its own stretch factor (private backbones are
  engineered closer to geodesic than the public Internet).
* Jitter is lognormal — deliberately heavy-tailed, because §6 of the paper
  leans on the empirical fact that the 25th percentile and median of a
  latency distribution are stable while the 75th+ percentiles are noisy.
  :func:`repro.latency.sampling.percentile_stability_profile` verifies the
  model reproduces exactly that.

Each stochastic term has a scalar sampler drawing from a
``random.Random`` (the reference engine's oracle path); the batched
engines draw the same distributions from counter streams
(:mod:`repro.simulation.counterrng`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LatencyConfig:
    """Parameters of the RTT model.

    Attributes:
        fiber_km_per_ms: One-way signal speed in fiber (~200 km/ms).
        path_stretch: Circuitousness of interdomain fiber paths relative to
            great-circle distance.
        backbone_stretch: Circuitousness of the CDN's private backbone.
        per_hop_ms: Round-trip processing delay added per AS-level hop.
        jitter_median_ms: Median of the lognormal jitter term.
        jitter_sigma: Shape of the jitter lognormal; larger values make the
            high percentiles noisier (the §6 property).
        spike_probability: Chance a single measurement hits a latency
            spike (loss/retransmission, scheduling stalls) — web
            measurements have a heavy per-request tail even on good paths,
            which is what puts requests in Fig 3's far tail without moving
            the per-/24 medians of Fig 5.
        spike_median_ms: Median size of a spike.
        spike_sigma: Lognormal shape of spike sizes.
        daily_variation_probability: Chance a given (client, unicast path)
            pair is running elevated on a given day — congestion varies
            day to day, so a path's whole latency distribution shifts.
            This is what makes yesterday's prediction occasionally wrong
            today (Fig 9's left tail) and creates one-day poor paths
            (Fig 6).
        anycast_daily_variation_probability: Same, for the anycast path.
            Lower than the unicast test paths': production anycast rides
            the CDN's engineered peering, while the per-front-end test
            prefixes take whatever single-point announcement BGP gives
            them.
        daily_variation_median_ms: Median elevation when it occurs.
        daily_variation_sigma: Lognormal shape of the elevation.
        static_offset_probability: Chance a (client, unicast path) pair
            carries a *persistent* quality offset for the whole study —
            congested peering, circuitous fiber, under-provisioned
            segments.  Distance alone does not determine latency; this is
            why the geographically closest front-end is not always the
            fastest (the spread between Fig 1's candidate-set lines).
        anycast_static_offset_probability: Same, for the anycast path —
            persistent, *predictable* anycast badness is precisely what
            §6's history-based scheme exploits.
        static_offset_median_ms: Median persistent offset when present.
        static_offset_sigma: Lognormal shape of the persistent offset.
        min_rtt_ms: Floor on any produced RTT.
        queue_delay_scale_ms: Scale of the convex queueing-delay term a
            finite-capacity front-end adds as its utilization approaches
            1 (see :meth:`LatencyModel.queueing_delay_ms`).  Zero keeps
            the classic infinite-capacity model.
        queue_delay_cap_ms: Ceiling on the queueing term — a saturated
            front-end degrades to this plateau (timeouts and admission
            control bound real queues) instead of diverging.
    """

    fiber_km_per_ms: float = 200.0
    path_stretch: float = 1.3
    backbone_stretch: float = 1.15
    per_hop_ms: float = 0.4
    jitter_median_ms: float = 1.5
    jitter_sigma: float = 0.5
    spike_probability: float = 0.16
    spike_median_ms: float = 90.0
    spike_sigma: float = 1.0
    daily_variation_probability: float = 0.35
    anycast_daily_variation_probability: float = 0.09
    daily_variation_median_ms: float = 12.0
    daily_variation_sigma: float = 1.0
    static_offset_probability: float = 0.30
    anycast_static_offset_probability: float = 0.10
    static_offset_median_ms: float = 8.0
    static_offset_sigma: float = 1.0
    min_rtt_ms: float = 1.0
    queue_delay_scale_ms: float = 6.0
    queue_delay_cap_ms: float = 400.0

    def __post_init__(self) -> None:
        if self.fiber_km_per_ms <= 0:
            raise ConfigurationError("fiber_km_per_ms must be positive")
        for name in ("path_stretch", "backbone_stretch"):
            if getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be >= 1.0")
        for name in ("per_hop_ms", "jitter_median_ms", "min_rtt_ms",
                     "spike_median_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        for name in ("jitter_sigma", "spike_sigma", "daily_variation_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0.0 <= self.spike_probability < 1.0:
            raise ConfigurationError("spike_probability must be in [0, 1)")
        for name in (
            "daily_variation_probability",
            "anycast_daily_variation_probability",
            "static_offset_probability",
            "anycast_static_offset_probability",
        ):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")
        for name in ("daily_variation_median_ms", "static_offset_median_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.static_offset_sigma < 0:
            raise ConfigurationError(
                "static_offset_sigma must be non-negative"
            )
        for name in ("queue_delay_scale_ms", "queue_delay_cap_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


class LatencyModel:
    """Turns a service path into sampled RTT measurements."""

    def __init__(self, config: LatencyConfig = LatencyConfig()) -> None:
        self._config = config

    @property
    def config(self) -> LatencyConfig:
        """The model parameters."""
        return self._config

    def baseline_rtt_ms(
        self, path_km: float, backbone_km: float, as_hops: int,
        access_delay_ms: float,
    ) -> float:
        """Deterministic RTT floor for a path: everything but jitter.

        Args:
            path_km: Interdomain great-circle path length (one way).
            backbone_km: CDN-internal leg length (one way).
            as_hops: AS-level hops traversed.
            access_delay_ms: The client's fixed last-mile delay.
        """
        if path_km < 0 or backbone_km < 0:
            raise ConfigurationError("path distances must be non-negative")
        if as_hops < 1:
            raise ConfigurationError("a path has at least one AS hop")
        if access_delay_ms < 0:
            raise ConfigurationError("access_delay_ms must be non-negative")
        cfg = self._config
        one_way_km = path_km * cfg.path_stretch + backbone_km * cfg.backbone_stretch
        propagation = 2.0 * one_way_km / cfg.fiber_km_per_ms
        processing = cfg.per_hop_ms * as_hops
        return max(
            cfg.min_rtt_ms, propagation + processing + access_delay_ms
        )

    def queueing_delay_ms(self, utilization: float) -> float:
        """Deterministic queueing delay at a given front-end utilization.

        A convex M/M/1-flavored curve, ``scale * u^2 / (1 - u)``, capped
        at ``queue_delay_cap_ms``: negligible below ~70% utilization,
        steep as ``u -> 1``, and a bounded plateau at or beyond
        saturation (``u >= 1`` returns the cap).  Purely a function of
        utilization — the campaign layer computes one value per
        (front-end, day) and folds it into the affected baselines, so
        all engines stay bit-identical.
        """
        if utilization < 0:
            raise ConfigurationError("utilization must be non-negative")
        cfg = self._config
        if cfg.queue_delay_scale_ms == 0.0 or utilization == 0.0:
            return 0.0
        if utilization >= 1.0:
            return cfg.queue_delay_cap_ms
        delay = (
            cfg.queue_delay_scale_ms
            * utilization
            * utilization
            / (1.0 - utilization)
        )
        return min(delay, cfg.queue_delay_cap_ms)

    def sample_jitter_ms(self, rng: random.Random) -> float:
        """One jitter draw: lognormal body plus an occasional heavy spike."""
        cfg = self._config
        jitter = 0.0
        if cfg.jitter_median_ms > 0.0:
            jitter = rng.lognormvariate(
                math.log(cfg.jitter_median_ms), cfg.jitter_sigma
            )
        if cfg.spike_probability > 0.0 and rng.random() < cfg.spike_probability:
            jitter += rng.lognormvariate(
                math.log(cfg.spike_median_ms), cfg.spike_sigma
            )
        return jitter

    def sample_daily_variation_ms(
        self, rng: random.Random, anycast: bool = False
    ) -> float:
        """The day's congestion elevation for one (client, path) pair.

        Zero most days; occasionally a lognormal elevation.  The campaign
        draws this once per (client, path, day) from a derived RNG so it
        is constant within the day and independent across days.

        Args:
            anycast: Use the anycast path's (lower) elevation probability.
        """
        cfg = self._config
        probability = (
            cfg.anycast_daily_variation_probability
            if anycast
            else cfg.daily_variation_probability
        )
        if (
            probability <= 0.0
            or rng.random() >= probability
            or cfg.daily_variation_median_ms == 0.0
        ):
            return 0.0
        return rng.lognormvariate(
            math.log(cfg.daily_variation_median_ms), cfg.daily_variation_sigma
        )

    def sample_static_offset_ms(
        self, rng: random.Random, anycast: bool = False
    ) -> float:
        """The persistent quality offset for one (client, path) pair.

        Drawn once per pair from a derived RNG by the campaign layer and
        folded into the path's baseline, so it shapes every measurement
        for the whole study — the predictable component §6 feeds on.

        Args:
            anycast: Use the anycast path's (lower) offset probability.
        """
        cfg = self._config
        probability = (
            cfg.anycast_static_offset_probability
            if anycast
            else cfg.static_offset_probability
        )
        if (
            probability <= 0.0
            or rng.random() >= probability
            or cfg.static_offset_median_ms == 0.0
        ):
            return 0.0
        return rng.lognormvariate(
            math.log(cfg.static_offset_median_ms), cfg.static_offset_sigma
        )

    def static_offset_from_seed(
        self, seed_value: int, anycast: bool = False
    ) -> float:
        """The persistent quality offset keyed by a derived seed.

        Equivalent in distribution to :meth:`sample_static_offset_ms`
        over ``random.Random(seed_value)``, but the occurrence test —
        the outcome for most (client, path) pairs — costs one splitmix64
        finalizer round on the seed instead of initializing a Mersenne
        Twister; the magnitude RNG is only built for the minority of
        paths that do carry an offset.  Campaign engines resolve every
        (client, path) baseline through this, so it sits on the
        path-cache warm-up critical path.
        """
        cfg = self._config
        probability = (
            cfg.anycast_static_offset_probability
            if anycast
            else cfg.static_offset_probability
        )
        if probability <= 0.0 or cfg.static_offset_median_ms == 0.0:
            return 0.0
        mask = 0xFFFFFFFFFFFFFFFF
        h = seed_value & mask
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & mask
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & mask
        h ^= h >> 31
        if (h >> 11) * 2.0**-53 >= probability:
            return 0.0
        return random.Random(seed_value).lognormvariate(
            math.log(cfg.static_offset_median_ms), cfg.static_offset_sigma
        )

    def sample_rtt_ms(
        self,
        path_km: float,
        backbone_km: float,
        as_hops: int,
        access_delay_ms: float,
        rng: random.Random,
        inflation_ms: float = 0.0,
    ) -> float:
        """One measured RTT: baseline + jitter + optional episode inflation.

        ``inflation_ms`` is how the campaign layer injects congestion or
        poor-path episodes without the model knowing about calendars.
        """
        if inflation_ms < 0:
            raise ConfigurationError("inflation_ms must be non-negative")
        baseline = self.baseline_rtt_ms(
            path_km, backbone_km, as_hops, access_delay_ms
        )
        return baseline + self.sample_jitter_ms(rng) + inflation_ms
