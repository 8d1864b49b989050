"""The JavaScript measurement beacon (§3.2.2–3.3), emulated.

After a (simulated) search-results page loads, the beacon:

1. asks DNS for four test hostnames — the authoritative infrastructure
   assigns one to the anycast address, one to the front-end geographically
   closest to the client's LDNS, and two to front-ends randomly drawn from
   the ten nearest the LDNS, weighted toward closer ones (§3.3);
2. issues a warm-up request per hostname so the measured fetch uses the
   cached DNS answer (§3.2.2);
3. fetches each URL and records the elapsed time, substituting W3C
   Resource Timing values when the browser supports them (most do; the
   rest measure with primitive timers and some extra overhead [32]);
4. reports results to the backend, which joins them with the DNS and
   server logs by the globally unique measurement id.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.cdn.frontend import FrontEnd, nearest_frontends
from repro.dns.authoritative import ANYCAST_TARGET
from repro.dns.cache import TtlCache
from repro.geo.geolocation import GeolocationDatabase


@dataclass(frozen=True)
class BeaconConfig:
    """Beacon methodology knobs (defaults follow §3.3).

    Attributes:
        candidate_count: Front-ends nearest the LDNS considered candidates.
        random_picks: Random candidates measured besides anycast + closest.
        distance_weight_power: Rank weighting for the random picks — pick
            probability ∝ 1/rank**power, so the 3rd-closest is likelier
            than the 4th-closest (§3.3's example).
        resource_timing_support: Fraction of clients whose browser exposes
            the Resource Timing API.
        primitive_overhead_mean_ms / primitive_overhead_sigma_ms:
            Extra measured latency (Gaussian, truncated at zero) when only
            primitive timings are available [32].
        dns_ttl_seconds: TTL on measurement hostnames — longer than a
            beacon run, per §3.2.2.
    """

    candidate_count: int = 10
    random_picks: int = 2
    distance_weight_power: float = 1.0
    resource_timing_support: float = 0.9
    primitive_overhead_mean_ms: float = 6.0
    primitive_overhead_sigma_ms: float = 3.0
    dns_ttl_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.candidate_count < 2:
            raise ConfigurationError("candidate_count must be >= 2")
        if not 0 <= self.random_picks <= self.candidate_count - 1:
            raise ConfigurationError(
                "random_picks must fit within the non-closest candidates"
            )
        if not 0.0 <= self.resource_timing_support <= 1.0:
            raise ConfigurationError(
                "resource_timing_support must be in [0, 1]"
            )
        if self.distance_weight_power < 0:
            raise ConfigurationError("distance_weight_power must be >= 0")
        if self.dns_ttl_seconds <= 0:
            raise ConfigurationError("dns_ttl_seconds must be positive")


class BeaconTargetSelector:
    """Chooses which front-ends a beacon measures (§3.3).

    Candidate sets are derived from the LDNS's *geolocated* position (the
    CDN does not know where resolvers truly are) and cached per LDNS.
    """

    def __init__(
        self,
        frontends: Sequence[FrontEnd],
        geolocation: GeolocationDatabase,
        config: Optional[BeaconConfig] = None,
    ) -> None:
        if not frontends:
            raise ConfigurationError("selector needs at least one front-end")
        self._frontends = tuple(frontends)
        self._geolocation = geolocation
        self._config = config or BeaconConfig()
        self._candidates: Dict[str, Tuple[str, ...]] = {}
        self._weights: Dict[str, Tuple[float, ...]] = {}
        self._log_weights: Dict[str, np.ndarray] = {}

    @property
    def config(self) -> BeaconConfig:
        """The beacon methodology parameters."""
        return self._config

    def candidates(self, ldns_id: str) -> Tuple[str, ...]:
        """Front-end ids of the N candidates nearest an LDNS, closest
        first (computed from geolocated position, cached)."""
        cached = self._candidates.get(ldns_id)
        if cached is None:
            nearest = nearest_frontends(
                self._frontends,
                self._geolocation.lookup(ldns_id),
                self._config.candidate_count,
            )
            cached = tuple(fe.frontend_id for fe in nearest)
            self._candidates[ldns_id] = cached
            # Random-pick weights for ranks 2..N (1-indexed ranks).
            power = self._config.distance_weight_power
            self._weights[ldns_id] = tuple(
                1.0 / (rank ** power) for rank in range(2, len(cached) + 1)
            )
        return cached

    def closest(self, ldns_id: str) -> str:
        """The front-end geographically closest to the LDNS."""
        return self.candidates(ldns_id)[0]

    def select_targets(self, ldns_id: str, rng: random.Random) -> Tuple[str, ...]:
        """The target list for one beacon execution.

        Returns ``(anycast, closest, pick, pick, ...)`` — always the
        anycast target, the closest candidate, and ``random_picks``
        distinct draws from the remaining candidates, rank-weighted.
        """
        candidates = self.candidates(ldns_id)
        targets: List[str] = [ANYCAST_TARGET, candidates[0]]
        pool = list(candidates[1:])
        weights = list(self._weights[ldns_id])
        picks = min(self._config.random_picks, len(pool))
        for _ in range(picks):
            chosen = rng.choices(range(len(pool)), weights=weights, k=1)[0]
            targets.append(pool.pop(chosen))
            weights.pop(chosen)
        return tuple(targets)

    def pick_pool(self, ldns_id: str) -> Tuple[str, ...]:
        """The candidates eligible for random picks (ranks 2..N)."""
        return self.candidates(ldns_id)[1:]

    def log_pick_weights(self, ldns_id: str) -> np.ndarray:
        """``log`` of the rank weights over :meth:`pick_pool`, cached.

        The additive term of the Gumbel top-k pick used by the batched
        engines; cached per LDNS so the per-(client, day) hot paths do
        no allocation or ``log`` work.
        """
        cached = self._log_weights.get(ldns_id)
        if cached is None:
            self.candidates(ldns_id)  # also caches the weights
            cached = np.log(np.asarray(self._weights[ldns_id]))
            self._log_weights[ldns_id] = cached
        return cached


@dataclass(frozen=True)
class BeaconFetch:
    """One test-URL fetch result, before backend joining."""

    measurement_id: str
    target_id: str
    serving_frontend_id: str
    rtt_ms: float
    used_resource_timing: bool
    dns_cache_hit: bool


class BeaconRunner:
    """Executes beacon sessions against a resolution + latency backend.

    The runner owns the measurement-id counter and per-LDNS resolver
    caches; the campaign layer supplies, per fetch, what the network would
    answer (serving front-end and sampled RTT) via callables, keeping this
    module free of routing knowledge.
    """

    def __init__(
        self,
        selector: BeaconTargetSelector,
        config: Optional[BeaconConfig] = None,
    ) -> None:
        self._selector = selector
        self._config = config or selector.config
        self._counter = itertools.count()
        self._ldns_caches: Dict[str, TtlCache[str]] = {}

    def _cache_for(self, ldns_id: str) -> TtlCache[str]:
        cache = self._ldns_caches.get(ldns_id)
        if cache is None:
            cache = TtlCache()
            self._ldns_caches[ldns_id] = cache
        return cache

    def purge_caches(self, now: float) -> None:
        """Drop expired resolver-cache entries (call between days)."""
        for cache in self._ldns_caches.values():
            cache.purge_expired(now)

    def cache_stats(self) -> Tuple[int, int]:
        """Aggregate ``(hits, misses)`` across every LDNS resolver cache."""
        hits = 0
        misses = 0
        for cache in self._ldns_caches.values():
            cache_hits, cache_misses = cache.stats
            hits += cache_hits
            misses += cache_misses
        return hits, misses

    def run_beacon(
        self,
        ldns_id: str,
        resource_timing_supported: bool,
        serve: Callable[[str], Tuple[str, float]],
        rng: random.Random,
        now: float = 0.0,
    ) -> Tuple[BeaconFetch, ...]:
        """Execute one beacon session (four fetches).

        Args:
            ldns_id: The client's resolver.
            resource_timing_supported: Whether this client's browser has
                the Resource Timing API.
            serve: Callback mapping a target id to ``(serving_frontend_id,
                rtt_ms)`` — the simulated network answering the fetch.
            rng: Randomness for target picks and timing overhead.
            now: Simulated time (seconds) for DNS-cache bookkeeping.

        Returns:
            One :class:`BeaconFetch` per target, anycast first.
        """
        cache = self._cache_for(ldns_id)
        targets = self._selector.select_targets(ldns_id, rng)
        fetches: List[BeaconFetch] = []
        for target_id in targets:
            measurement_id = f"m{next(self._counter):010d}"
            hostname = f"{measurement_id}.probe.cdn.example"
            # Warm-up request: resolve and populate the resolver cache.
            if cache.get(hostname, now) is None:
                cache.put(
                    hostname, target_id, now, self._config.dns_ttl_seconds
                )
            # Measured fetch: must hit the cache (§3.2.2's whole point).
            resolved = cache.get(hostname, now)
            if resolved is None:
                raise MeasurementError(
                    f"measurement {measurement_id} missed the DNS cache "
                    "immediately after warm-up"
                )
            serving_frontend_id, rtt_ms = serve(resolved)
            used_resource_timing = resource_timing_supported
            if not used_resource_timing:
                overhead = rng.gauss(
                    self._config.primitive_overhead_mean_ms,
                    self._config.primitive_overhead_sigma_ms,
                )
                rtt_ms += max(0.0, overhead)
            # Browser timing APIs of the era report integer milliseconds;
            # reporting rounded values also gives "any improvement" in the
            # daily analyses its natural >= 1 ms meaning.
            rtt_ms = float(round(rtt_ms))
            fetches.append(
                BeaconFetch(
                    measurement_id=measurement_id,
                    target_id=resolved,
                    serving_frontend_id=serving_frontend_id,
                    rtt_ms=rtt_ms,
                    used_resource_timing=used_resource_timing,
                    dns_cache_hit=True,
                )
            )
        return tuple(fetches)
