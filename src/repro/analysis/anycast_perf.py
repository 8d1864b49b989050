"""Figs 3–4: how well does anycast do?

* **Fig 3** — CCDF over beacon requests of (anycast latency − best of the
  three measured unicast latencies), split World / United States / Europe.
  Paper headline: anycast ≥25 ms slower for ~20% of requests, just under
  10% are ≥100 ms slower.
* **Fig 4** — CDF over one day of production (passive) traffic of the
  distance from client to serving front-end, and of the distance *past*
  the closest front-end, both unweighted and query-volume-weighted.
  Paper: ~55% land on the nearest front-end; ~75% within ~400 km of it;
  82% of clients / 87% of volume within 2000 km of their front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.analysis.stats import (
    CdfSeries,
    WeightedDistribution,
    linear_grid,
    log2_grid,
)
from repro.cdn.frontend import FrontEnd, rank_frontends
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.geolocation import GeolocationDatabase
from repro.simulation.dataset import StudyDataset

#: Region labels the Fig 3 split uses.
WORLD = "world"
UNITED_STATES = "united-states"
EUROPE = "europe"


@dataclass(frozen=True)
class AnycastPenaltyResult:
    """Fig 3 result."""

    series: Tuple[CdfSeries, ...]
    #: region label -> fraction of requests with anycast at least X ms
    #: slower than best measured unicast, for the paper's key thresholds.
    fraction_slower: Dict[str, Dict[float, float]]
    request_count: int

    def format(self) -> str:
        """Paper-style summary plus CCDF rows."""
        lines = [
            "Fig 3 — CCDF of (anycast - best measured unicast) per request"
        ]
        for region, by_threshold in self.fraction_slower.items():
            parts = ", ".join(
                f">={threshold:.0f}ms: {fraction:5.1%}"
                for threshold, fraction in sorted(by_threshold.items())
            )
            lines.append(f"  {region:14s} {parts}")
        for series in self.series:
            lines.append(series.format_rows())
        return "\n".join(lines)


def anycast_penalty_ccdf(
    dataset: StudyDataset,
    regions: Sequence[str] = (EUROPE, WORLD, UNITED_STATES),
    thresholds: Sequence[float] = (1.0, 10.0, 25.0, 50.0, 100.0),
) -> AnycastPenaltyResult:
    """Compute Fig 3 from the per-request diff log.

    Works in both diff-log modes: an exact log computes the CCDF over
    its raw rows; a bounded log answers from its merged per-region
    sketches, within the sketch's relative error bound.
    """
    diffs = dataset.request_diffs
    if len(diffs) == 0:
        raise AnalysisError("no beacon requests recorded")
    grid = linear_grid(0.0, 100.0, 5.0)
    series: List[CdfSeries] = []
    fraction_slower: Dict[str, Dict[float, float]] = {}
    for region in regions:
        region_name = None if region == WORLD else region
        if diffs.is_bounded:
            sketch = diffs.diff_sketch(region_name)
            if sketch is None or sketch.count == 0:
                continue
            series.append(
                CdfSeries(
                    label=region,
                    xs=tuple(float(x) for x in grid),
                    ys=tuple(sketch.fraction_above(x) for x in grid),
                )
            )
            fraction_slower[region] = {
                float(threshold): sketch.fraction_above(threshold - 1e-9)
                for threshold in thresholds
            }
            continue
        values = diffs.diffs(region_name)
        if not values:
            continue
        dist = WeightedDistribution(values)
        series.append(dist.ccdf_series(region, grid))
        fraction_slower[region] = {
            float(threshold): dist.fraction_above(threshold - 1e-9)
            for threshold in thresholds
        }
    if not series:
        raise AnalysisError("no requests matched any requested region")
    return AnycastPenaltyResult(
        series=tuple(series),
        fraction_slower=fraction_slower,
        request_count=len(diffs),
    )


@dataclass(frozen=True)
class AnycastDistanceResult:
    """Fig 4 result: the four CDFs and headline fractions."""

    series: Tuple[CdfSeries, ...]
    fraction_at_nearest: float
    fraction_at_nearest_weighted: float
    fraction_within_2000km: float
    fraction_within_2000km_weighted: float
    past_closest_p75_km: float
    past_closest_p90_km: float

    def format(self) -> str:
        """Paper-style summary plus CDF rows."""
        lines = [
            "Fig 4 — client-to-anycast-front-end distance (one day of "
            "production traffic)",
            f"  directed to nearest front-end: {self.fraction_at_nearest:5.1%}"
            f" (weighted {self.fraction_at_nearest_weighted:5.1%})",
            f"  within 2000 km of front-end:   "
            f"{self.fraction_within_2000km:5.1%}"
            f" (weighted {self.fraction_within_2000km_weighted:5.1%})",
            f"  past-closest p75: {self.past_closest_p75_km:6.0f} km, "
            f"p90: {self.past_closest_p90_km:6.0f} km",
        ]
        for series in self.series:
            lines.append(series.format_rows())
        return "\n".join(lines)


def anycast_distance_cdf(
    dataset: StudyDataset,
    frontends: Sequence[FrontEnd],
    geolocation: GeolocationDatabase,
    day: int = 0,
    nearest_epsilon_km: float = 1.0,
) -> AnycastDistanceResult:
    """Compute Fig 4 from one day of passive logs.

    Distances use geolocated client positions — including the error
    fraction, which is the paper's footnote-1 caveat about very long
    apparent distances.

    Args:
        day: Which production day to analyze.
        nearest_epsilon_km: Slack under which "distance past closest"
            counts as zero (geolocation is not meter-accurate).
    """
    frontends_by_id = {fe.frontend_id: fe for fe in frontends}

    served: List[FrontEnd] = []
    locations: List[GeoPoint] = []
    weights: List[float] = []
    for client_key, counts in dataset.passive.iter_day(day):
        frontend_id = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
        frontend = frontends_by_id.get(frontend_id)
        if frontend is None:
            raise AnalysisError(f"passive log names unknown {frontend_id!r}")
        served.append(frontend)
        locations.append(geolocation.lookup(client_key))
        weights.append(float(sum(counts.values())))

    to_frontend: List[float] = []
    past_closest: List[float] = []
    nearest_rows = rank_frontends(frontends, locations, 1)
    for frontend, location, ((_, nearest),) in zip(
        served, locations, nearest_rows
    ):
        distance = haversine_km(location, frontend.location)
        nearest_km = haversine_km(location, nearest.location)
        to_frontend.append(distance)
        past_closest.append(max(0.0, distance - nearest_km))

    if not to_frontend:
        raise AnalysisError(f"no passive traffic on day {day}")

    grid = log2_grid(64.0, 8192.0)
    dist_plain = WeightedDistribution(to_frontend)
    dist_weighted = WeightedDistribution(to_frontend, weights)
    past_plain = WeightedDistribution(past_closest)
    past_weighted = WeightedDistribution(past_closest, weights)
    series = (
        dist_weighted.cdf_series("weighted clients to front-end", grid),
        dist_plain.cdf_series("clients to front-end", grid),
        past_weighted.cdf_series("weighted clients past closest", grid),
        past_plain.cdf_series("clients past closest", grid),
    )
    return AnycastDistanceResult(
        series=series,
        fraction_at_nearest=past_plain.fraction_at_or_below(nearest_epsilon_km),
        fraction_at_nearest_weighted=past_weighted.fraction_at_or_below(
            nearest_epsilon_km
        ),
        fraction_within_2000km=dist_plain.fraction_at_or_below(2000.0),
        fraction_within_2000km_weighted=dist_weighted.fraction_at_or_below(
            2000.0
        ),
        past_closest_p75_km=past_plain.quantile(0.75),
        past_closest_p90_km=past_plain.quantile(0.90),
    )
