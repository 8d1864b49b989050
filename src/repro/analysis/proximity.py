"""Figs 1–2: how close are clients to front-ends, and is measuring the
ten nearest enough?

* **Fig 2** — CDF of the distance from clients (volume-weighted) to their
  Nth-closest front-end, N = 1..4.  Paper medians: ~280 km (1st), ~700 km
  (2nd), ~1300 km (4th).
* **Fig 1** — CDF over /24s of the *minimum observed latency* when only
  the nearest N front-ends to the client's LDNS are considered,
  N ∈ {1,3,5,7,9}; the diminishing-returns argument for measuring ten
  candidates (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.stats import CdfSeries, WeightedDistribution, linear_grid, log2_grid
from repro.cdn.frontend import FrontEnd, rank_frontends
from repro.clients.population import ClientPrefix
from repro.dns.authoritative import ANYCAST_TARGET
from repro.geo.geolocation import GeolocationDatabase
from repro.simulation.dataset import StudyDataset


@dataclass(frozen=True)
class NthClosestDistances:
    """Fig 2 result: one distribution per N."""

    series: Tuple[CdfSeries, ...]
    medians_km: Tuple[float, ...]

    def format(self) -> str:
        """Paper-style summary plus CDF rows."""
        lines = [
            "Fig 2 — distance from volume-weighted clients to Nth-closest "
            "front-end"
        ]
        for n, median in enumerate(self.medians_km, start=1):
            lines.append(f"  median distance to {n}-closest: {median:7.0f} km")
        for series in self.series:
            lines.append(series.format_rows())
        return "\n".join(lines)


def nth_closest_distance_cdf(
    clients: Sequence[ClientPrefix],
    frontends: Sequence[FrontEnd],
    geolocation: Optional[GeolocationDatabase] = None,
    max_n: int = 4,
    weighted: bool = True,
) -> NthClosestDistances:
    """Compute Fig 2 from a population and a deployment.

    Distances use the client's *geolocated* position when a database is
    given (what the paper could measure), else true positions.
    """
    if max_n < 1:
        raise AnalysisError("max_n must be >= 1")
    if len(frontends) < max_n:
        raise AnalysisError(
            f"deployment has {len(frontends)} front-ends, need >= {max_n}"
        )
    locations = [
        geolocation.lookup(client.key) if geolocation else client.location
        for client in clients
    ]
    per_n: List[List[float]] = [[] for _ in range(max_n)]
    for nearest in rank_frontends(frontends, locations, max_n):
        for index, (distance, _) in enumerate(nearest):
            per_n[index].append(distance)
    weights = [
        client.daily_queries if weighted else 1.0 for client in clients
    ]

    grid = log2_grid(64.0, 8192.0)
    series: List[CdfSeries] = []
    medians: List[float] = []
    for index in range(max_n):
        dist = WeightedDistribution(per_n[index], weights)
        series.append(dist.cdf_series(f"{index + 1}-closest", grid))
        medians.append(dist.median())
    return NthClosestDistances(series=tuple(series), medians_km=tuple(medians))


@dataclass(frozen=True)
class DiminishingReturnsResult:
    """Fig 1 result: min-latency CDF per candidate-set size."""

    series: Tuple[CdfSeries, ...]
    medians_ms: Dict[int, float]

    def format(self) -> str:
        """Summary plus CDF rows."""
        lines = ["Fig 1 — min latency to nearest-N front-ends (per /24)"]
        for n in sorted(self.medians_ms):
            lines.append(
                f"  N={n}: median min-latency {self.medians_ms[n]:6.1f} ms"
            )
        for series in self.series:
            lines.append(series.format_rows())
        return "\n".join(lines)

    def gain_ms(self, n_small: int, n_large: int) -> float:
        """Median min-latency reduction from growing the candidate set."""
        return self.medians_ms[n_small] - self.medians_ms[n_large]


def diminishing_returns(
    dataset: StudyDataset,
    frontends: Sequence[FrontEnd],
    geolocation: GeolocationDatabase,
    candidate_sizes: Sequence[int] = (1, 3, 5, 7, 9),
) -> DiminishingReturnsResult:
    """Compute Fig 1 from a campaign dataset.

    For each /24, the minimum latency ever measured to each unicast
    front-end is collected; the N-line then takes the minimum over the N
    front-ends nearest the client's LDNS (those are the candidates §3.3
    would have considered).
    """
    if not candidate_sizes or min(candidate_sizes) < 1:
        raise AnalysisError("candidate sizes must be positive")
    max_n = max(candidate_sizes)

    # Per client: min observed latency per unicast front-end, pooled
    # days.  Every day's unicast cells stack into (client, front-end,
    # day minimum) columns under global name codes, looked up once per
    # distinct name of a block; one sort then folds the days.
    group_codes: Dict[str, int] = {}
    target_codes: Dict[str, int] = {}
    group_cols: List[np.ndarray] = [np.empty(0, np.int64)]
    target_cols: List[np.ndarray] = [np.empty(0, np.int64)]
    low_cols: List[np.ndarray] = [np.empty(0)]
    aggregates = dataset.ecs_aggregates
    for day in aggregates.days:
        block = aggregates.block(day)
        unicast = np.flatnonzero(
            (block.target_codes != block.target_code(ANYCAST_TARGET))
            & (block.counts() > 0)
        )
        global_groups = np.array(
            [group_codes.setdefault(g, len(group_codes)) for g in block.groups],
            dtype=np.int64,
        )
        global_targets = np.array(
            [target_codes.setdefault(t, len(target_codes)) for t in block.targets],
            dtype=np.int64,
        )
        group_cols.append(global_groups[block.cell_groups()[unicast]])
        target_cols.append(global_targets[block.target_codes[unicast]])
        low_cols.append(block.extrema()[0][unicast])
    keys = np.concatenate(group_cols) * len(target_codes) + np.concatenate(
        target_cols
    )
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    minima = np.minimum.reduceat(np.concatenate(low_cols)[order], starts)
    group_names, target_names = list(group_codes), list(target_codes)
    min_latency: Dict[str, Dict[str, float]] = {}
    for key, value in zip(keys[starts].tolist(), minima.tolist()):
        group, target = divmod(key, len(target_names))
        min_latency.setdefault(group_names[group], {})[
            target_names[target]
        ] = value

    # The candidate lists of every distinct LDNS of a measured /24, in
    # one ranking; LDNS are geolocated in first-appearance order.
    measured_clients = [
        (client, min_latency[client.key])
        for client in dataset.clients
        if min_latency.get(client.key)
    ]
    ldns_ids = list(
        dict.fromkeys(client.ldns_id for client, _ in measured_clients)
    )
    ranked = rank_frontends(
        frontends, [geolocation.lookup(ldns_id) for ldns_id in ldns_ids], max_n
    )
    candidate_ids = {
        ldns_id: tuple(fe.frontend_id for _, fe in nearest)
        for ldns_id, nearest in zip(ldns_ids, ranked)
    }

    per_size_values: Dict[int, List[float]] = {n: [] for n in candidate_sizes}
    for client, measured in measured_clients:
        ordered = candidate_ids[client.ldns_id]
        for n in candidate_sizes:
            candidates = ordered[:n]
            values = [
                measured[fe_id] for fe_id in candidates if fe_id in measured
            ]
            if values:
                per_size_values[n].append(min(values))

    grid = linear_grid(0.0, 200.0, 10.0)
    series: List[CdfSeries] = []
    medians: Dict[int, float] = {}
    for n in candidate_sizes:
        if not per_size_values[n]:
            raise AnalysisError(
                f"no /24 had measurements within its nearest-{n} candidates"
            )
        dist = WeightedDistribution(per_size_values[n])
        series.append(dist.cdf_series(f"{n} front-ends", grid))
        medians[n] = dist.median()
    return DiminishingReturnsResult(series=tuple(series), medians_ms=medians)
