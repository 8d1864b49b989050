"""Figs 5–6: prevalence and persistence of poor anycast paths.

Per /24 per day, the paper computes the median latency to anycast and to
each measured unicast front-end; a day is "poor" when some unicast
front-end improves on anycast by at least a threshold.  Fig 5 plots the
daily fraction of /24s poor at each threshold (all / >10 / >25 / >50 /
>100 ms); Fig 6 plots, over a month, the CDF of how many days (and how
many *consecutive* days) each ever-poor /24 stayed poor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.stats import CdfSeries, WeightedDistribution, linear_grid
from repro.dns.authoritative import ANYCAST_TARGET
from repro.simulation.dataset import StudyDataset


@dataclass(frozen=True)
class DailyImprovement:
    """Best available unicast improvement for one /24-day."""

    day: int
    client_key: str
    anycast_median_ms: float
    best_unicast_median_ms: float

    @property
    def improvement_ms(self) -> float:
        """How much faster the best measured unicast front-end was."""
        return self.anycast_median_ms - self.best_unicast_median_ms


def daily_improvements(
    dataset: StudyDataset, min_samples: int = 10
) -> Dict[int, Dict[str, DailyImprovement]]:
    """Per day, per /24: anycast vs best-unicast medians.

    A /24-day appears only when anycast and at least one unicast
    front-end each have ``min_samples`` measurements, mirroring the
    paper's use of per-day medians over collected client measurements.
    """
    if min_samples < 1:
        raise AnalysisError("min_samples must be >= 1")
    result: Dict[int, Dict[str, DailyImprovement]] = {}
    aggregates = dataset.ecs_aggregates
    for day in aggregates.days:
        # One pass over the day's block: its median table, each group's
        # anycast median and its best unicast median, groups in block
        # order.
        block = aggregates.block(day)
        kept = block.counts() >= min_samples
        medians = block.percentiles(50.0)
        cell_groups = block.cell_groups()
        anycast = block.target_codes == block.target_code(ANYCAST_TARGET)
        anycast_median = np.full(len(block.groups), np.nan)
        chosen = kept & anycast
        anycast_median[cell_groups[chosen]] = medians[chosen]
        best_unicast = np.full(len(block.groups), np.inf)
        chosen = kept & ~anycast
        np.minimum.at(best_unicast, cell_groups[chosen], medians[chosen])
        measured = np.zeros(len(block.groups), dtype=bool)
        measured[cell_groups[chosen]] = True
        measured &= ~np.isnan(anycast_median)
        per_day: Dict[str, DailyImprovement] = {}
        for index in np.flatnonzero(measured).tolist():
            group = block.groups[index]
            per_day[group] = DailyImprovement(
                day=day,
                client_key=group,
                anycast_median_ms=float(anycast_median[index]),
                best_unicast_median_ms=float(best_unicast[index]),
            )
        result[day] = per_day
    return result


@dataclass(frozen=True)
class PoorPathPrevalence:
    """Fig 5 result: per-day poor fractions at each threshold."""

    thresholds: Tuple[float, ...]
    #: day -> threshold -> fraction of measurable /24s that are poor
    daily_fractions: Dict[int, Dict[float, float]]

    def mean_fraction(self, threshold: float) -> float:
        """Average over days of the poor fraction at one threshold."""
        values = [
            fractions[threshold] for fractions in self.daily_fractions.values()
        ]
        if not values:
            raise AnalysisError("no days analyzed")
        return sum(values) / len(values)

    def format(self) -> str:
        """Paper-style summary plus per-day rows."""
        lines = ["Fig 5 — daily poor-path prevalence (fraction of /24s)"]
        for threshold in self.thresholds:
            label = "any" if threshold <= 1.0 else f">{threshold:.0f}ms"
            lines.append(
                f"  mean fraction improved {label:>7s}: "
                f"{self.mean_fraction(threshold):6.1%}"
            )
        header = "  day  " + "  ".join(
            f">{threshold:>4.0f}ms" for threshold in self.thresholds
        )
        lines.append(header)
        for day in sorted(self.daily_fractions):
            row = self.daily_fractions[day]
            lines.append(
                f"  {day:3d}  "
                + "  ".join(
                    f"{row[threshold]:7.3f}" for threshold in self.thresholds
                )
            )
        return "\n".join(lines)


def poor_path_prevalence(
    dataset: StudyDataset,
    thresholds: Sequence[float] = (1.0, 10.0, 25.0, 50.0, 100.0),
    min_samples: int = 10,
) -> PoorPathPrevalence:
    """Compute Fig 5.  Threshold 1.0 ms is the "all" line — with integer-
    millisecond timing, "any improvement" means at least 1 ms."""
    if not thresholds:
        raise AnalysisError("need at least one threshold")
    improvements = daily_improvements(dataset, min_samples)
    daily_fractions: Dict[int, Dict[float, float]] = {}
    for day, per_day in improvements.items():
        if not per_day:
            continue
        count = len(per_day)
        fractions = {}
        for threshold in thresholds:
            poor = sum(
                1
                for improvement in per_day.values()
                if improvement.improvement_ms >= threshold
            )
            fractions[float(threshold)] = poor / count
        daily_fractions[day] = fractions
    if not daily_fractions:
        raise AnalysisError("no /24-day had enough measurements")
    return PoorPathPrevalence(
        thresholds=tuple(float(t) for t in thresholds),
        daily_fractions=daily_fractions,
    )


@dataclass(frozen=True)
class PoorPathDuration:
    """Fig 6 result: persistence of poor paths across the month."""

    days_poor: CdfSeries
    max_consecutive: CdfSeries
    fraction_single_day: float
    fraction_five_plus_days: float
    fraction_five_plus_consecutive: float
    ever_poor_count: int

    def format(self) -> str:
        """Paper-style summary plus CDF rows."""
        lines = [
            "Fig 6 — poor-path duration over the month (ever-poor /24s)",
            f"  poor on exactly one day:       {self.fraction_single_day:6.1%}",
            f"  poor on >= 5 days:             "
            f"{self.fraction_five_plus_days:6.1%}",
            f"  poor on >= 5 consecutive days: "
            f"{self.fraction_five_plus_consecutive:6.1%}",
            self.days_poor.format_rows(),
            self.max_consecutive.format_rows(),
        ]
        return "\n".join(lines)


def _max_run(days: Sequence[int]) -> int:
    """Longest run of consecutive integers in a sorted day list."""
    best = 0
    run = 0
    previous: Optional[int] = None
    for day in days:
        run = run + 1 if previous is not None and day == previous + 1 else 1
        best = max(best, run)
        previous = day
    return best


def poor_path_duration(
    dataset: StudyDataset,
    threshold_ms: float = 1.0,
    min_samples: int = 10,
) -> PoorPathDuration:
    """Compute Fig 6 at one poor-path threshold (default: any = 1 ms)."""
    improvements = daily_improvements(dataset, min_samples)
    poor_days: Dict[str, List[int]] = {}
    for day, per_day in improvements.items():
        for client_key, improvement in per_day.items():
            if improvement.improvement_ms >= threshold_ms:
                poor_days.setdefault(client_key, []).append(day)
    if not poor_days:
        raise AnalysisError("no /24 was ever poor at this threshold")

    day_counts = []
    max_runs = []
    for days in poor_days.values():
        days.sort()
        day_counts.append(float(len(days)))
        max_runs.append(float(_max_run(days)))

    grid = linear_grid(1.0, float(dataset.calendar.num_days), 1.0)
    days_dist = WeightedDistribution(day_counts)
    runs_dist = WeightedDistribution(max_runs)
    return PoorPathDuration(
        days_poor=days_dist.cdf_series("# days", grid),
        max_consecutive=runs_dist.cdf_series("max # of consecutive days", grid),
        fraction_single_day=days_dist.fraction_at_or_below(1.0),
        fraction_five_plus_days=1.0 - days_dist.fraction_at_or_below(4.999),
        fraction_five_plus_consecutive=1.0
        - runs_dist.fraction_at_or_below(4.999),
        ever_poor_count=len(poor_days),
    )
