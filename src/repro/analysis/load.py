"""Load-aware anycast figures: overload vs. latency, and shed traffic.

Two dataset-only figures for capacity-enabled campaigns (those run with
``--frontend-capacity``, whose datasets carry a ``load_summary``):

* **load** — the load-vs-latency tradeoff: per day, the front-end
  utilization the load schedule recorded next to the anycast latency
  the clients actually experienced (p50/p95 over per-/24 daily
  medians).  Under the ``none`` policy latency blows up with the convex
  queueing term on overloaded days; ``withdraw`` trades it for reroute
  penalties and cascades; ``fastroute`` bounds both.
* **shed** — shed-traffic fractions: the per-day shed series (max shed
  fraction, shedding front-end count, withdrawn set, rerouted clients)
  and each front-end's peak utilization/shed over the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dns.authoritative import ANYCAST_TARGET
from repro.errors import AnalysisError
from repro.latency.sampling import percentile
from repro.simulation.dataset import StudyDataset


def _require_load_summary(dataset: StudyDataset) -> Dict[str, object]:
    summary = dataset.load_summary
    if summary is None:
        raise AnalysisError(
            "dataset has no load summary; re-run the campaign with "
            "--frontend-capacity to enable finite front-end capacity"
        )
    return summary


def _daily_anycast_percentiles(
    dataset: StudyDataset, min_samples: int = 1
) -> Dict[int, Tuple[float, float, int]]:
    """day -> (p50, p95, /24 count) over per-/24 anycast daily medians.

    Working from per-group medians (not raw samples) keeps the figure
    available in bounded-sketch mode and mirrors the per-/24-day framing
    the poor-path figures use.
    """
    result: Dict[int, Tuple[float, float, int]] = {}
    aggregates = dataset.ecs_aggregates
    for day in aggregates.days:
        block = aggregates.block(day)
        chosen = (block.target_codes == block.target_code(ANYCAST_TARGET)) & (
            block.counts() >= min_samples
        )
        medians: List[float] = block.percentiles(50.0)[chosen].tolist()
        if not medians:
            continue
        medians.sort()
        result[day] = (
            percentile(medians, 50.0),
            percentile(medians, 95.0),
            len(medians),
        )
    return result


@dataclass(frozen=True)
class LoadDayRow:
    """One day of the load-vs-latency tradeoff."""

    day: int
    max_utilization: float
    mean_utilization: float
    anycast_p50_ms: Optional[float]
    anycast_p95_ms: Optional[float]
    shedding_frontends: int
    withdrawn_frontends: int


@dataclass(frozen=True)
class LoadLatencyTradeoff:
    """Load-vs-latency figure: per-day utilization against latency."""

    policy: str
    headroom: float
    rows: Tuple[LoadDayRow, ...]
    overload_events: Tuple[Mapping[str, object], ...]
    peak_utilization: float
    peak_anycast_p95_ms: Optional[float]

    def format(self) -> str:
        """Per-day table plus the campaign's overload drills."""
        lines = [
            "Load — load-vs-latency tradeoff "
            f"(policy={self.policy}, headroom={self.headroom:g}x)",
            f"  peak front-end utilization: {self.peak_utilization:6.2f}"
            + (
                f", peak anycast p95: {self.peak_anycast_p95_ms:8.1f} ms"
                if self.peak_anycast_p95_ms is not None
                else ""
            ),
            "  day  max-util  mean-util  anycast-p50  anycast-p95"
            "  shedding  withdrawn",
        ]
        for row in self.rows:
            p50 = (
                f"{row.anycast_p50_ms:9.1f}ms"
                if row.anycast_p50_ms is not None
                else "        --"
            )
            p95 = (
                f"{row.anycast_p95_ms:9.1f}ms"
                if row.anycast_p95_ms is not None
                else "        --"
            )
            lines.append(
                f"  {row.day:3d}  {row.max_utilization:8.2f}"
                f"  {row.mean_utilization:9.2f}  {p50}  {p95}"
                f"  {row.shedding_frontends:8d}"
                f"  {row.withdrawn_frontends:9d}"
            )
        if self.overload_events:
            lines.append("  overload drills:")
            for event in self.overload_events:
                lines.append(
                    f"    {event['kind']:<14s} day {event['start_day']}"
                    f" x{event['duration_days']}"
                    f"  magnitude {float(event['magnitude']):.2f}"
                    f"  -> {event['target']}"
                )
        return "\n".join(lines)


def load_latency_tradeoff(dataset: StudyDataset) -> LoadLatencyTradeoff:
    """Compute the load-vs-latency tradeoff from a saved dataset.

    Raises:
        AnalysisError: if the dataset was produced without
            ``--frontend-capacity`` (no load summary recorded).
    """
    summary = _require_load_summary(dataset)
    latency = _daily_anycast_percentiles(dataset)
    rows: List[LoadDayRow] = []
    peak_utilization = 0.0
    peak_p95: Optional[float] = None
    for day_row in summary["days"]:
        day = int(day_row["day"])
        day_latency = latency.get(day)
        p50 = day_latency[0] if day_latency else None
        p95 = day_latency[1] if day_latency else None
        max_utilization = float(day_row["max_utilization"])
        peak_utilization = max(peak_utilization, max_utilization)
        if p95 is not None and (peak_p95 is None or p95 > peak_p95):
            peak_p95 = p95
        rows.append(
            LoadDayRow(
                day=day,
                max_utilization=max_utilization,
                mean_utilization=float(day_row["mean_utilization"]),
                anycast_p50_ms=p50,
                anycast_p95_ms=p95,
                shedding_frontends=int(day_row["shedding_frontends"]),
                withdrawn_frontends=len(day_row["withdrawn"]),
            )
        )
    if not rows:
        raise AnalysisError("load summary covers no days")
    return LoadLatencyTradeoff(
        policy=str(summary["policy"]),
        headroom=float(summary["headroom"]),
        rows=tuple(rows),
        overload_events=tuple(summary.get("events") or ()),
        peak_utilization=peak_utilization,
        peak_anycast_p95_ms=peak_p95,
    )


@dataclass(frozen=True)
class ShedFractionResult:
    """Shed-traffic figure: per-day shed series and per-front-end peaks."""

    policy: str
    rows: Tuple[Mapping[str, object], ...]
    frontends: Mapping[str, Mapping[str, object]]
    total_withdrawn: int
    peak_shed_fraction: float

    def format(self) -> str:
        """Per-day shed table plus per-front-end peaks."""
        lines = [
            f"Shed — shed-traffic fractions (policy={self.policy})",
            f"  peak shed fraction: {self.peak_shed_fraction:6.1%},"
            f" front-ends withdrawn: {self.total_withdrawn}",
            "  day  max-shed  shedding-fes  withdrawn  rerouted-clients",
        ]
        for row in self.rows:
            lines.append(
                f"  {int(row['day']):3d}"
                f"  {float(row['max_shed_fraction']):8.1%}"
                f"  {int(row['shedding_frontends']):12d}"
                f"  {len(row['withdrawn']):9d}"
                f"  {int(row['rerouted_clients']):16d}"
            )
        busy = [
            (frontend_id, stats)
            for frontend_id, stats in self.frontends.items()
            if float(stats["peak_shed_fraction"]) > 0.0
            or stats.get("withdrawn_day") is not None
        ]
        if busy:
            lines.append("  front-ends that shed or withdrew:")
            for frontend_id, stats in busy:
                withdrawn_day = stats.get("withdrawn_day")
                suffix = (
                    f"  withdrawn day {withdrawn_day}"
                    if withdrawn_day is not None
                    else ""
                )
                lines.append(
                    f"    {frontend_id:<16s}"
                    f" peak-util {float(stats['peak_utilization']):6.2f}"
                    f"  peak-shed {float(stats['peak_shed_fraction']):6.1%}"
                    f"{suffix}"
                )
        return "\n".join(lines)


def shed_traffic_fractions(dataset: StudyDataset) -> ShedFractionResult:
    """Compute the shed-traffic figure from a saved dataset.

    Raises:
        AnalysisError: if the dataset carries no load summary.
    """
    summary = _require_load_summary(dataset)
    rows = tuple(summary["days"])
    if not rows:
        raise AnalysisError("load summary covers no days")
    frontends: Mapping[str, Mapping[str, object]] = summary["frontends"]
    peak_shed = max(
        (float(stats["peak_shed_fraction"]) for stats in frontends.values()),
        default=0.0,
    )
    total_withdrawn = sum(
        1
        for stats in frontends.values()
        if stats.get("withdrawn_day") is not None
    )
    return ShedFractionResult(
        policy=str(summary["policy"]),
        rows=rows,
        frontends=frontends,
        total_withdrawn=total_withdrawn,
        peak_shed_fraction=peak_shed,
    )
