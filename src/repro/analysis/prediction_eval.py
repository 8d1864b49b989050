"""Fig 9: does yesterday's prediction help today?

For each consecutive day pair, build the §6 prediction from day *d* and
score it against day *d+1*'s measurements: per client /24, the improvement
is (anycast percentile − predicted-target percentile) on the evaluation
day, at the 50th and 75th percentiles (the Bing team's internal benchmark
uses the 75th).  Clients whose prediction is anycast score exactly zero.
The distribution is weighted by query volume, pooled over all day pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.analysis.stats import CdfSeries, WeightedDistribution, linear_grid
from repro.core.predictor import HistoryBasedPredictor, Prediction
from repro.dns.authoritative import ANYCAST_TARGET
from repro.simulation.dataset import StudyDataset

#: Grouping labels.
ECS = "ecs"
LDNS = "ldns"


@dataclass(frozen=True)
class ImprovementSummary:
    """Headline fractions for one (grouping, percentile) line of Fig 9."""

    grouping: str
    percentile: float
    fraction_improved: float
    fraction_worse: float
    fraction_unchanged: float
    evaluated_weight: float

    def format(self) -> str:
        """One summary row."""
        return (
            f"  {self.grouping.upper():5s} p{self.percentile:<4.0f} "
            f"improved {self.fraction_improved:6.1%}  "
            f"worse {self.fraction_worse:6.1%}  "
            f"unchanged {self.fraction_unchanged:6.1%}"
        )


@dataclass(frozen=True)
class PredictionEvaluation:
    """Fig 9 result: improvement CDFs and summaries per line."""

    series: Tuple[CdfSeries, ...]
    summaries: Tuple[ImprovementSummary, ...]

    def format(self) -> str:
        """Paper-style summary plus CDF rows."""
        lines = [
            "Fig 9 — improvement over anycast from prediction-driven "
            "DNS redirection (weighted /24s)"
        ]
        lines.extend(summary.format() for summary in self.summaries)
        lines.extend(series.format_rows() for series in self.series)
        return "\n".join(lines)

    def summary(self, grouping: str, percentile: float) -> ImprovementSummary:
        """Look up one line's summary."""
        for candidate in self.summaries:
            if (
                candidate.grouping == grouping
                and candidate.percentile == percentile
            ):
                return candidate
        raise AnalysisError(f"no summary for {grouping} p{percentile}")


def evaluate_prediction(
    dataset: StudyDataset,
    predictor: Optional[HistoryBasedPredictor] = None,
    groupings: Sequence[str] = (ECS, LDNS),
    eval_percentiles: Sequence[float] = (50.0, 75.0),
    min_eval_samples: int = 8,
    significance_ms: float = 1.0,
) -> PredictionEvaluation:
    """Compute Fig 9.

    Args:
        predictor: The §6 scheme (default configuration if omitted).
        groupings: Which grouping lines to produce ('ecs', 'ldns').
        eval_percentiles: Evaluation percentiles (paper: 50th and 75th).
        min_eval_samples: Minimum next-day samples per digest to score a
            client (below this the comparison is meaningless noise).
        significance_ms: |improvement| below this counts as unchanged.
    """
    predictor = predictor or HistoryBasedPredictor()
    for grouping in groupings:
        if grouping not in (ECS, LDNS):
            raise AnalysisError(f"unknown grouping {grouping!r}")

    days = dataset.ecs_aggregates.days
    if len(days) < 2:
        raise AnalysisError("prediction evaluation needs >= 2 days")

    # Percentile -> parallel improvement lists, per grouping.
    per_percentile: Dict[Tuple[str, float], List[Tuple[float, float]]] = {
        (grouping, percentile): []
        for grouping in groupings
        for percentile in eval_percentiles
    }

    ldns_of = {client.key: client.ldns_id for client in dataset.clients}
    # The LDNS plane is derived from the ECS cells on each read: take
    # one view for every day.
    ldns_aggregates = dataset.ldns_aggregates if LDNS in groupings else None

    for prediction_day, evaluation_day in zip(days, days[1:]):
        if evaluation_day != prediction_day + 1:
            continue  # only consecutive calendar days form a valid pair
        predictions_by_grouping: Dict[str, Dict[str, Prediction]] = {}
        if ECS in groupings:
            predictions_by_grouping[ECS] = predictor.predict_day(
                dataset.ecs_aggregates, prediction_day
            )
        if ldns_aggregates is not None:
            predictions_by_grouping[LDNS] = predictor.predict_day(
                ldns_aggregates, prediction_day
            )

        # The evaluation day's block answers every lookup: its counts
        # and one percentile table per evaluation percentile.
        block = dataset.ecs_aggregates.block(evaluation_day)
        counts = block.counts().tolist()
        tables = {
            percentile: block.percentiles(percentile).tolist()
            for percentile in eval_percentiles
        }
        for client in dataset.clients:
            weight = client.daily_queries
            anycast_cell = block.find(client.key, ANYCAST_TARGET)
            if anycast_cell is None or counts[anycast_cell] < min_eval_samples:
                continue
            for grouping in groupings:
                group = client.key if grouping == ECS else ldns_of[client.key]
                prediction = predictions_by_grouping[grouping].get(group)
                target = (
                    prediction.target_id if prediction else ANYCAST_TARGET
                )
                target_cell = (
                    None
                    if target == ANYCAST_TARGET
                    else block.find(client.key, target)
                )
                for percentile in eval_percentiles:
                    if target == ANYCAST_TARGET:
                        improvement = 0.0
                    else:
                        if (
                            target_cell is None
                            or counts[target_cell] < min_eval_samples
                        ):
                            continue
                        table = tables[percentile]
                        improvement = table[anycast_cell] - table[target_cell]
                    per_percentile[(grouping, percentile)].append(
                        (improvement, weight)
                    )

    series: List[CdfSeries] = []
    summaries: List[ImprovementSummary] = []
    grid = linear_grid(-400.0, 400.0, 20.0)
    for grouping in groupings:
        label_prefix = "EDNS-0" if grouping == ECS else "LDNS"
        for percentile in eval_percentiles:
            entries = per_percentile[(grouping, percentile)]
            if not entries:
                raise AnalysisError(
                    f"no client could be evaluated for {grouping} "
                    f"p{percentile}"
                )
            values = [improvement for improvement, _ in entries]
            weights = [weight for _, weight in entries]
            dist = WeightedDistribution(values, weights)
            name = "Median" if percentile == 50.0 else f"{percentile:.0f}th"
            series.append(
                dist.cdf_series(f"{label_prefix} {name}", grid)
            )
            summaries.append(
                ImprovementSummary(
                    grouping=grouping,
                    percentile=float(percentile),
                    fraction_improved=dist.fraction_above(significance_ms),
                    fraction_worse=dist.fraction_at_or_below(-significance_ms),
                    fraction_unchanged=(
                        dist.fraction_at_or_below(significance_ms)
                        - dist.fraction_at_or_below(-significance_ms)
                    ),
                    evaluated_weight=dist.total_weight,
                )
            )
    return PredictionEvaluation(
        series=tuple(series), summaries=tuple(summaries)
    )
