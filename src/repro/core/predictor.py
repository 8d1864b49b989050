"""The paper's primary contribution: history-based front-end prediction.

§6: for each client group — an ECS /24 or an LDNS's client population —
take one prediction interval (a day) of beacon measurements, keep the
targets with at least 20 measurements from the group, score each by a low
latency percentile (25th by default; the paper found 25th and median
equivalent, and higher percentiles too noisy to predict with), and map
the group to the best-scoring target, which may well be anycast itself.

The resulting mapping drives DNS redirection next interval via
:class:`repro.dns.authoritative.StaticMappingPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import PredictionError
from repro.dns.authoritative import ANYCAST_TARGET, StaticMappingPolicy
from repro.measurement.aggregate import GroupedDailyAggregates, LatencyDigest


@dataclass(frozen=True)
class PredictorConfig:
    """Prediction-scheme parameters (§6 defaults).

    Attributes:
        metric_percentile: Latency percentile used to score a target.
            The paper evaluates the 25th percentile and median, finds them
            equivalent, and presents 25th-percentile results.
        min_samples: Minimum measurements a target needs from the group
            during the prediction interval to be considered ("we select
            among the front-ends with 20+ measurements").
    """

    metric_percentile: float = 25.0
    min_samples: int = 20

    def __post_init__(self) -> None:
        if not 0.0 <= self.metric_percentile <= 100.0:
            raise PredictionError(
                f"metric_percentile must be in [0, 100], "
                f"got {self.metric_percentile}"
            )
        if self.min_samples < 1:
            raise PredictionError("min_samples must be >= 1")


@dataclass(frozen=True)
class Prediction:
    """One group's mapping for the next interval.

    Attributes:
        group: The grouping key (client /24 or LDNS id).
        target_id: Chosen target ('anycast' or a front-end id).
        metric_ms: The chosen target's score.
        anycast_metric_ms: Anycast's score, when anycast qualified
            (``None`` if anycast lacked enough samples).
    """

    group: str
    target_id: str
    metric_ms: float
    anycast_metric_ms: Optional[float]

    @property
    def predicted_gain_ms(self) -> float:
        """Expected improvement over anycast (0 when anycast chosen or
        unmeasured)."""
        if self.anycast_metric_ms is None or self.target_id == ANYCAST_TARGET:
            return 0.0
        return self.anycast_metric_ms - self.metric_ms


class HistoryBasedPredictor:
    """Builds per-group target mappings from one day of aggregates."""

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        self._config = config or PredictorConfig()

    @property
    def config(self) -> PredictorConfig:
        """The prediction parameters."""
        return self._config

    def choose_target(
        self, group: str, digests: Mapping[str, LatencyDigest]
    ) -> Optional[Prediction]:
        """The §6 rule for one group over its target → digest map.

        The per-group statement of "score and choose":
        :meth:`predict_group` calls it, and :meth:`predict_day` (which
        Fig 9 and the live service's online predictor call) is tested
        against it, group by group.  Returns ``None`` when no target
        (anycast included) reaches the sample cut — such groups simply
        stay on anycast.
        """
        cfg = self._config
        candidates = {
            target_id: digest
            for target_id, digest in digests.items()
            if digest.count >= cfg.min_samples
        }
        if not candidates:
            return None
        scores = {
            target_id: digest.percentile(cfg.metric_percentile)
            for target_id, digest in candidates.items()
        }
        # Deterministic tie-break; anycast wins ties so prediction only
        # redirects when a front-end is strictly better.
        best = min(
            scores,
            key=lambda target_id: (
                scores[target_id],
                target_id != ANYCAST_TARGET,
                target_id,
            ),
        )
        return Prediction(
            group=group,
            target_id=best,
            metric_ms=scores[best],
            anycast_metric_ms=scores.get(ANYCAST_TARGET),
        )

    def predict_group(
        self, aggregates: GroupedDailyAggregates, day: int, group: str
    ) -> Optional[Prediction]:
        """Prediction for one group from one day's measurements.

        Returns ``None`` when no target (anycast included) reaches the
        sample cut — such groups simply stay on anycast.
        """
        return self.choose_target(
            group, aggregates.targets_for(day, group)
        )

    def predict_day(
        self, aggregates: GroupedDailyAggregates, day: int
    ) -> Dict[str, Prediction]:
        """Predictions for every group measurable on ``day``.

        :meth:`choose_target`'s rule over the day's block in one pass:
        the block's percentile table scores every cell that reaches the
        sample cut, and one sort by (group, score, anycast first,
        target) puts each group's choice first.  Groups come in
        ascending order.
        """
        cfg = self._config
        block = aggregates.block(day)
        cells = np.flatnonzero(block.counts() >= cfg.min_samples)
        if not cells.size:
            return {}
        scores = block.percentiles(cfg.metric_percentile)[cells]
        codes = block.target_codes[cells]
        cell_groups = block.cell_groups()[cells]
        anycast = codes == block.target_code(ANYCAST_TARGET)
        group_ranks, target_ranks = block.name_ranks()
        order = np.lexsort(
            (target_ranks[codes], ~anycast, scores, group_ranks[cell_groups])
        )
        best = order[np.diff(group_ranks[cell_groups[order]], prepend=-1) != 0]
        anycast_scores = dict(
            zip(cell_groups[anycast].tolist(), scores[anycast].tolist())
        )
        predictions: Dict[str, Prediction] = {}
        for group_index, code, score in zip(
            cell_groups[best].tolist(), codes[best].tolist(), scores[best].tolist()
        ):
            group = block.groups[group_index]
            predictions[group] = Prediction(
                group=group,
                target_id=block.targets[code],
                metric_ms=score,
                anycast_metric_ms=anycast_scores.get(group_index),
            )
        return predictions

    def mapping_for_day(
        self,
        aggregates: GroupedDailyAggregates,
        day: int,
        only_redirections: bool = True,
    ) -> Dict[str, str]:
        """group → target mapping (dropping anycast entries by default,
        since anycast is the policy fallback anyway)."""
        mapping: Dict[str, str] = {}
        for group, prediction in self.predict_day(aggregates, day).items():
            if only_redirections and prediction.target_id == ANYCAST_TARGET:
                continue
            mapping[group] = prediction.target_id
        return mapping

    def build_policy(
        self,
        ecs_aggregates: Optional[GroupedDailyAggregates] = None,
        ldns_aggregates: Optional[GroupedDailyAggregates] = None,
        day: int = 0,
    ) -> StaticMappingPolicy:
        """A deployable DNS policy from one day's aggregates.

        Raises:
            PredictionError: if neither aggregate source is given.
        """
        if ecs_aggregates is None and ldns_aggregates is None:
            raise PredictionError("need ECS or LDNS aggregates (or both)")
        ecs_mapping = (
            self.mapping_for_day(ecs_aggregates, day)
            if ecs_aggregates is not None
            else {}
        )
        ldns_mapping = (
            self.mapping_for_day(ldns_aggregates, day)
            if ldns_aggregates is not None
            else {}
        )
        return StaticMappingPolicy(
            ecs_mapping=ecs_mapping, ldns_mapping=ldns_mapping
        )

