"""The online §6 predictor: batch scoring over the sliding window.

The online predictor owns no scoring logic.  At every tick it hands the
window's per-day aggregate buckets to the batch
:class:`repro.core.predictor.HistoryBasedPredictor` — the same class,
the same ``predict_day`` pass (tested against the per-group
``choose_target`` rule), the same 25th-percentile/≥20-sample rule — so
an online prediction at clock tick *d* is *definitionally* the batch
prediction over the same window.  What this module adds is
bookkeeping: accumulating per-day prediction maps as days close,
serializing them into service checkpoints (float ``repr`` round-trips
exactly, so a resumed run's restored predictions hash identically),
and the canonical :func:`predictions_digest` the chaos-parity tests
compare.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Optional

from repro.core.predictor import (
    HistoryBasedPredictor,
    Prediction,
    PredictorConfig,
)
from repro.errors import PredictionError
from repro.service.window import GROUPINGS, PredictionWindow

#: day → grouping ('ecs' | 'ldns') → group → Prediction
DayPredictions = Dict[str, Dict[str, Prediction]]


class OnlinePredictor:
    """Incremental §6 predictions over a :class:`PredictionWindow`."""

    def __init__(
        self,
        window: PredictionWindow,
        config: Optional[PredictorConfig] = None,
    ) -> None:
        self.window = window
        self.predictor = HistoryBasedPredictor(config)
        #: Closed-day predictions accumulated so far.
        self.by_day: Dict[int, DayPredictions] = {}

    @property
    def config(self) -> PredictorConfig:
        """The §6 parameters in force."""
        return self.predictor.config

    def tick(self, day: int) -> DayPredictions:
        """Predictions for ``day`` from the window, as of now.

        Pure read: can be taken at any clock tick while the day is
        still filling (live telemetry does) — the day-close tick is
        simply the last one, after which the day's bucket becomes
        evictable.

        Raises:
            PredictionError: when the day is outside the window (its
                bucket was evicted — predictions must be taken before
                eviction, which the ingestion loop's day-close ordering
                guarantees).
        """
        bucket = self.window.aggregates_for(day)
        if bucket is None:
            if self.window.days and day < self.window.days[0]:
                raise PredictionError(
                    f"day {day} was evicted from the window "
                    f"(retained: {self.window.days})"
                )
            return {grouping: {} for grouping in GROUPINGS}
        ecs, ldns = bucket
        return {
            "ecs": self.predictor.predict_day(ecs, day),
            "ldns": self.predictor.predict_day(ldns, day),
        }

    def close_day(self, day: int) -> DayPredictions:
        """Take the day's final predictions and record them.

        Idempotent: a day already closed (e.g. restored from a
        checkpoint) returns its recorded predictions untouched — closed
        days are final, and re-closing one after its bucket was evicted
        must never wipe what was recorded.
        """
        if day in self.by_day:
            return self.by_day[day]
        predictions = self.tick(day)
        self.by_day[day] = predictions
        return predictions


# ----------------------------------------------------------------------
# Canonical serialization and digest
# ----------------------------------------------------------------------


def predictions_to_obj(
    by_day: Mapping[int, DayPredictions]
) -> Dict[str, Any]:
    """JSON-compatible form of accumulated predictions.

    Floats serialize by ``repr`` so the round-trip is exact — a resumed
    service restoring pre-crash days from a checkpoint reproduces the
    uninterrupted run's :func:`predictions_digest` bit for bit.
    """
    document: Dict[str, Any] = {}
    for day in sorted(by_day):
        planes: Dict[str, Any] = {}
        for grouping in GROUPINGS:
            rows = {}
            for group, prediction in sorted(
                by_day[day].get(grouping, {}).items()
            ):
                rows[group] = {
                    "target": prediction.target_id,
                    "metric_ms": repr(prediction.metric_ms),
                    "anycast_metric_ms": (
                        None
                        if prediction.anycast_metric_ms is None
                        else repr(prediction.anycast_metric_ms)
                    ),
                }
            planes[grouping] = rows
        document[str(day)] = planes
    return document


def predictions_from_obj(obj: Mapping[str, Any]) -> Dict[int, DayPredictions]:
    """Rebuild accumulated predictions from :func:`predictions_to_obj`.

    Raises:
        PredictionError: on a malformed document.
    """
    try:
        by_day: Dict[int, DayPredictions] = {}
        for day_text, planes in obj.items():
            day = int(day_text)
            restored: DayPredictions = {}
            for grouping in GROUPINGS:
                rows: Dict[str, Prediction] = {}
                for group, row in planes.get(grouping, {}).items():
                    anycast = row.get("anycast_metric_ms")
                    rows[str(group)] = Prediction(
                        group=str(group),
                        target_id=str(row["target"]),
                        metric_ms=float(row["metric_ms"]),
                        anycast_metric_ms=(
                            None if anycast is None else float(anycast)
                        ),
                    )
                restored[grouping] = rows
            by_day[day] = restored
        return by_day
    except (KeyError, TypeError, ValueError) as error:
        raise PredictionError(
            f"malformed predictions document ({error})"
        ) from error


def predictions_digest(by_day: Mapping[int, DayPredictions]) -> str:
    """Canonical SHA-256 over every (day, grouping, group) prediction.

    Fully sorted traversal, floats by exact ``repr`` — the fingerprint
    the replay-parity and chaos-parity tests compare across runs.
    """
    h = hashlib.sha256()
    for day in sorted(by_day):
        for grouping in GROUPINGS:
            for group, prediction in sorted(
                by_day[day].get(grouping, {}).items()
            ):
                h.update(
                    repr(
                        (
                            day,
                            grouping,
                            group,
                            prediction.target_id,
                            repr(prediction.metric_ms),
                            None
                            if prediction.anycast_metric_ms is None
                            else repr(prediction.anycast_metric_ms),
                        )
                    ).encode("utf-8")
                )
                h.update(b"\x1f")
    return h.hexdigest()
