"""The ring-buffered sliding window behind the online predictor.

The paper's prediction interval is one day: the §6 scheme scores each
(group, target) over the *previous* day's measurements.  Online, that
means the service must hold the last ``window_days`` days of per-(group,
target) latency digests, append as events arrive, and evict whole days
as the clock advances — the classic ring buffer of aggregation buckets.

Each day bucket is one ECS :class:`~repro.measurement.aggregate
.GroupedDailyAggregates` holding only that day, plus the /24 → resolver
map learned from that day's events.  The LDNS plane is not stored: it
is derived from the two on every read (:meth:`PredictionWindow
.aggregates_for`), the way :attr:`~repro.simulation.dataset
.StudyDataset.ldns_aggregates` derives the batch one, and the map is
evicted with its bucket.  So the cells the online predictor reads for
day *d* hold exactly the samples the batch predictor sees for day *d*.
Because a day block's percentile table is a pure function of each
cell's sample multiset (a canonical sort; canonical sketch promotion),
online and batch scores agree *bit for bit* — the
differential-oracle property ``tests/test_service_replay.py`` asserts.

The service feeds the window one beacon block at a time
(:meth:`observe_block`): one resolver check per run, then every run
appended through :meth:`~repro.measurement.aggregate
.GroupedDailyAggregates.observe_runs`, the matrix engine's sink.
:meth:`observe` is a one-event block through the same path.

The window itself is order-free: :meth:`observe` commutes across
events, eviction drops whole days without touching retained ones, and
:meth:`state_digest` hashes a fully-sorted traversal — so window state
is a pure function of the in-window event multiset, invariant under
arrival order, shard interleaving, and eviction batching
(``tests/test_service_window.py``).

Service checkpoints spill the window through the dataset codec
(:mod:`repro.simulation.transport`): each retained day is its ECS day
block, the block an export's ``aggregates`` frame holds, plus the
resolver map.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError, MeasurementError
from repro.measurement.aggregate import GroupedDailyAggregates
from repro.measurement.canonical import CanonicalHash, aggregate_day_parts
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
)
from repro.service.events import BeaconBlock, BeaconEvent
from repro.simulation.transport import apply_day_block, encode_day_block

#: Grouping labels of the two aggregate planes each day exposes: the
#: stored ECS plane and the LDNS plane derived from it.
GROUPINGS = ("ecs", "ldns")

#: One retained day: its ECS aggregates and its /24 → resolver map.
_Bucket = Tuple[GroupedDailyAggregates, Dict[str, str]]


class PredictionWindow:
    """A sliding window of per-day ECS buckets and resolver maps.

    Args:
        window_days: How many whole days the window retains.  The §6
            default is 1 — predictions for day *d* read day *d*'s bucket
            and day *d − window_days* and older are evictable once the
            stream reaches day *d + 1*.
        exact_threshold: Per-digest sketch-promotion threshold
            (``None`` keeps every digest exact — the oracle mode).
        relative_accuracy: Sketch accuracy after promotion.
        max_buckets: Per-sketch bucket cap after promotion.
    """

    def __init__(
        self,
        window_days: int = 1,
        exact_threshold: Optional[int] = None,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if window_days < 1:
            raise ConfigurationError("window_days must be >= 1")
        self.window_days = window_days
        self.exact_threshold = exact_threshold
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        self._days: Dict[int, _Bucket] = {}
        #: Events dropped because their day was already evicted.
        self.late_drops = 0
        # Highest day index the window has evicted past (None before the
        # first advance).  Lateness is judged against this horizon, not
        # against the retained days: an out-of-order arrival *within*
        # the window must be admitted even when newer days got there
        # first, and a straggler for an evicted day must be dropped even
        # when the window happens to be empty.
        self._evicted_through: Optional[int] = None

    def _new_bucket(self) -> _Bucket:
        ecs = GroupedDailyAggregates(
            "ecs",
            exact_threshold=self.exact_threshold,
            relative_accuracy=self.relative_accuracy,
            max_buckets=self.max_buckets,
        )
        return ecs, {}

    # ------------------------------------------------------------------
    # Ingest and eviction
    # ------------------------------------------------------------------

    def observe(self, event: BeaconEvent) -> bool:
        """Fold one admitted beacon in: a one-event :meth:`observe_block`."""
        return self.observe_block(BeaconBlock.from_events((event,)))

    def observe_block(self, block: BeaconBlock) -> bool:
        """Fold an admitted beacon block into its day bucket.

        Returns ``False`` — and counts ``len(block)`` late drops — when
        the block's day was already evicted; retained state is never
        touched by such stragglers, which is what "evicted events never
        influence predictions" means operationally.  Each run appends
        to its (/24, target) cell through
        :meth:`~repro.measurement.aggregate.GroupedDailyAggregates
        .observe_runs`, the matrix engine's sink.

        Raises:
            MeasurementError: when a run puts its /24 behind another
                resolver than an earlier run of the same day did; the
                window is left unchanged.
        """
        day = block.day
        if self._evicted_through is not None and day <= self._evicted_through:
            self.late_drops += len(block)
            return False
        if not len(block):
            return True
        bucket = self._days.get(day)
        resolvers = {} if bucket is None else bucket[1]
        learned: Dict[str, str] = {}
        entries = []
        for client_key, ldns_id, target_id, start, stop in block.runs():
            known = resolvers.get(client_key)
            if known is None:
                known = learned.setdefault(client_key, ldns_id)
            if known != ldns_id:
                raise MeasurementError(
                    f"day {day}: /24 {client_key!r} arrived via "
                    f"resolver {ldns_id!r} after {known!r}"
                )
            entries.append((client_key, target_id, start, stop))
        if bucket is None:
            bucket = self._new_bucket()
            self._days[day] = bucket
        ecs, resolvers = bucket
        resolvers.update(learned)
        ecs.observe_runs(day, entries, block.rtts)
        return True

    def advance_to(self, day: int) -> Tuple[int, ...]:
        """Evict buckets older than the window ending at ``day``.

        Keeps days in ``(day - window_days, day]`` — i.e. with the
        default 1-day window, reaching day *d* evicts day *d − 1* and
        older once their predictions have been taken.  Returns the
        evicted day indices (ascending).  Calling this at any cadence
        (per event, per day, or once at the end) leaves identical
        retained state — eviction drops whole days and never rewrites
        survivors.
        """
        horizon = day - self.window_days
        evicted = tuple(sorted(d for d in self._days if d <= horizon))
        for stale in evicted:
            del self._days[stale]
        if self._evicted_through is None or horizon > self._evicted_through:
            self._evicted_through = horizon
        return evicted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def days(self) -> Tuple[int, ...]:
        """Retained day indices, ascending."""
        return tuple(sorted(self._days))

    def aggregates_for(
        self, day: int
    ) -> Optional[Tuple[GroupedDailyAggregates, GroupedDailyAggregates]]:
        """The (ECS, LDNS) aggregate pair of one retained day; the LDNS
        plane is derived from the day's resolver map on each call."""
        bucket = self._days.get(day)
        if bucket is None:
            return None
        ecs, resolvers = bucket
        return ecs, ecs.regrouped("ldns", resolvers.__getitem__)

    def sample_count(self) -> int:
        """Total retained samples (one per admitted beacon)."""
        return sum(
            int(ecs.block(day).counts().sum())
            for day, (ecs, _) in self._days.items()
        )

    def state_digest(self) -> str:
        """Canonical SHA-256 of the retained window state.

        Fully sorted traversal, samples canonicalized by sorting, floats
        hashed by exact ``repr`` — the per-day aggregate stream of
        :meth:`repro.simulation.dataset.StudyDataset.digest`
        (:mod:`repro.measurement.canonical`), so the digest is a pure
        function of the in-window event multiset.
        """
        stream = CanonicalHash()
        stream.put("window", self.window_days)
        for day in self.days:
            for aggregates in self.aggregates_for(day):
                stream.put("plane", aggregates.grouping, day)
                stream.put_parts(aggregate_day_parts(aggregates, day))
        return stream.hexdigest()

    # ------------------------------------------------------------------
    # Serialization (service checkpoints)
    # ------------------------------------------------------------------

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form; exact samples round-trip bit-exactly.

        Each day holds its ECS cells as one column block
        (:func:`repro.simulation.transport.encode_day_block`) and its
        /24 → resolver map.
        """
        days: Dict[str, Any] = {}
        for day in self.days:
            ecs, resolvers = self._days[day]
            days[str(day)] = {
                "ecs": encode_day_block(ecs, day),
                "resolvers": dict(sorted(resolvers.items())),
            }
        return {
            "window_days": self.window_days,
            "exact_threshold": self.exact_threshold,
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self.max_buckets,
            "late_drops": self.late_drops,
            "evicted_through": self._evicted_through,
            "days": days,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "PredictionWindow":
        """Rebuild a window from :meth:`to_obj` output.

        Raises:
            MeasurementError: on a malformed document.
        """
        try:
            window = cls(
                window_days=int(obj["window_days"]),
                exact_threshold=(
                    None
                    if obj.get("exact_threshold") is None
                    else int(obj["exact_threshold"])
                ),
                relative_accuracy=float(obj["relative_accuracy"]),
                max_buckets=int(obj["max_buckets"]),
            )
            window.late_drops = int(obj.get("late_drops", 0))
            evicted_through = obj.get("evicted_through")
            window._evicted_through = (
                None if evicted_through is None else int(evicted_through)
            )
            for day_text, bucket_obj in obj["days"].items():
                day = int(day_text)
                ecs, resolvers = window._new_bucket()
                window._days[day] = (ecs, resolvers)
                apply_day_block(ecs, day, bucket_obj["ecs"])
                resolvers.update(
                    (str(key), str(ldns_id))
                    for key, ldns_id in bucket_obj["resolvers"].items()
                )
        except (KeyError, TypeError, ValueError) as error:
            raise MeasurementError(
                f"malformed prediction-window document ({error})"
            ) from error
        return window
