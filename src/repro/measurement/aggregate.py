"""Streaming aggregation of beacon measurements.

A month-long campaign produces millions of joined measurements; holding
them as objects would dwarf memory.  Analyses only ever need (a) per-day
per-(group, target) latency distributions and (b) the per-request anycast
minus best-unicast difference (Fig 3).  These sinks accumulate exactly
that, with compact ``array`` storage.

Two aggregation modes exist end to end:

* **exact** (the default, and the small-N oracle): every sample is
  retained in a C-double array, percentiles interpolate over the sorted
  samples, and dataset digests hash the raw values — bit-compatible with
  every export and digest this repo has ever produced.
* **sketch** (``exact_threshold`` set): a digest that grows past the
  threshold *promotes* into a bounded
  :class:`repro.measurement.sketch.LatencySketch` and stops retaining
  samples.  Promotion is canonical — the sketch state is a pure function
  of the sample multiset — so a shard that promotes at a different time
  (or never, merging exact into an already-promoted peer) reaches
  bit-identical sketch state.  :class:`RequestDiffLog` and
  :class:`repro.measurement.logs.PassiveLog` have analogous bounded
  modes, keyed per (day, region) and per (day, front-end).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import AnalysisError, MeasurementError
from repro.latency.sampling import percentile
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
    LatencySketch,
)


class LatencyDigest:
    """Append-only latency accumulator with percentile queries.

    Exact mode: samples live in a C-double array; the sorted view is
    computed lazily and invalidated on append, so an analysis pass
    issuing consecutive percentile queries sorts at most once.  Large
    digests sort into a numpy array (one ``np.sort`` over the buffer,
    O(1) interpolated quantile lookups); small ones stay on plain Python
    lists, which are cheaper below the array-conversion overhead.

    With ``exact_threshold`` set, a digest whose count exceeds the
    threshold promotes into a bounded :class:`LatencySketch` — raw
    samples are dropped and percentiles answer within the sketch's
    documented relative error.  ``minimum``/``maximum``/``count`` stay
    exact in both modes (running extrema, O(1) per query).
    """

    __slots__ = (
        "_values",
        "_sorted",
        "_sorted_array",
        "_min",
        "_max",
        "_exact_threshold",
        "_relative_accuracy",
        "_max_buckets",
        "_sketch",
    )

    #: Sample count at which percentile queries switch from a sorted
    #: Python list to a sorted numpy array.
    _NUMPY_SORT_THRESHOLD = 64

    def __init__(
        self,
        values: Optional[Sequence[float]] = None,
        exact_threshold: Optional[int] = None,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if exact_threshold is not None and exact_threshold < 1:
            raise MeasurementError("exact_threshold must be >= 1")
        self._values: Optional[array] = array("d")
        self._sorted: Optional[List[float]] = None
        self._sorted_array: Optional[np.ndarray] = None
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._exact_threshold = exact_threshold
        self._relative_accuracy = relative_accuracy
        self._max_buckets = max_buckets
        self._sketch: Optional[LatencySketch] = None
        if values is not None and len(values) > 0:
            self.extend(values)

    # ------------------------------------------------------------------
    # Mode plumbing
    # ------------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """Whether raw samples are still retained."""
        return self._sketch is None

    @property
    def sketch(self) -> Optional[LatencySketch]:
        """The backing sketch once promoted (``None`` in exact mode)."""
        return self._sketch

    @property
    def exact_threshold(self) -> Optional[int]:
        """Sample count beyond which this digest promotes to a sketch."""
        return self._exact_threshold

    @property
    def relative_accuracy(self) -> float:
        """Configured sketch accuracy (used at and after promotion)."""
        return self._relative_accuracy

    @property
    def max_buckets(self) -> int:
        """Configured hard cap on sketch buckets after promotion."""
        return self._max_buckets

    def _new_sketch(self) -> LatencySketch:
        return LatencySketch(
            relative_accuracy=self._relative_accuracy,
            max_buckets=self._max_buckets,
        )

    def _promote(self) -> None:
        """Convert retained samples into sketch state (canonical: the
        result depends only on the sample multiset, not on when the
        promotion happened)."""
        assert self._values is not None
        sketch = self._new_sketch()
        if len(self._values):
            sketch.extend(np.frombuffer(self._values, dtype=np.float64))
        self._sketch = sketch
        self._values = None
        self._invalidate()

    def _maybe_promote(self) -> None:
        if (
            self._exact_threshold is not None
            and self._values is not None
            and len(self._values) > self._exact_threshold
        ):
            self._promote()

    @classmethod
    def from_sketch(
        cls,
        sketch: LatencySketch,
        exact_threshold: Optional[int] = None,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> "LatencyDigest":
        """A sketch-mode digest wrapping an existing sketch (used when
        loading sketch frames from an export)."""
        digest = cls(
            exact_threshold=exact_threshold,
            relative_accuracy=relative_accuracy,
            max_buckets=max_buckets,
        )
        digest._values = None
        digest._sketch = sketch
        if sketch.count:
            digest._min = sketch.minimum()
            digest._max = sketch.maximum()
        return digest

    def copy(self) -> "LatencyDigest":
        """An independent digest with identical state and mode config."""
        clone = LatencyDigest(
            exact_threshold=self._exact_threshold,
            relative_accuracy=self._relative_accuracy,
            max_buckets=self._max_buckets,
        )
        if self._values is not None:
            clone._values = array("d", self._values)
        else:
            clone._values = None
            assert self._sketch is not None
            clone._sketch = self._sketch.copy()
        clone._min = self._min
        clone._max = self._max
        return clone

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def add(self, value: float) -> None:
        """Append one sample."""
        value = float(value)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._values is None:
            assert self._sketch is not None
            self._sketch.add(value)
            return
        self._values.append(value)
        self._invalidate()
        self._maybe_promote()

    def extend(
        self,
        values: Union[np.ndarray, Sequence[float]],
        bounds: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Append a batch of samples (the batched engines' bulk path).

        Accepts any float sequence; numpy arrays append through the
        buffer protocol without a per-element Python loop.  ``bounds``
        lets a caller that already knows the batch's ``(min, max)`` —
        e.g. from one ``reduceat`` over many run boundaries — skip the
        per-batch reductions; it must equal the true extrema.
        """
        if len(values) == 0:
            return
        if isinstance(values, np.ndarray):
            batch = np.ascontiguousarray(values, dtype=np.float64)
        else:
            batch = np.asarray(tuple(values), dtype=np.float64)
        if bounds is None:
            low = float(batch.min())
            high = float(batch.max())
        else:
            low, high = bounds
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high
        if self._values is None:
            assert self._sketch is not None
            self._sketch.extend(batch)
            return
        self._values.frombytes(batch.tobytes())
        self._invalidate()
        self._maybe_promote()

    def merge(self, other: "LatencyDigest") -> None:
        """Fold another digest's samples into this one.

        Works across modes: exact + exact stays exact (promoting only if
        the combined count crosses the threshold), and any operand that
        is already a sketch forces the result to sketch mode.  Because
        promotion is canonical, every merge order over the same sample
        multiset reaches the same state.

        Raises:
            MeasurementError: when the operands' mode configuration
                (threshold or accuracy) differs — shards of one campaign
                always agree, so a mismatch means mixed configs.
        """
        if (
            other._exact_threshold != self._exact_threshold
            or other._relative_accuracy != self._relative_accuracy
            or other._max_buckets != self._max_buckets
        ):
            raise MeasurementError(
                "cannot merge digests with different sketch configuration "
                f"(threshold {other._exact_threshold} vs "
                f"{self._exact_threshold}, accuracy "
                f"{other._relative_accuracy!r} vs "
                f"{self._relative_accuracy!r}, max_buckets "
                f"{other._max_buckets} vs {self._max_buckets})"
            )
        if other._min is not None:
            if self._min is None or other._min < self._min:
                self._min = other._min
            assert other._max is not None
            if self._max is None or other._max > self._max:
                self._max = other._max
        if other._values is not None:
            if self._values is not None:
                self._values.extend(other._values)
                self._invalidate()
                self._maybe_promote()
            else:
                assert self._sketch is not None
                if len(other._values):
                    self._sketch.extend(
                        np.frombuffer(other._values, dtype=np.float64)
                    )
        else:
            assert other._sketch is not None
            if self._values is not None:
                self._promote()
            assert self._sketch is not None
            self._sketch.merge(other._sketch)

    def _invalidate(self) -> None:
        self._sorted = None
        self._sorted_array = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of samples (exact in both modes)."""
        if self._values is not None:
            return len(self._values)
        assert self._sketch is not None
        return self._sketch.count

    def percentile(self, q: float) -> float:
        """The q-th percentile of the samples.

        Exact mode interpolates linearly over the sorted samples; sketch
        mode answers within the sketch's relative error bound
        (:attr:`LatencySketch.relative_error_bound`).

        Raises:
            AnalysisError: if empty, or ``q`` outside [0, 100].
        """
        if self._values is None:
            assert self._sketch is not None
            return self._sketch.quantile(q)
        if not self._values:
            raise AnalysisError("empty digest has no percentiles")
        if len(self._values) < self._NUMPY_SORT_THRESHOLD:
            if self._sorted is None:
                self._sorted = sorted(self._values)
            return percentile(self._sorted, q)
        if not 0.0 <= q <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100], got {q}")
        if self._sorted_array is None:
            # np.frombuffer views the array's buffer; np.sort copies, so
            # the cached result is safe against later appends (which
            # invalidate it anyway).
            self._sorted_array = np.sort(
                np.frombuffer(self._values, dtype=np.float64)
            )
        ordered = self._sorted_array
        rank = (q / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return float(ordered[low])
        fraction = rank - low
        return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)

    def median(self) -> float:
        """Shorthand for the 50th percentile."""
        return self.percentile(50.0)

    def minimum(self) -> float:
        """Smallest sample — exact, O(1) (running minimum)."""
        if self._min is None:
            raise AnalysisError("empty digest has no minimum")
        return self._min

    def maximum(self) -> float:
        """Largest sample — exact, O(1) (running maximum)."""
        if self._max is None:
            raise AnalysisError("empty digest has no maximum")
        return self._max

    def values(self) -> Tuple[float, ...]:
        """All samples (copy) — the exact-mode API.

        Raises:
            MeasurementError: in sketch mode, which retains no samples.
        """
        if self._values is None:
            raise MeasurementError(
                "sketch-mode digest retains no raw samples; use "
                "percentile()/minimum()/maximum() or the sketch itself"
            )
        return tuple(self._values)

    def values_view(self) -> np.ndarray:
        """Zero-copy read-only numpy view over the samples (exact mode).

        The view aliases the digest's buffer: do not hold it across
        later appends.  Read-only consumers (export packing, dataset
        digests) use this instead of the tuple-copying :meth:`values`.

        Raises:
            MeasurementError: in sketch mode, which retains no samples.
        """
        if self._values is None:
            raise MeasurementError(
                "sketch-mode digest retains no raw samples; use "
                "percentile()/minimum()/maximum() or the sketch itself"
            )
        # A view of a read-only buffer is read-only itself, which is
        # cheaper than clearing the writeable flag on every call.
        return np.frombuffer(memoryview(self._values).toreadonly(), np.float64)


class GroupedDailyAggregates:
    """day → group → target → :class:`LatencyDigest`.

    The sinks store one instance, grouped by ECS group (client /24).
    Coarser groupings are derived from it rather than stored:
    :meth:`regrouped` folds each /24's cells into its group's cells, which
    is how the LDNS grouping (by resolver) is built.  The nested layout
    keeps per-group queries (``targets_for``) O(targets), which the
    predictor calls once per group per day.

    ``exact_threshold``/``relative_accuracy`` configure the two-mode
    behavior of every digest created here (see :class:`LatencyDigest`);
    the defaults keep everything exact.
    """

    def __init__(
        self,
        grouping: str,
        exact_threshold: Optional[int] = None,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if not grouping:
            raise MeasurementError("grouping label cannot be empty")
        self._grouping = grouping
        self._exact_threshold = exact_threshold
        self._relative_accuracy = relative_accuracy
        self._max_buckets = max_buckets
        self._days: Dict[int, Dict[str, Dict[str, LatencyDigest]]] = {}

    @property
    def grouping(self) -> str:
        """Label of the grouping dimension ('ecs' or 'ldns')."""
        return self._grouping

    @property
    def exact_threshold(self) -> Optional[int]:
        """Per-digest sample count beyond which sketches take over."""
        return self._exact_threshold

    @property
    def relative_accuracy(self) -> float:
        """Sketch accuracy configured for this sink's digests."""
        return self._relative_accuracy

    @property
    def max_buckets(self) -> int:
        """Per-sketch bucket cap configured for this sink's digests."""
        return self._max_buckets

    def _new_digest(self) -> LatencyDigest:
        # Config was validated when this sink was built, so skip the
        # constructor's re-validation: bulk sinks create one digest per
        # (day, group, target) and the constructor shows up at scale.
        digest = LatencyDigest.__new__(LatencyDigest)
        digest._values = array("d")
        digest._sorted = None
        digest._sorted_array = None
        digest._min = None
        digest._max = None
        digest._exact_threshold = self._exact_threshold
        digest._relative_accuracy = self._relative_accuracy
        digest._max_buckets = self._max_buckets
        digest._sketch = None
        return digest

    def observe(self, day: int, group: str, target_id: str, rtt_ms: float) -> None:
        """Add one measurement."""
        per_day = self._days.setdefault(day, {})
        per_group = per_day.get(group)
        if per_group is None:
            per_group = {}
            per_day[group] = per_group
        digest = per_group.get(target_id)
        if digest is None:
            digest = self._new_digest()
            per_group[target_id] = digest
        digest.add(rtt_ms)

    def observe_many(
        self,
        day: int,
        group: str,
        target_id: str,
        rtts_ms: Union[np.ndarray, Sequence[float]],
    ) -> None:
        """Add a batch of measurements for one (day, group, target).

        The bulk counterpart of :meth:`observe` — one dictionary walk and
        one :meth:`LatencyDigest.extend` per batch instead of per sample.
        """
        if len(rtts_ms) == 0:
            return
        per_day = self._days.setdefault(day, {})
        per_group = per_day.get(group)
        if per_group is None:
            per_group = {}
            per_day[group] = per_group
        digest = per_group.get(target_id)
        if digest is None:
            digest = self._new_digest()
            per_group[target_id] = digest
        digest.extend(rtts_ms)

    def observe_runs(
        self,
        day: int,
        entries: Sequence[Tuple[str, str, int, int, float, float]],
        values: np.ndarray,
    ) -> None:
        """Add many (group, target) runs sliced from one value array.

        The chunk-scale counterpart of :meth:`observe_many`: ``values``
        is one float64 array holding every run back to back, and each
        entry ``(group, target_id, start, stop, low, high)`` appends
        ``values[start:stop]`` — whose true extrema must be
        ``(low, high)`` — to that (day, group, target) digest.  One call
        per chunk replaces one :meth:`observe_many` per run; exact-mode
        digests append through a zero-copy byte view without re-entering
        :meth:`LatencyDigest.extend`, which is what keeps the matrix
        engine's sink cost per run at dictionary-walk level.
        """
        if not entries:
            return
        per_day = self._days.setdefault(day, {})
        contiguous = np.ascontiguousarray(values, dtype=np.float64)
        raw = memoryview(contiguous.tobytes())
        threshold = self._exact_threshold
        for group, target_id, start, stop, low, high in entries:
            per_group = per_day.get(group)
            if per_group is None:
                per_group = {}
                per_day[group] = per_group
            digest = per_group.get(target_id)
            if digest is None:
                digest = self._new_digest()
                per_group[target_id] = digest
            samples = digest._values
            if samples is None:
                # Sketch mode: the digest already promoted, so take the
                # normal extend path (it feeds the sketch directly).
                digest.extend(contiguous[start:stop], (low, high))
                continue
            if digest._min is None or low < digest._min:
                digest._min = low
            if digest._max is None or high > digest._max:
                digest._max = high
            samples.frombytes(raw[8 * start : 8 * stop])
            digest._sorted = None
            digest._sorted_array = None
            if threshold is not None and len(samples) > threshold:
                digest._promote()

    @property
    def days(self) -> Tuple[int, ...]:
        """Days with any data, ascending."""
        return tuple(sorted(self._days))

    def groups_on(self, day: int) -> Tuple[str, ...]:
        """Distinct group keys observed on a day."""
        return tuple(sorted(self._days.get(day, {})))

    def digest(self, day: int, group: str, target_id: str) -> Optional[LatencyDigest]:
        """The digest for one (day, group, target), or ``None``."""
        return self._days.get(day, {}).get(group, {}).get(target_id)

    def targets_for(self, day: int, group: str) -> Dict[str, LatencyDigest]:
        """target_id → digest for one group-day."""
        return dict(self._days.get(day, {}).get(group, {}))

    def iter_day(self, day: int) -> Iterator[Tuple[str, str, LatencyDigest]]:
        """Iterate (group, target, digest) triples for a day."""
        for group, per_group in self._days.get(day, {}).items():
            for target_id, digest in per_group.items():
                yield group, target_id, digest

    def exact_samples(self, day: int) -> np.ndarray:
        """Every exact-mode sample of one day as one float64 column, in
        :meth:`iter_day` order (one join over the cells' buffers)."""
        return np.frombuffer(
            b"".join(
                digest._values
                for per_group in self._days.get(day, {}).values()
                for digest in per_group.values()
                if digest._values is not None
            ),
            np.float64,
        )

    def sketch_stats(self) -> Tuple[int, int, int, int, int]:
        """Compression accounting: ``(exact_digests, sketch_digests,
        sketch_buckets, sketch_samples, resolution_halvings)`` across
        every digest held."""
        exact = sketched = buckets = samples = halvings = 0
        for per_day in self._days.values():
            for per_group in per_day.values():
                for digest in per_group.values():
                    if digest.is_exact:
                        exact += 1
                    else:
                        assert digest.sketch is not None
                        sketched += 1
                        buckets += digest.sketch.bucket_count
                        samples += digest.sketch.count
                        halvings += digest.sketch.compressions
        return exact, sketched, buckets, samples, halvings

    def merge(self, other: "GroupedDailyAggregates") -> "GroupedDailyAggregates":
        """Fold another instance's samples into this one (in place).

        Used to combine per-shard partial aggregates from a parallel
        campaign; digests are copied, never aliased, so the source stays
        independently usable.

        Raises:
            MeasurementError: if the grouping dimensions or sketch
                configurations differ.
        """
        if other._grouping != self._grouping:
            raise MeasurementError(
                f"cannot merge {other._grouping!r} aggregates into "
                f"{self._grouping!r} aggregates"
            )
        if (
            other._exact_threshold != self._exact_threshold
            or other._relative_accuracy != self._relative_accuracy
            or other._max_buckets != self._max_buckets
        ):
            raise MeasurementError(
                "cannot merge aggregates with different sketch "
                "configurations"
            )
        for day, per_day in other._days.items():
            for group, per_group in per_day.items():
                self._fold(day, group, per_group)
        return self

    def regrouped(
        self, grouping: str, group_of: Callable[[str], str]
    ) -> "GroupedDailyAggregates":
        """A new instance holding every cell under ``group_of(group)``.

        Each (day, group, target) cell folds into the (day,
        ``group_of(group)``, target) cell the way :meth:`merge` folds
        shards: exact cells concatenate, promoted cells merge
        canonically, so a derived cell promotes exactly when its merged
        count passes the threshold.  The result equals a sink that had
        observed every sample under the coarser key; digests are copied,
        never aliased.
        """
        result = GroupedDailyAggregates(
            grouping,
            exact_threshold=self._exact_threshold,
            relative_accuracy=self._relative_accuracy,
            max_buckets=self._max_buckets,
        )
        for day, per_day in self._days.items():
            for group, per_group in per_day.items():
                result._fold(day, group_of(group), per_group)
        return result

    def _fold(
        self, day: int, group: str, per_group: Dict[str, LatencyDigest]
    ) -> None:
        """Copy or merge one group-day's digests into (day, group)."""
        mine_group = self._days.setdefault(day, {}).setdefault(group, {})
        for target_id, digest in per_group.items():
            mine = mine_group.get(target_id)
            if mine is None:
                mine_group[target_id] = digest.copy()
            else:
                mine.merge(digest)


@dataclass(frozen=True)
class RequestDiffRow:
    """One beacon execution summarized for Fig 3."""

    client_index: int
    region_code: int
    anycast_rtt_ms: float
    best_unicast_rtt_ms: float
    day: int = 0

    @property
    def diff_ms(self) -> float:
        """Anycast minus best-of-measured-unicast latency."""
        return self.anycast_rtt_ms - self.best_unicast_rtt_ms


class RequestDiffLog:
    """Per-request anycast-vs-best-unicast differences.

    Exact mode (default) column-packs every row; region codes index into
    :attr:`region_names`, assigned on first use.  Bounded mode
    (``bounded=True``) keeps one :class:`LatencySketch` of the diff
    distribution per (day, region) instead — constant-size state per
    region-day, at the cost of per-row access (:meth:`rows`,
    :meth:`diffs`), which raise.  Fig 3 consumes the sketches through
    :meth:`diff_sketch`.
    """

    def __init__(
        self,
        bounded: bool = False,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        self._bounded = bounded
        self._relative_accuracy = relative_accuracy
        self._max_buckets = max_buckets
        self._client_index = array("i")
        self._region_code = array("b")
        self._anycast = array("f")
        self._best_unicast = array("f")
        self._day = array("i")
        self._region_names: List[str] = []
        self._region_codes: Dict[str, int] = {}
        #: bounded mode: (day, region_name) → sketch of the diffs
        self._sketches: Dict[Tuple[int, str], LatencySketch] = {}
        self._total = 0

    @property
    def is_bounded(self) -> bool:
        """Whether this log keeps sketches instead of rows."""
        return self._bounded

    @property
    def relative_accuracy(self) -> float:
        """Sketch accuracy of the bounded mode's diff sketches."""
        return self._relative_accuracy

    @property
    def max_buckets(self) -> int:
        """Per-sketch bucket cap of the bounded mode's diff sketches."""
        return self._max_buckets

    def region_code(self, region_name: str) -> int:
        """Stable small-int code for a region name."""
        code = self._region_codes.get(region_name)
        if code is None:
            code = len(self._region_names)
            if code > 127:
                raise MeasurementError("too many distinct regions")
            self._region_names.append(region_name)
            self._region_codes[region_name] = code
        return code

    @property
    def region_names(self) -> Tuple[str, ...]:
        """Known region names, by code (first-use order)."""
        return tuple(self._region_names)

    def _sketch_for(self, day: int, region_name: str) -> LatencySketch:
        self.region_code(region_name)  # keep the name registry in sync
        key = (day, region_name)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = LatencySketch(
                relative_accuracy=self._relative_accuracy,
                max_buckets=self._max_buckets,
            )
            self._sketches[key] = sketch
        return sketch

    def observe(
        self,
        day: int,
        client_index: int,
        region_name: str,
        anycast_rtt_ms: float,
        best_unicast_rtt_ms: float,
    ) -> None:
        """Record one beacon execution's summary."""
        if self._bounded:
            # Match the exact mode's float32 storage cast, so the two
            # modes sketch/retain the same diff values.
            diff = float(np.float32(anycast_rtt_ms)) - float(
                np.float32(best_unicast_rtt_ms)
            )
            self._sketch_for(day, region_name).add(diff)
            self._total += 1
            return
        self._day.append(day)
        self._client_index.append(client_index)
        self._region_code.append(self.region_code(region_name))
        self._anycast.append(anycast_rtt_ms)
        self._best_unicast.append(best_unicast_rtt_ms)

    def observe_columns(
        self,
        day: int,
        client_indices: np.ndarray,
        region_codes: np.ndarray,
        anycast_rtts_ms: np.ndarray,
        best_unicast_rtts_ms: np.ndarray,
    ) -> None:
        """Record one day's beacon summaries as columns.

        The batched engines' sink: rows may span many clients and
        regions (a matrix chunk) or repeat one client and region (a
        vectorized block).  ``region_codes`` must come from *this* log's
        :meth:`region_code` registry.  Exact mode packs the columns
        straight into the backing arrays (same float32 casts as the
        scalar :meth:`observe`, so the stored row multiset is
        identical); bounded mode fans the rows out to the per-(day,
        region) sketches.
        """
        n = int(anycast_rtts_ms.shape[0])
        if (
            best_unicast_rtts_ms.shape[0] != n
            or client_indices.shape[0] != n
            or region_codes.shape[0] != n
        ):
            raise MeasurementError(
                "column batches must have equal length"
            )
        if n == 0:
            return
        if self._bounded:
            anycast32 = np.ascontiguousarray(
                anycast_rtts_ms, dtype=np.float32
            ).astype(np.float64)
            best32 = np.ascontiguousarray(
                best_unicast_rtts_ms, dtype=np.float32
            ).astype(np.float64)
            diffs = anycast32 - best32
            for code in np.unique(region_codes):
                name = self._region_names[int(code)]
                self._sketch_for(day, name).extend(
                    diffs[region_codes == code]
                )
            self._total += n
            return
        self._day.frombytes(
            np.full(n, day, dtype=np.int32).tobytes()
        )
        self._client_index.frombytes(
            np.ascontiguousarray(client_indices, dtype=np.int32).tobytes()
        )
        self._region_code.frombytes(
            np.ascontiguousarray(region_codes, dtype=np.int8).tobytes()
        )
        self._anycast.frombytes(
            np.ascontiguousarray(anycast_rtts_ms, dtype=np.float32).tobytes()
        )
        self._best_unicast.frombytes(
            np.ascontiguousarray(
                best_unicast_rtts_ms, dtype=np.float32
            ).tobytes()
        )

    def __len__(self) -> int:
        return self._total if self._bounded else len(self._day)

    def diffs(self, region_name: Optional[str] = None) -> List[float]:
        """Anycast minus best-unicast per request, optionally one region.

        Raises:
            MeasurementError: in bounded mode, which retains no rows —
                use :meth:`diff_sketch` instead.
        """
        if self._bounded:
            raise MeasurementError(
                "bounded diff log retains no per-request rows; use "
                "diff_sketch() for the distribution"
            )
        if region_name is None:
            return [
                a - b for a, b in zip(self._anycast, self._best_unicast)
            ]
        if region_name not in self._region_codes:
            return []
        want = self._region_codes[region_name]
        return [
            a - b
            for a, b, code in zip(
                self._anycast, self._best_unicast, self._region_code
            )
            if code == want
        ]

    def diff_sketch(
        self, region_name: Optional[str] = None
    ) -> Optional[LatencySketch]:
        """The merged diff sketch for one region (or all, ``None``).

        Bounded mode only; merges the per-day sketches into a fresh
        sketch (cheap: bucket-count addition).  Returns ``None`` when no
        matching requests were recorded.

        Raises:
            MeasurementError: in exact mode, which has no sketches —
                use :meth:`diffs`.
        """
        if not self._bounded:
            raise MeasurementError(
                "exact diff log has no sketches; use diffs()"
            )
        merged: Optional[LatencySketch] = None
        for (_, region), sketch in self._sketches.items():
            if region_name is not None and region != region_name:
                continue
            if merged is None:
                merged = sketch.copy()
            else:
                merged.merge(sketch)
        return merged

    def day_region_sketches(
        self,
    ) -> Dict[Tuple[int, str], LatencySketch]:
        """The raw (day, region) → sketch map (bounded mode only)."""
        if not self._bounded:
            raise MeasurementError(
                "exact diff log has no sketches; use diffs()/rows()"
            )
        return dict(self._sketches)

    def rows(self) -> Iterator[RequestDiffRow]:
        """Iterate all rows (mostly for tests; analyses use columns).

        Raises:
            MeasurementError: in bounded mode, which retains no rows.
        """
        if self._bounded:
            raise MeasurementError(
                "bounded diff log retains no per-request rows"
            )
        for i in range(len(self._day)):
            yield RequestDiffRow(
                client_index=self._client_index[i],
                region_code=self._region_code[i],
                anycast_rtt_ms=self._anycast[i],
                best_unicast_rtt_ms=self._best_unicast[i],
                day=self._day[i],
            )

    def sketch_stats(self) -> Tuple[int, int, int, int]:
        """Bounded-mode accounting: ``(sketches, buckets, samples,
        resolution_halvings)``."""
        if not self._bounded:
            return (0, 0, 0, 0)
        return (
            len(self._sketches),
            sum(s.bucket_count for s in self._sketches.values()),
            sum(s.count for s in self._sketches.values()),
            sum(s.compressions for s in self._sketches.values()),
        )

    def merge(self, other: "RequestDiffLog") -> "RequestDiffLog":
        """Append another log's rows (or sketches) to this one (in place).

        Exact mode remaps region codes through region *names*, so logs
        whose regions were first observed in different orders (as happens
        with per-shard logs) merge correctly.  Bounded mode adds the
        per-(day, region) sketches — exact and order-insensitive.

        Raises:
            MeasurementError: when the operands' modes differ.
        """
        if other._bounded != self._bounded:
            raise MeasurementError(
                "cannot merge bounded and exact request-diff logs"
            )
        if self._bounded and (
            other._relative_accuracy != self._relative_accuracy
            or other._max_buckets != self._max_buckets
        ):
            raise MeasurementError(
                "cannot merge request-diff logs with different sketch "
                "configurations"
            )
        if self._bounded:
            for name in other._region_names:
                self.region_code(name)
            for (day, region), sketch in other._sketches.items():
                mine = self._sketches.get((day, region))
                if mine is None:
                    self._sketches[(day, region)] = sketch.copy()
                else:
                    mine.merge(sketch)
            self._total += other._total
            return self
        code_map = [
            self.region_code(name) for name in other._region_names
        ]
        self._day.extend(other._day)
        self._client_index.extend(other._client_index)
        self._region_code.extend(
            code_map[code] for code in other._region_code
        )
        self._anycast.extend(other._anycast)
        self._best_unicast.extend(other._best_unicast)
        return self
