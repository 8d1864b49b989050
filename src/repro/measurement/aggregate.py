"""Streaming aggregation of beacon measurements.

A month-long campaign produces millions of joined measurements; holding
them as objects would dwarf memory.  Analyses only ever need (a) per-day
per-(group, target) latency distributions and (b) the per-request anycast
minus best-unicast difference (Fig 3).  These sinks accumulate exactly
that, as columns: :class:`GroupedDailyAggregates` keeps one
:class:`DayBlock` per day, one float64 sample column sliced per cell,
instead of one object per cell.

Two aggregation modes exist end to end:

* **exact** (the default, and the small-N oracle): every sample is
  retained, percentiles interpolate over the sorted samples, and
  dataset digests hash the raw values — bit-compatible with every
  export and digest this repo has ever produced.
* **sketch** (``exact_threshold`` set): a cell that grows past the
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

from array import array
from dataclasses import dataclass
from itertools import chain, groupby
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
from repro.measurement.canonical import (
    key_values,
    order_keys,
    segment_indices,
)
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
    LatencySketch,
)


def _bytes(values: np.ndarray) -> memoryview:
    """A numpy column's bytes without a copy (``array.frombytes`` takes
    only byte-format buffers)."""
    return memoryview(np.ascontiguousarray(values)).cast("B")


def _array(typecode: str, values: np.ndarray) -> array:
    """A Python ``array`` holding a copy of a numpy column."""
    out = array(typecode)
    out.frombytes(_bytes(values))
    return out


class DayBlock:
    """One day of per-(group, target) latency cells as columns.

    The native store of :class:`GroupedDailyAggregates`.  Cells keep the
    order the day first met them: groups by first appearance, each
    group's targets by first appearance under it (the order
    :meth:`GroupedDailyAggregates.iter_day` yields).  So a group's cells
    are contiguous: group ``j`` owns cells ``group_bounds[j]`` up to
    ``group_bounds[j + 1]``.  Cell ``i`` is target
    ``targets[target_codes[i]]``; its exact samples are
    ``values[bounds[i]:bounds[i + 1]]`` in arrival order, and a promoted
    cell has an empty slice and a :class:`LatencySketch` in ``sketches``.

    A block never changes once built: appending to its day reopens the
    day, and the next read seals a new block.  Derived columns (counts,
    extrema, the canonical sort and percentile tables) are computed
    once per block and cached.
    """

    __slots__ = (
        "groups",
        "group_bounds",
        "targets",
        "target_codes",
        "bounds",
        "values",
        "sketches",
        "_cache",
    )

    def __init__(
        self,
        groups: Sequence[str],
        group_bounds: np.ndarray,
        targets: Sequence[str],
        target_codes: np.ndarray,
        bounds: np.ndarray,
        values: np.ndarray,
        sketches: Dict[int, LatencySketch],
    ) -> None:
        self.groups = tuple(groups)
        self.group_bounds = np.asarray(group_bounds, dtype=np.int64)
        self.targets = tuple(targets)
        self.target_codes = np.asarray(target_codes, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.values.flags.writeable = False
        self.sketches = sketches
        self._cache: Dict[object, object] = {}

    @classmethod
    def of_cells(
        cls,
        groups: Sequence[str],
        sizes: Sequence[int],
        cell_targets: Sequence[str],
        bounds: np.ndarray,
        values: np.ndarray,
        sketches: Dict[int, LatencySketch],
    ) -> "DayBlock":
        """A block from its groups, each group's cell count, and every
        cell's target name (codes follow first appearance)."""
        codes: Dict[str, int] = {}
        target_codes = [codes.setdefault(t, len(codes)) for t in cell_targets]
        return cls(
            groups,
            np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            tuple(codes),
            target_codes,
            bounds,
            values,
            sketches,
        )

    @classmethod
    def of_rows(
        cls,
        groups: Sequence[str],
        targets: Sequence[str],
        bounds: np.ndarray,
        values: np.ndarray,
        sketches: Dict[int, LatencySketch],
    ) -> Optional["DayBlock"]:
        """A block from per-cell group and target names, or ``None``
        when the cells are not in block order (a group split by another
        group, or a (group, target) pair repeated)."""
        runs = [(group, len(list(cells))) for group, cells in groupby(groups)]
        distinct = [group for group, _ in runs]
        if len(set(distinct)) != len(distinct) or len(
            set(zip(groups, targets))
        ) != len(groups):
            return None
        sizes = [size for _, size in runs]
        return cls.of_cells(distinct, sizes, targets, bounds, values, sketches)

    def __len__(self) -> int:
        return len(self.target_codes)

    def _cached(self, key: object, build: Callable[[], object]) -> object:
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def cell_groups(self) -> np.ndarray:
        """The group index of every cell."""
        return self._cached(
            "cell_groups",
            lambda: np.repeat(
                np.arange(len(self.groups), dtype=np.int64),
                np.diff(self.group_bounds),
            ),
        )

    def names(self) -> Tuple[List[str], List[str]]:
        """Every cell's group and target name, as two lists."""

        def build() -> Tuple[List[str], List[str]]:
            groups, targets = self.groups, self.targets
            return (
                [groups[j] for j in self.cell_groups().tolist()],
                [targets[c] for c in self.target_codes.tolist()],
            )

        return self._cached("names", build)

    def name_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each group's and each target code's position when the names
        sort ascending."""

        def ranks(names: Tuple[str, ...]) -> np.ndarray:
            out = np.empty(len(names), dtype=np.int64)
            out[sorted(range(len(names)), key=names.__getitem__)] = np.arange(
                len(names), dtype=np.int64
            )
            return out

        return self._cached(
            "ranks", lambda: (ranks(self.groups), ranks(self.targets))
        )

    def target_code(self, target_id: str) -> int:
        """A target's code in this block, or -1 when no cell has it."""
        return self.targets.index(target_id) if target_id in self.targets else -1

    def find(self, group: str, target_id: str) -> Optional[int]:
        """The index of the (group, target) cell, or ``None``."""
        index = self._cached(
            "index", lambda: {key: i for i, key in enumerate(zip(*self.names()))}
        )
        return index.get((group, target_id))

    def group_cells(self, group: str) -> range:
        """The cell indices of one group (empty when it has none)."""
        index = self._cached(
            "group_index", lambda: {g: j for j, g in enumerate(self.groups)}
        )
        j = index.get(group)
        if j is None:
            return range(0)
        return range(int(self.group_bounds[j]), int(self.group_bounds[j + 1]))

    def counts(self) -> np.ndarray:
        """Every cell's sample count, promoted cells included."""

        def build() -> np.ndarray:
            counts = np.diff(self.bounds)
            for cell, sketch in self.sketches.items():
                counts[cell] = sketch.count
            return counts

        return self._cached("counts", build)

    def extrema(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every cell's (minimum, maximum); NaN for an empty cell."""

        def build() -> Tuple[np.ndarray, np.ndarray]:
            lows = np.full(len(self), np.nan)
            highs = np.full(len(self), np.nan)
            full = np.flatnonzero(np.diff(self.bounds))
            if full.size:
                starts = self.bounds[full]
                lows[full] = np.minimum.reduceat(self.values, starts)
                highs[full] = np.maximum.reduceat(self.values, starts)
            for cell, sketch in self.sketches.items():
                if sketch.count:
                    lows[cell] = sketch.minimum()
                    highs[cell] = sketch.maximum()
            return lows, highs

        return self._cached("extrema", build)

    def canonical_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """The block's one canonical sort: ``(distinct, ranks)``.

        ``distinct`` holds the samples' distinct canonical order keys
        (:func:`repro.measurement.canonical.order_keys`), ascending;
        ``ranks`` indexes each sample's key, sorted within each cell,
        cells in block order.
        """

        def build() -> Tuple[np.ndarray, np.ndarray]:
            distinct, ranks = np.unique(
                order_keys(self.values), return_inverse=True
            )
            offsets = np.repeat(
                np.arange(len(self), dtype=np.int64) * len(distinct),
                np.diff(self.bounds),
            )
            ranks = ranks.reshape(-1).astype(np.int64) + offsets
            ranks.sort()
            ranks -= offsets
            return distinct, ranks

        return self._cached("canonical", build)

    def percentiles(self, q: float) -> np.ndarray:
        """Every cell's ``q``-th percentile; NaN for an empty cell.

        Exact cells interpolate over their canonically sorted slice with
        :func:`repro.latency.sampling.percentile`'s arithmetic, so each
        entry is bit-identical to that function over the cell's samples;
        promoted cells ask their sketch.

        Raises:
            AnalysisError: if ``q`` is outside [0, 100].
        """
        if not 0.0 <= q <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100], got {q}")

        def build() -> np.ndarray:
            table = np.full(len(self), np.nan)
            sizes = np.diff(self.bounds)
            full = np.flatnonzero(sizes)
            if full.size:
                distinct, ranks = self.canonical_ranks()
                ordered = key_values(distinct)[ranks]
                starts = self.bounds[full]
                rank = (q / 100.0) * (sizes[full] - 1).astype(np.float64)
                low = np.floor(rank)
                high = np.ceil(rank)
                fraction = rank - low
                below = ordered[starts + low.astype(np.int64)]
                above = ordered[starts + high.astype(np.int64)]
                table[full] = np.where(
                    low == high,
                    below,
                    below * (1.0 - fraction) + above * fraction,
                )
            for cell, sketch in self.sketches.items():
                if sketch.count:
                    table[cell] = sketch.quantile(q)
            return table

        return self._cached(("percentile", float(q)), build)

    def regroup(self, group_names: Sequence[str]) -> "DayBlock":
        """This block with group ``j`` renamed ``group_names[j]`` and the
        cells that now share a (group, target) folded into one.

        Folded cells take the order a sink that observed every sample
        under the new names would give them, and each keeps its sources'
        samples in block order: one gather, no per-cell copies.  Exact
        cells only; promoted cells fold through
        :meth:`GroupedDailyAggregates.merge`'s path.
        """
        codes: Dict[str, int] = {}
        renamed = np.fromiter(
            (codes.setdefault(name, len(codes)) for name in group_names),
            np.int64,
            len(group_names),
        )
        width = max(len(self.targets), 1)
        pairs = renamed[self.cell_groups()] * width + self.target_codes
        unique, first, inverse = np.unique(
            pairs, return_index=True, return_inverse=True
        )
        # New group codes follow first appearance, so sorting by them
        # orders the groups; within one, targets follow first appearance.
        order = np.lexsort((first, unique // width))
        position = np.empty(len(unique), dtype=np.int64)
        position[order] = np.arange(len(unique), dtype=np.int64)
        destination = position[inverse.reshape(-1)]
        sizes = np.diff(self.bounds)
        moved = np.argsort(destination, kind="stable")
        values = self.values[segment_indices(self.bounds[:-1][moved], sizes[moved])]
        totals = np.bincount(
            destination, weights=sizes, minlength=len(unique)
        ).astype(np.int64)
        cell_groups = (unique // width)[order]
        return DayBlock(
            tuple(codes),
            np.concatenate(
                ([0], np.cumsum(np.bincount(cell_groups, minlength=len(codes))))
            ),
            self.targets,
            (unique % width)[order],
            np.concatenate(([0], np.cumsum(totals))),
            values,
            {},
        )

    def with_samples(self, replacements: Dict[int, Sequence[float]]) -> "DayBlock":
        """This block with some exact cells' samples replaced."""
        sizes = np.diff(self.bounds)
        pieces: List[np.ndarray] = []
        cursor = 0
        for cell in sorted(replacements):
            kept = np.asarray(replacements[cell], dtype=np.float64)
            pieces.append(self.values[cursor : self.bounds[cell]])
            pieces.append(kept)
            cursor = int(self.bounds[cell + 1])
            sizes[cell] = kept.size
        pieces.append(self.values[cursor:])
        return DayBlock(
            self.groups,
            self.group_bounds,
            self.targets,
            self.target_codes,
            np.concatenate(([0], np.cumsum(sizes))),
            np.concatenate(pieces),
            self.sketches,
        )


#: The block of a day without data.
_EMPTY_BLOCK = DayBlock((), [0], (), [], [0], np.empty(0), {})


class LatencyDigest:
    """A read-only view of one :class:`DayBlock` cell.

    :class:`GroupedDailyAggregates` hands these out
    (:meth:`~GroupedDailyAggregates.digest`,
    :meth:`~GroupedDailyAggregates.targets_for`,
    :meth:`~GroupedDailyAggregates.iter_day`); appends go through the
    aggregates' sinks.  Every answer reads the block's cached columns:
    ``count``, ``minimum`` and ``maximum`` are exact in both modes, and
    percentiles interpolate over the cell's canonically sorted samples
    (:meth:`DayBlock.percentiles`) or, for a promoted cell, answer
    within its sketch's relative error bound.
    """

    __slots__ = ("_block", "_cell")

    def __init__(self, block: DayBlock, cell: int) -> None:
        self._block = block
        self._cell = cell

    @property
    def is_exact(self) -> bool:
        """Whether the cell still retains its raw samples."""
        return self._cell not in self._block.sketches

    @property
    def sketch(self) -> Optional[LatencySketch]:
        """The cell's sketch once promoted (``None`` in exact mode)."""
        return self._block.sketches.get(self._cell)

    @property
    def count(self) -> int:
        """Number of samples (exact in both modes)."""
        return int(self._block.counts()[self._cell])

    def percentile(self, q: float) -> float:
        """The q-th percentile of the samples.

        Raises:
            AnalysisError: if empty, or ``q`` outside [0, 100].
        """
        if not self.count:
            raise AnalysisError("empty digest has no percentiles")
        return float(self._block.percentiles(q)[self._cell])

    def median(self) -> float:
        """Shorthand for the 50th percentile."""
        return self.percentile(50.0)

    def minimum(self) -> float:
        """Smallest sample (exact in both modes)."""
        if not self.count:
            raise AnalysisError("empty digest has no minimum")
        return float(self._block.extrema()[0][self._cell])

    def maximum(self) -> float:
        """Largest sample (exact in both modes)."""
        if not self.count:
            raise AnalysisError("empty digest has no maximum")
        return float(self._block.extrema()[1][self._cell])

    def values_view(self) -> np.ndarray:
        """Read-only numpy view over the cell's samples, in arrival order.

        Raises:
            MeasurementError: in sketch mode, which retains no samples.
        """
        if not self.is_exact:
            raise MeasurementError(
                "sketch-mode digest retains no raw samples; use "
                "percentile()/minimum()/maximum() or the sketch itself"
            )
        bounds = self._block.bounds
        return self._block.values[bounds[self._cell] : bounds[self._cell + 1]]

    def values(self) -> Tuple[float, ...]:
        """The cell's samples as a tuple, in arrival order.

        Raises:
            MeasurementError: in sketch mode, which retains no samples.
        """
        return tuple(self.values_view().tolist())


class _OpenDay:
    """One day's appends since its block was last sealed.

    ``cells`` maps group → target → cell id (ids count up from 0 in
    creation order, and the dicts' order is the day's cell order).
    Retained samples sit in one arrival-order column as runs of
    ``(cell id, start, length)``; a promoted cell's samples live in its
    sketch instead.
    """

    __slots__ = (
        "cells",
        "size",
        "run_cells",
        "run_starts",
        "run_lengths",
        "values",
        "counts",
        "sketches",
    )

    def __init__(self, sketch_mode: bool) -> None:
        self.cells: Dict[str, Dict[str, int]] = {}
        self.size = 0
        self.run_cells = array("q")
        self.run_starts = array("q")
        self.run_lengths = array("q")
        self.values = array("d")
        #: Retained samples per cell id; kept in sketch mode only.
        self.counts: Optional[List[int]] = [] if sketch_mode else None
        self.sketches: Dict[int, LatencySketch] = {}

    def cell(self, group: str, target_id: str) -> int:
        """The id of the (group, target) cell, created on first use."""
        per_group = self.cells.get(group)
        if per_group is None:
            per_group = self.cells[group] = {}
        cell = per_group.get(target_id)
        if cell is None:
            cell = per_group[target_id] = self.size
            self.size += 1
            if self.counts is not None:
                self.counts.append(0)
        return cell

    def load(self, block: DayBlock) -> None:
        """Reopen a sealed block: its cells, one run per exact cell, and
        copies of its sketches."""
        for cell, (group, target_id) in enumerate(zip(*block.names())):
            self.cells.setdefault(group, {})[target_id] = cell
        self.size = len(block)
        sizes = np.diff(block.bounds)
        full = np.flatnonzero(sizes)
        self.run_cells = _array("q", full)
        self.run_starts = _array("q", block.bounds[full])
        self.run_lengths = _array("q", sizes[full])
        self.values = _array("d", block.values)
        if self.counts is not None:
            self.counts = sizes.tolist()
        self.sketches = {
            cell: sketch.copy() for cell, sketch in block.sketches.items()
        }

    def push(self, cell: int, value: float) -> None:
        """Append one sample as a one-sample run."""
        self.run_cells.append(cell)
        self.run_starts.append(len(self.values))
        self.run_lengths.append(1)
        self.values.append(value)

    def append(
        self,
        cells: Sequence[int],
        starts: Sequence[int],
        stops: Sequence[int],
        column: np.ndarray,
    ) -> None:
        """Append the runs ``column[starts[i]:stops[i]]`` of ``cells[i]``."""
        first = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(stops, dtype=np.int64) - first
        base = len(self.values)
        self.values.frombytes(_bytes(column[segment_indices(first, lengths)]))
        self.run_cells.frombytes(_bytes(np.asarray(cells, dtype=np.int64)))
        self.run_starts.frombytes(_bytes(np.cumsum(lengths) - lengths + base))
        self.run_lengths.frombytes(_bytes(lengths))

    def take(self, cells: Sequence[int]) -> Dict[int, np.ndarray]:
        """Remove some cells' retained runs; returns each cell's samples
        in arrival order."""
        owners = np.frombuffer(self.run_cells, dtype=np.int64)
        starts = np.frombuffer(self.run_starts, dtype=np.int64)
        lengths = np.frombuffer(self.run_lengths, dtype=np.int64)
        values = np.frombuffer(self.values, dtype=np.float64)
        taken = np.isin(owners, cells)
        # The taken runs grouped by cell, arrival order kept within one.
        runs = np.flatnonzero(taken)
        runs = runs[np.argsort(owners[runs], kind="stable")]
        edges = np.searchsorted(owners[runs], np.sort(cells))
        ends = np.append(edges[1:], runs.size)
        out = {
            cell: values[segment_indices(starts[runs[a:b]], lengths[runs[a:b]])]
            for cell, a, b in zip(sorted(cells), edges.tolist(), ends.tolist())
        }
        if runs.size:
            keep = ~taken
            kept_lengths = lengths[keep]
            kept_values = values[segment_indices(starts[keep], kept_lengths)]
            kept_cells = owners[keep]
            del owners, starts, lengths, values
            self.run_cells = _array("q", kept_cells)
            self.run_starts = _array("q", np.cumsum(kept_lengths) - kept_lengths)
            self.run_lengths = _array("q", kept_lengths)
            self.values = _array("d", kept_values)
        return out

    def seal(self) -> DayBlock:
        """The day as a :class:`DayBlock`: runs move to their cells, and
        each cell keeps its samples in arrival order."""
        per_groups = self.cells.values()
        order = np.fromiter(
            chain.from_iterable(per.values() for per in per_groups),
            np.int64,
            self.size,
        )
        position = np.empty(self.size, dtype=np.int64)
        position[order] = np.arange(self.size, dtype=np.int64)
        owners = np.frombuffer(self.run_cells, dtype=np.int64)
        starts = np.frombuffer(self.run_starts, dtype=np.int64)
        lengths = np.frombuffer(self.run_lengths, dtype=np.int64)
        if self.sketches:
            keep = ~np.isin(owners, list(self.sketches))
            owners, starts, lengths = owners[keep], starts[keep], lengths[keep]
        where = position[owners]
        moved = np.argsort(where, kind="stable")
        values = np.frombuffer(self.values, dtype=np.float64)[
            segment_indices(starts[moved], lengths[moved])
        ]
        sizes = np.bincount(
            where, weights=lengths, minlength=self.size
        ).astype(np.int64)
        return DayBlock.of_cells(
            list(self.cells),
            [len(per) for per in per_groups],
            [target for per in per_groups for target in per],
            np.concatenate(([0], np.cumsum(sizes))),
            values,
            {
                int(position[cell]): sketch
                for cell, sketch in self.sketches.items()
            },
        )


class GroupedDailyAggregates:
    """day → (group, target) → latency samples, one :class:`DayBlock`
    per day.

    The sinks store one instance, grouped by ECS group (client /24).
    Coarser groupings are derived from it rather than stored:
    :meth:`regrouped` folds each /24's cells into its group's cells, which
    is how the LDNS grouping (by resolver) is built.

    The sinks (:meth:`observe`, :meth:`observe_many`,
    :meth:`observe_runs`) append runs to a day's pending column; the
    first read of the day seals them into its block once, each cell
    keeping its samples in arrival order.  Readers take the block
    (:meth:`block`) and work on its columns; :meth:`digest`,
    :meth:`targets_for` and :meth:`iter_day` build read-only
    :class:`LatencyDigest` views of its cells on demand.

    ``exact_threshold``/``relative_accuracy`` configure the two-mode
    behavior of every cell (see the module docstring): a cell whose
    retained count passes the threshold promotes into a sketch when the
    append happens, so sketch-mode memory stays bounded.  The defaults
    keep everything exact.  This class is the only code that appends
    to, promotes or merges a cell.
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
        self._blocks: Dict[int, DayBlock] = {}
        self._open: Dict[int, _OpenDay] = {}

    @property
    def grouping(self) -> str:
        """Label of the grouping dimension ('ecs' or 'ldns')."""
        return self._grouping

    @property
    def exact_threshold(self) -> Optional[int]:
        """Per-cell sample count beyond which sketches take over."""
        return self._exact_threshold

    @property
    def relative_accuracy(self) -> float:
        """Sketch accuracy configured for this sink's cells."""
        return self._relative_accuracy

    @property
    def max_buckets(self) -> int:
        """Per-sketch bucket cap configured for this sink's cells."""
        return self._max_buckets

    def _new_sketch(self) -> LatencySketch:
        return LatencySketch(
            relative_accuracy=self._relative_accuracy,
            max_buckets=self._max_buckets,
        )

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def _reopen(self, day: int) -> _OpenDay:
        open_day = _OpenDay(self._exact_threshold is not None)
        block = self._blocks.pop(day, None)
        if block is not None:
            open_day.load(block)
        self._open[day] = open_day
        return open_day

    def observe(self, day: int, group: str, target_id: str, rtt_ms: float) -> None:
        """Add one measurement."""
        open_day = self._open.get(day) or self._reopen(day)
        cell = open_day.cell(group, target_id)
        value = float(rtt_ms)
        sketch = open_day.sketches.get(cell)
        if sketch is not None:
            sketch.add(value)
            return
        open_day.push(cell, value)
        counts = open_day.counts
        if counts is not None:
            counts[cell] += 1
            if counts[cell] > self._exact_threshold:
                self._promote(open_day, [cell])

    def observe_many(
        self,
        day: int,
        group: str,
        target_id: str,
        rtts_ms: Union[np.ndarray, Sequence[float]],
    ) -> None:
        """Add a batch of measurements for one (day, group, target)."""
        if len(rtts_ms) == 0:
            return
        if isinstance(rtts_ms, np.ndarray):
            batch = np.ascontiguousarray(rtts_ms, dtype=np.float64).reshape(-1)
        else:
            batch = np.asarray(tuple(rtts_ms), dtype=np.float64)
        open_day = self._open.get(day) or self._reopen(day)
        self._append(
            open_day, [open_day.cell(group, target_id)], [0], [batch.size], batch
        )

    def observe_runs(
        self,
        day: int,
        entries: Sequence[Tuple[str, str, int, int]],
        values: np.ndarray,
    ) -> None:
        """Add many (group, target) runs sliced from one value array.

        The chunk-scale counterpart of :meth:`observe_many`: ``values``
        is one float64 array holding every run back to back, and each
        entry ``(group, target_id, start, stop)`` appends
        ``values[start:stop]`` to that (day, group, target) cell.  In
        exact mode the runs join the day's pending column in one gather,
        so a run costs one cell lookup.
        """
        if not entries:
            return
        open_day = self._open.get(day) or self._reopen(day)
        groups, targets, starts, stops = zip(*entries)
        self._append(
            open_day,
            list(map(open_day.cell, groups, targets)),
            starts,
            stops,
            np.ascontiguousarray(values, dtype=np.float64),
        )

    def _append(
        self,
        open_day: _OpenDay,
        cells: Sequence[int],
        starts: Sequence[int],
        stops: Sequence[int],
        column: np.ndarray,
    ) -> None:
        """Append ``column[starts[i]:stops[i]]`` to cell ``cells[i]``, run
        by run: a run for a promoted cell feeds its sketch, and a cell
        whose retained count passes the threshold promotes after the run
        that crossed it (later runs feed the new sketch)."""
        if open_day.counts is None and not open_day.sketches:
            open_day.append(cells, starts, stops, column)
            return
        threshold = self._exact_threshold
        sketches = open_day.sketches
        counts = open_day.counts
        kept: List[Tuple[int, int, int]] = []
        crossed: Dict[int, List[Tuple[int, int]]] = {}
        for cell, start, stop in zip(cells, starts, stops):
            sketch = sketches.get(cell)
            if sketch is not None:
                sketch.extend(column[start:stop])
                continue
            late = crossed.get(cell)
            if late is not None:
                late.append((start, stop))
                continue
            kept.append((cell, start, stop))
            if counts is not None:
                counts[cell] += stop - start
                if counts[cell] > threshold:
                    crossed[cell] = []
        if crossed:
            # A crossing cell's runs of this call go straight into its
            # sketch, after the samples it retained before.
            fresh: Dict[int, List[np.ndarray]] = {cell: [] for cell in crossed}
            for cell, start, stop in kept:
                if cell in crossed:
                    fresh[cell].append(column[start:stop])
            kept = [run for run in kept if run[0] not in crossed]
            self._promote(open_day, list(crossed), fresh)
            for cell, late in crossed.items():
                for start, stop in late:
                    sketches[cell].extend(column[start:stop])
        if kept:
            open_day.append(*zip(*kept), column)

    def _promote(
        self,
        open_day: _OpenDay,
        cells: Sequence[int],
        fresh: Optional[Dict[int, List[np.ndarray]]] = None,
    ) -> None:
        """Move each cell's retained samples, then its ``fresh`` ones,
        into a new sketch (canonical: the result depends only on the
        sample multiset)."""
        for cell, samples in open_day.take(cells).items():
            if fresh is not None and fresh[cell]:
                samples = np.concatenate([samples, *fresh[cell]])
            sketch = self._new_sketch()
            if samples.size:
                sketch.extend(samples)
            open_day.sketches[cell] = sketch

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def block(self, day: int) -> DayBlock:
        """The sealed column block of one day (empty without data)."""
        open_day = self._open.pop(day, None)
        if open_day is not None:
            self._blocks[day] = open_day.seal()
        return self._blocks.get(day, _EMPTY_BLOCK)

    def add_block(self, day: int, block: DayBlock) -> None:
        """Add a block's cells to ``day``.

        The block becomes the day's store as it is when the day is empty
        and no exact cell passes the threshold; otherwise its cells fold
        in the way :meth:`merge` folds a shard's.
        """
        if not len(block):
            return
        threshold = self._exact_threshold
        if (
            day in self._blocks
            or day in self._open
            or (
                threshold is not None
                and bool((np.diff(block.bounds) > threshold).any())
            )
        ):
            self._fold(day, *block.names(), block.bounds, block.values, block.sketches)
        else:
            self._blocks[day] = block

    def add_cells(
        self,
        day: int,
        groups: Sequence[str],
        targets: Sequence[str],
        bounds: np.ndarray,
        values: np.ndarray,
        sketches: Dict[int, LatencySketch],
    ) -> None:
        """Add cells given row by row (a decoded export day, say): cell
        ``i`` is ``(groups[i], targets[i])`` with exact samples
        ``values[bounds[i]:bounds[i + 1]]``, or the sketch
        ``sketches[i]``.  Rows in block order become a block as they
        are; others fold one by one."""
        block = DayBlock.of_rows(groups, targets, bounds, values, sketches)
        if block is None:
            self._fold(day, groups, targets, bounds, values, sketches)
        else:
            self.add_block(day, block)

    @property
    def days(self) -> Tuple[int, ...]:
        """Days with any data, ascending."""
        return tuple(sorted(self._blocks.keys() | self._open.keys()))

    def groups_on(self, day: int) -> Tuple[str, ...]:
        """Distinct group keys observed on a day."""
        return tuple(sorted(self.block(day).groups))

    def digest(self, day: int, group: str, target_id: str) -> Optional[LatencyDigest]:
        """A read-only view of one (day, group, target) cell, or ``None``."""
        block = self.block(day)
        cell = block.find(group, target_id)
        return None if cell is None else LatencyDigest(block, cell)

    def targets_for(self, day: int, group: str) -> Dict[str, LatencyDigest]:
        """target_id → read-only digest view for one group-day."""
        block = self.block(day)
        return {
            block.targets[block.target_codes[cell]]: LatencyDigest(block, cell)
            for cell in block.group_cells(group)
        }

    def iter_day(self, day: int) -> Iterator[Tuple[str, str, LatencyDigest]]:
        """Iterate (group, target, read-only digest view) for a day."""
        block = self.block(day)
        for cell, (group, target_id) in enumerate(zip(*block.names())):
            yield group, target_id, LatencyDigest(block, cell)

    def sketch_stats(self) -> Tuple[int, int, int, int, int]:
        """Compression accounting: ``(exact_digests, sketch_digests,
        sketch_buckets, sketch_samples, resolution_halvings)`` across
        every cell held."""
        exact = sketched = buckets = samples = halvings = 0
        for day in self.days:
            block = self.block(day)
            exact += len(block) - len(block.sketches)
            sketched += len(block.sketches)
            for sketch in block.sketches.values():
                buckets += sketch.bucket_count
                samples += sketch.count
                halvings += sketch.compressions
        return exact, sketched, buckets, samples, halvings

    # ------------------------------------------------------------------
    # Rewrites, merges and regroupings
    # ------------------------------------------------------------------

    def replace_samples(
        self, day: int, replacements: Dict[int, Sequence[float]]
    ) -> None:
        """Replace the samples of some exact cells of one day (cells by
        block index; the lenient validation's rewrite)."""
        self._blocks[day] = self.block(day).with_samples(replacements)

    def merge(self, other: "GroupedDailyAggregates") -> "GroupedDailyAggregates":
        """Fold another instance's samples into this one (in place).

        Used to combine per-shard partial aggregates from a parallel
        campaign.  A day only the other side holds takes its block as
        is (blocks never change, so nothing is aliased); a day both hold
        folds cell by cell: exact samples append after this side's,
        promoted cells merge canonically.

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
        for day in other.days:
            self.add_block(day, other.block(day))
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
        observed every sample under the coarser key.  In exact mode a
        day is one gather over its block (:meth:`DayBlock.regroup`).
        """
        result = GroupedDailyAggregates(
            grouping,
            exact_threshold=self._exact_threshold,
            relative_accuracy=self._relative_accuracy,
            max_buckets=self._max_buckets,
        )
        for day in self.days:
            block = self.block(day)
            names = [group_of(group) for group in block.groups]
            if self._exact_threshold is None and not block.sketches:
                result._blocks[day] = block.regroup(names)
                continue
            rename = dict(zip(block.groups, names))
            groups, targets = block.names()
            result._fold(
                day,
                [rename[group] for group in groups],
                targets,
                block.bounds,
                block.values,
                block.sketches,
            )
        return result

    def _fold(
        self,
        day: int,
        groups: Sequence[str],
        targets: Sequence[str],
        bounds: np.ndarray,
        values: np.ndarray,
        sketches: Dict[int, LatencySketch],
    ) -> None:
        """Append cells given row by row (see :meth:`add_cells`) to
        ``day``, cell by cell in row order."""
        open_day = self._open.get(day) or self._reopen(day)
        cell = open_day.cell
        cells = [cell(group, target) for group, target in zip(groups, targets)]
        edges = np.asarray(bounds, dtype=np.int64).tolist()
        self._append(open_day, cells, edges[:-1], edges[1:], values)
        # A promoted cell merges into the sketch of its target cell, which
        # first promotes if it still retains samples.
        merges = [(cells[index], sketch) for index, sketch in sorted(sketches.items())]
        counts = open_day.counts
        retaining = [
            cell
            for cell in dict.fromkeys(cell for cell, _ in merges)
            if cell not in open_day.sketches and (counts is None or counts[cell])
        ]
        if retaining:
            self._promote(open_day, retaining)
        for cell, sketch in merges:
            mine = open_day.sketches.get(cell)
            if mine is None:
                open_day.sketches[cell] = sketch.copy()
            else:
                mine.merge(sketch)


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
