"""The study dataset: everything a month of measurement produced.

Analyses (and the predictor) consume this container rather than raw logs,
mirroring how the paper's backend storage fed its analyses.

Datasets over the same calendar and client population are *mergeable*
(:meth:`StudyDataset.merge`, or the ``+`` operator): a sharded parallel
campaign produces one partial dataset per client shard and folds them
into the full dataset.  :meth:`StudyDataset.digest` gives a canonical,
order-insensitive fingerprint, so serial, parallel, and re-ordered runs
of the same scenario can be checked for bit-identical results.

Datasets also track *coverage*: which half-open client index ranges they
actually measured.  Merging overlapping coverage is rejected (a
duplicate shard merge would double-count), and a degraded campaign that
lost shards reports the gaps via :meth:`StudyDataset.missing_ranges` —
the "partial but trustworthy" contract of the resilient executor in
:mod:`repro.simulation.parallel`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.clients.population import ClientPrefix
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.canonical import (
    CanonicalHash,
    aggregate_day_parts,
    diff_row_parts,
)
from repro.measurement.logs import PassiveLog
from repro.simulation.clock import SimulationCalendar


def normalize_ranges(
    ranges: Tuple[Tuple[int, int], ...]
) -> Tuple[Tuple[int, int], ...]:
    """Sort half-open index ranges, drop empty ones, coalesce adjacent.

    The canonical form makes coverage bookkeeping order-insensitive: any
    sequence of disjoint shard merges reaching the same client set
    yields the same tuple.
    """
    spans = sorted((int(a), int(b)) for a, b in ranges if a < b)
    merged: List[Tuple[int, int]] = []
    for start, stop in spans:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return tuple(merged)


def ranges_overlap(
    a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...]
) -> bool:
    """Whether two normalized half-open range sets share any index."""
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][1] <= b[j][0]:
            i += 1
        elif b[j][1] <= a[i][0]:
            j += 1
        else:
            return True
    return False


@dataclass
class StudyDataset:
    """Aggregated outputs of a measurement campaign.

    Attributes:
        calendar: The days the campaign covered.
        clients: The client population measured.
        ecs_aggregates: day → (client /24, target) → latency digest;
            every joined measurement is stored here, once.
        ldns_aggregates: day → (LDNS id, target) → latency digest, a
            read-only view derived from ``ecs_aggregates`` and each
            client's resolver (see :attr:`ldns_aggregates`).
        request_diffs: Per-beacon anycast − best-unicast rows (Fig 3).
        passive: Production-traffic front-end counts (Figs 4, 7, 8).
        beacon_count: Total beacon executions.
        measurement_count: Total joined measurements.
        covered_ranges: Half-open client index ranges this dataset
            actually measured.  ``None`` (the default) means the whole
            population — the right reading for full runs, direct
            constructions, and datasets saved before coverage existed.
            Shard partials carry their slice; merging disjoint shards
            unions the ranges, and a degraded campaign that lost shards
            ends up with gaps (see :meth:`missing_ranges`).
        load_summary: JSON-clean summary of the campaign's load
            management (per-day utilization/shed series, per-front-end
            peaks, overload events) when the campaign ran with finite
            front-end capacity, else ``None``.  The schedule is global —
            every shard of one campaign carries an identical copy, so
            merging keeps whichever side has one.
    """

    calendar: SimulationCalendar
    clients: Tuple[ClientPrefix, ...]
    ecs_aggregates: GroupedDailyAggregates
    request_diffs: RequestDiffLog
    passive: PassiveLog
    beacon_count: int = 0
    measurement_count: int = 0
    covered_ranges: Optional[Tuple[Tuple[int, int], ...]] = None
    load_summary: Optional[Dict[str, object]] = None
    _index: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {
                client.key: i for i, client in enumerate(self.clients)
            }
        if self.covered_ranges is None:
            self.covered_ranges = (
                ((0, len(self.clients)),) if self.clients else ()
            )
        else:
            self.covered_ranges = normalize_ranges(
                tuple(self.covered_ranges)
            )

    def client_by_key(self, client_key: str) -> ClientPrefix:
        """Client record for a /24 key."""
        return self.clients[self._index[client_key]]

    def client_by_index(self, index: int) -> ClientPrefix:
        """Client record by packed index (as used in request_diffs)."""
        return self.clients[index]

    def volume_weight(self, client_key: str) -> float:
        """Query-volume weight of a /24 (its mean daily queries)."""
        return self.client_by_key(client_key).daily_queries

    def ldns_id_of(self, client_key: str) -> str:
        """The resolver behind a /24 (fixed for the whole campaign).

        Raises:
            MeasurementError: when the key has no client record.
        """
        index = self._index.get(client_key)
        if index is None:
            raise MeasurementError(
                f"no client record for ECS group {client_key!r}; cannot "
                "recover its LDNS id"
            )
        return self.clients[index].ldns_id

    @property
    def ldns_aggregates(self) -> GroupedDailyAggregates:
        """The ECS cells regrouped by each client's resolver (Fig 9).

        A /24's resolver never changes, so the LDNS grouping holds no
        measurement of its own: each read folds every (day, /24, target)
        cell into its resolver's cell, one gather per day block
        (:meth:`GroupedDailyAggregates.regrouped`).  Nothing is cached,
        so the view cannot go stale after :meth:`merge` or validation
        rewrites ECS cells; callers that read it repeatedly hold on to
        one view.

        Raises:
            MeasurementError: when an ECS group has no client record.
        """
        return self.ecs_aggregates.regrouped("ldns", self.ldns_id_of)

    # ------------------------------------------------------------------
    # Merging and fingerprinting
    # ------------------------------------------------------------------

    def merge(self, other: "StudyDataset") -> "StudyDataset":
        """Fold another dataset's measurements into this one (in place).

        Both datasets must cover the same calendar and client population,
        resolvers included (shards of one campaign do); only the
        *measurements* may differ.
        The operands' covered client ranges must be disjoint — merging
        the same shard twice would double-count every one of its
        measurements, so it is rejected rather than silently absorbed.

        Raises:
            MeasurementError: on mismatched calendars or populations, or
                overlapping covered client ranges (duplicate merge).
        """
        if (
            self.calendar.start != other.calendar.start
            or self.calendar.num_days != other.calendar.num_days
        ):
            raise MeasurementError(
                "cannot merge datasets over different calendars"
            )
        if len(self.clients) != len(other.clients) or any(
            a.key != b.key or a.ldns_id != b.ldns_id
            for a, b in zip(self.clients, other.clients)
        ):
            raise MeasurementError(
                "cannot merge datasets over different client populations"
            )
        assert self.covered_ranges is not None
        assert other.covered_ranges is not None
        if ranges_overlap(self.covered_ranges, other.covered_ranges):
            raise MeasurementError(
                "cannot merge datasets with overlapping client coverage "
                f"({self.covered_ranges} vs {other.covered_ranges}) — "
                "duplicate shard merge"
            )
        self.covered_ranges = normalize_ranges(
            self.covered_ranges + other.covered_ranges
        )
        self.ecs_aggregates.merge(other.ecs_aggregates)
        self.request_diffs.merge(other.request_diffs)
        self.passive.merge(other.passive)
        self.beacon_count += other.beacon_count
        self.measurement_count += other.measurement_count
        if self.load_summary is None:
            self.load_summary = other.load_summary
        return self

    def __add__(self, other: "StudyDataset") -> "StudyDataset":
        """A new dataset holding both operands' measurements."""
        result = StudyDataset(
            calendar=self.calendar,
            clients=self.clients,
            ecs_aggregates=GroupedDailyAggregates(
                self.ecs_aggregates.grouping,
                exact_threshold=self.ecs_aggregates.exact_threshold,
                relative_accuracy=self.ecs_aggregates.relative_accuracy,
                max_buckets=self.ecs_aggregates.max_buckets,
            ),
            request_diffs=RequestDiffLog(
                bounded=self.request_diffs.is_bounded,
                relative_accuracy=self.request_diffs.relative_accuracy,
                max_buckets=self.request_diffs.max_buckets,
            ),
            passive=PassiveLog(bounded=self.passive.is_bounded),
            covered_ranges=(),
        )
        result.merge(self)
        result.merge(other)
        return result

    # ------------------------------------------------------------------
    # Coverage and degradation
    # ------------------------------------------------------------------

    def missing_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Half-open client index ranges with no measurements.

        The complement of :attr:`covered_ranges` over the population —
        empty for a complete dataset, and exactly the lost shard slices
        for a degraded campaign that ran with ``allow_partial``.
        Analyses can use this to down-weight or annotate figures built
        from a partial dataset.
        """
        assert self.covered_ranges is not None
        gaps: List[Tuple[int, int]] = []
        cursor = 0
        for start, stop in self.covered_ranges:
            if cursor < start:
                gaps.append((cursor, start))
            cursor = max(cursor, stop)
        if cursor < len(self.clients):
            gaps.append((cursor, len(self.clients)))
        return tuple(gaps)

    @property
    def is_partial(self) -> bool:
        """Whether any client range is missing from this dataset."""
        return bool(self.missing_ranges())

    @property
    def coverage_fraction(self) -> float:
        """Fraction of the client population with measurements (0..1)."""
        if not self.clients:
            return 1.0
        assert self.covered_ranges is not None
        covered = sum(stop - start for start, stop in self.covered_ranges)
        return covered / len(self.clients)

    def digest(self) -> str:
        """Canonical SHA-256 fingerprint of the dataset's contents.

        The traversal is fully sorted and the within-digest sample order
        is canonicalized, so two datasets holding the same *multiset* of
        measurements — e.g. a serial run and a merged sharded run, whose
        shared-LDNS digests interleave samples differently — produce the
        same hex digest.  Floats hash by exact ``repr``; no tolerance.
        The LDNS plane is hashed from the :attr:`ldns_aggregates` view,
        so the stream is what it was when both planes were stored.

        The hash covers one stream of text parts, each followed by
        ``\\x1f`` (:mod:`repro.measurement.canonical` writes it in bulk):

        1. ``calendar``, start date, day count; ``clients``, client
           count, then every client key in population order.
        2. For the ECS then the LDNS aggregates: ``aggregates`` and the
           grouping, then per day, group and target (each ascending)
           ``day, group, target`` followed by the samples ascending
           (exact) or ``sketch`` and the sketch digest (promoted).
        3. ``request_diffs`` and the row count.  Bounded logs add
           ``diff-sketches`` and per (day, region) ascending ``day,
           region, sketch digest``; exact logs add per row ``day, client
           index, region name, anycast, best unicast``, rows sorted by
           (day, client index, anycast, best unicast).
        4. ``passive``; bounded logs add ``totals`` and per day and
           front end ``day, front end, count``; exact logs add per day,
           client and front end ``day, client, front end, count``.
        5. ``counts``, beacon count, measurement count; then only when
           present, ``missing`` with the gap count and each gap's
           ``start, stop``, and ``load`` with the load summary as
           key-sorted JSON.

        Wherever samples or RTTs sort, ``-0.0`` sorts before ``0.0``:
        the two compare equal, and without this tie rule their input
        order would reach the hash.  Datasets without ``-0.0`` hash as
        before the rule existed.
        """
        stream = CanonicalHash()
        put = stream.put
        put("calendar", self.calendar.start.isoformat(), self.calendar.num_days)
        put("clients", len(self.clients))
        stream.put_parts([client.key for client in self.clients])
        for aggregates in (self.ecs_aggregates, self.ldns_aggregates):
            put("aggregates", aggregates.grouping)
            for day in aggregates.days:
                stream.put_parts(aggregate_day_parts(aggregates, day))
        put("request_diffs", len(self.request_diffs))
        if self.request_diffs.is_bounded:
            put("diff-sketches")
            sketches = self.request_diffs.day_region_sketches()
            for (day, region) in sorted(sketches):
                put(day, region, sketches[(day, region)].digest())
        else:
            stream.put_parts(diff_row_parts(self.request_diffs))
        put("passive")
        if self.passive.is_bounded:
            put("totals")
            for day in self.passive.days:
                for frontend_id, count in sorted(
                    self.passive.day_totals(day).items()
                ):
                    put(day, frontend_id, count)
        else:
            stream.put_parts(
                [
                    str(part)
                    for day in self.passive.days
                    for client_key in sorted(self.passive.clients_on(day))
                    for frontend_id, count in sorted(
                        self.passive.frontends_for(day, client_key).items()
                    )
                    for part in (day, client_key, frontend_id, count)
                ]
            )
        put("counts", self.beacon_count, self.measurement_count)
        # Only a *partial* dataset hashes its coverage: complete datasets
        # keep their historical digests, while a degraded campaign can
        # never impersonate the full run it fell short of.
        missing = self.missing_ranges()
        if missing:
            put("missing", len(missing))
            for start, stop in missing:
                put(start, stop)
        # Same only-when-present rule as coverage: capacity-off datasets
        # keep their historical digests, capacity-on runs must agree on
        # the whole load timeline bit for bit.
        if self.load_summary is not None:
            put("load", json.dumps(self.load_summary, sort_keys=True))
        return stream.hexdigest()
