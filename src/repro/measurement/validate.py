"""Schema-validated record ingestion with a quarantine side channel.

The paper's pipeline (§3.2) ingests JavaScript beacon timings from real
browsers, which means the raw streams carry client-side garbage:
negative durations from clock adjustments, absurd values from suspended
tabs, NaNs from torn uploads.  Bing's backend filtered these before any
Figure 2–7 analysis; this module is that filter for the simulated
pipeline.

Every record that crosses an ingestion boundary — a beacon fetch landing
in the backend, a passive-log count, a dataset parsed back off disk —
passes through a :class:`ValidationGate` holding one of three policies:

* ``strict``  — raise :class:`repro.errors.ValidationError` on the first
  invalid record (CI / debugging posture: dirty data is a bug);
* ``lenient`` — drop invalid records into the :class:`QuarantineLog`
  (production posture: keep serving, account for every loss);
* ``repair``  — clamp repairable records (negative → 0, absurd → the
  plausibility ceiling) and annotate them in the quarantine log;
  unrepairable records (NaN, truncation markers) still drop.

A dataset parsed back off disk always meets the strict policy
(:func:`validate_dataset`, called by the framed parse in
:mod:`repro.measurement.export`).

The gate is deliberately deterministic and order-free: whether a record
is admitted depends only on its value, never on neighbors or arrival
order, so a sharded campaign quarantines bit-identically to a serial
one.  The :class:`QuarantineLog` is mergeable the same way every other
sink in :mod:`repro.measurement` is — exact per-reason counts always,
with a bounded sample of offending records kept under a canonical total
order so capped logs merge order-insensitively.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError

#: Version of the record schema the validators enforce.  Bumps when the
#: set of validated fields or the plausibility envelope changes, so
#: exports carry which rules their records survived.
RECORD_SCHEMA_VERSION = 1

#: RTTs above this are physically implausible for a CDN fetch (the
#: paper's beacon timeout was far lower); they read as suspended-tab or
#: clock-step artifacts.
MAX_PLAUSIBLE_RTT_MS = 60_000.0

#: Bounded number of offending-record samples a quarantine log retains
#: (per-reason *counts* are always exact).
QUARANTINE_SAMPLE_CAP = 1000

#: float32 columns round the ceiling up slightly; compare float32 data
#: in its own precision so boundary-valid samples stay valid.
_MAX_PLAUSIBLE_RTT_MS_F32 = float(np.float32(60_000.0))

# Reason codes, the quarantine log's vocabulary.
REASON_NEGATIVE_RTT = "negative-rtt"
REASON_NON_FINITE_RTT = "non-finite-rtt"
REASON_ABSURD_RTT = "absurd-rtt"
REASON_TRUNCATED = "truncated-record"
REASON_NEGATIVE_COUNT = "negative-count"

#: The record fields the current schema validates, by record type.
RECORD_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "beacon": ("day", "client_key", "record_index", "rtt_ms"),
    "passive": ("day", "client_key", "frontend_id", "count"),
}


class ValidationPolicy(enum.Enum):
    """What an ingestion boundary does with an invalid record."""

    STRICT = "strict"
    LENIENT = "lenient"
    REPAIR = "repair"

    @classmethod
    def parse(cls, value: "ValidationPolicy | str") -> "ValidationPolicy":
        """Coerce a policy name (as the CLI provides) into a policy.

        Raises:
            ValidationError: on an unknown policy name.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValidationError(
                f"unknown validation policy {value!r}; expected one of: "
                f"{valid}",
                reason="bad-policy",
            ) from None


def classify_rtt(rtt_ms: float) -> Optional[Tuple[str, Optional[float]]]:
    """Classify one RTT sample against the record schema.

    Returns ``None`` for a valid sample, else ``(reason, repaired)``
    where ``repaired`` is the clamped value the ``repair`` policy would
    substitute — or ``None`` when the record is unrepairable (NaN,
    truncation marker) and must drop under every non-strict policy.
    """
    if rtt_ms != rtt_ms:  # NaN
        return (REASON_NON_FINITE_RTT, None)
    if rtt_ms == float("-inf"):
        # The dirty-data injector (and a torn upload) encode a cut-off
        # record as -inf: there is no value to clamp back to.
        return (REASON_TRUNCATED, None)
    if rtt_ms == float("inf"):
        return (REASON_NON_FINITE_RTT, None)
    if rtt_ms < 0.0:
        return (REASON_NEGATIVE_RTT, 0.0)
    if rtt_ms > MAX_PLAUSIBLE_RTT_MS:
        return (REASON_ABSURD_RTT, MAX_PLAUSIBLE_RTT_MS)
    return None


@dataclass(frozen=True)
class QuarantinedRecord:
    """One record rejected (or repaired) at an ingestion boundary.

    Attributes:
        day: Campaign day of the record.
        client_key: The /24 (or group key) the record belongs to; a
            boundary that has no finer identity uses the group label.
        record_index: Flat index of the record within its (day, client)
            block, or ``-1`` when the boundary has no per-record index
            (e.g. dataset-load validation).
        reason: Machine-readable reason code.
        value: The offending value, as observed.
        repaired: True when the ``repair`` policy clamped the record and
            kept it; False when it was dropped.
    """

    day: int
    client_key: str
    record_index: int
    reason: str
    value: float
    repaired: bool = False

    def sort_key(self) -> Tuple[int, str, int, str]:
        """The canonical total order capped sample sets are kept under."""
        return (self.day, self.client_key, self.record_index, self.reason)


class QuarantineLog:
    """Mergeable, reason-coded account of rejected and repaired records.

    Per-reason counts and the dropped/repaired totals are always exact;
    the retained :attr:`samples` are capped at
    :data:`QUARANTINE_SAMPLE_CAP`.  The cap keeps the *smallest* records
    under :meth:`QuarantinedRecord.sort_key`, which makes capping
    merge-order-insensitive: the global smallest-N of a union is always
    contained in the union of each part's smallest-N, so a merged capped
    log equals the capped log of a serial run bit-for-bit (and
    :meth:`digest` is therefore canonical).
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._dropped = 0
        self._repaired = 0
        self._samples: List[QuarantinedRecord] = []
        self._sorted = True

    # -- recording ------------------------------------------------------

    def record(
        self,
        day: int,
        client_key: str,
        record_index: int,
        reason: str,
        value: float,
        repaired: bool = False,
    ) -> None:
        """Account one rejected (or repaired) record."""
        self._counts[reason] = self._counts.get(reason, 0) + 1
        if repaired:
            self._repaired += 1
        else:
            self._dropped += 1
        self._samples.append(
            QuarantinedRecord(
                day=day,
                client_key=client_key,
                record_index=record_index,
                reason=reason,
                value=float(value),
                repaired=repaired,
            )
        )
        self._sorted = False
        if len(self._samples) >= 2 * QUARANTINE_SAMPLE_CAP:
            self._prune()

    def _prune(self) -> None:
        self._samples.sort(key=QuarantinedRecord.sort_key)
        del self._samples[QUARANTINE_SAMPLE_CAP:]
        self._sorted = True

    # -- queries --------------------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        """Exact per-reason counts (dropped and repaired together)."""
        return dict(self._counts)

    @property
    def total(self) -> int:
        """Total flagged records (dropped + repaired)."""
        return self._dropped + self._repaired

    @property
    def dropped(self) -> int:
        """Records removed from the data plane."""
        return self._dropped

    @property
    def repaired(self) -> int:
        """Records clamped by the ``repair`` policy but kept."""
        return self._repaired

    @property
    def samples(self) -> Tuple[QuarantinedRecord, ...]:
        """The retained sample records, canonically ordered and capped."""
        if not self._sorted or len(self._samples) > QUARANTINE_SAMPLE_CAP:
            self._prune()
        return tuple(self._samples)

    def summary(self) -> Dict[str, Any]:
        """The compact accounting block run manifests embed."""
        return {
            "record_schema_version": RECORD_SCHEMA_VERSION,
            "total": self.total,
            "dropped": self._dropped,
            "repaired": self._repaired,
            "reasons": dict(sorted(self._counts.items())),
        }

    # -- merge / serialization ------------------------------------------

    def merge(self, other: "QuarantineLog") -> "QuarantineLog":
        """Fold another (shard's) quarantine log into this one (in place)."""
        for reason, count in other._counts.items():
            self._counts[reason] = self._counts.get(reason, 0) + count
        self._dropped += other._dropped
        self._repaired += other._repaired
        self._samples.extend(other._samples)
        self._sorted = False
        if len(self._samples) > QUARANTINE_SAMPLE_CAP:
            self._prune()
        return self

    def digest(self) -> str:
        """Canonical SHA-256 over counts and the capped sample set.

        Order-insensitive: serial and shard-merged logs of the same run
        digest identically.
        """
        hasher = hashlib.sha256()
        hasher.update(repr(sorted(self._counts.items())).encode())
        hasher.update(repr((self._dropped, self._repaired)).encode())
        for sample in self.samples:
            hasher.update(
                repr(
                    (
                        sample.day,
                        sample.client_key,
                        sample.record_index,
                        sample.reason,
                        sample.value,
                        sample.repaired,
                    )
                ).encode()
            )
        return hasher.hexdigest()

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form (checkpoint manifests, ``--quarantine-out``)."""
        return {
            "record_schema_version": RECORD_SCHEMA_VERSION,
            "counts": dict(sorted(self._counts.items())),
            "dropped": self._dropped,
            "repaired": self._repaired,
            "sample_cap": QUARANTINE_SAMPLE_CAP,
            "samples": [
                {
                    "day": s.day,
                    "client_key": s.client_key,
                    "record_index": s.record_index,
                    "reason": s.reason,
                    # JSON has no NaN/inf; repr round-trips exactly.
                    "value": repr(s.value),
                    "repaired": s.repaired,
                }
                for s in self.samples
            ],
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "QuarantineLog":
        """Rebuild a log from :meth:`to_obj` output.

        Raises:
            ValidationError: on a malformed or wrong-version document.
        """
        version = obj.get("record_schema_version")
        if version != RECORD_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported quarantine record schema version {version!r}",
                reason="bad-schema-version",
            )
        log = cls()
        try:
            log._counts = {
                str(reason): int(count)
                for reason, count in obj["counts"].items()
            }
            log._dropped = int(obj["dropped"])
            log._repaired = int(obj["repaired"])
            log._samples = [
                QuarantinedRecord(
                    day=int(s["day"]),
                    client_key=str(s["client_key"]),
                    record_index=int(s["record_index"]),
                    reason=str(s["reason"]),
                    value=float(s["value"]),
                    repaired=bool(s["repaired"]),
                )
                for s in obj["samples"]
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(
                f"malformed quarantine log document ({error})",
                reason="bad-document",
            ) from error
        log._sorted = False
        return log


class ValidationGate:
    """One ingestion boundary's policy enforcement point.

    Both measurement engines, the passive log, and the dataset loaders
    funnel through instances of this class, so "what counts as a valid
    record" has exactly one definition.  Counters are plain integers
    (published to telemetry by the campaign's finalize phase) to keep
    the per-record fast path free of registry lookups.
    """

    def __init__(
        self,
        policy: "ValidationPolicy | str" = ValidationPolicy.LENIENT,
        quarantine: Optional[QuarantineLog] = None,
    ) -> None:
        self.policy = ValidationPolicy.parse(policy)
        self.quarantine = quarantine if quarantine is not None else QuarantineLog()
        self.records_total = 0
        self.dropped_total = 0
        self.repaired_total = 0

    def _reject(
        self,
        day: int,
        client_key: str,
        record_index: int,
        reason: str,
        value: float,
        repaired: Optional[float],
    ) -> Optional[float]:
        """Apply the policy to one classified-invalid record."""
        if self.policy is ValidationPolicy.STRICT:
            raise ValidationError(
                f"invalid record (day {day}, client {client_key}, "
                f"record {record_index}): {reason} (value {value!r})",
                reason=reason,
            )
        if self.policy is ValidationPolicy.REPAIR and repaired is not None:
            self.repaired_total += 1
            self.quarantine.record(
                day, client_key, record_index, reason, value, repaired=True
            )
            return repaired
        self.dropped_total += 1
        self.quarantine.record(
            day, client_key, record_index, reason, value, repaired=False
        )
        return None

    def admit(
        self, day: int, client_key: str, record_index: int, rtt_ms: float
    ) -> Optional[float]:
        """Validate one RTT record; the scalar (reference-engine) path.

        Returns the admitted value (possibly repaired), or ``None`` when
        the record was quarantined.

        Raises:
            ValidationError: under the ``strict`` policy.
        """
        self.records_total += 1
        # Fast path: the comparison chain is False for NaN, so every
        # invalid shape falls through to classification.
        if 0.0 <= rtt_ms <= MAX_PLAUSIBLE_RTT_MS:
            return rtt_ms
        verdict = classify_rtt(rtt_ms)
        assert verdict is not None
        reason, repaired = verdict
        return self._reject(
            day, client_key, record_index, reason, rtt_ms, repaired
        )

    def admit_matrix(
        self,
        day: int,
        client_key: str,
        rtts: np.ndarray,
        first_row: int,
    ) -> Optional[np.ndarray]:
        """Validate a ``(B, T)`` RTT block; the batched-engine path.

        ``rtts`` holds the client-day's beacon sessions ``first_row``
        to ``first_row + B - 1``, one fetch per column.  Returns ``None``
        when every cell is valid (the caller keeps its zero-copy fast
        path), else a boolean admit mask.  Under the ``repair`` policy,
        repairable cells are clamped *in place* and admitted.  Record
        indices are the day-level flat ``(first_row + b) * T + t``
        offsets, the same layout the reference engine counts fetches in,
        so every engine quarantines the same record coordinates however
        it splits a client-day into blocks.

        Raises:
            ValidationError: under the ``strict`` policy.
        """
        self.records_total += int(rtts.size)
        with np.errstate(invalid="ignore"):
            valid = (rtts >= 0.0) & (rtts <= MAX_PLAUSIBLE_RTT_MS)
        if valid.all():
            return None
        columns = rtts.shape[1]
        for row, col in np.argwhere(~valid):
            value = float(rtts[row, col])
            verdict = classify_rtt(value)
            assert verdict is not None
            reason, repaired = verdict
            admitted = self._reject(
                day,
                client_key,
                (first_row + int(row)) * columns + int(col),
                reason,
                value,
                repaired,
            )
            if admitted is not None:
                rtts[row, col] = admitted
                valid[row, col] = True
        return valid

    def admit_bulk_valid(self, rtts: np.ndarray) -> bool:
        """All-valid probe over an arbitrary RTT batch (matrix engine).

        Returns ``True`` — after counting every cell as checked — when
        the whole batch is valid, letting the caller skip per-block
        bookkeeping entirely.  Returns ``False`` *without counting
        anything* otherwise: the caller must then re-run each client's
        rows through :meth:`admit_matrix`, with their first beacon row,
        so quarantine coordinates and ``records_total`` land exactly
        where the per-client engines put them.
        """
        with np.errstate(invalid="ignore"):
            valid = (rtts >= 0.0) & (rtts <= MAX_PLAUSIBLE_RTT_MS)
        if valid.all():
            self.records_total += int(rtts.size)
            return True
        return False

    def admit_count(
        self, day: int, client_key: str, frontend_id: str, count: int
    ) -> Optional[int]:
        """Validate one passive-log query count (the passive boundary)."""
        self.records_total += 1
        if count >= 0:
            return count
        admitted = self._reject(
            day, client_key, -1, REASON_NEGATIVE_COUNT, float(count), 0.0
        )
        return None if admitted is None else int(admitted)


def _valid_day_records(block) -> Optional[int]:
    """One day's record count when all its samples are valid, else None.

    The day's exact samples are checked in one comparison over its
    block's column; promoted cells are checked on their extrema.
    """
    records = 0
    for sketch in block.sketches.values():
        if not sketch.count:
            continue
        if sketch.minimum() < 0.0 or sketch.maximum() > MAX_PLAUSIBLE_RTT_MS:
            return None
        records += sketch.count
    values = block.values
    with np.errstate(invalid="ignore"):
        if not ((values >= 0.0) & (values <= MAX_PLAUSIBLE_RTT_MS)).all():
            return None
    return records + int(values.size)


def validate_dataset(
    dataset,
    policy: "ValidationPolicy | str" = ValidationPolicy.LENIENT,
    quarantine: Optional[QuarantineLog] = None,
) -> Tuple[ValidationGate, int]:
    """Validate a dataset in place (the framed-parse load boundary).

    Scans every latency sample in the ECS aggregates (the LDNS grouping
    is a view of them) and every request-diff row for schema
    violations, applying the policy (strict raise / lenient drop /
    repair clamp).  Valid datasets — everything the campaign gates
    produce — pass untouched, so round-trips are exact; the scan
    exists for data that arrived from *outside* a gate:
    hand-edited exports, foreign files, bit rot that survived framing.
    Every framed parse (:func:`repro.measurement.export.load_dataset`
    without a fresh sidecar, and ``recover_dataset``) runs it under the
    strict policy.

    Returns ``(gate, removed)`` where ``removed`` is how many samples
    were dropped from the dataset.
    """
    gate = ValidationGate(policy, quarantine=quarantine)
    removed = 0
    aggregates = dataset.ecs_aggregates
    for day in aggregates.days:
        block = aggregates.block(day)
        records = _valid_day_records(block)
        if records is not None:
            gate.records_total += records
            continue
        # A day holding a bad sample goes cell by cell, which locates
        # each bad record and applies the policy to it.
        groups, targets = block.names()
        bounds = block.bounds.tolist()
        replacements: Dict[int, List[float]] = {}
        for cell, (group, target_id) in enumerate(zip(groups, targets)):
            sketch = block.sketches.get(cell)
            if sketch is not None:
                # Promoted cells retain no samples to rescan; the
                # campaign gates already validated them at ingest.
                # Bucket keys derive from admitted values, so a range
                # check on the retained extrema is the strongest test
                # still available.
                gate.records_total += sketch.count
                if sketch.count and (
                    sketch.minimum() < 0.0
                    or sketch.maximum() > MAX_PLAUSIBLE_RTT_MS
                ):
                    raise ValidationError(
                        "sketch-mode digest for "
                        f"({day}, {group!r}, {target_id!r}) holds "
                        "out-of-range samples that can no longer be "
                        "individually quarantined; re-run the "
                        "campaign with validation enabled"
                    )
                continue
            values = block.values[bounds[cell] : bounds[cell + 1]]
            gate.records_total += int(values.size)
            with np.errstate(invalid="ignore"):
                valid = (values >= 0.0) & (values <= MAX_PLAUSIBLE_RTT_MS)
            if valid.all():
                continue
            gate.records_total -= int(values.size)
            kept: List[float] = []
            for value in values.tolist():
                admitted = gate.admit(day, group, -1, value)
                if admitted is not None:
                    kept.append(admitted)
            removed += int(values.size) - len(kept)
            replacements[cell] = kept
        aggregates.replace_samples(day, replacements)
    diffs = dataset.request_diffs
    if diffs.is_bounded:
        # Bounded logs hold sketches of already-gated diffs, not rows.
        gate.records_total += len(diffs)
        if removed:
            dataset.measurement_count = max(
                0, dataset.measurement_count - removed
            )
        return gate, removed
    anycast = np.frombuffer(diffs._anycast, dtype=np.float32)
    best = np.frombuffer(diffs._best_unicast, dtype=np.float32)
    with np.errstate(invalid="ignore"):
        row_valid = (
            (anycast >= 0.0)
            & (anycast <= _MAX_PLAUSIBLE_RTT_MS_F32)
            & (best >= 0.0)
            & (best <= _MAX_PLAUSIBLE_RTT_MS_F32)
        )
    if row_valid.all():
        gate.records_total += int(anycast.size)
    else:
        # Release the frombuffer views: a Python array refuses to resize
        # while numpy still exports its buffer.
        del anycast, best
        for i in sorted(
            (int(i) for i in np.flatnonzero(~row_valid)), reverse=True
        ):
            day = int(diffs._day[i])
            client_key = str(diffs._client_index[i])
            kept_a = gate.admit(day, client_key, i, float(diffs._anycast[i]))
            kept_b = gate.admit(
                day, client_key, i, float(diffs._best_unicast[i])
            )
            if kept_a is not None and kept_b is not None:
                # Both halves survived (repair policy): keep the row.
                diffs._anycast[i] = kept_a
                diffs._best_unicast[i] = kept_b
                continue
            for col in (
                diffs._day,
                diffs._client_index,
                diffs._region_code,
                diffs._anycast,
                diffs._best_unicast,
            ):
                del col[i]
        gate.records_total += int(row_valid.sum())
    if removed:
        dataset.measurement_count = max(
            0, dataset.measurement_count - removed
        )
    return gate, removed
