"""Perf-history ledger: per-run records and a regression gate.

``BENCH_*.json`` trajectory stayed empty for six PRs because nothing
recorded history.  This module closes the loop: every instrumented run
can append a :class:`PerfRecord` (engine, beacons/s, phase splits, peak
RSS, dataset digest) to a ``BENCH_history.json`` ledger, and
``tools/bench_history.py`` compares the newest record per group against
a rolling baseline, failing CI on >20% regressions once enough history
exists to compare.

Records group by ``(label, engine, host fingerprint, config hash)`` —
comparing a 2-core CI runner against a 32-core laptop, or a 3-day bench
against a 1-day smoke, would only produce noise.  Groups with fewer
than two records pass the check with a note, which is exactly the
"non-blocking until two records exist" CI semantics the gate wants.

Stdlib only: the ledger uses its own temp-file + ``os.replace`` atomic
write rather than :mod:`repro.measurement.storage` to keep
``repro.telemetry`` import-light and cycle-free.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bump when the ledger layout changes incompatibly.
HISTORY_FORMAT_VERSION = 1

#: Default ledger filename, mirroring the BENCH_* convention.
DEFAULT_HISTORY_NAME = "BENCH_history.json"

#: Phase deltas smaller than this are noise, not regressions.
DEFAULT_NOISE_FLOOR_SECONDS = 0.05

#: Relative slowdown that fails the gate (rate drop or phase growth).
DEFAULT_THRESHOLD = 0.20

#: How many prior records form the rolling baseline.
DEFAULT_BASELINE_WINDOW = 5


def host_fingerprint() -> str:
    """A coarse host identity so baselines never cross machines."""
    return (
        f"{platform.system()}-{platform.machine()}-cpu{os.cpu_count() or 0}"
    )


@dataclass(frozen=True)
class PerfRecord:
    """One run's performance summary, as appended to the ledger."""

    label: str
    engine: str
    host: str
    config_hash: str
    recorded_at: str
    wall_seconds: float
    beacons_per_second: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    peak_rss_bytes: int = 0
    dataset_digest: Optional[str] = None

    def group_key(self) -> Tuple[str, str, str, str]:
        """Records compare only within the same group."""
        return (self.label, self.engine, self.host, self.config_hash)

    def to_obj(self) -> Dict[str, Any]:
        """A JSON-compatible document for this record."""
        obj: Dict[str, Any] = {
            "label": self.label,
            "engine": self.engine,
            "host": self.host,
            "config_hash": self.config_hash,
            "recorded_at": self.recorded_at,
            "wall_seconds": self.wall_seconds,
            "beacons_per_second": self.beacons_per_second,
            "phase_seconds": dict(self.phase_seconds),
            "peak_rss_bytes": self.peak_rss_bytes,
        }
        if self.dataset_digest is not None:
            obj["dataset_digest"] = self.dataset_digest
        return obj

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "PerfRecord":
        """Rebuild a record from :meth:`to_obj` output."""
        return cls(
            label=str(obj["label"]),
            engine=str(obj["engine"]),
            host=str(obj["host"]),
            config_hash=str(obj["config_hash"]),
            recorded_at=str(obj["recorded_at"]),
            wall_seconds=float(obj["wall_seconds"]),
            beacons_per_second=float(obj["beacons_per_second"]),
            phase_seconds={
                str(k): float(v)
                for k, v in dict(obj.get("phase_seconds", {})).items()
            },
            peak_rss_bytes=int(obj.get("peak_rss_bytes", 0)),
            dataset_digest=obj.get("dataset_digest"),
        )


def utc_timestamp() -> str:
    """ISO-8601 UTC timestamp for :attr:`PerfRecord.recorded_at`."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def record_from_snapshot(
    snapshot: Any,
    label: str,
    *,
    engine: Optional[str] = None,
    config_hash: Optional[str] = None,
    dataset: Any = None,
    wall_seconds: Optional[float] = None,
    recorded_at: Optional[str] = None,
) -> PerfRecord:
    """Build a :class:`PerfRecord` from a :class:`TelemetrySnapshot`.

    Wall time comes from the ``campaign.wall_seconds`` gauge (or the
    explicit override), throughput from ``campaign.beacons_total`` over
    that wall time, phase splits from every span path, and peak RSS
    from the ``campaign.peak_rss_bytes`` gauge.
    """
    gauges = snapshot.gauges
    if wall_seconds is None:
        wall_entry = gauges.get("campaign.wall_seconds")
        wall_seconds = float(wall_entry["value"]) if wall_entry else 0.0
    beacons = snapshot.counters.get("campaign.beacons_total", 0)
    rate = beacons / wall_seconds if wall_seconds > 0 else 0.0
    rss_entry = gauges.get("campaign.peak_rss_bytes")
    peak_rss = int(rss_entry["value"]) if rss_entry else 0
    phase_seconds = {
        path: float(record.seconds)
        for path, record in sorted(snapshot.spans.items())
    }
    return PerfRecord(
        label=label,
        engine=engine or snapshot.context.get("engine", "unknown"),
        host=host_fingerprint(),
        config_hash=(
            config_hash
            or snapshot.context.get("config_hash", "unknown")
        ),
        recorded_at=recorded_at or utc_timestamp(),
        wall_seconds=wall_seconds,
        beacons_per_second=rate,
        phase_seconds=phase_seconds,
        peak_rss_bytes=peak_rss,
        dataset_digest=dataset.digest() if dataset is not None else None,
    )


class BenchHistory:
    """The append-only ledger behind ``BENCH_history.json``."""

    def __init__(self, records: Optional[List[PerfRecord]] = None) -> None:
        self.records: List[PerfRecord] = list(records or [])

    @classmethod
    def load(cls, path: str) -> "BenchHistory":
        """Load a ledger; a missing file is an empty ledger."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except FileNotFoundError:
            return cls()
        version = obj.get("format_version")
        if version != HISTORY_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported history format_version {version!r}"
            )
        return cls(
            [PerfRecord.from_obj(item) for item in obj.get("records", [])]
        )

    def append(self, record: PerfRecord) -> None:
        """Add one record to the end of the ledger."""
        self.records.append(record)

    def extend(self, records: Sequence[PerfRecord]) -> None:
        """Add records to the end of the ledger, in order."""
        self.records.extend(records)

    def to_obj(self) -> Dict[str, Any]:
        """The ledger's JSON document form."""
        return {
            "format_version": HISTORY_FORMAT_VERSION,
            "records": [record.to_obj() for record in self.records],
        }

    def save(self, path: str) -> None:
        """Atomic write (temp file + ``os.replace``)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".bench-history-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_obj(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def groups(self) -> Dict[Tuple[str, str, str, str], List[PerfRecord]]:
        """Records partitioned by group key, ledger order preserved."""
        grouped: Dict[Tuple[str, str, str, str], List[PerfRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.group_key(), []).append(record)
        return grouped


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of checking one record against its baseline."""

    record: PerfRecord
    baseline_size: int
    failures: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no regression was detected."""
        return not self.failures

    @property
    def comparable(self) -> bool:
        """True when a baseline existed to compare against."""
        return self.baseline_size > 0


def compare_records(
    record: PerfRecord,
    baseline: Sequence[PerfRecord],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor_seconds: float = DEFAULT_NOISE_FLOOR_SECONDS,
) -> ComparisonResult:
    """Compare one record against its baseline median.

    Fails when throughput drops below ``(1 - threshold)`` of the
    baseline median, or a phase grows past ``(1 + threshold)`` of its
    baseline median *and* the absolute delta clears the noise floor
    (sub-50ms phases jitter too much on shared CI runners to gate on).
    Also fails when the record's dataset digest differs from a baseline
    record's (records without a digest are not compared): a group runs
    one configuration, so a faster run over changed data is no speedup.
    """
    if not baseline:
        return ComparisonResult(
            record=record,
            baseline_size=0,
            notes=("no baseline yet; gate is advisory for this group",),
        )
    failures: List[str] = []
    notes: List[str] = []

    changed = sorted(
        {item.dataset_digest for item in baseline}
        - {None, record.dataset_digest}
    )
    if record.dataset_digest is not None and changed:
        failures.append(
            f"dataset digest changed: {record.dataset_digest[:16]} vs "
            f"baseline {', '.join(digest[:16] for digest in changed)}"
        )

    base_rate = statistics.median(
        item.beacons_per_second for item in baseline
    )
    if base_rate > 0 and record.beacons_per_second < (1 - threshold) * base_rate:
        failures.append(
            f"throughput regressed: {record.beacons_per_second:,.0f}/s vs "
            f"baseline median {base_rate:,.0f}/s "
            f"({record.beacons_per_second / base_rate:.2f}x, "
            f"floor {1 - threshold:.2f}x)"
        )
    else:
        notes.append(
            f"throughput {record.beacons_per_second:,.0f}/s vs baseline "
            f"median {base_rate:,.0f}/s"
        )

    for phase in sorted(record.phase_seconds):
        samples = [
            item.phase_seconds[phase]
            for item in baseline
            if phase in item.phase_seconds
        ]
        if not samples:
            continue
        base_phase = statistics.median(samples)
        current = record.phase_seconds[phase]
        delta = current - base_phase
        if (
            current > (1 + threshold) * base_phase
            and delta > noise_floor_seconds
        ):
            failures.append(
                f"phase '{phase}' regressed: {current:.3f}s vs baseline "
                f"median {base_phase:.3f}s (+{delta:.3f}s, "
                f"limit {1 + threshold:.2f}x)"
            )
    return ComparisonResult(
        record=record,
        baseline_size=len(baseline),
        failures=tuple(failures),
        notes=tuple(notes),
    )


def check_history(
    history: BenchHistory,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_BASELINE_WINDOW,
    noise_floor_seconds: float = DEFAULT_NOISE_FLOOR_SECONDS,
) -> List[ComparisonResult]:
    """Check each group's newest record against its rolling baseline.

    Groups with a single record yield a non-comparable (passing)
    result — the gate only blocks once two records exist to compare.
    """
    results: List[ComparisonResult] = []
    for _, records in sorted(history.groups().items()):
        newest = records[-1]
        baseline = records[:-1][-window:]
        results.append(
            compare_records(
                newest,
                baseline,
                threshold=threshold,
                noise_floor_seconds=noise_floor_seconds,
            )
        )
    return results


def format_history_report(results: Sequence[ComparisonResult]) -> str:
    """Human-readable gate summary, one block per group."""
    if not results:
        return "bench history: no records\n"
    lines: List[str] = ["== bench history gate =="]
    for result in results:
        record = result.record
        status = "PASS" if result.ok else "FAIL"
        if not result.comparable:
            status = "PASS (no baseline)"
        lines.append(
            f"[{status}] {record.label} / {record.engine} "
            f"@ {record.host} cfg={record.config_hash} "
            f"(baseline n={result.baseline_size})"
        )
        for note in result.notes:
            lines.append(f"    note: {note}")
        for failure in result.failures:
            lines.append(f"    FAIL: {failure}")
    return "\n".join(lines) + "\n"
