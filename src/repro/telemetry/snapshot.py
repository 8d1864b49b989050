"""Serializable snapshots of a run's telemetry.

A :class:`TelemetrySnapshot` is the frozen value of one process's
telemetry — counters, gauges, histograms, and the trace timeline, plus
the run context (seed, engine, workers, config hash).  Snapshots are
what cross process boundaries: each :class:`~repro.simulation.parallel
.ParallelCampaignRunner` worker returns its snapshot alongside its
partial dataset, and the coordinator folds them into its live telemetry
with :meth:`~repro.telemetry.core.Telemetry.absorb`, the one way
snapshots combine, order-insensitively like the measurement sinks.

A snapshot stores no span records: :attr:`TelemetrySnapshot.spans` is
the view :func:`~repro.telemetry.trace.span_records` sums from the
trace's phase slices, built once on first read.

Snapshots serialize to a single JSON document (:meth:`to_json` /
:meth:`from_json`) and to Prometheus text exposition format
(:meth:`to_prometheus`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.telemetry.registry import GAUGE_MERGE_MODES
from repro.telemetry.spans import PATH_SEPARATOR
from repro.telemetry.trace import SpanRecord, TraceLog, span_records

#: Format marker written into every snapshot export.  Version 2 dropped
#: the ``spans`` section: span records are read from the trace.
SNAPSHOT_FORMAT_VERSION = 2


def _sanitize(name: str) -> str:
    """Map a dotted metric name to a Prometheus-legal one."""
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


@dataclass
class TelemetrySnapshot:
    """One process's telemetry, frozen at snapshot time.

    Attributes:
        context: Run identity (seed, engine, workers, config_hash, ...).
        counters: name → total.
        gauges: name → ``{"value": float, "merge": policy}``.
        histograms: name → ``{"start", "growth", "bucket_count",
            "counts" (overflow last), "sum", "observations"}``.
        trace: optional :class:`TraceLog` of structured timeline
            events (phase slices included); merged by clock-rebased
            event-set union.
    """

    context: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    trace: Optional[TraceLog] = None

    @cached_property
    def spans(self) -> Dict[str, SpanRecord]:
        """path → :class:`SpanRecord`, summed from the trace's phase
        slices in first-completion order."""
        return {} if self.trace is None else span_records(self.trace.events)

    # ------------------------------------------------------------------
    # Phase-tree helpers
    # ------------------------------------------------------------------

    def span_children(self, path: str) -> List[Tuple[str, SpanRecord]]:
        """Direct children of a span path, first-completion ordered."""
        prefix = path + PATH_SEPARATOR
        return [
            (candidate, record)
            for candidate, record in self.spans.items()
            if candidate.startswith(prefix)
            and PATH_SEPARATOR not in candidate[len(prefix):]
        ]

    def span_roots(self) -> List[Tuple[str, SpanRecord]]:
        """Top-level span paths, first-completion ordered."""
        return [
            (path, record)
            for path, record in self.spans.items()
            if PATH_SEPARATOR not in path
        ]

    def phase_coverage(self, path: str) -> float:
        """Fraction of a span's seconds explained by its children."""
        record = self.spans.get(path)
        if record is None:
            return 0.0
        if record.seconds <= 0.0:
            return 1.0
        children = sum(r.seconds for _, r in self.span_children(path))
        return min(children / record.seconds, 1.0)

    def day_seconds(self, path: str = "campaign/day") -> List[float]:
        """Per-day seconds from an indexed span, day-ordered.

        Missing days (a shard that never saw day ``d`` contributes
        nothing) read as 0, so the list always spans day 0 to the
        highest recorded day.
        """
        record = self.spans.get(path)
        if record is None or not record.indexed:
            return []
        by_day = {int(key): value for key, value in record.indexed.items()}
        return [by_day.get(day, 0.0) for day in range(max(by_day) + 1)]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_obj(self) -> Dict[str, Any]:
        """A JSON-compatible document for this snapshot."""
        document: Dict[str, Any] = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "context": dict(self.context),
            "counters": dict(self.counters),
            "gauges": {
                name: dict(gauge) for name, gauge in self.gauges.items()
            },
            "histograms": {
                name: {**hist, "counts": list(hist["counts"])}
                for name, hist in self.histograms.items()
            },
        }
        if self.trace is not None and self.trace.events:
            document["trace"] = self.trace.to_obj()
        return document

    @classmethod
    def from_obj(cls, document: Dict[str, Any]) -> "TelemetrySnapshot":
        """Rebuild a snapshot from :meth:`to_obj`'s output.

        Raises:
            TelemetryError: on an unknown format version or a gauge
                with an unknown merge policy.
        """
        version = document.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise TelemetryError(
                f"unsupported telemetry snapshot format {version!r}"
            )
        for name, gauge in document.get("gauges", {}).items():
            if gauge.get("merge") not in GAUGE_MERGE_MODES:
                raise TelemetryError(
                    f"gauge {name!r}: unknown merge policy "
                    f"{gauge.get('merge')!r}"
                )
        return cls(
            context=dict(document.get("context", {})),
            counters={
                name: value
                for name, value in document.get("counters", {}).items()
            },
            gauges={
                name: dict(gauge)
                for name, gauge in document.get("gauges", {}).items()
            },
            histograms={
                name: {**hist, "counts": list(hist["counts"])}
                for name, hist in document.get("histograms", {}).items()
            },
            trace=(
                TraceLog.from_obj(document["trace"])
                if "trace" in document
                else None
            ),
        )

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_obj(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TelemetrySnapshot":
        """Parse a snapshot from :meth:`to_json` output."""
        return cls.from_obj(json.loads(text))

    # ------------------------------------------------------------------
    # Prometheus exposition
    # ------------------------------------------------------------------

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Render the snapshot in Prometheus text exposition format.

        Counters become ``<prefix>_<name>`` counters, gauges become
        gauges, histograms emit the standard cumulative ``_bucket{le=}``
        / ``_sum`` / ``_count`` series, and span records emit
        ``<prefix>_phase_seconds_total`` / ``_phase_runs_total`` series
        labelled by phase path.
        """
        lines: List[str] = []

        def esc(value: str) -> str:
            return value.replace("\\", "\\\\").replace('"', '\\"')

        for name, value in sorted(self.counters.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, gauge in sorted(self.gauges.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauge['value']}")
        for name, hist in sorted(self.histograms.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} histogram")
            edges = [
                hist["start"] * hist["growth"] ** i
                for i in range(hist["bucket_count"])
            ]
            cumulative = 0
            for edge, bucket in zip(edges, hist["counts"]):
                cumulative += bucket
                lines.append(
                    f'{metric}_bucket{{le="{edge:.9g}"}} {cumulative}'
                )
            cumulative += hist["counts"][-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {hist['sum']}")
            lines.append(f"{metric}_count {hist['observations']}")
        if self.spans:
            seconds_metric = f"{prefix}_phase_seconds_total"
            runs_metric = f"{prefix}_phase_runs_total"
            lines.append(f"# TYPE {seconds_metric} counter")
            for path, record in sorted(self.spans.items()):
                lines.append(
                    f'{seconds_metric}{{phase="{esc(path)}"}} '
                    f"{record.seconds}"
                )
            lines.append(f"# TYPE {runs_metric} counter")
            for path, record in sorted(self.spans.items()):
                lines.append(
                    f'{runs_metric}{{phase="{esc(path)}"}} {record.count}'
                )
        return "\n".join(lines) + "\n"
