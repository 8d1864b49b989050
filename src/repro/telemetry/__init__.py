"""Unified telemetry: metrics registry, phase tracing, structured logs.

The paper's methodology is itself a measurement pipeline; this package
is the pipeline's *own* instrumentation, the counterpart of the
measurement accounting a production anycast CDN keeps over its beacon
and passive-log volumes (§3).  One :class:`Telemetry` object per run
bundles:

* a :class:`MetricsRegistry` of counters, gauges, and histograms with
  fixed log-spaced buckets (so shards merge deterministically);
* a :class:`TraceLog`, the run's timeline and its only store of time,
  with a :class:`SpanTracker` whose nested phase timers write
  ``cat="phase"`` slices onto it — the hierarchical wall-clock
  breakdown (:class:`SpanRecord`) is a view summed from those slices;
* the run context (seed, engine, workers, config hash) stamped on
  structured JSON-lines logs via :func:`configure_logging`.

Snapshots (:class:`TelemetrySnapshot`) cross process boundaries and
combine one way, through :meth:`Telemetry.absorb`, order-insensitively,
mirroring the measurement sinks; they export to JSON and Prometheus
text format, pretty-print as a run report, and distill into the run
manifest written alongside every dataset.
"""

from repro.telemetry.core import Telemetry, config_digest
from repro.telemetry.history import (
    BenchHistory,
    ComparisonResult,
    PerfRecord,
    check_history,
    compare_records,
    format_history_report,
    host_fingerprint,
    record_from_snapshot,
)
from repro.telemetry.logs import (
    JsonLineFormatter,
    RunContext,
    TextLineFormatter,
    configure_logging,
    get_logger,
)
from repro.telemetry.memory import MemoryProbe, peak_rss_bytes
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report import (
    build_run_manifest,
    format_run_report,
    manifest_path_for,
    write_run_manifest,
)
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanRecord, SpanTracker
from repro.telemetry.trace import (
    TraceEvent,
    TraceLog,
    active_trace,
    format_trace_report,
    set_active_trace,
)

__all__ = [
    "BenchHistory",
    "ComparisonResult",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MemoryProbe",
    "MetricsRegistry",
    "PerfRecord",
    "RunContext",
    "SpanRecord",
    "SpanTracker",
    "Telemetry",
    "TelemetrySnapshot",
    "TextLineFormatter",
    "TraceEvent",
    "TraceLog",
    "active_trace",
    "build_run_manifest",
    "check_history",
    "compare_records",
    "config_digest",
    "configure_logging",
    "format_history_report",
    "format_run_report",
    "format_trace_report",
    "get_logger",
    "host_fingerprint",
    "manifest_path_for",
    "peak_rss_bytes",
    "record_from_snapshot",
    "set_active_trace",
    "write_run_manifest",
]
