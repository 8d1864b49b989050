"""The per-run telemetry facade: registry + trace + run context.

One :class:`Telemetry` instance accompanies one campaign/study run.  It
bundles the concerns every instrumented call site needs — the metrics
registry, the run's one :class:`~repro.telemetry.trace.TraceLog` with
the span tracker that times phases onto it, and the run-identity
context — so the hot paths take a single object, and the whole state
freezes into a :class:`~repro.telemetry.snapshot.TelemetrySnapshot` at
the end.  Time lives only in the trace: a snapshot's span records are a
view of its phase slices.

:meth:`Telemetry.absorb` is the inverse of :meth:`Telemetry.snapshot`
and the one way snapshots combine: it folds a (worker's) snapshot back
into this process's live telemetry, which is how the sharded parallel
runner aggregates — each worker ships its snapshot over the process
boundary, and the coordinator absorbs them all, in any order, into its
own telemetry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.errors import TelemetryError
from repro.telemetry.logs import RunContext
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanTracker
from repro.telemetry.trace import TraceLog, set_active_trace


class Telemetry:
    """Metrics registry, span tracker, and run context for one run."""

    def __init__(
        self,
        context: Optional[Union[RunContext, Dict[str, Any]]] = None,
    ) -> None:
        if isinstance(context, RunContext):
            self.context: Dict[str, Any] = context.as_dict()
        else:
            self.context = dict(context or {})
        self.registry = MetricsRegistry()
        # One timeline per run: spans time phases onto it, and emission
        # sites without a Telemetry handle (e.g. the columnar sidecar
        # loader) reach it via the active-trace hook.
        self.trace = TraceLog()
        self.spans = SpanTracker(self.trace)
        set_active_trace(self.trace)

    # ------------------------------------------------------------------
    # Registry delegation
    # ------------------------------------------------------------------

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create a counter (see :class:`MetricsRegistry`)."""
        return self.registry.counter(name, description)

    def gauge(
        self, name: str, description: str = "", merge: str = "max"
    ) -> Gauge:
        """Get or create a gauge."""
        return self.registry.gauge(name, description, merge)

    def histogram(self, name: str, description: str = "", **layout) -> Histogram:
        """Get or create a histogram."""
        return self.registry.histogram(name, description, **layout)

    def span(self, name: str, index: Optional[object] = None):
        """Time a nested region (see :meth:`SpanTracker.span`)."""
        return self.spans.span(name, index=index)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the current state into a mergeable snapshot."""
        return TelemetrySnapshot(
            context=dict(self.context),
            counters={
                counter.name: counter.value
                for counter in self.registry.counters()
            },
            gauges={
                gauge.name: {"value": gauge.value, "merge": gauge.merge_mode}
                for gauge in self.registry.gauges()
            },
            histograms={
                histogram.name: {
                    "start": histogram.start,
                    "growth": histogram.growth,
                    "bucket_count": histogram.bucket_count,
                    "counts": list(histogram.bucket_counts),
                    "sum": histogram.sum,
                    "observations": histogram.count,
                }
                for histogram in self.registry.histograms()
            },
            trace=self.trace.copy() if self.trace.events else None,
        )

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        """Fold a snapshot into this live telemetry (inverse of
        :meth:`snapshot`; order-insensitive across snapshots).

        Counters add, gauges combine under their merge policy,
        histograms add per bucket, and the snapshot's trace (its span
        records with it) merges into this one.  Context keys present on
        both sides must agree — shards of one run report their
        coordinator's seed, engine and config hash, so a mismatch means
        snapshots of *different* runs — except ``workers``: a caller's
        context counts the workers it asked for, which the coordinator
        clamps to the shard count.

        Raises:
            TelemetryError: on a conflicting context value, gauge
                merge policy, or histogram bucket layout.
        """
        for key, value in snapshot.context.items():
            mine = self.context.get(key)
            if mine is None:
                self.context[key] = value
            elif mine != value and key != "workers":
                raise TelemetryError(
                    f"cannot absorb a snapshot of a different run: "
                    f"context[{key!r}] differs ({mine!r} != {value!r})"
                )
        for name, value in snapshot.counters.items():
            self.registry.counter(name).inc(value)
        for name, gauge in snapshot.gauges.items():
            self.registry.gauge(name, merge=gauge["merge"]).combine(
                gauge["value"]
            )
        for name, histogram in snapshot.histograms.items():
            self.registry.histogram(
                name,
                start=histogram["start"],
                growth=histogram["growth"],
                bucket_count=histogram["bucket_count"],
            ).absorb(
                histogram["counts"],
                histogram["sum"],
                histogram["observations"],
            )
        if snapshot.trace is not None and snapshot.trace.events:
            self.trace.merge(snapshot.trace)
