"""Structured trace events with cross-shard clock alignment.

A campaign run is a swarm of phases spread over shards: engines chew
through days, the resilient coordinator dispatches / retries / resumes,
faults fire, checkpoints spill, sidecars hit or miss.  Counters and
spans (:mod:`repro.telemetry.core`) answer "how much" and "how long in
total"; this module answers "*when*, and *on which shard*" — the
timeline view the paper's §6 operational-diagnosis workflow assumes.

Design constraints, in order:

* **Order-insensitive merge.**  Shard snapshots arrive in completion
  order, which varies run to run.  A :class:`TraceLog` merge is a plain
  event-set union with clock rebasing; the canonical ordering is derived
  from event content, never from arrival order.
* **Clock alignment.**  Every log records the ``time.monotonic()``
  instant it was created (its *origin*); event timestamps are
  microseconds since that origin.  Linux's ``CLOCK_MONOTONIC`` is
  system-wide, so merging rebases the other log's events by the origin
  delta — after a merge, all events share the coordinator's clock and
  lanes line up in Perfetto.
* **Shard-invariant digests.**  Wall-clock timestamps can never be
  identical between a serial and a sharded run, so :meth:`TraceLog.digest`
  hashes only ``scope="data"`` events (engine day totals, quarantine
  counts, …) *aggregated by identity with numeric args summed* — the
  event algebra mirrors counter merges, making the digest a pure
  function of the work performed, not of how it was scheduled.
* **Perfetto export.**  :meth:`TraceLog.to_perfetto_obj` emits the
  Chrome trace-event JSON (``ph: "X"`` complete slices, ``ph: "i"``
  instants, thread-name metadata) that ``ui.perfetto.dev`` and
  ``chrome://tracing`` load directly, one lane ("thread") per shard.
* **The only store of time.**  Phase timers
  (:class:`~repro.telemetry.spans.SpanTracker`) write ``cat="phase"``
  slices here and keep nothing else; :func:`span_records` sums those
  slices into the per-path :class:`SpanRecord` view that snapshots,
  manifests, reports and the critical-path attribution all read.

Everything here is pure stdlib so shard workers can import it without
dragging in numpy or the measurement stack.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Bump when the serialized trace layout changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: Lane index used for events emitted outside any shard worker
#: (serial runs, the coordinator).  Rendered as the "main" lane.
MAIN_LANE = -1

#: Lane index of the live service's ingestion loop (``repro serve`` /
#: ``repro replay``).  Rendered as the "service" lane, so streaming
#: runs land on their own row of the timeline next to any shard lanes
#: absorbed from a campaign.
SERVICE_LANE = -2

#: Perfetto thread id the service lane maps to — far above any
#: plausible shard index so the two tid ranges can never collide.
_SERVICE_TID = 1_000_000


def _lane_to_tid(lane: int) -> int:
    if lane == MAIN_LANE:
        return 0
    if lane == SERVICE_LANE:
        return _SERVICE_TID
    return lane + 1


def _tid_to_lane(tid: int) -> int:
    if tid == 0:
        return MAIN_LANE
    if tid == _SERVICE_TID:
        return SERVICE_LANE
    return tid - 1

_ArgItems = Tuple[Tuple[str, Any], ...]


def _freeze_args(args: Dict[str, Any]) -> _ArgItems:
    """Sort arg items into a hashable, deterministic tuple."""
    return tuple(sorted(args.items()))


@dataclass(frozen=True)
class TraceEvent:
    """One timeline event.

    ``ts_us`` is microseconds since the owning log's origin; ``dur_us``
    is ``None`` for instants.  ``shard`` is the lane (:data:`MAIN_LANE`
    for coordinator/serial events), ``attempt`` the retry attempt that
    emitted it.  ``scope`` partitions events into ``"ops"`` (timing,
    scheduling — excluded from digests) and ``"data"`` (work totals —
    the digest's subject).
    """

    name: str
    cat: str
    ts_us: int
    dur_us: Optional[int] = None
    shard: int = MAIN_LANE
    attempt: int = 0
    scope: str = "ops"
    args: _ArgItems = ()

    def sort_key(self) -> Tuple[Any, ...]:
        """Content-derived ordering key (arrival-order free)."""
        return (
            self.ts_us,
            self.shard,
            self.attempt,
            self.cat,
            self.name,
            -1 if self.dur_us is None else self.dur_us,
            self.args,
        )

    def to_obj(self) -> Dict[str, Any]:
        """A JSON-compatible document for this event."""
        obj: Dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ts_us": self.ts_us,
            "shard": self.shard,
            "attempt": self.attempt,
            "scope": self.scope,
        }
        if self.dur_us is not None:
            obj["dur_us"] = self.dur_us
        if self.args:
            obj["args"] = dict(self.args)
        return obj

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_obj` output."""
        return cls(
            name=str(obj["name"]),
            cat=str(obj["cat"]),
            ts_us=int(obj["ts_us"]),
            dur_us=None if obj.get("dur_us") is None else int(obj["dur_us"]),
            shard=int(obj.get("shard", MAIN_LANE)),
            attempt=int(obj.get("attempt", 0)),
            scope=str(obj.get("scope", "ops")),
            args=_freeze_args(dict(obj.get("args", {}))),
        )


@dataclass
class SpanRecord:
    """Summed time of one span path's phase slices.

    Attributes:
        count: Slices (span entries) on the path.
        seconds: Their total duration, nested spans included.
        indexed: Per-``index`` second totals (e.g. per day), keyed by
            the stringified index.
    """

    count: int = 0
    seconds: float = 0.0
    indexed: Dict[str, float] = field(default_factory=dict)


def span_records(events: Iterable[TraceEvent]) -> Dict[str, SpanRecord]:
    """Per-path records of the ``cat="phase"`` slices among ``events``.

    Durations sum as integer microseconds, so the view is exact and
    independent of event order and of how shard logs were merged.  Paths
    and index keys come in first-completion order (slice end time, ties
    in timeline order): the order a live tracker finished them in, also
    for a log reloaded in canonical order.
    """
    slices = sorted(
        (
            event
            for event in events
            if event.cat == "phase" and event.dur_us is not None
        ),
        key=lambda event: event.ts_us + event.dur_us,
    )
    records: Dict[str, SpanRecord] = {}
    for event in slices:
        record = records.get(event.name)
        if record is None:
            record = records[event.name] = SpanRecord()
        # Whole microseconds until the end: float sums of integers are
        # exact below 2**53 us (285 years).
        record.count += 1
        record.seconds += event.dur_us
        for key, value in event.args:
            if key == "index":
                index = str(value)
                record.indexed[index] = (
                    record.indexed.get(index, 0.0) + event.dur_us
                )
    for record in records.values():
        record.seconds /= 1e6
        for index in record.indexed:
            record.indexed[index] /= 1e6
    return records


@dataclass
class TraceLog:
    """An append-only event log with a monotonic-clock origin.

    Emission sites set :attr:`lane` / :attr:`attempt` once (shard
    workers do this on entry) so individual ``instant``/``complete``
    calls stay terse.  Logs merge by event-set union after rebasing the
    other log's timestamps onto this log's origin.
    """

    origin: float = field(default_factory=time.monotonic)
    lane: int = MAIN_LANE
    attempt: int = 0
    events: List[TraceEvent] = field(default_factory=list)

    # -- emission -----------------------------------------------------

    def now_us(self) -> int:
        """Microseconds elapsed since this log's origin."""
        return round((time.monotonic() - self.origin) * 1e6)

    def instant(
        self,
        name: str,
        cat: str,
        *,
        shard: Optional[int] = None,
        attempt: Optional[int] = None,
        scope: str = "ops",
        ts_us: Optional[int] = None,
        **args: Any,
    ) -> TraceEvent:
        """Record a point-in-time event (Perfetto ``ph: "i"``)."""
        event = TraceEvent(
            name=name,
            cat=cat,
            ts_us=self.now_us() if ts_us is None else ts_us,
            dur_us=None,
            shard=self.lane if shard is None else shard,
            attempt=self.attempt if attempt is None else attempt,
            scope=scope,
            args=_freeze_args(args),
        )
        self.events.append(event)
        return event

    def complete(
        self,
        name: str,
        cat: str = "phase",
        *,
        ts_us: int,
        dur_us: int,
        shard: Optional[int] = None,
        attempt: Optional[int] = None,
        scope: str = "ops",
        **args: Any,
    ) -> TraceEvent:
        """Record a duration slice (Perfetto ``ph: "X"``)."""
        event = TraceEvent(
            name=name,
            cat=cat,
            ts_us=ts_us,
            dur_us=max(0, dur_us),
            shard=self.lane if shard is None else shard,
            attempt=self.attempt if attempt is None else attempt,
            scope=scope,
            args=_freeze_args(args),
        )
        self.events.append(event)
        return event

    def data(
        self,
        name: str,
        cat: str = "engine",
        *,
        index: Optional[Any] = None,
        **args: Any,
    ) -> TraceEvent:
        """Record a ``scope="data"`` instant carrying work totals.

        Data events are the digest's subject: numeric args are summed
        across shards during aggregation, so only shard-invariant totals
        (beacons per day, quarantined records per reason) belong here —
        never anything that depends on how clients were sliced.
        """
        if index is not None:
            args = dict(args)
            # Stringified so the index stays part of the event's
            # *identity* during aggregation (numeric args are summed).
            args["index"] = str(index)
        return self.instant(name, cat, scope="data", **args)

    # -- merge / canonical form ---------------------------------------

    def merge(self, other: "TraceLog") -> None:
        """Absorb ``other``'s events, rebased onto this log's clock."""
        offset_us = round((other.origin - self.origin) * 1e6)
        if offset_us == 0:
            self.events.extend(other.events)
            return
        for event in other.events:
            self.events.append(
                dataclasses.replace(event, ts_us=event.ts_us + offset_us)
            )

    def canonical(self) -> List[TraceEvent]:
        """Events in a content-derived order (arrival-order free)."""
        return sorted(self.events, key=TraceEvent.sort_key)

    def copy(self) -> "TraceLog":
        """A shallow copy sharing (immutable) events, not the list."""
        clone = TraceLog(origin=self.origin, lane=self.lane, attempt=self.attempt)
        clone.events = list(self.events)
        return clone

    # -- digest -------------------------------------------------------

    def data_totals(self) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
        """Aggregate data events by identity, summing numeric args.

        The identity key is ``(cat, name, non-numeric args)`` — shard,
        attempt, and timestamps are deliberately excluded so serial and
        sharded runs of the same campaign aggregate identically.
        Numeric sums are computed over sorted value lists to keep float
        addition associative in practice.
        """
        groups: Dict[Tuple[Any, ...], Dict[str, List[Any]]] = {}
        for event in self.events:
            if event.scope != "data":
                continue
            identity_args: List[Tuple[str, Any]] = []
            numeric: Dict[str, Any] = {}
            for key, value in event.args:
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    identity_args.append((key, value))
                else:
                    numeric[key] = value
            identity = (event.cat, event.name, tuple(identity_args))
            bucket = groups.setdefault(identity, {})
            for key, value in numeric.items():
                bucket.setdefault(key, []).append(value)
        totals: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        for identity, values in groups.items():
            totals[identity] = {
                key: sum(sorted(samples))
                for key, samples in sorted(values.items())
            }
        return totals

    def digest(self) -> str:
        """SHA-256 over the aggregated data events.

        Identical for serial and sharded runs of the same campaign:
        timing/scheduling events (``scope="ops"``) are excluded, and
        data totals sum shard-invariantly.
        """
        rows = [
            {
                "cat": identity[0],
                "name": identity[1],
                "args": [list(pair) for pair in identity[2]],
                "totals": totals,
            }
            for identity, totals in sorted(
                self.data_totals().items(), key=lambda item: repr(item[0])
            )
        ]
        payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- serialization ------------------------------------------------

    def to_obj(self) -> Dict[str, Any]:
        """A JSON-compatible document, events in canonical order."""
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "origin_monotonic": self.origin,
            "events": [event.to_obj() for event in self.canonical()],
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "TraceLog":
        """Rebuild a log from :meth:`to_obj` output."""
        version = obj.get("format_version")
        if version != TRACE_FORMAT_VERSION:
            from repro.errors import TelemetryError

            raise TelemetryError(
                f"unsupported trace format_version: {version!r}"
            )
        log = cls(origin=float(obj.get("origin_monotonic", 0.0)))
        log.events = [TraceEvent.from_obj(item) for item in obj["events"]]
        return log

    # -- Perfetto / Chrome trace-event JSON ---------------------------

    def to_perfetto_obj(self) -> Dict[str, Any]:
        """Chrome trace-event JSON: one lane ("thread") per shard.

        Loadable directly in ``ui.perfetto.dev`` / ``chrome://tracing``.
        Lane :data:`MAIN_LANE` renders as thread 0 ("main"); shard ``N``
        as thread ``N + 1`` ("shard N").  Event ``args`` carry the
        attempt and scope so retries are distinguishable in the UI.
        """
        pid = 1
        lanes = sorted({event.shard for event in self.events})
        trace_events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro campaign"},
            }
        ]
        for lane in lanes:
            tid = _lane_to_tid(lane)
            label = _lane_label(lane)
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
            trace_events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        for event in self.canonical():
            tid = _lane_to_tid(event.shard)
            args = dict(event.args)
            args["attempt"] = event.attempt
            args["scope"] = event.scope
            entry: Dict[str, Any] = {
                "name": event.name,
                "cat": event.cat,
                "pid": pid,
                "tid": tid,
                "ts": event.ts_us,
                "args": args,
            }
            if event.dur_us is None:
                entry["ph"] = "i"
                entry["s"] = "t"
            else:
                entry["ph"] = "X"
                entry["dur"] = event.dur_us
            trace_events.append(entry)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "format_version": TRACE_FORMAT_VERSION,
                "origin_monotonic": self.origin,
            },
        }

    @classmethod
    def from_perfetto_obj(cls, obj: Dict[str, Any]) -> "TraceLog":
        """Inverse of :meth:`to_perfetto_obj` (metadata events skipped)."""
        other = obj.get("otherData", {})
        log = cls(origin=float(other.get("origin_monotonic", 0.0)))
        for entry in obj.get("traceEvents", []):
            ph = entry.get("ph")
            if ph not in ("X", "i"):
                continue
            args = dict(entry.get("args", {}))
            attempt = int(args.pop("attempt", 0))
            scope = str(args.pop("scope", "ops"))
            tid = int(entry.get("tid", 0))
            log.events.append(
                TraceEvent(
                    name=str(entry["name"]),
                    cat=str(entry.get("cat", "ops")),
                    ts_us=int(entry["ts"]),
                    dur_us=int(entry["dur"]) if ph == "X" else None,
                    shard=_tid_to_lane(tid),
                    attempt=attempt,
                    scope=scope,
                    args=_freeze_args(args),
                )
            )
        return log


# -- timeline report ---------------------------------------------------


def _lane_label(lane: int) -> str:
    if lane == MAIN_LANE:
        return "main"
    if lane == SERVICE_LANE:
        return "service"
    return f"shard {lane}"


def format_trace_report(log: TraceLog) -> str:
    """Human-readable timeline summary with critical-path attribution.

    Renders per-lane activity (first/last event, busy time, counts), the
    operational event census (retries, faults, checkpoints, sidecar
    traffic), and a per-phase attribution over the *critical lane* — the
    lane whose activity finishes last and therefore bounds wall time.
    """
    events = log.canonical()
    if not events:
        return "trace: no events recorded\n"

    lanes: Dict[int, Dict[str, Any]] = {}
    for event in events:
        info = lanes.setdefault(
            event.shard,
            {"first": event.ts_us, "last": event.ts_us, "count": 0},
        )
        end = event.ts_us + (event.dur_us or 0)
        info["first"] = min(info["first"], event.ts_us)
        info["last"] = max(info["last"], end)
        info["count"] += 1

    lines: List[str] = []
    lines.append("== trace timeline ==")
    t0 = min(info["first"] for info in lanes.values())
    t_end = max(info["last"] for info in lanes.values())
    lines.append(
        f"wall span: {(t_end - t0) / 1e6:.3f}s across "
        f"{len(lanes)} lane(s), {len(events)} event(s)"
    )
    lines.append("")
    lines.append(f"{'lane':<10} {'start(s)':>9} {'end(s)':>9} "
                 f"{'span(s)':>9} {'events':>7}")
    critical_lane = max(lanes, key=lambda lane: lanes[lane]["last"])
    for lane in sorted(lanes):
        info = lanes[lane]
        marker = "  <- critical" if lane == critical_lane else ""
        lines.append(
            f"{_lane_label(lane):<10} "
            f"{(info['first'] - t0) / 1e6:>9.3f} "
            f"{(info['last'] - t0) / 1e6:>9.3f} "
            f"{(info['last'] - info['first']) / 1e6:>9.3f} "
            f"{info['count']:>7}{marker}"
        )

    ops_counts: Dict[Tuple[str, str], int] = {}
    for event in events:
        if event.scope == "ops" and event.dur_us is None:
            key = (event.cat, event.name)
            ops_counts[key] = ops_counts.get(key, 0) + 1
    if ops_counts:
        lines.append("")
        lines.append("operational events:")
        for (cat, name), count in sorted(ops_counts.items()):
            lines.append(f"  {cat}/{name:<28} {count:>6}")

    # Critical-path phase attribution: the span records of the lane
    # that finishes last, longest first, as shares of its longest root.
    phases = span_records(
        event for event in events if event.shard == critical_lane
    )
    if phases:
        lines.append("")
        lines.append(
            f"critical-path phases ({_lane_label(critical_lane)}):"
        )
        total = max(
            (r.seconds for path, r in phases.items() if "/" not in path),
            default=sum(r.seconds for r in phases.values()),
        )
        for name, record in sorted(
            phases.items(), key=lambda item: -item[1].seconds
        ):
            share = (record.seconds / total * 100.0) if total else 0.0
            lines.append(
                f"  {name:<32} {record.seconds:>9.3f}s  {share:>5.1f}%"
            )

    data_totals = log.data_totals()
    if data_totals:
        lines.append("")
        lines.append(f"data digest: {log.digest()}")
    return "\n".join(lines) + "\n"


# -- module-level active trace (for emission sites without a Telemetry
#    handle, e.g. the columnar sidecar loader) --------------------------

_active_trace: Optional[TraceLog] = None


def set_active_trace(trace: Optional[TraceLog]) -> None:
    """Install (or clear) the process-wide default trace log."""
    global _active_trace
    _active_trace = trace


def active_trace() -> Optional[TraceLog]:
    """The process-wide default trace log, if one is installed."""
    return _active_trace
