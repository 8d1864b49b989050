"""Lightweight span timers: where a run's wall-clock actually goes.

A *span* is a named, timed region entered with ``with tracker.span(
"campaign.day", index=day):``.  Spans nest: the tracker keeps a stack,
and a span's *path* is its ancestors' names joined with ``/`` (e.g.
``campaign/day/beacons``), so the accumulated records form a phase tree
without any explicit parent bookkeeping at the call sites.

Records are aggregates, not traces: per path, the tracker keeps entry
count and total seconds (plus optional per-``index`` second totals, used
for per-day breakdowns).  That makes them cheap — two ``perf_counter``
calls and a dict update per span — and *mergeable*: two shards' records
combine by adding counts and seconds per path, order-insensitively.
Merged trees therefore read as CPU-seconds, exactly like the summed
per-day times :class:`repro.simulation.campaign.CampaignStats` reports.

Spans are exception-safe: the timer stops and the stack pops in a
``finally`` block, so a span that raises still records its elapsed time
and never corrupts the nesting of its ancestors.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Separator between nested span names in a record path.
PATH_SEPARATOR = "/"


@dataclass
class SpanRecord:
    """Accumulated time for one span path.

    Attributes:
        count: Times the span was entered.
        seconds: Total seconds spent inside (including nested spans).
        indexed: Optional per-index second totals (e.g. per day), keyed
            by the stringified ``index`` for JSON friendliness.
    """

    count: int = 0
    seconds: float = 0.0
    indexed: Dict[str, float] = field(default_factory=dict)

    def add(self, seconds: float, index: Optional[object] = None) -> None:
        """Record one completed span entry."""
        self.count += 1
        self.seconds += seconds
        if index is not None:
            key = str(index)
            self.indexed[key] = self.indexed.get(key, 0.0) + seconds

    def absorb(self, other: "SpanRecord") -> None:
        """Fold another record for the same path into this one."""
        self.count += other.count
        self.seconds += other.seconds
        for key, seconds in other.indexed.items():
            self.indexed[key] = self.indexed.get(key, 0.0) + seconds


class SpanTracker:
    """Accumulates nested span timings into path-keyed records.

    When :attr:`trace` is set (the owning :class:`~repro.telemetry.core
    .Telemetry` installs its :class:`~repro.telemetry.trace.TraceLog`),
    every completed span additionally emits a ``cat="phase"`` complete
    slice onto the trace timeline — the aggregate records and the
    timeline stay two views of the same ``perf_counter`` measurements.
    """

    def __init__(self) -> None:
        self._records: Dict[str, SpanRecord] = {}
        # The nesting stack lives in a ContextVar, so concurrent asyncio
        # tasks and threads each see their own stack: a span entered by
        # one task can never splice itself into another task's path or
        # pop another task's frame.  Records still accumulate into the
        # shared dict — the isolation is only of the *nesting*, which is
        # exactly the part a shared list corrupts under interleaving.
        self._stack: contextvars.ContextVar[Tuple[str, ...]] = (
            contextvars.ContextVar("span_stack", default=())
        )
        self.trace = None  # Optional[repro.telemetry.trace.TraceLog]

    @property
    def records(self) -> Dict[str, SpanRecord]:
        """The accumulated records, keyed by span path."""
        return self._records

    @property
    def depth(self) -> int:
        """Current nesting depth (0 outside any span in this context)."""
        return len(self._stack.get())

    @contextmanager
    def span(
        self, name: str, index: Optional[object] = None
    ) -> Iterator[None]:
        """Time a region under ``name``, nested below the current span."""
        stack = self._stack.get() + (name,)
        token = self._stack.set(stack)
        path = PATH_SEPARATOR.join(stack)
        trace_start = None if self.trace is None else self.trace.now_us()
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.reset(token)
            record = self._records.get(path)
            if record is None:
                record = self._records[path] = SpanRecord()
            record.add(elapsed, index)
            if trace_start is not None:
                args = {} if index is None else {"index": index}
                self.trace.complete(
                    path,
                    "phase",
                    ts_us=trace_start,
                    dur_us=round(elapsed * 1e6),
                    **args,
                )

    def record_seconds(
        self, path: str, seconds: float, index: Optional[object] = None
    ) -> None:
        """Record an externally-timed region directly (no nesting)."""
        record = self._records.get(path)
        if record is None:
            record = self._records[path] = SpanRecord()
        record.add(seconds, index)
        if self.trace is not None:
            args = {} if index is None else {"index": index}
            dur_us = max(0, round(seconds * 1e6))
            self.trace.complete(
                path,
                "phase",
                ts_us=max(0, self.trace.now_us() - dur_us),
                dur_us=dur_us,
                **args,
            )

    def absorb(self, records: Dict[str, SpanRecord]) -> None:
        """Merge another tracker's (or snapshot's) records into this one."""
        for path, other in records.items():
            record = self._records.get(path)
            if record is None:
                record = self._records[path] = SpanRecord()
            record.absorb(other)

    # ------------------------------------------------------------------

    def children_of(self, path: str) -> List[Tuple[str, SpanRecord]]:
        """Direct children of a span path, insertion-ordered."""
        prefix = path + PATH_SEPARATOR
        return [
            (candidate, record)
            for candidate, record in self._records.items()
            if candidate.startswith(prefix)
            and PATH_SEPARATOR not in candidate[len(prefix):]
        ]

    def roots(self) -> List[Tuple[str, SpanRecord]]:
        """Top-level span paths, insertion-ordered."""
        return [
            (path, record)
            for path, record in self._records.items()
            if PATH_SEPARATOR not in path
        ]

    def coverage(self, path: str) -> float:
        """Fraction of a span's time accounted for by its children.

        1.0 means the phase tree fully explains where the span's time
        went; a low value flags untimed gaps.  Returns 1.0 for a span
        with no time (nothing to explain) and 0.0 for an unknown path.
        """
        record = self._records.get(path)
        if record is None:
            return 0.0
        if record.seconds <= 0.0:
            return 1.0
        child_seconds = sum(
            child.seconds for _, child in self.children_of(path)
        )
        return min(child_seconds / record.seconds, 1.0)
