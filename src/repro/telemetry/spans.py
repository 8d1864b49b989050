"""Lightweight span timers: where a run's wall-clock actually goes.

A *span* is a named, timed region entered with ``with tracker.span(
"campaign.day", index=day):``.  Spans nest: the tracker keeps a stack,
and a span's *path* is its ancestors' names joined with ``/`` (e.g.
``campaign/day/beacons``), so the records form a phase tree without any
explicit parent bookkeeping at the call sites.

The tracker stores no time of its own.  Each completed span is one
``cat="phase"`` slice on the tracker's
:class:`~repro.telemetry.trace.TraceLog` (the run's one timeline), and
:attr:`SpanTracker.records` is the view
:func:`~repro.telemetry.trace.span_records` sums from those slices:
per path, entry count and total seconds, plus per-``index`` seconds for
per-day breakdowns.  Merging two runs' records is merging their traces,
so shard trees read as CPU-seconds, exactly like the summed per-day
times :class:`repro.simulation.campaign.CampaignStats` reports.

Spans are exception-safe: the timer stops and the stack pops in a
``finally`` block, so a span that raises still records its elapsed time
and never corrupts the nesting of its ancestors.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.telemetry.trace import SpanRecord, TraceLog, span_records

#: Separator between nested span names in a record path.
PATH_SEPARATOR = "/"


class SpanTracker:
    """Times nested spans as phase slices on a trace.

    The owning :class:`~repro.telemetry.core.Telemetry` passes in its
    :class:`~repro.telemetry.trace.TraceLog`; a standalone tracker makes
    its own.
    """

    def __init__(self, trace: Optional[TraceLog] = None) -> None:
        self.trace = TraceLog() if trace is None else trace
        # The nesting stack lives in a ContextVar, so concurrent asyncio
        # tasks and threads each see their own stack: a span entered by
        # one task can never splice itself into another task's path or
        # pop another task's frame.  Slices still land on the one shared
        # trace — the isolation is only of the *nesting*, which is
        # exactly the part a shared list corrupts under interleaving.
        self._stack: contextvars.ContextVar[Tuple[str, ...]] = (
            contextvars.ContextVar("span_stack", default=())
        )

    @property
    def records(self) -> Dict[str, SpanRecord]:
        """The trace's span records, keyed by span path (a fresh view)."""
        return span_records(self.trace.events)

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
        trace_start = self.trace.now_us()
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.reset(token)
            args = {} if index is None else {"index": index}
            self.trace.complete(
                PATH_SEPARATOR.join(stack),
                "phase",
                ts_us=trace_start,
                dur_us=round(elapsed * 1e6),
                **args,
            )

    def record_seconds(
        self, path: str, seconds: float, index: Optional[object] = None
    ) -> None:
        """Record an externally-timed region ending now (no nesting)."""
        args = {} if index is None else {"index": index}
        dur_us = max(0, round(seconds * 1e6))
        self.trace.complete(
            path,
            "phase",
            ts_us=max(0, self.trace.now_us() - dur_us),
            dur_us=dur_us,
            **args,
        )
