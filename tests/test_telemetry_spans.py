"""Span tracker semantics: nesting, exception safety, merging, logs."""

import asyncio
import io
import json
import logging
import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    RunContext,
    TelemetrySnapshot,
    configure_logging,
    get_logger,
)
from repro.telemetry.spans import SpanTracker
from repro.telemetry.trace import TraceLog, span_records


class TestSpanNesting:
    def test_paths_join_with_separator(self):
        tracker = SpanTracker()
        with tracker.span("campaign"):
            with tracker.span("day"):
                with tracker.span("beacons"):
                    pass
        assert set(tracker.records) == {
            "campaign", "campaign/day", "campaign/day/beacons",
        }

    def test_sibling_spans_share_parent_path(self):
        tracker = SpanTracker()
        with tracker.span("campaign"):
            with tracker.span("setup"):
                pass
            with tracker.span("day"):
                pass
        snapshot = TelemetrySnapshot(trace=tracker.trace)
        assert [path for path, _ in snapshot.span_children("campaign")] == [
            "campaign/setup", "campaign/day",
        ]
        assert [path for path, _ in snapshot.span_roots()] == ["campaign"]

    def test_repeated_entries_aggregate(self):
        tracker = SpanTracker()
        for day in range(3):
            with tracker.span("day", index=day):
                pass
        record = tracker.records["day"]
        assert record.count == 3
        assert set(record.indexed) == {"0", "1", "2"}
        assert sum(record.indexed.values()) == pytest.approx(record.seconds)

    def test_depth_tracks_stack(self):
        tracker = SpanTracker()
        assert tracker.depth == 0
        with tracker.span("a"):
            assert tracker.depth == 1
            with tracker.span("b"):
                assert tracker.depth == 2
        assert tracker.depth == 0


class TestExceptionSafety:
    def test_raising_span_still_records_and_pops(self):
        tracker = SpanTracker()
        with pytest.raises(ValueError):
            with tracker.span("campaign"):
                with tracker.span("day"):
                    raise ValueError("boom")
        assert tracker.depth == 0
        assert tracker.records["campaign"].count == 1
        assert tracker.records["campaign/day"].count == 1
        # The stack unwound cleanly: a new span is a root again.
        with tracker.span("after"):
            pass
        assert "after" in tracker.records

    def test_coverage(self):
        tracker = SpanTracker()
        tracker.record_seconds("campaign", 10.0)
        tracker.record_seconds("campaign/day", 9.0)
        tracker.record_seconds("campaign/setup", 0.5)
        tracker.record_seconds("empty", 0.0)
        snapshot = TelemetrySnapshot(trace=tracker.trace)
        assert snapshot.phase_coverage("campaign") == pytest.approx(0.95)
        assert snapshot.phase_coverage("missing") == 0.0
        assert snapshot.phase_coverage("empty") == 1.0

    def test_absorb_adds_per_path(self):
        a = SpanTracker()
        b = SpanTracker()
        a.record_seconds("campaign/day", 1.0, index=0)
        b.record_seconds("campaign/day", 2.0, index=0)
        b.record_seconds("campaign/day", 4.0, index=1)
        a.trace.merge(b.trace)
        record = a.records["campaign/day"]
        assert record.count == 3
        # Slices sum as whole microseconds: exact, in any merge order.
        assert record.seconds == 7.0
        assert record.indexed == {"0": 3.0, "1": 4.0}


class TestRecordsView:
    """The records are the trace's phase slices, summed per path."""

    def test_tracker_keeps_no_time_of_its_own(self):
        trace = TraceLog()
        tracker = SpanTracker(trace)
        with tracker.span("campaign"):
            tracker.record_seconds("campaign/day", 0.25, index=3)
        assert [(e.name, e.cat) for e in trace.events] == [
            ("campaign/day", "phase"), ("campaign", "phase"),
        ]
        assert tracker.records == span_records(trace.events)
        trace.events.clear()
        assert tracker.records == {}

    def test_first_completion_order_in_any_event_order(self):
        log = TraceLog()
        log.complete("campaign", ts_us=0, dur_us=100)
        log.complete("campaign/day", ts_us=40, dur_us=50, index=1)
        log.complete("campaign/setup", ts_us=10, dur_us=20)
        log.complete("campaign/day", ts_us=30, dur_us=5, index=0)
        log.instant("checkpoint.saved", "checkpoint", ts_us=95)
        for events in (log.events, log.canonical(), log.events[::-1]):
            records = span_records(events)
            assert list(records) == [
                "campaign/setup", "campaign/day", "campaign",
            ]
            assert list(records["campaign/day"].indexed) == ["0", "1"]
            assert records["campaign/day"].count == 2
            assert records["campaign/day"].seconds == 55e-6


class TestConcurrentNesting:
    """Regression: spans entered by concurrent asyncio tasks must not
    splice into each other's paths.

    The live service times its producer and consumer with two spans
    held open *simultaneously* on one tracker.  With a tracker-global
    nesting stack, whichever task entered second would record itself as
    a child of the first (``produce/consume``) and pop the other task's
    frame on exit; the per-context stack keeps each task's nesting (and
    each thread's) independent while the records still aggregate into
    one shared tree.
    """

    def test_concurrent_async_tasks_keep_independent_paths(self):
        tracker = SpanTracker()

        async def worker(name, rounds):
            with tracker.span(name):
                for _ in range(rounds):
                    with tracker.span("inner"):
                        # Suspend while the span is open so the other
                        # task interleaves inside it.
                        await asyncio.sleep(0)

        async def main():
            await asyncio.gather(worker("produce", 25), worker("consume", 25))

        asyncio.run(main())
        assert set(tracker.records) == {
            "produce",
            "consume",
            "produce/inner",
            "consume/inner",
        }
        assert tracker.records["produce"].count == 1
        assert tracker.records["consume"].count == 1
        assert tracker.records["produce/inner"].count == 25
        assert tracker.records["consume/inner"].count == 25

    def test_exception_in_one_task_does_not_corrupt_the_other(self):
        tracker = SpanTracker()

        async def failing():
            with tracker.span("failing"):
                await asyncio.sleep(0)
                raise RuntimeError("boom")

        async def survivor():
            with tracker.span("survivor"):
                for _ in range(10):
                    with tracker.span("step"):
                        await asyncio.sleep(0)

        async def main():
            results = await asyncio.gather(
                failing(), survivor(), return_exceptions=True
            )
            assert any(isinstance(r, RuntimeError) for r in results)

        asyncio.run(main())
        assert "survivor/step" in tracker.records
        assert "failing/survivor" not in tracker.records
        assert tracker.records["survivor/step"].count == 10
        assert tracker.depth == 0

    def test_threads_keep_independent_stacks(self):
        tracker = SpanTracker()
        barrier = threading.Barrier(2)

        def worker(name):
            with tracker.span(name):
                barrier.wait()  # both spans open at once
                with tracker.span("inner"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(tracker.records) == {"a", "b", "a/inner", "b/inner"}


class TestStructuredLogging:
    def _capture(self, level="info", fmt="json", context=None):
        stream = io.StringIO()
        configure_logging(
            level=level, fmt=fmt, context=context, stream=stream
        )
        return stream

    def teardown_method(self):
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_json_lines_carry_run_context(self):
        stream = self._capture(
            context=RunContext(
                seed=11, engine="vectorized", workers=4, config_hash="abcd"
            )
        )
        get_logger("campaign").info("day complete", extra={"day": 3})
        line = json.loads(stream.getvalue().strip())
        assert line["msg"] == "day complete"
        assert line["logger"] == "repro.campaign"
        assert line["level"] == "info"
        assert line["seed"] == 11
        assert line["engine"] == "vectorized"
        assert line["workers"] == 4
        assert line["config_hash"] == "abcd"
        assert line["day"] == 3

    def test_text_format_includes_extras(self):
        stream = self._capture(fmt="text")
        get_logger("campaign").warning("slow day", extra={"day": 5})
        assert "warning" in stream.getvalue()
        assert "day=5" in stream.getvalue()

    def test_level_filters(self):
        stream = self._capture(level="warning")
        get_logger("campaign").info("quiet")
        assert stream.getvalue() == ""

    def test_reconfigure_does_not_stack_handlers(self):
        self._capture()
        stream = self._capture()
        get_logger("x").info("once")
        assert len(stream.getvalue().strip().splitlines()) == 1

    def test_unknown_level_or_format_raises(self):
        with pytest.raises(TelemetryError):
            configure_logging(level="verbose")
        with pytest.raises(TelemetryError):
            configure_logging(fmt="yaml")

    def test_library_is_quiet_without_configuration(self):
        logger = get_logger("campaign")
        # No handler installed at import time on the repro root.
        assert logging.getLogger("repro").handlers == []
        assert logger.name == "repro.campaign"
