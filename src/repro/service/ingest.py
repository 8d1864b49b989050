"""The live ingestion loop: stream in, predictions and digests out.

This is the service half of the paper's FastRoute picture: an always-on
process consuming beacon and passive-log events, funneling every record
through the same :class:`~repro.measurement.validate.ValidationGate`
the batch campaign uses, folding admitted beacons into the sliding
:class:`~repro.service.window.PredictionWindow`, and re-evaluating the
§6 prediction at every day close.  The §6 predictor acts only at day
close, so nothing is decided between two events of one day: the loop is
one synchronous pass over the source's
:class:`~repro.service.events.EventStream`, one beacon block at a time.
A block is admitted by one bulk gate probe, folded into the window by
one :meth:`~repro.service.window.PredictionWindow.observe_block` and
hashed by one :meth:`~repro.service.events.StreamDigest.update_block`;
a block holding an invalid value falls back to the scalar gate, value
by value in stream order.  The cursor, the fault kill points, resume
skipping and mid-day spills all stay in event ordinals: a block is cut
at exactly those points.  Every state change is a pure function of the
admitted-event stream, and wall-clock only ever affects pacing and
telemetry, never data.

Crash safety is checkpoint-and-replay: the loop periodically spills its
whole state (cursor, window, quarantine, stream digest, closed-day
predictions) through :mod:`repro.service.checkpoint`, and a restarted
service restores the spill, then replays the source from the beginning,
skipping events its cursor already covered.  Because every component of
the state serializes bit-exactly (float64 samples via base64, floats
via ``repr``, order-insensitive digests), a killed-and-resumed run ends
bit-identical to an uninterrupted one — the chaos-parity guarantee
``tests/test_service_chaos.py`` asserts.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.predictor import PredictorConfig
from repro.errors import ConfigurationError
from repro.faults.inject import InjectedTransientError
from repro.faults.plan import FaultPlan, record_faults
from repro.identity import IDENTITY, RUN, service_context
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
    check_sketch_settings,
)
from repro.measurement.validate import (
    QuarantineLog,
    ValidationGate,
    ValidationPolicy,
)
from repro.service.checkpoint import (
    load_service_checkpoint,
    write_service_checkpoint,
)
from repro.service.events import (
    BeaconBlock,
    EventStream,
    PassiveEvent,
    StreamDigest,
    StreamEvent,
    StreamItem,
)
from repro.service.faults import ServiceFaultInjector, compile_service_plan
from repro.service.predictor import (
    DayPredictions,
    OnlinePredictor,
    predictions_digest,
    predictions_from_obj,
    predictions_to_obj,
)
from repro.service.window import PredictionWindow
from repro.simulation.campaign import CampaignProgress
from repro.simulation.clock import SECONDS_PER_DAY
from repro.telemetry import Telemetry, get_logger
from repro.telemetry.trace import SERVICE_LANE

#: Service retry budget: how many injected transient failures the
#: supervisor absorbs before giving up (crashes always propagate).
MAX_SERVICE_RETRIES = 8

_log = get_logger("service.ingest")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one live-service (or replay) run.

    The checkpoint directory, resume flag, spill cadence and pacing are
    tagged ``RUN``: they never change the data.  Every other field,
    and the ``record-*`` specs of ``fault_plan`` with their positions
    (``repro replay`` dirties the stream from them), is part of the
    identity a service checkpoint must match (:mod:`repro.identity`).

    Attributes:
        window_days: Sliding-window length in days (§6 default: 1).
        predictor: The §6 scoring parameters (percentile, sample cut).
        validation: Ingestion-gate policy (``strict``/``lenient``/
            ``repair``).
        sketch_threshold: Per-digest sketch-promotion threshold for the
            window (``None`` keeps every digest exact — oracle mode).
        sketch_accuracy: Sketch relative accuracy after promotion.
        sketch_max_buckets: Per-sketch bucket cap after promotion.
        checkpoint_dir: Directory for periodic state spills (``None``
            disables checkpointing).
        resume: Restore from ``checkpoint_dir`` before consuming (a
            missing or non-matching checkpoint starts fresh).
        checkpoint_every_events: Extra mid-day spill cadence in events
            (0 = day-close spills only).
        seed: Scenario seed (drives fault firing points).
        fault_plan: Optional deterministic fault schedule; ``crash`` and
            ``exception`` kinds fire inside the loop, and the replay
            layer dirties the stream from its ``record-*`` kinds.
        speed: Replay pacing, in simulated seconds per wall-clock second
            (86_400 = one day per second; 0 = unpaced).  A paced loop
            sleeps ``SECONDS_PER_DAY * gap / speed`` before the first
            event of each later day, where ``gap`` is how many days that
            event lies past the previous event's day.  A resumed run
            paces from its first processed event, not through the
            prefix it skips.
    """

    window_days: int = 1
    predictor: PredictorConfig = PredictorConfig()
    validation: str = "lenient"
    sketch_threshold: Optional[int] = None
    sketch_accuracy: float = DEFAULT_RELATIVE_ACCURACY
    sketch_max_buckets: int = DEFAULT_MAX_BUCKETS
    checkpoint_dir: Optional[str] = field(default=None, metadata=RUN)
    resume: bool = field(default=False, metadata=RUN)
    checkpoint_every_events: int = field(default=0, metadata=RUN)
    seed: int = 0
    fault_plan: Optional[FaultPlan] = field(
        default=None, metadata={IDENTITY: record_faults}
    )
    speed: float = field(default=0.0, metadata=RUN)

    def __post_init__(self) -> None:
        ValidationPolicy.parse(self.validation)
        if self.window_days < 1:
            raise ConfigurationError("window_days must be >= 1")
        check_sketch_settings(
            self.sketch_threshold, self.sketch_accuracy, self.sketch_max_buckets
        )
        if self.speed < 0:
            raise ConfigurationError("speed must be >= 0")
        if self.checkpoint_every_events < 0:
            raise ConfigurationError("checkpoint_every_events must be >= 0")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume requires a checkpoint directory"
            )


@dataclass
class ServiceResult:
    """Everything one service run produced.

    The three digests are the bit-identity surface of the chaos-parity
    guarantee: an uninterrupted run and a killed-and-resumed run of the
    same stream agree on all three, bit for bit.
    """

    predictions: Dict[int, DayPredictions]
    predictions_digest: str
    stream_digest: str
    stream_count: int
    quarantine_digest: str
    quarantine_summary: Dict[str, Any]
    num_days: int
    events_total: int
    beacons_admitted: int
    beacons_repaired: int
    passive_admitted: int
    late_drops: int
    days_closed: int
    attempt: int
    retries: int
    resumed_from_cursor: int
    checkpoints_written: int
    elapsed_seconds: float

    def manifest(self) -> Dict[str, Any]:
        """The JSON document ``--manifest-out`` writes (CI artifact)."""
        return {
            "mode": "service",
            "num_days": self.num_days,
            "events_total": self.events_total,
            "beacons_admitted": self.beacons_admitted,
            "beacons_repaired": self.beacons_repaired,
            "passive_admitted": self.passive_admitted,
            "late_drops": self.late_drops,
            "days_closed": self.days_closed,
            "attempt": self.attempt,
            "retries": self.retries,
            "resumed_from_cursor": self.resumed_from_cursor,
            "checkpoints_written": self.checkpoints_written,
            "elapsed_seconds": self.elapsed_seconds,
            "digests": {
                "predictions": self.predictions_digest,
                "stream": self.stream_digest,
                "quarantine": self.quarantine_digest,
            },
            "stream_count": self.stream_count,
            "quarantine": self.quarantine_summary,
        }


class LiveService:
    """The ingestion loop over one event stream.

    Args:
        config: The run's knobs.
        num_days: Calendar length; every day in ``[0, num_days)`` closes
            exactly once (empty days close with empty predictions), so
            runs over the same stream always close the same day set.
        telemetry: Optional run telemetry; the service claims the trace
            timeline's service lane and publishes ``service.*`` counters.
        progress_listener: Optional hook receiving
            :class:`~repro.simulation.campaign.CampaignProgress` at every
            day close (the CLI ``--progress`` ticker).
        source_fingerprint: Identity of the event source (a dataset
            digest, a config hash); checkpoints only apply to the source
            they were taken from.
    """

    def __init__(
        self,
        config: ServiceConfig,
        num_days: int,
        telemetry: Optional[Telemetry] = None,
        progress_listener: Optional[
            Callable[[CampaignProgress], None]
        ] = None,
        source_fingerprint: str = "",
    ) -> None:
        if num_days < 1:
            raise ConfigurationError("num_days must be >= 1")
        self.config = config
        self.num_days = num_days
        self.telemetry = telemetry
        self.progress_listener = progress_listener
        # What a checkpoint must match to apply: the data settings, the
        # calendar and the stream source.
        self._identity = {
            "config_hash": service_context(config).config_hash,
            "num_days": num_days,
            "source": source_fingerprint,
        }
        self._compiled = compile_service_plan(config.fault_plan, config.seed)
        self._attempt = 0
        self._retries = 0
        self._reset_state()

    # ------------------------------------------------------------------
    # State lifecycle
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        cfg = self.config
        self.window = PredictionWindow(
            window_days=cfg.window_days,
            exact_threshold=cfg.sketch_threshold,
            relative_accuracy=cfg.sketch_accuracy,
            max_buckets=cfg.sketch_max_buckets,
        )
        self.online = OnlinePredictor(self.window, cfg.predictor)
        self.gate = ValidationGate(cfg.validation)
        self.stream = StreamDigest()
        self._cursor = 0
        self._start_cursor = 0
        self._current_day: Optional[int] = None
        self._day_beacons = 0
        self._day_passive = 0
        self._beacons_admitted = 0
        self._passive_admitted = 0
        self._days_closed = 0
        self._checkpoints_written = 0
        self._since_checkpoint = 0
        self._resumed_from = 0
        self._injector: Optional[ServiceFaultInjector] = None
        # Pacing starts at the first event an attempt processes: a
        # resume does not wait through the prefix it skips.
        self._paced_day: Optional[int] = None

    def _state_obj(self) -> Dict[str, Any]:
        return {
            "cursor": self._cursor,
            "attempt": self._attempt,
            "current_day": self._current_day,
            "day_beacons": self._day_beacons,
            "day_passive": self._day_passive,
            "beacons_admitted": self._beacons_admitted,
            "passive_admitted": self._passive_admitted,
            "days_closed": self._days_closed,
            "records_total": self.gate.records_total,
            "dropped_total": self.gate.dropped_total,
            "repaired_total": self.gate.repaired_total,
            "window": self.window.to_obj(),
            "quarantine": self.gate.quarantine.to_obj(),
            "stream": self.stream.to_obj(),
            "predictions": predictions_to_obj(self.online.by_day),
        }

    def _restore_state(self, state: Dict[str, Any]) -> None:
        cfg = self.config
        self.window = PredictionWindow.from_obj(state["window"])
        self.online = OnlinePredictor(self.window, cfg.predictor)
        self.online.by_day = predictions_from_obj(state["predictions"])
        self.gate = ValidationGate(
            cfg.validation, quarantine=QuarantineLog.from_obj(state["quarantine"])
        )
        self.gate.records_total = int(state["records_total"])
        self.gate.dropped_total = int(state["dropped_total"])
        self.gate.repaired_total = int(state["repaired_total"])
        self.stream = StreamDigest.from_obj(state["stream"])
        self._cursor = int(state["cursor"])
        self._start_cursor = self._cursor
        self._resumed_from = self._cursor
        current_day = state["current_day"]
        self._current_day = None if current_day is None else int(current_day)
        self._day_beacons = int(state["day_beacons"])
        self._day_passive = int(state["day_passive"])
        self._beacons_admitted = int(state["beacons_admitted"])
        self._passive_admitted = int(state["passive_admitted"])
        self._days_closed = int(state["days_closed"])
        self._attempt = max(self._attempt, int(state["attempt"]) + 1)

    def _write_checkpoint(self) -> None:
        if self.config.checkpoint_dir is None:
            return
        write_service_checkpoint(
            self.config.checkpoint_dir, self._identity, self._state_obj()
        )
        self._checkpoints_written += 1
        self._since_checkpoint = 0

    # ------------------------------------------------------------------
    # Block processing (synchronous, deterministic)
    # ------------------------------------------------------------------

    def _close_day(self, day: int) -> None:
        self.online.close_day(day)
        self._days_closed += 1
        if self.telemetry is not None:
            self.telemetry.trace.instant(
                "service.day",
                "service",
                shard=SERVICE_LANE,
                scope="data",
                index=str(day),
                beacons=self._day_beacons,
                passive=self._day_passive,
            )
        self._day_beacons = 0
        self._day_passive = 0
        self.window.advance_to(day + 1)
        # Advance the day cursor *before* spilling: the checkpoint must
        # say "day closed, its bucket evicted, predictions recorded" as
        # one consistent fact, or a resume would re-close the day over
        # an already-evicted (empty) bucket and wipe its predictions.
        self._current_day = day + 1
        self._write_checkpoint()
        self._emit_progress(day)

    def _emit_progress(self, day: int) -> None:
        if self.progress_listener is None:
            return
        elapsed = time.monotonic() - self._started
        beacons = self._beacons_admitted
        self.progress_listener(
            CampaignProgress(
                days_completed=min(day + 1, self.num_days),
                num_days=self.num_days,
                beacons=beacons,
                beacons_per_second=beacons / elapsed if elapsed > 0 else 0.0,
                elapsed_seconds=elapsed,
                retries=self._retries,
            )
        )

    def _advance_day_to(self, day: int) -> None:
        if self._current_day is None:
            self._current_day = day
            return
        if day <= self._current_day:
            return
        for stale in range(self._current_day, day):
            self._close_day(stale)

    def _admit_passive(self, event: PassiveEvent) -> None:
        admitted_count = self.gate.admit_count(
            event.day, event.client_key, event.frontend_id, event.count
        )
        if admitted_count is None:
            return
        if admitted_count != event.count:
            event = dataclasses.replace(event, count=admitted_count)
        self.stream.update(event)
        self._passive_admitted += 1
        if event.day == self._current_day:
            self._day_passive += 1

    def _admit_beacons(self, block: BeaconBlock) -> None:
        if not self.gate.admit_bulk_valid(block.rtts):
            block = self._admit_one_by_one(block)
        if self.window.observe_block(block):
            self.stream.update_block(block)
            self._beacons_admitted += len(block)
            if block.day == self._current_day:
                self._day_beacons += len(block)

    def _admit_one_by_one(self, block: BeaconBlock) -> BeaconBlock:
        """Gate a block holding an invalid value one record at a time.

        Each value passes ``gate.admit`` in stream order with record
        index ``-1``, so quarantine coordinates and a strict raise are
        those of a per-event gate.  Returns the admitted beacons, with
        repaired values clamped: the window and the digest see those.
        """
        keys, columns = [], []
        values = block.rtts.tolist()
        for client_key, ldns_id, target_id, start, stop in block.runs():
            admitted = (
                self.gate.admit(block.day, client_key, -1, value)
                for value in values[start:stop]
            )
            keys.append((client_key, ldns_id, target_id))
            columns.append(
                np.array([v for v in admitted if v is not None], np.float64)
            )
        return BeaconBlock.from_columns(block.day, keys, columns)

    def _consume(self, start: int, stop: int, item: StreamItem) -> None:
        """Process the events ``[start, stop)`` of one stream item.

        The item is cut only at event ordinals the service keeps: the
        attempt's kill point, the resume cursor (events before it are
        skipped, the restored state covers them) and the mid-day spill
        cadence.  Pacing sleeps before the item's first processed event
        when its day lies past the last paced day.
        """
        cfg = self.config
        # Without a checkpoint directory no spill happens (nor resets
        # the count), so there is no cadence to cut at.
        every = cfg.checkpoint_every_events if cfg.checkpoint_dir else 0
        kill_at = None if self._injector is None else self._injector.fire_at
        position = start
        while position < stop:
            if position >= self._start_cursor:
                self._pace(item.day)
            if kill_at is not None and position >= kill_at:
                self._injector.on_event(position)  # raises
            end = stop if kill_at is None else min(stop, kill_at)
            if position < self._start_cursor:
                # Replayed tail of an already-checkpointed prefix: the
                # restored state covers it, so skipping is what makes the
                # at-least-once replay exactly-once in effect.
                position = min(end, self._start_cursor)
                continue
            self._advance_day_to(item.day)
            if every:
                end = min(end, position + every - self._since_checkpoint)
            if isinstance(item, BeaconBlock):
                self._admit_beacons(item.slice(position - start, end - start))
            else:
                self._admit_passive(item)
            self._cursor = end
            self._since_checkpoint += end - position
            if every and self._since_checkpoint >= every:
                self._write_checkpoint()
            position = end

    def _pace(self, day: int) -> None:
        speed = self.config.speed
        if speed <= 0:
            return
        if self._paced_day is not None and day > self._paced_day:
            time.sleep(SECONDS_PER_DAY * (day - self._paced_day) / speed)
        self._paced_day = day

    def _finish(self) -> None:
        first = 0 if self._current_day is None else self._current_day
        for day in range(first, self.num_days):
            self._close_day(day)
        self._current_day = self.num_days

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _run_attempt(self, stream: EventStream) -> None:
        self._attempt_setup()
        span = (
            self.telemetry.span("service.consume")
            if self.telemetry is not None
            else nullcontext()
        )
        with span:
            for start, stop, item in stream.items():
                self._consume(start, stop, item)
            self._finish()

    def _attempt_setup(self) -> None:
        cfg = self.config
        self._reset_state()
        if cfg.checkpoint_dir is not None and (
            cfg.resume or self._attempt > 0
        ):
            state = load_service_checkpoint(
                cfg.checkpoint_dir, self._identity
            )
            if state is not None:
                self._restore_state(state)
                _log.info(
                    "service resumed",
                    extra={
                        "cursor": self._cursor,
                        "attempt": self._attempt,
                    },
                )
        kind = (
            self._compiled.fault_for(0, self._attempt)
            if self._compiled is not None
            else None
        )
        self._injector = (
            None
            if kind is None
            else ServiceFaultInjector(
                kind, cfg.seed, self._attempt, horizon=self._horizon
            )
        )
        # Spill the attempt's starting state immediately (re-spilling the
        # restored state with the bumped attempt counter).  A crash that
        # fires before the first day ever closes would otherwise leave no
        # checkpoint behind, and the next process would restart at
        # attempt 0 — hitting the same deterministic crash forever.
        self._write_checkpoint()

    def run_stream(self, events: Sequence[StreamEvent]) -> ServiceResult:
        """Consume the stream to completion and return the run's result.

        The pass over ``events`` is synchronous and blocks the caller,
        pacing sleeps included, so it runs the same from plain code and
        from inside a running event loop.  Transient injected failures
        restart the pass (restoring the latest checkpoint when one
        exists) up to :data:`MAX_SERVICE_RETRIES` times; injected crashes
        propagate — they model the process dying, and the caller (or the
        next ``--resume-from`` invocation) owns the restart.
        """
        self._started = time.monotonic()
        stream = EventStream.of(events)
        self._horizon = max(1, len(stream))
        telemetry = self.telemetry
        old_lane = None
        if telemetry is not None:
            old_lane = telemetry.trace.lane
            telemetry.trace.lane = SERVICE_LANE
        try:
            while True:
                try:
                    self._run_attempt(stream)
                    break
                except InjectedTransientError:
                    self._retries += 1
                    self._attempt += 1
                    if self._retries > MAX_SERVICE_RETRIES:
                        raise
                    _log.warning(
                        "service loop restarting after transient fault",
                        extra={"attempt": self._attempt},
                    )
            self._write_checkpoint()
            return self._result()
        finally:
            if telemetry is not None:
                telemetry.trace.lane = old_lane
                self._publish_counters()

    # ------------------------------------------------------------------
    # Results and telemetry
    # ------------------------------------------------------------------

    def _result(self) -> ServiceResult:
        return ServiceResult(
            predictions=self.online.by_day,
            predictions_digest=predictions_digest(self.online.by_day),
            stream_digest=self.stream.hexdigest(),
            stream_count=self.stream.count,
            quarantine_digest=self.gate.quarantine.digest(),
            quarantine_summary=self.gate.quarantine.summary(),
            num_days=self.num_days,
            events_total=self.gate.records_total,
            beacons_admitted=self._beacons_admitted,
            beacons_repaired=self.gate.repaired_total,
            passive_admitted=self._passive_admitted,
            late_drops=self.window.late_drops,
            days_closed=self._days_closed,
            attempt=self._attempt,
            retries=self._retries,
            resumed_from_cursor=self._resumed_from,
            checkpoints_written=self._checkpoints_written,
            elapsed_seconds=time.monotonic() - self._started,
        )

    def _publish_counters(self) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        pairs = {
            "service.events.total": self.gate.records_total,
            "service.beacons.admitted": self._beacons_admitted,
            "service.records.dropped": self.gate.dropped_total,
            "service.records.repaired": self.gate.repaired_total,
            "service.passive.admitted": self._passive_admitted,
            "service.window.late_drops": self.window.late_drops,
            "service.days.closed": self._days_closed,
            "service.checkpoints.written": self._checkpoints_written,
            "service.retries": self._retries,
        }
        for name, value in pairs.items():
            if value:
                telemetry.counter(name).inc(value)
