"""Live service mode: streaming ingestion and the online §6 predictor.

The paper's FastRoute control loop is an always-on service: beacon and
passive-log events arrive continuously, and the §6 prediction (25th
percentile over a 1-day window, ≥ 20 samples per (group, target)) is
re-evaluated as the window slides.  This package is that loop for the
simulated pipeline:

* :mod:`repro.service.events` — the stream vocabulary (beacon/passive
  events, and the event stream that carries beacons as per-day column
  blocks) and an order-insensitive incremental dataset digest;
* :mod:`repro.service.window` — the ring-buffered sliding window of
  per-day aggregates the online predictor reads, fed a block at a time;
* :mod:`repro.service.predictor` — the online predictor, delegating
  scoring to the batch :class:`repro.core.predictor.HistoryBasedPredictor`
  so online and batch answers are bit-identical over the same window;
* :mod:`repro.service.ingest` — the ingestion loop, one synchronous
  pass over the source's day blocks (validation gate, window updates,
  day-close prediction ticks, checkpoints), with its cursor, kill
  points and spills kept in event ordinals;
* :mod:`repro.service.replay` — deterministic event streams recovered
  from recorded exports, one column block per day (the
  differential-oracle harness's source);
* :mod:`repro.service.checkpoint` — service state spill/restore with
  integrity anchors;
* :mod:`repro.service.faults` — fault-plan kill points inside the loop.

The headline guarantee, asserted by ``tests/test_service_replay.py``
and ``tests/test_service_chaos.py``: replaying a recorded campaign
through the service yields exactly the batch predictor's outputs, and a
chaos-killed-and-resumed run is bit-identical (predictions, stream
digest, quarantine digest) to an uninterrupted one.
"""

from repro.service.events import (
    BeaconBlock,
    BeaconEvent,
    EventStream,
    PassiveEvent,
    StreamDigest,
)
from repro.service.ingest import LiveService, ServiceConfig, ServiceResult
from repro.service.predictor import (
    OnlinePredictor,
    predictions_digest,
    predictions_to_obj,
)
from repro.service.replay import dirty_events, events_from_dataset
from repro.service.window import PredictionWindow

__all__ = [
    "BeaconBlock",
    "BeaconEvent",
    "EventStream",
    "LiveService",
    "OnlinePredictor",
    "PassiveEvent",
    "PredictionWindow",
    "ServiceConfig",
    "ServiceResult",
    "StreamDigest",
    "dirty_events",
    "events_from_dataset",
    "predictions_digest",
    "predictions_to_obj",
]
