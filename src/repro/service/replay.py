"""Deterministic event streams recovered from recorded exports.

``repro replay`` feeds the live service from a *recorded* campaign: a
framed export (or an in-memory :class:`~repro.simulation.dataset
.StudyDataset`) is unrolled back into the beacon and passive events
that produced it, in a canonical day-ascending order.  The dataset
stores each measurement once, in its /24's exact-mode ECS digest, and
derives its LDNS plane from each client record's (static) LDNS id.
Each event carries both, so the window rebuilds the ECS multiset and
derives the same LDNS plane — which is what lets
``tests/test_service_replay.py`` use the batch predictor as a
differential oracle for the online one.

:func:`dirty_events` rides the campaign's ``record-*`` fault vocabulary
into replay: it damages the same seed-derived (day, client) cells the
batch dirty-data chaos tests target, so a replay under a lenient gate
quarantines deterministic, non-empty record sets — the chaos-parity
tests need a populated quarantine log to make its digest a meaningful
part of the bit-identity assertion.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.faults.inject import RecordFaultInjector
from repro.faults.plan import FaultPlan
from repro.service.events import BeaconEvent, PassiveEvent, StreamEvent
from repro.simulation.dataset import StudyDataset

#: Client label replayed passive events carry when the recorded passive
#: log is bounded (per-day front-end totals only, no per-client rows).
PASSIVE_TOTAL_KEY = "all"


def events_from_dataset(dataset: StudyDataset) -> List[StreamEvent]:
    """Unroll a recorded dataset into its canonical event stream.

    Day-ascending; within a day, beacons first (sorted by client /24,
    then target, samples in stored order), then passive counts.  The
    ECS aggregates are the beacon source of truth — every joined
    measurement is stored as exactly one ECS sample — and each event's
    LDNS id comes from the client record
    (:meth:`~repro.simulation.dataset.StudyDataset.ldns_id_of`).

    Raises:
        MeasurementError: when the dataset's digests are sketch-mode
            (promoted sketches retain no samples to replay) or a group
            key has no client record to recover an LDNS id from.
    """
    ecs = dataset.ecs_aggregates
    passive = dataset.passive
    ecs_days = set(ecs.days)
    passive_days = set(passive.days)
    events: List[StreamEvent] = []
    for day in sorted(ecs_days | passive_days):
        if day in ecs_days:
            for group in sorted(ecs.groups_on(day)):
                ldns_id = dataset.ldns_id_of(group)
                for target_id, digest in sorted(
                    ecs.targets_for(day, group).items()
                ):
                    if not digest.is_exact:
                        raise MeasurementError(
                            "sketch-mode export retains no samples to "
                            f"replay (day {day}, group {group!r}, "
                            f"target {target_id!r}); replay needs an "
                            "exact-mode export"
                        )
                    for value in digest.values_view().tolist():
                        events.append(
                            BeaconEvent(
                                day=day,
                                client_key=group,
                                ldns_id=ldns_id,
                                target_id=target_id,
                                rtt_ms=value,
                            )
                        )
        if day in passive_days:
            if passive.is_bounded:
                for frontend_id, count in sorted(
                    passive.day_totals(day).items()
                ):
                    events.append(
                        PassiveEvent(
                            day=day,
                            client_key=PASSIVE_TOTAL_KEY,
                            frontend_id=frontend_id,
                            count=count,
                        )
                    )
            else:
                for client_key in sorted(passive.clients_on(day)):
                    for frontend_id, count in sorted(
                        passive.frontends_for(day, client_key).items()
                    ):
                        events.append(
                            PassiveEvent(
                                day=day,
                                client_key=client_key,
                                frontend_id=frontend_id,
                                count=count,
                            )
                        )
    return events


def dirty_events(
    dataset: StudyDataset,
    events: List[StreamEvent],
    plan: Optional[FaultPlan],
    seed: int,
) -> List[StreamEvent]:
    """Damage a replay stream per a plan's ``record-*`` faults.

    Record-fault coordinates compile against the full population and
    calendar — exactly like the campaign's dirty-data injection — and
    land on slots within each (day, client) beacon block, so the same
    plan and seed dirty the same stream positions on every run.
    Returns a new list; the input is never mutated.
    """
    result = list(events)
    if plan is None or not plan.record_specs:
        return result
    compiled = plan.compile_records(
        seed, dataset.calendar.num_days, len(dataset.clients)
    )
    injector = RecordFaultInjector(compiled)
    if injector.empty:
        return result
    index_by_key = {
        client.key: i for i, client in enumerate(dataset.clients)
    }
    blocks: Dict[Tuple[int, int], List[int]] = {}
    for position, event in enumerate(result):
        if not isinstance(event, BeaconEvent):
            continue
        client_index = index_by_key.get(event.client_key)
        if client_index is None:
            continue
        blocks.setdefault((event.day, client_index), []).append(position)
    for (day, client_index), positions in sorted(blocks.items()):
        slots = injector.slots_for(day, client_index, len(positions))
        for slot, kind in sorted(slots.items()):
            position = positions[slot]
            event = result[position]
            assert isinstance(event, BeaconEvent)
            result[position] = dataclasses.replace(
                event,
                rtt_ms=RecordFaultInjector.dirty_value(kind, event.rtt_ms),
            )
    return result
