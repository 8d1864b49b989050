"""Deterministic event streams recovered from recorded exports.

``repro replay`` feeds the live service from a *recorded* campaign: a
framed export (or an in-memory :class:`~repro.simulation.dataset
.StudyDataset`) is unrolled back into the beacon and passive events
that produced it, in a canonical day-ascending order, as an
:class:`~repro.service.events.EventStream`: one beacon block per day,
whose RTT column joins the day's ECS cells, then the day's passive
events.  The dataset stores each measurement once, in its /24's
exact-mode ECS digest, and derives its LDNS plane from each client
record's (static) LDNS id.  Each block run carries both, so the window
rebuilds the ECS multiset and derives the same LDNS plane — which is
what lets ``tests/test_service_replay.py`` use the batch predictor as a
differential oracle for the online one.

:func:`dirty_events` rides the campaign's ``record-*`` fault vocabulary
into replay: it damages the same seed-derived (day, client) cells the
batch dirty-data chaos tests target, writing into a copy of each
damaged block's RTT column, so a replay under a lenient gate
quarantines deterministic, non-empty record sets — the chaos-parity
tests need a populated quarantine log to make its digest a meaningful
part of the bit-identity assertion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.faults.inject import RecordFaultInjector
from repro.faults.plan import FaultPlan
from repro.measurement.canonical import segment_indices
from repro.service.events import (
    BeaconBlock,
    EventStream,
    PassiveEvent,
    StreamEvent,
    StreamItem,
)
from repro.simulation.dataset import StudyDataset

#: Client label replayed passive events carry when the recorded passive
#: log is bounded (per-day front-end totals only, no per-client rows).
PASSIVE_TOTAL_KEY = "all"


def events_from_dataset(dataset: StudyDataset) -> EventStream:
    """Unroll a recorded dataset into its canonical event stream.

    Day-ascending; within a day, one beacon block (sorted by client
    /24, then target, samples in stored order), then passive counts.
    The block's RTT column joins the day's ECS cells — every joined
    measurement is stored as exactly one ECS sample — and each run's
    LDNS id comes from the client record
    (:meth:`~repro.simulation.dataset.StudyDataset.ldns_id_of`).

    Raises:
        MeasurementError: when the dataset's cells are sketch-mode
            (promoted sketches retain no samples to replay) or a group
            key has no client record to recover an LDNS id from.
    """
    ecs = dataset.ecs_aggregates
    passive = dataset.passive
    ecs_days = set(ecs.days)
    passive_days = set(passive.days)
    items: List[StreamItem] = []
    for day in sorted(ecs_days | passive_days):
        if day in ecs_days:
            items.append(_beacon_block(dataset, day))
        if day in passive_days:
            if passive.is_bounded:
                for frontend_id, count in sorted(
                    passive.day_totals(day).items()
                ):
                    items.append(
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
                        items.append(
                            PassiveEvent(
                                day=day,
                                client_key=client_key,
                                frontend_id=frontend_id,
                                count=count,
                            )
                        )
    return EventStream(items)


def _beacon_block(dataset: StudyDataset, day: int) -> BeaconBlock:
    """One day's ECS block as a beacon block: cells sorted by (/24,
    target), each cell's samples in stored order, in one gather."""
    block = dataset.ecs_aggregates.block(day)
    groups, targets = block.names()
    order = sorted(
        range(len(block)), key=lambda cell: (groups[cell], targets[cell])
    )
    ldns_of: Dict[str, str] = {}
    for cell in order:
        if groups[cell] not in ldns_of:
            ldns_of[groups[cell]] = dataset.ldns_id_of(groups[cell])
        if cell in block.sketches:
            raise MeasurementError(
                "sketch-mode export retains no samples to "
                f"replay (day {day}, group {groups[cell]!r}, "
                f"target {targets[cell]!r}); replay needs an "
                "exact-mode export"
            )
    sizes = np.diff(block.bounds)
    order = [cell for cell in order if sizes[cell]]
    lengths = sizes[order]
    return BeaconBlock(
        day,
        [(groups[cell], ldns_of[groups[cell]], targets[cell]) for cell in order],
        np.concatenate(([0], np.cumsum(lengths))),
        block.values[segment_indices(block.bounds[order], lengths)],
    )


def dirty_events(
    dataset: StudyDataset,
    events: Sequence[StreamEvent],
    plan: Optional[FaultPlan],
    seed: int,
) -> EventStream:
    """Damage a replay stream per a plan's ``record-*`` faults.

    Record-fault coordinates compile against the full population and
    calendar — exactly like the campaign's dirty-data injection — and
    land on slots within each (day, client) beacon sequence, counted in
    stream order, so the same plan and seed dirty the same stream
    positions on every run.  A damaged block gets a copy of its RTT
    column; the input is never mutated.
    """
    stream = EventStream.of(events)
    if plan is None or not plan.record_specs:
        return stream
    compiled = plan.compile_records(
        seed, dataset.calendar.num_days, len(dataset.clients)
    )
    injector = RecordFaultInjector(compiled)
    if injector.empty:
        return stream
    index_by_key = {
        client.key: i for i, client in enumerate(dataset.clients)
    }
    items = [item for _, _, item in stream.items()]
    # (day, client index) -> its beacons' (item, start, stop) runs.
    cells: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for index, item in enumerate(items):
        if not isinstance(item, BeaconBlock):
            continue
        for client_key, _, _, start, stop in item.runs():
            client_index = index_by_key.get(client_key)
            if client_index is not None:
                cells.setdefault((item.day, client_index), []).append(
                    (index, start, stop)
                )
    columns: Dict[int, np.ndarray] = {}
    for (day, client_index), runs in sorted(cells.items()):
        total = sum(stop - start for _, start, stop in runs)
        for slot, kind in sorted(
            injector.slots_for(day, client_index, total).items()
        ):
            for index, start, stop in runs:
                if slot < stop - start:
                    break
                slot -= stop - start
            column = columns.get(index)
            if column is None:
                column = columns[index] = items[index].rtts.copy()
            column[start + slot] = RecordFaultInjector.dirty_value(
                kind, float(column[start + slot])
            )
    return EventStream(
        BeaconBlock(item.day, item.keys, item.bounds, columns[index])
        if index in columns
        else item
        for index, item in enumerate(items)
    )
