"""Hand-built dataset factory for exact-value analysis tests, and the
reference implementation of the dataset digest."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.clients.population import ClientPrefix
from repro.geo.coords import GeoPoint
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.net.ip import IPv4Address, IPv4Prefix
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset


def make_client(
    index: int,
    location: GeoPoint = GeoPoint(0.0, 0.0),
    home_metro: str = "nyc",
    daily_queries: float = 10.0,
    ldns_id: str = "ldns-x",
    asn: int = 10000,
) -> ClientPrefix:
    """A synthetic client /24 with a stable key derived from ``index``."""
    network = IPv4Address((10 << 24) | (index << 8))
    return ClientPrefix(
        prefix=IPv4Prefix(network, 24),
        asn=asn,
        home_metro=home_metro,
        location=location,
        access_delay_ms=5.0,
        daily_queries=daily_queries,
        ldns_id=ldns_id,
    )


def make_dataset(
    clients: Sequence[ClientPrefix],
    num_days: int = 3,
    ecs_samples: Optional[
        Iterable[Tuple[int, str, str, Sequence[float]]]
    ] = None,
    passive_counts: Optional[
        Iterable[Tuple[int, str, str, int]]
    ] = None,
) -> StudyDataset:
    """Assemble a StudyDataset from explicit samples.

    ``ecs_samples`` rows are (day, client_key, target_id, rtts);
    ``passive_counts`` rows are (day, client_key, frontend_id, count).
    The LDNS plane is the dataset's view of the ECS samples, grouped by
    each client's ``ldns_id``.
    """
    ecs = GroupedDailyAggregates("ecs")
    for day, group, target, rtts in ecs_samples or ():
        for rtt in rtts:
            ecs.observe(day, group, target, rtt)
    passive = PassiveLog()
    for day, client_key, frontend_id, count in passive_counts or ():
        passive.record(day, client_key, frontend_id, count)
    return StudyDataset(
        calendar=SimulationCalendar(num_days=num_days),
        clients=tuple(clients),
        ecs_aggregates=ecs,
        request_diffs=RequestDiffLog(),
        passive=passive,
    )


def reference_digest(dataset: StudyDataset) -> str:
    """:meth:`StudyDataset.digest` as a plain loop, two hash updates per
    part: the definition the bulk implementation must reproduce.

    It predates the signed-zero tie rule (its sorts keep ``-0.0`` and
    ``0.0`` in input order), so it is only an oracle for datasets
    without ``-0.0``.
    """
    h = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            h.update(str(part).encode("utf-8"))
            h.update(b"\x1f")

    put("calendar", dataset.calendar.start.isoformat(), dataset.calendar.num_days)
    put("clients", len(dataset.clients))
    for client in dataset.clients:
        put(client.key)
    for aggregates in (dataset.ecs_aggregates, dataset.ldns_aggregates):
        put("aggregates", aggregates.grouping)
        for day in aggregates.days:
            for group in aggregates.groups_on(day):
                for target_id, digest in sorted(
                    aggregates.targets_for(day, group).items()
                ):
                    put(day, group, target_id)
                    if digest.is_exact:
                        ordered = np.sort(digest.values_view()).tolist()
                        for value in ordered:
                            put(repr(value))
                    else:
                        assert digest.sketch is not None
                        put("sketch", digest.sketch.digest())
    put("request_diffs", len(dataset.request_diffs))
    names = dataset.request_diffs.region_names
    if dataset.request_diffs.is_bounded:
        put("diff-sketches")
        sketches = dataset.request_diffs.day_region_sketches()
        for (day, region) in sorted(sketches):
            put(day, region, sketches[(day, region)].digest())
    else:
        for row in sorted(
            dataset.request_diffs.rows(),
            key=lambda r: (
                r.day,
                r.client_index,
                r.anycast_rtt_ms,
                r.best_unicast_rtt_ms,
            ),
        ):
            put(
                row.day,
                row.client_index,
                names[row.region_code],
                repr(row.anycast_rtt_ms),
                repr(row.best_unicast_rtt_ms),
            )
    put("passive")
    if dataset.passive.is_bounded:
        put("totals")
        for day in dataset.passive.days:
            for frontend_id, count in sorted(
                dataset.passive.day_totals(day).items()
            ):
                put(day, frontend_id, count)
    else:
        for day in dataset.passive.days:
            for client_key in sorted(dataset.passive.clients_on(day)):
                for frontend_id, count in sorted(
                    dataset.passive.frontends_for(day, client_key).items()
                ):
                    put(day, client_key, frontend_id, count)
    put("counts", dataset.beacon_count, dataset.measurement_count)
    missing = dataset.missing_ranges()
    if missing:
        put("missing", len(missing))
        for start, stop in missing:
            put(start, stop)
    if dataset.load_summary is not None:
        put("load", json.dumps(dataset.load_summary, sort_keys=True))
    return h.hexdigest()
