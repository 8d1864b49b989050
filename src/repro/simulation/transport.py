"""Columnar shard-result transport for parallel campaigns.

A shard result used to cross the process boundary as one pickle of the
whole ``(dataset, snapshot, quarantine)`` tuple — including the full
client population (identical in every shard) and a per-sample object
graph.  This module replaces that with a columnar encoding:

* the **manifest** — everything small (counts, calendar, telemetry
  snapshot, quarantine, sink configuration, and a table describing the
  data buffers) — is pickled once;
* the **data buffers** — latency-sample arrays, sketch key/count
  arrays, and the request-diff columns — are appended as raw contiguous
  bytes, no per-element serialization;
* the **client population is not shipped at all**: every shard rebuilds
  the same scenario, so the coordinator re-homes decoded datasets onto
  its own client tuple (it already did this after merging).

Layout: ``MAGIC | u64 manifest length | manifest | buffer bytes...``.
The existing SHA-256 integrity check hashes these encoded bytes
directly, so corruption anywhere — manifest or raw buffers — is
detected before a merge.

When ``multiprocessing.shared_memory`` is available and the payload is
large enough, workers ship the encoded bytes through a shared-memory
block and the envelope carries only its name; otherwise (platforms
without it, tiny payloads, in-process pools) the bytes travel inline
through the normal pool pipe.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.aggregate import (
    GroupedDailyAggregates,
    LatencyDigest,
    RequestDiffLog,
)
from repro.measurement.logs import PassiveLog
from repro.measurement.sketch import LatencySketch
from repro.simulation.dataset import StudyDataset
from repro.telemetry import get_logger

try:  # pragma: no cover - platform probe
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - exercised only where absent
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    HAVE_SHARED_MEMORY = False

_log = get_logger("transport")

#: Leading bytes of every columnar shard payload.  The digit versions
#: the manifest layout (4: ECS cells only), so a ``.cols`` sidecar of
#: an older layout misses and its export takes the framed parse.
MAGIC = b"RPRO-SHARD4\x00"

#: Payloads smaller than this ship inline even when shared memory is
#: available — a shared-memory block has fixed setup cost that only
#: pays off for real data volumes.
SHM_MIN_BYTES = 256 * 1024

_LEN = struct.Struct("<Q")


class _ColumnWriter:
    """Collects contiguous arrays; returns table indices for specs."""

    def __init__(self) -> None:
        self.table: List[Tuple[str, int]] = []
        self.chunks: List[bytes] = []

    def put(self, values: np.ndarray) -> int:
        arr = np.ascontiguousarray(values)
        self.table.append((arr.dtype.str, int(arr.size)))
        self.chunks.append(arr.tobytes())
        return len(self.table) - 1

    def put_buffer(self, raw, dtype: str) -> int:
        """Append an existing C buffer (``array`` module) verbatim."""
        return self.put(np.frombuffer(raw, dtype=np.dtype(dtype)))


class _ColumnReader:
    """Resolves table indices back into zero-copy numpy views."""

    def __init__(self, table: List[Tuple[str, int]], data: memoryview) -> None:
        self._views: List[np.ndarray] = []
        offset = 0
        for dtype_str, size in table:
            dtype = np.dtype(dtype_str)
            nbytes = dtype.itemsize * size
            self._views.append(
                np.frombuffer(data[offset : offset + nbytes], dtype=dtype)
            )
            offset += nbytes
        self.consumed = offset

    def get(self, index: int) -> np.ndarray:
        return self._views[index]


def _sketch_spec(sketch: LatencySketch, columns: _ColumnWriter) -> Dict[str, Any]:
    state = sketch.column_state()
    return {
        "mantissa_bits": state["mantissa_bits"],
        "base_mantissa_bits": state["base_mantissa_bits"],
        "max_buckets": state["max_buckets"],
        "min_trackable": state["min_trackable"],
        "pos_keys": columns.put(state["pos_keys"]),
        "pos_counts": columns.put(state["pos_counts"]),
        "neg_keys": columns.put(state["neg_keys"]),
        "neg_counts": columns.put(state["neg_counts"]),
        "zero": state["zero"],
        "count": state["count"],
        "min": state["min"],
        "max": state["max"],
        "sum": state["sum"],
    }


def _sketch_from_spec(
    spec: Dict[str, Any], columns: _ColumnReader
) -> LatencySketch:
    return LatencySketch.from_columns(
        mantissa_bits=spec["mantissa_bits"],
        base_mantissa_bits=spec["base_mantissa_bits"],
        max_buckets=spec["max_buckets"],
        min_trackable=spec["min_trackable"],
        pos_keys=columns.get(spec["pos_keys"]),
        pos_counts=columns.get(spec["pos_counts"]),
        neg_keys=columns.get(spec["neg_keys"]),
        neg_counts=columns.get(spec["neg_counts"]),
        zero=spec["zero"],
        count=spec["count"],
        minimum=spec["min"],
        maximum=spec["max"],
        total=spec["sum"],
    )


def _aggregates_spec(
    aggregates: GroupedDailyAggregates, columns: _ColumnWriter
) -> Dict[str, Any]:
    # Exact digests for one day coalesce into a single float64 column;
    # each row records its [start, stop) slice instead of a column
    # index.  One tobytes per day instead of one per digest is what
    # keeps encode (and the mirrored decode) at memcpy speed — a
    # paper-scale day holds tens of thousands of digests.
    days: Dict[int, Dict[str, Any]] = {}
    for day in aggregates.days:
        rows: List[Any] = []
        chunks: List[np.ndarray] = []
        offset = 0
        for group, target_id, digest in aggregates.iter_day(day):
            if digest.is_exact:
                view = digest.values_view()
                rows.append(
                    [group, target_id, offset, offset + view.size]
                )
                if view.size:
                    chunks.append(view)
                    offset += view.size
            else:
                assert digest.sketch is not None
                rows.append(
                    [group, target_id, _sketch_spec(digest.sketch, columns)]
                )
        days[day] = {
            "rows": rows,
            "samples": (
                columns.put(np.concatenate(chunks)) if chunks else None
            ),
        }
    return {
        "grouping": aggregates.grouping,
        "exact_threshold": aggregates.exact_threshold,
        "relative_accuracy": aggregates.relative_accuracy,
        "max_buckets": aggregates.max_buckets,
        "days": days,
    }


def _aggregates_from_spec(
    spec: Dict[str, Any], columns: _ColumnReader
) -> GroupedDailyAggregates:
    aggregates = GroupedDailyAggregates(
        spec["grouping"],
        exact_threshold=spec["exact_threshold"],
        relative_accuracy=spec["relative_accuracy"],
        max_buckets=spec["max_buckets"],
    )
    for day, day_spec in spec["days"].items():
        day = int(day)
        per_day = aggregates._days.setdefault(day, {})
        # Exact digests decode in bulk from the day's coalesced sample
        # column: one reduceat pair recovers every digest's extrema and
        # the zero-copy run sink appends the slices.  A per-digest
        # extend() would pay a Python call plus two tiny numpy
        # reductions for each of tens of thousands of digests.
        values: Optional[np.ndarray] = None
        if day_spec["samples"] is not None:
            values = columns.get(day_spec["samples"])
        runs: List[Tuple[str, str, int, int]] = []
        for row in day_spec["rows"]:
            if isinstance(row[2], dict):
                group, target_id, sketch_spec = row
                digest = LatencyDigest.from_sketch(
                    _sketch_from_spec(sketch_spec, columns),
                    exact_threshold=spec["exact_threshold"],
                    relative_accuracy=spec["relative_accuracy"],
                    max_buckets=spec["max_buckets"],
                )
                per_day.setdefault(group, {})[target_id] = digest
                continue
            group, target_id, start, stop = row
            if start == stop:
                per_day.setdefault(group, {})[target_id] = (
                    aggregates._new_digest()
                )
                continue
            runs.append((group, target_id, start, stop))
        if not runs:
            continue
        assert values is not None
        starts = np.fromiter(
            (run[2] for run in runs), dtype=np.intp, count=len(runs)
        )
        lows = np.minimum.reduceat(values, starts)
        highs = np.maximum.reduceat(values, starts)
        aggregates.observe_runs(
            day,
            [
                (group, target_id, start, stop, lows[i], highs[i])
                for i, (group, target_id, start, stop) in enumerate(runs)
            ],
            values,
        )
    return aggregates


def _diffs_spec(diffs: RequestDiffLog, columns: _ColumnWriter) -> Dict[str, Any]:
    if diffs.is_bounded:
        return {
            "bounded": True,
            "relative_accuracy": diffs.relative_accuracy,
            "max_buckets": diffs.max_buckets,
            "region_names": list(diffs.region_names),
            "total": len(diffs),
            "sketches": [
                [day, region, _sketch_spec(sketch, columns)]
                for (day, region), sketch in sorted(
                    diffs.day_region_sketches().items()
                )
            ],
        }
    return {
        "bounded": False,
        "region_names": list(diffs.region_names),
        "day": columns.put_buffer(diffs._day, "=i4"),
        "client_index": columns.put_buffer(diffs._client_index, "=i4"),
        "region_code": columns.put_buffer(diffs._region_code, "=i1"),
        "anycast": columns.put_buffer(diffs._anycast, "=f4"),
        "best_unicast": columns.put_buffer(diffs._best_unicast, "=f4"),
    }


def _diffs_from_spec(
    spec: Dict[str, Any], columns: _ColumnReader
) -> RequestDiffLog:
    if spec["bounded"]:
        diffs = RequestDiffLog(
            bounded=True,
            relative_accuracy=spec["relative_accuracy"],
            max_buckets=spec["max_buckets"],
        )
        for name in spec["region_names"]:
            diffs.region_code(name)
        for day, region, sketch_spec in spec["sketches"]:
            diffs._sketches[(int(day), region)] = _sketch_from_spec(
                sketch_spec, columns
            )
        diffs._total = int(spec["total"])
        return diffs
    diffs = RequestDiffLog()
    for name in spec["region_names"]:
        diffs.region_code(name)
    diffs._day.frombytes(columns.get(spec["day"]).tobytes())
    diffs._client_index.frombytes(
        columns.get(spec["client_index"]).tobytes()
    )
    diffs._region_code.frombytes(
        columns.get(spec["region_code"]).tobytes()
    )
    diffs._anycast.frombytes(columns.get(spec["anycast"]).tobytes())
    diffs._best_unicast.frombytes(
        columns.get(spec["best_unicast"]).tobytes()
    )
    return diffs


def _passive_spec(passive: PassiveLog) -> Dict[str, Any]:
    if passive.is_bounded:
        return {
            "bounded": True,
            "totals": {
                day: passive.day_totals(day) for day in passive.days
            },
        }
    return {"bounded": False, "days": passive._days}


def _passive_from_spec(spec: Dict[str, Any]) -> PassiveLog:
    if spec["bounded"]:
        passive = PassiveLog(bounded=True)
        for day, totals in spec["totals"].items():
            for frontend_id, count in totals.items():
                passive.record(int(day), "", frontend_id, int(count))
        return passive
    passive = PassiveLog()
    for day, per_client in spec["days"].items():
        for client_key, counts in per_client.items():
            for frontend_id, count in counts.items():
                passive.record(int(day), client_key, frontend_id, int(count))
    return passive


def encode_shard_payload(
    dataset: StudyDataset, snapshot: Any, quarantine: Any
) -> bytes:
    """Encode one shard's results as columnar transport bytes."""
    columns = _ColumnWriter()
    manifest = {
        "calendar": dataset.calendar,
        "beacon_count": dataset.beacon_count,
        "measurement_count": dataset.measurement_count,
        "covered_ranges": dataset.covered_ranges,
        "load_summary": dataset.load_summary,
        "client_count": len(dataset.clients),
        "ecs": _aggregates_spec(dataset.ecs_aggregates, columns),
        "diffs": _diffs_spec(dataset.request_diffs, columns),
        "passive": _passive_spec(dataset.passive),
        "snapshot": snapshot,
        "quarantine": quarantine,
        "columns": columns.table,
    }
    manifest_bytes = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join(
        [MAGIC, _LEN.pack(len(manifest_bytes)), manifest_bytes]
        + columns.chunks
    )


def decode_shard_payload(
    payload: bytes, clients: Tuple[Any, ...]
) -> Tuple[StudyDataset, Any, Any]:
    """Decode columnar transport bytes back into shard results.

    ``clients`` is the coordinator's own client tuple — shards never
    ship theirs (every shard rebuilds an identical population).

    Raises:
        MeasurementError: when the payload is not a columnar shard
            encoding or its buffer table disagrees with its length (the
            SHA-256 envelope check should catch corruption first; this
            is the structural backstop).
    """
    if payload[: len(MAGIC)] != MAGIC:
        raise MeasurementError(
            "shard payload is not a columnar transport encoding"
        )
    header_end = len(MAGIC) + _LEN.size
    if len(payload) < header_end:
        raise MeasurementError(
            "shard payload truncated inside its length header"
        )
    (manifest_len,) = _LEN.unpack(payload[len(MAGIC) : header_end])
    manifest_end = header_end + manifest_len
    if manifest_end > len(payload):
        raise MeasurementError(
            "shard payload truncated inside its manifest"
        )
    manifest = pickle.loads(payload[header_end:manifest_end])
    columns = _ColumnReader(
        manifest["columns"], memoryview(payload)[manifest_end:]
    )
    if manifest_end + columns.consumed != len(payload):
        raise MeasurementError(
            "shard payload length disagrees with its buffer table"
        )
    if manifest["client_count"] != len(clients):
        raise MeasurementError(
            "shard payload was produced over a different client "
            f"population ({manifest['client_count']} != {len(clients)})"
        )
    dataset = StudyDataset(
        calendar=manifest["calendar"],
        clients=clients,
        ecs_aggregates=_aggregates_from_spec(manifest["ecs"], columns),
        request_diffs=_diffs_from_spec(manifest["diffs"], columns),
        passive=_passive_from_spec(manifest["passive"]),
        beacon_count=manifest["beacon_count"],
        measurement_count=manifest["measurement_count"],
        covered_ranges=manifest["covered_ranges"],
        load_summary=manifest["load_summary"],
    )
    return dataset, manifest["snapshot"], manifest["quarantine"]


# ----------------------------------------------------------------------
# Shared-memory shipping
# ----------------------------------------------------------------------


def ship_payload(payload: bytes, use_shm: bool) -> Tuple[bytes, Optional[str]]:
    """Place encoded payload bytes for the coordinator.

    Returns ``(inline_bytes, shm_name)`` — exactly one is meaningful.
    Large payloads go into a ``multiprocessing.shared_memory`` block
    (the worker unregisters it from its resource tracker and hands
    ownership to the coordinator, which unlinks after reading); small
    payloads, in-process runs, and platforms without shared memory fall
    back to inline bytes through the pool pipe.
    """
    if (
        not use_shm
        or not HAVE_SHARED_MEMORY
        or len(payload) < SHM_MIN_BYTES
    ):
        return payload, None
    try:
        block = shared_memory.SharedMemory(create=True, size=len(payload))
    except OSError as error:  # pragma: no cover - resource exhaustion
        _log.warning(
            "shared-memory allocation failed; shipping inline",
            extra={"bytes": len(payload), "error": str(error)},
        )
        return payload, None
    try:
        block.buf[: len(payload)] = payload
        # Ownership transfers to the coordinator: stop this process's
        # resource tracker from unlinking the block at worker exit.
        try:
            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
        return b"", block.name
    finally:
        block.close()


def receive_payload(
    inline: bytes, shm_name: Optional[str], size: int
) -> bytes:
    """Fetch payload bytes the worker shipped; frees the SHM block.

    ``size`` is the exact payload length — shared-memory blocks round
    up to page granularity, so the block may be larger than the data.
    """
    if shm_name is None:
        return inline
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - defensive
        raise MeasurementError(
            f"shard shipped via shared memory ({shm_name!r}) but this "
            "platform has none"
        )
    block = shared_memory.SharedMemory(name=shm_name)
    try:
        payload = bytes(block.buf[:size])
    finally:
        block.close()
        block.unlink()
    return payload


def release_payload(shm_name: Optional[str]) -> None:
    """Unlink an unclaimed shared-memory block (stale/abandoned shard)."""
    if shm_name is None or not HAVE_SHARED_MEMORY:
        return
    try:
        block = shared_memory.SharedMemory(name=shm_name)
    except FileNotFoundError:
        return
    block.close()
    block.unlink()
