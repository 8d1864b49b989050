"""The dataset column codec: every byte stream a dataset travels in.

Samples, sketch buckets, request-diff rows and passive counts become
bytes and come back through this module only, so every layout decision
about the sinks sits here.  The shard transport (:func:`encode_shard_payload`),
which the ``.cols`` sidecar and shard checkpoints reuse, ships one binary
payload: ``MAGIC | u64 manifest length | manifest pickle | column
bytes``, without the client population (every shard rebuilds it).  The
framed export and the service window checkpoint hold JSON blocks: one
per day of aggregates or of diff sketches, one per slice of diff rows.

Specs are JSON-safe and point into a column table.  A day of aggregates
is its :class:`~repro.measurement.aggregate.DayBlock`: the block's one
float64 sample column, and per cell in block order a row
``[group, target, start, stop]``, a slice of it, or ``[group, target,
sketch spec]`` with four int64 key and count columns; decoding builds
the block over a view of the column, without per-cell copies.  Diff
rows keep the log's dtypes (i4 day, i4 client, i1 region, f4 and f4
RTTs).  A JSON block adds ``"columns": [[dtype, count], ...]`` and
``"data"``, the base64 of its columns back to back.  Frames and
payloads pass their CRC or SHA-256 checks whatever they carry, so every
reader raises :class:`~repro.errors.MeasurementError` on a column dtype
the writer never emits, a column table whose byte total differs from
the data, exact rows that do not tile their day's sample column in
order, or sketch key and count columns of unequal length.

Large payloads ship through a ``multiprocessing.shared_memory`` block
where one is available, and inline through the pool pipe otherwise.
"""

from __future__ import annotations

import base64
import pickle
import struct
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
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
#: the manifest layout (5: bounded diff sketches and passive counts in
#: per-day specs), so a payload of an older layout is refused.
MAGIC = b"RPRO-SHARD5\x00"

#: Payloads smaller than this ship inline even when shared memory is
#: available — a shared-memory block has fixed setup cost that only
#: pays off for real data volumes.
SHM_MIN_BYTES = 256 * 1024

_LEN = struct.Struct("<Q")

#: The dtype string of each column kind the writer emits.
_DTYPES = {kind: np.dtype(kind).str for kind in ("f8", "f4", "i8", "i4", "i1")}


@contextmanager
def _decoding(what: str) -> Iterator[None]:
    """Turn a malformed spec's lookup, type and value errors into one
    :class:`MeasurementError` naming ``what``."""
    try:
        yield
    except (
        AttributeError, IndexError, KeyError, TypeError, ValueError
    ) as error:
        raise MeasurementError(f"malformed {what} ({error!r})") from error


class _ColumnWriter:
    """Collects contiguous arrays; returns table indices for specs."""

    def __init__(self) -> None:
        self.table: List[List[Any]] = []
        self.chunks: List[bytes] = []

    def put(self, values: np.ndarray) -> int:
        arr = np.ascontiguousarray(values)
        self.table.append([arr.dtype.str, int(arr.size)])
        self.chunks.append(arr.tobytes())
        return len(self.table) - 1

    def block(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``spec`` as a JSON block: its column table and base64 data."""
        spec["columns"] = self.table
        spec["data"] = base64.b64encode(b"".join(self.chunks)).decode("ascii")
        return spec


class _ColumnReader:
    """Checks a column table against its data; serves zero-copy views."""

    def __init__(self, table: Any, data: memoryview) -> None:
        spans: List[Tuple[np.dtype, int, int]] = []
        offset = 0
        with _decoding("column table"):
            for dtype_str, size in table:
                if dtype_str not in _DTYPES.values():
                    raise MeasurementError(
                        f"column dtype {dtype_str!r} is not one the "
                        "codec writes"
                    )
                if type(size) is not int or size < 0:
                    raise MeasurementError(f"column length {size!r}")
                dtype = np.dtype(dtype_str)
                spans.append((dtype, offset, offset + dtype.itemsize * size))
                offset = spans[-1][2]
        if offset != len(data):
            raise MeasurementError(
                f"column table describes {offset} bytes but the data "
                f"holds {len(data)}"
            )
        self._views = [
            np.frombuffer(data[start:stop], dtype=dtype)
            for dtype, start, stop in spans
        ]

    @classmethod
    def of_block(cls, block: Dict[str, Any]) -> "_ColumnReader":
        """The columns of a :meth:`_ColumnWriter.block` block."""
        with _decoding("block columns"):
            data = base64.b64decode(block["data"], validate=True)
            return cls(block["columns"], memoryview(data))

    def get(self, index: Any, kind: str) -> np.ndarray:
        """Column ``index``, which must hold dtype ``kind``."""
        if type(index) is not int or not 0 <= index < len(self._views):
            raise MeasurementError(f"column index {index!r} out of range")
        view = self._views[index]
        if view.dtype.str != _DTYPES[kind]:
            raise MeasurementError(
                f"column {index} holds {view.dtype.str}, not {_DTYPES[kind]}"
            )
        return view


# ----------------------------------------------------------------------
# Specs: a sketch, a day of aggregates, diff rows, a day of diff sketches
# ----------------------------------------------------------------------

#: The int64 columns of a sketch spec.
_SKETCH_COLUMNS = ("pos_keys", "pos_counts", "neg_keys", "neg_counts")


def _sketch_spec(sketch: LatencySketch, columns: _ColumnWriter) -> Dict[str, Any]:
    spec = sketch.column_state()
    for key in _SKETCH_COLUMNS:
        spec[key] = columns.put(spec[key])
    return spec


def _sketch_from_spec(
    spec: Dict[str, Any], columns: _ColumnReader
) -> LatencySketch:
    arrays = {key: columns.get(spec[key], "i8") for key in _SKETCH_COLUMNS}
    if (
        arrays["pos_keys"].size != arrays["pos_counts"].size
        or arrays["neg_keys"].size != arrays["neg_counts"].size
    ):
        raise MeasurementError("sketch key and count columns differ in length")
    return LatencySketch.from_columns(
        mantissa_bits=spec["mantissa_bits"],
        base_mantissa_bits=spec["base_mantissa_bits"],
        max_buckets=spec["max_buckets"],
        min_trackable=spec["min_trackable"],
        zero=spec["zero"],
        count=spec["count"],
        minimum=spec["min"],
        maximum=spec["max"],
        total=spec["sum"],
        **arrays,
    )


def _day_spec(
    aggregates: GroupedDailyAggregates, day: int, columns: _ColumnWriter
) -> Dict[str, Any]:
    # The day's block already is the wire layout: exact rows are its
    # [start, stop) slices over its one sample column, so encoding costs
    # one row list per cell and one copy of the column.
    block = aggregates.block(day)
    groups, targets = block.names()
    bounds = block.bounds.tolist()
    rows: List[Any] = [
        [group, target_id, start, stop]
        for group, target_id, start, stop in zip(
            groups, targets, bounds, bounds[1:]
        )
    ]
    for cell, sketch in sorted(block.sketches.items()):
        rows[cell] = [groups[cell], targets[cell], _sketch_spec(sketch, columns)]
    return {
        "rows": rows,
        "samples": columns.put(block.values) if block.values.size else None,
    }


def _apply_day_spec(
    aggregates: GroupedDailyAggregates,
    day: int,
    spec: Dict[str, Any],
    columns: _ColumnReader,
) -> None:
    # Rows decode straight into a DayBlock over the day's sample column
    # (a zero-copy view of the frame or payload bytes); only rows out of
    # block order fold cell by cell.
    with _decoding(f"day {day} block"):
        values = (
            np.empty(0)
            if spec["samples"] is None
            else columns.get(spec["samples"], "f8")
        )
        rows = spec["rows"]
        groups = [row[0] for row in rows]
        targets = [row[1] for row in rows]
        sketches: Dict[int, LatencySketch] = {}
        for cell, row in enumerate(rows):
            if len(row) != 4:
                _, _, sketch_spec = row
                sketches[cell] = _sketch_from_spec(sketch_spec, columns)
        exact = (
            [row for cell, row in enumerate(rows) if cell not in sketches]
            if sketches
            else rows
        )
        first = np.fromiter((row[2] for row in exact), np.int64, len(exact))
        last = np.fromiter((row[3] for row in exact), np.int64, len(exact))
    # The exact rows tile the column in order: each start is the
    # previous stop (0 first), no slice runs backwards, and the last
    # stop is the column length.
    edges = np.concatenate(([0], last))
    if not (
        np.array_equal(first, edges[:-1])
        and edges[-1] == values.size
        and (last >= first).all()
    ):
        raise MeasurementError(
            f"day {day}: exact rows do not tile the day's "
            f"{values.size}-sample column in order"
        )
    if not rows:
        return
    # A sketch row's empty slice sits where the column has got to.
    ends = np.zeros(len(rows), dtype=np.int64)
    is_exact = np.ones(len(rows), dtype=bool)
    is_exact[list(sketches)] = False
    ends[is_exact] = last
    aggregates.add_cells(
        day,
        groups,
        targets,
        np.concatenate(([0], np.maximum.accumulate(ends))),
        values,
        sketches,
    )


#: The columns of a diff-row spec: (spec key, log array, dtype).
_DIFF_COLUMNS = (
    ("day", "_day", "i4"),
    ("client_index", "_client_index", "i4"),
    ("region_code", "_region_code", "i1"),
    ("anycast", "_anycast", "f4"),
    ("best_unicast", "_best_unicast", "f4"),
)


def _diff_rows_spec(
    diffs: RequestDiffLog, start: int, stop: int, columns: _ColumnWriter
) -> Dict[str, Any]:
    spec: Dict[str, Any] = {
        key: columns.put(
            np.frombuffer(getattr(diffs, name), _DTYPES[kind])[start:stop]
        )
        for key, name, kind in _DIFF_COLUMNS
    }
    spec["region_names"] = list(diffs.region_names)
    return spec


def _apply_diff_rows_spec(
    diffs: RequestDiffLog, spec: Dict[str, Any], columns: _ColumnReader
) -> None:
    with _decoding("request-diff block"):
        names = [str(name) for name in spec["region_names"]]
        cols = {
            key: columns.get(spec[key], kind)
            for key, _, kind in _DIFF_COLUMNS
        }
    region = cols["region_code"]
    if len({col.size for col in cols.values()}) != 1:
        raise MeasurementError("request-diff columns differ in length")
    if region.size and not 0 <= region.min() <= region.max() < len(names):
        raise MeasurementError("request-diff region code has no region name")
    # Region codes remap through the names: the log may have met its
    # regions in another order.
    codes = np.asarray([diffs.region_code(n) for n in names], dtype=np.int8)
    cols["region_code"] = codes[region]
    for key, name, _ in _DIFF_COLUMNS:
        getattr(diffs, name).frombytes(cols[key].tobytes())


def _diff_sketches_spec(
    diffs: RequestDiffLog, day: int, columns: _ColumnWriter
) -> Dict[str, Any]:
    return {
        "sketches": [
            [region, _sketch_spec(sketch, columns)]
            for (of_day, region), sketch in sorted(diffs._sketches.items())
            if of_day == day
        ]
    }


def _apply_diff_sketches_spec(
    diffs: RequestDiffLog,
    day: int,
    spec: Dict[str, Any],
    columns: _ColumnReader,
) -> None:
    with _decoding(f"day {day} diff-sketch block"):
        sketches = [
            (str(region), _sketch_from_spec(sketch_spec, columns))
            for region, sketch_spec in spec["sketches"]
        ]
    for region, sketch in sketches:
        diffs.region_code(region)
        mine = diffs._sketches.get((day, region))
        if mine is None:
            diffs._sketches[(day, region)] = sketch
        else:
            mine.merge(sketch)
        diffs._total += sketch.count


# ----------------------------------------------------------------------
# JSON blocks (framed export, window checkpoint) and passive days.  The
# apply_* readers raise MeasurementError on a block that fails a check.
# ----------------------------------------------------------------------


def encode_day_block(
    aggregates: GroupedDailyAggregates, day: int
) -> Dict[str, Any]:
    """One day of aggregates as a JSON block."""
    columns = _ColumnWriter()
    return columns.block(_day_spec(aggregates, day, columns))


def apply_day_block(
    aggregates: GroupedDailyAggregates, day: int, block: Dict[str, Any]
) -> None:
    """Add an :func:`encode_day_block` block's cells to ``aggregates``."""
    _apply_day_spec(aggregates, day, block, _ColumnReader.of_block(block))


def encode_diff_rows(
    diffs: RequestDiffLog, start: int, stop: int
) -> Dict[str, Any]:
    """Rows ``[start, stop)`` of an exact diff log as a JSON block."""
    columns = _ColumnWriter()
    return columns.block(_diff_rows_spec(diffs, start, stop, columns))


def apply_diff_rows(diffs: RequestDiffLog, block: Dict[str, Any]) -> None:
    """Append an :func:`encode_diff_rows` block's rows to ``diffs``."""
    _apply_diff_rows_spec(diffs, block, _ColumnReader.of_block(block))


def encode_diff_sketches(diffs: RequestDiffLog, day: int) -> Dict[str, Any]:
    """One day of a bounded diff log's region sketches as a JSON block."""
    columns = _ColumnWriter()
    return columns.block(_diff_sketches_spec(diffs, day, columns))


def apply_diff_sketches(
    diffs: RequestDiffLog, day: int, block: Dict[str, Any]
) -> None:
    """Merge an :func:`encode_diff_sketches` block into ``diffs``."""
    columns = _ColumnReader.of_block(block)
    _apply_diff_sketches_spec(diffs, day, block, columns)


def passive_day_obj(passive: PassiveLog, day: int) -> Dict[str, Any]:
    """One day of a passive log: front end → count when bounded, else
    client → front end → count."""
    if passive.is_bounded:
        return passive.day_totals(day)
    return dict(passive.iter_day(day))


def apply_passive_day(
    passive: PassiveLog, day: int, obj: Dict[str, Any]
) -> None:
    """Add a :func:`passive_day_obj` day's counts to ``passive``."""
    with _decoding(f"day {day} passive counts"):
        per_client = {"": obj} if passive.is_bounded else obj
        for client_key, counts in per_client.items():
            for frontend_id, count in counts.items():
                passive.record(day, client_key, frontend_id, int(count))


# ----------------------------------------------------------------------
# The binary shard payload
# ----------------------------------------------------------------------


def _aggregates_spec(
    aggregates: GroupedDailyAggregates, columns: _ColumnWriter
) -> Dict[str, Any]:
    return {
        "grouping": aggregates.grouping,
        "exact_threshold": aggregates.exact_threshold,
        "relative_accuracy": aggregates.relative_accuracy,
        "max_buckets": aggregates.max_buckets,
        "days": {
            day: _day_spec(aggregates, day, columns)
            for day in aggregates.days
        },
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
        _apply_day_spec(aggregates, day, day_spec, columns)
    return aggregates


def _diffs_spec(diffs: RequestDiffLog, columns: _ColumnWriter) -> Dict[str, Any]:
    if not diffs.is_bounded:
        spec = _diff_rows_spec(diffs, 0, len(diffs), columns)
        return {"bounded": False, **spec}
    return {
        "bounded": True,
        "relative_accuracy": diffs.relative_accuracy,
        "max_buckets": diffs.max_buckets,
        "region_names": list(diffs.region_names),
        "days": {
            day: _diff_sketches_spec(diffs, day, columns)
            for day in sorted({day for day, _ in diffs._sketches})
        },
    }


def _diffs_from_spec(
    spec: Dict[str, Any], columns: _ColumnReader
) -> RequestDiffLog:
    if not spec["bounded"]:
        diffs = RequestDiffLog()
        _apply_diff_rows_spec(diffs, spec, columns)
        return diffs
    diffs = RequestDiffLog(
        bounded=True,
        relative_accuracy=spec["relative_accuracy"],
        max_buckets=spec["max_buckets"],
    )
    for name in spec["region_names"]:
        diffs.region_code(name)
    for day, day_spec in spec["days"].items():
        _apply_diff_sketches_spec(diffs, day, day_spec, columns)
    return diffs


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
        "passive": {
            "bounded": dataset.passive.is_bounded,
            "days": {
                day: passive_day_obj(dataset.passive, day)
                for day in dataset.passive.days
            },
        },
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
            encoding or fails the codec's checks (the SHA-256 envelope
            check should catch corruption first; this is the structural
            backstop).
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
    if manifest["client_count"] != len(clients):
        raise MeasurementError(
            "shard payload was produced over a different client "
            f"population ({manifest['client_count']} != {len(clients)})"
        )
    passive = PassiveLog(bounded=manifest["passive"]["bounded"])
    for day, counts in manifest["passive"]["days"].items():
        apply_passive_day(passive, day, counts)
    dataset = StudyDataset(
        calendar=manifest["calendar"],
        clients=clients,
        ecs_aggregates=_aggregates_from_spec(manifest["ecs"], columns),
        request_diffs=_diffs_from_spec(manifest["diffs"], columns),
        passive=passive,
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
