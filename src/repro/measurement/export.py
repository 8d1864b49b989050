"""Persisting campaign datasets to disk and loading them back.

A paper-scale campaign takes minutes to run; analyses and ablations over
it take milliseconds.  These helpers serialize a
:class:`repro.simulation.dataset.StudyDataset` so a campaign can be run
once and analyzed many times — the same split the paper's backend
storage provided.

One on-disk format, the framed export (format version 5): a crash-safe
framed segment file (:mod:`repro.measurement.storage`) holding a header
frame, client chunks, per-day ECS aggregate and passive frames,
request-diff chunks, and a footer, each line independently length- and
CRC-verified, written via temp file + atomic rename.  Each measurement
is stored once, in its /24's ECS cell; the LDNS grouping is rebuilt from
the client records on load
(:attr:`~repro.simulation.dataset.StudyDataset.ldns_aggregates`).

* The header records the calendar, counts, coverage, load summary and
  sketch configuration, so loads rebuild sinks in the right mode.
* Data frames carry the column blocks of
  :mod:`repro.simulation.transport`, the one codec of every dataset
  byte stream: an ``aggregates`` frame holds one day's block (one
  sample column, promoted cells as sketch specs), a ``request_diffs``
  frame up to 100k diff rows in their native dtypes, and a bounded diff
  log's ``diff_sketches`` frame one day's region sketches.  Passive
  counts stay plain JSON per day (``passive`` or, bounded,
  ``passive_totals``).  Frames are JSON, so loading never unpickles.

:func:`load_dataset` reads an export strictly (through its ``.cols``
sidecar when a fresh one exists, :mod:`repro.measurement.columnar`);
:func:`recover_dataset` salvages a damaged one — skipping corrupt
frames, truncating torn tails — and reports exactly what survived.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterator, List, Tuple, Union

from repro.errors import MeasurementError, StorageError
from repro.clients.population import ClientPrefix
from repro.geo.coords import GeoPoint
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.measurement.storage import (
    RecoveryReport,
    read_segment_text,
    write_segment_file,
)
from repro.measurement.validate import RECORD_SCHEMA_VERSION, validate_dataset
from repro.telemetry import get_logger
from repro.net.ip import IPv4Prefix
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset
from repro.simulation.transport import (
    apply_day_block,
    apply_diff_rows,
    apply_diff_sketches,
    apply_passive_day,
    encode_day_block,
    encode_diff_rows,
    encode_diff_sketches,
    passive_day_obj,
)

#: Format marker of the framed exports this module writes and reads.
FORMAT_VERSION = 5

#: Client records per ``clients`` frame.
_CLIENT_CHUNK = 500

#: Request-diff rows per ``request_diffs`` frame.
_DIFF_CHUNK = 100_000

_log = get_logger("export")


def _client_to_obj(client: ClientPrefix) -> Dict[str, Any]:
    return {
        "prefix": str(client.prefix),
        "asn": client.asn,
        "home_metro": client.home_metro,
        "lat": client.location.lat,
        "lon": client.location.lon,
        "access_delay_ms": client.access_delay_ms,
        "daily_queries": client.daily_queries,
        "ldns_id": client.ldns_id,
    }


def _client_from_obj(obj: Dict[str, Any]) -> ClientPrefix:
    return ClientPrefix(
        prefix=IPv4Prefix.parse(obj["prefix"]),
        asn=int(obj["asn"]),
        home_metro=obj["home_metro"],
        location=GeoPoint(obj["lat"], obj["lon"]),
        access_delay_ms=float(obj["access_delay_ms"]),
        daily_queries=float(obj["daily_queries"]),
        ldns_id=obj["ldns_id"],
    )


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def _dataset_frames(dataset: StudyDataset) -> Iterator[Dict[str, Any]]:
    """Yield a dataset as frames (header, clients, data, no footer)."""
    clients = dataset.clients
    client_chunks = max(
        1, (len(clients) + _CLIENT_CHUNK - 1) // _CLIENT_CHUNK
    )
    diffs = dataset.request_diffs
    diff_chunks = (
        0
        if diffs.is_bounded
        else (len(diffs) + _DIFF_CHUNK - 1) // _DIFF_CHUNK
    )
    ecs = dataset.ecs_aggregates
    yield {
        "kind": "header",
        "format_version": FORMAT_VERSION,
        "record_schema_version": RECORD_SCHEMA_VERSION,
        "calendar": {
            "start": dataset.calendar.start.isoformat(),
            "num_days": dataset.calendar.num_days,
        },
        "beacon_count": dataset.beacon_count,
        "measurement_count": dataset.measurement_count,
        "covered_ranges": (
            None
            if dataset.covered_ranges is None
            else [[start, stop] for start, stop in dataset.covered_ranges]
        ),
        "ecs_grouping": ecs.grouping,
        "client_count": len(clients),
        "client_chunks": client_chunks,
        "diff_chunks": diff_chunks,
        # Sketch configuration: loads rebuild sinks in this mode.
        "sketch": {
            "exact_threshold": ecs.exact_threshold,
            "relative_accuracy": ecs.relative_accuracy,
            "max_buckets": ecs.max_buckets,
        },
        "diffs_bounded": diffs.is_bounded,
        "diffs_accuracy": diffs.relative_accuracy,
        "diffs_max_buckets": diffs.max_buckets,
        "passive_bounded": dataset.passive.is_bounded,
        "load_summary": dataset.load_summary,
    }
    for index in range(client_chunks):
        start = index * _CLIENT_CHUNK
        yield {
            "kind": "clients",
            "index": index,
            "rows": [
                _client_to_obj(c)
                for c in clients[start : start + _CLIENT_CHUNK]
            ],
        }
    # Data frames are per day (and per diff chunk), so damage is
    # localized: a torn tail loses trailing days, not the whole file.
    passive = dataset.passive
    passive_kind, passive_key = (
        ("passive_totals", "totals")
        if passive.is_bounded
        else ("passive", "clients")
    )
    for day in sorted(set(ecs.days) | set(passive.days)):
        yield {
            "kind": "aggregates",
            "day": day,
            "block": encode_day_block(ecs, day),
        }
        yield {
            "kind": passive_kind,
            "day": day,
            passive_key: passive_day_obj(passive, day),
        }
    if diffs.is_bounded:
        for day in sorted({day for day, _ in diffs.day_region_sketches()}):
            yield {
                "kind": "diff_sketches",
                "day": day,
                "block": encode_diff_sketches(diffs, day),
            }
    for index in range(diff_chunks):
        start = index * _DIFF_CHUNK
        yield {
            "kind": "request_diffs",
            "index": index,
            "block": encode_diff_rows(diffs, start, start + _DIFF_CHUNK),
        }


@dataclass
class DatasetRecovery:
    """What :func:`recover_dataset` salvaged from a damaged export.

    Attributes:
        report: The frame-level salvage accounting.
        claimed_beacon_count: Beacon count the header recorded.
        claimed_measurement_count: Measurement count the header recorded.
        recovered_measurement_count: Joined measurements actually present
            in the salvaged frames; equals the claim iff nothing data-
            bearing was lost.
    """

    report: RecoveryReport
    claimed_beacon_count: int = 0
    claimed_measurement_count: int = 0
    recovered_measurement_count: int = 0

    @property
    def complete(self) -> bool:
        """True when the file was undamaged after all."""
        return (
            self.report.complete
            and self.recovered_measurement_count
            == self.claimed_measurement_count
        )

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form for run manifests."""
        return {
            "complete": self.complete,
            "claimed_beacon_count": self.claimed_beacon_count,
            "claimed_measurement_count": self.claimed_measurement_count,
            "recovered_measurement_count": self.recovered_measurement_count,
            **self.report.to_obj(),
        }


def _dataset_from_frames(
    frames: List[Dict[str, Any]], report: RecoveryReport
) -> Tuple[StudyDataset, DatasetRecovery]:
    """Assemble a dataset from decoded frames and gate it strictly.

    Frames pass their CRC checks whatever values they carry, so the
    assembled dataset goes through :func:`validate_dataset` under the
    strict policy before any caller sees it.

    Raises:
        MeasurementError: on a missing/unknown header format version, or
            a header or frame missing a required field.
        StorageError: when the salvageable frames cannot anchor a
            dataset at all (no header, or client chunks missing).
        ValidationError: when a sample or diff row fails the record
            schema (negative, non-finite or implausible RTT).
    """
    if not frames or frames[0].get("kind") != "header":
        raise StorageError(
            "unrecoverable dataset export: header frame is missing or "
            "damaged"
        )
    header = frames[0]
    version = header.get("format_version")
    if version is None:
        raise MeasurementError(
            "dataset export carries no format version field — not a "
            "dataset export, or one too damaged to identify"
        )
    if version != FORMAT_VERSION:
        raise MeasurementError(
            f"unsupported dataset format version {version!r}"
        )
    try:
        calendar = SimulationCalendar(
            start=datetime.date.fromisoformat(header["calendar"]["start"]),
            num_days=int(header["calendar"]["num_days"]),
        )
        covered_obj = header["covered_ranges"]
        covered = (
            None
            if covered_obj is None
            else tuple((int(s), int(e)) for s, e in covered_obj)
        )
        client_chunks: Dict[int, List[Any]] = {}
        sketch_config = header["sketch"]
        exact_threshold = sketch_config["exact_threshold"]
        if exact_threshold is not None:
            exact_threshold = int(exact_threshold)
        relative_accuracy = float(sketch_config["relative_accuracy"])
        max_buckets = int(sketch_config["max_buckets"])
        ecs = GroupedDailyAggregates(
            header["ecs_grouping"],
            exact_threshold=exact_threshold,
            relative_accuracy=relative_accuracy,
            max_buckets=max_buckets,
        )
        passive = PassiveLog(bounded=bool(header["passive_bounded"]))
        diffs = RequestDiffLog(
            bounded=bool(header["diffs_bounded"]),
            relative_accuracy=float(header["diffs_accuracy"]),
            max_buckets=int(header["diffs_max_buckets"]),
        )
        diff_chunks: Dict[int, Dict[str, Any]] = {}
        for frame in frames[1:]:
            kind = frame.get("kind")
            if kind == "clients":
                client_chunks[int(frame["index"])] = frame["rows"]
            elif kind == "aggregates":
                apply_day_block(ecs, int(frame["day"]), frame["block"])
            elif kind == "passive":
                apply_passive_day(passive, int(frame["day"]), frame["clients"])
            elif kind == "passive_totals":
                apply_passive_day(passive, int(frame["day"]), frame["totals"])
            elif kind == "diff_sketches":
                apply_diff_sketches(diffs, int(frame["day"]), frame["block"])
            elif kind == "request_diffs":
                diff_chunks[int(frame["index"])] = frame["block"]
        if sorted(client_chunks) != list(range(int(header["client_chunks"]))):
            raise StorageError(
                "unrecoverable dataset export: client frames are "
                f"incomplete ({len(client_chunks)} of "
                f"{header['client_chunks']} chunks survived)"
            )
        clients = tuple(
            _client_from_obj(obj)
            for index in sorted(client_chunks)
            for obj in client_chunks[index]
        )
        if len(clients) != int(header["client_count"]):
            raise StorageError(
                "unrecoverable dataset export: client count mismatch "
                f"({len(clients)} != {header['client_count']})"
            )
        # Row order matters for the diff columns; apply chunks in index
        # order and drop anything after a gap (rows would misalign).
        for index in range(int(header["diff_chunks"])):
            block = diff_chunks.get(index)
            if block is None:
                break
            apply_diff_rows(diffs, block)
        recovered_measurements = sum(
            int(ecs.block(day).counts().sum()) for day in ecs.days
        )
        recovery = DatasetRecovery(
            report=report,
            claimed_beacon_count=int(header["beacon_count"]),
            claimed_measurement_count=int(header["measurement_count"]),
            recovered_measurement_count=recovered_measurements,
        )
        dataset = StudyDataset(
            calendar=calendar,
            clients=clients,
            ecs_aggregates=ecs,
            request_diffs=diffs,
            passive=passive,
            beacon_count=int(header["beacon_count"]),
            measurement_count=(
                int(header["measurement_count"])
                if recovery.complete
                else recovered_measurements
            ),
            covered_ranges=covered,
            load_summary=header["load_summary"],
        )
    except KeyError as error:
        raise MeasurementError(
            f"malformed dataset export: missing field {error}"
        ) from error
    except (AttributeError, TypeError, ValueError) as error:
        raise MeasurementError(
            f"malformed dataset export ({error!r})"
        ) from error
    validate_dataset(dataset, "strict")
    return dataset, recovery


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def save_dataset(
    dataset: StudyDataset, path_or_file: Union[str, IO[str]]
) -> None:
    """Write a dataset as a crash-safe framed export.

    Paths are written via temp file + atomic rename, so an interrupted
    save never leaves a torn file at the destination.  Saves to a path
    also write a columnar sidecar (``<path>.cols``,
    :mod:`repro.measurement.columnar`) so later loads skip the JSON
    frame parse.  The sidecar is best-effort — failing to write it never
    fails the save.
    """
    write_segment_file(path_or_file, _dataset_frames(dataset))
    if isinstance(path_or_file, str):
        from repro.measurement.columnar import write_sidecar

        write_sidecar(path_or_file, dataset)
        _log.info(
            "dataset saved",
            extra={
                "path": path_or_file,
                "measurements": dataset.measurement_count,
            },
        )


def _read_framed_text(path_or_file: Union[str, IO[str]]) -> Tuple[str, str]:
    """The export's text and a source label for error messages.

    Raises:
        MeasurementError: when the input does not begin with a frame's
            length prefix (an empty file, a JSON document, ...): there is
            no frame structure to load or salvage.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8", newline="") as handle:
            text, source = handle.read(), path_or_file
    else:
        text = path_or_file.read()
        source = getattr(path_or_file, "name", "<stream>")
    if not text[:1].isdigit():
        raise MeasurementError(
            f"{source}: not a framed dataset export (it does not begin "
            "with a frame length prefix)"
        )
    return text, source


def load_dataset(path_or_file: Union[str, IO[str]]) -> StudyDataset:
    """Read a framed dataset export (path or open text stream).

    Strict: a damaged export raises :class:`StorageError` (use
    :func:`recover_dataset` to salvage), input that is not a framed
    export at all, carries no or another format version, or lacks a
    required header field raises a clear :class:`MeasurementError`, and
    a framed parse whose samples fail the record schema raises
    :class:`repro.errors.ValidationError`.

    Loads from a path first try the columnar sidecar
    (:mod:`repro.measurement.columnar`): when one exists and its
    fingerprint matches the export's current bytes, the dataset decodes
    from memory-mapped columns without touching the JSON frames.  A
    missing or stale sidecar falls back to the framed parse, which
    rewrites the sidecar so the next load is fast again.
    """
    fingerprint = None
    if isinstance(path_or_file, str):
        from repro.measurement.columnar import (
            file_fingerprint,
            load_sidecar,
            write_sidecar,
        )

        try:
            fingerprint = file_fingerprint(path_or_file)
        except OSError as error:
            raise MeasurementError(
                f"{path_or_file}: cannot read dataset export ({error})"
            ) from error
        cached = load_sidecar(path_or_file, fingerprint)
        if cached is not None:
            _log.info(
                "dataset loaded",
                extra={"path": path_or_file, "columnar": True},
            )
            return cached
    text, source = _read_framed_text(path_or_file)
    frames, report = read_segment_text(text, strict=True, source=source)
    dataset, _ = _dataset_from_frames(frames, report)
    if fingerprint is not None:
        # Framed parse succeeded but the sidecar was absent/stale:
        # refresh it (best-effort) so the next load takes the columnar
        # path.
        write_sidecar(path_or_file, dataset, fingerprint)
        _log.info("dataset loaded", extra={"path": path_or_file})
    return dataset


def recover_dataset(
    path_or_file: Union[str, IO[str]]
) -> Tuple[StudyDataset, DatasetRecovery]:
    """Salvage a (possibly damaged) framed export.

    Works purely from the frames — never from the ``.cols`` sidecar.
    Skips corrupt frames, truncates the torn tail, and returns whatever
    dataset the surviving frames describe plus a
    :class:`DatasetRecovery` accounting for exactly what was lost.  An
    undamaged file recovers to the same dataset :func:`load_dataset`
    returns, with ``recovery.complete`` true.

    Raises:
        MeasurementError: when the input is not a framed export at all
            (it does not begin with a frame length prefix).
        StorageError: when not even a header + client frames survived —
            there is no dataset to anchor.
        ValidationError: when a surviving sample fails the record schema.
    """
    text, source = _read_framed_text(path_or_file)
    frames, report = read_segment_text(text, strict=False, source=source)
    dataset, recovery = _dataset_from_frames(frames, report)
    if not recovery.complete:
        _log.warning(
            "dataset recovered with losses",
            extra={"path": source, **recovery.to_obj()},
        )
    return dataset, recovery
