"""Memory-mapped columnar sidecars for framed dataset exports.

The framed export (:mod:`repro.measurement.export`) optimizes for
durability: every frame is independently CRC-verified JSON, so damage is
localized and salvageable.  That durability has a read cost — loading a
paper-scale export re-parses every base64-packed sample array through the
JSON decoder, which dominates analysis start-up once campaigns outgrow
smoke scale.

This module adds a *derived read cache* next to the export: a binary
sidecar (``<export>.cols``) holding the same dataset in the columnar
layout shard transport already uses (:mod:`repro.simulation.transport`).
Reads memory-map the sidecar and rebuild the dataset from zero-copy
buffer views — no JSON, no base64, no per-sample Python.  The framed
file stays the source of truth:

* the sidecar records a **fingerprint** (byte length + SHA-256) of the
  framed export it was derived from; a reader whose fingerprint check
  fails falls back to the framed parse and rewrites the sidecar;
* sidecar writes are atomic
  (:func:`repro.measurement.storage.atomic_file`) and best-effort — a
  full disk or read-only directory degrades to framed-speed loads, never
  to an error or a stale read;
* salvage (:func:`repro.measurement.export.recover_dataset`) never
  consults sidecars: damage recovery always works from the frames.

Layout: ``MAGIC | u64 header length | header pickle | transport bytes``.
The header carries the fingerprint and the client tuple (transport
payloads deliberately omit clients — shards rebuild them from the
scenario, but an analysis process loading a file has no scenario).
"""

from __future__ import annotations

import hashlib
import mmap
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import MeasurementError
from repro.measurement.storage import atomic_file
from repro.simulation.dataset import StudyDataset
from repro.telemetry import get_logger
from repro.telemetry.trace import active_trace

_log = get_logger("columnar")


@dataclass
class SidecarStats:
    """Process-wide sidecar traffic counters.

    The loader runs in analysis processes with no campaign telemetry,
    so the counts live here and :func:`repro.telemetry.report
    .build_run_manifest` reads them when assembling a manifest.

    Attributes:
        hits: Loads served from a sidecar (zero-copy path).
        rebuilds: Sidecars rewritten after a framed re-parse (stale,
            torn, or absent sidecar behind an existing export).
        fallbacks: Loads that fell back to the framed parse.
    """

    hits: int = 0
    rebuilds: int = 0
    fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters keyed as they appear in run manifests."""
        return {
            "sidecar_hits": self.hits,
            "sidecar_rebuilds": self.rebuilds,
            "sidecar_fallbacks": self.fallbacks,
        }


#: The process-wide counters behind ``columnar.sidecar_*`` manifests.
SIDECAR_STATS = SidecarStats()


def sidecar_stats() -> Dict[str, int]:
    """A copy of the current process-wide sidecar counters."""
    return SIDECAR_STATS.as_dict()


def _trace_sidecar(event: str, export_path: str, **args: Any) -> None:
    """Emit a sidecar instant onto the active trace, if one exists."""
    trace = active_trace()
    if trace is not None:
        trace.instant(
            f"sidecar.{event}", "sidecar", path=export_path, **args
        )

#: Leading bytes of every columnar sidecar file.
MAGIC = b"RPRO-COLS1\x00"

#: Suffix appended to the framed export's path.
SIDECAR_SUFFIX = ".cols"

_LEN = struct.Struct("<Q")

#: Framed files smaller than this hash in one read; larger ones stream.
_HASH_CHUNK = 1 << 20


def sidecar_path(export_path: str) -> str:
    """The sidecar path for a framed export path."""
    return export_path + SIDECAR_SUFFIX


def file_fingerprint(path: str) -> Tuple[int, str]:
    """``(size, sha256-hex)`` of a file's bytes.

    The pair pins a sidecar to the exact framed export it was derived
    from: any rewrite of the export — even one preserving length —
    changes the digest and invalidates the sidecar.
    """
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_HASH_CHUNK)
            if not chunk:
                break
            size += len(chunk)
            digest.update(chunk)
    return size, digest.hexdigest()


def write_sidecar(
    export_path: str,
    dataset: StudyDataset,
    fingerprint: Optional[Tuple[int, str]] = None,
) -> bool:
    """Write (or refresh) the columnar sidecar for a framed export.

    Best-effort: encoding or I/O failures log a warning and return
    ``False`` — the framed export is already durable, so a missing
    sidecar only costs the next load's speed.  The write is atomic, so
    readers never observe a torn sidecar.
    """
    from repro.simulation.transport import encode_shard_payload

    # A caller-supplied fingerprint marks the load-path rewrite site: a
    # framed re-parse refreshing a missing/stale sidecar.  The save
    # path (fingerprint=None) writes a brand-new sidecar instead.
    rebuild = fingerprint is not None
    try:
        if fingerprint is None:
            fingerprint = file_fingerprint(export_path)
        payload = encode_shard_payload(dataset, None, None)
        header = pickle.dumps(
            {"fingerprint": fingerprint, "clients": dataset.clients},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with atomic_file(sidecar_path(export_path), "wb") as handle:
            handle.write(MAGIC)
            handle.write(_LEN.pack(len(header)))
            handle.write(header)
            handle.write(payload)
    except (OSError, MeasurementError, pickle.PicklingError) as error:
        _log.warning(
            "columnar sidecar write failed; loads fall back to frames",
            extra={"path": export_path, "error": str(error)},
        )
        return False
    if rebuild:
        SIDECAR_STATS.rebuilds += 1
        _trace_sidecar("rebuild", export_path)
    return True


def _read_header(
    view: memoryview, source: str
) -> Tuple[Dict[str, Any], int]:
    """Decode the sidecar header; returns (header, payload offset)."""
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise MeasurementError(f"{source}: not a columnar sidecar")
    length_end = len(MAGIC) + _LEN.size
    if len(view) < length_end:
        raise MeasurementError(
            f"{source}: sidecar truncated inside its length header"
        )
    (header_len,) = _LEN.unpack(view[len(MAGIC) : length_end])
    header_end = length_end + header_len
    if header_end > len(view):
        raise MeasurementError(
            f"{source}: sidecar truncated inside its header"
        )
    header = pickle.loads(view[length_end:header_end])
    if (
        not isinstance(header, dict)
        or "fingerprint" not in header
        or "clients" not in header
    ):
        raise MeasurementError(
            f"{source}: sidecar header is missing required fields"
        )
    return header, header_end


def load_sidecar(
    export_path: str, fingerprint: Optional[Tuple[int, str]] = None
) -> Optional[StudyDataset]:
    """Load a dataset through its columnar sidecar, or ``None``.

    Returns ``None`` — never raises — when the sidecar is absent, torn,
    structurally invalid, or derived from different export bytes than
    the file currently at ``export_path``; the caller then parses the
    frames.  On success the sample columns are decoded through zero-copy
    numpy views over the memory-mapped sidecar (numpy keeps the mapping
    alive while any view references it), so rebuilding the dataset costs
    straight buffer copies into its sinks — no JSON, no base64, no
    per-sample Python.
    """
    from repro.simulation.transport import decode_shard_payload

    path = sidecar_path(export_path)
    try:
        handle = open(path, "rb")
    except OSError:
        SIDECAR_STATS.fallbacks += 1
        _trace_sidecar("miss", export_path, reason="absent")
        return None
    try:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Empty or unmappable file: treat as absent.
            SIDECAR_STATS.fallbacks += 1
            _trace_sidecar("miss", export_path, reason="empty")
            return None
    finally:
        handle.close()
    try:
        view = memoryview(mapped)
        header, payload_start = _read_header(view, path)
        if fingerprint is None:
            fingerprint = file_fingerprint(export_path)
        if tuple(header["fingerprint"]) != tuple(fingerprint):
            _log.info(
                "columnar sidecar is stale; re-parsing frames",
                extra={"path": export_path},
            )
            SIDECAR_STATS.fallbacks += 1
            _trace_sidecar("miss", export_path, reason="stale")
            return None
        dataset, _, _ = decode_shard_payload(
            view[payload_start:], tuple(header["clients"])
        )
        SIDECAR_STATS.hits += 1
        _trace_sidecar("hit", export_path)
        return dataset
    except (
        MeasurementError,
        OSError,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
        struct.error,
    ) as error:
        _log.warning(
            "columnar sidecar unreadable; re-parsing frames",
            extra={"path": export_path, "error": str(error)},
        )
        SIDECAR_STATS.fallbacks += 1
        _trace_sidecar("miss", export_path, reason="unreadable")
        return None
