"""Crash-safe framed segment files: length + CRC JSON lines.

A multi-minute campaign's export must survive the two failure modes a
production log pipeline sees constantly: a writer killed mid-flush (torn
tail) and bytes damaged at rest (bit rot).  Plain ``json.dump`` survives
neither — one lost byte makes the whole document unparseable.

This module frames a file as a sequence of independently verifiable
lines::

    <payload-byte-length> <crc32-hex> <compact-json-payload>\\n

* Every frame carries its own length and CRC32, so damage is localized:
  a corrupt frame is *skipped*, not fatal.
* Files end with a footer frame recording the frame count, so a reader
  can tell "complete" from "cut off after a valid frame".
* Writers targeting a path go through a temp file + ``fsync`` +
  ``os.replace`` (:func:`atomic_file`, the one such primitive every
  export, sidecar and checkpoint writer shares), so a crash mid-export
  leaves the previous file intact — readers never observe a
  half-written path.

Readers come in two postures: :func:`read_segment_file` with
``strict=True`` raises :class:`repro.errors.StorageError` on any damage
(the default for loads feeding an analysis), while ``strict=False``
salvages what it can and reports exactly what was lost in a
:class:`RecoveryReport` — truncating torn tails and skipping corrupt
frames instead of raising mid-parse.

Checkpoints (:func:`write_checkpoint` / :func:`read_checkpoint`) reuse
the framing for one envelope shared by campaign shards and the live
service: a CRC-framed header line naming the owner (kind, identity) and
vouching for the payload (length, SHA-256, owner anchors), then the raw
payload bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import CheckpointError, StorageError

#: Frame kind key every frame carries.
FRAME_KIND_KEY = "kind"
FOOTER_KIND = "footer"

#: Format version every checkpoint header carries; a header with any
#: other version reads as "not mine" (:func:`read_checkpoint`).
#: Version 4 payloads come from the one column codec
#: (:mod:`repro.simulation.transport`): shard payloads in its binary
#: layout, service payloads with the window's days as its day blocks.
CHECKPOINT_FORMAT_VERSION = 4


def format_frame(obj: Dict[str, Any]) -> str:
    """Render one object as a framed line.

    The payload is compact JSON with ASCII escapes, so the byte length
    equals the character length and the frame survives any text-mode
    round trip.
    """
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    data = payload.encode("ascii")
    return f"{len(data)} {zlib.crc32(data):08x} {payload}\n"


def footer_frame(frame_count: int) -> Dict[str, Any]:
    """The closing frame: how many frames precede it."""
    return {FRAME_KIND_KEY: FOOTER_KIND, "frames": frame_count}


@dataclass
class RecoveryReport:
    """What a non-strict read salvaged, and what it could not.

    Attributes:
        frames_total: Well-formed frames decoded (excluding the footer).
        frames_corrupt: Frames skipped for a length/CRC/JSON mismatch.
        torn_tail: True when the file ended mid-frame (the torn bytes
            were discarded).
        footer_seen: True when a valid footer closed the file *and* its
            recorded frame count matched what was read before it.
    """

    frames_total: int = 0
    frames_corrupt: int = 0
    torn_tail: bool = False
    footer_seen: bool = False
    salvaged_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when nothing was lost: every frame intact, footer valid."""
        return (
            self.footer_seen
            and self.frames_corrupt == 0
            and not self.torn_tail
        )

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form for manifests."""
        return {
            "frames_total": self.frames_total,
            "frames_corrupt": self.frames_corrupt,
            "torn_tail": self.torn_tail,
            "footer_seen": self.footer_seen,
            "complete": self.complete,
            "salvaged_kinds": dict(sorted(self.salvaged_kinds.items())),
        }


def _parse_frame(line: str) -> Dict[str, Any]:
    """Decode one framed line; raises ``ValueError`` on any mismatch."""
    length_text, _, rest = line.partition(" ")
    crc_text, _, payload = rest.partition(" ")
    length = int(length_text)  # ValueError on damage
    data = payload.encode("ascii", errors="strict")
    if len(data) != length:
        raise ValueError(
            f"frame length mismatch: declared {length}, got {len(data)}"
        )
    if zlib.crc32(data) != int(crc_text, 16):
        raise ValueError("frame CRC mismatch")
    obj = json.loads(payload)
    if not isinstance(obj, dict):
        raise ValueError("frame payload is not an object")
    return obj


def write_segment_file(
    path_or_file: Union[str, IO[str]],
    frames: Iterable[Dict[str, Any]],
) -> int:
    """Write frames (plus the footer) crash-safely; returns frame count.

    Writing to a path goes through :func:`atomic_file`, so the
    destination either keeps its old content or holds the complete new
    file — never a prefix.  Writing to an open stream emits the frames
    directly (the caller owns that stream's durability).
    """
    if isinstance(path_or_file, str):
        with atomic_file(path_or_file, "w", encoding="ascii") as handle:
            return _write_frames(handle, frames)
    return _write_frames(path_or_file, frames)


def _write_frames(handle: IO[str], frames: Iterable[Dict[str, Any]]) -> int:
    count = 0
    for frame in frames:
        handle.write(format_frame(frame))
        count += 1
    handle.write(format_frame(footer_frame(count)))
    return count


def read_segment_text(
    text: str, strict: bool = True, source: str = "<stream>"
) -> Tuple[List[Dict[str, Any]], RecoveryReport]:
    """Decode framed text into its frames plus a recovery report.

    With ``strict=True`` any damage — a corrupt frame, a torn tail, a
    missing or miscounting footer — raises :class:`StorageError`.  With
    ``strict=False`` the reader salvages every intact frame, skipping
    corrupt ones and truncating the torn tail, and the report says
    exactly what happened.
    """
    report = RecoveryReport()
    frames: List[Dict[str, Any]] = []
    lines = text.split("\n")
    # A file that ends with a newline splits into [... , ""]; anything
    # else in the final slot is a frame the writer never finished.
    tail = lines.pop() if lines else ""
    footer_count = None
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            obj = _parse_frame(line)
        except (ValueError, UnicodeEncodeError, json.JSONDecodeError) as error:
            if strict:
                raise StorageError(
                    f"{source}: corrupt frame at line {index + 1} ({error})"
                ) from error
            report.frames_corrupt += 1
            continue
        if obj.get(FRAME_KIND_KEY) == FOOTER_KIND:
            footer_count = obj.get("frames")
            continue
        frames.append(obj)
        report.frames_total += 1
        kind = str(obj.get(FRAME_KIND_KEY))
        report.salvaged_kinds[kind] = report.salvaged_kinds.get(kind, 0) + 1
    if tail:
        if strict:
            raise StorageError(
                f"{source}: torn tail (file ends mid-frame, "
                f"{len(tail)} trailing bytes)"
            )
        report.torn_tail = True
    # Only an exact match on an intact file reads as a complete close;
    # a corrupt or missing frame leaves the footer's count unmet.
    report.footer_seen = (
        footer_count is not None and footer_count == report.frames_total
    )
    if strict and not report.footer_seen:
        raise StorageError(
            f"{source}: missing or miscounting footer "
            f"(declared {footer_count!r}, read {report.frames_total})"
        )
    return frames, report


def read_segment_file(
    path_or_file: Union[str, IO[str]], strict: bool = True
) -> Tuple[List[Dict[str, Any]], RecoveryReport]:
    """Read and decode a framed segment file (path or open stream)."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
        source = path_or_file
    else:
        text = path_or_file.read()
        source = getattr(path_or_file, "name", "<stream>")
    return read_segment_text(text, strict=strict, source=source)


@contextlib.contextmanager
def atomic_file(
    path: str, mode: str = "w", encoding: Optional[str] = "utf-8"
) -> Iterator[IO[Any]]:
    """Open ``path`` for an all-or-nothing write.

    Yields a handle on ``<path>.tmp-<pid>``; when the block exits
    cleanly the temp file is flushed, ``fsync``-ed and atomically
    renamed over ``path``.  Any exception removes the temp file and
    propagates, leaving ``path``'s previous content untouched.
    """
    tmp_path = f"{path}.tmp-{os.getpid()}"
    try:
        with open(
            tmp_path, mode, encoding=None if "b" in mode else encoding
        ) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to a path via :func:`atomic_file`."""
    with atomic_file(path) as handle:
        handle.write(text)


def write_checkpoint(
    path: str,
    kind: str,
    identity: Dict[str, Any],
    payload: bytes,
    anchors: Optional[Dict[str, Any]] = None,
) -> None:
    """Spill one checkpoint file in a single atomic rename.

    The file is one CRC-framed header line followed by ``payload``.
    The header names the owner (``kind`` and the JSON-native
    ``identity`` a reader must match), vouches for the payload (byte
    length and SHA-256), and carries ``anchors``: extra integrity values
    the owner verifies after decoding the payload.
    """
    header = {
        FRAME_KIND_KEY: kind,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "identity": identity,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "anchors": dict(anchors or {}),
    }
    with atomic_file(path, "wb") as handle:
        handle.write(format_frame(header).encode("ascii"))
        handle.write(payload)


def read_checkpoint(
    path: str, kind: str, identity: Dict[str, Any]
) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Read and verify a :func:`write_checkpoint` file.

    Returns ``None`` when the file is absent or belongs to another owner
    — a different kind, format version, or identity — which is decided
    from the header alone, before the payload is read or hashed.
    Otherwise returns ``(header, payload)``; the caller still checks the
    header's ``anchors`` against what it decodes.

    Raises:
        CheckpointError: when the file is unreadable, its header frame
            is damaged, or the payload's length or SHA-256 disagrees
            with the header.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
            try:
                header = _parse_frame(line.decode("ascii").rstrip("\n"))
            except ValueError as error:
                raise CheckpointError(
                    f"{path}: damaged checkpoint header ({error})"
                ) from error
            if (
                header.get(FRAME_KIND_KEY) != kind
                or header.get("format_version") != CHECKPOINT_FORMAT_VERSION
                or header.get("identity") != identity
            ):
                return None
            payload = handle.read()
    except OSError as error:
        raise CheckpointError(
            f"{path}: unreadable checkpoint ({error})"
        ) from error
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(
            f"{path}: checkpoint payload length mismatch (header says "
            f"{header.get('payload_bytes')}, file holds {len(payload)})"
        )
    actual = hashlib.sha256(payload).hexdigest()
    if actual != header.get("payload_sha256"):
        raise CheckpointError(
            f"{path}: checkpoint payload hash mismatch (expected "
            f"{header.get('payload_sha256')}, got {actual})"
        )
    return header, payload
