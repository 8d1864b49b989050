"""Service-state checkpoints: spill, verify, resume.

The campaign checkpoints (:mod:`repro.simulation.checkpoint`) spill
per-shard *datasets*; the service spills its *loop state* — the event
cursor, the sliding window, the quarantine log, the rolling stream
digest, and every closed day's predictions — everything a restarted
process needs to continue the stream bit-identically.

Both use the same envelope
(:func:`repro.measurement.storage.write_checkpoint`): one file written
atomically, a header carrying the service's configuration identity (a
config hash plus the source fingerprint) and the payload's SHA-256, and
the canonical state JSON as the payload.  On resume, a checkpoint is
used only when the identity matches the requesting service; a matching
checkpoint that fails its integrity check raises
:class:`repro.errors.CheckpointError` — a corrupt spill must never
silently seed a resumed stream.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.errors import CheckpointError
from repro.measurement.storage import read_checkpoint, write_checkpoint
from repro.telemetry import get_logger

#: Checkpoint-envelope kind of a service state spill.
SERVICE_CHECKPOINT_KIND = "service"

#: File name of the (single) service checkpoint inside its directory.
CHECKPOINT_FILENAME = "service.ckpt"

_log = get_logger("service.checkpoint")


def service_checkpoint_path(directory: str) -> str:
    """Path of the service checkpoint inside a checkpoint directory."""
    return os.path.join(directory, CHECKPOINT_FILENAME)


def write_service_checkpoint(
    directory: str,
    identity: Dict[str, Any],
    state: Dict[str, Any],
) -> None:
    """Spill the service's loop state with an integrity anchor.

    ``identity`` describes which service the state belongs to (config
    hash, source fingerprint, seed); ``state`` is the loop state block
    (cursor, window, quarantine, stream digest, predictions, attempt),
    serialized once as canonical JSON.  The write is atomic, so a crash
    mid-spill leaves the previous checkpoint intact — the loop may
    replay a tail of already-processed events on resume, which the
    cursor makes idempotent.
    """
    os.makedirs(directory, exist_ok=True)
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    write_checkpoint(
        service_checkpoint_path(directory),
        SERVICE_CHECKPOINT_KIND,
        dict(identity),
        payload.encode("utf-8"),
    )
    _log.debug(
        "service checkpoint written",
        extra={"cursor": state.get("cursor"), "directory": directory},
    )


def load_service_checkpoint(
    directory: str, identity: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Load the service checkpoint if present, applicable, and intact.

    Returns the ``state`` block, or ``None`` when the checkpoint is
    absent or belongs to a different service configuration (both mean
    "start from the beginning of the stream").

    Raises:
        CheckpointError: when the checkpoint claims to match but is
            unreadable or fails its integrity anchor.
    """
    found = read_checkpoint(
        service_checkpoint_path(directory),
        SERVICE_CHECKPOINT_KIND,
        dict(identity),
    )
    if found is None:
        return None
    _, payload = found
    try:
        state = json.loads(payload)
    except ValueError as error:
        raise CheckpointError(
            f"service checkpoint state is not JSON ({error})"
        ) from error
    if not isinstance(state, dict):
        raise CheckpointError("service checkpoint carries no state block")
    return state
