"""Shard-level campaign checkpoints: spill, verify, resume.

A multi-day sharded campaign should not lose completed work to one bad
shard or a mid-run abort.  When a campaign runs with a checkpoint
directory, the coordinator spills every completed shard as it lands, as
one ``shard-NNNN.ckpt`` file in the shared checkpoint envelope
(:func:`repro.measurement.storage.write_checkpoint`):

* the **header** names the shard (index, client range, seed, config
  hash) and carries two integrity anchors: the SHA-256 of the payload
  and the shard dataset's canonical ``digest()``;
* the **payload** is the shard's columnar transport bytes
  (:mod:`repro.simulation.transport`) exactly as the coordinator
  received and hash-checked them from the worker, so the shard's
  quarantine log rides inside.

On resume, a checkpoint is only reused when its header matches the
requesting campaign (same shard layout, seed, and config hash — the
run's data identity from :mod:`repro.identity`, which any setting that
changes the data moves and no run setting does) *and* both integrity
anchors verify.  A checkpoint that fails
verification raises :class:`repro.errors.CheckpointError`; the caller
treats that as "no checkpoint" and re-runs the shard, because a corrupt
spill must never silently feed an analysis.

Loading a checkpoint unpickles the transport manifest, as loading a
``.cols`` sidecar (:mod:`repro.measurement.columnar`) already does, so a
checkpoint directory is trusted like an export directory: only resume
from directories this project wrote.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.errors import CheckpointError
from repro.measurement.storage import read_checkpoint, write_checkpoint
from repro.measurement.validate import QuarantineLog
from repro.simulation.dataset import StudyDataset
from repro.simulation.transport import decode_shard_payload
from repro.telemetry import get_logger

#: Checkpoint-envelope kind of a campaign shard spill.
SHARD_CHECKPOINT_KIND = "campaign-shard"

_log = get_logger("checkpoint")


def shard_checkpoint_path(directory: str, shard_index: int) -> str:
    """Path of a shard's checkpoint file inside a checkpoint directory."""
    return os.path.join(directory, f"shard-{shard_index:04d}.ckpt")


def _shard_identity(
    shard_index: int,
    client_range: Tuple[int, int],
    seed: int,
    config_hash: str,
) -> Dict[str, Any]:
    return {
        "shard_index": shard_index,
        "client_range": [int(client_range[0]), int(client_range[1])],
        "seed": seed,
        "config_hash": config_hash,
    }


def write_shard_checkpoint(
    directory: str,
    shard_index: int,
    client_range: Tuple[int, int],
    payload: bytes,
    dataset_digest: str,
    seed: int,
    config_hash: str,
) -> None:
    """Spill one completed shard's transport bytes with integrity anchors.

    ``payload`` is the shard's encoded result
    (:func:`repro.simulation.transport.encode_shard_payload`) and
    ``dataset_digest`` the decoded dataset's ``digest()``.  The file
    lands in one atomic rename, so an abort mid-spill never leaves a
    half-written checkpoint.
    """
    os.makedirs(directory, exist_ok=True)
    path = shard_checkpoint_path(directory, shard_index)
    write_checkpoint(
        path,
        SHARD_CHECKPOINT_KIND,
        _shard_identity(shard_index, client_range, seed, config_hash),
        payload,
        anchors={"dataset_digest": dataset_digest},
    )
    _log.debug(
        "shard checkpoint written", extra={"shard": shard_index, "path": path}
    )


def load_shard_checkpoint(
    directory: str,
    shard_index: int,
    client_range: Tuple[int, int],
    seed: int,
    config_hash: str,
    clients: Tuple[Any, ...],
) -> Optional[Tuple[StudyDataset, QuarantineLog]]:
    """Load a shard checkpoint if present, applicable, and intact.

    Returns the shard's ``(dataset, quarantine)``, with the dataset
    homed on ``clients`` (the coordinator's population), or ``None``
    when the checkpoint is absent or belongs to a different campaign
    shape (other client range, seed, config hash, or checkpoint format)
    — both mean "run the shard".

    Raises:
        CheckpointError: when the checkpoint claims to match but fails
            an integrity check (payload bytes, decoding, or dataset
            digest) — the caller should count the corruption and re-run
            the shard rather than trust the spill.
    """
    found = read_checkpoint(
        shard_checkpoint_path(directory, shard_index),
        SHARD_CHECKPOINT_KIND,
        _shard_identity(shard_index, client_range, seed, config_hash),
    )
    if found is None:
        return None
    header, payload = found
    try:
        dataset, _, quarantine = decode_shard_payload(payload, clients)
    except Exception as error:  # hash-matching yet undecodable
        raise CheckpointError(
            f"shard {shard_index}: checkpoint payload failed to decode "
            f"({error})"
        ) from error
    expected = header["anchors"].get("dataset_digest")
    actual = dataset.digest()
    if actual != expected:
        raise CheckpointError(
            f"shard {shard_index}: checkpoint dataset digest mismatch "
            f"(expected {expected}, got {actual})"
        )
    return dataset, quarantine
