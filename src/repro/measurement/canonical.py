"""The canonical hash stream behind the order-insensitive digests.

:meth:`repro.simulation.dataset.StudyDataset.digest` and
:meth:`repro.service.window.PredictionWindow.state_digest` hash one
stream of text *parts*, each part followed by the unit separator
``\\x1f``: ``put("a", 1)`` hashes ``"a\\x1f1\\x1f"``.  Floats appear as
their exact ``repr``, with no tolerance.

:class:`CanonicalHash` writes that stream in bulk.  Parts are joined
into blocks and fed to SHA-256 at most :data:`CHUNK_PARTS` at a time,
so no whole-dataset string is ever built.  Sample text comes from a
table of the distinct float64 bit patterns, each rendered once: RTTs
are whole milliseconds, so a day's hundreds of thousands of samples
hold a few thousand distinct values.

Samples hash in *canonical order*: ascending, with ``-0.0`` before
``0.0`` (the two compare equal, so a plain sort would keep them in
input order and the hash would depend on arrival order) and NaN last.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, List, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # the aggregates import this module's sort keys
    from repro.measurement.aggregate import (
        GroupedDailyAggregates,
        RequestDiffLog,
    )

#: The separator that follows every part of the stream.
SEP = "\x1f"

#: Parts per SHA-256 update: bounds the text held at once.
CHUNK_PARTS = 1 << 16

_SIGN = np.uint64(1 << 63)
_NAN_KEY = np.uint64(np.iinfo(np.uint64).max)


def order_keys(values: np.ndarray) -> np.ndarray:
    """uint64 keys whose unsigned order is the canonical sample order.

    Every NaN maps to one key; otherwise distinct bit patterns get
    distinct keys, which :func:`key_values` turns back into floats.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    keys = np.where(bits & _SIGN, ~bits, bits | _SIGN)
    keys[np.isnan(values)] = _NAN_KEY
    return keys


def key_values(keys: np.ndarray) -> np.ndarray:
    """The float64 behind each :func:`order_keys` key."""
    return np.where(keys & _SIGN, keys ^ _SIGN, ~keys).view(np.float64)


def segment_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices that read the segments ``[start, start + length)`` back
    to back: one vectorized gather instead of a loop over segments."""
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


def _key_texts(keys: np.ndarray) -> List[str]:
    """``repr`` of the float behind each :func:`order_keys` key."""
    return [repr(value) for value in key_values(keys).tolist()]


def _int_texts(values: np.ndarray) -> List[str]:
    return [str(value) for value in values.tolist()]


def _rendered(
    values: np.ndarray, render: Callable[[np.ndarray], List[str]]
) -> np.ndarray:
    """Text of every element, rendered once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(render(distinct), dtype=object)[inverse]


def aggregate_day_parts(
    aggregates: "GroupedDailyAggregates", day: int
) -> np.ndarray:
    """The stream parts of one day of per-(group, target) cells.

    Groups ascending, then targets ascending; each cell contributes
    ``day, group, target`` and then its samples in canonical order
    (exact mode) or ``"sketch"`` and the sketch's digest (sketch mode).
    The day's block (:meth:`GroupedDailyAggregates.block`) supplies the
    cells and its cached canonical sort, so the parts come from one
    gather over the block's ranks.
    """
    block = aggregates.block(day)
    if not len(block):
        return np.empty(0, dtype=object)
    group_rank, target_rank = block.name_ranks()
    order = np.argsort(
        group_rank[block.cell_groups()] * len(block.targets)
        + target_rank[block.target_codes]
    ).tolist()
    groups, targets = block.names()
    heads = [f"{day}{SEP}{groups[cell]}{SEP}{targets[cell]}" for cell in order]
    for position, cell in enumerate(order):
        sketch = block.sketches.get(cell)
        if sketch is not None:
            heads[position] += f"{SEP}sketch{SEP}{sketch.digest()}"
    distinct, ranks = block.canonical_ranks()
    sizes = np.diff(block.bounds)[order]
    texts = np.array(_key_texts(distinct), dtype=object)[
        ranks[segment_indices(block.bounds[:-1][order], sizes)]
    ]
    return np.insert(texts, np.cumsum(sizes) - sizes, heads)


def diff_row_parts(diffs: "RequestDiffLog") -> np.ndarray:
    """The stream parts of an exact request-diff log.

    Rows sort by (day, client index, anycast RTT, best-unicast RTT),
    each RTT in canonical sample order; rows equal on all four keep
    their log order.  Each row contributes ``day, client index, region
    name, repr(anycast), repr(best unicast)``.
    """
    day = np.frombuffer(diffs._day, dtype=np.int32)
    client = np.frombuffer(diffs._client_index, dtype=np.int32)
    region = np.frombuffer(diffs._region_code, dtype=np.int8)
    anycast = order_keys(np.frombuffer(diffs._anycast, dtype=np.float32))
    best = order_keys(np.frombuffer(diffs._best_unicast, dtype=np.float32))
    order = np.lexsort((best, anycast, client, day))
    parts = np.empty((len(order), 5), dtype=object)
    parts[:, 0] = _rendered(day[order], _int_texts)
    parts[:, 1] = _rendered(client[order], _int_texts)
    parts[:, 2] = np.array(diffs.region_names, dtype=object)[region[order]]
    parts[:, 3] = _rendered(anycast[order], _key_texts)
    parts[:, 4] = _rendered(best[order], _key_texts)
    return parts.reshape(-1)


class CanonicalHash:
    """SHA-256 over a stream of text parts, each followed by ``\\x1f``."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def put(self, *parts: object) -> None:
        """Hash ``str`` of each part."""
        self.put_parts([str(part) for part in parts])

    def put_parts(self, parts: Union[Sequence[str], np.ndarray]) -> None:
        """Hash a sequence of text parts (a list or an object array)."""
        for start in range(0, len(parts), CHUNK_PARTS):
            chunk = parts[start : start + CHUNK_PARTS]
            if isinstance(chunk, np.ndarray):
                chunk = chunk.tolist()
            self._sha.update((SEP.join(chunk) + SEP).encode("utf-8"))

    def hexdigest(self) -> str:
        """The SHA-256 of everything hashed so far."""
        return self._sha.hexdigest()
