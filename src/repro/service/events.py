"""The stream vocabulary of the live service.

Two event shapes cross the ingestion boundary, mirroring the two data
planes of §3: ``BeaconEvent`` (one joined beacon measurement — the
client /24, the LDNS that resolved it, the target fetched, and the RTT)
and ``PassiveEvent`` (one passive-log count: queries a front-end served
for a client on a day).

The service carries beacons as columns, not objects: an
:class:`EventStream` holds each run of same-day beacons as one
:class:`BeaconBlock` — run keys (/24, resolver, target), run bounds and
one float64 RTT column — between its passive events.  The stream is
still a sequence of events: ``len`` counts events, and iterating or
indexing it yields :class:`BeaconEvent` objects built on demand.  Every
ordinal the service keeps (its cursor, kill points, spills) is an event
ordinal of that sequence.

:class:`StreamDigest` is the service's rolling dataset digest: an
incremental, order-insensitive fingerprint of every *admitted* event.
Each event hashes independently (SHA-256 of its canonical encoding) and
the per-event hashes combine by modular addition, so the digest is a
pure function of the admitted-event multiset — invariant under arrival
order and shard interleaving, mergeable across partial streams, and
O(1) to checkpoint.  That is exactly the property the chaos-parity
guarantee needs: a killed-and-resumed stream admits the same multiset,
so it reaches the same digest as an uninterrupted run, bit for bit.
A block folds in through :meth:`StreamDigest.update_block`.  Beacons
of one run that carry the same RTT have the same encoding, so the
block hashes each distinct (run, RTT) payload once and adds its hash
weighted by how often it occurs: the same sum from fewer hashes.
:func:`encode_beacons` is the one encoder of beacon payloads, for
:meth:`BeaconEvent.encode` and the block path alike.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import MeasurementError

#: Modulus of the digest accumulator (one SHA-256 word).
_DIGEST_MODULUS = 1 << 256

#: One run key of a beacon block: (client /24, resolver, target).
RunKey = Tuple[str, str, str]


def encode_beacons(
    day: int,
    keys: Sequence[RunKey],
    runs: Iterable[int],
    rtts: Iterable[float],
    codes: Iterable[int],
) -> List[bytes]:
    """Canonical byte encodings of same-day beacons: beacon ``i`` has
    run key ``keys[runs[i]]`` and RTT ``rtts[codes[i]]``.

    The stream digest's hash input, shared by :meth:`BeaconEvent.encode`
    and :meth:`StreamDigest.update_block` so the two cannot drift apart.
    Each key's prefix and each RTT's ``repr`` are rendered once, however
    many beacons share them.  RTTs must be Python floats: ``repr`` of a
    numpy scalar differs.
    """
    prefixes = [
        f"beacon\x1f{day}\x1f{client_key}\x1f{ldns_id}\x1f{target_id}\x1f"
        for client_key, ldns_id, target_id in keys
    ]
    texts = [repr(rtt) for rtt in rtts]
    return [
        f"{prefixes[run]}{texts[code]}".encode("utf-8")
        for run, code in zip(runs, codes)
    ]


@dataclass(frozen=True)
class BeaconEvent:
    """One joined beacon measurement arriving on the stream.

    Attributes:
        day: Campaign day index of the measurement.
        client_key: The client /24 (the ECS grouping key).
        ldns_id: The resolver that carried the lookup (the LDNS
            grouping key).  Static per client in this simulation, as
            the dataset's client records assert.
        target_id: ``'anycast'`` or a front-end id.
        rtt_ms: The measured RTT (a float).
    """

    day: int
    client_key: str
    ldns_id: str
    target_id: str
    rtt_ms: float

    def encode(self) -> bytes:
        """Canonical byte encoding (the stream digest's hash input)."""
        key = (self.client_key, self.ldns_id, self.target_id)
        return encode_beacons(self.day, (key,), (0,), (self.rtt_ms,), (0,))[0]


@dataclass(frozen=True)
class PassiveEvent:
    """One passive-log count arriving on the stream.

    Attributes:
        day: Campaign day index.
        client_key: The client /24, or a coarse label when the source
            retains no per-client counts (bounded passive logs).
        frontend_id: The front-end that served the queries.
        count: Queries served.
    """

    day: int
    client_key: str
    frontend_id: str
    count: int

    def encode(self) -> bytes:
        """Canonical byte encoding (the stream digest's hash input)."""
        return (
            f"passive\x1f{self.day}\x1f{self.client_key}"
            f"\x1f{self.frontend_id}\x1f{self.count}"
        ).encode("utf-8")


StreamEvent = Union[BeaconEvent, PassiveEvent]


class BeaconBlock:
    """Consecutive same-day beacons as columns.

    Run ``i`` holds the beacons of key ``keys[i]`` — ``(client /24,
    resolver, target)`` — at ``rtts[bounds[i]:bounds[i + 1]]``.  Runs
    are non-empty and keep stream order, so beacon ``j`` of the block
    is stream event ``first ordinal + j``.

    Args:
        day: The day every beacon of the block belongs to.
        keys: One key per run.
        bounds: ``len(keys) + 1`` ascending offsets into ``rtts``,
            starting at 0 and ending at ``len(rtts)``.
        rtts: The float64 RTT column.
    """

    __slots__ = ("day", "keys", "bounds", "rtts")

    def __init__(
        self,
        day: int,
        keys: Sequence[RunKey],
        bounds: np.ndarray,
        rtts: np.ndarray,
    ) -> None:
        self.day = day
        self.keys = tuple(keys)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.rtts = np.asarray(rtts, dtype=np.float64)

    @classmethod
    def from_columns(
        cls, day: int, keys: Sequence[RunKey], columns: Sequence[np.ndarray]
    ) -> "BeaconBlock":
        """Join one RTT column per key into a block (empty runs drop)."""
        kept = [
            (key, column) for key, column in zip(keys, columns) if len(column)
        ]
        lengths = [len(column) for _, column in kept]
        return cls(
            day,
            [key for key, _ in kept],
            np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            np.concatenate([column for _, column in kept])
            if kept
            else np.empty(0),
        )

    @classmethod
    def from_events(cls, events: Sequence[BeaconEvent]) -> "BeaconBlock":
        """Pack same-day beacon events; adjacent equal keys share a run.

        Raises:
            MeasurementError: when the events span more than one day.
        """
        if len({event.day for event in events}) > 1:
            raise MeasurementError("a beacon block holds one day's events")
        keys: List[RunKey] = []
        starts: List[int] = []
        for index, event in enumerate(events):
            key = (event.client_key, event.ldns_id, event.target_id)
            if not keys or keys[-1] != key:
                keys.append(key)
                starts.append(index)
        return cls(
            events[0].day if events else 0,
            keys,
            np.asarray(starts + [len(events)], dtype=np.int64),
            np.fromiter(
                (event.rtt_ms for event in events), np.float64, len(events)
            ),
        )

    def __len__(self) -> int:
        return len(self.rtts)

    def runs(self) -> Iterator[Tuple[str, str, str, int, int]]:
        """``(client_key, ldns_id, target_id, start, stop)`` per run."""
        bounds = self.bounds.tolist()
        for (client_key, ldns_id, target_id), start, stop in zip(
            self.keys, bounds, bounds[1:]
        ):
            yield client_key, ldns_id, target_id, start, stop

    def event(self, index: int) -> BeaconEvent:
        """Beacon ``index`` of the block as an event object."""
        run = int(np.searchsorted(self.bounds, index, side="right")) - 1
        client_key, ldns_id, target_id = self.keys[run]
        return BeaconEvent(
            self.day, client_key, ldns_id, target_id, float(self.rtts[index])
        )

    def events(self) -> Iterator[BeaconEvent]:
        """The block's beacons as event objects, in stream order."""
        values = self.rtts.tolist()
        for client_key, ldns_id, target_id, start, stop in self.runs():
            for value in values[start:stop]:
                yield BeaconEvent(
                    self.day, client_key, ldns_id, target_id, value
                )

    def slice(self, start: int, stop: int) -> "BeaconBlock":
        """Beacons ``start`` to ``stop - 1`` as a block of their own."""
        if start == 0 and stop == len(self):
            return self
        first = int(np.searchsorted(self.bounds, start, side="right")) - 1
        last = int(np.searchsorted(self.bounds, stop, side="left"))
        bounds = np.clip(self.bounds[first : last + 1], start, stop) - start
        return BeaconBlock(
            self.day, self.keys[first:last], bounds, self.rtts[start:stop]
        )


#: One item of an :class:`EventStream`: a block of beacons, or one
#: passive event (which counts as one ordinal).
StreamItem = Union[BeaconBlock, PassiveEvent]


class EventStream(SequenceABC):
    """An event sequence stored as beacon blocks and passive events.

    ``len()`` counts events; iterating or indexing yields
    :class:`BeaconEvent`/:class:`PassiveEvent` objects.  The service
    consumes :meth:`items` instead, one block at a time.

    Args:
        items: Beacon blocks and passive events in stream order.
    """

    def __init__(self, items: Iterable[StreamItem]) -> None:
        self._items: List[StreamItem] = []
        self._starts: List[int] = []
        total = 0
        for item in items:
            size = len(item) if isinstance(item, BeaconBlock) else 1
            if size:
                self._items.append(item)
                self._starts.append(total)
                total += size
        self._length = total

    @classmethod
    def of(cls, events: Iterable[StreamEvent]) -> "EventStream":
        """Group an event sequence into blocks of consecutive same-day
        beacons; an :class:`EventStream` is returned as is."""
        if isinstance(events, EventStream):
            return events
        items: List[StreamItem] = []
        pending: List[BeaconEvent] = []
        for event in events:
            if isinstance(event, BeaconEvent):
                if pending and pending[0].day != event.day:
                    items.append(BeaconBlock.from_events(pending))
                    pending = []
                pending.append(event)
                continue
            if pending:
                items.append(BeaconBlock.from_events(pending))
                pending = []
            items.append(event)
        if pending:
            items.append(BeaconBlock.from_events(pending))
        return cls(items)

    def items(self) -> Iterator[Tuple[int, int, StreamItem]]:
        """``(start, stop, item)`` per item: its event ordinal range."""
        stops = self._starts[1:] + [self._length]
        return zip(self._starts, stops, self._items)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[StreamEvent]:
        for item in self._items:
            if isinstance(item, BeaconBlock):
                yield from item.events()
            else:
                yield item

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("event stream index out of range")
        position = bisect.bisect_right(self._starts, index) - 1
        item = self._items[position]
        if isinstance(item, BeaconBlock):
            return item.event(index - self._starts[position])
        return item


class StreamDigest:
    """Order-insensitive incremental digest of admitted stream events.

    Maintains ``sum(SHA-256(event)) mod 2**256`` plus an exact event
    count; :meth:`hexdigest` hashes the pair.  Addition commutes, so the
    digest depends only on the admitted-event *multiset* — two streams
    carrying the same events in any interleaving agree — and the whole
    state serializes to two integers, which is what lets a service
    checkpoint carry its dataset digest without retaining the dataset.
    """

    __slots__ = ("_sum", "_count")

    def __init__(self, accumulator: int = 0, count: int = 0) -> None:
        self._sum = accumulator % _DIGEST_MODULUS
        self._count = count

    @property
    def count(self) -> int:
        """Number of events folded in."""
        return self._count

    def update(self, event: StreamEvent) -> None:
        """Fold one admitted event into the digest."""
        value = int.from_bytes(
            hashlib.sha256(event.encode()).digest(), "big"
        )
        self._sum = (self._sum + value) % _DIGEST_MODULUS
        self._count += 1

    def update_block(self, block: BeaconBlock) -> None:
        """Fold every beacon of an admitted block into the digest.

        Equal to :meth:`update` over ``block.events()``.  Beacons of one
        run whose RTTs have the same float64 bits (so ``0.0`` and
        ``-0.0`` stay apart) share one payload: each distinct payload is
        encoded by :func:`encode_beacons` and hashed once, and its
        256-bit hash is added once per beacon, as eight 32-bit limb
        columns weighted by the payload counts in one numpy product.
        """
        # The distinct RTT bit patterns, then the distinct (run, RTT)
        # pairs with their counts.
        rtts, codes = np.unique(block.rtts.view(np.uint64), return_inverse=True)
        runs = np.repeat(np.arange(len(block.keys)), np.diff(block.bounds))
        pairs, counts = np.unique(runs * len(rtts) + codes, return_counts=True)
        runs, codes = np.divmod(pairs, len(rtts))
        sha256 = hashlib.sha256
        hashes = [
            sha256(payload).digest()
            for payload in encode_beacons(
                block.day,
                block.keys,
                runs.tolist(),
                rtts.view(np.float64).tolist(),
                codes.tolist(),
            )
        ]
        limbs = np.frombuffer(b"".join(hashes), dtype=">u4").reshape(-1, 8)
        # The counts sum to len(block), so each weighted limb column is
        # at most len(block) * (2**32 - 1), the bound an unweighted sum
        # has too: no uint64 overflow below 2**32 beacons per block.
        weighted = counts.astype(np.uint64) @ limbs.astype(np.uint64)
        total = 0
        for limb in weighted.tolist():
            total = (total << 32) + limb
        self._sum = (self._sum + total) % _DIGEST_MODULUS
        self._count += len(block)

    def merge(self, other: "StreamDigest") -> "StreamDigest":
        """Fold another partial stream's digest into this one."""
        self._sum = (self._sum + other._sum) % _DIGEST_MODULUS
        self._count += other._count
        return self

    def hexdigest(self) -> str:
        """The canonical fingerprint of the admitted-event multiset."""
        payload = f"{self._count}\x1f{self._sum:064x}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def copy(self) -> "StreamDigest":
        """An independent digest with identical state."""
        return StreamDigest(self._sum, self._count)

    def to_obj(self) -> Dict[str, Any]:
        """JSON-compatible form (service checkpoints)."""
        return {"sum": f"{self._sum:064x}", "count": self._count}

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "StreamDigest":
        """Rebuild a digest from :meth:`to_obj` output.

        Raises:
            MeasurementError: on a malformed document.
        """
        try:
            return cls(int(str(obj["sum"]), 16), int(obj["count"]))
        except (KeyError, TypeError, ValueError) as error:
            raise MeasurementError(
                f"malformed stream digest document ({error})"
            ) from error
