"""Bounded, mergeable latency quantile sketches.

A month-long campaign over millions of clients cannot retain raw
samples: the shared-LDNS digests and the per-request diff log grow
linearly with population.  :class:`LatencySketch` replaces raw retention
with a *deterministic log-linear histogram sketch* whose state is a pure
function of the multiset of inserted values:

* **Bounded.**  Bucket keys are the top ``mantissa_bits`` bits of the
  IEEE-754 representation of ``|value|`` — a log-linear binning with
  ``2**mantissa_bits`` equal-width buckets per octave.  On top of the
  domain bound, a hard ``max_buckets`` cap triggers *deterministic
  compression*: whenever the occupied signed buckets exceed the cap, one
  kept mantissa bit is dropped, exactly merging every adjacent bucket
  pair (``key >> 1``).  The final resolution is therefore the coarsest
  one the inserted multiset forces — a pure function of the multiset,
  not of insertion or merge order — so the cap never breaks parity.
  Resolution bottoms out at one mantissa bit (two buckets per octave);
  past that floor the occupied-bucket count is bounded by the data's
  *exponent span* (two buckets per power of two covered), which still
  does not grow with sample count — only with dynamic range.
* **Deterministic.**  Key extraction is pure integer arithmetic on the
  float's bit pattern — no transcendental functions whose last-ulp
  behavior could differ between the scalar and vectorized insert paths.
  Inserting the same multiset of values, in any order, through any mix
  of :meth:`add`, :meth:`extend`, and :meth:`merge`, yields bit-identical
  state.  (Proof sketch for compression: the distinct-key count at any
  resolution is monotone in the multiset, so the final ``mantissa_bits``
  is the largest value whose distinct-key count fits the cap — and
  bucket counts at that resolution are exact sums over finer keys.)
* **Mergeable.**  :meth:`merge` adds bucket counts; it is exact,
  commutative, and associative, so a sharded campaign's merged sketch
  equals the serial run's sketch *bit for bit* — the property the
  serial == sharded digest-parity contract rests on.
* **Canonical digest.**  :meth:`digest` hashes the sorted bucket state
  plus the exactly-tracked count/min/max, giving an order-insensitive
  fingerprint (the sketch-level analogue of
  :meth:`repro.simulation.dataset.StudyDataset.digest`).

Why not a classic t-digest?  t-digest compression depends on insertion
and merge order, so "serial == sharded, bit for bit" can only hold
within a tolerance.  The log-linear sketch trades slightly larger (but
still domain-bounded) state for an *exactly* order-insensitive merge,
which keeps the repo's digest-parity tests meaningful in sketch mode.

**Error bound.**  Each bucket's representative is its midpoint; a bucket
spanning ``[L, U)`` inside one octave has width ``U - L <= L *
2**-mantissa_bits``, so any reported quantile/threshold value is within
a relative ``2**-(mantissa_bits + 1)`` of some true sample value — at
the default accuracy (1%) that is ``2**-7 ~= 0.78%``.  Every
compression step doubles that bound (one fewer kept bit);
:attr:`LatencySketch.relative_error_bound` always reports the *current*
bound, and :attr:`LatencySketch.compressions` how many halvings the
data forced.  Rank queries (:meth:`fraction_at_or_below`) are exact in
*rank* for thresholds on bucket boundaries and carry the same
relative-value uncertainty elsewhere.  ``count``, ``minimum`` and
``maximum`` are always exact.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError, MeasurementError

#: Schema marker of the sketch state, hashed by :meth:`LatencySketch
#: .canonical_state`.
SKETCH_SCHEMA_VERSION = 1

#: Default relative accuracy: reported values within 1% of a true sample.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values with magnitude below this land in the exact zero bucket.
DEFAULT_MIN_TRACKABLE_MS = 1e-3

#: Default hard cap on occupied signed buckets per sketch.  Generous
#: enough that compression rarely engages over plausible RTT domains at
#: the default accuracy; it exists so the footprint is bounded even for
#: pathological value spreads.
DEFAULT_MAX_BUCKETS = 512

#: Smallest allowed ``max_buckets``: below this the sketch cannot hold
#: one octave at the coarsest useful resolution.
MIN_MAX_BUCKETS = 8

#: float64 has 52 mantissa bits; keys keep the top ``mantissa_bits``.
_FLOAT64_MANTISSA_BITS = 52

#: Hard cap: beyond ~26 kept bits the "sketch" is denser than float32.
_MAX_MANTISSA_BITS = 26


def check_sketch_settings(
    threshold: Optional[int], accuracy: float, max_buckets: int
) -> None:
    """Refuse sketch settings no promoted digest could run with.

    The one rule behind the campaign's and the service's sketch knobs,
    checked at config time: a bad accuracy or bucket cap fails even
    when no digest ever crosses the threshold.

    Raises:
        ConfigurationError: on a threshold below 1, an accuracy outside
            ``(0, 0.5]`` or a bucket cap below :data:`MIN_MAX_BUCKETS`.
    """
    if threshold is not None and threshold < 1:
        raise ConfigurationError("sketch_threshold must be >= 1")
    if not 0.0 < accuracy <= 0.5:
        raise ConfigurationError("sketch_accuracy must be in (0, 0.5]")
    if max_buckets < MIN_MAX_BUCKETS:
        raise ConfigurationError(
            f"sketch_max_buckets must be >= {MIN_MAX_BUCKETS}"
        )


def mantissa_bits_for(relative_accuracy: float) -> int:
    """Smallest kept-mantissa-bit count meeting a relative accuracy.

    With midpoint representatives the worst-case relative error is
    ``2**-(m + 1)``; solve for the smallest ``m`` at or under the target.

    Raises:
        MeasurementError: when the accuracy is not in ``(0, 0.5]``.
    """
    if not 0.0 < relative_accuracy <= 0.5:
        raise MeasurementError(
            f"relative_accuracy must be in (0, 0.5], got {relative_accuracy!r}"
        )
    bits = 1
    while 2.0 ** -(bits + 1) > relative_accuracy and bits < _MAX_MANTISSA_BITS:
        bits += 1
    return bits


class LatencySketch:
    """A deterministic, mergeable, domain-bounded quantile sketch.

    Args:
        relative_accuracy: Worst-case relative error of reported values
            (default 1%); mapped to a kept-mantissa-bit count via
            :func:`mantissa_bits_for`.
        min_trackable: Magnitude below which values collapse into the
            exact zero bucket (reported as ``0.0``).
        max_buckets: Hard cap on occupied signed buckets.  When the data
            would exceed it, resolution halves (deterministically — see
            the module docstring) until it fits, doubling the error
            bound per halving.

    State is three stores — negative, zero, positive — so signed data
    (Fig 3's anycast − best-unicast diffs) sketches correctly.
    """

    __slots__ = (
        "_base_mantissa_bits",
        "_mantissa_bits",
        "_shift",
        "_min_trackable",
        "_max_buckets",
        "_pos",
        "_neg",
        "_zero",
        "_count",
        "_min",
        "_max",
        "_sum",
        "_ordered",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        min_trackable: float = DEFAULT_MIN_TRACKABLE_MS,
        *,
        mantissa_bits: Optional[int] = None,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if mantissa_bits is None:
            mantissa_bits = mantissa_bits_for(relative_accuracy)
        if not 1 <= mantissa_bits <= _MAX_MANTISSA_BITS:
            raise MeasurementError(
                f"mantissa_bits must be in [1, {_MAX_MANTISSA_BITS}], "
                f"got {mantissa_bits!r}"
            )
        if not (min_trackable > 0.0 and np.isfinite(min_trackable)):
            raise MeasurementError("min_trackable must be finite and > 0")
        if max_buckets < MIN_MAX_BUCKETS:
            raise MeasurementError(
                f"max_buckets must be >= {MIN_MAX_BUCKETS}, "
                f"got {max_buckets!r}"
            )
        self._base_mantissa_bits = mantissa_bits
        self._mantissa_bits = mantissa_bits
        self._shift = _FLOAT64_MANTISSA_BITS - mantissa_bits
        self._min_trackable = float(min_trackable)
        self._max_buckets = int(max_buckets)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._sum = 0.0
        self._ordered: Optional[List[Tuple[float, int]]] = None

    # ------------------------------------------------------------------
    # Key geometry
    # ------------------------------------------------------------------

    @property
    def mantissa_bits(self) -> int:
        """Current kept mantissa bits (``2**bits`` buckets per octave)."""
        return self._mantissa_bits

    @property
    def base_mantissa_bits(self) -> int:
        """Configured (pre-compression) kept mantissa bits."""
        return self._base_mantissa_bits

    @property
    def max_buckets(self) -> int:
        """Hard cap on occupied signed buckets."""
        return self._max_buckets

    @property
    def compressions(self) -> int:
        """Resolution halvings the inserted data has forced so far."""
        return self._base_mantissa_bits - self._mantissa_bits

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative error of reported values at the *current*
        resolution (doubles per compression step)."""
        return 2.0 ** -(self._mantissa_bits + 1)

    @property
    def min_trackable(self) -> float:
        """Magnitude threshold of the exact zero bucket."""
        return self._min_trackable

    def _set_resolution(self, mantissa_bits: int) -> None:
        """Coarsen to ``mantissa_bits``, exactly merging bucket pairs."""
        delta = self._mantissa_bits - mantissa_bits
        if delta <= 0:
            return
        for name in ("_pos", "_neg"):
            store: Dict[int, int] = getattr(self, name)
            if store:
                coarse: Dict[int, int] = {}
                for key, count in store.items():
                    shifted = key >> delta
                    coarse[shifted] = coarse.get(shifted, 0) + count
                setattr(self, name, coarse)
        self._mantissa_bits = mantissa_bits
        self._shift = _FLOAT64_MANTISSA_BITS - mantissa_bits
        self._ordered = None

    def _compress(self) -> None:
        """Halve resolution until the signed-bucket cap is met.

        Each halving merges adjacent bucket pairs exactly, so the final
        state depends only on the inserted multiset (the distinct-key
        count at every resolution is monotone in the multiset), never on
        insertion or merge order.
        """
        while (
            len(self._pos) + len(self._neg) > self._max_buckets
            and self._mantissa_bits > 1
        ):
            self._set_resolution(self._mantissa_bits - 1)

    def _key_scalar(self, magnitude: float) -> int:
        # Pure integer arithmetic on the IEEE bit pattern — bit-identical
        # to the vectorized path's ``view(int64) >> shift``.
        (bits,) = struct.unpack("<q", struct.pack("<d", magnitude))
        return bits >> self._shift

    def _bucket_bounds(self, key: int) -> Tuple[float, float]:
        low = struct.unpack("<d", struct.pack("<q", key << self._shift))[0]
        high = struct.unpack(
            "<d", struct.pack("<q", (key + 1) << self._shift)
        )[0]
        return low, high

    def _representative(self, key: int) -> float:
        low, high = self._bucket_bounds(key)
        return (low + high) / 2.0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def _track(self, lo: float, hi: float, total: float, n: int) -> None:
        self._count += n
        self._sum += total
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi
        self._ordered = None

    def add(self, value: float) -> None:
        """Insert one sample."""
        value = float(value)
        if not np.isfinite(value):
            raise MeasurementError(
                f"sketch values must be finite, got {value!r}"
            )
        magnitude = abs(value)
        if magnitude < self._min_trackable:
            self._zero += 1
        elif value > 0.0:
            key = self._key_scalar(magnitude)
            self._pos[key] = self._pos.get(key, 0) + 1
        else:
            key = self._key_scalar(magnitude)
            self._neg[key] = self._neg.get(key, 0) + 1
        self._track(value, value, value, 1)
        self._compress()

    def extend(
        self, values: Union[np.ndarray, Iterable[float]]
    ) -> None:
        """Insert a batch of samples (the vectorized bulk path)."""
        arr = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise MeasurementError("sketch values must be finite")
        magnitude = np.abs(arr)
        small = magnitude < self._min_trackable
        self._zero += int(small.sum())
        for mask, store in (
            ((~small) & (arr > 0.0), self._pos),
            ((~small) & (arr <= 0.0), self._neg),
        ):
            if not mask.any():
                continue
            keys = magnitude[mask].view(np.int64) >> self._shift
            uniques, counts = np.unique(keys, return_counts=True)
            for key, count in zip(uniques.tolist(), counts.tolist()):
                store[key] = store.get(key, 0) + count
        self._track(
            float(arr.min()), float(arr.max()), float(arr.sum()), arr.size
        )
        self._compress()

    def merge(self, other: "LatencySketch") -> "LatencySketch":
        """Fold another sketch's buckets into this one (in place).

        Exact bucket-count addition at the coarser of the two current
        resolutions: commutative, associative, and order-insensitive, so
        any merge tree over the same sketches reaches bit-identical
        state — compression included (a finer operand's buckets coarsen
        exactly via ``key >> delta``).

        Raises:
            MeasurementError: when the sketches' configured geometry
                differs (accuracy, zero-bucket threshold, or bucket cap)
                — their buckets would not align.
        """
        if (
            other._base_mantissa_bits != self._base_mantissa_bits
            or other._min_trackable != self._min_trackable
            or other._max_buckets != self._max_buckets
        ):
            raise MeasurementError(
                "cannot merge sketches with different key geometry "
                f"(mantissa_bits {other._base_mantissa_bits} vs "
                f"{self._base_mantissa_bits}, min_trackable "
                f"{other._min_trackable!r} vs {self._min_trackable!r}, "
                f"max_buckets {other._max_buckets} vs "
                f"{self._max_buckets})"
            )
        self._set_resolution(
            min(self._mantissa_bits, other._mantissa_bits)
        )
        delta = other._mantissa_bits - self._mantissa_bits
        for key, count in other._pos.items():
            key >>= delta
            self._pos[key] = self._pos.get(key, 0) + count
        for key, count in other._neg.items():
            key >>= delta
            self._neg[key] = self._neg.get(key, 0) + count
        self._zero += other._zero
        if other._count:
            assert other._min is not None and other._max is not None
            self._track(other._min, other._max, other._sum, other._count)
        self._compress()
        return self

    def copy(self) -> "LatencySketch":
        """An independent sketch with identical state."""
        clone = LatencySketch(
            min_trackable=self._min_trackable,
            mantissa_bits=self._base_mantissa_bits,
            max_buckets=self._max_buckets,
        )
        clone._mantissa_bits = self._mantissa_bits
        clone._shift = self._shift
        clone._pos = dict(self._pos)
        clone._neg = dict(self._neg)
        clone._zero = self._zero
        clone._count = self._count
        clone._min = self._min
        clone._max = self._max
        clone._sum = self._sum
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Exact number of inserted samples."""
        return self._count

    @property
    def bucket_count(self) -> int:
        """Occupied buckets (the bounded footprint), zero bucket included."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def minimum(self) -> float:
        """Exact smallest sample."""
        if self._min is None:
            raise AnalysisError("empty sketch has no minimum")
        return self._min

    def maximum(self) -> float:
        """Exact largest sample."""
        if self._max is None:
            raise AnalysisError("empty sketch has no maximum")
        return self._max

    def _ordered_buckets(self) -> List[Tuple[float, int]]:
        """(representative, count) pairs in ascending value order."""
        if self._ordered is None:
            ordered: List[Tuple[float, int]] = [
                (-self._representative(key), self._neg[key])
                for key in sorted(self._neg, reverse=True)
            ]
            if self._zero:
                ordered.append((0.0, self._zero))
            ordered.extend(
                (self._representative(key), self._pos[key])
                for key in sorted(self._pos)
            )
            self._ordered = ordered
        return self._ordered

    def quantile(self, q: float) -> float:
        """The q-th percentile (``q`` in [0, 100]) within the error bound.

        Endpoints are exact: ``quantile(0) == minimum()`` and
        ``quantile(100) == maximum()``; interior results are bucket
        midpoints clamped into ``[minimum(), maximum()]``.

        Raises:
            AnalysisError: if empty, or ``q`` outside [0, 100].
        """
        if not self._count:
            raise AnalysisError("empty sketch has no percentiles")
        if not 0.0 <= q <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100], got {q}")
        assert self._min is not None and self._max is not None
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        rank = (q / 100.0) * (self._count - 1)
        cumulative = 0
        for representative, count in self._ordered_buckets():
            cumulative += count
            if cumulative > rank:
                return min(max(representative, self._min), self._max)
        return self._max

    def median(self) -> float:
        """Shorthand for the 50th percentile."""
        return self.quantile(50.0)

    def fraction_at_or_below(self, x: float) -> float:
        """Approximate CDF at ``x`` (fraction of samples ``<= x``).

        Buckets count wholly by their representative, so the effective
        threshold is within the sketch's relative error of ``x``.
        """
        if not self._count:
            raise AnalysisError("empty sketch has no distribution")
        below = sum(
            count
            for representative, count in self._ordered_buckets()
            if representative <= x
        )
        return below / self._count

    def fraction_above(self, x: float) -> float:
        """Approximate CCDF at ``x`` (fraction strictly above)."""
        return 1.0 - self.fraction_at_or_below(x)

    # ------------------------------------------------------------------
    # Canonical digest and serialization
    # ------------------------------------------------------------------

    def canonical_state(self) -> Tuple[Any, ...]:
        """The order-insensitive state tuple :meth:`digest` hashes.

        A pure function of the inserted value multiset: the approximate
        ``sum`` (whose float accumulation order varies across merge
        trees) is deliberately excluded.
        """
        return (
            "latency-sketch",
            SKETCH_SCHEMA_VERSION,
            self._base_mantissa_bits,
            self._mantissa_bits,
            self._max_buckets,
            repr(self._min_trackable),
            self._count,
            self._zero,
            tuple(sorted(self._pos.items())),
            tuple(sorted(self._neg.items())),
            repr(self._min),
            repr(self._max),
        )

    def digest(self) -> str:
        """Canonical SHA-256 fingerprint of the sketch's contents."""
        text = "".join(f"{part}\x1f" for part in self.canonical_state())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def column_state(self) -> Dict[str, Any]:
        """Columnar state for zero-copy transport: sorted key/count
        arrays (int64) per signed store, plus the exact scalars."""
        pos_keys = np.asarray(sorted(self._pos), dtype=np.int64)
        neg_keys = np.asarray(sorted(self._neg), dtype=np.int64)
        return {
            "mantissa_bits": self._mantissa_bits,
            "base_mantissa_bits": self._base_mantissa_bits,
            "max_buckets": self._max_buckets,
            "min_trackable": self._min_trackable,
            "pos_keys": pos_keys,
            "pos_counts": np.asarray(
                [self._pos[int(k)] for k in pos_keys], dtype=np.int64
            ),
            "neg_keys": neg_keys,
            "neg_counts": np.asarray(
                [self._neg[int(k)] for k in neg_keys], dtype=np.int64
            ),
            "zero": self._zero,
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "sum": self._sum,
        }

    @classmethod
    def from_columns(
        cls,
        mantissa_bits: int,
        min_trackable: float,
        pos_keys: np.ndarray,
        pos_counts: np.ndarray,
        neg_keys: np.ndarray,
        neg_counts: np.ndarray,
        zero: int,
        count: int,
        minimum: Optional[float],
        maximum: Optional[float],
        total: float,
        base_mantissa_bits: int,
        max_buckets: int,
    ) -> "LatencySketch":
        """Rebuild a sketch from :meth:`column_state` arrays."""
        if not 1 <= int(mantissa_bits) <= int(base_mantissa_bits):
            raise MeasurementError(
                f"current mantissa_bits {mantissa_bits!r} must be in "
                f"[1, base {base_mantissa_bits!r}]"
            )
        sketch = cls(
            min_trackable=float(min_trackable),
            mantissa_bits=int(base_mantissa_bits),
            max_buckets=int(max_buckets),
        )
        sketch._mantissa_bits = int(mantissa_bits)
        sketch._shift = _FLOAT64_MANTISSA_BITS - int(mantissa_bits)
        sketch._pos = {
            int(k): int(c) for k, c in zip(pos_keys, pos_counts)
        }
        sketch._neg = {
            int(k): int(c) for k, c in zip(neg_keys, neg_counts)
        }
        sketch._zero = int(zero)
        sketch._count = int(count)
        sketch._min = None if minimum is None else float(minimum)
        sketch._max = None if maximum is None else float(maximum)
        sketch._sum = float(total)
        if sketch._count and (sketch._min is None or sketch._max is None):
            raise MeasurementError(
                "non-empty sketch state is missing its min/max envelope"
            )
        return sketch

    def __repr__(self) -> str:
        return (
            f"LatencySketch(count={self._count}, "
            f"buckets={self.bucket_count}, "
            f"mantissa_bits={self._mantissa_bits})"
        )
