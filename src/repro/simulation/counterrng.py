"""Counter-based random streams for the whole-day matrix engine.

The chunked vectorized engine draws from one sequential PCG64 generator
per (seed, day, client): correctness is easy, but a cross-client matrix
engine would have to replay every client's stream in order, which caps
throughput at the sequential-draw floor.  This module replaces sequential
consumption with *counter-based* streams: every random value used by a
beacon synthesis is a pure function of

    (campaign seed, day, client index, beacon row, slot)

hashed through a splitmix64-style finalizer.  Any engine — per-client
oracle or whole-day matrix — evaluates the same function at the same
coordinates and obtains bit-identical values, in any batching order, over
any subset of positions.  That is what keeps ``serial == sharded ==
matrix`` digests exact without ever sharing generator state.

Only the *beacon RTT synthesis* terms live here (rank selection, Gumbel
target picks, jitter/spike/overhead noise, per-day path variation).  The
per-client scalar streams — workload counts, churn, episodes, passive
apportionment, resource-timing support, static path offsets — keep their
existing ``derive_rng`` sequential streams, so those observable counts
are unchanged across every engine.
"""

from __future__ import annotations

import numpy as np

from repro.rand import derive_seed

__all__ = [
    "ROW_CAP",
    "BeaconSlotLayout",
    "DayKeys",
    "gumbel_from_uniform",
    "hashed_uniform",
    "normal_from_uniforms",
    "normal_pair_from_uniforms",
]

# Maximum beacons per (client, day) the slot addressing can represent.
# Row ids are packed as client_index * ROW_CAP + row; at 2**26 rows per
# client-day the packed id stays far below 2**64 even with the slot
# stride multiplied in (indices < 2**21, strides < 2**7).
ROW_CAP = 1 << 26

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
# 53-bit mantissa scaling; the +2**-54 offset keeps draws strictly inside
# (0, 1) so log()/log(-log()) transforms never see 0.0 or 1.0.
_TO_UNIT = 2.0 ** -53
_HALF_ULP = 2.0 ** -54


def _mix(value: np.ndarray) -> np.ndarray:
    """One splitmix64 finalizer round (operates on uint64 arrays)."""
    value = (value ^ (value >> _SHIFT_30)) * _MIX_1
    value = (value ^ (value >> _SHIFT_27)) * _MIX_2
    return value ^ (value >> _SHIFT_31)


def hashed_uniform(key: np.uint64, gids: np.ndarray) -> np.ndarray:
    """Uniform (0, 1) doubles for draw coordinates ``gids`` under ``key``.

    Pure function of (key, gid): evaluating any subset, in any order, in
    any array shape yields the same per-coordinate values.  Two finalizer
    rounds separate the structured gid lattice (rows x slots) from the
    output; the golden-ratio premultiply decorrelates consecutive gids.
    """
    gids = np.asarray(gids, dtype=np.uint64)
    mixed = _mix(_mix(gids * _GOLDEN) ^ key)
    return (mixed >> _SHIFT_11) * _TO_UNIT + _HALF_ULP


def normal_pair_from_uniforms(
    u1: np.ndarray, u2: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Two independent standard normals per (u1, u2) pair (Box-Muller)."""
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    return radius * np.cos(theta), radius * np.sin(theta)


def normal_from_uniforms(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """One standard normal per (u1, u2) pair (cosine branch only)."""
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * np.pi) * u2)


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel(0, 1) deviates via inverse transform."""
    return -np.log(-np.log(u))


class BeaconSlotLayout:
    """Stable slot numbering for the per-row beacon draw coordinates.

    Computed from the beacon methodology alone (candidate pool size and
    target count ceilings), never from runtime state, so every engine and
    every shard agrees on which slot holds which term:

    ====================  =============================================
    slot                  term
    ====================  =============================================
    ``rank``              route-rank selection uniform
    ``pick_base + j``     Gumbel-key uniform for pool position ``j``
    ``jitter_base + k``   Box-Muller uniform ``k`` (pairs cover targets)
    ``spike_base + t``    spike-occurrence uniform for target ``t``
    ``spike_mag + 2t``    spike-magnitude Box-Muller pair for ``t``
    ``overhead + 2t``     measurement-overhead Box-Muller pair for ``t``
    ====================  =============================================
    """

    __slots__ = (
        "pool_max",
        "targets_max",
        "rank",
        "pick_base",
        "jitter_base",
        "spike_base",
        "spike_mag_base",
        "overhead_base",
        "stride",
        "path_stride",
    )

    def __init__(self, pool_max: int, targets_max: int) -> None:
        self.pool_max = int(pool_max)
        self.targets_max = int(targets_max)
        self.rank = 0
        self.pick_base = 1
        self.jitter_base = self.pick_base + self.pool_max
        jitter_pairs = (self.targets_max + 1) // 2
        self.spike_base = self.jitter_base + 2 * jitter_pairs
        self.spike_mag_base = self.spike_base + self.targets_max
        self.overhead_base = self.spike_mag_base + 2 * self.targets_max
        self.stride = self.overhead_base + 2 * self.targets_max
        # Per-(client, path) daily-variation coordinates: path slot 0 is
        # anycast, 1 the closest unicast, 2+j pool position j; each path
        # consumes 3 sub-draws (occurrence uniform + Box-Muller pair).
        self.path_stride = 3 * (2 + self.pool_max)

    def row_gids(self, client_index, rows: np.ndarray) -> np.ndarray:
        """Packed (client, row) draw-coordinate bases, scaled by stride.

        ``rows`` are *absolute* per-day beacon indices, so chunking a
        client-day at any boundary leaves every coordinate unchanged.
        ``client_index`` may be a scalar (one client's rows — the
        chunked oracle) or a per-row array (a cross-client chunk — the
        matrix engine); the coordinates are identical either way.
        """
        base = np.asarray(client_index, dtype=np.uint64) * np.uint64(ROW_CAP)
        return (base + rows.astype(np.uint64)) * np.uint64(self.stride)


class DayKeys:
    """The two per-(seed, day) hash keys the beacon synthesis consumes.

    ``beacon`` keys the per-row draw lattice; ``daily`` keys the
    once-per-day per-(client, path) variation draws.  Separate keys keep
    the two coordinate spaces from ever colliding.
    """

    __slots__ = ("beacon", "daily")

    def __init__(self, seed: int, day: int) -> None:
        self.beacon = np.uint64(derive_seed(seed, "campaign-mat", day))
        self.daily = np.uint64(derive_seed(seed, "campaign-mat-daily", day))
