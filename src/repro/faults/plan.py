"""Deterministic, seed-derived fault plans.

A :class:`FaultPlan` describes *what* should go wrong during a campaign
(worker crashes, hangs, transient exceptions, corrupted shard payloads,
sink-merge failures) without saying *when* in wall-clock terms — the
plan compiles against a ``(seed, shard count)`` pair into a
:class:`CompiledFaultPlan` that pins every fault to a ``(shard,
attempt)`` firing point via :func:`repro.rand.derive_seed`.  Firing
points therefore depend only on the scenario seed and the shard layout:
the same plan fires at the same points for the reference and vectorized
engines, for any worker count, and on every re-run — which is what lets
the chaos tests assert that a campaign surviving injected faults via
retries is bit-identical to the fault-free run.

Faults assigned to the same shard stack on successive attempts (the
first fault fires on attempt 0, the second on the retry, ...), so a plan
with more faults on one shard than the campaign's retry budget forces
that shard to exhaust its retries — the degraded/partial path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rand import derive_seed

#: Default simulated hang duration (seconds); see :attr:`FaultPlan.hang_seconds`.
DEFAULT_HANG_SECONDS = 30.0


class FaultKind(enum.Enum):
    """The injectable failure modes of a sharded measurement campaign.

    Mirrors the operational failure classes the paper's pipeline rode
    through (§6: front-end drains, route changes, partial data loss):

    * ``CRASH`` — the worker process aborts before doing any work.
    * ``HANG`` — the worker stalls (simulated as a bounded sleep) so a
      configured shard timeout fires.
    * ``EXCEPTION`` — a transient error surfaces mid-run, at a
      seed-derived day of the campaign calendar.
    * ``CORRUPT`` — the worker completes but its shard payload is
      corrupted in transit; the coordinator's integrity check rejects it.
    * ``MERGE`` — folding the shard's dataset into the campaign result
      fails at the coordinator.

    The ``RECORD_*`` kinds are *dirty-data* faults: instead of failing a
    worker, they damage individual measurement records in flight (the
    client-side garbage real JavaScript beacons produce — §3.2's filter
    targets), exercising the validation gate rather than the retry
    machinery:

    * ``RECORD_CORRUPT`` — a record's RTT becomes ``NaN`` (torn upload).
    * ``RECORD_CLOCK_SKEW`` — a large negative clock step is added to
      the RTT, making it wildly negative.
    * ``RECORD_TRUNCATE`` — the record is cut off mid-upload, encoded as
      ``-inf`` (no value to recover).
    """

    CRASH = "crash"
    HANG = "hang"
    EXCEPTION = "exception"
    CORRUPT = "corrupt"
    MERGE = "merge"
    RECORD_CORRUPT = "record-corrupt"
    RECORD_CLOCK_SKEW = "record-clock-skew"
    RECORD_TRUNCATE = "record-truncate"


#: The dirty-data kinds, which target records instead of workers.
RECORD_KINDS = frozenset(
    {
        FaultKind.RECORD_CORRUPT,
        FaultKind.RECORD_CLOCK_SKEW,
        FaultKind.RECORD_TRUNCATE,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with a multiplicity and an optional pinned shard.

    Attributes:
        kind: The failure mode to inject.
        count: How many instances of the fault to schedule.
        shard: Pin every instance to this shard index (modulo the
            compiled shard count); ``None`` picks shards from a
            seed-derived stream.
    """

    kind: FaultKind
    count: int = 1
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"fault spec {self.kind.value!r}: count must be >= 1"
            )
        if self.shard is not None and self.shard < 0:
            raise ConfigurationError(
                f"fault spec {self.kind.value!r}: shard must be >= 0"
            )
        if self.shard is not None and self.kind in RECORD_KINDS:
            # Record faults land on (day, client) coordinates derived
            # from the *population*, precisely so they hit the same
            # records no matter how clients are sharded; a shard pin
            # would contradict that.
            raise ConfigurationError(
                f"fault spec {self.kind.value!r}: record faults cannot "
                "be pinned to a shard"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults to inject into a campaign.

    Attributes:
        specs: The faults to schedule, in order.
        hang_seconds: How long a ``HANG`` fault sleeps.  Pick a value
            comfortably above the campaign's ``shard_timeout`` so the
            timeout, not the sleep, decides the outcome.
    """

    specs: Tuple[FaultSpec, ...] = ()
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.hang_seconds < 0:
            raise ConfigurationError("hang_seconds must be >= 0")

    @classmethod
    def from_spec(
        cls, text: str, hang_seconds: float = DEFAULT_HANG_SECONDS
    ) -> "FaultPlan":
        """Parse a plan from a compact CLI spec string.

        The grammar is ``kind[:count][@shard]`` entries joined by commas,
        e.g. ``"crash:1"``, ``"crash:2,hang:1"``, or ``"exception:3@0"``
        (three transient exceptions all pinned to shard 0 — enough to
        exhaust a 2-retry budget).

        Raises:
            ConfigurationError: on an unknown kind or malformed entry.
        """
        specs = []
        for raw_entry in text.split(","):
            entry = raw_entry.strip()
            if not entry:
                continue
            shard: Optional[int] = None
            if "@" in entry:
                entry, _, shard_text = entry.partition("@")
                try:
                    shard = int(shard_text)
                except ValueError:
                    raise ConfigurationError(
                        f"fault spec {raw_entry!r}: shard must be an integer"
                    ) from None
            kind_text, _, count_text = entry.partition(":")
            try:
                kind = FaultKind(kind_text.strip())
            except ValueError:
                valid = ", ".join(k.value for k in FaultKind)
                raise ConfigurationError(
                    f"unknown fault kind {kind_text.strip()!r}; expected one "
                    f"of: {valid}"
                ) from None
            try:
                count = int(count_text) if count_text else 1
            except ValueError:
                raise ConfigurationError(
                    f"fault spec {raw_entry!r}: count must be an integer"
                ) from None
            specs.append(FaultSpec(kind=kind, count=count, shard=shard))
        if not specs:
            raise ConfigurationError(f"empty fault plan spec {text!r}")
        return cls(specs=tuple(specs), hang_seconds=hang_seconds)

    def spec_string(self) -> str:
        """The compact spec string this plan round-trips to."""
        parts = []
        for spec in self.specs:
            entry = f"{spec.kind.value}:{spec.count}"
            if spec.shard is not None:
                entry += f"@{spec.shard}"
            parts.append(entry)
        return ",".join(parts)

    @property
    def worker_specs(self) -> Tuple[FaultSpec, ...]:
        """The worker-level specs (everything except record faults)."""
        return tuple(s for s in self.specs if s.kind not in RECORD_KINDS)

    @property
    def record_specs(self) -> Tuple[FaultSpec, ...]:
        """The dirty-data (``record-*``) specs."""
        return tuple(s for s in self.specs if s.kind in RECORD_KINDS)

    def record_only(self) -> Optional["FaultPlan"]:
        """The record-fault subset of this plan, or ``None`` if empty.

        The coordinator hands exactly this subset to workers: worker
        faults are the coordinator's to schedule per attempt, but record
        faults must travel with the data-producing code so every shard
        dirties its own slice of the (day, client) grid.
        """
        record_specs = self.record_specs
        if not record_specs:
            return None
        return FaultPlan(specs=record_specs, hang_seconds=self.hang_seconds)

    def compile(self, seed: int, shards: int) -> "CompiledFaultPlan":
        """Pin every worker-fault instance to a deterministic firing point.

        Unpinned instances land on a shard drawn from
        ``derive_seed(seed, "fault-plan", kind, spec_index, instance)``,
        so the assignment depends only on ``(seed, shards)`` — not on
        engine, worker count, or execution order.  Faults stack per
        shard: the n-th fault scheduled on a shard fires on attempt n.
        Record faults are not shard events and are skipped here; compile
        them with :meth:`compile_records`.

        Raises:
            ConfigurationError: if ``shards`` < 1.
        """
        if shards < 1:
            raise ConfigurationError("cannot compile a fault plan for 0 shards")
        next_attempt: Dict[int, int] = {}
        firing: Dict[Tuple[int, int], FaultKind] = {}
        for spec_index, spec in enumerate(self.specs):
            if spec.kind in RECORD_KINDS:
                # Skipped here, but still numbered: spec_index is a
                # spec's identity in *both* compilers, so one plan
                # string always derives one schedule.
                continue
            for instance in range(spec.count):
                if spec.shard is not None:
                    shard = spec.shard % shards
                else:
                    shard = derive_seed(
                        seed, "fault-plan", spec.kind.value, spec_index,
                        instance,
                    ) % shards
                attempt = next_attempt.get(shard, 0)
                next_attempt[shard] = attempt + 1
                firing[(shard, attempt)] = spec.kind
        return CompiledFaultPlan(
            firing=firing, hang_seconds=self.hang_seconds, seed=seed
        )

    def compile_records(
        self, seed: int, num_days: int, population: int
    ) -> "CompiledRecordFaultPlan":
        # record_faults() counts each spec_index below in the run
        # identity; keying cells differently must change it too.
        """Pin every record-fault instance to a ``(day, client)`` cell.

        Coordinates are derived from the seed and the *full* client
        population — never the shard layout — so a sharded campaign
        dirties exactly the records a serial one does.  The derivation
        tags deliberately exclude the fault *kind*: plans that differ
        only in kind (``record-corrupt:5`` vs ``record-truncate:5``) hit
        the same cells, which is what lets the chaos tests compare their
        quarantine accounting record-for-record.

        Raises:
            ConfigurationError: if ``num_days`` or ``population`` < 1
            while record faults are scheduled.
        """
        record_specs = [
            (spec_index, spec)
            for spec_index, spec in enumerate(self.specs)
            if spec.kind in RECORD_KINDS
        ]
        points: Dict[Tuple[int, int], Tuple[Tuple[FaultKind, int, int], ...]] = {}
        if record_specs and (num_days < 1 or population < 1):
            raise ConfigurationError(
                "cannot compile record faults for an empty campaign "
                f"({num_days} days, {population} clients)"
            )
        staged: Dict[Tuple[int, int], list] = {}
        for spec_index, spec in record_specs:
            for instance in range(spec.count):
                day = derive_seed(
                    seed, "record-fault", spec_index, instance, "day"
                ) % num_days
                client = derive_seed(
                    seed, "record-fault", spec_index, instance, "client"
                ) % population
                staged.setdefault((day, client), []).append(
                    (spec.kind, spec_index, instance)
                )
        for cell, instances in staged.items():
            points[cell] = tuple(instances)
        return CompiledRecordFaultPlan(points=points, seed=seed)


def record_faults(
    plan: Optional[FaultPlan],
) -> Tuple[Tuple[int, FaultSpec], ...]:
    """The part of a fault plan that changes the data, the identity view
    of every config's ``fault_plan`` (:mod:`repro.identity`): each
    ``record-*`` spec with the position :meth:`FaultPlan.compile_records`
    keys its cells on.  Worker faults are retried away, so a plan
    without record specs is the same data as no plan.
    """
    if plan is None:
        return ()
    return tuple(
        (index, spec)
        for index, spec in enumerate(plan.specs)
        if spec.kind in RECORD_KINDS
    )


@dataclass(frozen=True)
class CompiledFaultPlan:
    """A fault plan resolved to concrete ``(shard, attempt)`` firing points.

    Attributes:
        firing: Maps ``(shard, attempt)`` to the fault that fires there.
        hang_seconds: Sleep duration for ``HANG`` faults.
        seed: The scenario seed the plan was compiled against (also used
            to derive the firing day of ``EXCEPTION`` faults).
    """

    firing: Dict[Tuple[int, int], FaultKind] = field(default_factory=dict)
    hang_seconds: float = DEFAULT_HANG_SECONDS
    seed: int = 0

    def fault_for(self, shard: int, attempt: int) -> Optional[FaultKind]:
        """The fault scheduled for this shard attempt, if any."""
        return self.firing.get((shard, attempt))

    def firing_points(self) -> Tuple[Tuple[int, int, str], ...]:
        """All ``(shard, attempt, kind)`` points, sorted."""
        return tuple(
            (shard, attempt, kind.value)
            for (shard, attempt), kind in sorted(self.firing.items())
        )

    def faults_on(self, shard: int) -> int:
        """How many faults are scheduled on a shard (stacked attempts)."""
        return sum(1 for (s, _) in self.firing if s == shard)


@dataclass(frozen=True)
class CompiledRecordFaultPlan:
    """Record faults resolved to concrete ``(day, client)`` cells.

    Attributes:
        points: Maps ``(day, client_index)`` — indices into the full
            population — to the fault instances landing in that cell.
            Each instance is ``(kind, spec_index, instance)``; the last
            two disambiguate record-slot derivation when several
            instances share a cell.
        seed: The scenario seed the plan was compiled against.
    """

    points: Dict[Tuple[int, int], Tuple[Tuple[FaultKind, int, int], ...]] = (
        field(default_factory=dict)
    )
    seed: int = 0

    @property
    def empty(self) -> bool:
        """True when no record faults are scheduled."""
        return not self.points

    def instances_for(
        self, day: int, client_index: int
    ) -> Tuple[Tuple[FaultKind, int, int], ...]:
        """The fault instances landing on one (day, client) cell."""
        return self.points.get((day, client_index), ())

    def planted_counts(self) -> Dict[str, int]:
        """Scheduled instances per kind (for telemetry counters)."""
        counts: Dict[str, int] = {}
        for instances in self.points.values():
            for kind, _, _ in instances:
                counts[kind.value] = counts.get(kind.value, 0) + 1
        return counts
