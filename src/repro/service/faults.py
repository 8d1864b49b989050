"""Fault-plan kill points inside the ingestion loop.

The service reuses the campaign's :class:`~repro.faults.plan.FaultPlan`
vocabulary, restricted to the kinds that make sense for a single
long-running loop: ``crash`` (the process dies mid-stream — the chaos
tests' kill point) and ``exception`` (a transient error surfaces and
the supervisor restarts the loop).  Faults compile exactly like a
1-shard campaign: the plan's n-th service fault fires on the n-th
*attempt* (restart), and each firing point pins to a seed-derived event
ordinal (the loop cuts its day blocks there), so a chaos run kills at
the same record on every execution —
which is what makes "killed, resumed, bit-identical" a deterministic
assertion instead of a race.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.faults.inject import InjectedCrashError, InjectedTransientError
from repro.faults.plan import CompiledFaultPlan, FaultKind, FaultPlan
from repro.rand import derive_seed

#: Fault kinds a service plan may schedule at the loop's kill points.
#: (``record-*`` kinds are also accepted by the *replay* layer, which
#: dirties events before they reach the gate — see
#: :func:`repro.service.replay.dirty_events`.)
SERVICE_KINDS = frozenset({FaultKind.CRASH, FaultKind.EXCEPTION})


def compile_service_plan(
    plan: Optional[FaultPlan], seed: int
) -> Optional[CompiledFaultPlan]:
    """Compile a plan's worker faults for the single service "shard".

    Raises:
        ConfigurationError: when the plan schedules worker-fault kinds
            the service loop has no site for (hang/corrupt/merge).
    """
    if plan is None:
        return None
    unsupported = sorted(
        spec.kind.value
        for spec in plan.worker_specs
        if spec.kind not in SERVICE_KINDS
    )
    if unsupported:
        raise ConfigurationError(
            "service fault plans support kinds "
            f"{sorted(k.value for k in SERVICE_KINDS)} plus record-* "
            f"dirty-data kinds; got {unsupported}"
        )
    if not plan.worker_specs:
        return None
    return plan.compile(seed, shards=1)


class ServiceFaultInjector:
    """Fires one service attempt's scheduled fault at its event ordinal.

    Args:
        kind: The fault scheduled for this attempt (restart), or
            ``None`` for a clean attempt.
        seed: Scenario seed; derives the firing ordinal.
        attempt: The restart count (0 = first run).
        horizon: Expected stream length in events; the firing ordinal
            is derived modulo this, landing the kill point mid-stream.
    """

    def __init__(
        self,
        kind: Optional[FaultKind],
        seed: int,
        attempt: int,
        horizon: int,
    ) -> None:
        self.kind = kind
        self.seed = seed
        self.attempt = attempt
        self.horizon = max(1, horizon)
        self.fired = False
        self.fire_at = derive_seed(
            seed, "service-fault", attempt
        ) % self.horizon

    def on_event(self, cursor: int) -> None:
        """Kill point: fires once the cursor reaches :attr:`fire_at`.

        The loop cuts its day blocks at :attr:`fire_at` and calls this
        there, also when the ordinal lies inside the prefix a resumed
        run skips, so the fault fires at the same event ordinal however
        the stream is blocked.
        """
        if self.kind is None or self.fired or cursor < self.fire_at:
            return
        self.fired = True
        if self.kind is FaultKind.CRASH:
            raise InjectedCrashError(
                f"injected service crash at event {cursor} "
                f"(attempt {self.attempt})"
            )
        raise InjectedTransientError(
            f"injected transient service failure at event {cursor} "
            f"(attempt {self.attempt})"
        )
