"""Poor-path episodes: transient anycast latency inflation.

Figs 5 and 6 show that beyond the structurally bad routes, poor anycast
performance comes and goes: ~19% of /24s see *some* unicast improvement on
an average day, but ~60% of ever-poor prefixes are poor on only one day of
the month.  The transient component is modeled as episodes of congestion or
misrouting on a client's anycast path: an episode starts with a small daily
probability, lasts a geometric number of days (heavy one-day mass), and
inflates anycast RTTs by a lognormal amount while active.

Most episodes affect the anycast path — the unicast beacons to specific
front-ends take different routes, which is exactly why the paper's
methodology can see the problem.  A configurable minority instead hits one
specific unicast path, which is what makes yesterday's prediction
occasionally *worse* than anycast today (the left tail of Fig 9).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.clients.population import ClientPrefix
from repro.rand import derive_rng, derive_seed
from repro.simulation.clock import SimulationCalendar


class EpisodeScope(enum.Enum):
    """Which path an episode degrades."""

    ANYCAST = "anycast"
    UNICAST = "unicast"


@dataclass(frozen=True)
class EpisodeEffect:
    """An active episode's effect for one client-day.

    Attributes:
        inflation_ms: Added latency while the episode is active.
        scope: Anycast path, or one specific unicast path.
        selector: Uniform [0, 1) value identifying *which* unicast path is
            affected — the campaign maps it onto the client's candidate
            front-ends, keeping the affected path stable across the
            episode's days without this module knowing about front-ends.
    """

    inflation_ms: float
    scope: EpisodeScope
    selector: float

    def __post_init__(self) -> None:
        if self.inflation_ms < 0:
            raise ConfigurationError("inflation_ms must be non-negative")
        if not 0.0 <= self.selector < 1.0:
            raise ConfigurationError("selector must be in [0, 1)")


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode process parameters.

    Attributes:
        daily_start_probability: Chance an idle client starts an episode
            on a given day.
        continue_probability: Chance an active episode survives into the
            next day (geometric duration; mean = 1/(1-p) days).
        inflation_median_ms: Median added latency while active.
        inflation_sigma: Lognormal shape of the inflation draw.
        susceptible_fraction: Fraction of clients that can have episodes
            at all (paths through congested or fragile segments).
        unicast_scope_fraction: Fraction of episodes that degrade one
            specific unicast path instead of the anycast path.
    """

    daily_start_probability: float = 0.02
    continue_probability: float = 0.25
    inflation_median_ms: float = 35.0
    inflation_sigma: float = 0.9
    susceptible_fraction: float = 0.7
    unicast_scope_fraction: float = 0.45

    def __post_init__(self) -> None:
        for name in (
            "daily_start_probability",
            "continue_probability",
            "susceptible_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
        if not 0.0 <= self.unicast_scope_fraction <= 1.0:
            raise ConfigurationError(
                "unicast_scope_fraction must be in [0, 1]"
            )
        if self.inflation_median_ms <= 0:
            raise ConfigurationError("inflation_median_ms must be positive")
        if self.inflation_sigma < 0:
            raise ConfigurationError("inflation_sigma must be non-negative")


class PoorPathEpisodeModel:
    """Evolves per-client episodes day by day.

    Like :class:`repro.simulation.churn.RouteChurnModel`, days advance in
    order; the model tracks the active inflation per client.
    """

    def __init__(
        self,
        clients: Sequence[ClientPrefix],
        calendar: SimulationCalendar,
        config: Optional[EpisodeConfig] = None,
        seed: int = 0,
    ) -> None:
        self._config = config or EpisodeConfig()
        self._calendar = calendar
        self._rng = derive_rng(seed, "episodes")
        cfg = self._config
        self._susceptible: Dict[str, bool] = {
            client.key: self._rng.random() < cfg.susceptible_fraction
            for client in clients
        }
        #: client_key -> active effect (absent = idle)
        self._active: Dict[str, EpisodeEffect] = {}
        self._next_day = 0

    @property
    def config(self) -> EpisodeConfig:
        """The episode parameters."""
        return self._config

    def is_susceptible(self, client_key: str) -> bool:
        """Whether a client can ever have episodes."""
        return self._susceptible[client_key]

    def inflations_for_day(self, day: int) -> Dict[str, EpisodeEffect]:
        """Evolve into ``day`` and return the active episode effects.

        Clients absent from the result have no active episode.  Must be
        called with consecutive day indices starting at 0.  An episode's
        effect (inflation, scope, selector) is constant for its lifetime.
        """
        if day != self._next_day:
            raise ConfigurationError(
                f"episodes must advance day by day (expected "
                f"{self._next_day}, got {day})"
            )
        self._next_day += 1
        cfg = self._config
        rng = self._rng
        mu = math.log(cfg.inflation_median_ms)

        # Existing episodes either continue (same effect) or end.
        surviving: Dict[str, EpisodeEffect] = {
            key: effect
            for key, effect in self._active.items()
            if rng.random() < cfg.continue_probability
        }
        # Idle susceptible clients may start a new episode.
        for client_key, susceptible in self._susceptible.items():
            if not susceptible or client_key in surviving:
                continue
            if rng.random() < cfg.daily_start_probability:
                scope = (
                    EpisodeScope.UNICAST
                    if rng.random() < cfg.unicast_scope_fraction
                    else EpisodeScope.ANYCAST
                )
                surviving[client_key] = EpisodeEffect(
                    inflation_ms=rng.lognormvariate(mu, cfg.inflation_sigma),
                    scope=scope,
                    selector=rng.random(),
                )
        self._active = surviving
        return dict(surviving)


# ----------------------------------------------------------------------
# Overload episodes: demand surges and capacity losses
# ----------------------------------------------------------------------
#
# Where poor-path episodes degrade one client's *route*, overload
# episodes degrade a *front-end*: demand surges toward it (flash crowd,
# regional event) or capacity drains away from it (maintenance drain,
# outright failure).  They use the same compact, seed-derived plan
# grammar as :mod:`repro.faults` — ``kind[:count][@day]`` — so a chaos
# drill is one CLI string, and compile to concrete (day, target) events
# from the scenario seed alone: no engine, shard, or worker-count
# dependence, which is what keeps serial == sharded digests bit-exact.


class OverloadKind(enum.Enum):
    """The overload drill kinds a campaign can schedule.

    * ``FLASH_CROWD`` — a demand multiplier on the clients one front-end
      serves (the §2 "particular front-end becomes overloaded" case).
    * ``REGIONAL_EVENT`` — a demand multiplier on every client in one
      geographic region (correlated surges hit several front-ends).
    * ``DRAIN`` — one front-end's capacity is reduced for maintenance,
      the gradual drain-off §2 says anycast makes hard.
    * ``FAILURE`` — one front-end loses all capacity for the rest of the
      study and is withdrawn, triggering the §5 route-change machinery.
    """

    FLASH_CROWD = "flash-crowd"
    REGIONAL_EVENT = "regional-event"
    DRAIN = "drain"
    FAILURE = "failure"


@dataclass(frozen=True)
class OverloadSpec:
    """One overload kind with a multiplicity and an optional pinned day.

    Attributes:
        kind: The overload drill to schedule.
        count: How many instances of it to schedule.
        day: Pin every instance's start to this day (modulo the compiled
            calendar length); ``None`` picks days from a seed-derived
            stream.
    """

    kind: OverloadKind
    count: int = 1
    day: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"overload spec {self.kind.value!r}: count must be >= 1"
            )
        if self.day is not None and self.day < 0:
            raise ConfigurationError(
                f"overload spec {self.kind.value!r}: day must be >= 0"
            )


@dataclass(frozen=True)
class OverloadPlan:
    """A deterministic schedule of overload drills for a campaign.

    Attributes:
        specs: The drills to schedule, in order.
    """

    specs: Tuple[OverloadSpec, ...] = ()

    @classmethod
    def from_spec(cls, text: str) -> "OverloadPlan":
        """Parse a plan from a compact CLI spec string.

        The grammar is ``kind[:count][@day]`` entries joined by commas,
        e.g. ``"flash-crowd:1"``, ``"flash-crowd:2,drain:1"``, or
        ``"failure:1@0"`` (a front-end failure on the first day).

        Raises:
            ConfigurationError: on an unknown kind or malformed entry.
        """
        specs = []
        for raw_entry in text.split(","):
            entry = raw_entry.strip()
            if not entry:
                continue
            day: Optional[int] = None
            if "@" in entry:
                entry, _, day_text = entry.partition("@")
                try:
                    day = int(day_text)
                except ValueError:
                    raise ConfigurationError(
                        f"overload spec {raw_entry!r}: day must be an integer"
                    ) from None
            kind_text, _, count_text = entry.partition(":")
            try:
                kind = OverloadKind(kind_text.strip())
            except ValueError:
                valid = ", ".join(k.value for k in OverloadKind)
                raise ConfigurationError(
                    f"unknown overload kind {kind_text.strip()!r}; expected "
                    f"one of: {valid}"
                ) from None
            try:
                count = int(count_text) if count_text else 1
            except ValueError:
                raise ConfigurationError(
                    f"overload spec {raw_entry!r}: count must be an integer"
                ) from None
            specs.append(OverloadSpec(kind=kind, count=count, day=day))
        if not specs:
            raise ConfigurationError(f"empty overload plan spec {text!r}")
        return cls(specs=tuple(specs))

    def spec_string(self) -> str:
        """The compact spec string this plan round-trips to."""
        parts = []
        for spec in self.specs:
            entry = f"{spec.kind.value}:{spec.count}"
            if spec.day is not None:
                entry += f"@{spec.day}"
            parts.append(entry)
        return ",".join(parts)

    def compile(self, seed: int, num_days: int) -> "CompiledOverloadPlan":
        """Pin every instance to a concrete (start day, target, size).

        Everything derives from ``derive_seed(seed, "overload",
        spec_index, instance, <field>)`` over the scenario seed and the
        calendar length only, so the compiled events are identical for
        every engine, worker count, and shard layout.  Targets are
        uniform selectors in [0, 1): the campaign maps them onto its
        sorted front-end (or region) list, keeping this module free of
        topology knowledge — the same pattern as
        :attr:`EpisodeEffect.selector`.

        Raises:
            ConfigurationError: if ``num_days`` < 1.
        """
        if num_days < 1:
            raise ConfigurationError(
                "cannot compile an overload plan for an empty calendar"
            )
        events = []
        for spec_index, spec in enumerate(self.specs):
            for instance in range(spec.count):
                if spec.day is not None:
                    start_day = spec.day % num_days
                else:
                    start_day = derive_seed(
                        seed, "overload", spec_index, instance, "day"
                    ) % num_days

                def uniform(tag: str) -> float:
                    raw = derive_seed(
                        seed, "overload", spec_index, instance, tag
                    )
                    return (raw % (1 << 53)) / float(1 << 53)

                if spec.kind is OverloadKind.FLASH_CROWD:
                    duration = 1 + derive_seed(
                        seed, "overload", spec_index, instance, "duration"
                    ) % 3
                    magnitude = 2.0 + 4.0 * uniform("magnitude")
                elif spec.kind is OverloadKind.REGIONAL_EVENT:
                    duration = 1 + derive_seed(
                        seed, "overload", spec_index, instance, "duration"
                    ) % 3
                    magnitude = 1.5 + 2.5 * uniform("magnitude")
                elif spec.kind is OverloadKind.DRAIN:
                    duration = 2 + derive_seed(
                        seed, "overload", spec_index, instance, "duration"
                    ) % 3
                    # Residual capacity fraction while draining.
                    magnitude = 0.1 + 0.4 * uniform("magnitude")
                else:  # FAILURE: down for the rest of the study.
                    duration = num_days - start_day
                    magnitude = 0.0
                events.append(
                    OverloadEvent(
                        kind=spec.kind,
                        start_day=start_day,
                        duration_days=duration,
                        magnitude=magnitude,
                        selector=uniform("target"),
                    )
                )
        events.sort(
            key=lambda e: (e.start_day, e.kind.value, e.selector)
        )
        return CompiledOverloadPlan(events=tuple(events), seed=seed)


@dataclass(frozen=True)
class OverloadEvent:
    """One compiled overload drill.

    Attributes:
        kind: What happens.
        start_day: First day (0-based calendar index) the event is live.
        duration_days: How many consecutive days it stays live.
        magnitude: Demand multiplier (flash crowd, regional event) or
            residual capacity fraction (drain; 0.0 for failure).
        selector: Uniform [0, 1) value the campaign maps onto its sorted
            front-end list (or region list for regional events) to pick
            the target.
    """

    kind: OverloadKind
    start_day: int
    duration_days: int
    magnitude: float
    selector: float

    def __post_init__(self) -> None:
        if self.start_day < 0:
            raise ConfigurationError("start_day must be >= 0")
        if self.duration_days < 1:
            raise ConfigurationError("duration_days must be >= 1")
        if self.magnitude < 0:
            raise ConfigurationError("magnitude must be non-negative")
        if not 0.0 <= self.selector < 1.0:
            raise ConfigurationError("selector must be in [0, 1)")

    def active_on(self, day: int) -> bool:
        """Whether the event is live on a calendar day."""
        return self.start_day <= day < self.start_day + self.duration_days


@dataclass(frozen=True)
class CompiledOverloadPlan:
    """An overload plan resolved to concrete events.

    Attributes:
        events: All compiled events, sorted by (start day, kind).
        seed: The scenario seed the plan was compiled against.
    """

    events: Tuple[OverloadEvent, ...] = field(default_factory=tuple)
    seed: int = 0

    @property
    def empty(self) -> bool:
        """True when nothing is scheduled."""
        return not self.events
