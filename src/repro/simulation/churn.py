"""Route churn: the front-end-affinity dynamics behind Figs 7 and 8.

The paper observes (§5, "Front-end Affinity"): 7% of clients landed on
multiple front-ends within the first day; 2–4% more see a change each
weekday; under 0.5% change on weekend days ("network operators not pushing
out changes during the weekend"); 21% of clients landed on multiple
front-ends across the whole week.

That shape — a big first-day fraction but small daily increments — implies
*heterogeneity*: a minority of clients sit on unstable routes and switch
repeatedly, while the majority never move.  The model reproduces it
structurally: only clients whose AS has more than one viable first-hop
egress (per :meth:`repro.cdn.network.CdnNetwork.anycast_variant_ranks`)
can churn at all; a configured fraction of those is "unstable" and
re-rolls its route with a weekday/weekend-dependent probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.cdn.network import CdnNetwork
from repro.clients.population import ClientPrefix
from repro.rand import derive_rng
from repro.simulation.clock import SimulationCalendar


@dataclass(frozen=True)
class ChurnConfig:
    """Churn process parameters.

    Attributes:
        unstable_fraction: Fraction of *eligible* clients (those with >1
            distinct anycast ingress) that churn actively.
        weekday_switch_probability: Per-weekday chance an unstable client
            re-rolls its route.
        weekend_switch_probability: Same, for Saturday/Sunday.
        stable_switch_probability: Tiny per-day chance that a nominally
            stable (but eligible) client still switches.
        return_home_probability: When re-rolling, chance of landing on the
            steady-state route rather than an alternate.
        max_rank: Deepest egress rank explored for alternates.
    """

    unstable_fraction: float = 0.65
    weekday_switch_probability: float = 0.38
    weekend_switch_probability: float = 0.02
    stable_switch_probability: float = 0.002
    return_home_probability: float = 0.55
    max_rank: int = 3

    def __post_init__(self) -> None:
        for name in (
            "unstable_fraction",
            "weekday_switch_probability",
            "weekend_switch_probability",
            "stable_switch_probability",
            "return_home_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.max_rank < 1:
            raise ConfigurationError("max_rank must be >= 1")


@dataclass(frozen=True)
class DayRoutePlan:
    """A client's anycast routing for one day.

    On a switch day the client spends part of the day on the old route and
    the rest on the new one (routing changes happen mid-day, and §5 counts
    a client as changed once it lands on multiple front-ends).

    Attributes:
        ranks: One or two egress ranks in effect during the day.
        fractions: Fraction of the day's traffic on each rank (sums to 1).
    """

    ranks: Tuple[int, ...]
    fractions: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) != len(self.fractions) or not self.ranks:
            raise ConfigurationError("ranks and fractions must align")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigurationError("fractions must sum to 1")

    @property
    def switched(self) -> bool:
        """Whether the route changed during this day."""
        return len(self.ranks) > 1

    @property
    def final_rank(self) -> int:
        """The rank in effect at the end of the day."""
        return self.ranks[-1]

    def sample_rank(self, rng: random.Random) -> int:
        """Draw the rank in effect for one query/beacon within the day."""
        if len(self.ranks) == 1:
            return self.ranks[0]
        return rng.choices(self.ranks, weights=self.fractions, k=1)[0]


class RouteChurnModel:
    """Evolves each client's anycast route day by day.

    Days must be advanced in order via :meth:`plans_for_day`; the model
    keeps one rank of state per client.
    """

    def __init__(
        self,
        clients: Sequence[ClientPrefix],
        network: CdnNetwork,
        calendar: SimulationCalendar,
        config: Optional[ChurnConfig] = None,
        seed: int = 0,
    ) -> None:
        self._config = config or ChurnConfig()
        self._calendar = calendar
        self._rng = derive_rng(seed, "churn")
        cfg = self._config

        self._variants: Dict[str, Tuple[int, ...]] = {}
        self._unstable: Dict[str, bool] = {}
        self._state: Dict[str, int] = {}
        self._next_day = 0

        variant_cache: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        for client in clients:
            cache_key = (client.asn, client.home_metro)
            ranks = variant_cache.get(cache_key)
            if ranks is None:
                ranks = network.anycast_variant_ranks(
                    client.asn, client.home_metro, cfg.max_rank
                )
                variant_cache[cache_key] = ranks
            self._variants[client.key] = ranks
            eligible = len(ranks) > 1
            self._unstable[client.key] = (
                eligible and self._rng.random() < cfg.unstable_fraction
            )
            self._state[client.key] = 0  # index into ranks, not a raw rank

    @property
    def config(self) -> ChurnConfig:
        """The churn parameters."""
        return self._config

    def variants(self, client_key: str) -> Tuple[int, ...]:
        """Distinct-ingress egress ranks available to a client."""
        return self._variants[client_key]

    def unstable_fraction_overall(self) -> float:
        """Fraction of all clients classified unstable (diagnostic)."""
        if not self._unstable:
            return 0.0
        return sum(self._unstable.values()) / len(self._unstable)

    def _switch_probability(self, client_key: str, day: int) -> float:
        cfg = self._config
        if len(self._variants[client_key]) <= 1:
            return 0.0
        if not self._unstable[client_key]:
            return cfg.stable_switch_probability
        if self._calendar.is_weekend(day):
            return cfg.weekend_switch_probability
        return cfg.weekday_switch_probability

    def plans_for_day(self, day: int) -> Dict[str, DayRoutePlan]:
        """Evolve state into ``day`` and return every client's plan.

        Must be called with consecutive day indices starting at 0.
        """
        if day != self._next_day:
            raise ConfigurationError(
                f"churn must advance day by day (expected {self._next_day}, "
                f"got {day})"
            )
        self._next_day += 1
        cfg = self._config
        rng = self._rng
        plans: Dict[str, DayRoutePlan] = {}
        for client_key, ranks in self._variants.items():
            old_index = self._state[client_key]
            if rng.random() >= self._switch_probability(client_key, day):
                plans[client_key] = DayRoutePlan(
                    ranks=(ranks[old_index],), fractions=(1.0,)
                )
                continue
            # Re-roll: maybe return to steady state, else a random
            # different variant.
            if old_index != 0 and rng.random() < cfg.return_home_probability:
                new_index = 0
            else:
                choices = [i for i in range(len(ranks)) if i != old_index]
                new_index = rng.choice(choices)
            self._state[client_key] = new_index
            cut = rng.uniform(0.2, 0.8)
            plans[client_key] = DayRoutePlan(
                ranks=(ranks[old_index], ranks[new_index]),
                fractions=(cut, 1.0 - cut),
            )
        return plans
