"""Front-end withdrawal and cascading-overload analysis.

§2 of the paper notes that anycast makes gradual drain-off hard: "Simply
withdrawing the route to take that front-end offline can lead to
cascading overloading of nearby front-ends."  (FastRoute [23] exists
because of this.)  This module simulates exactly that scenario over the
reproduced CDN: withdraw a front-end's anycast announcement, let BGP
re-converge, measure where its query load lands, and iterate withdrawals
when a survivor exceeds its capacity — producing the cascade the paper
warns about.

Load is the query-volume-weighted client mass anycast steers to each
front-end; capacity defaults to the steady-state load times a headroom
factor, matching how real deployments are provisioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.cdn.deployment import CdnDeployment
from repro.cdn.network import CdnNetwork
from repro.clients.population import ClientPrefix
from repro.net.topology import Topology


def frontend_loads(
    network: CdnNetwork, clients: Sequence[ClientPrefix]
) -> Dict[str, float]:
    """Query-weighted load per live front-end under a network's routing.

    Every live front-end appears in the result, including those anycast
    currently steers no one to.
    """
    loads: Dict[str, float] = {
        fe.frontend_id: 0.0 for fe in network.frontends
    }
    for client in clients:
        path = network.anycast_path(client.asn, client.home_metro)
        loads[path.frontend.frontend_id] += client.daily_queries
    return loads


@dataclass(frozen=True)
class CascadeStep:
    """One round of a withdrawal cascade."""

    withdrawn: Tuple[str, ...]
    overloaded: Tuple[str, ...]
    loads: Dict[str, float]


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of a cascading-withdrawal simulation.

    Attributes:
        steps: Per-round snapshots (withdrawn set, who overloaded next).
        final_withdrawn: Everything offline when the cascade stopped.
        stable: True when the cascade converged with capacity to spare,
            False when it was cut off by ``max_rounds``.
    """

    steps: Tuple[CascadeStep, ...]
    final_withdrawn: FrozenSet[str]
    stable: bool

    @property
    def cascade_length(self) -> int:
        """Rounds beyond the initial withdrawal that overloaded someone."""
        return sum(1 for step in self.steps if step.overloaded)

    def format(self) -> str:
        """Human-readable cascade trace."""
        lines = ["Withdrawal cascade:"]
        for index, step in enumerate(self.steps):
            lines.append(
                f"  round {index}: withdrawn={sorted(step.withdrawn)} "
                f"-> overloaded={sorted(step.overloaded) or 'none'}"
            )
        status = "stable" if self.stable else "cut off (max rounds)"
        lines.append(
            f"  final: {len(self.final_withdrawn)} offline ({status})"
        )
        return "\n".join(lines)


class WithdrawalSimulator:
    """Replays front-end withdrawals over a fixed topology and population.

    Capacities are derived from the steady state: each front-end can carry
    ``headroom`` times its normal load (front-ends with no steady-state
    load get the median front-end's capacity, so empty edges are not
    trivially overloaded).
    """

    def __init__(
        self,
        topology: Topology,
        deployment: CdnDeployment,
        clients: Sequence[ClientPrefix],
        headroom: float = 1.5,
        capacities: Optional[Dict[str, float]] = None,
    ) -> None:
        if headroom <= 1.0:
            raise ConfigurationError("headroom must exceed 1.0")
        self._topology = topology
        self._deployment = deployment
        self._clients = tuple(clients)
        if not self._clients:
            raise ConfigurationError("simulator needs at least one client")

        self._baseline_network = CdnNetwork(topology, deployment)
        self._baseline_loads = frontend_loads(
            self._baseline_network, self._clients
        )
        if capacities is not None:
            self._capacities = dict(capacities)
            missing = set(self._baseline_loads) - set(self._capacities)
            if missing:
                raise ConfigurationError(
                    f"capacities missing for {sorted(missing)}"
                )
        else:
            positive = sorted(
                load for load in self._baseline_loads.values() if load > 0
            )
            median_load = positive[len(positive) // 2] if positive else 1.0
            self._capacities = {
                frontend_id: headroom * (load if load > 0 else median_load)
                for frontend_id, load in self._baseline_loads.items()
            }

    @property
    def baseline_loads(self) -> Dict[str, float]:
        """Steady-state load per front-end."""
        return dict(self._baseline_loads)

    @property
    def capacities(self) -> Dict[str, float]:
        """Provisioned capacity per front-end."""
        return dict(self._capacities)

    def loads_after_withdrawal(
        self, withdrawn: Iterable[str]
    ) -> Dict[str, float]:
        """Per-survivor load once the given front-ends are withdrawn."""
        network = CdnNetwork(
            self._topology, self._deployment, frozenset(withdrawn)
        )
        return frontend_loads(network, self._clients)

    def cascade(
        self, initial_withdrawn: Iterable[str], max_rounds: int = 10
    ) -> CascadeResult:
        """Iteratively withdraw overloaded survivors until stable.

        Each round withdraws every front-end pushed past capacity by the
        previous round — the §2 cascade.  Stops when no survivor
        overloads, when survivors run out, or after ``max_rounds``.
        """
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        withdrawn = set(initial_withdrawn)
        if not withdrawn:
            raise ConfigurationError("cascade needs an initial withdrawal")
        steps: List[CascadeStep] = []
        stable = False
        total = len(self._baseline_loads)
        for _ in range(max_rounds):
            if len(withdrawn) >= total:
                break
            loads = self.loads_after_withdrawal(withdrawn)
            overloaded = tuple(
                sorted(
                    frontend_id
                    for frontend_id, load in loads.items()
                    if load > self._capacities[frontend_id]
                )
            )
            steps.append(
                CascadeStep(
                    withdrawn=tuple(sorted(withdrawn)),
                    overloaded=overloaded,
                    loads=loads,
                )
            )
            if not overloaded:
                stable = True
                break
            withdrawn.update(overloaded)
        return CascadeResult(
            steps=tuple(steps),
            final_withdrawn=frozenset(withdrawn),
            stable=stable,
        )
