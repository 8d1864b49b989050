"""The measurement campaign: a month of beacons and production traffic.

This is the simulated counterpart of §3.2's data collection.  For every
day and client /24:

* production queries are served over the client's current anycast route
  (churn state) and logged passively (front-end counts — §3.2.1);
* a volume-proportional number of beacon sessions run, each measuring the
  anycast target plus three unicast front-ends (§3.2.2–3.3), and feed the
  per-/24 (ECS) aggregates, from which the dataset derives the LDNS
  grouping: the reference engine's three log
  streams join in :class:`repro.measurement.backend.BeaconBackend`,
  while the batched engines synthesize rows already joined, write them
  to the aggregates directly, and count them with
  :meth:`~repro.measurement.backend.BeaconBackend.count_joined_bulk`;
* per-session, the anycast minus best-unicast difference is recorded for
  Fig 3.

Latencies come from cached per-path baselines plus per-measurement jitter
and any active poor-path episode inflation on the anycast route.

**Determinism and sharding.**  Every random draw that shapes a client's
measurements comes from an RNG derived from ``(seed, "campaign", day,
client_key)`` (or an even finer path), never from a stream shared across
clients.  A client's measurements are therefore bit-identical no matter
the iteration order, shard assignment, or worker count — which is what
lets :class:`repro.simulation.parallel.ParallelCampaignRunner` split the
population into contiguous shards, run them in separate processes, and
merge the partial datasets into the exact dataset a serial run produces.

**Engines.**  Three measurement engines run on one day pipeline.  For
each (day, client) the pipeline draws the workload (query and beacon
volumes), records passive traffic, and computes every term the engines
share — episode effect, anycast daily offset, load extras, dirty-record
slots — once, then stages the client-day into the engine chosen at
construction; ``run_day`` closes the day.  The engines differ only in
how they synthesize beacon RTTs:

* ``"reference"`` — :class:`_ReferenceBeaconEngine`, the scalar oracle:
  at staging time every beacon fetch runs through
  :class:`repro.measurement.beacon.BeaconRunner` and draws one sample at
  a time from the client-day's ``random.Random`` stream;
* ``"vectorized"`` — :class:`_VectorizedBeaconEngine`: at staging time
  the client-day is synthesized as numpy blocks from the counter-based
  streams of :mod:`repro.simulation.counterrng`;
* ``"matrix"`` — :class:`_MatrixBeaconEngine`: staging queues the
  client-day, and ``run_day`` synthesizes the whole day in cross-client
  chunks from the same counter streams, bit-identical to
  ``"vectorized"``.

Each engine honors the determinism contract above *within itself*
(serial ≡ sharded ≡ parallel for a fixed engine); the reference engine
agrees with the batched engines statistically but not bit-for-bit,
since it consumes different random streams.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.dns.authoritative import ANYCAST_TARGET
from repro.faults import (
    FaultKind,
    FaultPlan,
    RecordFaultInjector,
    WorkerFaultInjector,
    record_faults,
)
from repro.identity import IDENTITY, RUN, resolve, run_context
from repro.telemetry import Telemetry, get_logger
from repro.geo.regions import region_of_point
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
    MIN_MAX_BUCKETS,
)
from repro.telemetry.memory import peak_rss_bytes
from repro.measurement.backend import BeaconBackend
from repro.measurement.beacon import BeaconConfig, BeaconRunner, BeaconTargetSelector
from repro.measurement.logs import HttpLogEntry, JoinedMeasurement, PassiveLog
from repro.measurement.validate import (
    QuarantineLog,
    ValidationGate,
    ValidationPolicy,
)
from repro.cdn.fastroute import (
    LOAD_POLICIES,
    LayeredAnycastNetwork,
    LoadDayState,
    LoadManagementSimulator,
    default_layers,
    provision_capacities,
)
from repro.clients.population import ClientPrefix
from repro.rand import derive_rng, derive_seed
from repro.simulation.churn import DayRoutePlan
from repro.simulation.counterrng import (
    ROW_CAP,
    BeaconSlotLayout,
    DayKeys,
    gumbel_from_uniform,
    hashed_uniform,
    normal_from_uniforms,
    normal_pair_from_uniforms,
)
from repro.simulation.dataset import StudyDataset
from repro.simulation.episodes import (
    EpisodeScope,
    OverloadKind,
    OverloadPlan,
)
from repro.simulation.scenario import Scenario

_log = get_logger("campaign")


@dataclass(frozen=True)
class CampaignProgress:
    """One live progress observation of a running campaign.

    Serial runs emit one per completed day; sharded runs aggregate
    their shard workers' observations into these (days_completed is then
    the *minimum* across shards — the day every shard has finished).
    """

    days_completed: int
    num_days: int
    beacons: int
    beacons_per_second: float
    elapsed_seconds: float
    shards_done: int = 0
    shards_total: int = 1
    retries: int = 0

    def format(self) -> str:
        """A one-line ticker rendering (the CLI ``--progress`` line)."""
        parts = [
            f"day {self.days_completed}/{self.num_days}",
            f"beacons {self.beacons:,}",
            f"{self.beacons_per_second:,.0f}/s",
        ]
        if self.shards_total > 1:
            parts.append(f"shards {self.shards_done}/{self.shards_total}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        parts.append(f"[{self.elapsed_seconds:.1f}s]")
        return "  ".join(parts)


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-level knobs.

    The progress listener, worker count and resilience knobs are tagged
    ``RUN``: they never change the data, so they stay out of the run
    identity (:mod:`repro.identity`) that ``config_hash`` and shard
    checkpoints carry; of ``fault_plan`` only the record faults count.

    Attributes:
        beacon: Beacon methodology parameters.
        progress_listener: Optional hook receiving
            :class:`CampaignProgress` observations (beacons/s, shard
            completion, retry counts) for long runs — what the CLI
            ``--progress`` ticker renders; the library never prints on
            its own.  Serial and sharded runs alike report each day
            once it is complete (across *all* shards): the distinct
            ``days_completed`` values seen are 1..N, in order.  Sharded
            runs add throttled beacon-total updates in between.
        workers: Worker-process count for the campaign, or ``None`` to
            inherit :attr:`repro.simulation.scenario.ScenarioConfig.workers`.
        engine: Measurement engine — ``"reference"`` (scalar oracle),
            ``"vectorized"`` (numpy-batched per (client, day) block),
            ``"matrix"`` (whole-day cross-client batches, fastest), or
            ``None`` to inherit
            :attr:`repro.simulation.scenario.ScenarioConfig.engine`.
            Every engine is deterministic per seed and bit-identical
            across worker counts.  ``vectorized`` and ``matrix`` share
            the counter-based beacon streams and produce *bit-identical*
            datasets; the reference engine consumes different streams,
            so its dataset agrees statistically, not bit-for-bit.
        fault_plan: Optional deterministic fault schedule
            (:class:`repro.faults.FaultPlan`) injected into the run —
            worker crashes, hangs, transient exceptions, corrupted shard
            payloads, merge failures.  Faults never touch the campaign's
            measurement RNG streams, so a run that survives them via
            retries is bit-identical to the fault-free run.
        max_retries: Retries per shard after its first attempt (so a
            shard gets ``max_retries + 1`` attempts total).
        shard_timeout: Seconds the coordinator waits for one shard
            attempt before declaring it hung and retrying.  ``None``
            waits forever.  Only enforceable for worker-process shards;
            an in-process run cannot be interrupted.
        allow_partial: When a shard exhausts its retries, drop its
            client range and finish with a partial dataset (whose
            :meth:`~repro.simulation.dataset.StudyDataset.missing_ranges`
            names the gap) instead of raising
            :class:`repro.errors.ShardFailureError`.
        checkpoint_dir: Spill each completed shard's partial dataset
            here (see :mod:`repro.simulation.checkpoint`).
        resume: Reuse intact, matching shard checkpoints from
            ``checkpoint_dir`` instead of re-running those shards.
        retry_backoff_seconds: Base of the exponential backoff between
            a shard's failed attempt and its retry
            (``base * 2**attempt``).
        validation: Record-validation policy both engines enforce at the
            ingestion boundaries (see :mod:`repro.measurement.validate`):
            ``"strict"`` raises on the first invalid record, ``"lenient"``
            (the default) drops invalid records into the campaign's
            quarantine log, ``"repair"`` clamps repairable records and
            annotates them.
        sketch_threshold: Per-digest sample count above which latency
            digests promote from exact sample retention to bounded
            :class:`repro.measurement.sketch.LatencySketch` aggregation,
            and the request-diff and passive logs switch to their
            bounded forms.  ``None`` (the default) keeps everything
            exact — bit-compatible with every historical digest.
            Setting it makes campaign memory independent of client
            count (the constant-memory mode); percentile queries then
            answer within the sketch's relative error bound, and
            per-row/per-client queries on the diff and passive logs
            become unavailable.
        sketch_accuracy: Relative accuracy of the sketches used above
            the threshold (worst-case relative quantile error; the
            default 0.01 guarantees <= 1%).
        sketch_max_buckets: Hard per-sketch bucket cap.  A sketch that
            exceeds it halves its resolution (deterministically merging
            adjacent bucket pairs) until it fits, doubling its relative
            error bound per halving — this is what makes peak memory
            genuinely flat in client count rather than merely
            log-linear.  Must be >= 8.
        frontend_capacity: Headroom multiplier provisioning each
            front-end's finite capacity (capacity = steady-state load ×
            headroom; see :func:`repro.cdn.fastroute.provision_capacities`).
            Must exceed 1.0.  ``None`` (the default) keeps capacity
            infinite — the historical model, bit-compatible with every
            existing digest.  When set, a convex queueing-delay term
            (:meth:`repro.latency.model.LatencyModel.queueing_delay_ms`)
            degrades RTTs as utilization approaches 1.
        overload_plan: Optional deterministic overload drill schedule
            (:class:`repro.simulation.episodes.OverloadPlan`) — flash
            crowds, regional events, front-end drains and failures —
            compiled from the scenario seed exactly like ``fault_plan``,
            so serial and sharded runs realize identical drills.
            Requires ``frontend_capacity``.
        load_policy: How the CDN reacts to overload: ``"none"`` (finite
            capacity, no reaction — the §2 baseline), ``"withdraw"``
            (hard-withdraw a front-end past capacity the next day; can
            cascade), or ``"fastroute"`` (per-front-end distributed
            shedding, :class:`repro.cdn.fastroute.LoadManagementSimulator`).
            Any value other than ``"none"`` requires
            ``frontend_capacity``.
    """

    beacon: BeaconConfig = BeaconConfig()
    progress_listener: Optional[Callable[["CampaignProgress"], None]] = field(
        default=None, metadata=RUN
    )
    workers: Optional[int] = field(default=None, metadata=RUN)
    engine: Optional[str] = None
    fault_plan: Optional[FaultPlan] = field(
        default=None, metadata={IDENTITY: record_faults}
    )
    max_retries: int = field(default=2, metadata=RUN)
    shard_timeout: Optional[float] = field(default=None, metadata=RUN)
    allow_partial: bool = field(default=False, metadata=RUN)
    checkpoint_dir: Optional[str] = field(default=None, metadata=RUN)
    resume: bool = field(default=False, metadata=RUN)
    retry_backoff_seconds: float = field(default=0.05, metadata=RUN)
    validation: str = "lenient"
    sketch_threshold: Optional[int] = None
    sketch_accuracy: float = DEFAULT_RELATIVE_ACCURACY
    sketch_max_buckets: int = DEFAULT_MAX_BUCKETS
    frontend_capacity: Optional[float] = None
    overload_plan: Optional[OverloadPlan] = None
    load_policy: str = "none"

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.sketch_threshold is not None and self.sketch_threshold < 1:
            raise ConfigurationError("sketch_threshold must be >= 1")
        if not 0.0 < self.sketch_accuracy <= 0.5:
            raise ConfigurationError(
                "sketch_accuracy must be in (0, 0.5]"
            )
        if self.sketch_max_buckets < MIN_MAX_BUCKETS:
            raise ConfigurationError(
                f"sketch_max_buckets must be >= {MIN_MAX_BUCKETS}"
            )
        if self.validation not in ("strict", "lenient", "repair"):
            raise ConfigurationError(
                f"unknown validation policy {self.validation!r}; expected "
                "'strict', 'lenient', or 'repair'"
            )
        if self.engine not in (None, "reference", "vectorized", "matrix"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected 'reference', "
                "'vectorized', or 'matrix'"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError("shard_timeout must be > 0")
        if self.retry_backoff_seconds < 0:
            raise ConfigurationError("retry_backoff_seconds must be >= 0")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume requires a checkpoint_dir to resume from"
            )
        if (
            self.frontend_capacity is not None
            and self.frontend_capacity <= 1.0
        ):
            raise ConfigurationError(
                "frontend_capacity is a headroom multiplier and must "
                "exceed 1.0"
            )
        if self.load_policy not in LOAD_POLICIES:
            raise ConfigurationError(
                f"unknown load policy {self.load_policy!r}; expected one "
                f"of: {', '.join(LOAD_POLICIES)}"
            )
        if self.frontend_capacity is None and (
            self.overload_plan is not None or self.load_policy != "none"
        ):
            raise ConfigurationError(
                "overload_plan and load_policy require frontend_capacity "
                "(front-ends must have finite capacity to overload)"
            )


def largest_remainder_apportion(
    total: int, fractions: Sequence[float]
) -> List[int]:
    """Split ``total`` into integer parts proportional to ``fractions``.

    Uses largest-remainder (Hamilton) apportionment: each part gets the
    floor of its exact share, and leftover units go to the parts with the
    largest fractional remainders (ties to the earliest index, keeping the
    result deterministic).  The parts always sum exactly to ``total`` —
    unlike independent rounding, which can over- or under-count.

    Raises:
        ConfigurationError: if ``total`` is negative or ``fractions`` is
            empty.
    """
    if total < 0:
        raise ConfigurationError("total must be non-negative")
    if not fractions:
        raise ConfigurationError("fractions cannot be empty")
    shares = [total * fraction for fraction in fractions]
    counts = [int(share) for share in shares]
    leftover = total - sum(counts)
    if leftover > 0:
        by_remainder = sorted(
            range(len(shares)),
            key=lambda i: (counts[i] - shares[i], i),
        )
        for i in by_remainder[:leftover]:
            counts[i] += 1
    return counts


#: Extra RTT (ms) a request pays for landing off its layer-0 front-end
#: after shedding or withdrawal — the detour through the next anycast
#: ring is a longer path by construction (FastRoute's rings are
#: progressively sparser).
_REROUTE_PENALTY_MS = 25.0


class _LoadSchedule:
    """One campaign's precomputed load-management timeline.

    Built once at campaign setup over the *full* client population from
    expected demand, so every shard and engine reads the identical
    schedule — the same trick the churn and episode processes use.  The
    day loop then folds three deterministic signals into measurements:

    * per-client demand multipliers (flash crowds, regional events),
    * per-front-end queueing-delay extras (convex in utilization;
      withdrawn front-ends pin at the cap),
    * per-client landing distributions (where shed/rerouted production
      traffic actually serves).
    """

    def __init__(
        self,
        scenario: Scenario,
        cfg: "CampaignConfig",
        simulator: LoadManagementSimulator,
        states: Sequence[LoadDayState],
        events: Sequence[Dict[str, object]],
    ) -> None:
        latency = scenario.latency_model
        cap_ms = latency.config.queue_delay_cap_ms
        self._cap_ms = cap_ms
        self._chain0 = {
            client.key: simulator.chain_for(client.key)[0]
            for client in scenario.clients
        }
        self._queue: List[Dict[str, float]] = []
        self._multipliers: List[Dict[str, float]] = []
        self._landing: List[Dict[str, Tuple[Tuple[str, float], ...]]] = []
        peak_util: Dict[str, float] = {}
        peak_shed: Dict[str, float] = {}
        withdrawn_day: Dict[str, int] = {}
        day_rows: List[Dict[str, object]] = []
        for day, state in enumerate(states):
            queue: Dict[str, float] = {}
            for frontend_id, utilization in state.utilizations.items():
                delay = latency.queueing_delay_ms(utilization)
                if delay != 0.0:
                    queue[frontend_id] = delay
                if utilization > peak_util.get(frontend_id, 0.0):
                    peak_util[frontend_id] = utilization
            for frontend_id in state.withdrawn:
                queue[frontend_id] = cap_ms
                withdrawn_day.setdefault(frontend_id, day)
            for frontend_id, fraction in state.shed_fractions.items():
                if fraction > peak_shed.get(frontend_id, 0.0):
                    peak_shed[frontend_id] = fraction
            self._queue.append(queue)
            self._multipliers.append(dict(state.demand_multipliers))
            self._landing.append(dict(state.landing))
            utilizations = state.utilizations
            day_rows.append(
                {
                    "day": day,
                    "max_utilization": (
                        max(utilizations.values()) if utilizations else 0.0
                    ),
                    "mean_utilization": (
                        # Summed in sorted-key order: float addition is
                        # not associative, and this value lands in the
                        # digest-covered load summary — iteration order
                        # must not depend on the process hash seed.
                        sum(
                            utilizations[frontend_id]
                            for frontend_id in sorted(utilizations)
                        )
                        / len(utilizations)
                        if utilizations
                        else 0.0
                    ),
                    "max_shed_fraction": (
                        max(state.shed_fractions.values())
                        if state.shed_fractions
                        else 0.0
                    ),
                    "shedding_frontends": len(state.shed_fractions),
                    "withdrawn": sorted(state.withdrawn),
                    "rerouted_clients": len(state.landing),
                }
            )
        #: JSON-clean global summary — identical in every shard, carried
        #: on the dataset and into run manifests.
        self.summary: Dict[str, object] = {
            "policy": cfg.load_policy,
            "headroom": cfg.frontend_capacity,
            "num_days": len(states),
            "overload_plan": (
                cfg.overload_plan.spec_string()
                if cfg.overload_plan is not None
                else None
            ),
            "events": list(events),
            "days": day_rows,
            "frontends": {
                frontend_id: {
                    "capacity": simulator.capacities[frontend_id],
                    "peak_utilization": peak_util.get(frontend_id, 0.0),
                    "peak_shed_fraction": peak_shed.get(frontend_id, 0.0),
                    "withdrawn_day": withdrawn_day.get(frontend_id),
                }
                for frontend_id in sorted(simulator.capacities)
            },
        }

    def scaled_queries(self, day: int, client_key: str, queries: int) -> int:
        """A client-day's query volume under today's demand multipliers.

        Pure integer arithmetic after the workload draw — the RNG stream
        is untouched, so engines and shards stay aligned.
        """
        multiplier = self._multipliers[day].get(client_key)
        if multiplier is None or queries <= 0:
            return queries
        return max(0, int(round(queries * multiplier)))

    def unicast_extras(self, day: int) -> Dict[str, float]:
        """Per-front-end unicast RTT extras (queueing delay) for a day."""
        return self._queue[day]

    def landing(
        self, day: int, client_key: str
    ) -> Optional[Tuple[Tuple[str, float], ...]]:
        """A client's landing distribution, or ``None`` when it is all
        at its layer-0 front-end."""
        return self._landing[day].get(client_key)

    def anycast_extra(self, day: int, client_key: str) -> float:
        """Extra anycast RTT (ms) a client pays today.

        The landing-weighted queueing delay of the front-ends actually
        serving it, plus a reroute penalty for the fraction served off
        its layer-0 front-end.  A client whose every ring is withdrawn
        pays the full cap (its requests effectively time out).
        """
        queue = self._queue[day]
        primary = self._chain0[client_key]
        dist = self._landing[day].get(client_key)
        if dist is None:
            return queue.get(primary, 0.0)
        total = 0.0
        weighted = 0.0
        on_primary = 0.0
        for frontend_id, weight in dist:
            total += weight
            weighted += weight * queue.get(frontend_id, 0.0)
            if frontend_id == primary:
                on_primary += weight
        if total <= 0.0:
            return self._cap_ms
        return weighted / total + _REROUTE_PENALTY_MS * (
            1.0 - on_primary / total
        )


def _passive_routes(
    paths: "_PathCache",
    client_key: str,
    plan: DayRoutePlan,
    queries: int,
    landing: Optional[Tuple[Tuple[str, float], ...]],
) -> Tuple[List[Tuple[str, int]], int]:
    """Split a client-day's production queries across front-ends.

    The first (primary anycast) rank's share redistributes over the
    client's landing distribution when load management moved it
    (``landing`` is ``None`` when it did not, or when capacity is off);
    the integer remainder that lands nowhere is the shed-and-lost count.
    Integer apportionment throughout, so per-shard partial sums equal
    the serial totals exactly.
    """
    counts = largest_remainder_apportion(queries, plan.fractions)
    routes: List[Tuple[str, int]] = []
    shed = 0
    for position, (rank, count) in enumerate(zip(plan.ranks, counts)):
        if position == 0 and landing is not None:
            total_weight = sum(weight for _, weight in landing)
            served = (
                min(count, int(round(count * total_weight)))
                if total_weight > 0.0
                else 0
            )
            shed += count - served
            if served > 0:
                sub_counts = largest_remainder_apportion(
                    served,
                    [weight / total_weight for _, weight in landing],
                )
                for (frontend_id, _weight), sub in zip(landing, sub_counts):
                    if sub > 0:
                        routes.append((frontend_id, sub))
        else:
            routes.append((paths.anycast(client_key, rank)[0], count))
    return routes, shed


def _build_load_schedule(
    scenario: Scenario, cfg: "CampaignConfig"
) -> Optional[_LoadSchedule]:
    """Build the campaign's load timeline, or ``None`` when capacity is
    off.

    Everything here is a pure function of the scenario (topology,
    population, expected demand) and the campaign config — no campaign
    RNG streams are consumed — so serial, sharded, and every engine see
    one identical schedule.
    """
    if cfg.frontend_capacity is None:
        return None
    network = LayeredAnycastNetwork(
        scenario.topology,
        scenario.deployment,
        default_layers(scenario.deployment),
    )
    baseline: Dict[str, float] = {
        frontend_id: 0.0
        for frontend_id in network.layers[0].frontend_ids
    }
    chains = {
        client.key: tuple(
            network.serving_frontend(
                layer.index, client.asn, client.home_metro
            )
            for layer in network.layers
        )
        for client in scenario.clients
    }
    for client in scenario.clients:
        baseline[chains[client.key][0]] += client.daily_queries
    capacities = provision_capacities(baseline, cfg.frontend_capacity)
    simulator = LoadManagementSimulator(
        network,
        scenario.clients,
        capacities,
        policy=cfg.load_policy,
    )

    num_days = scenario.calendar.num_days
    multipliers: List[Dict[str, float]] = [{} for _ in range(num_days)]
    factors: List[Dict[str, float]] = [{} for _ in range(num_days)]
    failures: List[List[str]] = [[] for _ in range(num_days)]
    event_rows: List[Dict[str, object]] = []
    if cfg.overload_plan is not None:
        compiled = cfg.overload_plan.compile(
            scenario.config.seed, num_days
        )
        # Drills target front-ends that actually carry traffic: a drain
        # of an unloaded site is a no-op at any population scale.  The
        # candidate lists stay deterministic — baseline load is a pure
        # function of the seeded population.
        layer0 = [
            frontend_id
            for frontend_id in simulator.layer_frontends(0)
            if baseline.get(frontend_id, 0.0) > 0
        ] or simulator.layer_frontends(0)
        hub_load: Dict[str, float] = {}
        for client in scenario.clients:
            chain = chains[client.key]
            hub_load[chain[min(1, len(chain) - 1)]] = (
                hub_load.get(chain[min(1, len(chain) - 1)], 0.0)
                + client.daily_queries
            )
        hubs = (
            [
                frontend_id
                for frontend_id in simulator.layer_frontends(1)
                if hub_load.get(frontend_id, 0.0) > 0
            ]
            or simulator.layer_frontends(1)
        ) if len(network.layers) > 1 else layer0
        for event in compiled.events:
            days = [
                day
                for day in range(
                    event.start_day, event.start_day + event.duration_days
                )
                if day < num_days
            ]
            if event.kind in (
                OverloadKind.FLASH_CROWD, OverloadKind.REGIONAL_EVENT
            ):
                if event.kind is OverloadKind.FLASH_CROWD:
                    target = layer0[int(event.selector * len(layer0))]
                    chain_index = 0
                else:
                    target = hubs[int(event.selector * len(hubs))]
                    chain_index = 1
                affected = [
                    client.key
                    for client in scenario.clients
                    if chains[client.key][
                        min(chain_index, len(chains[client.key]) - 1)
                    ] == target
                ]
                for day in days:
                    for key in affected:
                        multipliers[day][key] = (
                            multipliers[day].get(key, 1.0)
                            * event.magnitude
                        )
            elif event.kind is OverloadKind.DRAIN:
                target = layer0[int(event.selector * len(layer0))]
                for day in days:
                    factors[day][target] = min(
                        factors[day].get(target, 1.0), event.magnitude
                    )
            else:  # FAILURE
                target = layer0[int(event.selector * len(layer0))]
                if event.start_day < num_days:
                    failures[event.start_day].append(target)
            event_rows.append(
                {
                    "kind": event.kind.value,
                    "start_day": event.start_day,
                    "duration_days": event.duration_days,
                    "magnitude": event.magnitude,
                    "target": target,
                }
            )
    states = simulator.run(num_days, multipliers, factors, failures)
    return _LoadSchedule(scenario, cfg, simulator, states, event_rows)


@dataclass
class PathCacheStats:
    """Hit/miss counters for one campaign's :class:`_PathCache`.

    During a run the counters live in the campaign's telemetry registry
    (``path_cache.*`` counters); this dataclass is the stable public
    view built from a snapshot (:meth:`from_snapshot`), kept for callers
    and for standalone construction in tests.
    """

    anycast_hits: int = 0
    anycast_misses: int = 0
    unicast_hits: int = 0
    unicast_misses: int = 0

    @property
    def anycast_hit_rate(self) -> float:
        """Anycast-path cache hit rate (0 when never queried)."""
        total = self.anycast_hits + self.anycast_misses
        return self.anycast_hits / total if total else 0.0

    @property
    def unicast_hit_rate(self) -> float:
        """Unicast-path cache hit rate (0 when never queried)."""
        total = self.unicast_hits + self.unicast_misses
        return self.unicast_hits / total if total else 0.0

    @classmethod
    def from_snapshot(cls, snapshot) -> "PathCacheStats":
        """The view over a telemetry snapshot's ``path_cache.*`` counters."""
        counters = snapshot.counters
        return cls(
            anycast_hits=int(counters.get("path_cache.anycast.hits_total", 0)),
            anycast_misses=int(
                counters.get("path_cache.anycast.misses_total", 0)
            ),
            unicast_hits=int(counters.get("path_cache.unicast.hits_total", 0)),
            unicast_misses=int(
                counters.get("path_cache.unicast.misses_total", 0)
            ),
        )


@dataclass
class CampaignStats:
    """Instrumentation emitted by a campaign run.

    The numbers originate in the run's telemetry registry
    (:class:`repro.telemetry.Telemetry`); this dataclass is the public
    view distilled from its snapshot (:meth:`from_snapshot`) — kept
    constructible directly for tests and ad-hoc arithmetic.

    Attributes:
        wall_seconds: Total wall-clock time of the run.
        beacon_count: Beacon sessions executed.
        measurement_count: Joined measurements produced.
        day_seconds: Wall-clock time per simulated day.  For sharded runs
            these are summed across shards, so they read as CPU-seconds.
        path_cache: Per-:class:`_PathCache` hit/miss counters.
        workers: Worker processes the campaign ran with.
        engine: Measurement engine the campaign ran with.
    """

    wall_seconds: float = 0.0
    beacon_count: int = 0
    measurement_count: int = 0
    day_seconds: List[float] = field(default_factory=list)
    path_cache: PathCacheStats = field(default_factory=PathCacheStats)
    workers: int = 1
    engine: str = "reference"

    @property
    def beacons_per_second(self) -> float:
        """Beacon throughput over the whole run."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.beacon_count / self.wall_seconds

    @classmethod
    def from_snapshot(cls, snapshot) -> "CampaignStats":
        """The view over a (possibly merged) telemetry snapshot.

        Wall time reads from the ``campaign.wall_seconds`` gauge (merge
        policy ``max``, matching how concurrent shards overlap) and the
        per-day seconds from the indexed ``campaign/day`` span record
        (summed across shards, i.e. CPU-seconds).
        """
        counters = snapshot.counters
        wall = snapshot.gauges.get("campaign.wall_seconds", {}).get("value")
        if wall is None:
            root = snapshot.spans.get("campaign")
            wall = root.seconds if root is not None else 0.0
        return cls(
            wall_seconds=float(wall),
            beacon_count=int(counters.get("campaign.beacons_total", 0)),
            measurement_count=int(
                counters.get("campaign.measurements_total", 0)
            ),
            day_seconds=snapshot.day_seconds("campaign/day"),
            path_cache=PathCacheStats.from_snapshot(snapshot),
            workers=int(snapshot.context.get("workers", 1)),
            engine=str(snapshot.context.get("engine", "reference")),
        )

    def format(self) -> str:
        """A short human-readable summary for the CLI."""
        lines = [
            (
                f"campaign stats: {self.beacon_count:,} beacons in "
                f"{self.wall_seconds:.2f}s "
                f"({self.beacons_per_second:,.0f} beacons/s, "
                f"workers={self.workers}, engine={self.engine})"
            ),
            (
                "path cache: anycast "
                f"{self.path_cache.anycast_hit_rate:.1%} hit "
                f"({self.path_cache.anycast_hits:,}/"
                f"{self.path_cache.anycast_hits + self.path_cache.anycast_misses:,}), "
                "unicast "
                f"{self.path_cache.unicast_hit_rate:.1%} hit "
                f"({self.path_cache.unicast_hits:,}/"
                f"{self.path_cache.unicast_hits + self.path_cache.unicast_misses:,})"
            ),
        ]
        if self.day_seconds:
            slowest = max(self.day_seconds)
            lines.append(
                f"per-day: mean {sum(self.day_seconds) / len(self.day_seconds):.2f}s, "
                f"max {slowest:.2f}s over {len(self.day_seconds)} days"
            )
        return "\n".join(lines)


class _PathCache:
    """Per-client cached (frontend_id, baseline_rtt_ms) lookups.

    Baselines include the path's *persistent quality offset* (see
    :meth:`repro.latency.model.LatencyModel.sample_static_offset_ms`),
    drawn from a seed-derived RNG so it is stable for the whole study.
    """

    def __init__(self, scenario: Scenario, telemetry: Telemetry) -> None:
        self._scenario = scenario
        self._anycast: Dict[Tuple[str, int], Tuple[str, float]] = {}
        self._unicast: Dict[Tuple[str, str], float] = {}
        self._anycast_hits = telemetry.counter(
            "path_cache.anycast.hits_total",
            "anycast (client, rank) baseline lookups served from cache",
        )
        self._anycast_misses = telemetry.counter(
            "path_cache.anycast.misses_total",
            "anycast baselines computed from routing + latency model",
        )
        self._unicast_hits = telemetry.counter(
            "path_cache.unicast.hits_total",
            "unicast (client, front-end) baseline lookups served from cache",
        )
        self._unicast_misses = telemetry.counter(
            "path_cache.unicast.misses_total",
            "unicast baselines computed from routing + latency model",
        )

    def _static_offset(self, client_key: str, path_key: str, anycast: bool) -> float:
        scenario = self._scenario
        return scenario.latency_model.static_offset_from_seed(
            derive_seed(scenario.config.seed, "path-quality", client_key, path_key),
            anycast=anycast,
        )

    def anycast(self, client_key: str, rank: int) -> Tuple[str, float]:
        """Serving front-end and baseline RTT over the anycast route."""
        cached = self._anycast.get((client_key, rank))
        if cached is None:
            self._anycast_misses.inc()
            scenario = self._scenario
            client = scenario.client_by_key(client_key)
            path = scenario.network.anycast_path(
                client.asn, client.home_metro, client.location, rank
            )
            baseline = scenario.latency_model.baseline_rtt_ms(
                path.path_km,
                path.backbone_km,
                path.as_hops,
                client.access_delay_ms,
            )
            # The anycast path's quality is a property of the client's
            # steady route, keyed by the ingress so a route change also
            # changes path quality.
            baseline += self._static_offset(
                client_key, f"anycast-{path.ingress_metro}", anycast=True
            )
            cached = (path.frontend.frontend_id, baseline)
            self._anycast[(client_key, rank)] = cached
        else:
            self._anycast_hits.inc()
        return cached

    def unicast(self, client_key: str, frontend_id: str) -> float:
        """Baseline RTT to one front-end's unicast prefix."""
        baseline = self._unicast.get((client_key, frontend_id))
        if baseline is None:
            self._unicast_misses.inc()
            scenario = self._scenario
            client = scenario.client_by_key(client_key)
            path = scenario.network.unicast_path(
                frontend_id, client.asn, client.home_metro, client.location
            )
            baseline = scenario.latency_model.baseline_rtt_ms(
                path.path_km,
                path.backbone_km,
                path.as_hops,
                client.access_delay_ms,
            )
            baseline += self._static_offset(
                client_key, frontend_id, anycast=False
            )
            self._unicast[(client_key, frontend_id)] = baseline
        else:
            self._unicast_hits.inc()
        return baseline


#: Beacon sessions synthesized per numpy block.  Days heavier than this
#: are processed in fixed-size blocks over the same per-(client, day)
#: stream, bounding the engine's transient matrices at roughly
#: ``_MAX_BLOCK_BEACONS x targets`` doubles regardless of volume.
_MAX_BLOCK_BEACONS = 4096

#: Rows the matrix engine synthesizes per chunk.  A chunk concatenates
#: whole 4096-session spans from many clients; this cap bounds the
#: transient day matrices the same way ``_MAX_BLOCK_BEACONS`` bounds the
#: per-client engine's.
_MATRIX_CHUNK_ROWS = 32768


def _layout_for(beacon_config: BeaconConfig) -> BeaconSlotLayout:
    """The draw-slot layout implied by the beacon methodology."""
    pool_max = max(beacon_config.candidate_count - 1, 0)
    targets_max = 2 + min(beacon_config.random_picks, pool_max)
    return BeaconSlotLayout(pool_max, targets_max)


def _daily_path_offsets(
    latency_config,
    layout: BeaconSlotLayout,
    daily_key: np.uint64,
    client_indices: np.ndarray,
    pool_size: int,
) -> np.ndarray:
    """Per-day congestion offsets for every (client, unicast path) pair.

    Returns a ``(clients, 1 + pool_size)`` matrix: column 0 the closest
    unicast target, column ``1 + j`` pool position ``j``.  Every value is
    a pure function of (seed, day, client index, path slot) through the
    counter streams, so the per-client oracle and the whole-day matrix
    engine evaluate identical offsets no matter how they batch the
    computation.  The *anycast* path's offset is not here: it stays on
    the shared per-(day, client) ``derive_rng`` scalar stream so the
    reference and batched engines realize the same anycast elevation
    days (the per-client anycast distributions are compared directly by
    the equivalence tests; path slot 0 is reserved for it).
    """
    cfg = latency_config
    count = int(client_indices.shape[0])
    n_paths = 1 + pool_size
    offsets = np.zeros((count, n_paths))
    if cfg.daily_variation_median_ms == 0.0:
        return offsets
    base = client_indices.astype(np.uint64)[:, None] * np.uint64(
        layout.path_stride
    ) + np.arange(1, 1 + n_paths, dtype=np.uint64)[None, :] * np.uint64(3)
    gate_u = hashed_uniform(daily_key, base)
    rows, cols = np.nonzero(gate_u < cfg.daily_variation_probability)
    if rows.size:
        elevated = base[rows, cols]
        z = normal_from_uniforms(
            hashed_uniform(daily_key, elevated + np.uint64(1)),
            hashed_uniform(daily_key, elevated + np.uint64(2)),
        )
        offsets[rows, cols] = np.exp(
            math.log(cfg.daily_variation_median_ms)
            + cfg.daily_variation_sigma * z
        )
    return offsets


def _synthesize_rtts(
    latency_config,
    beacon_config: BeaconConfig,
    layout: BeaconSlotLayout,
    beacon_key: np.uint64,
    row_gids: np.ndarray,
    pool_size: int,
    picks: int,
    log_weights: Optional[np.ndarray],
    frac0,
    anycast_fixed0,
    anycast_fixed1,
    unicast_fixed: np.ndarray,
    overhead_rows: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesize RTT rows from the counter streams.

    The single draw path both batched engines share: every random term —
    rank switch, Gumbel pick keys, jitter body, spike gate/magnitude,
    measurement overhead — is evaluated from ``hashed_uniform`` at the
    (row, slot) coordinates in ``row_gids``/``layout``, and every
    floating-point expression is written once here, so any batching of
    the same rows produces bit-identical values.

    Args:
        row_gids: Stride-scaled (client, row) draw coordinates.
        log_weights: ``log`` pick weights — a ``(pool_size,)`` vector
            (single client) or ``(rows, pool_size)`` matrix; only needed
            when ``0 < picks < pool_size``.
        frac0: First-rank traffic fraction (scalar or per-row);
            ``1.0`` for single-rank days, which makes the rank draw a
            no-op since uniforms are strictly below 1.
        anycast_fixed0 / anycast_fixed1: Fixed anycast RTT component on
            the first / second session rank (scalar or per-row).
        unicast_fixed: Fixed components for the closest target (col 0)
            and the pick pool (cols 1..) — ``(1 + pool_size,)`` vector
            or per-row matrix.
        overhead_rows: Row indices that lack Resource Timing and incur
            the measurement-overhead term, or ``None`` for none.

    Returns:
        ``(pick_indices, rtts)`` — the ``(rows, picks)`` pool-index
        matrix and the rounded ``(rows, 2 + picks)`` RTT matrix.
    """
    cfg = latency_config
    n = int(row_gids.shape[0])
    targets = 2 + picks

    on_first = hashed_uniform(beacon_key, row_gids) < frac0

    if picks == 0:
        pick_indices = np.empty((n, 0), dtype=np.intp)
    elif picks == pool_size:
        pick_indices = np.tile(np.arange(pool_size, dtype=np.intp), (n, 1))
    else:
        assert log_weights is not None
        pick_slots = np.arange(
            layout.pick_base, layout.pick_base + pool_size, dtype=np.uint64
        )
        keys = log_weights + gumbel_from_uniform(
            hashed_uniform(beacon_key, row_gids[:, None] + pick_slots)
        )
        pick_indices = np.argpartition(-keys, picks - 1, axis=1)[:, :picks]

    if cfg.jitter_median_ms > 0.0:
        pair_slots = np.arange(
            layout.jitter_base,
            layout.jitter_base + targets + (targets & 1),
            2,
            dtype=np.uint64,
        )
        pair_gids = row_gids[:, None] + pair_slots
        z_cos, z_sin = normal_pair_from_uniforms(
            hashed_uniform(beacon_key, pair_gids),
            hashed_uniform(beacon_key, pair_gids + np.uint64(1)),
        )
        body = np.empty((n, 2 * pair_slots.shape[0]))
        body[:, 0::2] = z_cos
        body[:, 1::2] = z_sin
        jitter = np.exp(
            math.log(cfg.jitter_median_ms)
            + cfg.jitter_sigma * body[:, :targets]
        )
    else:
        jitter = np.zeros((n, targets))

    if cfg.spike_probability > 0.0:
        spike_slots = np.arange(
            layout.spike_base, layout.spike_base + targets, dtype=np.uint64
        )
        spiked = (
            hashed_uniform(beacon_key, row_gids[:, None] + spike_slots)
            < cfg.spike_probability
        )
        rows, cols = np.nonzero(spiked)
        if rows.size:
            # Spike magnitudes exist only where the gate fired; counter
            # streams let both engines evaluate exactly that subset.
            mag_gids = (
                row_gids[rows]
                + np.uint64(layout.spike_mag_base)
                + cols.astype(np.uint64) * np.uint64(2)
            )
            z = normal_from_uniforms(
                hashed_uniform(beacon_key, mag_gids),
                hashed_uniform(beacon_key, mag_gids + np.uint64(1)),
            )
            jitter[rows, cols] += np.exp(
                math.log(cfg.spike_median_ms) + cfg.spike_sigma * z
            )

    if overhead_rows is not None and overhead_rows.size:
        oh_slots = np.arange(
            layout.overhead_base,
            layout.overhead_base + 2 * targets,
            2,
            dtype=np.uint64,
        )
        oh_gids = row_gids[overhead_rows][:, None] + oh_slots
        z = normal_from_uniforms(
            hashed_uniform(beacon_key, oh_gids),
            hashed_uniform(beacon_key, oh_gids + np.uint64(1)),
        )
        jitter[overhead_rows] += np.maximum(
            beacon_config.primitive_overhead_mean_ms
            + beacon_config.primitive_overhead_sigma_ms * z,
            0.0,
        )

    fixed = np.empty((n, targets))
    fixed[:, 0] = np.where(on_first, anycast_fixed0, anycast_fixed1)
    if unicast_fixed.ndim == 1:
        fixed[:, 1] = unicast_fixed[0]
        if picks:
            fixed[:, 2:] = unicast_fixed[1:][pick_indices]
    else:
        fixed[:, 1] = unicast_fixed[:, 0]
        if picks:
            fixed[:, 2:] = np.take_along_axis(
                unicast_fixed[:, 1:], pick_indices, axis=1
            )
    # Browser timing APIs report integer milliseconds (same rounding
    # the reference engine applies per fetch).
    rtts = np.rint(fixed + jitter)
    return pick_indices, rtts


class _ReferenceBeaconEngine:
    """Scalar beacon synthesis: one Python call per beacon fetch.

    The statistical oracle for the batched engines.  At staging time
    every fetch of the client-day's sessions runs through
    :class:`BeaconRunner` and draws its session rank, targets and jitter
    from the client-day's ``random.Random`` — the object the day
    pipeline drew the query and beacon volumes from, continued rather
    than re-derived, because ``random.gauss`` caches its second normal
    between calls.  Unicast daily offsets come from per-(day, client,
    target) derived streams; joined rows reach the aggregates one sample
    at a time through the backend's scalar observer.
    """

    def __init__(
        self,
        scenario: Scenario,
        runner: BeaconRunner,
        paths: "_PathCache",
        request_diffs: RequestDiffLog,
        ecs_aggregates: GroupedDailyAggregates,
        gate: ValidationGate,
        regions: Dict[str, str],
        resource_timing: Dict[str, bool],
    ) -> None:
        def on_joined(row: JoinedMeasurement) -> None:
            ecs_aggregates.observe(
                row.day, row.client_key, row.target_id, row.rtt_ms
            )

        self.backend = BeaconBackend([on_joined])
        self._scenario = scenario
        self._runner = runner
        self._paths = paths
        self._request_diffs = request_diffs
        self._gate = gate
        self._regions = regions
        self._resource_timing = resource_timing

    def stage_client_day(
        self,
        day: int,
        day_keys: DayKeys,
        client: ClientPrefix,
        client_index: int,
        plan: DayRoutePlan,
        beacons: int,
        anycast_extra_ms: float,
        degraded_frontend: Optional[str],
        unicast_inflation_ms: float,
        dirty_slots: Optional[Dict[int, FaultKind]],
        load_extras: Optional[Dict[str, float]],
        rng: random.Random,
    ) -> None:
        """Run and sink one client-day's ``beacons`` sessions."""
        scenario = self._scenario
        latency = scenario.latency_model
        paths = self._paths
        gate = self._gate
        backend = self.backend
        key = client.key
        ldns_id = client.ldns_id
        region = self._regions[key]
        rt_supported = self._resource_timing[key]
        day_start = scenario.calendar.seconds_at(day)
        unicast_offsets: Dict[str, float] = {}

        def serve(target_id: str) -> Tuple[str, float]:
            if target_id == ANYCAST_TARGET:
                # The current session's rank, drawn just before the fetch.
                frontend_id, baseline = paths.anycast(key, session_rank)
                extra = anycast_extra_ms
            else:
                frontend_id = target_id
                baseline = paths.unicast(key, target_id)
                offset = unicast_offsets.get(target_id)
                if offset is None:
                    offset = latency.sample_daily_variation_ms(
                        derive_rng(
                            scenario.config.seed, "daily-variation", day,
                            key, target_id,
                        ),
                        anycast=False,
                    )
                    unicast_offsets[target_id] = offset
                extra = offset
                if load_extras:
                    extra += load_extras.get(target_id, 0.0)
                if target_id == degraded_frontend:
                    extra += unicast_inflation_ms
            rtt = baseline + latency.sample_jitter_ms(rng) + extra
            return frontend_id, rtt

        record_index = 0
        for _ in range(beacons):
            session_rank = plan.sample_rank(rng)
            fetches = self._runner.run_beacon(
                ldns_id=ldns_id,
                resource_timing_supported=rt_supported,
                serve=serve,
                rng=rng,
                now=day_start,
            )
            anycast_rtt: Optional[float] = None
            best_unicast: Optional[float] = None
            for fetch in fetches:
                rtt_ms = fetch.rtt_ms
                if dirty_slots:
                    kind = dirty_slots.get(record_index)
                    if kind is not None:
                        rtt_ms = RecordFaultInjector.dirty_value(kind, rtt_ms)
                admitted = gate.admit(day, key, record_index, rtt_ms)
                record_index += 1
                if admitted is None:
                    # Quarantined: the record never reaches any log
                    # stream, so it cannot join.
                    continue
                backend.on_dns(fetch.measurement_id, ldns_id, fetch.target_id)
                backend.on_server(
                    fetch.measurement_id, fetch.serving_frontend_id
                )
                backend.on_http(
                    HttpLogEntry(
                        day=day,
                        measurement_id=fetch.measurement_id,
                        client_key=key,
                        rtt_ms=admitted,
                        used_resource_timing=fetch.used_resource_timing,
                    )
                )
                if fetch.target_id == ANYCAST_TARGET:
                    anycast_rtt = admitted
                elif best_unicast is None or admitted < best_unicast:
                    best_unicast = admitted
            if anycast_rtt is not None and best_unicast is not None:
                self._request_diffs.observe(
                    day, client_index, region, anycast_rtt, best_unicast
                )

    def run_day(self, day: int, day_keys: DayKeys) -> None:
        """Close the day: expire the LDNS caches' entries."""
        self._runner.purge_caches(
            self._scenario.calendar.seconds_at(day) + 86_400.0
        )


class _VectorizedBeaconEngine:
    """Batched beacon synthesis: one numpy block per (client, day).

    The scalar reference engine walks every beacon fetch through Python —
    target selection, jitter draw, sink append — one call at a time.
    This engine synthesizes a whole (client, day) block of ``B`` beacons
    × ``T`` targets as arrays:

    * session-rank switches, random-pick keys, daily congestion offsets,
      jitter bodies, spike masks, spike magnitudes, and primitive-timing
      overheads are counter-based streams
      (:mod:`repro.simulation.counterrng`): pure functions of (seed, day,
      client index, beacon row, slot), evaluated through the shared
      :func:`_synthesize_rtts` path;
    * per-target fixed components (cached path baseline + persistent
      offset + daily congestion offset + episode inflation) assemble into
      a ``(B, T)`` base matrix that the jitter adds onto;
    * results flow into the sinks the way the matrix engine writes
      them — :meth:`GroupedDailyAggregates.observe_many` per (client,
      target) cell, one :meth:`RequestDiffLog.observe_columns`
      per block with the client index and region code repeated, and
      :meth:`BeaconBackend.count_joined_bulk` for the admitted cells —
      but through this engine's own per-client code, so the oracle
      shares no sink code with the engine it checks.

    Because every draw is a pure per-coordinate function, the engine is
    deterministic per seed and bit-identical across serial, sharded, and
    re-ordered runs — and, by construction, bit-identical to the
    whole-day :class:`_MatrixBeaconEngine`, which evaluates the same
    streams batched across clients.  This per-client form is the oracle
    the matrix engine is verified against.  The reference engine consumes
    different streams, so its digests differ while the distributions
    match (pinned by the equivalence tests).
    """

    def __init__(
        self,
        scenario: Scenario,
        selector: BeaconTargetSelector,
        paths: "_PathCache",
        beacon_config: BeaconConfig,
        request_diffs: RequestDiffLog,
        ecs_aggregates: GroupedDailyAggregates,
        gate: ValidationGate,
        regions: Dict[str, str],
        resource_timing: Dict[str, bool],
        telemetry: Telemetry,
    ) -> None:
        self.backend = BeaconBackend()
        self._selector = selector
        self._paths = paths
        self._beacon_config = beacon_config
        self._request_diffs = request_diffs
        self._ecs = ecs_aggregates
        self._gate = gate
        self._regions = regions
        self._resource_timing = resource_timing
        self._latency = scenario.latency_model
        self._layout = _layout_for(beacon_config)
        self._batches = telemetry.counter(
            "engine.vectorized.batches_total",
            "(client, day) blocks synthesized as numpy batches",
        )

    def stage_client_day(
        self,
        day: int,
        day_keys: DayKeys,
        client: ClientPrefix,
        client_index: int,
        plan: DayRoutePlan,
        beacons: int,
        anycast_extra_ms: float,
        degraded_frontend: Optional[str],
        unicast_inflation_ms: float,
        dirty_slots: Optional[Dict[int, FaultKind]],
        load_extras: Optional[Dict[str, float]],
        rng: random.Random,
    ) -> None:
        """Synthesize and sink one client-day's ``beacons`` sessions now.

        Days up to ``_MAX_BLOCK_BEACONS`` sessions run as a single
        block.  Heavier days (large simulated populations behind one
        /24) are split into fixed-size blocks with *absolute* row
        indices into the counter streams, so the transient ``(B, T)``
        matrices — the campaign's peak-memory driver — stay bounded no
        matter the day's volume while every draw stays independent of
        the block boundaries.
        """
        if beacons > ROW_CAP:
            raise ConfigurationError(
                f"client-day of {beacons} beacons exceeds the "
                f"{ROW_CAP} row capacity of the counter streams"
            )
        key = client.key
        ldns_id = client.ldns_id
        selector = self._selector
        closest = selector.closest(ldns_id)
        pool = selector.pick_pool(ldns_id)
        pool_size = len(pool)
        picks = min(self._beacon_config.random_picks, pool_size)

        offsets = _daily_path_offsets(
            self._latency.config,
            self._layout,
            day_keys.daily,
            np.array([client_index]),
            pool_size,
        )[0]

        # Anycast fixed component per possible session rank (1 or 2).
        rank_fixed = [
            self._paths.anycast(key, rank)[1] + anycast_extra_ms
            for rank in plan.ranks
        ]
        dual_rank = len(plan.ranks) > 1
        # With frac0 pinned to 1.0, the rank draw (strictly below 1)
        # always lands on the first rank — single-rank days cost no
        # branch in the shared synthesis path.
        frac0 = plan.fractions[0] if dual_rank else 1.0
        anycast_fixed0 = rank_fixed[0]
        anycast_fixed1 = rank_fixed[1] if dual_rank else rank_fixed[0]

        unicast_fixed = np.empty(1 + pool_size)
        unicast_fixed[0] = self._paths.unicast(key, closest) + offsets[0]
        for position, target_id in enumerate(pool):
            unicast_fixed[1 + position] = (
                self._paths.unicast(key, target_id) + offsets[1 + position]
            )
        if load_extras:
            # Queueing-delay extras land after the daily offsets and
            # before episode degradation — the same element-wise order
            # the matrix engine applies its staged adjustments in.
            extra = load_extras.get(closest)
            if extra is not None:
                unicast_fixed[0] += extra
            for position, target_id in enumerate(pool):
                extra = load_extras.get(target_id)
                if extra is not None:
                    unicast_fixed[1 + position] += extra
        if degraded_frontend is not None:
            if closest == degraded_frontend:
                unicast_fixed[0] += unicast_inflation_ms
            for position, target_id in enumerate(pool):
                if target_id == degraded_frontend:
                    unicast_fixed[1 + position] += unicast_inflation_ms

        log_weights = (
            selector.log_pick_weights(ldns_id)
            if 0 < picks < pool_size
            else None
        )
        for start in range(0, beacons, _MAX_BLOCK_BEACONS):
            self._run_block(
                day,
                day_keys,
                key,
                client_index,
                self._regions[key],
                self._resource_timing[key],
                frac0,
                anycast_fixed0,
                anycast_fixed1,
                unicast_fixed,
                log_weights,
                closest,
                pool,
                pool_size,
                picks,
                min(_MAX_BLOCK_BEACONS, beacons - start),
                start,
                dirty_slots,
            )
        self._batches.inc()

    def run_day(self, day: int, day_keys: DayKeys) -> None:
        """Nothing to close: every client-day ran at staging time."""

    def _run_block(
        self,
        day: int,
        day_keys: DayKeys,
        key: str,
        client_index: int,
        region: str,
        resource_timing_supported: bool,
        frac0: float,
        anycast_fixed0: float,
        anycast_fixed1: float,
        unicast_fixed: np.ndarray,
        log_weights: Optional[np.ndarray],
        closest: str,
        pool: Tuple[str, ...],
        pool_size: int,
        picks: int,
        beacons: int,
        beacon_start: int,
        dirty_slots: Optional[Dict[int, FaultKind]] = None,
    ) -> None:
        """Synthesize and sink one block of ``beacons`` sessions."""
        targets = 2 + picks
        rows = np.arange(
            beacon_start, beacon_start + beacons, dtype=np.uint64
        )
        row_gids = self._layout.row_gids(client_index, rows)
        overhead_rows = (
            None if resource_timing_supported else np.arange(beacons)
        )
        pick_indices, rtts = _synthesize_rtts(
            self._latency.config,
            self._beacon_config,
            self._layout,
            day_keys.beacon,
            row_gids,
            pool_size,
            picks,
            log_weights,
            frac0,
            anycast_fixed0,
            anycast_fixed1,
            unicast_fixed,
            overhead_rows,
        )

        if dirty_slots:
            # Record faults land on flat b * T + t slots — the same
            # coordinates the reference engine counts fetches in (day
            # level, so rebase into this block's rows).
            for flat, kind in dirty_slots.items():
                b, t = divmod(flat, targets)
                b -= beacon_start
                if not 0 <= b < beacons:
                    continue
                rtts[b, t] = RecordFaultInjector.dirty_value(
                    kind, float(rtts[b, t])
                )

        admit = self._gate.admit_matrix(day, key, rtts, beacon_start)
        if admit is None:
            # Every cell valid (the overwhelmingly common case).
            joined = beacons * targets
            anycast_col = rtts[:, 0]
            closest_col = rtts[:, 1]
            diff_anycast = anycast_col
            diff_best = rtts[:, 1:].min(axis=1)
        else:
            joined = int(admit.sum())
            anycast_col = rtts[admit[:, 0], 0]
            closest_col = rtts[admit[:, 1], 1]
            # A session contributes a diff row only when its anycast
            # fetch and at least one unicast fetch were admitted — the
            # same rule the reference engine's per-fetch tracking
            # applies.
            row_ok = admit[:, 0] & admit[:, 1:].any(axis=1)
            diff_anycast = rtts[row_ok, 0]
            diff_best = np.where(
                admit[:, 1:], rtts[:, 1:], np.inf
            ).min(axis=1)[row_ok]
        self.backend.count_joined_bulk(joined)
        diff_rows = diff_anycast.shape[0]
        if diff_rows:
            diffs = self._request_diffs
            diffs.observe_columns(
                day,
                np.full(diff_rows, client_index, dtype=np.int32),
                np.full(diff_rows, diffs.region_code(region), dtype=np.int8),
                diff_anycast,
                diff_best,
            )

        ecs = self._ecs
        for target_id, values in (
            (ANYCAST_TARGET, anycast_col),
            (closest, closest_col),
        ):
            if values.size:
                ecs.observe_many(day, key, target_id, values)
        if not picks:
            return
        pick_rtts = rtts[:, 2:]
        pick_ok = None if admit is None else admit[:, 2:]
        for pool_index in np.unique(pick_indices):
            selected = pick_indices == pool_index
            if pick_ok is not None:
                selected &= pick_ok
            values = pick_rtts[selected]
            if values.size:
                ecs.observe_many(day, key, pool[pool_index], values)


class _MatrixGroup:
    """One target-shape cohort of the matrix engine's member table.

    Clients sharing a pick-pool size share a target count, so their
    beacon rows have identical width and can be synthesized in one
    matrix.  Member columns are frozen at engine construction; the
    ``staged_*`` fields accumulate one day's active client-days between
    :meth:`_MatrixBeaconEngine.stage_client_day` and
    :meth:`_MatrixBeaconEngine.run_day`.
    """

    __slots__ = (
        "pool_size",
        "picks",
        "keys",
        "closests",
        "pools",
        "client_indices",
        "region_codes",
        "rt_overhead",
        "base_unicast",
        "log_weights",
        "ldns_slot",
        "staged_members",
        "staged_beacons",
        "staged_frac0",
        "staged_af0",
        "staged_af1",
        "staged_load",
        "staged_degraded",
        "staged_dirty",
    )

    def __init__(self, pool_size: int, picks: int) -> None:
        self.pool_size = pool_size
        self.picks = picks
        self.keys: List[str] = []
        self.closests: List[str] = []
        self.pools: List[Tuple[str, ...]] = []
        self.client_indices: np.ndarray = np.empty(0, dtype=np.int64)
        self.region_codes: np.ndarray = np.empty(0, dtype=np.int8)
        self.rt_overhead: np.ndarray = np.empty(0, dtype=bool)
        self.base_unicast: np.ndarray = np.empty((0, 1 + pool_size))
        self.log_weights: Optional[np.ndarray] = None
        self.ldns_slot: np.ndarray = np.empty(0, dtype=np.intp)
        self.clear_staging()

    def clear_staging(self) -> None:
        self.staged_members: List[int] = []
        self.staged_beacons: List[int] = []
        self.staged_frac0: List[float] = []
        self.staged_af0: List[float] = []
        self.staged_af1: List[float] = []
        #: (staged row, unicast column, extra) queueing-delay adjustments
        self.staged_load: List[Tuple[int, int, float]] = []
        #: (staged row, unicast column, inflation) episode adjustments
        self.staged_degraded: List[Tuple[int, int, float]] = []
        #: staged row → flat-slot dirty-record map
        self.staged_dirty: Dict[int, Dict[int, FaultKind]] = {}


class _MatrixBeaconEngine:
    """Whole-day beacon synthesis: one matrix pipeline across clients.

    The chunked :class:`_VectorizedBeaconEngine` synthesizes one
    (client, day) block per call — correct, but every client-day pays
    Python and small-array overhead.  This engine synthesizes a whole
    day at once: the day loop stages every active client's scalars
    (volume, route plan, episode adjustments), and :meth:`run_day`
    expands them into cross-client row chunks of up to
    ``_MATRIX_CHUNK_ROWS`` sessions that flow through the *same*
    :func:`_synthesize_rtts` counter-stream path the oracle uses.

    Bit-identity with the oracle holds by construction:

    * every random term is a pure function of (seed, day, client index,
      row, slot) — batching across clients evaluates the same values at
      the same coordinates;
    * every floating-point expression (fixed-component assembly, jitter
      adds, rounding) is shared code or written in the same operation
      order;
    * chunk spans are aligned to the oracle's ``_MAX_BLOCK_BEACONS``
      block grid, so validation-gate calls see the same block shapes
      and quarantine the same day-level record coordinates.

    Sinks are day-columnar: one :meth:`RequestDiffLog.observe_columns`
    call per chunk, per-span bulk extends into the grouped aggregates,
    and a single joined-count bump per chunk — no per-beacon Python.
    """

    def __init__(
        self,
        scenario: Scenario,
        selector: BeaconTargetSelector,
        paths: "_PathCache",
        beacon_config: BeaconConfig,
        request_diffs: RequestDiffLog,
        ecs_aggregates: GroupedDailyAggregates,
        gate: ValidationGate,
        clients: Sequence[ClientPrefix],
        regions: Dict[str, str],
        resource_timing: Dict[str, bool],
        telemetry: Telemetry,
    ) -> None:
        # The engine writes its columns into the aggregate sinks
        # directly; the backend only keeps the joined-row accounting.
        self.backend = BeaconBackend()
        self._chunks = telemetry.counter(
            "engine.matrix.chunks_total",
            "cross-client row chunks synthesized by the matrix engine",
        )
        self._paths = paths
        self._beacon_config = beacon_config
        self._request_diffs = request_diffs
        self._ecs = ecs_aggregates
        self._gate = gate
        self._latency = scenario.latency_model
        self._layout = _layout_for(beacon_config)
        self._groups: Dict[int, _MatrixGroup] = {}
        self._member: Dict[str, Tuple[_MatrixGroup, int]] = {}

        # Freeze the member table: per-client invariants land in columns
        # once, so the per-day staging path touches no dictionaries.
        builders: Dict[int, Dict[str, list]] = {}
        ldns_slots: Dict[int, Dict[str, int]] = {}
        random_picks = beacon_config.random_picks
        for client in clients:
            key = client.key
            ldns_id = client.ldns_id
            pool = selector.pick_pool(ldns_id)
            pool_size = len(pool)
            group = self._groups.get(pool_size)
            if group is None:
                group = _MatrixGroup(
                    pool_size, min(random_picks, pool_size)
                )
                self._groups[pool_size] = group
                builders[pool_size] = {
                    "cidx": [], "region": [], "rt": [], "base": [],
                    "lslot": [], "logw": [],
                }
                ldns_slots[pool_size] = {}
            build = builders[pool_size]
            slots = ldns_slots[pool_size]
            slot = slots.get(ldns_id)
            if slot is None:
                slot = len(group.closests)
                slots[ldns_id] = slot
                group.closests.append(selector.closest(ldns_id))
                group.pools.append(pool)
                if 0 < group.picks < pool_size:
                    build["logw"].append(
                        selector.log_pick_weights(ldns_id)
                    )
            self._member[key] = (group, len(group.keys))
            group.keys.append(key)
            build["cidx"].append(scenario.client_index(key))
            build["region"].append(
                request_diffs.region_code(regions[key])
            )
            build["rt"].append(not resource_timing[key])
            build["lslot"].append(slot)
            base = np.empty(1 + pool_size)
            base[0] = paths.unicast(key, group.closests[slot])
            for position, target_id in enumerate(pool):
                base[1 + position] = paths.unicast(key, target_id)
            build["base"].append(base)
        for pool_size, group in self._groups.items():
            build = builders[pool_size]
            group.client_indices = np.asarray(build["cidx"], dtype=np.int64)
            group.region_codes = np.asarray(build["region"], dtype=np.int8)
            group.rt_overhead = np.asarray(build["rt"], dtype=bool)
            group.ldns_slot = np.asarray(build["lslot"], dtype=np.intp)
            group.base_unicast = (
                np.vstack(build["base"])
                if build["base"]
                else np.empty((0, 1 + pool_size))
            )
            if build["logw"]:
                group.log_weights = np.vstack(build["logw"])

    def stage_client_day(
        self,
        day: int,
        day_keys: DayKeys,
        client: ClientPrefix,
        client_index: int,
        plan: DayRoutePlan,
        beacons: int,
        anycast_extra_ms: float,
        degraded_frontend: Optional[str],
        unicast_inflation_ms: float,
        dirty_slots: Optional[Dict[int, FaultKind]],
        load_extras: Optional[Dict[str, float]],
        rng: random.Random,
    ) -> None:
        """Queue one active client-day for the next :meth:`run_day`.

        The scalar assembly here mirrors the oracle's
        (:meth:`_VectorizedBeaconEngine.stage_client_day`)
        expression-for-expression (same Python-float additions, same
        adjustment order), which is what keeps the fixed RTT components
        bit-identical.  ``rng`` is neither drawn from nor kept.
        """
        if beacons > ROW_CAP:
            raise ConfigurationError(
                f"client-day of {beacons} beacons exceeds the "
                f"{ROW_CAP} row capacity of the counter streams"
            )
        client_key = client.key
        group, member = self._member[client_key]
        staged_row = len(group.staged_members)
        group.staged_members.append(member)
        group.staged_beacons.append(beacons)
        _, baseline0 = self._paths.anycast(client_key, plan.ranks[0])
        anycast_fixed0 = baseline0 + anycast_extra_ms
        if len(plan.ranks) > 1:
            _, baseline1 = self._paths.anycast(client_key, plan.ranks[1])
            group.staged_frac0.append(plan.fractions[0])
            group.staged_af1.append(baseline1 + anycast_extra_ms)
        else:
            group.staged_frac0.append(1.0)
            group.staged_af1.append(anycast_fixed0)
        group.staged_af0.append(anycast_fixed0)
        if load_extras:
            slot = group.ldns_slot[member]
            extra = load_extras.get(group.closests[slot])
            if extra is not None:
                group.staged_load.append((staged_row, 0, extra))
            for position, target_id in enumerate(group.pools[slot]):
                extra = load_extras.get(target_id)
                if extra is not None:
                    group.staged_load.append(
                        (staged_row, 1 + position, extra)
                    )
        if degraded_frontend is not None:
            slot = group.ldns_slot[member]
            if group.closests[slot] == degraded_frontend:
                group.staged_degraded.append(
                    (staged_row, 0, unicast_inflation_ms)
                )
            for position, target_id in enumerate(group.pools[slot]):
                if target_id == degraded_frontend:
                    group.staged_degraded.append(
                        (staged_row, 1 + position, unicast_inflation_ms)
                    )
        if dirty_slots:
            group.staged_dirty[staged_row] = dirty_slots

    def run_day(self, day: int, day_keys: DayKeys) -> None:
        """Synthesize and sink every staged client-day."""
        for group in self._groups.values():
            if group.staged_members:
                self._chunks.inc(self._run_group_day(day, day_keys, group))
                group.clear_staging()

    def _run_group_day(
        self, day: int, day_keys: DayKeys, group: _MatrixGroup
    ) -> int:
        members = np.asarray(group.staged_members, dtype=np.intp)
        beacons = np.asarray(group.staged_beacons, dtype=np.int64)
        frac0 = np.asarray(group.staged_frac0)
        af0 = np.asarray(group.staged_af0)
        af1 = np.asarray(group.staged_af1)
        cidx = group.client_indices[members]
        regions = group.region_codes[members]
        rt_overhead = group.rt_overhead[members]
        ldns_slot = group.ldns_slot[members]

        # Daily congestion offsets for every staged (client, unicast
        # path) in one evaluation, then the same offsets-then-episode
        # adjustment order the oracle applies per client.
        unicast_fixed = group.base_unicast[members] + _daily_path_offsets(
            self._latency.config,
            self._layout,
            day_keys.daily,
            cidx,
            group.pool_size,
        )
        for staged_row, column, extra in group.staged_load:
            unicast_fixed[staged_row, column] += extra
        for staged_row, column, inflation in group.staged_degraded:
            unicast_fixed[staged_row, column] += inflation

        # Expand client-days into oracle-aligned spans: client-day rows
        # [k * 4096, (k+1) * 4096) form span k, so the validation gate
        # sees exactly the oracle's block shapes.
        n_spans = (
            beacons + (_MAX_BLOCK_BEACONS - 1)
        ) // _MAX_BLOCK_BEACONS
        total_spans = int(n_spans.sum())
        span_member = np.repeat(np.arange(len(members)), n_spans)
        span_excl = np.cumsum(n_spans) - n_spans
        span_rank = np.arange(total_spans) - span_excl[span_member]
        span_start = span_rank * _MAX_BLOCK_BEACONS
        span_len = np.minimum(
            beacons[span_member] - span_start, _MAX_BLOCK_BEACONS
        )

        chunks = 0
        start = 0
        while start < total_spans:
            stop = start + 1
            rows = int(span_len[start])
            while (
                stop < total_spans
                and rows + int(span_len[stop]) <= _MATRIX_CHUNK_ROWS
            ):
                rows += int(span_len[stop])
                stop += 1
            self._run_chunk(
                day,
                day_keys,
                group,
                frac0,
                af0,
                af1,
                unicast_fixed,
                cidx,
                regions,
                rt_overhead,
                ldns_slot,
                members,
                span_member[start:stop],
                span_start[start:stop],
                span_len[start:stop],
            )
            chunks += 1
            start = stop
        return chunks

    def _run_chunk(
        self,
        day: int,
        day_keys: DayKeys,
        group: _MatrixGroup,
        frac0: np.ndarray,
        af0: np.ndarray,
        af1: np.ndarray,
        unicast_fixed: np.ndarray,
        cidx: np.ndarray,
        regions: np.ndarray,
        rt_overhead: np.ndarray,
        ldns_slot: np.ndarray,
        members: np.ndarray,
        span_member: np.ndarray,
        span_start: np.ndarray,
        span_len: np.ndarray,
    ) -> None:
        picks = group.picks
        targets = 2 + picks
        n_rows = int(span_len.sum())
        row_starts = np.cumsum(span_len) - span_len
        row_member = np.repeat(span_member, span_len)
        rows_abs = (
            np.arange(n_rows, dtype=np.int64)
            - np.repeat(row_starts, span_len)
            + np.repeat(span_start, span_len)
        )
        row_gids = self._layout.row_gids(cidx[row_member], rows_abs)
        overhead_rows = np.nonzero(rt_overhead[row_member])[0]
        log_weights = (
            group.log_weights[ldns_slot[row_member]]
            if group.log_weights is not None
            else None
        )
        pick_indices, rtts = _synthesize_rtts(
            self._latency.config,
            self._beacon_config,
            self._layout,
            day_keys.beacon,
            row_gids,
            group.pool_size,
            picks,
            log_weights,
            frac0[row_member],
            af0[row_member],
            af1[row_member],
            unicast_fixed[row_member],
            overhead_rows if overhead_rows.size else None,
        )

        # Dirty-record faults, rebased from day-flat slots into chunk
        # rows — same coordinates, same pre-admission application point
        # as the per-client engines.
        has_dirty = False
        if group.staged_dirty:
            for span_index in range(len(span_member)):
                dirty = group.staged_dirty.get(int(span_member[span_index]))
                if not dirty:
                    continue
                base_row = int(row_starts[span_index])
                first = int(span_start[span_index])
                length = int(span_len[span_index])
                for flat, kind in dirty.items():
                    b, t = divmod(flat, targets)
                    b -= first
                    if not 0 <= b < length:
                        continue
                    has_dirty = True
                    rtts[base_row + b, t] = RecordFaultInjector.dirty_value(
                        kind, float(rtts[base_row + b, t])
                    )

        # Validation: one all-valid probe for the whole chunk (the
        # overwhelmingly common case), else per-span admit_matrix calls
        # at the spans' day-level beacon rows, the reference engine's
        # quarantine coordinates.
        admitted: Optional[np.ndarray] = None
        if has_dirty or not self._gate.admit_bulk_valid(rtts):
            admitted = np.ones(rtts.shape, dtype=bool)
            for span_index in range(len(span_member)):
                base_row = int(row_starts[span_index])
                length = int(span_len[span_index])
                member = int(members[span_member[span_index]])
                admit = self._gate.admit_matrix(
                    day,
                    group.keys[member],
                    rtts[base_row:base_row + length],
                    int(span_start[span_index]),
                )
                if admit is not None:
                    admitted[base_row:base_row + length] = admit

        self._sink_chunk(
            day, group, members, span_member, span_len, row_starts,
            row_member, cidx, regions, admitted, pick_indices, rtts,
        )

    def _sink_chunk(
        self,
        day: int,
        group: _MatrixGroup,
        members: np.ndarray,
        span_member: np.ndarray,
        span_len: np.ndarray,
        row_starts: np.ndarray,
        row_member: np.ndarray,
        cidx: np.ndarray,
        regions: np.ndarray,
        admitted: Optional[np.ndarray],
        pick_indices: np.ndarray,
        rtts: np.ndarray,
    ) -> None:
        """Sink a chunk with run-grouped columnar appends.

        Each (day, /24, target) still receives exactly the multiset of
        values the per-client oracle produces; what changes is the call
        shape — runs found by one argsort per chunk instead of a boolean
        mask per (client, pool position).  ``admitted`` is the gate's
        ``(rows, targets)`` admit mask, ``None`` when it admitted the
        whole chunk; it drops quarantined cells from the anycast and
        closest runs, from the picks' cell keys and from the
        request-diff rows, and a run it empties adds no cell.
        """
        ecs = self._ecs
        picks = group.picks
        pool_size = group.pool_size
        n_rows = rtts.shape[0]
        clients = cidx[row_member]
        row_regions = regions[row_member]
        anycast = rtts[:, 0]
        if admitted is None:
            self.backend.count_joined_bulk(n_rows * (2 + picks))
            best = rtts[:, 1:].min(axis=1)
        else:
            self.backend.count_joined_bulk(int(admitted.sum()))
            best = np.where(admitted[:, 1:], rtts[:, 1:], np.inf).min(axis=1)
            row_ok = admitted[:, 0] & admitted[:, 1:].any(axis=1)
            clients, row_regions, anycast, best = (
                clients[row_ok], row_regions[row_ok], anycast[row_ok],
                best[row_ok],
            )
        self._request_diffs.observe_columns(
            day, clients, row_regions, anycast, best
        )

        # Anycast + closest per client-day: each span IS one client-day
        # segment, already contiguous.  Both target columns ride in one
        # buffer, anycast first, so the sink takes one observe_runs call
        # per chunk.
        keys = group.keys
        closests = group.closests
        member_slot = group.ldns_slot
        span_members = members[span_member].tolist()
        n_spans = len(span_members)
        ecs_vals = rtts[:, :2].T.reshape(-1)
        if admitted is None:
            run_lens = np.concatenate((span_len, span_len))
        else:
            kept = admitted[:, :2].T.reshape(-1)
            ecs_vals = ecs_vals[kept]
            run_lens = np.add.reduceat(
                kept, np.concatenate((row_starts, n_rows + row_starts)),
                dtype=np.int64,
            )
        edges = np.concatenate(([0], np.cumsum(run_lens))).tolist()
        entries = []
        add = entries.append
        for span_index, member in enumerate(span_members):
            key = keys[member]
            start, stop = edges[span_index], edges[span_index + 1]
            if stop > start:
                add((key, ANYCAST_TARGET, start, stop))
            start = edges[n_spans + span_index]
            stop = edges[n_spans + span_index + 1]
            if stop > start:
                add((key, closests[member_slot[member]], start, stop))
        ecs.observe_runs(day, entries, ecs_vals)

        if not picks:
            return
        # Random-pick cells, keyed (client-day, pool index): one sort
        # turns the chunk's pick columns into per-cell runs.
        pick_vals = rtts[:, 2:].reshape(-1)
        cell_keys = (
            np.repeat(row_member.astype(np.int64), picks) * pool_size
            + pick_indices.reshape(-1).astype(np.int64)
        )
        if admitted is not None:
            kept = admitted[:, 2:].reshape(-1)
            pick_vals = pick_vals[kept]
            cell_keys = cell_keys[kept]
            if not cell_keys.size:
                return
        order = np.argsort(cell_keys, kind="stable")
        sorted_keys = cell_keys[order]
        sorted_vals = pick_vals[order]
        run_bounds = np.nonzero(np.diff(sorted_keys))[0] + 1
        starts = np.concatenate(([0], run_bounds))
        ends = np.concatenate((run_bounds, [sorted_keys.shape[0]]))
        run_keys = sorted_keys[starts].tolist()
        pools = group.pools
        entries = []
        add = entries.append
        for run_key, start, end in zip(
            run_keys, starts.tolist(), ends.tolist()
        ):
            staged, pool_index = divmod(run_key, pool_size)
            member = int(members[staged])
            add((
                keys[member],
                pools[member_slot[member]][pool_index],
                start,
                end,
            ))
        ecs.observe_runs(day, entries, sorted_vals)


class CampaignRunner:
    """Runs a scenario's measurement campaign into a dataset.

    Args:
        scenario: The built study environment.
        config: Campaign knobs.
        client_slice: Optional half-open ``(start, stop)`` index range
            into ``scenario.clients`` — only those clients are measured.
            The churn and episode processes still evolve over the whole
            population (they are global, sequential processes), so a
            sliced run observes exactly what a full run observes for the
            same clients.  Used by the sharded parallel executor.
        telemetry: Optional :class:`repro.telemetry.Telemetry` to record
            into (the study layer shares one across campaign and
            analysis); a fresh instance with the run's context is
            created when omitted.
        fault_injector: Optional
            :class:`repro.faults.WorkerFaultInjector` firing this run's
            scheduled fault (crash at start, transient exception at a
            derived day, hang at the end).  When omitted but
            ``config.fault_plan`` is set, the plan is compiled for this
            single run (one shard, attempt 0) — the injected fault then
            surfaces as a raised ``Injected*Error`` with no retry;
            retries are the resilient executor's job
            (:class:`repro.simulation.parallel.ParallelCampaignRunner`).

    After :meth:`run` returns, :attr:`stats` holds the run's
    :class:`CampaignStats` and :attr:`telemetry` the full telemetry
    (snapshot it for merging, export, or the run report).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[CampaignConfig] = None,
        client_slice: Optional[Tuple[int, int]] = None,
        telemetry: Optional[Telemetry] = None,
        fault_injector: Optional[WorkerFaultInjector] = None,
    ) -> None:
        self._scenario = scenario
        self._config = resolve(config or CampaignConfig(), scenario.config)
        if client_slice is not None:
            start, stop = client_slice
            if not 0 <= start <= stop <= len(scenario.clients):
                raise ConfigurationError(
                    f"client_slice {client_slice!r} outside population of "
                    f"{len(scenario.clients)} clients"
                )
        self._client_slice = client_slice
        if fault_injector is None and self._config.fault_plan is not None:
            compiled = self._config.fault_plan.compile(
                scenario.config.seed, shards=1
            )
            fault_injector = WorkerFaultInjector(
                compiled.fault_for(0, 0),
                seed=scenario.config.seed,
                shard_index=0,
                attempt=0,
                hang_seconds=compiled.hang_seconds,
            )
        self._fault_injector = fault_injector
        self.telemetry = telemetry or Telemetry(
            run_context(scenario.config, self._config, workers=1)
        )
        self.stats: Optional[CampaignStats] = None
        #: Records rejected or repaired by this run's validation gate.
        self.quarantine = QuarantineLog()

    def run(self) -> StudyDataset:
        """Execute every day of the calendar and return the dataset.

        The whole run is traced under the ``campaign`` span (setup →
        per-day → finalize); counters and histograms land in
        :attr:`telemetry`, from whose snapshot :attr:`stats` is built.
        """
        tel = self.telemetry
        if self._fault_injector is not None:
            self._fault_injector.on_worker_start()
        with tel.span("campaign"):
            dataset = self._run_instrumented(tel)
        if self._fault_injector is not None:
            self._fault_injector.hang_before_return()
        root = tel.spans.records.get("campaign")
        tel.gauge(
            "campaign.wall_seconds",
            "campaign wall-clock (max across concurrent shards)",
        ).set(root.seconds if root is not None else 0.0)
        self.stats = CampaignStats.from_snapshot(tel.snapshot())
        return dataset

    def _run_instrumented(self, tel: Telemetry) -> StudyDataset:
        scenario = self._scenario
        cfg = self._config
        calendar = scenario.calendar
        engine = cfg.engine

        beacons_counter = tel.counter(
            "campaign.beacons_total", "beacon sessions executed (§3.2.2)"
        )
        queries_counter = tel.counter(
            "campaign.queries_total",
            "production queries served over anycast (§3.2.1)",
        )
        passive_counter = tel.counter(
            "campaign.passive_records_total",
            "per-(day, client, front-end) passive-log appends",
        )
        client_days_counter = tel.counter(
            "campaign.client_days_total",
            "client-days that produced traffic",
        )
        idle_counter = tel.counter(
            "campaign.idle_client_days_total",
            "client-days skipped for zero query volume",
        )
        beacons_hist = tel.histogram(
            "campaign.beacons_per_client_day",
            "beacon sessions per (client, day) block",
        )
        day_hist = tel.histogram(
            "campaign.day_seconds", "wall-clock per simulated day"
        )

        with tel.span("setup"):
            selector = BeaconTargetSelector(
                scenario.network.frontends, scenario.geolocation, cfg.beacon
            )
            runner = BeaconRunner(selector, cfg.beacon)
            paths = _PathCache(scenario, tel)
            workload = scenario.workload_model
            latency = scenario.latency_model

            # Every record this run ingests — beacon fetches in every
            # engine, passive-log counts — passes this gate.
            gate = ValidationGate(
                ValidationPolicy.parse(cfg.validation),
                quarantine=self.quarantine,
            )
            # Dirty-data faults compile against the *full* population
            # and calendar, so a sharded run dirties exactly the records
            # a serial run does.
            record_faults: Optional[RecordFaultInjector] = None
            if cfg.fault_plan is not None:
                compiled_records = cfg.fault_plan.compile_records(
                    scenario.config.seed,
                    calendar.num_days,
                    len(scenario.clients),
                )
                if not compiled_records.empty:
                    record_faults = RecordFaultInjector(compiled_records)

            # Churn and episodes are global day-ordered processes;
            # computing every day's plans up front keeps the day loop
            # pure per-client work and gives sharded runs identical
            # global dynamics.
            churn = scenario.new_churn_model()
            episodes = scenario.new_episode_model()
            day_plans = [churn.plans_for_day(day) for day in calendar.days()]
            day_inflations = [
                episodes.inflations_for_day(day) for day in calendar.days()
            ]

            # Load management is another global day-ordered process:
            # the whole timeline (demand surges, shed fractions,
            # withdrawals, queueing delays) is fixed here from expected
            # demand over the full population, so every shard folds in
            # identical load signals.
            load_schedule = _build_load_schedule(scenario, cfg)
            shed_counter = (
                tel.counter(
                    "load.shed_queries_total",
                    "production queries shed and lost to overload "
                    "management",
                )
                if load_schedule is not None
                else None
            )

            if self._client_slice is None:
                clients = scenario.clients
            else:
                start, stop = self._client_slice
                clients = scenario.clients[start:stop]

            bounded = cfg.sketch_threshold is not None
            ecs_aggregates = GroupedDailyAggregates(
                "ecs",
                exact_threshold=cfg.sketch_threshold,
                relative_accuracy=cfg.sketch_accuracy,
                max_buckets=cfg.sketch_max_buckets,
            )
            request_diffs = RequestDiffLog(
                bounded=bounded,
                relative_accuracy=cfg.sketch_accuracy,
                max_buckets=cfg.sketch_max_buckets,
            )
            passive = PassiveLog(bounded=bounded)

        scenario_seed = scenario.config.seed

        with tel.span("invariants"):
            # Per-client invariants, hoisted out of the day loop: Resource
            # Timing support (a property of the client's browser, drawn from
            # a per-client derived RNG so it is shard-independent) and the
            # Fig 3 region label — the paper splits out the United States
            # specifically, not all of North America.
            metro_db = scenario.metro_db
            resource_timing: Dict[str, bool] = {}
            regions: Dict[str, str] = {}
            for client in clients:
                key = client.key
                resource_timing[key] = (
                    derive_rng(scenario_seed, "resource-timing", key).random()
                    < cfg.beacon.resource_timing_support
                )
                if metro_db.get(client.home_metro).country == "US":
                    regions[key] = "united-states"
                else:
                    regions[key] = str(region_of_point(client.location))

        # The engine is chosen once, here: the day loop below stages
        # every engine's client-days through the same calls.
        if engine == "matrix":
            with tel.span("matrix-member-table"):
                beacon_engine = _MatrixBeaconEngine(
                    scenario, selector, paths, cfg.beacon, request_diffs,
                    ecs_aggregates, gate, clients, regions,
                    resource_timing, tel,
                )
        elif engine == "vectorized":
            beacon_engine = _VectorizedBeaconEngine(
                scenario, selector, paths, cfg.beacon, request_diffs,
                ecs_aggregates, gate, regions, resource_timing, tel,
            )
        else:
            beacon_engine = _ReferenceBeaconEngine(
                scenario, runner, paths, request_diffs, ecs_aggregates,
                gate, regions, resource_timing,
            )
        backend = beacon_engine.backend

        _log.info(
            "campaign starting",
            extra={
                "clients": len(clients),
                "days": calendar.num_days,
                "engine": engine,
                "sliced": self._client_slice is not None,
            },
        )

        beacon_count = 0
        run_started = time.perf_counter()
        for day in calendar.days():
            if self._fault_injector is not None:
                # Transient-exception site: the injected failure surfaces
                # at the start of a seed-derived day, i.e. genuinely
                # mid-run.
                self._fault_injector.on_day(day, calendar.num_days)
            day_beacons = day_queries = day_shed = 0
            client_days = idle_days = passive_appends = 0
            with tel.span("day", index=day):
                day_start_time = time.perf_counter()
                day_keys = DayKeys(scenario_seed, day)
                plans = day_plans[day]
                inflations = day_inflations[day]
                is_weekend = calendar.is_weekend(day)
                load_extras = (
                    load_schedule.unicast_extras(day)
                    if load_schedule is not None
                    else None
                )
                # Sub-phase times are accumulated with bare perf_counter
                # reads (not nested spans) to keep per-client overhead
                # off the hot path, then recorded once per day below.
                workload_seconds = passive_seconds = beacon_seconds = 0.0
                section_start = day_start_time
                for client in clients:
                    key = client.key
                    # Everything this client does today draws from its
                    # own derived stream — independent of every other
                    # client.  The reference engine continues this very
                    # object, so it is passed through, never re-derived.
                    rng = derive_rng(scenario_seed, "campaign", day, key)
                    queries = workload.daily_queries(client, is_weekend, rng)
                    if load_schedule is not None:
                        queries = load_schedule.scaled_queries(
                            day, key, queries
                        )
                    section_now = time.perf_counter()
                    workload_seconds += section_now - section_start
                    section_start = section_now
                    if queries <= 0:
                        idle_days += 1
                        continue
                    client_days += 1
                    day_queries += queries

                    # Passive production traffic: split across the day's
                    # routes with largest-remainder apportionment, so the
                    # recorded counts sum exactly to the query volume.
                    plan = plans[key]
                    routes, shed = _passive_routes(
                        paths, key, plan, queries,
                        load_schedule.landing(day, key)
                        if load_schedule is not None
                        else None,
                    )
                    day_shed += shed
                    passive_appends += len(routes)
                    for frontend_id, count in routes:
                        admitted_count = gate.admit_count(
                            day, key, frontend_id, count
                        )
                        if admitted_count is not None:
                            passive.record(
                                day, key, frontend_id, admitted_count
                            )
                    beacons = workload.daily_beacons(queries, rng)
                    section_now = time.perf_counter()
                    passive_seconds += section_now - section_start
                    section_start = section_now
                    if beacons <= 0:
                        continue
                    beacons_hist.observe(beacons)
                    day_beacons += beacons

                    effect = inflations.get(key)
                    anycast_inflation = 0.0
                    degraded_frontend: Optional[str] = None
                    unicast_inflation = 0.0
                    if effect is not None:
                        if effect.scope is EpisodeScope.ANYCAST:
                            anycast_inflation = effect.inflation_ms
                        else:
                            candidates = selector.candidates(client.ldns_id)
                            degraded_frontend = candidates[
                                int(effect.selector * len(candidates))
                            ]
                            unicast_inflation = effect.inflation_ms
                    # The anycast path's daily congestion offset lives on
                    # a shared per-(day, client) derived stream: every
                    # engine realizes the same anycast elevation days.
                    # (Unicast path offsets are engine-stream terms.)
                    anycast_extra = (
                        anycast_inflation
                        + latency.sample_daily_variation_ms(
                            derive_rng(
                                scenario_seed, "daily-variation", day, key,
                                ANYCAST_TARGET,
                            ),
                            anycast=True,
                        )
                    )
                    if load_schedule is not None:
                        anycast_extra += load_schedule.anycast_extra(
                            day, key
                        )

                    # Record faults for this (day, client) cell, as flat
                    # session * T + position slots.  The target count T
                    # is a per-client constant shared by every engine, so
                    # the slot map is engine- and shard-independent.
                    client_index = scenario.client_index(key)
                    dirty_slots: Optional[Dict[int, FaultKind]] = None
                    if record_faults is not None:
                        n_targets = 2 + min(
                            cfg.beacon.random_picks,
                            len(selector.pick_pool(client.ldns_id)),
                        )
                        dirty_slots = record_faults.slots_for(
                            day, client_index, beacons * n_targets
                        )
                    beacon_engine.stage_client_day(
                        day=day,
                        day_keys=day_keys,
                        client=client,
                        client_index=client_index,
                        plan=plan,
                        beacons=beacons,
                        anycast_extra_ms=anycast_extra,
                        degraded_frontend=degraded_frontend,
                        unicast_inflation_ms=unicast_inflation,
                        dirty_slots=dirty_slots,
                        load_extras=load_extras,
                        rng=rng,
                    )
                    section_now = time.perf_counter()
                    beacon_seconds += section_now - section_start
                    section_start = section_now
                beacon_engine.run_day(day, day_keys)
                beacon_seconds += time.perf_counter() - section_start
                idle_counter.inc(idle_days)
                client_days_counter.inc(client_days)
                queries_counter.inc(day_queries)
                passive_counter.inc(passive_appends)
                beacons_counter.inc(day_beacons)
                beacon_count += day_beacons
                day_elapsed = time.perf_counter() - day_start_time
                day_hist.observe(day_elapsed)
                tel.spans.record_seconds(
                    "campaign/day/workload", workload_seconds
                )
                tel.spans.record_seconds(
                    "campaign/day/passive", passive_seconds
                )
                tel.spans.record_seconds(
                    "campaign/day/beacons", beacon_seconds
                )
                _log.debug(
                    "day complete",
                    extra={"day": day, "seconds": round(day_elapsed, 4)},
                )
            # Per-day work totals as a data-scope trace event: numeric
            # args sum shard-invariantly (each shard contributes its
            # slice's beacons), so serial and sharded trace digests agree.
            tel.trace.data(
                "engine.day",
                "engine",
                index=day,
                engine=engine,
                beacons=day_beacons,
            )
            if load_schedule is not None:
                # Shed counts are integers apportioned per client, so each
                # shard's partial sum plus the trace digest's numeric
                # aggregation reproduce the serial totals exactly.
                shed_counter.inc(day_shed)
                tel.trace.data(
                    "load.day", "load", index=day, shed_queries=day_shed
                )
            if cfg.progress_listener is not None:
                elapsed = time.perf_counter() - run_started
                cfg.progress_listener(
                    CampaignProgress(
                        days_completed=day + 1,
                        num_days=calendar.num_days,
                        beacons=beacon_count,
                        beacons_per_second=(
                            beacon_count / elapsed if elapsed > 0 else 0.0
                        ),
                        elapsed_seconds=elapsed,
                    )
                )

        with tel.span("finalize"):
            if backend.pending_count:
                raise ConfigurationError(
                    f"{backend.pending_count} measurements never joined — "
                    "campaign bookkeeping bug"
                )
            tel.counter(
                "campaign.measurements_total",
                "joined measurements (three-way DNS/server/HTTP join, §3.2.2)",
            ).inc(backend.joined_count)
            # A gauge, not a counter: every shard runs the full calendar,
            # so "days simulated" is a property of the run, not additive.
            tel.gauge(
                "campaign.days", "calendar days simulated"
            ).set(calendar.num_days)
            dns_hits, dns_misses = runner.cache_stats()
            tel.counter(
                "dns.cache.hits_total",
                "LDNS resolver-cache hits during beacon fetches",
            ).inc(dns_hits)
            tel.counter(
                "dns.cache.misses_total",
                "LDNS resolver-cache misses (fresh resolutions)",
            ).inc(dns_misses)

            # Validation accounting: the gate counts with plain ints on
            # the hot path; publish them once here.
            tel.counter(
                "validate.records_total",
                "records checked at the ingestion boundaries",
            ).inc(gate.records_total)
            tel.counter(
                "validate.quarantined_total",
                "invalid records dropped into the quarantine log",
            ).inc(gate.dropped_total)
            tel.counter(
                "validate.repaired_total",
                "invalid records clamped and kept (repair policy)",
            ).inc(gate.repaired_total)
            for reason, count in sorted(self.quarantine.counts.items()):
                tel.counter(
                    f"validate.quarantined.{reason}_total",
                    f"records flagged as {reason}",
                ).inc(count)
                tel.trace.data(
                    "quarantine", "validate", index=reason, records=count
                )
            if record_faults is not None:
                planted = record_faults.planted
                tel.counter(
                    "faults.records_planted_total",
                    "records dirtied by the dirty-data fault injector",
                ).inc(sum(planted.values()))
                for kind_value, count in sorted(planted.items()):
                    tel.counter(
                        f"faults.records.{kind_value}_total",
                        f"records dirtied as {kind_value}",
                    ).inc(count)

            if load_schedule is not None:
                # The schedule is global and identical in every shard,
                # so max-merged gauges survive shard merging unchanged.
                summary = load_schedule.summary
                frontends = summary["frontends"]
                tel.gauge(
                    "load.peak_utilization",
                    "highest per-front-end utilization over the run",
                    merge="max",
                ).set(
                    max(
                        row["peak_utilization"]
                        for row in frontends.values()
                    )
                    if frontends
                    else 0.0
                )
                tel.gauge(
                    "load.peak_shed_fraction",
                    "highest per-front-end shed fraction over the run",
                    merge="max",
                ).set(
                    max(
                        row["peak_shed_fraction"]
                        for row in frontends.values()
                    )
                    if frontends
                    else 0.0
                )
                withdrawn_rows = sorted(
                    (frontend_id, row["withdrawn_day"])
                    for frontend_id, row in frontends.items()
                    if row["withdrawn_day"] is not None
                )
                tel.gauge(
                    "load.withdrawn_frontends",
                    "front-ends withdrawn (failed or cascaded) by "
                    "the end of the run",
                    merge="max",
                ).set(float(len(withdrawn_rows)))
                for frontend_id, withdrawn_day in withdrawn_rows:
                    tel.trace.instant(
                        "load.withdrawn",
                        "load",
                        frontend=frontend_id,
                        day=withdrawn_day,
                    )

            # Memory accounting: lifetime peak RSS (max-merged across
            # shards) plus sketch-compression counters when the bounded
            # mode is on.
            tel.gauge(
                "campaign.peak_rss_bytes",
                "OS-reported peak resident set of the campaign process",
                merge="max",
            ).set(float(peak_rss_bytes()))
            if cfg.sketch_threshold is not None:
                (
                    exact_digests,
                    sketch_digests,
                    sketch_buckets,
                    sketch_samples,
                    sketch_halvings,
                ) = ecs_aggregates.sketch_stats()
                diff_sketches, diff_buckets, diff_samples, diff_halvings = (
                    request_diffs.sketch_stats()
                )
                tel.counter(
                    "sketch.digests_exact_total",
                    "latency digests still below the sketch threshold",
                ).inc(exact_digests)
                tel.counter(
                    "sketch.digests_promoted_total",
                    "latency digests promoted to bounded sketches",
                ).inc(sketch_digests)
                tel.counter(
                    "sketch.buckets_total",
                    "sketch buckets held across all promoted digests "
                    "and diff sketches",
                ).inc(sketch_buckets + diff_buckets)
                tel.counter(
                    "sketch.samples_compressed_total",
                    "samples represented by sketches instead of raw "
                    "retention",
                ).inc(sketch_samples + diff_samples)
                tel.counter(
                    "sketch.diff_sketches_total",
                    "bounded (day, region) request-diff sketches",
                ).inc(diff_sketches)
                tel.counter(
                    "sketch.compressions_total",
                    "resolution halvings forced by the per-sketch "
                    "bucket cap",
                ).inc(sketch_halvings + diff_halvings)

        _log.info(
            "campaign complete",
            extra={
                "beacons": beacon_count,
                "measurements": backend.joined_count,
            },
        )
        covered = (
            (self._client_slice,)
            if self._client_slice is not None
            else None  # None -> full coverage
        )
        return StudyDataset(
            calendar=calendar,
            clients=scenario.clients,
            ecs_aggregates=ecs_aggregates,
            request_diffs=request_diffs,
            passive=passive,
            beacon_count=beacon_count,
            measurement_count=backend.joined_count,
            covered_ranges=covered,
            load_summary=(
                load_schedule.summary
                if load_schedule is not None
                else None
            ),
        )
