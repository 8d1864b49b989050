"""Sharded parallel campaign execution, resilient to worker faults.

Production anycast CDNs shard their measurement pipelines the same way:
per-front-end (or per-prefix) local state, merged globally.  Here the
parallel axis is the client population — each worker process runs the
full calendar for one contiguous shard of /24s and returns a partial
:class:`repro.simulation.dataset.StudyDataset`, which the coordinator
merges.

Correctness rests on two properties established elsewhere:

* every random draw in :class:`repro.simulation.campaign.CampaignRunner`
  comes from an RNG derived per ``(client, day)`` (or finer), so a
  client's measurements do not depend on which shard runs it — this
  holds for every measurement engine (the batched engines' counter
  streams are keyed by (seed, day, client index) the same way), so the
  ``engine`` setting composes freely with ``workers``;
* all dataset sinks are mergeable, and
  :meth:`repro.simulation.dataset.StudyDataset.digest` is canonical, so
  ``serial ≡ parallel ≡ reordered`` is testable bit-for-bit within
  any engine.

**Resilience.**  The coordinator treats every shard attempt as
disposable: a crash, hang (when ``shard_timeout`` is set), transient
exception, or corrupted payload fails the attempt, and the shard is
retried with exponential backoff up to ``max_retries`` times.  Because
each retry re-derives the exact same RNG streams, a campaign that
survives faults via retries produces a dataset *bit-identical* to the
fault-free run.  Completed shards can be spilled as checkpoints
(``checkpoint_dir``) and reused on resume; a shard that exhausts its
retries either raises :class:`repro.errors.ShardFailureError` or — with
``allow_partial`` — is dropped, leaving a partial dataset whose
:meth:`~repro.simulation.dataset.StudyDataset.missing_ranges` names the
gap.  Every shard payload crosses the process boundary inside an
integrity envelope (SHA-256 over the columnar transport bytes of
:mod:`repro.simulation.transport` — raw sample/sketch buffers plus a
small manifest, shipped via shared memory where available), so
corruption in transit is detected rather than merged.

Workers rebuild the scenario from its :class:`ScenarioConfig` — scenario
construction is cheap relative to a multi-day campaign and avoids
pickling the whole routed topology.  For small populations the rebuild
plus process startup dominates; parallelism pays off from roughly a
thousand client /24s per worker upward.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import queue as queue_module
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    FaultError,
    ShardFailureError,
    ValidationError,
)
from repro.faults import (
    CompiledFaultPlan,
    FaultKind,
    InjectedMergeError,
    WorkerFaultInjector,
)
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.measurement.validate import QuarantineLog
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignProgress,
    CampaignRunner,
    CampaignStats,
)
from repro.simulation.checkpoint import (
    load_shard_checkpoint,
    write_shard_checkpoint,
)
from repro.simulation.dataset import StudyDataset
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.simulation.transport import (
    HAVE_SHARED_MEMORY,
    decode_shard_payload,
    encode_shard_payload,
    receive_payload,
    release_payload,
    ship_payload,
)
from repro.identity import resolve, run_context
from repro.telemetry import RunContext, Telemetry, get_logger

_log = get_logger("parallel")

#: Fork keeps worker startup cheap where available (Linux); elsewhere
#: fall back to spawn, which re-imports this module in each worker.
_START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else "spawn"
)

#: Coordinator poll interval while shard attempts are in flight.
_POLL_SECONDS = 0.01


def shard_bounds(population: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal half-open index ranges covering a population.

    The first ``population % shards`` shards get one extra client, so any
    two shards differ in size by at most one.  ``shards`` is clamped to
    ``population`` — callers must size their worker pool off the
    *returned* list, not the requested count.

    Raises:
        ConfigurationError: if ``shards`` < 1 or ``population`` < 1.
    """
    if population < 1:
        raise ConfigurationError("population must be >= 1")
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    shards = min(shards, population)
    base, extra = divmod(population, shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclasses.dataclass(frozen=True)
class _ShardTask:
    """Everything one shard attempt needs to run in a worker process.

    ``heartbeats`` is an optional queue (a ``multiprocessing.Manager``
    proxy for worker processes, a plain queue in-process) the worker
    posts its ``(shard_index, CampaignProgress)`` rows into; absent when
    no progress listener is configured, so quiet runs pay no Manager
    cost.  ``context`` is the coordinator's run context: shards report
    its identity instead of deriving one from their own config.
    """

    scenario_config: ScenarioConfig
    campaign_config: CampaignConfig
    context: RunContext
    start: int
    stop: int
    shard_index: int
    attempt: int
    fault_kind: Optional[FaultKind]
    hang_seconds: float
    use_shm: bool = False
    heartbeats: Optional[object] = None


@dataclasses.dataclass(frozen=True)
class _ShardEnvelope:
    """A shard result in transit: columnar payload plus integrity hash.

    The payload is the columnar encoding of
    :func:`repro.simulation.transport.encode_shard_payload` — raw
    sample/sketch buffers plus a pickled manifest, never the client
    population.  It travels either inline (``payload``) or through a
    shared-memory block (``shm_name``); ``payload_size`` is the exact
    byte length either way.  The hash is computed over the encoded
    bytes *before* any (injected or organic) corruption, so the
    coordinator verifies content integrity end to end instead of
    trusting the transport.
    """

    shard_index: int
    attempt: int
    payload: bytes
    sha256: str
    shm_name: Optional[str] = None
    payload_size: int = 0


def _run_shard(task: _ShardTask) -> _ShardEnvelope:
    """Worker entry point: rebuild the scenario, run one client shard.

    The worker's telemetry crosses the process boundary inside the
    envelope as a snapshot (the live :class:`Telemetry` holds
    unpicklable state); the coordinator absorbs the snapshots
    order-insensitively.  The task's scheduled fault (if any) fires at
    its site: crash before any work, transient exception at a derived
    day, hang after the work, payload corruption on the way out.
    """
    injector = WorkerFaultInjector(
        task.fault_kind,
        seed=task.scenario_config.seed,
        shard_index=task.shard_index,
        attempt=task.attempt,
        hang_seconds=task.hang_seconds,
    )
    # Crash before the (comparatively expensive) scenario rebuild — a
    # worker that dies on arrival does no work at all.
    injector.on_worker_start()
    telemetry = Telemetry(task.context)
    # Trace events this worker emits land on its own shard lane,
    # stamped with the attempt so retries are distinguishable.
    telemetry.trace.lane = task.shard_index
    telemetry.trace.attempt = task.attempt
    config = task.campaign_config
    if task.heartbeats is not None:
        channel = task.heartbeats

        def post(progress: CampaignProgress) -> None:
            try:
                channel.put((task.shard_index, progress))
            except Exception:
                # Progress is best-effort; a torn Manager connection
                # (e.g. coordinator tearing down) must not fail the
                # shard's real work.
                pass

        config = dataclasses.replace(config, progress_listener=post)
    # The rebuild is real per-worker work; timing it keeps the merged
    # phase tree honest about where the sharded run's seconds go.
    with telemetry.span("scenario_build"):
        scenario = Scenario.build(task.scenario_config)
    runner = CampaignRunner(
        scenario,
        config,
        client_slice=(task.start, task.stop),
        telemetry=telemetry,
        fault_injector=injector,
    )
    dataset = runner.run()
    payload = encode_shard_payload(
        dataset, runner.telemetry.snapshot(), runner.quarantine
    )
    sha256 = hashlib.sha256(payload).hexdigest()
    # Corruption (injected here, organic anywhere) lands on the encoded
    # bytes before they are placed, so the integrity check sees it
    # regardless of whether the bytes travel inline or via shared memory.
    payload = injector.transform_payload(payload)
    inline, shm_name = ship_payload(payload, use_shm=task.use_shm)
    return _ShardEnvelope(
        shard_index=task.shard_index,
        attempt=task.attempt,
        payload=inline,
        sha256=sha256,
        shm_name=shm_name,
        payload_size=len(payload),
    )


class _InlineResult:
    """An already-evaluated stand-in for :class:`AsyncResult`."""

    def __init__(self, task: _ShardTask) -> None:
        self._error: Optional[BaseException] = None
        self._envelope: Optional[_ShardEnvelope] = None
        try:
            self._envelope = _run_shard(task)
        except Exception as error:
            self._error = error

    def ready(self) -> bool:
        """Always true — the work ran synchronously at submit time."""
        return True

    def get(self) -> _ShardEnvelope:
        """The envelope, or re-raise the worker's exception."""
        if self._error is not None:
            raise self._error
        assert self._envelope is not None
        return self._envelope


class _InlinePool:
    """A single-process pool: shard attempts run in the coordinator.

    Gives the resilient coordinator one code path for both execution
    modes.  Timeouts cannot preempt an in-process attempt (``ready()``
    is immediately true), which is the documented ``shard_timeout``
    limitation for single-worker runs.
    """

    def apply_async(self, func, args) -> _InlineResult:
        """Run the task immediately; mirror ``Pool.apply_async``."""
        assert func is _run_shard
        (task,) = args
        return _InlineResult(task)

    def __enter__(self) -> "_InlinePool":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: Minimum seconds between beacon-only ``progress_listener`` updates
#: while the coordinator aggregates shard progress (a newly completed
#: day and the final emission are never throttled).
_PROGRESS_EMIT_SECONDS = 0.2


class _ProgressAggregator:
    """Folds shard workers' progress into the campaign's listener.

    The listener keeps its serial contract under sharding: a day is
    reported once it is complete across *every* shard (the minimum of
    per-shard completed days), days 1..N in order, never throttled.
    Retried attempts replay earlier days; the per-shard maximum keeps
    reported progress monotone, so replays never move it backwards.  In
    between, rows repeating the current day refresh beacon totals,
    shard completion, and retry counts at most every
    ``_PROGRESS_EMIT_SECONDS``.
    """

    def __init__(
        self,
        listener: Optional[Callable[[CampaignProgress], None]],
        shards: int,
        num_days: int,
        run_start: float,
    ) -> None:
        self._listener = listener
        self._shards = shards
        self._num_days = num_days
        self._run_start = run_start
        self._days_done: Dict[int, int] = {}
        self._beacons: Dict[int, int] = {}
        self._complete: Set[int] = set()
        self._retries = 0
        self._reported = 0
        self._last_emit = float("-inf")

    def observe(self, shard: int, progress: CampaignProgress) -> None:
        """Fold in one row a shard worker's own listener posted."""
        self._days_done[shard] = max(
            self._days_done.get(shard, 0), progress.days_completed
        )
        self._beacons[shard] = max(
            self._beacons.get(shard, 0), progress.beacons
        )
        self._advance()

    def mark_complete(self, shard: int) -> None:
        """A shard's data has merged (run, resumed, or checkpointed)."""
        self._complete.add(shard)
        self._days_done[shard] = self._num_days
        self._advance()

    def note_retry(self) -> None:
        self._retries += 1

    def finish(self) -> None:
        """Report any remaining days and emit the final observation.

        Called on normal coordinator exit only: the run is over, so the
        day sequence completes even if trailing rows were lost.
        """
        for shard in range(self._shards):
            self._days_done[shard] = self._num_days
        self._advance(force=True)

    def _advance(self, force: bool = False) -> None:
        if self._listener is None:
            return
        floor = min(
            self._days_done.get(shard, 0) for shard in range(self._shards)
        )
        now = time.perf_counter()
        if floor > self._reported:
            for days in range(self._reported + 1, floor + 1):
                self._emit(days, now)
            self._reported = floor
        elif floor and (
            force or now - self._last_emit >= _PROGRESS_EMIT_SECONDS
        ):
            self._emit(floor, now)

    def _emit(self, days_completed: int, now: float) -> None:
        self._last_emit = now
        elapsed = now - self._run_start
        beacons = sum(self._beacons.values())
        self._listener(
            CampaignProgress(
                days_completed=days_completed,
                num_days=self._num_days,
                beacons=beacons,
                beacons_per_second=(
                    beacons / elapsed if elapsed > 0 else 0.0
                ),
                elapsed_seconds=elapsed,
                shards_done=len(self._complete),
                shards_total=self._shards,
                retries=self._retries,
            )
        )


class ParallelCampaignRunner:
    """Runs a campaign sharded across worker processes, riding out faults.

    Drop-in equivalent of :class:`CampaignRunner` — same constructor
    shape, same :meth:`run` contract, same :attr:`stats` afterwards — but
    the client population is partitioned into contiguous shards executed
    by worker processes and merged.  Results are bit-identical to a
    serial run (same :meth:`StudyDataset.digest`), including runs that
    recover from injected or organic shard failures via retries.

    The worker pool is sized off the *clamped* shard count
    (:func:`shard_bounds` caps shards at the population), so requesting
    more workers than clients never spawns idle processes; the resolved
    count is exported as the ``campaign.effective_workers`` gauge.

    Args:
        scenario: The built study environment.
        config: Campaign knobs.  ``progress_listener`` is honored for
            sharded runs: each worker's own listener posts its rows
            through a queue, and the coordinator aggregates them — each
            day is reported once it is complete across *all* shards, in
            day order, exactly like a serial run.  The resilience knobs — ``fault_plan``, ``max_retries``,
            ``shard_timeout``, ``allow_partial``, ``checkpoint_dir``,
            ``resume`` — are honored here; see :class:`CampaignConfig`.
        workers: Worker-process count; ``None`` resolves
            ``config.workers``, then ``scenario.config.workers``.  A
            resolved count of 1 runs serially in-process (still with
            retries/checkpoints when those are configured).

    After :meth:`run`, :attr:`fired_faults` lists the fault-plan firing
    points that were reached, as sorted ``(shard, attempt, kind)``
    tuples — identical across engines and worker counts for a fixed
    ``(seed, shard count)``.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[CampaignConfig] = None,
        workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._scenario = scenario
        self._config = resolve(config or CampaignConfig(), scenario.config)
        if workers is None:
            workers = self._config.workers
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        # Shards first, workers second: the pool never outnumbers the
        # (population-clamped) shard list it serves.
        self._bounds = shard_bounds(len(scenario.clients), workers)
        self._workers = min(workers, len(self._bounds))
        # Computed once: shards report this context, and its config_hash
        # is the identity shard checkpoints are written and resumed under.
        self._context = run_context(
            scenario.config, self._config, workers=self._workers
        )
        self.telemetry = telemetry or Telemetry(self._context)
        self.stats: Optional[CampaignStats] = None
        self.fired_faults: Tuple[Tuple[int, int, str], ...] = ()
        #: Merged quarantine accounting across all shards (or the single
        #: in-process run).  Deterministic: identical to a serial run's.
        self.quarantine = QuarantineLog()

    @property
    def workers(self) -> int:
        """The resolved worker count (clamped to the shard count)."""
        return self._workers

    @property
    def shards(self) -> int:
        """How many client shards the campaign splits into."""
        return len(self._bounds)

    def _needs_resilience(self) -> bool:
        cfg = self._config
        return cfg.fault_plan is not None or cfg.checkpoint_dir is not None

    def run(self) -> StudyDataset:
        """Execute the campaign and return the merged dataset.

        Raises:
            ShardFailureError: when a shard exhausts its retries and the
                campaign was not configured with ``allow_partial``.
        """
        tel = self.telemetry
        tel.gauge(
            "campaign.effective_workers",
            "worker processes actually used (clamped to shard count)",
        ).set(self._workers)
        tel.gauge(
            "campaign.shards", "client shards the campaign split into"
        ).set(len(self._bounds))

        if self._workers == 1 and not self._needs_resilience():
            runner = CampaignRunner(
                self._scenario, self._config, telemetry=tel
            )
            dataset = runner.run()
            self.stats = runner.stats
            self.quarantine = runner.quarantine
            self._set_coverage_gauge(dataset)
            return dataset

        dataset = self._run_resilient()
        self._set_coverage_gauge(dataset)
        return dataset

    def _set_coverage_gauge(self, dataset: StudyDataset) -> None:
        """Export the degradation gauge: fraction of clients measured."""
        self.telemetry.gauge(
            "campaign.client_coverage",
            "fraction of the client population with measurements",
            merge="min",
        ).set(dataset.coverage_fraction)

    # ------------------------------------------------------------------
    # Resilient coordinator
    # ------------------------------------------------------------------

    def _run_resilient(self) -> StudyDataset:
        run_start = time.perf_counter()
        scenario = self._scenario
        cfg = self._config
        tel = self.telemetry
        seed = scenario.config.seed
        bounds = self._bounds
        # Workers receive no *worker*-fault plan: the coordinator compiles
        # it once and hands each attempt its own (possibly absent) fault,
        # so the plan cannot double-fire through CampaignRunner's
        # self-compile.  Record (dirty-data) faults do travel with the
        # workers — each shard dirties its own slice of the population-
        # derived (day, client) grid.
        worker_config = dataclasses.replace(
            cfg,
            progress_listener=None,
            workers=None,
            fault_plan=(
                cfg.fault_plan.record_only()
                if cfg.fault_plan is not None
                else None
            ),
            checkpoint_dir=None,
            resume=False,
        )
        checkpoint_hash = self._context.config_hash
        compiled: Optional[CompiledFaultPlan] = (
            cfg.fault_plan.compile(seed, len(bounds))
            if cfg.fault_plan is not None
            else None
        )

        retries_counter = tel.counter(
            "shard.retries_total", "shard attempts re-dispatched after failure"
        )
        failures_counter = tel.counter(
            "shard.failures_total",
            "failed shard attempts (crash, timeout, corruption, merge)",
        )
        injected_counter = tel.counter(
            "faults.injected_total", "fault-plan firing points reached"
        )

        merged: Optional[StudyDataset] = None
        fired: List[Tuple[int, int, str]] = []
        missing: List[int] = []
        last_error: Dict[int, str] = {}
        pending: Set[int] = set(range(len(bounds)))
        progress = _ProgressAggregator(
            cfg.progress_listener,
            len(bounds),
            scenario.calendar.num_days,
            run_start,
        )
        # Start timestamps of in-flight attempts, for the per-attempt
        # trace slices rendered on each shard's lane.
        dispatch_ts: Dict[Tuple[int, int], int] = {}

        # Resume: reuse intact, matching shard checkpoints.
        if cfg.resume and cfg.checkpoint_dir is not None:
            for index in sorted(pending):
                try:
                    loaded = load_shard_checkpoint(
                        cfg.checkpoint_dir, index, bounds[index],
                        seed=seed, config_hash=checkpoint_hash,
                        clients=scenario.clients,
                    )
                except CheckpointError as error:
                    tel.counter(
                        "checkpoint.invalid_total",
                        "checkpoints rejected by integrity checks",
                    ).inc()
                    tel.trace.instant(
                        "checkpoint.invalid", "checkpoint", shard=index
                    )
                    _log.warning(
                        "checkpoint rejected",
                        extra={"shard": index, "error": str(error)},
                    )
                    continue
                if loaded is None:
                    continue
                tel.counter(
                    "checkpoint.loaded_total",
                    "shards restored from checkpoints instead of re-run",
                ).inc()
                tel.trace.instant(
                    "checkpoint.loaded", "checkpoint", shard=index
                )
                restored, restored_quarantine = loaded
                merged = (
                    restored if merged is None else merged.merge(restored)
                )
                self.quarantine.merge(restored_quarantine)
                pending.discard(index)
                progress.mark_complete(index)

        _log.info(
            "dispatching shards",
            extra={
                "shards": len(bounds),
                "resumed": len(bounds) - len(pending),
                "workers": self._workers,
                "start_method": _START_METHOD,
                "fault_plan": (
                    cfg.fault_plan.spec_string() if cfg.fault_plan else None
                ),
            },
        )

        context = multiprocessing.get_context(_START_METHOD)
        # The heartbeat channel exists only when a progress listener asked
        # for it: worker processes need a picklable Manager queue proxy,
        # which costs an extra process — quiet runs skip it entirely.
        manager = None
        heartbeat_channel = None
        if cfg.progress_listener is not None:
            if self._workers == 1:
                heartbeat_channel = queue_module.SimpleQueue()
            else:
                manager = context.Manager()
                heartbeat_channel = manager.Queue()

        def drain_heartbeats() -> None:
            if heartbeat_channel is None:
                return
            while True:
                try:
                    shard, row = heartbeat_channel.get_nowait()
                except (queue_module.Empty, OSError, EOFError):
                    return
                progress.observe(shard, row)

        pool = (
            _InlinePool()
            if self._workers == 1
            else context.Pool(processes=self._workers)
        )
        # Worker-process shards ship large payloads via shared memory;
        # an in-process pool hands the envelope straight back, so the
        # extra copy would be pure overhead.
        use_shm = self._workers > 1 and HAVE_SHARED_MEMORY
        with pool:
            inflight: Dict[Tuple[int, int], Tuple[object, Optional[float]]] = {}
            retry_queue: List[Tuple[float, int, int]] = []
            # Timed-out attempts whose workers may still complete and
            # leave a shared-memory block behind; polled so their blocks
            # are released instead of leaked.
            abandoned: List[object] = []

            def sweep_abandoned() -> None:
                for stale in list(abandoned):
                    if not stale.ready():  # type: ignore[attr-defined]
                        continue
                    abandoned.remove(stale)
                    try:
                        envelope = stale.get()  # type: ignore[attr-defined]
                    except Exception:
                        continue
                    release_payload(envelope.shm_name)

            def dispatch(shard: int, attempt: int) -> None:
                kind = (
                    compiled.fault_for(shard, attempt)
                    if compiled is not None
                    else None
                )
                if kind is not None:
                    # Firing points are deterministic per (seed, shards),
                    # so counting at dispatch keeps the accounting exact
                    # even for faults that destroy the worker's telemetry.
                    fired.append((shard, attempt, kind.value))
                    injected_counter.inc()
                    tel.counter(
                        f"faults.injected.{kind.value}_total",
                        f"{kind.value} faults fired by the plan",
                    ).inc()
                    tel.trace.instant(
                        "fault.injected",
                        "fault",
                        shard=shard,
                        attempt=attempt,
                        kind=kind.value,
                    )
                dispatch_ts[(shard, attempt)] = tel.trace.now_us()
                tel.trace.instant(
                    "shard.dispatch", "scheduler", shard=shard, attempt=attempt
                )
                start, stop = bounds[shard]
                task = _ShardTask(
                    scenario_config=scenario.config,
                    campaign_config=worker_config,
                    context=self._context,
                    start=start,
                    stop=stop,
                    shard_index=shard,
                    attempt=attempt,
                    fault_kind=kind,
                    hang_seconds=(
                        compiled.hang_seconds if compiled is not None else 0.0
                    ),
                    use_shm=use_shm,
                    heartbeats=heartbeat_channel,
                )
                deadline = (
                    time.monotonic() + cfg.shard_timeout
                    if cfg.shard_timeout is not None
                    else None
                )
                inflight[(shard, attempt)] = (
                    pool.apply_async(_run_shard, (task,)),
                    deadline,
                )

            def on_failure(shard: int, attempt: int, error: Exception) -> None:
                nonlocal merged
                failures_counter.inc()
                last_error[shard] = f"{type(error).__name__}: {error}"
                started = dispatch_ts.pop((shard, attempt), None)
                now_us = tel.trace.now_us()
                if started is not None:
                    tel.trace.complete(
                        "shard.attempt",
                        "shard",
                        ts_us=started,
                        dur_us=now_us - started,
                        shard=shard,
                        attempt=attempt,
                        status="failed",
                        error=type(error).__name__,
                    )
                _log.warning(
                    "shard attempt failed",
                    extra={
                        "shard": shard,
                        "attempt": attempt,
                        "error": last_error[shard],
                    },
                )
                if isinstance(error, (ConfigurationError, ValidationError)):
                    # Deterministic failures — misconfiguration, or an
                    # invalid record under the strict policy — fail every
                    # retry identically; surface them instead of burning
                    # budget.
                    raise error
                if attempt < cfg.max_retries:
                    retries_counter.inc()
                    progress.note_retry()
                    backoff = cfg.retry_backoff_seconds * (2 ** attempt)
                    tel.trace.instant(
                        "shard.retry",
                        "scheduler",
                        shard=shard,
                        attempt=attempt + 1,
                        backoff_seconds=backoff,
                    )
                    retry_queue.append(
                        (time.monotonic() + backoff, shard, attempt + 1)
                    )
                    return
                attempts = attempt + 1
                if cfg.allow_partial:
                    missing.append(shard)
                    pending.discard(shard)
                    tel.trace.instant(
                        "shard.dropped",
                        "scheduler",
                        shard=shard,
                        attempt=attempt,
                        attempts=attempts,
                    )
                    _log.warning(
                        "shard dropped after exhausting retries",
                        extra={"shard": shard, "attempts": attempts},
                    )
                    return
                start, stop = bounds[shard]
                raise ShardFailureError(
                    f"shard {shard} (clients [{start}, {stop})) failed after "
                    f"{attempts} attempts; last error: {last_error[shard]}",
                    shard_index=shard,
                    attempts=attempts,
                    client_range=(start, stop),
                ) from error

            def on_ready(shard: int, attempt: int, async_result) -> None:
                nonlocal merged
                try:
                    envelope = async_result.get()
                    payload = receive_payload(
                        envelope.payload,
                        envelope.shm_name,
                        envelope.payload_size,
                    )
                    actual = hashlib.sha256(payload).hexdigest()
                    if actual != envelope.sha256:
                        raise FaultError(
                            f"shard {shard} attempt {attempt}: payload "
                            "integrity check failed (content hash mismatch)"
                        )
                    shard_dataset, shard_snapshot, shard_quarantine = (
                        decode_shard_payload(payload, scenario.clients)
                    )
                    if (
                        compiled is not None
                        and compiled.fault_for(shard, attempt)
                        is FaultKind.MERGE
                    ):
                        raise InjectedMergeError(
                            f"injected merge failure (shard {shard} "
                            f"attempt {attempt})"
                        )
                except Exception as error:
                    on_failure(shard, attempt, error)
                    return
                if cfg.checkpoint_dir is not None:
                    # Spill the bytes just verified against the worker's
                    # envelope hash: the checkpoint stores exactly what
                    # this merge consumes.
                    write_shard_checkpoint(
                        cfg.checkpoint_dir, shard, bounds[shard],
                        payload, shard_dataset.digest(),
                        seed=seed, config_hash=checkpoint_hash,
                    )
                    tel.counter(
                        "checkpoint.saved_total",
                        "completed shards spilled as checkpoints",
                    ).inc()
                    tel.trace.instant(
                        "checkpoint.saved",
                        "checkpoint",
                        shard=shard,
                        attempt=attempt,
                    )
                started = dispatch_ts.pop((shard, attempt), None)
                if started is not None:
                    tel.trace.complete(
                        "shard.attempt",
                        "shard",
                        ts_us=started,
                        dur_us=tel.trace.now_us() - started,
                        shard=shard,
                        attempt=attempt,
                        status="ok",
                    )
                tel.absorb(shard_snapshot)
                self.quarantine.merge(shard_quarantine)
                merged = (
                    shard_dataset
                    if merged is None
                    else merged.merge(shard_dataset)
                )
                pending.discard(shard)
                progress.mark_complete(shard)

            for shard in sorted(pending):
                dispatch(shard, 0)

            while inflight or retry_queue:
                drain_heartbeats()
                now = time.monotonic()
                for entry in list(retry_queue):
                    ready_time, shard, attempt = entry
                    if now >= ready_time:
                        retry_queue.remove(entry)
                        dispatch(shard, attempt)
                progressed = False
                for key in list(inflight):
                    shard, attempt = key
                    async_result, deadline = inflight[key]
                    if async_result.ready():
                        del inflight[key]
                        on_ready(shard, attempt, async_result)
                        progressed = True
                    elif deadline is not None and now > deadline:
                        # The attempt is declared hung; any result it
                        # eventually produces is stale — kept only so
                        # its shared-memory block can be released.
                        del inflight[key]
                        abandoned.append(async_result)
                        on_failure(
                            shard,
                            attempt,
                            FaultError(
                                f"shard {shard} attempt {attempt} exceeded "
                                f"shard_timeout of {cfg.shard_timeout}s"
                            ),
                        )
                        progressed = True
                sweep_abandoned()
                if not progressed and (inflight or retry_queue):
                    time.sleep(_POLL_SECONDS)
            drain_heartbeats()
            sweep_abandoned()
        progress.finish()
        if manager is not None:
            manager.shutdown()

        if merged is None:
            # Every shard was lost (allow_partial): an empty dataset that
            # honestly reports zero coverage.
            bounded = cfg.sketch_threshold is not None
            merged = StudyDataset(
                calendar=scenario.calendar,
                clients=scenario.clients,
                ecs_aggregates=GroupedDailyAggregates(
                    "ecs",
                    exact_threshold=cfg.sketch_threshold,
                    relative_accuracy=cfg.sketch_accuracy,
                    max_buckets=cfg.sketch_max_buckets,
                ),
                request_diffs=RequestDiffLog(
                    bounded=bounded,
                    relative_accuracy=cfg.sketch_accuracy,
                    max_buckets=cfg.sketch_max_buckets,
                ),
                passive=PassiveLog(bounded=bounded),
                covered_ranges=(),
            )
        if missing:
            _log.warning(
                "campaign degraded to partial dataset",
                extra={
                    "missing_shards": sorted(missing),
                    "coverage": round(merged.coverage_fraction, 4),
                },
            )

        self.fired_faults = tuple(sorted(fired))
        tel.gauge(
            "campaign.wall_seconds",
            "campaign wall-clock (max across concurrent shards)",
        ).set(time.perf_counter() - run_start)
        # The shards' telemetry snapshots were absorbed above, so the
        # coordinator's registry already holds the merged numbers.
        self.stats = CampaignStats.from_snapshot(tel.snapshot())
        self.stats.workers = self._workers
        # Re-home the merged dataset on this process's client tuple (the
        # workers' rebuilt clients are equal by value, but analyses that
        # compare identity expect the coordinator's scenario objects).
        merged.clients = scenario.clients
        return merged


def run_campaign(
    scenario: Scenario,
    config: Optional[CampaignConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[StudyDataset, CampaignStats]:
    """Run a campaign with the configured worker count.

    Dispatches to :class:`ParallelCampaignRunner` (which runs serially
    in-process when the resolved worker count is 1) and returns both the
    dataset and the run's :class:`CampaignStats`.  Pass ``telemetry`` to
    collect the run's metrics/spans into a caller-owned registry.
    """
    runner = ParallelCampaignRunner(scenario, config, telemetry=telemetry)
    dataset = runner.run()
    assert runner.stats is not None
    return dataset, runner.stats
