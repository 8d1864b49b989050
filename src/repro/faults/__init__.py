"""Fault injection and resilient-execution primitives.

Degraded and partial measurement is the normal operating mode of a
production anycast pipeline — front-ends drain, routes flap, log
shipments go missing (§6 of the paper; *Anycast Performance in Context*
treats partial data as the default case).  This package supplies the
chaos side of that story for the simulated pipeline:

* :class:`FaultPlan` / :class:`FaultSpec` / :class:`FaultKind` — a
  deterministic, seed-derived schedule of worker crashes, hangs,
  transient exceptions, corrupted shard payloads, and merge failures;
* :class:`CompiledFaultPlan` — the plan resolved to ``(shard, attempt)``
  firing points, identical across engines and worker counts;
* :class:`WorkerFaultInjector` and the ``Injected*Error`` family — the
  live injection sites the campaign runners call into;
* the dirty-data mode: ``record-*`` fault kinds (:data:`RECORD_KINDS`)
  compile via :meth:`FaultPlan.compile_records` to ``(day, client)``
  cells, and :class:`RecordFaultInjector` substitutes NaN / clock-skewed
  / truncated values into individual records so chaos tests can exercise
  the validation gate in :mod:`repro.measurement.validate`.

The resilient executor that rides through these faults (retries with
backoff, shard timeouts, checkpoint resume, graceful degradation) lives
in :mod:`repro.simulation.parallel`.
"""

from repro.faults.inject import (
    CLOCK_SKEW_STEP_MS,
    InjectedCrashError,
    InjectedFaultError,
    InjectedMergeError,
    InjectedTransientError,
    RecordFaultInjector,
    WorkerFaultInjector,
    corrupt_payload,
)
from repro.faults.plan import (
    DEFAULT_HANG_SECONDS,
    RECORD_KINDS,
    CompiledFaultPlan,
    CompiledRecordFaultPlan,
    FaultKind,
    FaultPlan,
    FaultSpec,
    record_faults,
)

__all__ = [
    "CLOCK_SKEW_STEP_MS",
    "DEFAULT_HANG_SECONDS",
    "RECORD_KINDS",
    "CompiledFaultPlan",
    "CompiledRecordFaultPlan",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedFaultError",
    "InjectedMergeError",
    "InjectedTransientError",
    "RecordFaultInjector",
    "WorkerFaultInjector",
    "corrupt_payload",
    "record_faults",
]
