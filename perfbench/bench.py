"""Workloads, input generation and measurement of the study benchmark.

``perfbench/run.py`` starts this file as a child process: once to write
a workload's input from the seed (``generate``), then once more, fresh,
to measure it (``measure``), so the input's time and memory stay out of
every metric.  ``record`` rewrites the recorded outputs that the output
checks compare against, for the seeds in ``RECORDED_SEEDS``::

    python3 perfbench/bench.py record [--tiny]

Run it from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.clients.population import ClientPopulationConfig
from repro.clients.workload import WorkloadConfig
from repro.core.predictor import HistoryBasedPredictor
from repro.core.study import AnycastStudy
from repro.measurement.columnar import sidecar_path, sidecar_stats
from repro.measurement.export import load_dataset, save_dataset
from repro.service.ingest import LiveService, ServiceConfig
from repro.service.replay import events_from_dataset
from repro.simulation.campaign import CampaignConfig
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import Telemetry, manifest_path_for, write_run_manifest

from layers import SpanLog

HERE = Path(__file__).resolve().parent
RECORDED_PATH = HERE / "recorded.json"

#: Client /24s x days per workload.  The paper's month (1500 x 28) takes
#: about 40 s to run and 7 s more to analyze, which the benchmark's run
#: budget cannot hold (see README.md); each shape keeps its workload's
#: layer mix and gives passes of 3-5 s.
SHAPES: Dict[str, Tuple[int, int]] = {
    "paper_study": (1500, 2),
    "sharded_sketch": (150, 3),
    "service_replay": (200, 7),
}

#: The self-test's shape for every workload.
TINY_SHAPE = (40, 2)

#: A run keeps starting rounds (one set-up, then one pass) until its
#: measuring time is used up, but never stops before this many.
MIN_ROUNDS = 3

#: full_report joins its sections with one blank line.
SECTION_BREAK = "\n\n"

EXACT = CampaignConfig(engine="matrix")
#: tools/memory_smoke.py's bounded campaign, sharded over two workers.
SKETCH = CampaignConfig(
    engine="matrix", sketch_threshold=32, sketch_max_buckets=32, workers=2
)

#: The workloads and metrics, with their units and directions.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Seeds whose outputs ``recorded.json`` holds: the default seed and one
#: unseen by anything tuned on it.
RECORDED_SEEDS = (2015, 2016)

#: The end-to-end metric and workloads each per-layer metric should move.
MOVES = {
    **dict.fromkeys(
        ("scenario.topology_s", "scenario.deployment_s", "scenario.bgp_s", "scenario.population_s"),
        "setup_s: paper_study, sharded_sketch",
    ),
    **dict.fromkeys(
        ("campaign.member_table_s", "campaign.workload_s", "campaign.passive_s",
         "campaign.beacons_s", "campaign.beacons", "campaign.measurements"),
        "pass_s: paper_study, sharded_sketch",
    ),
    **dict.fromkeys(("parallel.shards", "sketch.compressions"), "pass_s, peak_rss_mb: sharded_sketch"),
    **dict.fromkeys(
        ("parallel.attempts", "parallel.failures", "parallel.ok_ratio", "parallel.worker_busy_s",
         "parallel.coordinator_s", "parallel.merge_s", "parallel.shard_skew", "parallel.speedup"),
        "pass_s: sharded_sketch",
    ),
    **dict.fromkeys(
        ("export.save_s", "export.framed_s", "export.sidecar_s", "export.framed_mb", "export.sidecar_mb"),
        "pass_s: paper_study",
    ),
    **dict.fromkeys(
        ("export.load_s", "columnar.hits", "columnar.rebuilds", "columnar.fallbacks", "columnar.hit_ratio"),
        "pass_s: paper_study; setup_s: service_replay",
    ),
    "dataset.digest_s": "pass_s: paper_study; setup_s: service_replay",
    **dict.fromkeys(
        [f"analysis.fig{n}_s" for n in range(1, 10)] + ["analysis.side_s", "analysis.total_s"],
        "pass_s: paper_study",
    ),
    "service.events_build_s": "setup_s: service_replay",
    **dict.fromkeys(
        ("service.stream_s", "service.produce_s", "service.consume_s", "service.close_day_s",
         "service.checkpoint_s", "service.events", "service.admitted", "service.dropped",
         "service.late_drops", "service.days_closed", "service.checkpoints", "service.retries"),
        "pass_s: service_replay",
    ),
    **dict.fromkeys(("runtime.gc_s", "runtime.gc_collections"), "every timing metric: all workloads"),
    "trace.coverage": "none: gate, must be >= 0.95",
    "trace.overhead_s": "none: traced minus untraced pass",
}

#: Span names behind the per-layer time metrics.
SPAN_METRICS = {
    "scenario.topology_s": "scenario.topology",
    "scenario.deployment_s": "scenario.deployment",
    "scenario.bgp_s": "scenario.bgp",
    "scenario.population_s": "scenario.population",
    "export.save_s": "export.save",
    "export.framed_s": "export.framed",
    "export.sidecar_s": "export.sidecar",
    "export.load_s": "export.load",
    "dataset.digest_s": "dataset.digest",
    "parallel.merge_s": "parallel.merge",
    **{f"analysis.fig{n}_s": f"analysis.fig{n}" for n in range(1, 10)},
    "analysis.side_s": "analysis.side",
    "analysis.total_s": "analysis",
    "service.events_build_s": "service.events_build",
    "service.stream_s": "service.stream",
    "service.close_day_s": "service.close_day",
    "service.checkpoint_s": "service.checkpoint",
}

#: The traced run fails when child spans cover less than this share of
#: the passes, or of any span directly under a pass, over the traced run.
MIN_COVERAGE = 0.95


#: The host-speed probe's time on the host that end-to-end times are
#: scaled to, about its median on the 2-vCPU Xeon VM the benchmark was
#: tuned on.
REFERENCE_PROBE_S = 0.08


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def host_adjusted(seconds: List[float], probes: List[float]) -> float:
    """The median of ``seconds`` scaled to the reference host speed by
    the median of the probes timed among them.

    The shared host's speed drifts by half or more over minutes, and
    every unit of a run slows with it; the probes, timed between the
    units, slow alike.
    """
    return statistics.median(seconds) * REFERENCE_PROBE_S / statistics.median(probes)


def rss_kib() -> int:
    """This process's resident set size now (VmRSS), in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


def program_slices(trace, pattern: str) -> List[Tuple[str, float, float]]:
    """``(name, start, end)`` of a program trace log's duration slices
    whose names match ``pattern``, on the monotonic clock."""
    if trace is None:
        return []
    match = re.compile(pattern).fullmatch
    return [
        (event.name, trace.origin + event.ts_us / 1e6, trace.origin + (event.ts_us + event.dur_us) / 1e6)
        for event in trace.events
        if event.dur_us is not None and match(event.name)
    ]


#: Expected beacons per /24 per day, the same for every seed: at the
#: repository's defaults (exact workloads) and at tools/memory_smoke.py's
#: 2000 queries per /24 per day (sharded_sketch), seed 2015 gives about
#: these loads.
BEACONS_PER_PREFIX_DAY = {"exact": 50.0, "sketch": 5000.0}


def scenario_config(workload: str, seed: int, shape: Tuple[int, int]) -> ScenarioConfig:
    """The workload's scenario, before volume calibration."""
    prefixes, days = shape
    calendar = SimulationCalendar(num_days=days)
    if workload == "sharded_sketch":
        # tools/memory_smoke.py at its 300k-client size: 2000 queries
        # per /24 per day, with the beacon cap lifted above that load.
        # The load per /24 is near-uniform: with the default heavy tail
        # the two contiguous shards drew unequal work that changed with
        # the seed (3.2 s vs 5.4 s of worker time at seed 11), and the
        # pass timed which shard got the heaviest /24s.
        return ScenarioConfig(
            seed=seed,
            population=ClientPopulationConfig(
                prefix_count=prefixes,
                volume_median_queries=2000,
                volume_sigma=0.25,
                volume_metro_exponent=0.0,
            ),
            workload=WorkloadConfig(max_beacons_per_day=1_000_000),
            calendar=calendar,
            engine="matrix",
        )
    return ScenarioConfig(
        seed=seed,
        population=ClientPopulationConfig(prefix_count=prefixes),
        calendar=calendar,
        engine="matrix",
    )


def expected_beacons(scenario: Scenario, scale: float) -> float:
    """Expected beacons of a campaign with every /24's daily query
    volume multiplied by ``scale`` (WorkloadModel's means and caps)."""
    workload = scenario.workload_model.config
    queries = np.array([client.daily_queries for client in scenario.clients]) * scale
    total = 0.0
    for day in range(scenario.calendar.num_days):
        weekend = scenario.calendar.is_weekend(day)
        mean = queries * (workload.weekend_volume_factor if weekend else 1.0)
        beacons = np.minimum(mean * workload.beacon_fraction, workload.max_beacons_per_day)
        total += float(np.minimum(beacons, mean).sum())
    return total


def calibrated_config(workload: str, seed: int, shape: Tuple[int, int]) -> ScenarioConfig:
    """The workload's scenario with its query volume scaled so that
    every seed carries the same expected beacon load.

    Per-/24 query volume is lognormal and heavy-tailed.  Left alone, the
    beacon load of a fixed-size population swings by about 10% (capped,
    exact workloads) to 40% (uncapped, at memory-smoke volume) between seeds,
    and every timing swings with it.  Scaling the volume median scales
    each /24's volume by one factor and leaves every other draw alone.
    """
    config = scenario_config(workload, seed, shape)
    scenario = Scenario.build(config)
    kind = "sketch" if workload == "sharded_sketch" else "exact"
    target = BEACONS_PER_PREFIX_DAY[kind] * shape[0] * shape[1]
    low, high = 0.0, 1.0
    while expected_beacons(scenario, high) < target:
        low, high = high, high * 2
    for _ in range(60):
        middle = (low + high) / 2
        if expected_beacons(scenario, middle) < target:
            low = middle
        else:
            high = middle
    median = config.population.volume_median_queries * (low + high) / 2
    return dataclasses.replace(
        config,
        population=dataclasses.replace(config.population, volume_median_queries=median),
    )


def vectorized_dataset(scenario: Scenario, campaign: CampaignConfig):
    """The campaign run serially on the vectorized engine, which is
    bit-identical to the matrix engine by contract: an independent
    oracle for seeds with no recorded outputs."""
    config = dataclasses.replace(campaign, engine="vectorized", workers=1)
    return ParallelCampaignRunner(scenario, config).run()


def dataset_summary(dataset) -> Dict[str, Any]:
    return {
        "digest": dataset.digest(),
        "beacons": dataset.beacon_count,
        "measurements": dataset.measurement_count,
    }


class PrebuiltStudy(AnycastStudy):
    """An :class:`AnycastStudy` over a scenario built in set-up and,
    optionally, a dataset loaded from an export."""

    def __init__(self, scenario: Scenario, campaign=None, dataset=None) -> None:
        super().__init__(scenario.config, campaign=campaign)
        self._prebuilt = scenario
        self._loaded = dataset

    @property
    def scenario(self) -> Scenario:
        return self._prebuilt

    @property
    def dataset(self):
        if self._loaded is not None:
            return self._loaded
        return super().dataset


def sections_of(report: str) -> List[str]:
    return report.split(SECTION_BREAK)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_recorded(workload: str, shape: Tuple[int, int], seed: int) -> Optional[Dict[str, Any]]:
    recorded = json.loads(RECORDED_PATH.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(f"{shape[0]}x{shape[1]}", {}).get(str(seed))


class Clock:
    seconds = 0.0


class Workload:
    """One seeded workload: set-up, timed pass, and output checks.

    ``setup`` and ``timed_pass`` time exactly the region a user waits
    for; ``summarize`` reduces a pass's product to the small record the
    checks compare, outside the timing.
    """

    name = ""
    #: Whether set-up builds the scenario (and so needs its config).
    builds_scenario = True

    def __init__(self, seed: int, shape: Tuple[int, int], input_dir: Path, work_dir: Path) -> None:
        self.seed = seed
        self.shape = shape
        self.input_dir = input_dir
        self.work_dir = work_dir
        if self.builds_scenario:
            self.config = calibrated_config(self.name, seed, shape)
        self.recorded = load_recorded(self.name, shape, seed)
        self.tracer: Optional[SpanLog] = None
        self.summaries: List[Dict[str, Any]] = []
        self.notes: List[str] = []
        #: Rounds that raised: each is a failed operation.
        self.errors = 0

    # -- tracing helpers ------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def record(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.record(name, value)

    def adopt(self, parent: str, trace, pattern: str) -> None:
        """Add the program's trace slices matching ``pattern`` as the
        children of the benchmark span ``parent`` in the last unit."""
        if self.tracer is not None:
            self.tracer.adopt(parent, program_slices(trace, pattern))

    @contextmanager
    def timed(self, kind: str) -> Iterator[Clock]:
        clock = Clock()
        before = sidecar_stats()
        unit = self.tracer.unit(kind) if self.tracer is not None else nullcontext()
        with unit:
            start = time.perf_counter()
            yield clock
            clock.seconds = time.perf_counter() - start
        after = sidecar_stats()
        delta = {key: after[key] - before[key] for key in after}
        loads = delta["sidecar_hits"] + delta["sidecar_fallbacks"]
        if loads:
            self.record("columnar.hits", delta["sidecar_hits"])
            self.record("columnar.rebuilds", delta["sidecar_rebuilds"])
            self.record("columnar.fallbacks", delta["sidecar_fallbacks"])
            self.record("columnar.hit_ratio", delta["sidecar_hits"] / loads)

    def record_campaign(self, snapshot) -> None:
        """Per-layer values from the program's own campaign telemetry."""
        spans = snapshot.spans

        def seconds(path: str) -> float:
            record = spans.get(path)
            return record.seconds if record is not None else 0.0

        self.record("campaign.member_table_s", seconds("campaign/matrix-member-table"))
        self.record("campaign.workload_s", seconds("campaign/day/workload"))
        self.record("campaign.passive_s", seconds("campaign/day/passive"))
        self.record("campaign.beacons_s", seconds("campaign/day/beacons"))
        self.record("campaign.beacons", snapshot.counters.get("campaign.beacons_total", 0))
        self.record("campaign.measurements", snapshot.counters.get("campaign.measurements_total", 0))
        self.record("parallel.shards", snapshot.gauges.get("campaign.shards", {}).get("value", 0))
        attempts = [
            event.dur_us / 1e6
            for event in (snapshot.trace.events if snapshot.trace else ())
            if event.name == "shard.attempt"
        ]
        wall = snapshot.gauges.get("campaign.wall_seconds", {}).get("value", 0.0)
        failures = snapshot.counters.get("shard.failures_total", 0)
        self.record("parallel.attempts", len(attempts))
        self.record("parallel.failures", failures)
        self.record("parallel.worker_busy_s", sum(attempts))
        self.record("parallel.coordinator_s", wall - max(attempts) if attempts else 0.0)
        self.record("sketch.compressions", snapshot.counters.get("sketch.compressions_total", 0))
        if attempts:
            self.record("parallel.ok_ratio", (len(attempts) - failures) / len(attempts))
            self.record("parallel.shard_skew", max(attempts) / statistics.mean(attempts))

    # -- the workload ---------------------------------------------------

    def build_scenario(self) -> float:
        self.scenario = None
        with self.timed("setup") as clock:
            self.scenario = Scenario.build(self.config)
        return clock.seconds

    def setup(self) -> float:
        return self.build_scenario()

    def run_pass(self) -> float:
        seconds, product = self.timed_pass()
        self.summaries.append(self.summarize(product))
        return seconds

    def timed_pass(self) -> Tuple[float, Any]:
        raise NotImplementedError

    def summarize(self, product: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """(operations attempted, operations failed); notes say why."""
        raise NotImplementedError

    def traced_extras(self, untraced_pass_s: float) -> Dict[str, float]:
        """Run-level per-layer values measured outside the passes."""
        return {}

    def details(self, pass_s: float) -> Dict[str, float]:
        """Figures for the info line: throughput, memory split."""
        return {}

    def peak_rss_mb(self) -> float:
        """This process's peak RSS (ru_maxrss is KiB on Linux)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def note(self, message: str) -> None:
        self.notes.append(message)


class PaperStudy(Workload):
    """``repro run --engine matrix``, then ``repro analyze``: campaign,
    export and manifest, then the export loaded back and every section
    of the full report computed on it."""

    name = "paper_study"

    def run_and_save(self, path: str) -> Tuple[Dict[str, Any], Telemetry]:
        """The ``repro run`` half of a pass.  Its in-memory dataset is
        freed on return, as when ``repro analyze`` runs afterwards."""
        study = PrebuiltStudy(self.scenario, EXACT)
        with self.span("campaign"):
            dataset = study.dataset
        with self.span("export.save"):
            save_dataset(dataset, path)
        with self.span("manifest"):
            manifest = write_run_manifest(
                manifest_path_for(path),
                study.telemetry_snapshot(),
                dataset=dataset,
                extra={"artifact": path},
            )
        return manifest, study.telemetry

    def timed_pass(self) -> Tuple[float, Any]:
        path = str(self.work_dir / "paper_study.json")
        with self.timed("pass") as clock:
            manifest, telemetry = self.run_and_save(path)
            with self.span("export.load"):
                dataset = load_dataset(path)
            study = PrebuiltStudy(self.scenario, dataset=dataset)
            with self.span("analysis"):
                report = study.full_report()
        snapshot = telemetry.snapshot()
        self.adopt("campaign", snapshot.trace, r"campaign/[^/]+")
        self.adopt("analysis", study.telemetry_snapshot().trace, r"analysis/[^/]+")
        self.record_campaign(snapshot)
        self.record("export.framed_mb", os.path.getsize(path) / 2**20)
        self.record("export.sidecar_mb", os.path.getsize(sidecar_path(path)) / 2**20)
        self.export_path = path
        return clock.seconds, (manifest, report)

    def summarize(self, product: Any) -> Dict[str, Any]:
        manifest, report = product
        return {
            "run": {
                "digest": manifest["dataset_digest"],
                "beacons": manifest["dataset_beacon_count"],
                "measurements": manifest["dataset_measurement_count"],
            },
            "section_sha256": [sha256_text(section) for section in sections_of(report)],
        }

    def reference(self) -> Dict[str, Any]:
        """The recorded outputs or, for an unrecorded seed, those of the
        same campaign run serially on the vectorized engine (bit-identical
        to the matrix engine by contract) and its report in memory."""
        if self.recorded is not None:
            return self.recorded
        if not hasattr(self, "_reference"):
            dataset = vectorized_dataset(self.scenario, EXACT)
            report = PrebuiltStudy(self.scenario, dataset=dataset).full_report()
            self._reference = {
                **dataset_summary(dataset),
                "section_sha256": [sha256_text(section) for section in sections_of(report)],
            }
        return self._reference

    def check(self) -> Tuple[int, int]:
        reference = self.reference()
        run = {key: reference[key] for key in ("digest", "beacons", "measurements")}
        sections = reference["section_sha256"]
        attempted = failed = 0
        for index, summary in enumerate(self.summaries):
            attempted += 1 + len(sections)
            if summary["run"] != run:
                failed += 1
                self.note(f"pass {index}: manifest {summary['run']} != {run}")
            actual = summary["section_sha256"]
            for number, expected in enumerate(sections):
                if number >= len(actual) or actual[number] != expected:
                    failed += 1
                    self.note(f"pass {index}: report section {number} differs from the reference")
            if len(actual) > len(sections):
                failed += len(actual) - len(sections)
                self.note(f"pass {index}: {len(actual)} report sections, expected {len(sections)}")
        written = dataset_summary(load_dataset(self.export_path))
        attempted += 1
        if written != run:
            failed += 1
            self.note(f"export read back as {written} != {run}")
        return attempted, failed

    def details(self, pass_s: float) -> Dict[str, float]:
        return {"beacons_per_s": self.summaries[-1]["run"]["beacons"] / pass_s}


class ShardedSketch(Workload):
    """A bounded (sketch-mode) campaign sharded over two forked workers,
    through the merge."""

    name = "sharded_sketch"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        #: This process's RSS (KiB) at each fork, taken in the parent.
        self.fork_rss: List[int] = []
        os.register_at_fork(before=lambda: self.fork_rss.append(rss_kib()))
        #: What one worker of the first pass added to memory (KiB).
        self.worker_kib: Optional[int] = None

    def timed_pass(self) -> Tuple[float, Any]:
        with self.timed("pass") as clock:
            runner = ParallelCampaignRunner(self.scenario, SKETCH)
            with self.span("campaign"):
                dataset = runner.run()
        if self.worker_kib is None:
            self.worker_kib = self.first_worker_added()
        snapshot = runner.telemetry.snapshot()
        self.adopt("campaign", snapshot.trace, r"shard\.attempt")
        self.record_campaign(snapshot)
        return clock.seconds, (dataset, snapshot)

    def first_worker_added(self) -> int:
        """What one worker of the first pass adds to memory, as in a
        fresh ``repro run --workers 2`` process.

        A forked worker's ru_maxrss counts every page it inherited, so it
        adds its peak minus this process's RSS at the fork.  The first
        pass's workers are this process's first children, so the peak
        RUSAGE_CHILDREN keeps is theirs.  Later passes fork from a heap
        holding freed but resident memory, which their workers reuse.
        """
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return peak - min(self.fork_rss)

    def peak_rss_mb(self) -> float:
        """The coordinator's peak plus what each worker adds."""
        return super().peak_rss_mb() + SKETCH.workers * self.worker_kib / 1024.0

    def summarize(self, product: Any) -> Dict[str, Any]:
        dataset, snapshot = product
        events = snapshot.trace.events if snapshot.trace else ()
        return {
            "digest": dataset.digest(),
            "beacons": dataset.beacon_count,
            "attempts": sum(1 for event in events if event.name == "shard.attempt"),
            "failures": int(snapshot.counters.get("shard.failures_total", 0)),
        }

    def traced_extras(self, untraced_pass_s: float) -> Dict[str, float]:
        """``parallel.speedup``: the same campaign's serial wall time
        over the sharded pass."""
        start = time.perf_counter()
        ParallelCampaignRunner(self.scenario, dataclasses.replace(SKETCH, workers=1)).run()
        return {"parallel.speedup": (time.perf_counter() - start) / untraced_pass_s}

    def check(self) -> Tuple[int, int]:
        if self.recorded is not None:
            reference = self.recorded["digest"]
        else:
            reference = vectorized_dataset(self.scenario, SKETCH).digest()
        attempted = failed = 0
        for index, summary in enumerate(self.summaries):
            attempted += summary["attempts"] + 1
            failed += summary["failures"]
            if summary["failures"]:
                self.note(f"pass {index}: {summary['failures']} shard attempts failed")
            if summary["digest"] != reference:
                failed += 1
                self.note(f"pass {index}: merged digest {summary['digest'][:12]} != {reference[:12]}")
        return attempted, failed

    def details(self, pass_s: float) -> Dict[str, float]:
        return {
            "beacons_per_s": self.summaries[-1]["beacons"] / pass_s,
            "coordinator_peak_mb": super().peak_rss_mb(),
            "worker_added_mb": self.worker_kib / 1024.0,
        }


class ServiceReplay(Workload):
    """``repro replay --checkpoint-dir``: a recorded export streamed
    unpaced through the live service."""

    name = "service_replay"
    builds_scenario = False

    @classmethod
    def generate(cls, seed: int, shape: Tuple[int, int], out_dir: Path) -> None:
        study = AnycastStudy(calibrated_config(cls.name, seed, shape), campaign=EXACT)
        save_dataset(study.dataset, str(out_dir / "export.json"))

    def setup(self) -> float:
        self.dataset = self.events = None
        with self.timed("setup") as clock:
            with self.span("export.load"):
                dataset = load_dataset(str(self.input_dir / "export.json"))
            fingerprint = dataset.digest()
            with self.span("service.events_build"):
                events = events_from_dataset(dataset)
        self.dataset, self.fingerprint, self.events = dataset, fingerprint, events
        return clock.seconds

    def timed_pass(self) -> Tuple[float, Any]:
        telemetry = Telemetry(context={"seed": self.seed, "mode": "replay"})
        config = ServiceConfig(
            seed=self.seed, checkpoint_dir=str(self.work_dir / "service-checkpoints")
        )
        with self.timed("pass") as clock:
            service = LiveService(
                config,
                num_days=self.dataset.calendar.num_days,
                telemetry=telemetry,
                source_fingerprint=self.fingerprint,
            )
            with self.span("service.stream"):
                result = service.run_stream(self.events)
        snapshot = telemetry.snapshot()
        self.adopt("service.stream", snapshot.trace, r"service\.(produce|consume)")
        spans = snapshot.spans
        for metric, path in (("service.produce_s", "service.produce"), ("service.consume_s", "service.consume")):
            self.record(metric, spans[path].seconds if path in spans else 0.0)
        self.record("service.events", result.events_total)
        self.record("service.admitted", result.beacons_admitted + result.passive_admitted)
        self.record("service.dropped", service.gate.dropped_total)
        self.record("service.late_drops", result.late_drops)
        self.record("service.days_closed", result.days_closed)
        self.record("service.checkpoints", result.checkpoints_written)
        self.record("service.retries", result.retries)
        return clock.seconds, (service, result)

    def oracle(self) -> Dict[int, Dict[str, Any]]:
        """Batch predictions per day and plane: with the default one-day
        window, the online predictor must match them exactly."""
        if not hasattr(self, "_oracle"):
            batch = HistoryBasedPredictor()
            planes = {"ecs": self.dataset.ecs_aggregates, "ldns": self.dataset.ldns_aggregates}
            self._oracle = {
                day: {plane: batch.predict_day(aggregates, day) for plane, aggregates in planes.items()}
                for day in range(self.dataset.calendar.num_days)
            }
        return self._oracle

    def summarize(self, product: Any) -> Dict[str, Any]:
        service, result = product
        oracle = self.oracle()
        wrong_days = [
            day for day, expected in oracle.items()
            if any(
                result.predictions.get(day, {}).get(plane) != predictions
                for plane, predictions in expected.items()
            )
        ]
        return {
            "offered": len(self.events),
            "events": result.events_total,
            "days": result.days_closed,
            "dropped": service.gate.dropped_total,
            "late": result.late_drops,
            "wrong_days": wrong_days,
            "predictions_digest": result.predictions_digest,
            "stream_digest": result.stream_digest,
        }

    def check(self) -> Tuple[int, int]:
        attempted = failed = 0
        for index, summary in enumerate(self.summaries):
            attempted += summary["offered"] + summary["days"]
            lost = summary["dropped"] + summary["late"] + (summary["offered"] - summary["events"])
            if lost:
                failed += lost
                self.note(f"pass {index}: {lost} events dropped, late or never ingested")
            if summary["wrong_days"]:
                failed += len(summary["wrong_days"])
                self.note(f"pass {index}: online predictions differ from the batch predictor on days {summary['wrong_days']}")
            if self.recorded is not None:
                attempted += 1
                observed = {key: summary[key] for key in self.recorded}
                if observed != self.recorded:
                    failed += 1
                    self.note(f"pass {index}: {observed} != recorded {self.recorded}")
        return attempted, failed

    def details(self, pass_s: float) -> Dict[str, float]:
        return {"events_per_s": self.summaries[-1]["offered"] / pass_s}


WORKLOADS = {cls.name: cls for cls in (PaperStudy, ShardedSketch, ServiceReplay)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def run_rounds(workload: Workload, seconds: float, minimum: int) -> Tuple[List[float], List[float], List[float]]:
    """Set-up, pass and host-speed probe times of rounds run until
    ``seconds`` are used, at least ``minimum`` rounds.

    Host speed on a shared VM drifts in phases of several seconds, so a
    set-up timed next to its pass sees the same phase, a probe follows
    every set-up and pass, and the medians come from the whole run.
    """
    setups: List[float] = []
    passes: List[float] = []
    probes = [host_probe()]
    start = time.perf_counter()
    while True:
        try:
            setups.append(workload.setup())
            probes.append(host_probe())
            passes.append(workload.run_pass())
            probes.append(host_probe())
        except Exception:
            # The program is deterministic: a round that raised once
            # raises again, so the run stops here with one failure.
            workload.errors += 1
            workload.note(traceback.format_exc())
            return setups, passes, probes
        elapsed = time.perf_counter() - start
        rounds = len(passes)
        # Stop when another round would end more than half a round
        # past the measuring time.
        if rounds >= minimum and elapsed * (rounds + 0.5) / rounds > seconds:
            return setups, passes, probes


def layer_metrics(tracer: SpanLog, extras: Dict[str, float], untraced: List[float], traced: List[float]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of a traced run, and the report behind them."""
    totals, selfs = tracer.medians()
    values = {**tracer.value_medians(), **extras}
    passes = [unit for unit in tracer.units if unit["kind"] == "pass"]
    coverage = tracer.coverage(passes)
    values["runtime.gc_s"] = statistics.median(unit["gc_s"] for unit in passes)
    values["runtime.gc_collections"] = statistics.median(unit["gc_collections"] for unit in passes)
    values["trace.coverage"] = min(coverage.values())
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics: Dict[str, float] = {}
    skipped = []
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        value = totals.get(SPAN_METRICS[name]) if name in SPAN_METRICS else values.get(name)
        if value is None:
            skipped.append(name)
            value = 0.0
        metrics[name] = value
    report = {
        "moves": {metric["name"]: MOVES[metric["name"]] for metric in SPEC["per_layer"]},
        "self_s": {name: round(seconds, 6) for name, seconds in sorted(selfs.items())},
        "pass_coverage": {name: round(share, 4) for name, share in coverage.items()},
        "not_exercised": skipped,
    }
    return metrics, report


def coverage_gaps(coverage: Dict[str, float]) -> List[str]:
    """One note per span whose child spans cover less than
    ``MIN_COVERAGE`` of its time over the traced passes."""
    return [
        f"child spans cover {share:.1%} of {name} over the traced passes, below {MIN_COVERAGE:.0%}"
        for name, share in coverage.items()
        if share < MIN_COVERAGE
    ]


def measure(name: str, seed: int, seconds: float, traced: bool, shape: Tuple[int, int], input_dir: Path, work_dir: Path) -> Dict[str, Any]:
    workload = WORKLOADS[name](seed, shape, input_dir, work_dir)
    if traced:
        setup_times, untraced, probes = run_rounds(workload, seconds / 2, 2)
        if not workload.errors:
            extras = workload.traced_extras(statistics.median(untraced))
            tracer = workload.tracer = SpanLog()
            _, pass_times, traced_probes = run_rounds(workload, seconds / 2, 2)
            probes += traced_probes
            workload.tracer = None
        if workload.errors:
            raise RuntimeError("a round raised:\n" + "\n".join(workload.notes))
    else:
        setup_times, pass_times, probes = run_rounds(workload, seconds, MIN_ROUNDS)
        if not pass_times:
            raise RuntimeError("no pass completed:\n" + "\n".join(workload.notes))
    rss = workload.peak_rss_mb()
    try:
        attempted, failed = workload.check()
    except Exception:
        attempted, failed = 1, 1
        workload.note(traceback.format_exc())
    attempted += workload.errors
    failed += workload.errors
    info: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "shape": list(shape),
        "traced": traced,
        "setup_s": setup_times,
        "pass_s": pass_times,
        "host_probe_s": probes,
        **workload.details(statistics.median(pass_times)),
        "notes": workload.notes,
    }
    if traced:
        metrics, report = layer_metrics(tracer, extras, untraced, pass_times)
        info.update(untraced_pass_s=untraced, **report)
        gaps = coverage_gaps(report["pass_coverage"])
        attempted += len(report["pass_coverage"])
        failed += len(gaps)
        for gap in gaps:
            workload.note(gap)
        values = metrics
        declared = SPEC["per_layer"]
        trace_dir = work_dir.parent / "traces"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{name}-seed{seed}.json").write_text(json.dumps(tracer.to_obj()), encoding="utf-8")
    else:
        values = {
            "pass_s": host_adjusted(pass_times, probes),
            "setup_s": host_adjusted(setup_times, probes),
            "peak_rss_mb": rss,
        }
        declared = SPEC["end_to_end"]
    print(json.dumps({"info": info}), flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


# ----------------------------------------------------------------------
# Recorded outputs
# ----------------------------------------------------------------------


def record_outputs(name: str, seed: int, shape: Tuple[int, int]) -> Dict[str, Any]:
    """The outputs the checks compare against, computed afresh."""
    config = calibrated_config(name, seed, shape)
    if name == "sharded_sketch":
        dataset = ParallelCampaignRunner(Scenario.build(config), SKETCH).run()
        return {"digest": dataset.digest(), "beacons": dataset.beacon_count}
    study = AnycastStudy(config, campaign=EXACT)
    dataset = study.dataset
    if name == "paper_study":
        return {
            **dataset_summary(dataset),
            "section_sha256": [sha256_text(s) for s in sections_of(study.full_report())],
        }
    result = LiveService(
        ServiceConfig(seed=seed), num_days=dataset.calendar.num_days
    ).run_stream(events_from_dataset(dataset))
    return {
        "events": result.events_total,
        "predictions_digest": result.predictions_digest,
        "stream_digest": result.stream_digest,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--tiny", action="store_true")
    mes = sub.add_parser("measure")
    mes.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    mes.add_argument("--seed", type=int, required=True)
    mes.add_argument("--seconds", type=float, required=True)
    mes.add_argument("--trace", type=int, choices=(0, 1), required=True)
    mes.add_argument("--input", type=Path, required=True)
    mes.add_argument("--work", type=Path, required=True)
    mes.add_argument("--result", type=Path, required=True)
    mes.add_argument("--tiny", action="store_true")
    rec = sub.add_parser("record")
    rec.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "record":
        recorded = {
            name: entries
            for name, entries in json.loads(RECORDED_PATH.read_text(encoding="utf-8")).items()
            if name in WORKLOADS
        }
        for name in WORKLOADS:
            shape = TINY_SHAPE if args.tiny else SHAPES[name]
            for seed in RECORDED_SEEDS:
                entry = record_outputs(name, seed, shape)
                recorded.setdefault(name, {}).setdefault(f"{shape[0]}x{shape[1]}", {})[str(seed)] = entry
                print(f"recorded {name} {shape} seed {seed}", flush=True)
        RECORDED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    shape = TINY_SHAPE if args.tiny else SHAPES[args.workload]
    if args.mode == "generate":
        WORKLOADS[args.workload].generate(args.seed, shape, args.out)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), shape, args.input, args.work)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
