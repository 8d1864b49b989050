"""Differential oracle: the online predictor against the batch one.

The live service's headline correctness claim is that it adds *no*
prediction logic — only windowing.  These tests replay recorded
campaign datasets (one per measurement engine) through the service and
assert that every closed day's online predictions equal the batch
:class:`~repro.core.predictor.HistoryBasedPredictor` run over the same
day's aggregates:

* **exactly** (``Prediction`` dataclass equality, hence bit-identical
  floats) when the service window keeps exact digests, and
* **within the sketch error bound** when the window promotes digests
  to bounded sketches.

One leg drives the full ``repro replay`` CLI path to keep the
command-line plumbing honest.
"""

import asyncio
import dataclasses
import json
import math

import pytest

from repro import cli
from repro.core.predictor import HistoryBasedPredictor
from repro.errors import MeasurementError
from repro.faults.inject import InjectedCrashError
from repro.faults.plan import FaultPlan
from repro.clients.population import ClientPopulationConfig
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.export import save_dataset
from repro.measurement.logs import PassiveLog
from repro.service import (
    BeaconEvent,
    LiveService,
    PassiveEvent,
    ServiceConfig,
    events_from_dataset,
    predictions_to_obj,
)
from repro.service.replay import PASSIVE_TOTAL_KEY
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SECONDS_PER_DAY, SimulationCalendar
from repro.simulation.dataset import StudyDataset
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import Telemetry
from repro.telemetry.trace import SERVICE_LANE
from tests.helpers import make_client, make_dataset

pytestmark = pytest.mark.service

ENGINES = ("reference", "vectorized", "matrix")

SKETCH_THRESHOLD = 16
SKETCH_ACCURACY = 0.01


@pytest.fixture(scope="module")
def replay_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=42,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=3),
        )
    )


@pytest.fixture(scope="module", params=ENGINES)
def engine_dataset(request, replay_scenario) -> StudyDataset:
    runner = CampaignRunner(
        replay_scenario, CampaignConfig(engine=request.param)
    )
    return runner.run()


def run_service(dataset, **overrides):
    config = ServiceConfig(**overrides)
    service = LiveService(
        config,
        num_days=dataset.calendar.num_days,
        source_fingerprint=dataset.digest(),
    )
    result = service.run_stream(events_from_dataset(dataset))
    return service, result


class TestExactOracle:
    def test_online_equals_batch_for_every_group_and_day(
        self, engine_dataset
    ):
        """Exact mode: bit-identical predictions on both planes."""
        _, result = run_service(engine_dataset)
        batch = HistoryBasedPredictor()
        planes = {
            "ecs": engine_dataset.ecs_aggregates,
            "ldns": engine_dataset.ldns_aggregates,
        }
        compared = 0
        for day in range(engine_dataset.calendar.num_days):
            online = result.predictions[day]
            for grouping, aggregates in planes.items():
                expected = batch.predict_day(aggregates, day)
                assert online[grouping] == expected
                compared += len(expected)
        assert compared > 0

    def test_every_day_closes_and_digest_is_stable(self, engine_dataset):
        _, first = run_service(engine_dataset)
        _, second = run_service(engine_dataset)
        assert first.days_closed == engine_dataset.calendar.num_days
        assert sorted(first.predictions) == list(
            range(engine_dataset.calendar.num_days)
        )
        assert first.predictions_digest == second.predictions_digest
        assert first.stream_digest == second.stream_digest
        assert first.quarantine_digest == second.quarantine_digest


class TestSketchOracle:
    def test_online_sketch_within_error_bound(self, engine_dataset):
        """Sketch window: deterministic, and near the exact percentile."""
        _, result = run_service(
            engine_dataset,
            sketch_threshold=SKETCH_THRESHOLD,
            sketch_accuracy=SKETCH_ACCURACY,
        )
        batch = HistoryBasedPredictor()
        config = batch.config
        ecs = engine_dataset.ecs_aggregates
        checked = 0
        for day in range(engine_dataset.calendar.num_days):
            for group, online in result.predictions[day]["ecs"].items():
                digests = ecs.targets_for(day, group)
                digest = digests.get(online.target_id)
                assert digest is not None
                # Rebuild the sketched digest over the same multiset:
                # canonical promotion makes its state (and its error
                # bound) a pure function of the samples.
                store = GroupedDailyAggregates(
                    "ecs",
                    exact_threshold=SKETCH_THRESHOLD,
                    relative_accuracy=SKETCH_ACCURACY,
                )
                ordered = sorted(digest.values_view().tolist())
                store.observe_many(day, group, online.target_id, ordered)
                rebuilt = store.digest(day, group, online.target_id)
                if rebuilt.is_exact:
                    assert online.metric_ms == digest.percentile(
                        config.metric_percentile
                    )
                else:
                    bound = rebuilt.sketch.relative_error_bound
                    assert math.isclose(
                        online.metric_ms,
                        rebuilt.percentile(config.metric_percentile),
                    )
                    # The sketch answers within its relative bound of a
                    # sample at the queried rank; with a few dozen
                    # samples the exact interpolated percentile falls
                    # between ranks, so compare against the bracketing
                    # rank samples.
                    rank = (config.metric_percentile / 100.0) * (
                        len(ordered) - 1
                    )
                    candidates = {
                        ordered[math.floor(rank)],
                        ordered[math.ceil(rank)],
                    }
                    assert any(
                        abs(online.metric_ms - sample) / sample
                        <= 2 * bound
                        for sample in candidates
                    )
                checked += 1
        assert checked > 0

    def test_sketch_run_is_deterministic(self, engine_dataset):
        _, first = run_service(
            engine_dataset, sketch_threshold=SKETCH_THRESHOLD
        )
        _, second = run_service(
            engine_dataset, sketch_threshold=SKETCH_THRESHOLD
        )
        assert first.predictions_digest == second.predictions_digest


class TestCliReplay:
    def test_cli_replay_matches_in_process_service(
        self, engine_dataset, tmp_path
    ):
        dataset_path = tmp_path / "campaign.json"
        predictions_path = tmp_path / "predictions.json"
        manifest_path = tmp_path / "manifest.json"
        save_dataset(engine_dataset, str(dataset_path))
        code = cli.main(
            [
                "replay",
                str(dataset_path),
                "--predictions-out", str(predictions_path),
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        _, expected = run_service(engine_dataset)
        written = json.loads(predictions_path.read_text())
        assert written == predictions_to_obj(expected.predictions)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["digests"] == {
            "predictions": expected.predictions_digest,
            "stream": expected.stream_digest,
            "quarantine": expected.quarantine_digest,
        }
        assert manifest["events_total"] == expected.events_total


class TestEventRecovery:
    def test_stream_covers_every_recorded_sample(self, engine_dataset):
        events = events_from_dataset(engine_dataset)
        beacons = [e for e in events if isinstance(e, BeaconEvent)]
        passive = [e for e in events if isinstance(e, PassiveEvent)]
        assert len(beacons) == engine_dataset.measurement_count
        assert passive
        days = [e.day for e in events]
        assert days == sorted(days)

    def test_sketch_mode_export_is_rejected(self):
        client = make_client(1)
        aggregates = GroupedDailyAggregates("ecs", exact_threshold=2)
        for value in (10.0, 20.0, 30.0, 40.0):
            aggregates.observe(0, client.key, "anycast", value)
        dataset = StudyDataset(
            calendar=SimulationCalendar(num_days=1),
            clients=(client,),
            ecs_aggregates=aggregates,
            request_diffs=RequestDiffLog(),
            passive=PassiveLog(),
        )
        with pytest.raises(MeasurementError, match="sketch-mode"):
            events_from_dataset(dataset)

    def test_unknown_group_key_is_rejected(self):
        dataset = make_dataset(
            [make_client(1)],
            num_days=1,
            ecs_samples=[(0, "203.0.113.0/24", "anycast", [10.0] * 25)],
        )
        with pytest.raises(MeasurementError, match="no client record"):
            events_from_dataset(dataset)

    def test_bounded_passive_log_replays_day_totals(self):
        client = make_client(1)
        passive = PassiveLog(bounded=True)
        passive.record(0, client.key, "fe-a", 7)
        passive.record(0, client.key, "fe-b", 3)
        dataset = make_dataset(
            [client],
            num_days=1,
            ecs_samples=[(0, client.key, "anycast", [10.0] * 25)],
        )
        dataset = StudyDataset(
            calendar=dataset.calendar,
            clients=dataset.clients,
            ecs_aggregates=dataset.ecs_aggregates,
            request_diffs=dataset.request_diffs,
            passive=passive,
        )
        events = events_from_dataset(dataset)
        counts = {
            (e.client_key, e.frontend_id): e.count
            for e in events
            if isinstance(e, PassiveEvent)
        }
        assert counts == {
            (PASSIVE_TOTAL_KEY, "fe-a"): 7,
            (PASSIVE_TOTAL_KEY, "fe-b"): 3,
        }
        service = LiveService(ServiceConfig(), num_days=1)
        result = service.run_stream(events)
        assert result.passive_admitted == 2


class TestLoopContracts:
    """Pacing, the loop's trace slice, and the call context."""

    NUM_DAYS = 4
    #: Ten simulated days per wall-clock second.
    SPEED = 10.0 * SECONDS_PER_DAY

    @classmethod
    def gapped_events(cls):
        """Beacons on days 0, 1 and 3 (25, 21 and 30 of them); day 2 is
        empty."""
        client = make_client(1)
        dataset = make_dataset(
            [client],
            num_days=cls.NUM_DAYS,
            ecs_samples=[
                (0, client.key, "anycast", [10.0] * 25),
                (1, client.key, "anycast", [11.0] * 21),
                (3, client.key, "anycast", [12.0] * 30),
            ],
        )
        return events_from_dataset(dataset)

    @staticmethod
    def outputs(result):
        """The run's manifest (its digests and counts), minus timing."""
        manifest = result.manifest()
        del manifest["elapsed_seconds"]
        return manifest

    def test_paced_run_sleeps_once_per_day_advance(self, monkeypatch):
        events = self.gapped_events()
        service = LiveService(
            ServiceConfig(speed=self.SPEED), num_days=self.NUM_DAYS
        )
        sleeps = []
        monkeypatch.setattr(
            "repro.service.ingest.time.sleep",
            lambda seconds: sleeps.append((service.stream.count, seconds)),
        )
        paced = service.run_stream(events)
        # (events consumed before the sleep, seconds): none before the
        # first event, one before the first event of each later day, and
        # the empty day 2 doubles the gap before day 3.
        assert sleeps == [
            (25, SECONDS_PER_DAY * 1 / self.SPEED),
            (46, SECONDS_PER_DAY * 2 / self.SPEED),
        ]
        unpaced = LiveService(
            ServiceConfig(), num_days=self.NUM_DAYS
        ).run_stream(events)
        assert self.outputs(paced) == self.outputs(unpaced)

    def test_paced_resume_skips_the_restored_prefix_unpaced(
        self, monkeypatch, tmp_path
    ):
        """A resume restored at the start of day 2 sleeps once, before
        day 3: pacing starts at the first event it processes."""
        client = make_client(1)
        events = events_from_dataset(
            make_dataset(
                [client],
                num_days=self.NUM_DAYS,
                ecs_samples=[
                    (day, client.key, "anycast", [10.0 + day] * count)
                    for day, count in enumerate((25, 21, 20, 30))
                ],
            )
        )

        def crash_then_resume(directory, speed):
            config = ServiceConfig(
                seed=4,  # crash ordinal 54: mid day 2 (events 46-65)
                fault_plan=FaultPlan.from_spec("crash:1"),
                checkpoint_dir=str(directory),
            )
            with pytest.raises(InjectedCrashError):
                LiveService(config, num_days=self.NUM_DAYS).run_stream(
                    events
                )
            service = LiveService(
                dataclasses.replace(config, resume=True, speed=speed),
                num_days=self.NUM_DAYS,
            )
            sleeps = []
            monkeypatch.setattr(
                "repro.service.ingest.time.sleep",
                lambda seconds: sleeps.append((service.stream.count, seconds)),
            )
            return service.run_stream(events), sleeps

        paced, sleeps = crash_then_resume(tmp_path / "paced", self.SPEED)
        assert paced.resumed_from_cursor == 46
        assert sleeps == [(66, SECONDS_PER_DAY / self.SPEED)]
        unpaced, no_sleeps = crash_then_resume(tmp_path / "unpaced", 0.0)
        assert no_sleeps == []
        assert self.outputs(paced) == self.outputs(unpaced)

    def test_loop_is_one_consume_slice_on_the_service_lane(self):
        telemetry = Telemetry(context={"mode": "replay"})
        LiveService(
            ServiceConfig(), num_days=self.NUM_DAYS, telemetry=telemetry
        ).run_stream(self.gapped_events())
        snapshot = telemetry.snapshot()
        phases = [
            (event.name, event.shard)
            for event in snapshot.trace.events
            if event.cat == "phase"
        ]
        assert phases == [("service.consume", SERVICE_LANE)]
        assert "service.consume" in snapshot.spans
        assert "service.produce" not in snapshot.spans

    def test_run_stream_inside_a_running_event_loop(self):
        events = self.gapped_events()
        plain = LiveService(
            ServiceConfig(), num_days=self.NUM_DAYS
        ).run_stream(events)

        async def call_from_a_coroutine():
            return LiveService(
                ServiceConfig(), num_days=self.NUM_DAYS
            ).run_stream(events)

        nested = asyncio.run(call_from_a_coroutine())
        assert self.outputs(nested) == self.outputs(plain)
        assert nested.predictions == plain.predictions
