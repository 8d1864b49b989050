"""Dirty-data chaos tests: record faults, quarantine identity, resume.

The tentpole invariant: under the ``lenient`` policy, a campaign run
against a ``record-*`` fault plan produces exactly the clean dataset
minus the quarantined records — and the dirty digest plus the
quarantine accounting are bit-identical across serial, sharded,
reference, and vectorized runs (within each engine's digest family).
"""

import json
import math
import os

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.clients.population import ClientPopulationConfig
from repro.clients.workload import WorkloadConfig
from repro.faults import (
    CLOCK_SKEW_STEP_MS,
    RECORD_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RecordFaultInjector,
)
from repro.measurement.validate import QuarantineLog
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.simulation.transport import decode_shard_payload

pytestmark = pytest.mark.chaos

DIRTY_SPEC = "record-corrupt:4,record-clock-skew:3,record-truncate:2"


@pytest.fixture(scope="module")
def dirty_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=47,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=2),
        )
    )


@pytest.fixture(scope="module")
def clean_run(dirty_scenario):
    runner = CampaignRunner(
        dirty_scenario, CampaignConfig(engine="vectorized")
    )
    dataset = runner.run()
    assert runner.quarantine.total == 0  # clean data never quarantines
    return dataset


@pytest.fixture(scope="module")
def dirty_run(dirty_scenario):
    runner = CampaignRunner(
        dirty_scenario,
        CampaignConfig(
            engine="vectorized",
            fault_plan=FaultPlan.from_spec(DIRTY_SPEC),
            validation="lenient",
        ),
    )
    dataset = runner.run()
    return runner, dataset


class TestPlanGrammar:
    def test_record_kinds_parse(self):
        plan = FaultPlan.from_spec(DIRTY_SPEC)
        assert [spec.kind for spec in plan.specs] == [
            FaultKind.RECORD_CORRUPT,
            FaultKind.RECORD_CLOCK_SKEW,
            FaultKind.RECORD_TRUNCATE,
        ]
        assert plan.spec_string() == DIRTY_SPEC

    def test_record_faults_cannot_pin_shards(self):
        with pytest.raises(ConfigurationError, match="pinned to a shard"):
            FaultSpec(FaultKind.RECORD_CORRUPT, count=1, shard=0)
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec("record-corrupt:1@2")

    def test_record_only_split(self):
        mixed = FaultPlan.from_spec("crash:1," + DIRTY_SPEC)
        record_part = mixed.record_only()
        assert record_part is not None
        assert record_part.spec_string() == DIRTY_SPEC
        assert FaultPlan.from_spec("crash:1").record_only() is None

    def test_kind_invariant_schedule(self):
        """Same-shape plans of different kinds dirty identical cells."""
        corrupt = FaultPlan.from_spec("record-corrupt:5").compile_records(
            seed=99, num_days=3, population=50
        )
        truncate = FaultPlan.from_spec("record-truncate:5").compile_records(
            seed=99, num_days=3, population=50
        )
        assert set(corrupt.points) == set(truncate.points)
        assert corrupt.planted_counts() == {"record-corrupt": 5}
        assert truncate.planted_counts() == {"record-truncate": 5}

    def test_dirty_values(self):
        assert math.isnan(
            RecordFaultInjector.dirty_value(FaultKind.RECORD_CORRUPT, 50.0)
        )
        assert (
            RecordFaultInjector.dirty_value(
                FaultKind.RECORD_CLOCK_SKEW, 50.0
            )
            == 50.0 - CLOCK_SKEW_STEP_MS
        )
        assert RecordFaultInjector.dirty_value(
            FaultKind.RECORD_TRUNCATE, 50.0
        ) == float("-inf")
        assert FaultKind.RECORD_CORRUPT in RECORD_KINDS


class TestQuarantineIdentity:
    def test_lenient_dirty_equals_clean_minus_quarantined(
        self, clean_run, dirty_run
    ):
        runner, dataset = dirty_run
        quarantine = runner.quarantine
        assert quarantine.total > 0
        assert quarantine.repaired == 0  # lenient never repairs
        assert (
            clean_run.measurement_count
            == dataset.measurement_count + quarantine.dropped
        )
        assert dataset.beacon_count == clean_run.beacon_count
        assert dataset.digest() != clean_run.digest()

    def test_sharded_dirty_run_is_bit_identical(
        self, dirty_scenario, dirty_run
    ):
        serial_runner, serial_dataset = dirty_run
        sharded = ParallelCampaignRunner(
            dirty_scenario,
            CampaignConfig(
                engine="vectorized",
                fault_plan=FaultPlan.from_spec(DIRTY_SPEC),
                validation="lenient",
            ),
            workers=2,
        )
        dataset = sharded.run()
        assert dataset.digest() == serial_dataset.digest()
        assert sharded.quarantine.digest() == serial_runner.quarantine.digest()
        assert sharded.quarantine.counts == serial_runner.quarantine.counts

    def test_engines_quarantine_the_same_records(
        self, dirty_scenario, dirty_run
    ):
        vec_runner, _ = dirty_run
        ref_runner = CampaignRunner(
            dirty_scenario,
            CampaignConfig(
                engine="reference",
                fault_plan=FaultPlan.from_spec(DIRTY_SPEC),
                validation="lenient",
            ),
        )
        ref_runner.run()
        # The engines draw different RTT values, so the quarantined
        # *values* differ — but the schedule, coordinates, and reasons
        # are engine-invariant.
        assert ref_runner.quarantine.counts == vec_runner.quarantine.counts
        assert [
            (s.day, s.client_key, s.record_index, s.reason)
            for s in ref_runner.quarantine.samples
        ] == [
            (s.day, s.client_key, s.record_index, s.reason)
            for s in vec_runner.quarantine.samples
        ]

    def test_engines_agree_on_days_past_one_block(self):
        """The batched engines cut a client-day into 4096-beacon blocks;
        a dirty record past the first block must still be logged at the
        day-level slot the reference engine counts (and the planter
        chose), not at its offset within the block."""
        scenario = Scenario.build(
            ScenarioConfig(
                seed=11,
                population=ClientPopulationConfig(
                    prefix_count=1,
                    volume_median_queries=30000,
                    volume_sigma=0.1,
                ),
                workload=WorkloadConfig(
                    max_beacons_per_day=6000, beacon_fraction=1.0
                ),
                calendar=SimulationCalendar(num_days=1),
            )
        )
        logged = {}
        for engine in ("reference", "vectorized", "matrix"):
            runner = CampaignRunner(
                scenario,
                CampaignConfig(
                    engine=engine,
                    fault_plan=FaultPlan.from_spec("record-corrupt:12"),
                    validation="lenient",
                ),
            )
            dataset = runner.run()
            assert dataset.beacon_count == 6000
            logged[engine] = {
                (s.day, s.client_key, s.record_index, s.reason)
                for s in runner.quarantine.samples
            }
        # Four fetches per beacon: slots past 4096 * 4 are in block two.
        assert max(index for _, _, index, _ in logged["reference"]) > 4096 * 4
        assert logged["vectorized"] == logged["reference"]
        assert logged["matrix"] == logged["reference"]

    def test_telemetry_counters_published(self, dirty_run):
        runner, _ = dirty_run
        counters = runner.telemetry.snapshot().counters
        assert counters["validate.quarantined_total"] == (
            runner.quarantine.dropped
        )
        assert counters["faults.records_planted_total"] > 0
        by_reason = sum(
            value
            for name, value in counters.items()
            if name.startswith("validate.quarantined.")
        )
        assert by_reason == counters["validate.quarantined_total"]


class TestPolicies:
    def test_strict_raises_on_first_dirty_record(self, dirty_scenario):
        runner = CampaignRunner(
            dirty_scenario,
            CampaignConfig(
                engine="vectorized",
                fault_plan=FaultPlan.from_spec("record-corrupt:2"),
                validation="strict",
            ),
        )
        with pytest.raises(ValidationError):
            runner.run()

    def test_strict_failure_is_not_retried_in_parallel(self, dirty_scenario):
        runner = ParallelCampaignRunner(
            dirty_scenario,
            CampaignConfig(
                engine="vectorized",
                fault_plan=FaultPlan.from_spec("record-corrupt:2"),
                validation="strict",
                max_retries=3,
                retry_backoff_seconds=0.0,
            ),
            workers=2,
        )
        with pytest.raises(ValidationError):
            runner.run()
        counters = runner.telemetry.snapshot().counters
        assert counters.get("shard.retries_total", 0) == 0

    def test_repair_keeps_clock_skewed_records(self, dirty_scenario):
        runner = CampaignRunner(
            dirty_scenario,
            CampaignConfig(
                engine="vectorized",
                fault_plan=FaultPlan.from_spec("record-clock-skew:3"),
                validation="repair",
            ),
        )
        dataset = runner.run()
        quarantine = runner.quarantine
        # Clock skew drives RTTs negative: repairable (clamped to 0).
        assert quarantine.repaired > 0
        assert quarantine.dropped == 0
        clean = CampaignRunner(
            dirty_scenario, CampaignConfig(engine="vectorized")
        ).run()
        assert dataset.measurement_count == clean.measurement_count

    def test_bad_policy_rejected_at_config(self):
        with pytest.raises(ConfigurationError, match="validation"):
            CampaignConfig(validation="fix-it-for-me")


class TestCheckpointQuarantineResume:
    def test_resume_restores_quarantine_accounting(
        self, dirty_scenario, dirty_run, tmp_path
    ):
        serial_runner, serial_dataset = dirty_run
        checkpoint_dir = str(tmp_path / "ckpt")
        dirty_config = CampaignConfig(
            engine="vectorized",
            fault_plan=FaultPlan.from_spec(DIRTY_SPEC),
            validation="lenient",
            checkpoint_dir=checkpoint_dir,
        )
        first = ParallelCampaignRunner(
            dirty_scenario, dirty_config, workers=2
        )
        first.run()

        # Each shard's quarantine log rides inside its checkpoint's
        # transport payload (after the one-line envelope header).
        spilled = QuarantineLog()
        for name in sorted(os.listdir(checkpoint_dir)):
            with open(os.path.join(checkpoint_dir, name), "rb") as handle:
                handle.readline()
                _, _, quarantine = decode_shard_payload(
                    handle.read(), dirty_scenario.clients
                )
            spilled.merge(quarantine)
        assert first.quarantine.total > 0
        assert spilled.digest() == first.quarantine.digest()

        resumed = ParallelCampaignRunner(
            dirty_scenario,
            CampaignConfig(
                engine="vectorized",
                fault_plan=FaultPlan.from_spec(DIRTY_SPEC),
                validation="lenient",
                checkpoint_dir=checkpoint_dir,
                resume=True,
            ),
            workers=2,
        )
        dataset = resumed.run()
        counters = resumed.telemetry.snapshot().counters
        assert counters["checkpoint.loaded_total"] == 2  # no shard re-ran
        assert dataset.digest() == serial_dataset.digest()
        assert resumed.quarantine.digest() == serial_runner.quarantine.digest()

    def test_different_validation_policy_invalidates_checkpoints(
        self, dirty_scenario, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        base = dict(
            engine="vectorized",
            fault_plan=FaultPlan.from_spec("record-clock-skew:3"),
            checkpoint_dir=checkpoint_dir,
        )
        ParallelCampaignRunner(
            dirty_scenario,
            CampaignConfig(validation="lenient", **base),
            workers=2,
        ).run()
        resumed = ParallelCampaignRunner(
            dirty_scenario,
            CampaignConfig(validation="repair", resume=True, **base),
            workers=2,
        )
        resumed.run()
        counters = resumed.telemetry.snapshot().counters
        # A lenient checkpoint must not satisfy a repair-policy campaign.
        assert counters.get("checkpoint.loaded_total", 0) == 0


class TestCliValidationFlags:
    def test_flags_build_campaign_config(self):
        from repro.cli import _campaign_config, build_parser

        args = build_parser().parse_args(
            [
                "run", "out.json",
                "--fault-plan", "record-corrupt:4",
                "--validation-policy", "repair",
            ]
        )
        config = _campaign_config(args)
        assert config.validation == "repair"
        assert config.fault_plan.spec_string() == "record-corrupt:4"

    def test_default_policy_is_lenient(self):
        from repro.cli import _campaign_config, build_parser

        args = build_parser().parse_args(["run", "out.json"])
        assert _campaign_config(args).validation == "lenient"

    def test_quarantine_out_writes_mergeable_log(self, tmp_path):
        from repro.cli import main
        from repro.measurement.validate import QuarantineLog

        quarantine_path = str(tmp_path / "quarantine.json")
        dataset_path = str(tmp_path / "dataset.json")
        exit_code = main(
            [
                "run", dataset_path,
                "--prefixes", "20", "--days", "1", "--seed", "47",
                "--engine", "vectorized",
                "--fault-plan", "record-corrupt:2",
                "--quarantine-out", quarantine_path,
            ]
        )
        assert exit_code == 0
        restored = QuarantineLog.from_obj(
            json.load(open(quarantine_path))
        )
        assert restored.total > 0
        manifest = json.load(
            open(str(tmp_path / "dataset.manifest.json"))
        )
        assert (
            manifest["validation"]["quarantined_total"] == restored.dropped
        )
