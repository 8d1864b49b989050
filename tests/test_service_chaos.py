"""Chaos parity: a killed-and-resumed service equals an uninterrupted one.

The headline crash/restart guarantee of the live service: a run that is
chaos-killed mid-stream and resumed from its checkpoint produces
**bit-identical** predictor outputs, rolling dataset digest, and
quarantine digest to a run that was never interrupted.  These tests
drive that guarantee through the in-process API (single and repeated
crashes, transient-fault auto-retry, mid-day checkpoint cadence) and
through the ``repro replay`` CLI (crash → exit code 3 → ``--resume-from``
→ digests match), over a stream deliberately dirtied with ``record-*``
faults so the quarantine digest is a meaningful part of the identity.
"""

import dataclasses
import json
import os

import pytest

from repro import cli
from repro.clients.population import ClientPopulationConfig
from repro.errors import CheckpointError
from repro.faults.inject import InjectedCrashError
from repro.faults.plan import FaultPlan
from repro.measurement.export import save_dataset
from repro.service import LiveService, dirty_events, events_from_dataset
from repro.service.checkpoint import service_checkpoint_path
from repro.service.ingest import ServiceConfig
from repro.simulation.campaign import CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig

pytestmark = [pytest.mark.service, pytest.mark.chaos]

SEED = 47
NUM_DAYS = 3

#: The worker fault is spec index 0 in every plan so the ``record-*``
#: specs keep their indexes (record-fault cells derive from spec index):
#: every plan here dirties exactly the same stream positions.
CRASH_PLAN = "crash:1,record-corrupt:4,record-clock-skew:3"
DOUBLE_CRASH_PLAN = "crash:2,record-corrupt:4,record-clock-skew:3"
TRANSIENT_PLAN = "exception:2,record-corrupt:4,record-clock-skew:3"
RECORD_PLAN = "record-corrupt:4,record-clock-skew:3"


@pytest.fixture(scope="module")
def chaos_dataset():
    scenario = Scenario.build(
        ScenarioConfig(
            seed=SEED,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=NUM_DAYS),
        )
    )
    return CampaignRunner(scenario).run()


@pytest.fixture(scope="module")
def dirty_stream(chaos_dataset):
    """The recorded stream with record faults applied once, up front.

    Every run in this module consumes this same damaged stream, so the
    only variable under test is the service's fault handling.
    """
    events = events_from_dataset(chaos_dataset)
    return dirty_events(
        chaos_dataset, events, FaultPlan.from_spec(RECORD_PLAN), SEED
    )


@pytest.fixture(scope="module")
def baseline(chaos_dataset, dirty_stream):
    """The uninterrupted run the chaos runs must reproduce."""
    service = LiveService(
        ServiceConfig(seed=SEED),
        num_days=NUM_DAYS,
        source_fingerprint=chaos_dataset.digest(),
    )
    result = service.run_stream(list(dirty_stream))
    assert result.quarantine_summary["dropped"] > 0
    return result


def flip_last_payload_byte(directory):
    """Damage the service checkpoint's payload (not its header)."""
    path = service_checkpoint_path(str(directory))
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) - 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x01]))


def assert_bit_identical(result, baseline):
    assert result.predictions_digest == baseline.predictions_digest
    assert result.stream_digest == baseline.stream_digest
    assert result.quarantine_digest == baseline.quarantine_digest
    assert result.predictions == baseline.predictions
    assert result.beacons_admitted == baseline.beacons_admitted
    assert result.days_closed == baseline.days_closed


class TestCrashResume:
    def make_config(self, plan, tmp_path, **overrides):
        return ServiceConfig(
            seed=SEED,
            fault_plan=FaultPlan.from_spec(plan),
            checkpoint_dir=str(tmp_path / "ckpt"),
            **overrides,
        )

    def run_until_complete(
        self, config, chaos_dataset, dirty_stream, max_deaths=5
    ):
        """Simulate process deaths: a fresh LiveService per crash."""
        deaths = 0
        while True:
            service = LiveService(
                config if deaths == 0
                else dataclasses.replace(config, resume=True),
                num_days=NUM_DAYS,
                source_fingerprint=chaos_dataset.digest(),
            )
            try:
                return deaths, service.run_stream(list(dirty_stream))
            except InjectedCrashError:
                deaths += 1
                assert deaths <= max_deaths

    def test_crash_then_resume_is_bit_identical(
        self, chaos_dataset, dirty_stream, baseline, tmp_path
    ):
        config = self.make_config(CRASH_PLAN, tmp_path)
        deaths, result = self.run_until_complete(
            config, chaos_dataset, dirty_stream
        )
        assert deaths == 1
        assert result.attempt == 1
        assert_bit_identical(result, baseline)

    def test_repeated_crashes_still_converge(
        self, chaos_dataset, dirty_stream, baseline, tmp_path
    ):
        config = self.make_config(DOUBLE_CRASH_PLAN, tmp_path)
        deaths, result = self.run_until_complete(
            config, chaos_dataset, dirty_stream
        )
        assert deaths == 2
        assert_bit_identical(result, baseline)

    def test_mid_day_checkpoint_cadence_preserves_identity(
        self, chaos_dataset, dirty_stream, baseline, tmp_path
    ):
        """Fine-grained every-N-events spills resume mid-day cleanly."""
        config = self.make_config(
            CRASH_PLAN, tmp_path, checkpoint_every_events=500
        )
        deaths, result = self.run_until_complete(
            config, chaos_dataset, dirty_stream
        )
        assert deaths == 1
        assert result.checkpoints_written > NUM_DAYS
        assert result.resumed_from_cursor > 0
        assert_bit_identical(result, baseline)

    def test_transient_faults_absorbed_by_retry(
        self, chaos_dataset, dirty_stream, baseline
    ):
        """Exceptions auto-retry in-process, no checkpoint needed."""
        service = LiveService(
            ServiceConfig(
                seed=SEED, fault_plan=FaultPlan.from_spec(TRANSIENT_PLAN)
            ),
            num_days=NUM_DAYS,
            source_fingerprint=chaos_dataset.digest(),
        )
        result = service.run_stream(list(dirty_stream))
        assert result.retries == 2
        assert_bit_identical(result, baseline)

    def test_checkpoint_with_different_identity_is_ignored(
        self, chaos_dataset, dirty_stream, tmp_path
    ):
        config = self.make_config(CRASH_PLAN, tmp_path)
        with pytest.raises(InjectedCrashError):
            LiveService(
                config,
                num_days=NUM_DAYS,
                source_fingerprint=chaos_dataset.digest(),
            ).run_stream(list(dirty_stream))
        # A semantically different service (other min_samples) must not
        # adopt the spilled state.
        other = dataclasses.replace(
            config,
            resume=True,
            fault_plan=None,
            predictor=dataclasses.replace(
                config.predictor, min_samples=5
            ),
        )
        service = LiveService(
            other,
            num_days=NUM_DAYS,
            source_fingerprint=chaos_dataset.digest(),
        )
        result = service.run_stream(list(dirty_stream))
        assert result.resumed_from_cursor == 0


    def test_tampered_checkpoint_fails_resume(
        self, chaos_dataset, dirty_stream, tmp_path
    ):
        config = self.make_config(CRASH_PLAN, tmp_path)
        with pytest.raises(InjectedCrashError):
            LiveService(
                config,
                num_days=NUM_DAYS,
                source_fingerprint=chaos_dataset.digest(),
            ).run_stream(list(dirty_stream))
        flip_last_payload_byte(config.checkpoint_dir)
        service = LiveService(
            dataclasses.replace(config, resume=True),
            num_days=NUM_DAYS,
            source_fingerprint=chaos_dataset.digest(),
        )
        with pytest.raises(CheckpointError, match="hash mismatch"):
            service.run_stream(list(dirty_stream))


class TestCliChaosParity:
    def test_cli_crash_exit_code_then_resume_matches_baseline(
        self, chaos_dataset, tmp_path
    ):
        dataset_path = tmp_path / "campaign.json"
        ckpt = tmp_path / "ckpt"
        save_dataset(chaos_dataset, str(dataset_path))

        crashed = tmp_path / "crashed.json"
        code = cli.main(
            [
                "replay", str(dataset_path),
                "--seed", str(SEED),
                "--fault-plan", CRASH_PLAN,
                "--checkpoint-dir", str(ckpt),
                "--manifest-out", str(crashed),
            ]
        )
        assert code == cli.EXIT_SERVICE_CRASHED
        assert not crashed.exists()

        resumed = tmp_path / "resumed.json"
        code = cli.main(
            [
                "replay", str(dataset_path),
                "--seed", str(SEED),
                "--fault-plan", CRASH_PLAN,
                "--resume-from", str(ckpt),
                "--manifest-out", str(resumed),
            ]
        )
        assert code == 0

        # The uninterrupted reference swaps the crash for a transient
        # fault at the same spec index: the record faults hit the same
        # cells and the exception is absorbed in-process.
        reference = tmp_path / "reference.json"
        code = cli.main(
            [
                "replay", str(dataset_path),
                "--seed", str(SEED),
                "--fault-plan", TRANSIENT_PLAN.replace(":2", ":1"),
                "--manifest-out", str(reference),
            ]
        )
        assert code == 0

        resumed_doc = json.loads(resumed.read_text())
        reference_doc = json.loads(reference.read_text())
        assert resumed_doc["digests"] == reference_doc["digests"]
        assert resumed_doc["attempt"] == 1
        assert resumed_doc["quarantine"]["dropped"] > 0

    def test_cli_tampered_checkpoint_exits_2(
        self, chaos_dataset, tmp_path, capsys
    ):
        dataset_path = tmp_path / "campaign.json"
        ckpt = tmp_path / "ckpt"
        save_dataset(chaos_dataset, str(dataset_path))
        common = [
            "replay", str(dataset_path),
            "--seed", str(SEED),
            "--fault-plan", CRASH_PLAN,
        ]
        code = cli.main(common + ["--checkpoint-dir", str(ckpt)])
        assert code == cli.EXIT_SERVICE_CRASHED
        flip_last_payload_byte(ckpt)
        capsys.readouterr()

        code = cli.main(common + ["--resume-from", str(ckpt)])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "hash mismatch" in lines[0]
