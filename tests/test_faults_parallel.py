"""Chaos tests: fault injection, retries, degradation, and resume.

The central invariant under test: a campaign that survives injected
faults via retries produces a dataset *bit-identical* to the fault-free
run (same :meth:`StudyDataset.digest`), because every retry re-derives
the exact same per-(client, day) RNG streams.  A campaign that cannot
survive either fails loudly (:class:`ShardFailureError` naming the shard
and attempt count) or — with ``allow_partial`` — degrades to a dataset
that declares its missing client ranges.
"""

import os

import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ShardFailureError,
)
from repro.clients.population import ClientPopulationConfig
from repro.faults import (
    DEFAULT_HANG_SECONDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedTransientError,
    WorkerFaultInjector,
    corrupt_payload,
)
from repro.measurement import storage
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.checkpoint import (
    load_shard_checkpoint,
    shard_checkpoint_path,
    write_shard_checkpoint,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.simulation.transport import encode_shard_payload
from repro.telemetry import build_run_manifest

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def chaos_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=23,
        population=ClientPopulationConfig(prefix_count=40),
        calendar=SimulationCalendar(num_days=2),
    )


@pytest.fixture(scope="module")
def chaos_scenario(chaos_config) -> Scenario:
    return Scenario.build(chaos_config)


@pytest.fixture(scope="module")
def clean_digest(chaos_scenario) -> str:
    """Digest of the fault-free serial run — the golden fingerprint."""
    return CampaignRunner(chaos_scenario).run().digest()


def _shard_payload(scenario, client_range):
    """One shard's transport bytes and dataset digest, as a worker
    would ship them."""
    runner = CampaignRunner(scenario, client_slice=client_range)
    dataset = runner.run()
    payload = encode_shard_payload(
        dataset, runner.telemetry.snapshot(), runner.quarantine
    )
    return payload, dataset.digest()


def _read_spill(directory, shard_index):
    """A shard checkpoint's envelope header and payload, unverified."""
    with open(shard_checkpoint_path(directory, shard_index), "rb") as handle:
        header = storage._parse_frame(
            handle.readline().decode("ascii").rstrip("\n")
        )
        return header, handle.read()


def _chaos_campaign(spec: str, **overrides) -> CampaignConfig:
    overrides.setdefault("max_retries", 3)
    overrides.setdefault("retry_backoff_seconds", 0.0)
    return CampaignConfig(fault_plan=FaultPlan.from_spec(spec), **overrides)


class TestFaultPlanParsing:
    def test_spec_grammar(self):
        plan = FaultPlan.from_spec("crash:2,hang, exception:3@0 ,merge:1@7")
        assert plan.specs == (
            FaultSpec(FaultKind.CRASH, count=2),
            FaultSpec(FaultKind.HANG, count=1),
            FaultSpec(FaultKind.EXCEPTION, count=3, shard=0),
            FaultSpec(FaultKind.MERGE, count=1, shard=7),
        )
        assert plan.spec_string() == "crash:2,hang:1,exception:3@0,merge:1@7"

    def test_malformed_specs_rejected(self):
        for bad in ("gremlin:1", "crash:x", "crash:1@y", "", " , ", "crash:0"):
            with pytest.raises(ConfigurationError):
                FaultPlan.from_spec(bad)

    def test_compile_is_deterministic(self):
        plan = FaultPlan.from_spec("crash:2,exception:1")
        first = plan.compile(23, shards=4).firing_points()
        second = plan.compile(23, shards=4).firing_points()
        assert first == second
        assert len(first) == 3

    def test_compile_depends_on_seed_and_shards_only(self):
        plan = FaultPlan.from_spec("crash:3")
        assert (
            plan.compile(1, shards=4).firing_points()
            != plan.compile(2, shards=4).firing_points()
            or plan.compile(1, shards=2).firing_points()
            != plan.compile(1, shards=4).firing_points()
        )

    def test_faults_stack_per_shard(self):
        plan = FaultPlan.from_spec("crash:3@1")
        compiled = plan.compile(23, shards=2)
        assert compiled.firing_points() == (
            (1, 0, "crash"), (1, 1, "crash"), (1, 2, "crash"),
        )
        assert compiled.faults_on(1) == 3
        assert compiled.fault_for(1, 3) is None

    def test_pinned_shard_wraps_modulo(self):
        compiled = FaultPlan.from_spec("merge:1@7").compile(23, shards=2)
        assert compiled.fault_for(1, 0) is FaultKind.MERGE

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec("crash:1").compile(23, shards=0)


class TestWorkerFaultInjector:
    def test_crash_raises_at_worker_start(self):
        injector = WorkerFaultInjector(
            FaultKind.CRASH, seed=23, shard_index=0, attempt=0
        )
        with pytest.raises(InjectedCrashError):
            injector.on_worker_start()

    def test_exception_fires_on_exactly_one_day(self):
        injector = WorkerFaultInjector(
            FaultKind.EXCEPTION, seed=23, shard_index=0, attempt=0
        )
        fired = []
        for day in range(5):
            try:
                injector.on_day(day, 5)
            except InjectedTransientError:
                fired.append(day)
        assert len(fired) == 1

    def test_hang_sleeps_for_configured_duration(self):
        naps = []
        injector = WorkerFaultInjector(
            FaultKind.HANG, seed=23, shard_index=0, attempt=0,
            hang_seconds=4.5, sleep=naps.append,
        )
        injector.hang_before_return()
        assert naps == [4.5]

    def test_corrupt_transforms_payload(self):
        payload = b"shard payload bytes"
        injector = WorkerFaultInjector(
            FaultKind.CORRUPT, seed=23, shard_index=0, attempt=0
        )
        mangled = injector.transform_payload(payload)
        assert mangled != payload and len(mangled) == len(payload)
        assert corrupt_payload(b"") == b"\xff"

    def test_no_fault_is_inert(self):
        injector = WorkerFaultInjector(
            None, seed=23, shard_index=0, attempt=0,
            sleep=lambda _: pytest.fail("slept without a hang fault"),
        )
        injector.on_worker_start()
        for day in range(3):
            injector.on_day(day, 3)
        injector.hang_before_return()
        assert injector.transform_payload(b"x") == b"x"
        assert not injector.fires_on_merge

    def test_default_hang_duration(self):
        injector = WorkerFaultInjector(
            FaultKind.HANG, seed=23, shard_index=0, attempt=0
        )
        assert injector.hang_seconds == DEFAULT_HANG_SECONDS


class TestChaosRecovery:
    """Per fault kind: retried runs match the fault-free digest exactly."""

    @pytest.mark.parametrize(
        "spec", ["crash:1", "exception:1", "corrupt:1", "merge:1"]
    )
    def test_retried_run_is_bit_identical(
        self, chaos_scenario, clean_digest, spec
    ):
        runner = ParallelCampaignRunner(
            chaos_scenario, _chaos_campaign(spec), workers=2
        )
        dataset = runner.run()
        assert dataset.digest() == clean_digest
        assert not dataset.is_partial
        counters = runner.telemetry.snapshot().counters
        assert counters["faults.injected_total"] == 1
        assert counters["shard.retries_total"] == 1
        assert counters["shard.failures_total"] == 1
        assert len(runner.fired_faults) == 1
        assert runner.fired_faults[0][2] == spec.split(":")[0]

    def test_hang_recovered_via_shard_timeout(
        self, chaos_scenario, clean_digest
    ):
        # The timeout must sit well above a loaded machine's clean-shard
        # runtime (spurious timeouts cascade into retry exhaustion) but
        # well below the injected hang.
        plan = FaultPlan.from_spec("hang:1", hang_seconds=12.0)
        runner = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(
                fault_plan=plan, max_retries=2, shard_timeout=3.0,
                retry_backoff_seconds=0.0,
            ),
            workers=2,
        )
        assert runner.run().digest() == clean_digest
        assert runner.fired_faults[0][2] == "hang"

    def test_stacked_mixed_faults_recovered(
        self, chaos_scenario, clean_digest
    ):
        runner = ParallelCampaignRunner(
            chaos_scenario,
            _chaos_campaign("crash:1,corrupt:1,merge:1,exception:1"),
            workers=2,
        )
        assert runner.run().digest() == clean_digest
        counters = runner.telemetry.snapshot().counters
        assert counters["faults.injected_total"] == 4
        assert counters["shard.retries_total"] == 4

    def test_single_worker_inline_recovery(
        self, chaos_scenario, clean_digest
    ):
        runner = ParallelCampaignRunner(
            chaos_scenario, _chaos_campaign("exception:1"), workers=1
        )
        assert runner.run().digest() == clean_digest
        assert runner.workers == 1

    def test_serial_runner_surfaces_injected_fault(self, chaos_scenario):
        # Without the resilient executor there is no retry: the injected
        # fault surfaces as its typed error.
        runner = CampaignRunner(
            chaos_scenario,
            CampaignConfig(fault_plan=FaultPlan.from_spec("crash:1")),
        )
        with pytest.raises(InjectedCrashError):
            runner.run()


class TestExhaustion:
    def test_exhausted_retries_raise_typed_error(self, chaos_scenario):
        runner = ParallelCampaignRunner(
            chaos_scenario,
            _chaos_campaign("crash:3@1", max_retries=2),
            workers=2,
        )
        with pytest.raises(ShardFailureError) as excinfo:
            runner.run()
        error = excinfo.value
        assert error.shard_index == 1
        assert error.attempts == 3
        assert error.client_range == (20, 40)
        assert "shard 1" in str(error)

    def test_allow_partial_degrades_with_declared_gaps(self, chaos_scenario):
        runner = ParallelCampaignRunner(
            chaos_scenario,
            _chaos_campaign("crash:3@1", max_retries=2, allow_partial=True),
            workers=2,
        )
        dataset = runner.run()
        assert dataset.is_partial
        assert dataset.missing_ranges() == ((20, 40),)
        assert dataset.coverage_fraction == pytest.approx(0.5)
        snapshot = runner.telemetry.snapshot()
        assert snapshot.gauges["campaign.client_coverage"]["value"] == (
            pytest.approx(0.5)
        )
        manifest = build_run_manifest(snapshot, dataset=dataset)
        assert manifest["missing_client_ranges"] == [[20, 40]]
        assert manifest["client_coverage"] == pytest.approx(0.5)

    def test_partial_digest_differs_from_full(
        self, chaos_scenario, clean_digest
    ):
        runner = ParallelCampaignRunner(
            chaos_scenario,
            _chaos_campaign("crash:3@1", max_retries=2, allow_partial=True),
            workers=2,
        )
        assert runner.run().digest() != clean_digest

    def test_all_shards_lost_yields_empty_partial(self, chaos_scenario):
        runner = ParallelCampaignRunner(
            chaos_scenario,
            _chaos_campaign(
                "crash:3@0,crash:3@1", max_retries=2, allow_partial=True
            ),
            workers=2,
        )
        dataset = runner.run()
        assert dataset.coverage_fraction == 0.0
        assert dataset.beacon_count == 0
        assert dataset.missing_ranges() == ((0, 40),)


class TestCheckpointResume:
    def test_resume_completes_partial_campaign(
        self, chaos_scenario, clean_digest, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        first = ParallelCampaignRunner(
            chaos_scenario,
            _chaos_campaign(
                "crash:3@1", max_retries=2, allow_partial=True,
                checkpoint_dir=checkpoint_dir,
            ),
            workers=2,
        )
        assert first.run().is_partial
        # One file per completed shard: no sidecar, no manifest.
        assert os.listdir(checkpoint_dir) == [
            os.path.basename(shard_checkpoint_path(checkpoint_dir, 0))
        ]

        second = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir, resume=True),
            workers=2,
        )
        dataset = second.run()
        assert dataset.digest() == clean_digest
        counters = second.telemetry.snapshot().counters
        assert counters["checkpoint.loaded_total"] == 1
        assert counters["checkpoint.saved_total"] == 1  # the re-run shard

    def test_corrupted_checkpoint_is_rerun_not_trusted(
        self, chaos_scenario, clean_digest, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        seeded = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir),
            workers=2,
        )
        assert seeded.run().digest() == clean_digest

        payload = shard_checkpoint_path(checkpoint_dir, 0)
        with open(payload, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff\xff")

        resumed = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir, resume=True),
            workers=2,
        )
        assert resumed.run().digest() == clean_digest
        counters = resumed.telemetry.snapshot().counters
        assert counters["checkpoint.invalid_total"] == 1
        assert counters["checkpoint.loaded_total"] == 1

    def test_mismatched_checkpoint_identity_is_ignored(
        self, chaos_scenario, tmp_path
    ):
        directory = str(tmp_path)
        payload, digest = _shard_payload(chaos_scenario, (0, 20))
        write_shard_checkpoint(
            directory, 0, (0, 20), payload, digest,
            seed=23, config_hash="abc",
        )
        clients = chaos_scenario.clients
        loaded = load_shard_checkpoint(
            directory, 0, (0, 20), seed=23, config_hash="abc",
            clients=clients,
        )
        assert loaded is not None
        assert loaded[0].digest() == digest
        # Different config hash, seed, or range: "not mine", never loaded.
        assert (
            load_shard_checkpoint(
                directory, 0, (0, 20), seed=23, config_hash="zzz",
                clients=clients,
            )
            is None
        )
        assert (
            load_shard_checkpoint(
                directory, 0, (0, 20), seed=24, config_hash="abc",
                clients=clients,
            )
            is None
        )
        assert (
            load_shard_checkpoint(
                directory, 0, (0, 21), seed=23, config_hash="abc",
                clients=clients,
            )
            is None
        )

    def test_wrong_digest_anchor_is_rejected_and_rerun(
        self, chaos_scenario, clean_digest, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        seeded = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir),
            workers=2,
        )
        assert seeded.run().digest() == clean_digest
        # Re-spill shard 0 with intact payload bytes (its hash checks
        # out) but a dataset-digest anchor that does not match them.
        header, payload = _read_spill(checkpoint_dir, 0)
        client_range = tuple(header["identity"]["client_range"])
        config_hash = header["identity"]["config_hash"]
        write_shard_checkpoint(
            checkpoint_dir, 0, client_range, payload, "0" * 64,
            seed=23, config_hash=config_hash,
        )
        with pytest.raises(CheckpointError, match="dataset digest"):
            load_shard_checkpoint(
                checkpoint_dir, 0, client_range, seed=23,
                config_hash=config_hash, clients=chaos_scenario.clients,
            )

        resumed = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir, resume=True),
            workers=2,
        )
        assert resumed.run().digest() == clean_digest
        counters = resumed.telemetry.snapshot().counters
        assert counters["checkpoint.invalid_total"] == 1
        assert counters["checkpoint.loaded_total"] == 1
        assert counters["checkpoint.saved_total"] == 1  # shard 0 re-ran

    def test_other_version_or_old_layout_reads_as_absent(
        self, chaos_scenario, clean_digest, tmp_path, monkeypatch
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        seeded = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir),
            workers=2,
        )
        assert seeded.run().digest() == clean_digest
        # Shard 0: an envelope of another format version.  Shard 1: only
        # the file names the retired layout used (a framed export plus a
        # JSON manifest per shard).
        header, payload = _read_spill(checkpoint_dir, 0)
        monkeypatch.setattr(storage, "CHECKPOINT_FORMAT_VERSION", 1)
        write_shard_checkpoint(
            checkpoint_dir, 0, tuple(header["identity"]["client_range"]),
            payload, header["anchors"]["dataset_digest"],
            seed=23, config_hash=header["identity"]["config_hash"],
        )
        monkeypatch.undo()
        os.remove(shard_checkpoint_path(checkpoint_dir, 1))
        for name in ("shard-0001.json", "shard-0001.manifest.json"):
            with open(os.path.join(checkpoint_dir, name), "w") as handle:
                handle.write("{}\n")

        resumed = ParallelCampaignRunner(
            chaos_scenario,
            CampaignConfig(checkpoint_dir=checkpoint_dir, resume=True),
            workers=2,
        )
        assert resumed.run().digest() == clean_digest
        counters = resumed.telemetry.snapshot().counters
        assert counters.get("checkpoint.invalid_total", 0) == 0
        assert counters.get("checkpoint.loaded_total", 0) == 0
        assert counters["checkpoint.saved_total"] == 2  # both re-ran

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(resume=True)


class TestEngineDifferential:
    """The same faulted campaign fires identically under both engines."""

    def test_firing_points_and_counters_match_across_engines(
        self, chaos_scenario
    ):
        spec = "crash:1,exception:1,merge:1"
        fault_counter_names = (
            "faults.injected_total",
            "shard.retries_total",
            "shard.failures_total",
        )
        results = {}
        for engine in ("reference", "vectorized"):
            clean = ParallelCampaignRunner(
                chaos_scenario, CampaignConfig(engine=engine), workers=2
            ).run()
            chaos = ParallelCampaignRunner(
                chaos_scenario,
                _chaos_campaign(spec, engine=engine),
                workers=2,
            )
            dataset = chaos.run()
            # Within an engine, surviving the plan is digest-neutral.
            assert dataset.digest() == clean.digest()
            counters = chaos.telemetry.snapshot().counters
            results[engine] = (
                chaos.fired_faults,
                {name: counters[name] for name in fault_counter_names},
                {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("faults.injected.")
                },
            )
        assert results["reference"] == results["vectorized"]
        fired = results["reference"][0]
        assert sorted(kind for _, _, kind in fired) == [
            "crash", "exception", "merge",
        ]


class TestCliResilienceFlags:
    def test_flags_build_campaign_config(self):
        from repro.cli import _campaign_config, build_parser

        args = build_parser().parse_args(
            [
                "run", "out.json",
                "--fault-plan", "crash:1,exception:2@0",
                "--max-retries", "5",
                "--shard-timeout", "2.5",
                "--allow-partial",
                "--resume-from", "/tmp/ckpt",
            ]
        )
        config = _campaign_config(args)
        assert config.fault_plan is not None
        assert config.fault_plan.spec_string() == "crash:1,exception:2@0"
        assert config.max_retries == 5
        assert config.shard_timeout == 2.5
        assert config.allow_partial is True
        assert config.checkpoint_dir == "/tmp/ckpt"
        assert config.resume is True

    def test_defaults_are_fault_free(self):
        from repro.cli import _campaign_config, build_parser

        args = build_parser().parse_args(["run", "out.json"])
        config = _campaign_config(args)
        assert config.fault_plan is None
        assert config.resume is False
        assert config.checkpoint_dir is None
