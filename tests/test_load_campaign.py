"""Overload chaos drills: the load-aware campaign end to end.

The headline scenario ISSUE'd from §2: the *same seeded flash crowd*
under the ``withdraw`` policy reproduces the hard-withdrawal behavior
the paper warns about (routes withdrawn, latency pinned by reroute
penalties, never recovering), while ``fastroute`` converges — shed
fractions stay in [0, 1], no route is withdrawn, and tail latency ends
strictly better.  Both runs stay bit-identical between serial and
4-shard execution on every engine (dataset digest, quarantine digest,
and trace data-digest), and the run manifest / exports carry the
per-front-end load block.
"""

import json

import pytest

from repro.analysis.load import load_latency_tradeoff, shed_traffic_fractions
from repro.errors import AnalysisError, ConfigurationError
from repro.clients.population import ClientPopulationConfig
from repro.faults import FaultPlan
from repro.measurement.export import (
    load_dataset,
    recover_dataset,
    save_dataset,
)
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.episodes import OverloadPlan
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import build_run_manifest

pytestmark = pytest.mark.overload

#: Tight-but-not-degenerate provisioning: the flash crowd overloads its
#: target several times over, everything else starts within capacity.
HEADROOM = 1.25

FLASH_PLAN = "flash-crowd:1@1"


@pytest.fixture(scope="module")
def load_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=2015,
            population=ClientPopulationConfig(prefix_count=60),
            calendar=SimulationCalendar(num_days=4),
        )
    )


def _campaign(policy: str, **overrides) -> CampaignConfig:
    overrides.setdefault("engine", "vectorized")
    return CampaignConfig(
        frontend_capacity=HEADROOM,
        overload_plan=OverloadPlan.from_spec(FLASH_PLAN),
        load_policy=policy,
        **overrides,
    )


@pytest.fixture(scope="module")
def withdraw_dataset(load_scenario):
    return CampaignRunner(load_scenario, _campaign("withdraw")).run()


@pytest.fixture(scope="module")
def fastroute_dataset(load_scenario):
    return CampaignRunner(load_scenario, _campaign("fastroute")).run()


class TestConfigValidation:
    def test_capacity_must_exceed_one(self):
        with pytest.raises(ConfigurationError, match="frontend_capacity"):
            CampaignConfig(frontend_capacity=1.0)

    def test_overload_plan_requires_capacity(self):
        with pytest.raises(ConfigurationError, match="frontend_capacity"):
            CampaignConfig(
                overload_plan=OverloadPlan.from_spec(FLASH_PLAN)
            )

    def test_load_policy_requires_capacity(self):
        with pytest.raises(ConfigurationError, match="frontend_capacity"):
            CampaignConfig(load_policy="fastroute")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="load policy"):
            CampaignConfig(frontend_capacity=1.5, load_policy="panic")


class TestChaosHeadline:
    def test_withdraw_reproduces_section2_cascade(
        self, load_scenario, withdraw_dataset
    ):
        """The flash crowd hard-withdraws its target, permanently."""
        summary = withdraw_dataset.load_summary
        days = summary["days"]
        # Surge day: the target blows well past capacity.
        assert days[1]["max_utilization"] > 2.0
        # One-day control delay, then withdrawal — and it never returns.
        assert not days[0]["withdrawn"] and not days[1]["withdrawn"]
        assert days[2]["withdrawn"]
        assert set(days[2]["withdrawn"]) <= set(days[3]["withdrawn"])
        # The withdrawn front-end's clients were rerouted.
        assert days[2]["rerouted_clients"] > 0
        withdrawn_days = [
            stats["withdrawn_day"]
            for stats in summary["frontends"].values()
            if stats["withdrawn_day"] is not None
        ]
        assert withdrawn_days

    def test_withdraw_run_is_deterministic(
        self, load_scenario, withdraw_dataset
    ):
        again = CampaignRunner(load_scenario, _campaign("withdraw")).run()
        assert again.digest() == withdraw_dataset.digest()
        assert again.load_summary == withdraw_dataset.load_summary

    def test_fastroute_converges_with_bounded_sheds(
        self, fastroute_dataset
    ):
        """Shedding reacts instead: bounded fractions, zero withdrawals."""
        summary = fastroute_dataset.load_summary
        assert all(not row["withdrawn"] for row in summary["days"])
        assert any(
            row["shedding_frontends"] > 0 for row in summary["days"]
        )
        for stats in summary["frontends"].values():
            assert 0.0 <= stats["peak_shed_fraction"] <= 1.0
            assert stats["withdrawn_day"] is None
        shed = shed_traffic_fractions(fastroute_dataset)
        assert shed.peak_shed_fraction > 0.0
        assert shed.total_withdrawn == 0

    def test_fastroute_ends_with_better_tail_latency(
        self, withdraw_dataset, fastroute_dataset
    ):
        """Once the surge passes, shedding recovers; withdrawal cannot."""
        withdraw_rows = load_latency_tradeoff(withdraw_dataset).rows
        fastroute_rows = load_latency_tradeoff(fastroute_dataset).rows
        assert (
            fastroute_rows[-1].anycast_p95_ms
            < withdraw_rows[-1].anycast_p95_ms
        )

    def test_policies_share_the_same_compiled_drill(
        self, withdraw_dataset, fastroute_dataset
    ):
        assert (
            withdraw_dataset.load_summary["events"]
            == fastroute_dataset.load_summary["events"]
        )


class TestShardAndEngineParity:
    @pytest.mark.parametrize("engine", ["reference", "vectorized", "matrix"])
    @pytest.mark.parametrize("policy", ["withdraw", "fastroute"])
    def test_serial_matches_four_shards(self, load_scenario, engine, policy):
        """Digest, quarantine, and trace parity — serial vs 4 shards.

        The record-corrupt faults keep the quarantine log non-trivial so
        its digest comparison actually checks something.
        """
        cfg = _campaign(
            policy,
            engine=engine,
            fault_plan=FaultPlan.from_spec("record-corrupt:2"),
        )
        serial = CampaignRunner(load_scenario, cfg)
        serial_dataset = serial.run()
        sharded = ParallelCampaignRunner(load_scenario, cfg, workers=4)
        sharded_dataset = sharded.run()

        assert sharded_dataset.digest() == serial_dataset.digest()
        assert sharded_dataset.load_summary == serial_dataset.load_summary
        assert serial.quarantine.counts  # the faults actually fired
        assert (
            sharded.quarantine.digest() == serial.quarantine.digest()
        )
        serial_trace = serial.telemetry.snapshot().trace
        sharded_trace = sharded.telemetry.snapshot().trace
        assert serial_trace is not None and sharded_trace is not None
        assert sharded_trace.digest() == serial_trace.digest()

    def test_vectorized_and_matrix_bit_identical(self, load_scenario):
        digests = {
            engine: CampaignRunner(
                load_scenario, _campaign("fastroute", engine=engine)
            )
            .run()
            .digest()
            for engine in ("vectorized", "matrix")
        }
        assert digests["vectorized"] == digests["matrix"]

    def test_capacity_off_unaffected(self, load_scenario):
        """The load machinery is fully gated: off == the historical path."""
        plain = CampaignRunner(
            load_scenario, CampaignConfig(engine="vectorized")
        ).run()
        assert plain.load_summary is None
        with pytest.raises(AnalysisError, match="frontend-capacity"):
            load_latency_tradeoff(plain)


class TestTelemetryAndPersistence:
    def test_manifest_carries_load_block(self, load_scenario):
        runner = CampaignRunner(load_scenario, _campaign("fastroute"))
        dataset = runner.run()
        manifest = build_run_manifest(
            runner.telemetry.snapshot(), dataset=dataset
        )
        load_block = manifest["load"]
        assert load_block["policy"] == "fastroute"
        assert load_block["headroom"] == HEADROOM
        for stats in load_block["frontends"].values():
            assert "peak_utilization" in stats
            assert "peak_shed_fraction" in stats
        json.dumps(manifest)  # JSON-clean end to end

    def test_load_gauges_published(self, load_scenario):
        runner = CampaignRunner(load_scenario, _campaign("fastroute"))
        runner.run()
        gauges = runner.telemetry.snapshot().gauges
        assert gauges["load.peak_utilization"]["value"] > 1.0
        assert gauges["load.peak_shed_fraction"]["value"] > 0.0

    def test_export_round_trips_load_summary(
        self, fastroute_dataset, tmp_path
    ):
        path = str(tmp_path / "load.dataset.json")
        save_dataset(fastroute_dataset, path)
        restored = load_dataset(path)
        assert restored.load_summary == fastroute_dataset.load_summary
        assert restored.digest() == fastroute_dataset.digest()
        # The framed header carries it too, not only the sidecar.
        framed = recover_dataset(path)[0]
        assert framed.load_summary == fastroute_dataset.load_summary

    def test_analyze_figures_render(self, fastroute_dataset):
        tradeoff = load_latency_tradeoff(fastroute_dataset).format()
        assert "load-vs-latency" in tradeoff
        assert "flash-crowd" in tradeoff
        shed = shed_traffic_fractions(fastroute_dataset).format()
        assert "shed-traffic" in shed
