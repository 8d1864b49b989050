"""The perf-history ledger and its regression gate.

Covers record construction from telemetry snapshots, the atomic ledger
round-trip, and the gate semantics ``tools/bench_history.py`` relies
on: groups with fewer than two records pass (non-blocking bootstrap),
>threshold throughput/phase regressions fail, a changed dataset digest
fails, sub-noise-floor phase jitter passes, and baselines never cross
group boundaries, worker counts included.
"""

import json

import pytest

from repro.clients.population import ClientPopulationConfig
from repro.identity import run_context
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig
from repro.telemetry import Telemetry
from repro.telemetry.history import (
    HISTORY_FORMAT_VERSION,
    BenchHistory,
    PerfRecord,
    check_history,
    compare_records,
    format_history_report,
    host_fingerprint,
    record_from_snapshot,
)


def make_record(
    rate: float = 1000.0,
    phases=None,
    label: str = "bench",
    engine: str = "vectorized",
    host: str = "host-a",
    config_hash: str = "cfg",
    dataset_digest=None,
    workers: int = 1,
) -> PerfRecord:
    return PerfRecord(
        label=label,
        engine=engine,
        host=host,
        config_hash=config_hash,
        recorded_at="2026-08-08T00:00:00+00:00",
        wall_seconds=1.0,
        beacons_per_second=rate,
        phase_seconds=dict(phases or {"campaign": 1.0}),
        dataset_digest=dataset_digest,
        workers=workers,
    )


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------


def test_record_from_campaign_snapshot():
    scenario = Scenario.build(
        ScenarioConfig(
            seed=3,
            population=ClientPopulationConfig(prefix_count=24),
            calendar=SimulationCalendar(num_days=1),
        )
    )
    runner = CampaignRunner(scenario, CampaignConfig(engine="vectorized"))
    dataset = runner.run()
    snapshot = runner.telemetry.snapshot()

    record = record_from_snapshot(snapshot, "unit", dataset=dataset)

    assert record.label == "unit"
    assert record.engine == "vectorized"
    assert record.workers == 1
    assert record.host == host_fingerprint()
    assert record.wall_seconds > 0
    assert record.beacons_per_second > 0
    assert "campaign" in record.phase_seconds
    assert record.dataset_digest == dataset.digest()


def test_record_round_trip():
    record = make_record(
        phases={"campaign": 2.0, "campaign/day": 1.5}, workers=2
    )
    assert PerfRecord.from_obj(record.to_obj()) == record


def test_worker_count_comes_from_the_run_context():
    # config_hash is the data identity, which no worker count moves, so
    # the record's own worker count keeps a serial and a 2-worker run of
    # one configuration in separate groups.
    config = ScenarioConfig(seed=3)
    serial, sharded = (
        record_from_snapshot(
            Telemetry(
                run_context(config, CampaignConfig(workers=workers))
            ).snapshot(),
            "repro-run",
        )
        for workers in (1, 2)
    )
    assert serial.config_hash == sharded.config_hash
    assert (serial.workers, sharded.workers) == (1, 2)
    assert serial.group_key() != sharded.group_key()


# ----------------------------------------------------------------------
# Ledger persistence
# ----------------------------------------------------------------------


def test_ledger_save_load_round_trip(tmp_path):
    path = str(tmp_path / "BENCH_history.json")
    history = BenchHistory([make_record(1000.0), make_record(1100.0)])
    history.save(path)

    loaded = BenchHistory.load(path)
    assert loaded.records == history.records

    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    assert obj["format_version"] == HISTORY_FORMAT_VERSION


def test_ledger_missing_file_is_empty(tmp_path):
    assert BenchHistory.load(str(tmp_path / "nope.json")).records == []


def test_ledger_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "records": []}')
    with pytest.raises(ValueError):
        BenchHistory.load(str(path))


# ----------------------------------------------------------------------
# Gate semantics
# ----------------------------------------------------------------------


def test_single_record_passes_without_baseline():
    results = check_history(BenchHistory([make_record()]))
    (result,) = results
    assert result.ok
    assert not result.comparable
    assert "no baseline" in result.notes[0]


def test_throughput_regression_fails():
    history = BenchHistory(
        [make_record(1000.0), make_record(1010.0), make_record(700.0)]
    )
    (result,) = check_history(history, threshold=0.20)
    assert not result.ok
    assert "throughput regressed" in result.failures[0]


def test_small_slowdown_passes():
    history = BenchHistory([make_record(1000.0), make_record(900.0)])
    (result,) = check_history(history, threshold=0.20)
    assert result.ok


def test_phase_regression_fails():
    history = BenchHistory(
        [
            make_record(phases={"campaign": 1.0}),
            make_record(phases={"campaign": 1.0}),
            make_record(phases={"campaign": 1.5}),
        ]
    )
    (result,) = check_history(history, threshold=0.20)
    assert not result.ok
    assert "phase 'campaign' regressed" in result.failures[0]


def test_noise_floor_absorbs_tiny_phase_jitter():
    # 2x relative growth but only 20ms absolute: below the 50ms floor.
    history = BenchHistory(
        [
            make_record(phases={"campaign": 1.0, "flush": 0.02}),
            make_record(phases={"campaign": 1.0, "flush": 0.04}),
        ]
    )
    (result,) = check_history(history, threshold=0.20)
    assert result.ok


def test_dataset_digest_change_fails_even_when_faster():
    history = BenchHistory(
        [
            make_record(1000.0, dataset_digest="a" * 64),
            make_record(1000.0, dataset_digest="a" * 64),
            make_record(1500.0, dataset_digest="b" * 64),
        ]
    )
    (result,) = check_history(history)
    assert not result.ok
    assert result.failures == (
        f"dataset digest changed: {'b' * 16} vs baseline {'a' * 16}",
    )


def test_dataset_digest_compared_only_when_both_present():
    digest = "a" * 64
    for records in (
        [make_record(dataset_digest=digest), make_record()],
        [make_record(), make_record(dataset_digest=digest)],
        [make_record(dataset_digest=digest)] * 2,
    ):
        (result,) = check_history(BenchHistory(records))
        assert result.ok and result.comparable


def test_groups_never_cross_compare():
    # A catastrophic "regression" against a different engine's, or a
    # different worker count's, records must not fail: the groups are
    # disjoint, so both lack baselines.
    for fast, slow in (
        ({"engine": "matrix"}, {"engine": "reference"}),
        ({"workers": 1}, {"workers": 2}),
    ):
        history = BenchHistory(
            [make_record(10_000.0, **fast), make_record(100.0, **slow)]
        )
        results = check_history(history)
        assert len(results) == 2, (fast, slow)
        assert all(result.ok for result in results)
        assert all(not result.comparable for result in results)


def test_baseline_is_median_of_window():
    # One slow outlier in the baseline must not drag the median down.
    rates = [1000.0, 1005.0, 400.0, 995.0, 1002.0, 998.0]
    history = BenchHistory(
        [make_record(rate) for rate in rates] + [make_record(990.0)]
    )
    (result,) = check_history(history, threshold=0.20, window=5)
    assert result.baseline_size == 5
    assert result.ok


def test_compare_records_empty_baseline_is_advisory():
    result = compare_records(make_record(), [])
    assert result.ok and not result.comparable


def test_format_history_report():
    history = BenchHistory([make_record(1000.0), make_record(500.0)])
    results = check_history(history)
    report = format_history_report(results)
    assert "== bench history gate ==" in report
    assert "FAIL" in report
    assert format_history_report([]) == "bench history: no records\n"
