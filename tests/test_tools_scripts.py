"""Smoke tests for the calibration, diagnostic and CI tools in tools/."""

import json
import runpy
import sys

import pytest

from repro.telemetry import BenchHistory


@pytest.mark.parametrize(
    "script,argv",
    [
        ("tools/calibrate.py", ["calibrate.py", "60", "3", "5"]),
        ("tools/diagnose_structural.py", ["diagnose_structural.py", "60"]),
    ],
)
def test_tool_runs(script, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_diagnose_sources_runs(monkeypatch, capsys):
    # diagnose_sources builds a fixed 600-client scenario; shrink it by
    # patching the population config the script constructs.
    import repro.simulation.scenario as scenario_module
    from repro.clients.population import ClientPopulationConfig

    original = scenario_module.ScenarioConfig

    class Tiny(original):  # type: ignore[misc,valid-type]
        def __init__(self, *args, **kwargs):
            kwargs["population"] = ClientPopulationConfig(prefix_count=60)
            super().__init__(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and getattr(module, "ScenarioConfig", None) is original:
            monkeypatch.setattr(module, "ScenarioConfig", Tiny)
    monkeypatch.setattr(sys, "argv", ["diagnose_sources.py"])
    runpy.run_path("tools/diagnose_sources.py", run_name="__main__")
    assert "overall" in capsys.readouterr().out


def test_claims_gate_flags_drift_both_ways(monkeypatch):
    """``make_experiments.py --check`` fails on any change to the set of
    out-of-band claims: a claim leaving its band, or a known deviation
    coming back into it."""
    import dataclasses

    # Restoring sys.path at teardown also drops the tool's own insert.
    monkeypatch.syspath_prepend("benchmarks")
    tool = runpy.run_path("tools/make_experiments.py")
    row = tool["ComparisonRow"]
    claim_drift = tool["claim_drift"]
    rows = [
        row(experiment, metric, "", "", False)
        for experiment, metric in sorted(tool["EXPECTED_DEVIATIONS"])
    ]
    rows += [row("Fig 3", "held", "", "", True), row("§4", "info", "", "", None)]
    assert claim_drift(rows) == []

    left = rows + [row("Fig 9", "moved", "", "", False)]
    assert claim_drift(left) == ["claim left its band: Fig 9 'moved'"]

    fixed = [dataclasses.replace(rows[0], within_band=True)] + rows[1:]
    assert claim_drift(fixed) == [
        "known deviation no longer out of band: "
        f"{rows[0].experiment} {rows[0].metric!r}"
    ]


def test_perf_smoke_runs_every_leg(tmp_path, capsys):
    """The CI perf smoke at a tiny shape: every leg runs, the manifest
    holds the memory accounting, and the ledger gets one record per
    timed leg.  Throughput and memory ratios at this shape are noise, so
    the test opens the gates that CI holds at 3.0x, 2.0x, 10% and 1.25."""
    manifest = tmp_path / "perf-smoke.manifest.json"
    ledger = tmp_path / "BENCH_history.json"
    tool = runpy.run_path("tools/perf_smoke.py")
    assert tool["main"]([
        "--prefixes", "30", "--days", "1",
        "--memory-populations", "20,60",
        "--min-speedup", "0", "--min-matrix-speedup", "0",
        "--max-load-overhead", "1", "--memory-slack", "1000",
        "--rss-manifest-out", str(manifest),
        "--history-out", str(ledger),
    ]) == 0
    out = capsys.readouterr().out
    assert "matrix serial == vectorized serial digest: ok" in out

    document = json.loads(manifest.read_text(encoding="utf-8"))
    assert set(document["peak_traced_bytes"]) == {
        "reference", "vectorized", "matrix",
    }
    assert all(peak > 0 for peak in document["peak_traced_bytes"].values())
    assert document["peak_rss_bytes"] > 0
    memory = document["memory_leg"]
    assert memory["populations"] == [20, 60]
    assert set(memory["peak_traced_bytes"]) == {"20", "60"}
    assert memory["limit"] == pytest.approx(3.0 * 1000)

    records = BenchHistory.load(str(ledger)).records
    assert [record.engine for record in records] == [
        "reference", "vectorized", "matrix", "vectorized",
    ]
    assert all(record.label == "perf-smoke" for record in records)
    # Each leg is its own ledger group: the load leg's capacity, drill
    # and policy are data settings, so its config hash differs from the
    # capacity-off vectorized leg's.
    assert len({record.group_key() for record in records}) == 4
    assert records[3].config_hash != records[1].config_hash
    assert records[2].dataset_digest == records[1].dataset_digest


def test_memory_smoke_writes_its_verdict(tmp_path, capsys):
    """The CI memory smoke at a tiny shape; the flatness gate (1.15x in
    CI) is opened because peaks at this shape are noise."""
    manifest = tmp_path / "memory-smoke.manifest.json"
    tool = runpy.run_path("tools/memory_smoke.py")
    assert tool["main"]([
        "--clients", "3000,9000", "--prefixes", "20", "--days", "1",
        "--slack", "1000",
        "--manifest-out", str(manifest),
    ]) == 0
    assert "memory smoke: peak" in capsys.readouterr().out

    verdict = json.loads(manifest.read_text(encoding="utf-8"))[
        "memory_smoke"
    ]
    assert verdict["clients"] == [3000, 9000]
    assert verdict["measurement_growth"] >= 1.5
    assert set(verdict["sketch"]) == {"3000", "9000"}
    assert all(
        leg["peak_traced_bytes"] > 0 for leg in verdict["sketch"].values()
    )
    assert verdict["limit"] == pytest.approx(1001.0)
    assert verdict["peak_rss_bytes"] > 0
