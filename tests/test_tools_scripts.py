"""Smoke tests for the calibration/diagnostic tools in tools/."""

import runpy
import sys

import pytest


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
