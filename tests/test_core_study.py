"""End-to-end tests: the full study produces every figure."""

import hashlib

import pytest

from repro.core.study import AnycastStudy
from repro.clients.population import ClientPopulationConfig
from repro.simulation.campaign import CampaignConfig
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import ScenarioConfig

#: SHA-256 of the formatted Figs 1, 2 and 4 (the nearest-front-end
#: rankings) of a 60 /24 x 2-day matrix-engine study at seed 7.
RANKED_FIGURE_SHA256 = {
    "fig1": "49cca91084d89a2eebdf22949f09090a3db5e2f8f76d84f4c6699a08cf3890ac",
    "fig2": "74bbcecbd9a67b30eeb01ed824e1073ed9aa131d3d9603aa7825eb87f19a777f",
    "fig4": "7c61fd1528a598a48295fb51346d5b5a5cb9626d768f98bf7d0bb0a3208c0959",
}


@pytest.fixture(scope="module")
def study():
    config = ScenarioConfig(
        seed=77,
        population=ClientPopulationConfig(prefix_count=120),
        calendar=SimulationCalendar(num_days=3),
    )
    return AnycastStudy(config)


def test_ranked_figure_text_is_pinned():
    study = AnycastStudy(
        ScenarioConfig(
            seed=7,
            population=ClientPopulationConfig(prefix_count=60),
            calendar=SimulationCalendar(num_days=2),
        ),
        campaign=CampaignConfig(engine="matrix"),
    )
    sections = {
        "fig1": study.fig1_diminishing_returns().format(),
        "fig2": study.fig2_client_distance().format(),
        "fig4": study.fig4_anycast_distance().format(),
    }
    assert {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in sections.items()
    } == RANKED_FIGURE_SHA256


def test_dataset_cached(study):
    assert study.dataset is study.dataset
    assert study.scenario is study.scenario


def test_fig1(study):
    result = study.fig1_diminishing_returns(candidate_sizes=(1, 3, 5))
    # Growing the candidate set can only lower the minimum latency.
    assert result.medians_ms[1] >= result.medians_ms[3] >= result.medians_ms[5]


def test_fig2(study):
    result = study.fig2_client_distance()
    assert list(result.medians_km) == sorted(result.medians_km)
    assert len(result.series) == 4


def test_fig3(study):
    result = study.fig3_anycast_penalty()
    world = result.fraction_slower["world"]
    # CCDF is non-increasing in the threshold.
    thresholds = sorted(world)
    fractions = [world[t] for t in thresholds]
    assert fractions == sorted(fractions, reverse=True)
    assert 0.0 < world[1.0] < 1.0


def test_fig4(study):
    result = study.fig4_anycast_distance()
    assert 0.0 < result.fraction_at_nearest <= 1.0
    assert result.fraction_within_2000km >= result.fraction_at_nearest * 0.5
    assert len(result.series) == 4


def test_fig5(study):
    result = study.fig5_poor_path_prevalence()
    # Higher thresholds are strictly-not-more prevalent.
    for row in result.daily_fractions.values():
        thresholds = sorted(row)
        values = [row[t] for t in thresholds]
        assert values == sorted(values, reverse=True)


def test_fig6(study):
    result = study.fig6_poor_path_duration()
    assert result.ever_poor_count > 0
    assert 0.0 <= result.fraction_single_day <= 1.0
    assert result.fraction_five_plus_consecutive <= result.fraction_five_plus_days


def test_fig7(study):
    result = study.fig7_frontend_affinity(num_days=3)
    fractions = [f for _, f in result.cumulative]
    assert fractions == sorted(fractions)  # cumulative is monotone


def test_fig8(study):
    result = study.fig8_switch_distance()
    assert result.switch_count > 0
    assert result.median_km > 0


def test_fig9(study):
    result = study.fig9_prediction()
    assert len(result.summaries) == 4  # {ECS, LDNS} x {50th, 75th}
    for summary in result.summaries:
        total = (
            summary.fraction_improved
            + summary.fraction_worse
            + summary.fraction_unchanged
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_footnote1(study):
    result = study.footnote1_geo_artifacts(threshold_km=2500.0)
    assert result.client_count > 0
    assert 0.0 <= result.artifact_fraction <= 1.0


def test_cdn_size_table(study):
    rows = study.cdn_size_table()
    bing = next(e for e in rows if "Bing" in e.name)
    assert bing.locations == len(study.scenario.network.frontends)


def test_full_report(study):
    report = study.full_report()
    for marker in ("Fig 1", "Fig 3", "Fig 5", "Fig 7", "Fig 9", "CDN deployment"):
        assert marker in report
