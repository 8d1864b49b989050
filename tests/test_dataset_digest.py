"""The dataset digest's definition and its signed-zero tie rule.

``tests.helpers.reference_digest`` writes the digest as a plain loop,
two hash updates per part.  :meth:`StudyDataset.digest` streams the same
bytes in bulk, so the two must agree on every kind of dataset: exact
and sketch-mode campaigns, partial merges, load-managed runs, the empty
dataset and generated aggregates.

``-0.0`` and ``0.0`` compare equal but hash differently (exact
``repr``), so the digest's sorts break their tie with ``-0.0`` first;
otherwise their arrival order would reach an order-insensitive digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.population import ClientPopulationConfig
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.measurement.sketch import LatencySketch
from repro.service.events import BeaconEvent
from repro.service.window import PredictionWindow
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset
from repro.simulation.episodes import OverloadPlan
from repro.simulation.scenario import Scenario, ScenarioConfig
from tests.helpers import make_client, make_dataset, reference_digest


@pytest.fixture(scope="module")
def tiny_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=2015,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=3),
        )
    )


def _assert_matches_reference(dataset: StudyDataset) -> None:
    assert dataset.digest() == reference_digest(dataset)


# ----------------------------------------------------------------------
# Oracle: the bulk stream hashes the reference's bytes
# ----------------------------------------------------------------------


def test_exact_campaign_matches_reference(small_dataset):
    assert len(small_dataset.request_diffs) > 0
    _assert_matches_reference(small_dataset)


def test_sketch_campaign_matches_reference(tiny_scenario):
    config = CampaignConfig(
        engine="vectorized", sketch_threshold=8, sketch_max_buckets=32
    )
    dataset = CampaignRunner(tiny_scenario, config).run()
    assert dataset.request_diffs.is_bounded and dataset.passive.is_bounded
    _, sketched, _, _, _ = dataset.ecs_aggregates.sketch_stats()
    assert sketched > 0
    _assert_matches_reference(dataset)


def test_partial_merge_matches_reference(tiny_scenario):
    merged = CampaignRunner(tiny_scenario, client_slice=(0, 10)).run()
    merged.merge(CampaignRunner(tiny_scenario, client_slice=(30, 40)).run())
    assert merged.missing_ranges() == ((10, 30),)
    _assert_matches_reference(merged)


def test_load_managed_campaign_matches_reference(tiny_scenario):
    config = CampaignConfig(
        engine="vectorized",
        frontend_capacity=1.25,
        overload_plan=OverloadPlan.from_spec("flash-crowd:1@1"),
        load_policy="fastroute",
    )
    dataset = CampaignRunner(tiny_scenario, config).run()
    assert dataset.load_summary is not None
    _assert_matches_reference(dataset)


def test_empty_dataset_matches_reference():
    empty = StudyDataset(
        calendar=SimulationCalendar(num_days=1),
        clients=(),
        ecs_aggregates=GroupedDailyAggregates("ecs"),
        ldns_aggregates=GroupedDailyAggregates("ldns"),
        request_diffs=RequestDiffLog(),
        passive=PassiveLog(),
    )
    _assert_matches_reference(empty)


#: Sample values the campaign never draws but a digest must still hash
#: exactly: whole and fractional milliseconds, subnormals, and values
#: whose ``repr`` switches to exponent form.  ``-0.0`` is left to the
#: tie-rule tests below, since the reference predates that rule.
SAMPLES = st.one_of(
    st.integers(0, 2000).map(float),
    st.floats(0.0, 2000.0),
    st.floats(5e-324, 2.2250738585072014e-308),
    st.floats(1e16, 1e300),
    st.floats(-2000.0, -1e-3),
)

#: (day, group, target, samples); an empty sample list makes an exact
#: digest with no samples.
DIGESTS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(["g1", "g2", "g10"]),
        st.sampled_from(["anycast", "fe-a", "fe-b"]),
        st.lists(SAMPLES, max_size=12),
    ),
    max_size=10,
)

#: (day, client index, region, anycast RTT, best-unicast RTT); few
#: distinct values, so rows tie on every sort key.
DIFF_ROWS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from(["europe", "asia"]),
        st.sampled_from([0.0, 1.0, 12.5, 3e20]),
        st.sampled_from([0.0, 2.0, 7.25]),
    ),
    max_size=20,
)


def _aggregates(grouping: str, digests) -> GroupedDailyAggregates:
    aggregates = GroupedDailyAggregates(grouping)
    for day, group, target, samples in digests:
        values = np.asarray(samples, dtype=np.float64)
        low, high = (values.min(), values.max()) if samples else (0.0, 0.0)
        aggregates.observe_runs(
            day, [(group, target, 0, len(values), low, high)], values
        )
    return aggregates


@given(ecs=DIGESTS, ldns=DIGESTS, rows=DIFF_ROWS)
@settings(max_examples=60, deadline=None)
def test_generated_datasets_match_reference(ecs, ldns, rows):
    diffs = RequestDiffLog()
    for row in rows:
        diffs.observe(*row)
    dataset = StudyDataset(
        calendar=SimulationCalendar(num_days=3),
        clients=tuple(make_client(i) for i in range(3)),
        ecs_aggregates=_aggregates("ecs", ecs),
        ldns_aggregates=_aggregates("ldns", ldns),
        request_diffs=diffs,
        passive=PassiveLog(),
    )
    _assert_matches_reference(dataset)


def test_sketch_digest_hashes_its_canonical_state():
    sketch = LatencySketch()
    for value in (0.0, 1.5, 20.0, 20.0, 3e3):
        sketch.add(value)
    h = hashlib.sha256()
    for part in sketch.canonical_state():
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    assert sketch.digest() == h.hexdigest()


# ----------------------------------------------------------------------
# The signed-zero tie rule
# ----------------------------------------------------------------------


def _samples_dataset(samples):
    client = make_client(1)
    return make_dataset(
        [client], num_days=1, ecs_samples=[(0, client.key, "fe", samples)]
    )


def test_sample_order_of_signed_zeros_is_canonical():
    first = _samples_dataset([0.0, -0.0, 4.0, 0.0])
    second = _samples_dataset([-0.0, 0.0, 0.0, 4.0])
    assert first.digest() == second.digest()


def test_signed_zeros_are_not_conflated():
    assert (
        _samples_dataset([0.0, -0.0]).digest()
        != _samples_dataset([0.0, 0.0]).digest()
    )


def test_merge_order_of_signed_zeros_is_canonical():
    # Two shards feeding one shared (LDNS, target) digest.
    client_a, client_b = make_client(1), make_client(2)

    def shard(value, covered):
        part = make_dataset(
            [client_a, client_b],
            num_days=1,
            ldns_samples=[(0, "ldns-x", "fe", [value])],
        )
        part.covered_ranges = (covered,)
        return part

    def merged(first, second):
        return shard(first, (0, 1)).merge(shard(second, (1, 2)))

    assert merged(0.0, -0.0).digest() == merged(-0.0, 0.0).digest()


def _diffs_dataset(rows):
    dataset = make_dataset([make_client(1)], num_days=1)
    for anycast, best in rows:
        dataset.request_diffs.observe(0, 0, "europe", anycast, best)
    return dataset


def test_diff_row_order_of_signed_zeros_is_canonical():
    assert (
        _diffs_dataset([(0.0, 5.0), (-0.0, 5.0)]).digest()
        == _diffs_dataset([(-0.0, 5.0), (0.0, 5.0)]).digest()
    )
    assert (
        _diffs_dataset([(5.0, -0.0), (5.0, 0.0)]).digest()
        == _diffs_dataset([(5.0, 0.0), (5.0, -0.0)]).digest()
    )


def test_window_digest_order_of_signed_zeros_is_canonical():
    def window(values):
        result = PredictionWindow()
        for value in values:
            result.observe(BeaconEvent(0, "c", "l", "fe", value))
        return result

    assert (
        window([0.0, -0.0]).state_digest()
        == window([-0.0, 0.0]).state_digest()
    )
