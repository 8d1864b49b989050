"""The dataset digest's definition and its signed-zero tie rule.

``tests.helpers.reference_digest`` writes the digest as a plain loop,
two hash updates per part.  :meth:`StudyDataset.digest` streams the same
bytes in bulk, so the two must agree on every kind of dataset: exact
and sketch-mode campaigns, partial merges, load-managed runs, the empty
dataset and generated aggregates.

``-0.0`` and ``0.0`` compare equal but hash differently (exact
``repr``), so the digest's sorts break their tie with ``-0.0`` first;
otherwise their arrival order would reach an order-insensitive digest.

The LDNS plane the digest hashes is a view of the ECS cells; a property
checks it against the reference grouping, an LDNS sink filled batch by
batch.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clients.population import ClientPopulationConfig
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.canonical import aggregate_day_parts
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

#: Clients whose resolvers are shared: the LDNS view folds the first
#: two /24s into one resolver cell.
CLIENTS = (
    make_client(1, ldns_id="ldns-a"),
    make_client(2, ldns_id="ldns-a"),
    make_client(10, ldns_id="ldns-b"),
)
CLIENT_KEYS = [client.key for client in CLIENTS]

#: (day, client /24, target, samples); an empty sample list makes an
#: exact digest with no samples.
DIGESTS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(CLIENT_KEYS),
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
        aggregates.observe_runs(day, [(group, target, 0, len(values))], values)
    return aggregates


@given(ecs=DIGESTS, rows=DIFF_ROWS)
@settings(max_examples=60, deadline=None)
def test_generated_datasets_match_reference(ecs, rows):
    diffs = RequestDiffLog()
    for row in rows:
        diffs.observe(*row)
    dataset = StudyDataset(
        calendar=SimulationCalendar(num_days=3),
        clients=CLIENTS,
        ecs_aggregates=_aggregates("ecs", ecs),
        request_diffs=diffs,
        passive=PassiveLog(),
    )
    _assert_matches_reference(dataset)


# ----------------------------------------------------------------------
# The LDNS view against a stored LDNS sink
# ----------------------------------------------------------------------

#: (day, client index, target, batch): one sink call's worth of
#: whole-millisecond RTTs, the values the engines produce.
BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, len(CLIENTS) - 1),
        st.sampled_from(["anycast", "fe-a"]),
        st.lists(st.integers(0, 900).map(float), min_size=1, max_size=9),
    ),
    max_size=12,
)


@given(
    batches=BATCHES,
    threshold=st.sampled_from([None, 2, 4]),
    cap=st.sampled_from([8, 512]),
    shuffle_seed=st.integers(0, 2**16),
)
@example(
    # Two exact members (3 samples each) whose union crosses threshold 4:
    # the view promotes the resolver cell exactly as the sink did.
    batches=[
        (0, 0, "anycast", [10.0, 20.0, 30.0]),
        (0, 1, "anycast", [15.0, 25.0, 35.0]),
    ],
    threshold=4,
    cap=8,
    shuffle_seed=0,
)
@settings(max_examples=80, deadline=None)
def test_ldns_view_equals_a_stored_ldns_sink(
    batches, threshold, cap, shuffle_seed
):
    def sink(grouping):
        return GroupedDailyAggregates(
            grouping, exact_threshold=threshold, max_buckets=cap
        )

    ecs = sink("ecs")
    for day, client, target, values in batches:
        ecs.observe_many(day, CLIENTS[client].key, target, values)
    # The reference: an LDNS sink fed every batch under its client's
    # resolver, in another order than the ECS sink saw them.
    stored = sink("ldns")
    shuffled = list(batches)
    random.Random(shuffle_seed).shuffle(shuffled)
    for day, client, target, values in shuffled:
        stored.observe_many(day, CLIENTS[client].ldns_id, target, values)

    dataset = make_dataset(CLIENTS, num_days=2)
    dataset.ecs_aggregates = ecs
    view = dataset.ldns_aggregates
    assert view.days == stored.days
    for day in stored.days:
        assert (
            aggregate_day_parts(view, day).tolist()
            == aggregate_day_parts(stored, day).tolist()
        )


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
    # Two shards whose /24s share one resolver, so their samples meet
    # in one (LDNS, target) digest of the view, in merge order.
    clients = (make_client(1), make_client(2))

    def shard(index):
        part = make_dataset(
            clients,
            num_days=1,
            ecs_samples=[(0, clients[index].key, "fe", [(0.0, -0.0)[index]])],
        )
        part.covered_ranges = ((index, index + 1),)
        return part

    assert (
        shard(0).merge(shard(1)).digest()
        == shard(1).merge(shard(0)).digest()
    )


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
