"""Property tests: the dataset merge algebra under random shard layouts.

Hypothesis drives random shard orderings, subsets, and duplications over
precomputed per-slice partial datasets, checking the invariants the
resilient parallel executor leans on:

* merging any permutation of a disjoint shard split reproduces the
  serial dataset bit-for-bit (``digest()`` is order-insensitive);
* merging the same shard twice is rejected (duplicate-merge detection
  via covered-range overlap);
* ``digest()`` is stable across calls and depends only on the *set* of
  merged shards, never the merge order;
* covered and missing ranges always tile the population exactly.

The range helpers (:func:`normalize_ranges`, :func:`ranges_overlap`) get
their own pure-function properties against a brute-force index-set
model.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError
from repro.clients.population import ClientPopulationConfig
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import PassiveLog
from repro.simulation.campaign import CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import (
    StudyDataset,
    normalize_ranges,
    ranges_overlap,
)
from repro.simulation.scenario import Scenario, ScenarioConfig

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The population splits into this many equal shard partials.
SEGMENTS = 4
POPULATION = 40


@functools.lru_cache(maxsize=None)
def _scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=23,
            population=ClientPopulationConfig(prefix_count=POPULATION),
            calendar=SimulationCalendar(num_days=1),
        )
    )


@functools.lru_cache(maxsize=None)
def _serial_digest() -> str:
    return CampaignRunner(_scenario()).run().digest()


@functools.lru_cache(maxsize=None)
def _partials():
    """One partial dataset per contiguous shard of the population.

    Computed once; every merge below copies out of these sources (the
    merge implementations never alias), so examples can reuse them.
    """
    scenario = _scenario()
    size = POPULATION // SEGMENTS
    return tuple(
        CampaignRunner(
            scenario, client_slice=(i * size, (i + 1) * size)
        ).run()
        for i in range(SEGMENTS)
    )


def _empty_accumulator() -> StudyDataset:
    """A dataset with no measurements and explicitly empty coverage."""
    scenario = _scenario()
    return StudyDataset(
        calendar=scenario.calendar,
        clients=scenario.clients,
        ecs_aggregates=GroupedDailyAggregates("ecs"),
        request_diffs=RequestDiffLog(),
        passive=PassiveLog(),
        covered_ranges=(),
    )


def _merge_in_order(order) -> StudyDataset:
    merged = _empty_accumulator()
    for index in order:
        merged.merge(_partials()[index])
    return merged


class TestMergeAlgebraProperties:
    @given(order=st.permutations(range(SEGMENTS)))
    @SETTINGS
    def test_any_merge_order_reproduces_serial_digest(self, order):
        merged = _merge_in_order(order)
        assert merged.digest() == _serial_digest()
        assert not merged.is_partial
        assert merged.coverage_fraction == 1.0

    @given(
        indices=st.lists(
            st.integers(0, SEGMENTS - 1), min_size=2, max_size=2 * SEGMENTS
        ).filter(lambda xs: len(set(xs)) < len(xs))
    )
    @SETTINGS
    def test_duplicate_shard_merge_rejected(self, indices):
        merged = _empty_accumulator()
        with pytest.raises(MeasurementError):
            for index in indices:
                merged.merge(_partials()[index])

    @given(
        subset=st.sets(
            st.integers(0, SEGMENTS - 1), min_size=1, max_size=SEGMENTS
        ),
        data=st.data(),
    )
    @SETTINGS
    def test_digest_depends_on_shard_set_not_order(self, subset, data):
        one_order = data.draw(st.permutations(sorted(subset)))
        other_order = data.draw(st.permutations(sorted(subset)))
        first = _merge_in_order(one_order)
        second = _merge_in_order(other_order)
        assert first.digest() == second.digest()
        # Stable across repeated calls on the same object, too.
        assert first.digest() == first.digest()

    @given(
        subset=st.sets(
            st.integers(0, SEGMENTS - 1), min_size=0, max_size=SEGMENTS
        )
    )
    @SETTINGS
    def test_coverage_and_gaps_tile_the_population(self, subset):
        merged = _merge_in_order(sorted(subset))
        size = POPULATION // SEGMENTS
        expected_covered = {
            i for index in subset for i in range(index * size, (index + 1) * size)
        }
        covered = {
            i
            for start, stop in merged.covered_ranges
            for i in range(start, stop)
        }
        missing = {
            i
            for start, stop in merged.missing_ranges()
            for i in range(start, stop)
        }
        assert covered == expected_covered
        assert covered | missing == set(range(POPULATION))
        assert not covered & missing
        assert merged.coverage_fraction == pytest.approx(
            len(covered) / POPULATION
        )
        assert merged.is_partial == (len(subset) < SEGMENTS)

    @given(subset=st.sets(st.integers(0, SEGMENTS - 1), min_size=1))
    @SETTINGS
    def test_partial_digests_are_distinct_per_shard_set(self, subset):
        # A partial dataset can never impersonate the full one: digests
        # of different shard sets differ (missing ranges are hashed).
        merged = _merge_in_order(sorted(subset))
        if len(subset) < SEGMENTS:
            assert merged.digest() != _serial_digest()
        else:
            assert merged.digest() == _serial_digest()


_spans = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
        lambda pair: (min(pair), max(pair))
    ),
    max_size=8,
)


def _index_set(ranges):
    return {i for start, stop in ranges for i in range(start, stop)}


class TestRangeHelperProperties:
    @given(ranges=_spans)
    @SETTINGS
    def test_normalize_preserves_index_set(self, ranges):
        normalized = normalize_ranges(tuple(ranges))
        assert _index_set(normalized) == _index_set(ranges)

    @given(ranges=_spans)
    @SETTINGS
    def test_normalize_is_sorted_disjoint_and_coalesced(self, ranges):
        normalized = normalize_ranges(tuple(ranges))
        for start, stop in normalized:
            assert start < stop
        for (_, stop), (start, _) in zip(normalized, normalized[1:]):
            assert stop < start  # disjoint AND non-adjacent

    @given(ranges=_spans)
    @SETTINGS
    def test_normalize_is_idempotent(self, ranges):
        once = normalize_ranges(tuple(ranges))
        assert normalize_ranges(once) == once

    @given(a=_spans, b=_spans)
    @SETTINGS
    def test_overlap_matches_index_set_intersection(self, a, b):
        left = normalize_ranges(tuple(a))
        right = normalize_ranges(tuple(b))
        expected = bool(_index_set(left) & _index_set(right))
        assert ranges_overlap(left, right) == expected
        assert ranges_overlap(right, left) == expected
