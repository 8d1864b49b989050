"""The day column block store against a dict-of-lists model.

Random interleavings of the three sinks (``observe``, ``observe_many``,
``observe_runs``) and of reads, which seal a day and make the next
append reopen it, over several days, groups and targets, with empty
runs and cells revisited after other cells.  A plain model keeps, per
day, group → target → samples in arrival order.  The store must yield
the model's cells in the model's order, each cell's samples in arrival
order with the same count and extrema, and each cell's read-only
view must answer ``percentile`` and ``median`` as
:func:`repro.latency.sampling.percentile` over the model's samples, bit
for bit; with ``exact_threshold=4`` a cell past four samples must be a
sketch whose digest and quantiles equal those of the sketch of its
model samples.  ``merge`` and ``regrouped`` must equal the model's
fold.

The block's percentile table must equal
:func:`repro.latency.sampling.percentile` bit for bit, and the batch
predictor's one-pass ``predict_day`` must equal its per-group
``choose_target`` rule.
"""

import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import HistoryBasedPredictor, PredictorConfig
from repro.errors import AnalysisError
from repro.latency.sampling import percentile
from repro.measurement.aggregate import GroupedDailyAggregates
from repro.measurement.sketch import LatencySketch

THRESHOLD = 4
DAYS = (0, 1, 2)
GROUPS = ("g0", "g1", "g2", "g3")
TARGETS = ("anycast", "fe-a", "fe-b")
QUANTILES = (0.0, 25.0, 50.0, 75.0, 100.0)

values = st.integers(min_value=0, max_value=400).map(float) | st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False
)
keys = st.tuples(st.sampled_from(GROUPS), st.sampled_from(TARGETS))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.sampled_from(DAYS), keys, values),
        st.tuples(
            st.just("observe_many"),
            st.sampled_from(DAYS),
            keys,
            st.lists(values, max_size=6),
        ),
        st.tuples(
            st.just("observe_runs"),
            st.sampled_from(DAYS),
            st.lists(st.tuples(keys, st.lists(values, max_size=5)), max_size=5),
        ),
        st.tuples(st.just("read"), st.sampled_from(DAYS)),
    ),
    max_size=40,
)


def _apply(aggregates, model, operation):
    """Run one operation on the store and on the model."""
    kind, day = operation[0], operation[1]
    if kind == "read":
        aggregates.block(day)
        return
    if kind == "observe":
        (group, target), value = operation[2], operation[3]
        aggregates.observe(day, group, target, value)
        runs = [((group, target), [value])]
    elif kind == "observe_many":
        (group, target), batch = operation[2], operation[3]
        aggregates.observe_many(day, group, target, batch)
        runs = [((group, target), batch)] if batch else []
    else:
        runs = operation[2]
        entries, column, offset = [], [], 0
        for (group, target), run in runs:
            entries.append((group, target, offset, offset + len(run)))
            column.extend(run)
            offset += len(run)
        aggregates.observe_runs(day, entries, np.asarray(column, dtype=float))
    for (group, target), run in runs:
        model.setdefault(day, {}).setdefault(group, {}).setdefault(
            target, []
        ).extend(run)


def _build(ops, threshold):
    aggregates = GroupedDailyAggregates("ecs", exact_threshold=threshold)
    model = {}
    for operation in ops:
        _apply(aggregates, model, operation)
    return aggregates, model


def _fold(into, other, group_of=lambda group: group):
    """The model of ``merge`` (and, renamed, of ``regrouped``)."""
    for day, per_day in other.items():
        for group, per_group in per_day.items():
            for target, samples in per_group.items():
                into.setdefault(day, {}).setdefault(
                    group_of(group), {}
                ).setdefault(target, []).extend(samples)
    return into


def _bits(value):
    return struct.pack("<d", value)


def _assert_matches(aggregates, model, threshold):
    assert aggregates.days == tuple(sorted(model))
    for day, per_day in model.items():
        expected = [
            (group, target, samples)
            for group, per_group in per_day.items()
            for target, samples in per_group.items()
        ]
        cells = list(aggregates.iter_day(day))
        assert [(g, t) for g, t, _ in cells] == [
            (g, t) for g, t, _ in expected
        ]
        assert aggregates.groups_on(day) == tuple(sorted(per_day))
        for (_, _, digest), (group, target, samples) in zip(cells, expected):
            assert digest.count == len(samples)
            if samples:
                assert digest.minimum() == min(samples)
                assert digest.maximum() == max(samples)
            else:
                with pytest.raises(AnalysisError):
                    digest.median()
            if threshold is not None and len(samples) > threshold:
                assert not digest.is_exact
                sketch = LatencySketch(
                    relative_accuracy=aggregates.relative_accuracy,
                    max_buckets=aggregates.max_buckets,
                )
                sketch.extend(samples)
                assert digest.sketch.digest() == sketch.digest()
                oracle = sketch.quantile
            else:
                assert digest.is_exact
                assert [_bits(v) for v in digest.values()] == [
                    _bits(v) for v in samples
                ]
                oracle = partial(percentile, samples)
            if samples:
                for q in QUANTILES:
                    assert _bits(digest.percentile(q)) == _bits(oracle(q)), q
                assert _bits(digest.median()) == _bits(oracle(50.0))
            assert aggregates.digest(day, group, target).count == len(samples)


@pytest.mark.parametrize("threshold", (None, THRESHOLD))
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_sinks_match_the_model(threshold, ops):
    aggregates, model = _build(ops, threshold)
    _assert_matches(aggregates, model, threshold)


@pytest.mark.parametrize("threshold", (None, THRESHOLD))
@settings(max_examples=40, deadline=None)
@given(left=operations, right=operations, read_first=st.booleans())
def test_merge_is_the_model_fold(threshold, left, right, read_first):
    a, model_a = _build(left, threshold)
    b, model_b = _build(right, threshold)
    if read_first:
        for day in a.days:
            a.block(day)
    a.merge(b)
    _assert_matches(a, _fold(model_a, model_b), threshold)
    # The source stays independently usable and unchanged.
    _assert_matches(b, model_b, threshold)


@pytest.mark.parametrize("threshold", (None, THRESHOLD))
@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_regrouped_is_the_model_fold(threshold, ops):
    def group_of(group):
        return "r" + str(int(group[1:]) % 2)

    aggregates, model = _build(ops, threshold)
    view = aggregates.regrouped("ldns", group_of)
    assert view.grouping == "ldns"
    _assert_matches(view, _fold({}, model, group_of), threshold)


def test_views_are_read_only():
    aggregates = GroupedDailyAggregates("ecs")
    aggregates.observe(0, "g", "anycast", 1.0)
    view = aggregates.digest(0, "g", "anycast")
    for mutator in ("add", "extend", "merge", "copy"):
        assert not hasattr(view, mutator)
    with pytest.raises(ValueError):
        view.values_view()[0] = 2.0
    assert aggregates.digest(0, "g", "anycast").values() == (1.0,)


@pytest.mark.parametrize("size", (1, 2, 63, 64, 65))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_percentile_table_is_bit_identical(size, data):
    samples = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)
            | st.integers(min_value=0, max_value=50).map(float),
            min_size=size,
            max_size=size,
        )
    )
    aggregates = GroupedDailyAggregates("ecs")
    # A neighbour cell on each side, so the table indexes a slice.
    aggregates.observe_many(0, "g", "before", [3.0, 1.0])
    aggregates.observe_many(0, "g", "cell", samples)
    aggregates.observe_many(0, "g", "after", [7.0])
    block = aggregates.block(0)
    cell = block.find("g", "cell")
    for q in QUANTILES:
        assert _bits(float(block.percentiles(q)[cell])) == _bits(
            percentile(samples, q)
        ), (size, q)


@pytest.mark.parametrize("threshold", (None, THRESHOLD))
@settings(max_examples=40, deadline=None)
@given(
    ops=operations,
    q=st.sampled_from((0.0, 25.0, 50.0, 100.0)),
    min_samples=st.integers(min_value=1, max_value=4),
)
def test_predict_day_matches_choose_target(threshold, ops, q, min_samples):
    aggregates, _ = _build(ops, threshold)
    predictor = HistoryBasedPredictor(
        PredictorConfig(metric_percentile=q, min_samples=min_samples)
    )
    for day in aggregates.days:
        expected = {}
        for group in aggregates.groups_on(day):
            choice = predictor.choose_target(
                group, aggregates.targets_for(day, group)
            )
            if choice is not None:
                expected[group] = choice
        predicted = predictor.predict_day(aggregates, day)
        assert list(predicted.items()) == list(expected.items())
