"""Property suite for the bounded, mergeable latency sketch.

Everything the constant-memory mode rests on is asserted here over
Hypothesis-generated sample multisets:

* merge algebra — commutative, associative, order-insensitive — via
  canonical digest equality, with and without the bucket cap binding;
* the quantile error bound versus an exact oracle, including after
  cap-forced compression (the bound doubles per halving and the sketch
  reports the widened bound);
* scalar/vectorized insert parity (``add`` loop == one ``extend``);
* the column-state round trip the dataset codec encodes sketches with.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, MeasurementError
from repro.measurement.sketch import (
    DEFAULT_MAX_BUCKETS,
    MIN_MAX_BUCKETS,
    LatencySketch,
    mantissa_bits_for,
)

# Magnitudes span microseconds to minutes — a realistic RTT-ish domain
# that still covers many octaves, so the bucket cap can genuinely bind.
finite_values = st.one_of(
    st.floats(min_value=1e-2, max_value=1e5),
    st.floats(min_value=-1e4, max_value=-1e-2),
    st.just(0.0),
)
sample_lists = st.lists(finite_values, min_size=1, max_size=300)
caps = st.sampled_from([MIN_MAX_BUCKETS, 16, 64, DEFAULT_MAX_BUCKETS])

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def sketch_of(values, max_buckets=DEFAULT_MAX_BUCKETS):
    sketch = LatencySketch(max_buckets=max_buckets)
    sketch.extend(np.asarray(values, dtype=np.float64))
    return sketch


@given(sample_lists, sample_lists, caps)
@relaxed
def test_merge_commutative(a, b, cap):
    left = sketch_of(a, cap).merge(sketch_of(b, cap))
    right = sketch_of(b, cap).merge(sketch_of(a, cap))
    assert left.digest() == right.digest()


@given(sample_lists, sample_lists, sample_lists, caps)
@relaxed
def test_merge_associative(a, b, c, cap):
    left = sketch_of(a, cap).merge(sketch_of(b, cap)).merge(sketch_of(c, cap))
    right = sketch_of(a, cap).merge(
        sketch_of(b, cap).merge(sketch_of(c, cap))
    )
    assert left.digest() == right.digest()


@given(sample_lists, st.randoms(use_true_random=False), caps)
@relaxed
def test_state_is_a_pure_function_of_the_multiset(values, rnd, cap):
    """Any insertion order, any shard split, any mix of add/extend/merge
    reaches bit-identical state — compression included."""
    serial = sketch_of(values, cap)

    shuffled = list(values)
    rnd.shuffle(shuffled)
    shards = [LatencySketch(max_buckets=cap) for _ in range(3)]
    for index, value in enumerate(shuffled):
        if index % 5 == 0:
            shards[index % 3].add(value)
        else:
            shards[index % 3].extend([value])
    merged = shards[0].merge(shards[1]).merge(shards[2])

    assert merged.digest() == serial.digest()
    assert merged.canonical_state() == serial.canonical_state()


@given(sample_lists)
@relaxed
def test_digest_idempotent_and_query_safe(values):
    sketch = sketch_of(values)
    first = sketch.digest()
    sketch.quantile(50.0)
    sketch.fraction_at_or_below(1.0)
    assert sketch.digest() == first


@given(sample_lists, caps)
@relaxed
def test_quantile_error_within_reported_bound(values, cap):
    """Interior quantiles land within ``relative_error_bound`` of a true
    sample (or within ``min_trackable`` of zero for zero-bucket hits);
    endpoints are exact."""
    sketch = sketch_of(values, cap)
    ordered = sorted(values)
    assert sketch.quantile(0.0) == ordered[0]
    assert sketch.quantile(100.0) == ordered[-1]
    bound = sketch.relative_error_bound
    for q in (10.0, 25.0, 50.0, 75.0, 90.0, 99.0):
        estimate = sketch.quantile(q)
        # The estimate must be close to *some* sample — rank resolution
        # within a shared bucket is intentionally traded away.
        best = min(
            abs(estimate - true)
            / max(abs(true), sketch.min_trackable)
            for true in ordered
        )
        assert best <= bound + 1e-12


@given(sample_lists)
@relaxed
def test_extend_equals_add_loop(values):
    looped = LatencySketch()
    for value in values:
        looped.add(value)
    assert looped.digest() == sketch_of(values).digest()


@given(sample_lists, caps)
@relaxed
def test_column_round_trip(values, cap):
    sketch = sketch_of(values, cap)
    state = sketch.column_state()
    restored = LatencySketch.from_columns(
        mantissa_bits=state["mantissa_bits"],
        base_mantissa_bits=state["base_mantissa_bits"],
        max_buckets=state["max_buckets"],
        min_trackable=state["min_trackable"],
        pos_keys=state["pos_keys"],
        pos_counts=state["pos_counts"],
        neg_keys=state["neg_keys"],
        neg_counts=state["neg_counts"],
        zero=state["zero"],
        count=state["count"],
        minimum=state["min"],
        maximum=state["max"],
        total=state["sum"],
    )
    assert restored.digest() == sketch.digest()


def test_exact_scalars():
    sketch = sketch_of([5.0, -3.0, 0.0, 250.0, 1e-9])
    assert sketch.count == 5
    assert sketch.minimum() == -3.0
    assert sketch.maximum() == 250.0
    # 0.0 and 1e-9 both land in the exact zero bucket.
    assert sketch.fraction_at_or_below(0.0) == pytest.approx(3 / 5)


def test_signed_and_zero_buckets():
    sketch = sketch_of([-10.0] * 4 + [0.0] * 2 + [10.0] * 4)
    assert sketch.fraction_at_or_below(-5.0) == pytest.approx(0.4)
    assert sketch.fraction_at_or_below(0.0) == pytest.approx(0.6)
    assert sketch.fraction_above(5.0) == pytest.approx(0.4)
    assert sketch.median() == 0.0


def test_cap_forces_deterministic_compression():
    values = [1.5 ** k for k in range(1, 40)]
    capped = sketch_of(values, MIN_MAX_BUCKETS)
    free = sketch_of(values)
    assert free.compressions == 0
    assert capped.compressions > 0
    assert capped.relative_error_bound == free.relative_error_bound * (
        2 ** capped.compressions
    )
    assert capped.count == free.count == len(values)
    # Above the 1-mantissa-bit resolution floor the cap is hard.
    if capped.mantissa_bits > 1:
        assert capped.bucket_count <= MIN_MAX_BUCKETS + 1


def test_merge_geometry_mismatch_rejected():
    base = sketch_of([1.0, 2.0])
    with pytest.raises(MeasurementError):
        base.merge(sketch_of([1.0], max_buckets=16))
    with pytest.raises(MeasurementError):
        base.merge(LatencySketch(relative_accuracy=0.25))


def test_invalid_construction_and_inserts():
    with pytest.raises(MeasurementError):
        LatencySketch(max_buckets=MIN_MAX_BUCKETS - 1)
    with pytest.raises(MeasurementError):
        LatencySketch(relative_accuracy=0.0)
    sketch = LatencySketch()
    with pytest.raises(MeasurementError):
        sketch.add(math.inf)
    with pytest.raises(MeasurementError):
        sketch.extend([1.0, math.nan])
    with pytest.raises(AnalysisError):
        sketch.quantile(50.0)
    with pytest.raises(AnalysisError):
        sketch.minimum()


def test_mantissa_bits_for_accuracy_map():
    # 1% needs 6 kept bits (2**-7 ~= 0.78%); coarser targets need fewer.
    assert mantissa_bits_for(0.01) == 6
    assert mantissa_bits_for(0.25) == 1
    assert 2.0 ** -(mantissa_bits_for(0.001) + 1) <= 0.001
    with pytest.raises(MeasurementError):
        mantissa_bits_for(0.6)
