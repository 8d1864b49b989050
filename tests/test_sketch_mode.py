"""Two-mode aggregation: exact below the threshold, sketch above it.

Covers the promotion contract (exact small-N behavior preserved; sketch
state canonical regardless of when promotion happened), the bounded
request-diff and passive logs, dataset digest stability in bounded mode,
the framed v3 export round trip (sketch frames included, torn tails
salvaged), and the columnar shard transport.
"""

import io

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement.aggregate import (
    GroupedDailyAggregates,
    LatencyDigest,
    RequestDiffLog,
)
from repro.measurement.export import (
    load_dataset,
    recover_dataset,
    save_dataset,
)
from repro.measurement.logs import PassiveLog
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.transport import (
    MAGIC,
    decode_shard_payload,
    encode_shard_payload,
)


# ----------------------------------------------------------------------
# LatencyDigest: two modes
# ----------------------------------------------------------------------


def test_default_digest_stays_exact():
    digest = LatencyDigest()
    digest.extend(np.arange(10_000, dtype=np.float64))
    assert digest.is_exact
    assert digest.sketch is None
    assert digest.count == 10_000


def test_promotion_at_threshold():
    digest = LatencyDigest(exact_threshold=4)
    for value in (1.0, 2.0, 3.0, 4.0):
        digest.add(value)
    assert digest.is_exact
    digest.add(5.0)
    assert not digest.is_exact
    assert digest.sketch is not None
    assert digest.count == 5
    assert digest.minimum() == 1.0 and digest.maximum() == 5.0
    with pytest.raises(MeasurementError):
        digest.values()
    with pytest.raises(MeasurementError):
        digest.values_view()


def test_promotion_is_canonical():
    """A digest promoted early, late, or assembled by merge reaches
    bit-identical sketch state — the property shard parity rests on."""
    values = [float(v) for v in range(1, 200)]

    early = LatencyDigest(exact_threshold=1)
    early.extend(values)

    late = LatencyDigest(exact_threshold=150)
    late.extend(values)

    first = LatencyDigest(exact_threshold=1)
    first.extend(values[:57])
    second = LatencyDigest(exact_threshold=1)
    second.extend(values[57:])
    first.merge(second)

    mixed = LatencyDigest(exact_threshold=100)
    mixed.extend(values[:10])  # still exact
    promoted = LatencyDigest(exact_threshold=100)
    promoted.extend(values[10:])  # 189 values: already a sketch
    assert not promoted.is_exact
    mixed.merge(promoted)

    digests = {d.sketch.digest() for d in (early, late, first, mixed)}
    assert len(digests) == 1


def test_exact_percentiles_unchanged_below_threshold():
    values = [9.0, 1.0, 5.0, 3.0]
    plain = LatencyDigest(values)
    gated = LatencyDigest(values, exact_threshold=64)
    for q in (0, 25, 50, 75, 100):
        assert gated.percentile(q) == plain.percentile(q)


def test_sketch_percentile_within_bound():
    digest = LatencyDigest(exact_threshold=8, relative_accuracy=0.01)
    values = np.linspace(10.0, 1000.0, 5000)
    digest.extend(values)
    assert not digest.is_exact
    bound = digest.sketch.relative_error_bound
    for q in (5.0, 50.0, 95.0):
        true = float(np.percentile(values, q))
        assert abs(digest.percentile(q) - true) / true <= 2 * bound


def test_digest_merge_config_mismatch_rejected():
    a = LatencyDigest(exact_threshold=4)
    with pytest.raises(MeasurementError):
        a.merge(LatencyDigest(exact_threshold=8))
    with pytest.raises(MeasurementError):
        a.merge(LatencyDigest(exact_threshold=4, max_buckets=16))


# ----------------------------------------------------------------------
# Grouped aggregates and bounded logs
# ----------------------------------------------------------------------


def test_grouped_aggregates_promote_and_shard_merge():
    def build(rows):
        sink = GroupedDailyAggregates("ecs", exact_threshold=8)
        for day, group, target, n in rows:
            sink.observe_many(
                day, group, target,
                np.full(n, 10.0 * (day + 1), dtype=np.float64),
            )
        return sink

    rows = [(0, "g1", "t1", 6), (0, "g1", "t1", 6), (1, "g2", "t1", 3)]
    serial = build(rows)
    merged = build(rows[:1]).merge(build(rows[1:]))

    exact, sketched, buckets, samples, halvings = serial.sketch_stats()
    assert sketched == 1 and exact == 1  # g1/t1 promoted, g2/t1 not
    assert samples == 12
    assert (
        merged.digest(0, "g1", "t1").sketch.digest()
        == serial.digest(0, "g1", "t1").sketch.digest()
    )
    assert merged.digest(1, "g2", "t1").is_exact
    with pytest.raises(MeasurementError):
        serial.merge(GroupedDailyAggregates("ecs", exact_threshold=9))


def test_bounded_diff_log():
    log = RequestDiffLog(bounded=True)
    assert log.is_bounded
    log.observe(0, 1, "europe", 30.0, 25.0)
    log.observe_columns(
        0,
        np.full(2, 2),
        np.full(2, log.region_code("europe")),
        np.array([40.0, 50.0]),
        np.array([45.0, 20.0]),
    )
    log.observe(1, 3, "asia", 90.0, 10.0)
    assert len(log) == 4
    with pytest.raises(MeasurementError):
        log.diffs()
    with pytest.raises(MeasurementError):
        list(log.rows())
    europe = log.diff_sketch("europe")
    assert europe.count == 3
    assert log.diff_sketch(None).count == 4
    assert log.diff_sketch("nowhere") is None
    sketches, buckets, samples, halvings = log.sketch_stats()
    assert sketches == 2  # (day 0, europe) and (day 1, asia)
    assert samples == 4


def test_bounded_diff_log_merge_order_insensitive():
    def build(rows):
        log = RequestDiffLog(bounded=True)
        for row in rows:
            log.observe(*row)
        return log

    rows = [
        (0, 1, "europe", 30.0, 25.0),
        (0, 2, "asia", 40.0, 45.0),
        (1, 3, "europe", 50.0, 20.0),
    ]
    serial = build(rows)
    merged = build(rows[:1]).merge(build(rows[1:]))
    assert (
        merged.diff_sketch(None).digest()
        == serial.diff_sketch(None).digest()
    )
    with pytest.raises(MeasurementError):
        serial.merge(RequestDiffLog(bounded=False))
    with pytest.raises(MeasurementError):
        serial.merge(RequestDiffLog(bounded=True, max_buckets=16))


def test_exact_diff_log_has_no_sketches():
    log = RequestDiffLog()
    log.observe(0, 1, "europe", 30.0, 25.0)
    with pytest.raises(MeasurementError):
        log.diff_sketch()
    with pytest.raises(MeasurementError):
        log.day_region_sketches()
    assert log.sketch_stats() == (0, 0, 0, 0)


def test_bounded_passive_log():
    log = PassiveLog(bounded=True)
    log.record(0, "c1", "fe1", 10)
    log.record(0, "c2", "fe1", 5)
    log.record(1, "c1", "fe2", 2)
    assert log.is_bounded
    assert log.total_queries(0) == 15
    assert log.day_totals(0) == {"fe1": 15}
    assert log.days == (0, 1)
    with pytest.raises(MeasurementError):
        log.clients_on(0)
    with pytest.raises(MeasurementError):
        log.frontends_for(0, "c1")


def test_bounded_passive_log_merge():
    a = PassiveLog(bounded=True)
    a.record(0, "c1", "fe1", 10)
    b = PassiveLog(bounded=True)
    b.record(0, "c2", "fe1", 5)
    a.merge(b)
    assert a.day_totals(0) == {"fe1": 15}
    with pytest.raises(MeasurementError):
        a.merge(PassiveLog(bounded=False))


# ----------------------------------------------------------------------
# Dataset digest / export / transport in bounded mode
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bounded_dataset(small_scenario):
    config = CampaignConfig(
        engine="vectorized", sketch_threshold=16, sketch_max_buckets=64
    )
    return CampaignRunner(small_scenario, config).run()


def test_bounded_dataset_digest_stable(bounded_dataset):
    assert bounded_dataset.digest() == bounded_dataset.digest()
    assert bounded_dataset.measurement_count > 0
    assert bounded_dataset.request_diffs.is_bounded
    assert bounded_dataset.passive.is_bounded
    # The sketch threshold actually bound: some digests promoted.
    _, sketched, _, _, _ = bounded_dataset.ecs_aggregates.sketch_stats()
    assert sketched > 0


def test_bounded_dataset_framed_round_trip(bounded_dataset, tmp_path):
    path = tmp_path / "bounded.jsonl"
    save_dataset(bounded_dataset, str(path))
    restored = load_dataset(str(path))
    assert restored.digest() == bounded_dataset.digest()
    assert restored.request_diffs.is_bounded
    assert restored.passive.is_bounded
    assert (
        restored.ecs_aggregates.exact_threshold
        == bounded_dataset.ecs_aggregates.exact_threshold
    )
    assert (
        restored.ecs_aggregates.max_buckets
        == bounded_dataset.ecs_aggregates.max_buckets
    )
    assert (
        restored.request_diffs.max_buckets
        == bounded_dataset.request_diffs.max_buckets
    )


def test_bounded_dataset_torn_tail_salvage(bounded_dataset, tmp_path):
    buffer = io.StringIO()
    save_dataset(bounded_dataset, buffer)
    text = buffer.getvalue()
    torn = text[: int(len(text) * 0.7)]
    path = tmp_path / "torn.jsonl"
    path.write_text(torn)
    restored, recovery = recover_dataset(str(path))
    assert not recovery.complete
    assert recovery.report.frames_total > 0
    assert restored.measurement_count <= bounded_dataset.measurement_count
    assert restored.request_diffs.is_bounded
    # Salvaged sketch frames are live, queryable sketches.
    sketch = restored.request_diffs.diff_sketch(None)
    if sketch is not None:
        sketch.quantile(50.0)


def test_bounded_dataset_transport_round_trip(bounded_dataset):
    payload = encode_shard_payload(bounded_dataset, None, None)
    restored, snapshot, quarantine = decode_shard_payload(
        payload, bounded_dataset.clients
    )
    assert restored.digest() == bounded_dataset.digest()
    assert restored.request_diffs.is_bounded
    assert snapshot is None and quarantine is None


def test_transport_rejects_structural_damage(bounded_dataset):
    payload = encode_shard_payload(bounded_dataset, None, None)
    not_columnar = b"X" * len(MAGIC) + payload[len(MAGIC):]
    with pytest.raises(MeasurementError):
        decode_shard_payload(not_columnar, bounded_dataset.clients)
    truncated = payload[: len(MAGIC) + 6]
    with pytest.raises(MeasurementError):
        decode_shard_payload(truncated, bounded_dataset.clients)
