"""Registry semantics: counters, gauges, histograms, and their merges."""

import math
import random

import pytest

from repro.errors import ReproError, TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySnapshot,
)
from repro.telemetry.core import Telemetry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("beacons")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_raises(self):
        counter = Counter("beacons")
        counter.inc(3)
        with pytest.raises(TelemetryError):
            counter.inc(-1)
        assert counter.value == 3

    def test_telemetry_error_is_a_repro_error(self):
        assert issubclass(TelemetryError, ReproError)


class TestGauge:
    def test_set_replaces(self):
        gauge = Gauge("wall")
        gauge.set(2.5)
        gauge.set(1.0)
        assert gauge.value == 1.0

    @pytest.mark.parametrize(
        "merge,values,expected",
        [
            ("max", (3.0, 7.0, 5.0), 7.0),
            ("min", (3.0, -2.0, 5.0), -2.0),
            ("sum", (3.0, 7.0, 5.0), 15.0),
            ("last", (3.0, 7.0, 5.0), 5.0),
        ],
    )
    def test_combine_policies(self, merge, values, expected):
        gauge = Gauge("g", merge=merge)
        gauge.set(values[0])
        for value in values[1:]:
            gauge.combine(value)
        assert gauge.value == expected

    def test_unknown_merge_mode_raises(self):
        with pytest.raises(TelemetryError):
            Gauge("g", merge="average")


class TestHistogram:
    def test_bucket_edges_are_log_spaced(self):
        histogram = Histogram("h", start=1.0, growth=2.0, bucket_count=4)
        assert histogram.edges == (1.0, 2.0, 4.0, 8.0)

    def test_observations_land_in_correct_buckets(self):
        histogram = Histogram("h", start=1.0, growth=2.0, bucket_count=4)
        for value in (0.5, 1.0, 1.5, 3.0, 8.0, 100.0):
            histogram.observe(value)
        # <=1 -> bucket 0 (twice); <=2 -> 1; <=4 -> 2; <=8 -> 3; overflow.
        assert histogram.bucket_counts == (2, 1, 1, 1, 1)
        assert histogram.count == 6
        assert histogram.sum == pytest.approx(114.0)

    def test_invalid_layouts_raise(self):
        with pytest.raises(TelemetryError):
            Histogram("h", start=0.0)
        with pytest.raises(TelemetryError):
            Histogram("h", growth=1.0)
        with pytest.raises(TelemetryError):
            Histogram("h", bucket_count=0)

    def test_percentile_bounds(self):
        histogram = Histogram("h", start=1.0, growth=2.0, bucket_count=8)
        assert histogram.percentile(50.0) == 0.0
        histogram.observe_many([1.0] * 100)
        assert histogram.percentile(50.0) <= 1.0
        with pytest.raises(TelemetryError):
            histogram.percentile(101.0)

    def test_percentile_tracks_distribution(self):
        histogram = Histogram("h", start=1e-3, growth=1.5, bucket_count=40)
        rng = random.Random(7)
        values = [rng.uniform(0.01, 10.0) for _ in range(2000)]
        histogram.observe_many(values)
        values.sort()
        for q in (50.0, 90.0, 99.0):
            exact = values[int(q / 100.0 * len(values)) - 1]
            estimate = histogram.percentile(q)
            # Log-bucketed estimates are within one growth factor.
            assert exact / 1.5 <= estimate <= exact * 1.5

    def test_absorb_rejects_mismatched_bucket_count(self):
        histogram = Histogram("h", bucket_count=8)
        with pytest.raises(TelemetryError):
            histogram.absorb([0] * 4, 0.0, 0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("beacons")
        second = registry.counter("beacons")
        assert first is second
        assert len(registry) == 1

    def test_double_registration_raises(self):
        registry = MetricsRegistry()
        registry.register(Counter("beacons"))
        with pytest.raises(TelemetryError):
            registry.register(Counter("beacons"))

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x")

    def test_gauge_policy_conflict_raises(self):
        registry = MetricsRegistry()
        registry.gauge("wall", merge="max")
        with pytest.raises(TelemetryError):
            registry.gauge("wall", merge="sum")

    def test_histogram_layout_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", start=1.0, growth=2.0, bucket_count=8)
        with pytest.raises(TelemetryError):
            registry.histogram("h", start=1.0, growth=2.0, bucket_count=16)

    def test_kind_accessors_partition_metrics(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        registry.histogram("h")
        assert [m.name for m in registry.counters()] == ["c"]
        assert [m.name for m in registry.gauges()] == ["g"]
        assert [m.name for m in registry.histograms()] == ["h"]


def _shard_snapshot(seed: int) -> TelemetrySnapshot:
    """A synthetic worker snapshot with deterministic pseudo-data."""
    telemetry = Telemetry({"seed": 11, "engine": "reference"})
    rng = random.Random(seed)
    telemetry.counter("beacons").inc(rng.randrange(1, 500))
    telemetry.gauge("wall", merge="max").set(rng.uniform(0.1, 5.0))
    histogram = telemetry.histogram("latency")
    histogram.observe_many(rng.uniform(1e-4, 10.0) for _ in range(300))
    telemetry.spans.record_seconds("campaign", rng.uniform(0.5, 2.0))
    telemetry.spans.record_seconds(
        "campaign/day", rng.uniform(0.1, 1.0), index=seed % 3
    )
    return telemetry.snapshot()


def _absorbed(*seeds: int) -> TelemetrySnapshot:
    """A coordinator's snapshot after absorbing the given shards."""
    telemetry = Telemetry()
    for seed in seeds:
        telemetry.absorb(_shard_snapshot(seed))
    return telemetry.snapshot()


class TestSnapshotMerge:
    """Snapshots combine one way: :meth:`Telemetry.absorb`."""

    def test_histogram_merge_is_order_insensitive(self):
        orderings = [
            list(range(6)),
            list(reversed(range(6))),
            [3, 0, 5, 1, 4, 2],
        ]
        merged = [_absorbed(*ordering) for ordering in orderings]
        first = merged[0]
        for other in merged[1:]:
            # Integer state (bucket counts, observation counts, counters,
            # span entry counts and microseconds) merges bit-identically
            # in any order; float sums only up to addition-order rounding.
            assert other.counters == first.counters
            for name, hist in first.histograms.items():
                assert other.histograms[name]["counts"] == hist["counts"]
                assert (
                    other.histograms[name]["observations"]
                    == hist["observations"]
                )
                assert other.histograms[name]["sum"] == pytest.approx(
                    hist["sum"]
                )
            assert other.gauges == first.gauges  # "max" is order-free
            assert other.spans == first.spans
            assert other.trace.digest() == first.trace.digest()

    def test_counters_and_spans_add(self):
        merged = _absorbed(0, 1)
        expected = (
            _shard_snapshot(0).counters["beacons"]
            + _shard_snapshot(1).counters["beacons"]
        )
        assert merged.counters["beacons"] == expected
        expected_seconds = (
            _shard_snapshot(0).spans["campaign"].seconds
            + _shard_snapshot(1).spans["campaign"].seconds
        )
        assert merged.spans["campaign"].count == 2
        assert merged.spans["campaign"].seconds == pytest.approx(
            expected_seconds
        )

    def test_context_conflict_raises(self):
        telemetry = Telemetry({"seed": 11, "engine": "reference"})
        other = _shard_snapshot(1)
        other.context["seed"] = 99
        with pytest.raises(TelemetryError, match="seed"):
            telemetry.absorb(other)

    def test_workers_context_key_is_exempt(self):
        telemetry = Telemetry({"seed": 11, "workers": 4})
        shard = _shard_snapshot(1)
        shard.context["workers"] = 1
        telemetry.absorb(shard)
        assert telemetry.snapshot().context["workers"] == 4

    def test_histogram_layout_conflict_raises(self):
        telemetry = Telemetry()
        telemetry.absorb(_shard_snapshot(0))
        other = _shard_snapshot(1)
        other.histograms["latency"]["bucket_count"] = 12
        with pytest.raises(TelemetryError):
            telemetry.absorb(other)


class TestSerialization:
    def test_json_round_trip(self):
        snapshot = _shard_snapshot(3)
        restored = TelemetrySnapshot.from_json(snapshot.to_json())
        assert restored.to_json() == snapshot.to_json()
        assert restored.counters == snapshot.counters
        assert restored.spans == snapshot.spans
        assert "spans" not in snapshot.to_obj()

    def test_unknown_format_version_raises(self):
        # Version 1 carried a separate ``spans`` section; its readers
        # are gone, so it fails like any unknown version.
        for version in (1, 999):
            document = _shard_snapshot(0).to_obj()
            document["format_version"] = version
            with pytest.raises(TelemetryError, match="snapshot format"):
                TelemetrySnapshot.from_obj(document)

    def test_prometheus_export_shapes(self):
        text = _shard_snapshot(2).to_prometheus()
        assert "# TYPE repro_beacons counter" in text
        assert "# TYPE repro_wall gauge" in text
        assert "# TYPE repro_latency histogram" in text
        assert 'repro_latency_bucket{le="+Inf"}' in text
        assert 'repro_phase_seconds_total{phase="campaign/day"}' in text
        # Cumulative bucket series must be monotonically non-decreasing.
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_latency_bucket")
        ]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == 300
