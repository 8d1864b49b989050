"""Tests for measurement log stores and aggregation structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, MeasurementError
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.logs import (
    HttpLogEntry,
    PassiveLog,
    RawMeasurementLog,
    ServerLogEntry,
)


def _cell(values):
    """A one-cell store holding ``values``, and its read-only view."""
    sink = GroupedDailyAggregates("ecs")
    sink.observe_many(0, "g", "anycast", values)
    return sink, sink.digest(0, "g", "anycast")


class TestLatencyDigest:
    def test_count_and_percentiles(self):
        _, digest = _cell([5.0, 1.0, 3.0])
        assert digest.count == 3
        assert digest.median() == 3.0
        assert digest.minimum() == 1.0

    def test_add_invalidates_sorted_view(self):
        sink, digest = _cell([10.0])
        assert digest.median() == 10.0
        sink.observe(0, "g", "anycast", 0.0)
        assert sink.digest(0, "g", "anycast").median() == 5.0

    def test_merge(self):
        a, _ = _cell([1.0, 2.0])
        b, _ = _cell([3.0, 4.0])
        a.merge(b)
        assert a.digest(0, "g", "anycast").count == 4
        assert a.digest(0, "g", "anycast").values() == (1.0, 2.0, 3.0, 4.0)

    def test_empty_errors(self):
        # An empty run still opens its cell.
        sink = GroupedDailyAggregates("ecs")
        sink.observe_runs(0, [("g", "anycast", 0, 0)], np.empty(0))
        digest = sink.digest(0, "g", "anycast")
        assert digest.count == 0
        with pytest.raises(AnalysisError):
            digest.percentile(50)
        with pytest.raises(AnalysisError):
            digest.minimum()

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e5, allow_nan=False),
            min_size=1, max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_percentiles_match_numpy(self, values):
        _, digest = _cell(values)
        for q in (25.0, 50.0, 75.0):
            assert digest.percentile(q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-9, abs=1e-9
            )


class TestGroupedDailyAggregates:
    def test_observe_and_query(self):
        agg = GroupedDailyAggregates("ecs")
        agg.observe(0, "10.0.0.0/24", "anycast", 20.0)
        agg.observe(0, "10.0.0.0/24", "anycast", 22.0)
        agg.observe(0, "10.0.0.0/24", "fe-lon", 18.0)
        agg.observe(1, "10.0.0.0/24", "anycast", 30.0)
        assert agg.days == (0, 1)
        assert agg.groups_on(0) == ("10.0.0.0/24",)
        digest = agg.digest(0, "10.0.0.0/24", "anycast")
        assert digest is not None and digest.count == 2
        assert agg.digest(0, "10.0.0.0/24", "fe-nyc") is None
        targets = agg.targets_for(0, "10.0.0.0/24")
        assert set(targets) == {"anycast", "fe-lon"}

    def test_iter_day(self):
        agg = GroupedDailyAggregates("ldns")
        agg.observe(2, "ldns-a", "anycast", 1.0)
        triples = list(agg.iter_day(2))
        assert len(triples) == 1
        assert triples[0][0] == "ldns-a"

    def test_empty_grouping_label(self):
        with pytest.raises(MeasurementError):
            GroupedDailyAggregates("")


class TestRequestDiffLog:
    def test_observe_and_diffs(self):
        log = RequestDiffLog()
        log.observe(0, 1, "europe", 30.0, 20.0)
        log.observe(0, 2, "united-states", 15.0, 18.0)
        assert len(log) == 2
        assert log.diffs() == pytest.approx([10.0, -3.0])
        assert log.diffs("europe") == pytest.approx([10.0])
        assert log.diffs("asia") == []

    def test_region_codes_stable(self):
        log = RequestDiffLog()
        assert log.region_code("europe") == 0
        assert log.region_code("asia") == 1
        assert log.region_code("europe") == 0
        assert log.region_names == ("europe", "asia")

    def test_rows(self):
        log = RequestDiffLog()
        log.observe(3, 7, "europe", 30.0, 20.0)
        row = next(log.rows())
        assert row.client_index == 7
        assert row.diff_ms == pytest.approx(10.0)


class TestPassiveLog:
    def test_record_and_query(self):
        log = PassiveLog()
        log.record(0, "p1", "fe-a", 10)
        log.record(0, "p1", "fe-a", 5)
        log.record(0, "p1", "fe-b", 3)
        assert log.frontends_for(0, "p1") == {"fe-a": 15, "fe-b": 3}
        assert log.primary_frontend(0, "p1") == "fe-a"
        assert log.total_queries(0) == 18
        assert log.clients_on(0) == ("p1",)
        assert log.days == (0,)

    def test_zero_count_is_noop(self):
        log = PassiveLog()
        log.record(0, "p1", "fe-a", 0)
        assert log.frontends_for(0, "p1") == {}
        assert log.primary_frontend(0, "p1") is None

    def test_negative_count_rejected(self):
        with pytest.raises(MeasurementError):
            PassiveLog().record(0, "p1", "fe-a", -1)

    def test_primary_tie_breaks_on_name(self):
        log = PassiveLog()
        log.record(0, "p1", "fe-b", 5)
        log.record(0, "p1", "fe-a", 5)
        assert log.primary_frontend(0, "p1") == "fe-b"  # max by (count, name)

    def test_iter_day(self):
        log = PassiveLog()
        log.record(1, "p1", "fe-a", 2)
        assert dict(log.iter_day(1)) == {"p1": {"fe-a": 2}}
        assert list(log.iter_day(5)) == []


class TestRawMeasurementLog:
    def test_records_and_lookup(self):
        log = RawMeasurementLog()
        log.record_dns("m1", "ldns-1", "anycast")
        log.record_http(HttpLogEntry(0, "m1", "10.0.0.0/24", 25.0, True))
        log.record_server(ServerLogEntry(0, "m1", "fe-lon"))
        assert log.dns_record("m1") == ("ldns-1", "anycast")
        assert len(log) == 1

    def test_duplicate_dns_rejected(self):
        log = RawMeasurementLog()
        log.record_dns("m1", "a", "b")
        with pytest.raises(MeasurementError, match="duplicate"):
            log.record_dns("m1", "a", "b")

    def test_missing_dns_record(self):
        with pytest.raises(MeasurementError, match="no DNS record"):
            RawMeasurementLog().dns_record("missing")
