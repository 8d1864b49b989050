"""Validation gate, quarantine log, and dataset-boundary scan tests.

The hardened data plane's contract: every ingestion boundary applies one
schema (``classify_rtt``) under one of three policies, every rejection
lands in a mergeable :class:`QuarantineLog` with exact per-reason
counts, and the scalar and vectorized admission paths quarantine the
same record coordinates so engines agree bit-for-bit on the accounting.
"""

import math
import random

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.measurement.aggregate import GroupedDailyAggregates
from repro.measurement.validate import (
    MAX_PLAUSIBLE_RTT_MS,
    QUARANTINE_SAMPLE_CAP,
    RECORD_SCHEMA_VERSION,
    REASON_ABSURD_RTT,
    REASON_NEGATIVE_COUNT,
    REASON_NEGATIVE_RTT,
    REASON_NON_FINITE_RTT,
    REASON_TRUNCATED,
    QuarantineLog,
    ValidationGate,
    ValidationPolicy,
    classify_rtt,
    validate_dataset,
)
from tests.helpers import make_client, make_dataset


class TestClassifyRtt:
    def test_valid_range_passes(self):
        for value in (0.0, 1.0, 42.5, MAX_PLAUSIBLE_RTT_MS):
            assert classify_rtt(value) is None

    def test_invalid_shapes_classified(self):
        assert classify_rtt(float("nan")) == (REASON_NON_FINITE_RTT, None)
        assert classify_rtt(float("inf")) == (REASON_NON_FINITE_RTT, None)
        assert classify_rtt(float("-inf")) == (REASON_TRUNCATED, None)
        assert classify_rtt(-3.0) == (REASON_NEGATIVE_RTT, 0.0)
        assert classify_rtt(MAX_PLAUSIBLE_RTT_MS + 1.0) == (
            REASON_ABSURD_RTT,
            MAX_PLAUSIBLE_RTT_MS,
        )

    def test_policy_parse(self):
        assert ValidationPolicy.parse("strict") is ValidationPolicy.STRICT
        assert (
            ValidationPolicy.parse(ValidationPolicy.REPAIR)
            is ValidationPolicy.REPAIR
        )
        with pytest.raises(ValidationError) as excinfo:
            ValidationPolicy.parse("yolo")
        assert excinfo.value.reason == "bad-policy"


class TestValidationGate:
    def test_lenient_drops_and_accounts(self):
        gate = ValidationGate("lenient")
        assert gate.admit(0, "10.0.0.0/24", 0, 12.0) == 12.0
        assert gate.admit(0, "10.0.0.0/24", 1, -5.0) is None
        assert gate.admit(0, "10.0.0.0/24", 2, float("nan")) is None
        assert gate.records_total == 3
        assert gate.dropped_total == 2
        assert gate.repaired_total == 0
        assert gate.quarantine.counts == {
            REASON_NEGATIVE_RTT: 1,
            REASON_NON_FINITE_RTT: 1,
        }

    def test_strict_raises_with_reason(self):
        gate = ValidationGate(ValidationPolicy.STRICT)
        with pytest.raises(ValidationError) as excinfo:
            gate.admit(2, "10.0.3.0/24", 7, -1.0)
        assert excinfo.value.reason == REASON_NEGATIVE_RTT
        assert "day 2" in str(excinfo.value)

    def test_repair_clamps_recoverable_drops_the_rest(self):
        gate = ValidationGate("repair")
        assert gate.admit(0, "c", 0, -9.0) == 0.0
        assert gate.admit(0, "c", 1, MAX_PLAUSIBLE_RTT_MS * 2) == (
            MAX_PLAUSIBLE_RTT_MS
        )
        assert gate.admit(0, "c", 2, float("-inf")) is None
        assert gate.repaired_total == 2
        assert gate.dropped_total == 1
        assert gate.quarantine.repaired == 2
        assert gate.quarantine.dropped == 1

    def test_passive_count_boundary(self):
        gate = ValidationGate("lenient")
        assert gate.admit_count(0, "ldns-1", "fe-lon", 5) == 5
        assert gate.admit_count(0, "ldns-1", "fe-lon", -2) is None
        assert gate.quarantine.counts == {REASON_NEGATIVE_COUNT: 1}
        repair = ValidationGate("repair")
        assert repair.admit_count(0, "ldns-1", "fe-lon", -2) == 0

    def test_matrix_path_matches_scalar_path(self):
        """The engines' shared contract: same records, same quarantine."""
        rng = random.Random(11)
        rows, cols = 8, 5
        block = np.array(
            [
                [rng.uniform(1.0, 300.0) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        dirty = {
            (0, 1): float("nan"),
            (2, 3): -40.0,
            (5, 0): float("-inf"),
            (7, 4): MAX_PLAUSIBLE_RTT_MS * 3,
        }
        for (r, c), value in dirty.items():
            block[r, c] = value

        # The block holds the client-day's beacons from row 7 on; record
        # indices are day-level, so they count from there.
        first_row = 7
        scalar_gate = ValidationGate("repair")
        expected = np.array(block)
        expected_mask = np.ones((rows, cols), dtype=bool)
        for r in range(rows):
            for c in range(cols):
                admitted = scalar_gate.admit(
                    3,
                    "10.9.9.0/24",
                    (first_row + r) * cols + c,
                    float(block[r, c]),
                )
                if admitted is None:
                    expected_mask[r, c] = False
                else:
                    expected[r, c] = admitted

        matrix_gate = ValidationGate("repair")
        work = np.array(block)
        mask = matrix_gate.admit_matrix(3, "10.9.9.0/24", work, first_row)
        assert mask is not None
        assert np.array_equal(mask, expected_mask)
        assert np.array_equal(work[mask], expected[expected_mask])
        assert matrix_gate.records_total == scalar_gate.records_total
        assert (
            matrix_gate.quarantine.digest() == scalar_gate.quarantine.digest()
        )

    def test_matrix_fast_path_is_zero_copy(self):
        gate = ValidationGate("lenient")
        clean = np.full((4, 3), 25.0)
        assert gate.admit_matrix(0, "c", clean, 0) is None
        assert gate.records_total == 12
        assert gate.quarantine.total == 0


class TestQuarantineLog:
    def _fill(self, log, records):
        for day, client, index, reason, value in records:
            log.record(day, client, index, reason, value)

    def test_merge_order_insensitive_digest(self):
        rng = random.Random(5)
        records = [
            (
                rng.randrange(30),
                f"10.0.{rng.randrange(200)}.0/24",
                rng.randrange(500),
                rng.choice((REASON_NEGATIVE_RTT, REASON_NON_FINITE_RTT)),
                float(rng.randrange(-100, 0)),
            )
            for _ in range(3 * QUARANTINE_SAMPLE_CAP)
        ]
        serial = QuarantineLog()
        self._fill(serial, records)

        shard_a, shard_b = QuarantineLog(), QuarantineLog()
        self._fill(shard_a, records[::2])
        self._fill(shard_b, records[1::2])
        merged = QuarantineLog().merge(shard_b).merge(shard_a)

        assert merged.counts == serial.counts
        assert merged.total == serial.total
        assert len(serial.samples) == QUARANTINE_SAMPLE_CAP
        assert merged.digest() == serial.digest()

    def test_round_trip_preserves_non_finite_values(self):
        log = QuarantineLog()
        log.record(0, "a", 1, REASON_NON_FINITE_RTT, float("nan"))
        log.record(1, "b", 2, REASON_TRUNCATED, float("-inf"))
        log.record(2, "c", 3, REASON_NEGATIVE_RTT, -4.5, repaired=True)
        restored = QuarantineLog.from_obj(log.to_obj())
        assert restored.digest() == log.digest()
        values = [s.value for s in restored.samples]
        assert math.isnan(values[0])
        assert values[1] == float("-inf")
        assert restored.repaired == 1

    def test_from_obj_rejects_bad_documents(self):
        log = QuarantineLog()
        obj = log.to_obj()
        obj["record_schema_version"] = RECORD_SCHEMA_VERSION + 1
        with pytest.raises(ValidationError) as excinfo:
            QuarantineLog.from_obj(obj)
        assert excinfo.value.reason == "bad-schema-version"
        with pytest.raises(ValidationError) as excinfo:
            QuarantineLog.from_obj({"record_schema_version": None})
        assert excinfo.value.reason == "bad-schema-version"
        broken = log.to_obj()
        del broken["counts"]
        with pytest.raises(ValidationError) as excinfo:
            QuarantineLog.from_obj(broken)
        assert excinfo.value.reason == "bad-document"


class TestValidateDataset:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        from repro.clients.population import ClientPopulationConfig
        from repro.simulation.campaign import CampaignRunner
        from repro.simulation.clock import SimulationCalendar
        from repro.simulation.scenario import Scenario, ScenarioConfig

        scenario = Scenario.build(
            ScenarioConfig(
                seed=31,
                population=ClientPopulationConfig(prefix_count=20),
                calendar=SimulationCalendar(num_days=1),
            )
        )
        return CampaignRunner(scenario).run()

    def test_clean_dataset_passes_untouched(self, small_dataset):
        before = small_dataset.digest()
        gate, removed = validate_dataset(small_dataset, "lenient")
        assert removed == 0
        assert gate.quarantine.total == 0
        assert gate.records_total > 0
        assert small_dataset.digest() == before

    def test_poisoned_aggregates_quarantined(self, small_dataset):
        import copy

        dataset = copy.deepcopy(small_dataset)
        day = dataset.ecs_aggregates.days[0]
        group, target_id, _ = next(dataset.ecs_aggregates.iter_day(day))
        dataset.ecs_aggregates.observe(day, group, target_id, float("nan"))
        dataset.ecs_aggregates.observe(day, group, target_id, -12.0)
        dataset.measurement_count += 2
        before_count = dataset.measurement_count

        gate, removed = validate_dataset(dataset, "lenient")
        assert removed == 2
        assert gate.quarantine.counts == {
            REASON_NON_FINITE_RTT: 1,
            REASON_NEGATIVE_RTT: 1,
        }
        assert dataset.measurement_count == before_count - 2
        cleaned = dataset.ecs_aggregates.digest(day, group, target_id)
        assert all(
            0.0 <= v <= MAX_PLAUSIBLE_RTT_MS for v in cleaned.values()
        )

    def test_poisoned_diff_rows_dropped(self, small_dataset):
        import copy

        dataset = copy.deepcopy(small_dataset)
        diffs = dataset.request_diffs
        rows_before = len(diffs)
        assert rows_before > 2
        diffs._anycast[0] = float("nan")
        diffs._best_unicast[1] = -50.0

        gate, _ = validate_dataset(dataset, "lenient")
        assert len(dataset.request_diffs) == rows_before - 2
        assert gate.quarantine.dropped == 2

    def test_lenient_cleaning_keeps_the_sketch_cap(self):
        # Two /24s behind one resolver, one per shard; cells stay exact
        # (40 samples, threshold 64) while their union promotes.
        clients = (make_client(1), make_client(2))

        def shard(index, values):
            dataset = make_dataset(clients, num_days=1)
            dataset.ecs_aggregates = GroupedDailyAggregates(
                "ecs", exact_threshold=64, max_buckets=32
            )
            dataset.ecs_aggregates.observe_many(
                0, clients[index].key, "anycast", values
            )
            dataset.covered_ranges = ((index, index + 1),)
            return dataset

        left = shard(0, [float(v) for v in range(10, 50)])
        left.ecs_aggregates.observe(0, clients[0].key, "anycast", float("nan"))
        _, removed = validate_dataset(left, "lenient")
        assert removed == 1
        cleaned = left.ecs_aggregates.digest(0, clients[0].key, "anycast")
        assert cleaned.is_exact and left.ecs_aggregates.max_buckets == 32
        merged = left.merge(shard(1, [float(v) for v in range(20, 60)]))
        resolver_cell = merged.ldns_aggregates.digest(0, "ldns-x", "anycast")
        assert not resolver_cell.is_exact
        assert resolver_cell.count == 80

    def test_strict_dataset_scan_raises(self, small_dataset):
        import copy

        dataset = copy.deepcopy(small_dataset)
        day = dataset.ecs_aggregates.days[0]
        group, target_id, _ = next(dataset.ecs_aggregates.iter_day(day))
        dataset.ecs_aggregates.observe(day, group, target_id, float("inf"))
        with pytest.raises(ValidationError):
            validate_dataset(dataset, "strict")


class TestPerDayScan:
    """Each day is checked in one comparison; a day holding a bad sample
    falls back to the per-cell scan, so the outcome equals a scan that
    gates every sample on its own."""

    CLIENTS = (make_client(1), make_client(2), make_client(3))
    POISON = {1: (float("nan"), -5.0, 70_000.0, float("-inf"))}

    def dataset(self):
        rows = []
        for day in range(3):
            for index, client in enumerate(self.CLIENTS):
                for target in ("anycast", "fe-a"):
                    values = [10.0 + day + index + 0.5 * k for k in range(6)]
                    if index == 1 and target == "fe-a":
                        values[2:2] = self.POISON.get(day, ())
                    rows.append((day, client.key, target, values))
        return make_dataset(self.CLIENTS, num_days=3, ecs_samples=rows)

    @staticmethod
    def per_sample(dataset, policy):
        gate = ValidationGate(policy)
        aggregates = dataset.ecs_aggregates
        cells = {}
        for day in aggregates.days:
            for group, target_id, digest in aggregates.iter_day(day):
                cells[day, group, target_id] = [
                    admitted
                    for admitted in (
                        gate.admit(day, group, -1, value)
                        for value in digest.values()
                    )
                    if admitted is not None
                ]
        return gate, cells

    @pytest.mark.parametrize("policy", ["lenient", "repair"])
    def test_equals_a_per_sample_scan(self, policy):
        expected_gate, expected_cells = self.per_sample(self.dataset(), policy)
        dataset = self.dataset()
        gate, removed = validate_dataset(dataset, policy)
        aggregates = dataset.ecs_aggregates
        cells = {
            (day, group, target_id): list(digest.values())
            for day in aggregates.days
            for group, target_id, digest in aggregates.iter_day(day)
        }
        assert cells == expected_cells
        assert gate.records_total == expected_gate.records_total == 112
        assert gate.dropped_total == expected_gate.dropped_total
        assert gate.repaired_total == expected_gate.repaired_total
        assert gate.quarantine.digest() == expected_gate.quarantine.digest()
        assert removed == expected_gate.dropped_total
        assert {s.day for s in gate.quarantine.samples} == {1}

    def test_strict_names_the_first_bad_sample_of_the_day(self):
        with pytest.raises(ValidationError, match=r"record -1\): non-finite"):
            validate_dataset(self.dataset(), "strict")
