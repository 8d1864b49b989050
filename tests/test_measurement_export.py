"""Round-trip tests for dataset persistence."""

import base64
import io

import numpy as np
import pytest

from repro.cli import main
from repro.clients.population import ClientPopulationConfig
from repro.errors import MeasurementError, ValidationError
from repro.analysis.poor_paths import poor_path_prevalence
from repro.analysis.prediction_eval import evaluate_prediction
from repro.measurement.export import (
    _dataset_frames,
    load_dataset,
    recover_dataset,
    save_dataset,
)
from repro.measurement.storage import read_segment_text, write_segment_file
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig


def _framed_stream(frames):
    buffer = io.StringIO()
    write_segment_file(buffer, frames)
    buffer.seek(0)
    return buffer


@pytest.fixture(scope="module")
def round_tripped(small_dataset):
    return load_dataset(_framed_stream(_dataset_frames(small_dataset)))


def test_counts_preserved(small_dataset, round_tripped):
    assert round_tripped.beacon_count == small_dataset.beacon_count
    assert round_tripped.measurement_count == small_dataset.measurement_count
    assert len(round_tripped.clients) == len(small_dataset.clients)
    assert round_tripped.calendar.num_days == small_dataset.calendar.num_days
    assert round_tripped.calendar.start == small_dataset.calendar.start


def test_clients_preserved(small_dataset, round_tripped):
    for before, after in zip(small_dataset.clients, round_tripped.clients):
        assert before.key == after.key
        assert before.asn == after.asn
        assert before.ldns_id == after.ldns_id
        assert before.daily_queries == pytest.approx(after.daily_queries)
        assert before.location.lat == pytest.approx(after.location.lat)


def test_aggregates_preserved_exactly(small_dataset, round_tripped):
    day = 0
    for group, target_id, digest in small_dataset.ecs_aggregates.iter_day(day):
        restored = round_tripped.ecs_aggregates.digest(day, group, target_id)
        assert restored is not None
        assert restored.values() == digest.values()


def test_passive_preserved(small_dataset, round_tripped):
    day = 0
    assert dict(round_tripped.passive.iter_day(day)) == dict(
        small_dataset.passive.iter_day(day)
    )


def test_diffs_preserved(small_dataset, round_tripped):
    assert round_tripped.request_diffs.diffs() == pytest.approx(
        small_dataset.request_diffs.diffs()
    )
    assert (
        round_tripped.request_diffs.region_names
        == small_dataset.request_diffs.region_names
    )


def test_analyses_agree(small_dataset, round_tripped):
    """An analysis on the restored dataset gives identical results."""
    before = poor_path_prevalence(small_dataset)
    after = poor_path_prevalence(round_tripped)
    assert before.daily_fractions == after.daily_fractions

    eval_before = evaluate_prediction(small_dataset, groupings=("ecs",))
    eval_after = evaluate_prediction(round_tripped, groupings=("ecs",))
    assert eval_before.summary("ecs", 50.0) == eval_after.summary("ecs", 50.0)


def test_file_round_trip(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    restored = load_dataset(path)
    assert restored.measurement_count == small_dataset.measurement_count


def test_stream_round_trip(small_dataset):
    buffer = io.StringIO()
    save_dataset(small_dataset, buffer)
    buffer.seek(0)
    restored = load_dataset(buffer)
    assert restored.beacon_count == small_dataset.beacon_count


def test_unknown_version_rejected(small_dataset):
    # Version 2 is the retired framed layout; only the current one loads.
    for version in (2, 99):
        frames = list(_dataset_frames(small_dataset))
        frames[0]["format_version"] = version
        with pytest.raises(
            MeasurementError, match=f"format version {version}"
        ):
            load_dataset(_framed_stream(frames))


@pytest.mark.parametrize(
    "field",
    ["sketch", "diffs_bounded", "diffs_accuracy", "diffs_max_buckets",
     "passive_bounded", "load_summary"],
)
def test_header_fields_are_required(small_dataset, field):
    frames = list(_dataset_frames(small_dataset))
    del frames[0][field]
    with pytest.raises(
        MeasurementError, match=f"malformed dataset export.*{field}"
    ):
        load_dataset(_framed_stream(frames))


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.aggregate import GroupedDailyAggregates
from repro.measurement.export import (
    _aggregate_day_rows,
    _apply_aggregate_rows,
)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),          # day
            st.sampled_from(["g1", "g2", "g3"]),           # group
            st.sampled_from(["anycast", "fe-a", "fe-b"]),  # target
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ),
        max_size=60,
    )
)
@settings(max_examples=40)
def test_aggregate_serialization_round_trip_property(samples):
    before = GroupedDailyAggregates("ecs")
    for day, group, target, rtt in samples:
        before.observe(day, group, target, rtt)
    after = GroupedDailyAggregates("ecs")
    for day in before.days:
        _apply_aggregate_rows(after, day, _aggregate_day_rows(before, day))
    assert after.days == before.days
    for day in before.days:
        before_rows = sorted(
            (g, t, d.values()) for g, t, d in before.iter_day(day)
        )
        after_rows = sorted(
            (g, t, d.values()) for g, t, d in after.iter_day(day)
        )
        assert before_rows == after_rows


def test_framed_parse_rejects_a_crc_valid_negative_sample(tmp_path, capsys):
    """The framed-parse load boundary gates values, not just CRCs.

    One aggregates frame of a saved export is rewritten, with a valid
    CRC, to carry a -5.0 ms sample.  Both framed parses (``load_dataset``
    re-parses because the file's fingerprint no longer matches its
    sidecar, and ``recover_dataset``) fail strictly, and ``repro
    analyze`` prints one error line and exits 2.
    """
    scenario = Scenario.build(
        ScenarioConfig(
            seed=7,
            population=ClientPopulationConfig(prefix_count=20),
            calendar=SimulationCalendar(num_days=1),
        )
    )
    path = str(tmp_path / "export.json")
    save_dataset(
        CampaignRunner(scenario, CampaignConfig(engine="matrix")).run(), path
    )
    with open(path, "r", encoding="utf-8", newline="") as handle:
        frames, _ = read_segment_text(handle.read(), strict=True)
    frame = next(f for f in frames if f.get("kind") == "aggregates")
    group, target_id, payload = frame["rows"][0]
    values = np.frombuffer(base64.b64decode(payload), dtype=np.float64)
    poisoned = np.append(values, -5.0)
    frame["rows"][0] = [
        group, target_id, base64.b64encode(poisoned.tobytes()).decode("ascii")
    ]
    write_segment_file(path, frames)

    with pytest.raises(ValidationError, match="negative-rtt"):
        load_dataset(path)
    with pytest.raises(ValidationError, match="negative-rtt"):
        recover_dataset(path)
    capsys.readouterr()
    assert main(["analyze", path, "--figures", "fig3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid record")
