"""Columnar sidecar cache: round-trip parity, staleness, salvage.

The sidecar (``repro.measurement.columnar``) is a derived read cache —
every test here asserts the same invariant from a different angle: no
matter what happens to the sidecar (fresh, stale, torn, absent), a load
returns exactly the dataset the framed export describes.  The sidecar,
the framed export, the shard transport and the service window
checkpoint share one column codec, so one property below round-trips a
generated dataset through all of them.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.measurement.aggregate import GroupedDailyAggregates, RequestDiffLog
from repro.measurement.columnar import (
    MAGIC,
    file_fingerprint,
    load_sidecar,
    sidecar_path,
    write_sidecar,
)
from repro.measurement.export import (
    _dataset_frames,
    load_dataset,
    recover_dataset,
    save_dataset,
)
from repro.measurement.logs import PassiveLog
from repro.measurement.storage import write_segment_file
from repro.measurement.validate import validate_dataset
from repro.service import BeaconEvent, PredictionWindow
from repro.simulation.clock import SimulationCalendar
from repro.simulation.dataset import StudyDataset
from repro.simulation.transport import MAGIC as SHARD_MAGIC
from repro.simulation.transport import (
    decode_shard_payload,
    encode_shard_payload,
)

from .helpers import make_client, make_dataset

#: Group keys of the generated aggregates: client /24s, so the derived
#: LDNS plane finds a client record for every group.
CLIENT_KEYS = [make_client(i).key for i in range(1, 5)]


def _assert_equal_datasets(left, right):
    assert left.digest() == right.digest()
    assert left.beacon_count == right.beacon_count
    assert left.measurement_count == right.measurement_count
    assert left.clients == right.clients
    for day in left.ecs_aggregates.days:
        left_rows = sorted(
            (g, t, d.values())
            for g, t, d in left.ecs_aggregates.iter_day(day)
        )
        right_rows = sorted(
            (g, t, d.values())
            for g, t, d in right.ecs_aggregates.iter_day(day)
        )
        assert left_rows == right_rows


def test_sidecar_round_trip_matches_framed_parse(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    assert os.path.exists(sidecar_path(path))

    framed = recover_dataset(path)[0]
    columnar = load_dataset(path)
    _assert_equal_datasets(framed, small_dataset)
    _assert_equal_datasets(columnar, small_dataset)
    _assert_equal_datasets(columnar, framed)


def test_load_sidecar_directly(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    cached = load_sidecar(path)
    assert cached is not None
    _assert_equal_datasets(cached, small_dataset)


def test_missing_sidecar_falls_back_and_rewrites(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    os.remove(sidecar_path(path))

    loaded = load_dataset(path)
    _assert_equal_datasets(loaded, small_dataset)
    # The framed parse refreshed the sidecar for the next load.
    assert os.path.exists(sidecar_path(path))
    _assert_equal_datasets(load_dataset(path), small_dataset)


def test_stale_sidecar_is_rejected_and_refreshed(
    small_dataset, small_scenario, tmp_path
):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)

    # Re-export a *different* dataset over the framed file while keeping
    # the old sidecar: the fingerprint no longer matches.
    smaller = make_dataset(
        [make_client(1)],
        ecs_samples=[(0, "10.0.1.0/24", "anycast", [10.0, 20.0])],
    )
    stale = str(tmp_path / "stale.cols")
    os.replace(sidecar_path(path), stale)
    save_dataset(smaller, path)
    os.replace(stale, sidecar_path(path))
    assert load_sidecar(path) is None

    # load_dataset must serve the framed truth, not the stale cache.
    framed = recover_dataset(path)[0]
    assert framed.digest() != small_dataset.digest()
    loaded = load_dataset(path)
    _assert_equal_datasets(loaded, framed)
    # ... and the refreshed sidecar now describes the new export.
    refreshed = load_sidecar(path)
    assert refreshed is not None
    _assert_equal_datasets(refreshed, framed)


def test_corrupt_sidecar_falls_back(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)

    # Bad magic.
    with open(sidecar_path(path), "r+b") as handle:
        handle.write(b"XXXX")
    assert load_sidecar(path) is None
    _assert_equal_datasets(load_dataset(path), small_dataset)

    # Truncated payload (fresh sidecar was rewritten by the load above).
    size = os.path.getsize(sidecar_path(path))
    with open(sidecar_path(path), "r+b") as handle:
        handle.truncate(size // 2)
    assert load_sidecar(path) is None

    # Empty file.
    with open(sidecar_path(path), "wb"):
        pass
    assert load_sidecar(path) is None
    _assert_equal_datasets(load_dataset(path), small_dataset)


def _age_sidecar(path):
    """Give a sidecar's payload the transport magic of the format-3
    layout, which still shipped an LDNS plane."""
    with open(sidecar_path(path), "rb") as handle:
        raw = handle.read()
    assert raw.count(SHARD_MAGIC) == 1
    with open(sidecar_path(path), "wb") as handle:
        handle.write(raw.replace(SHARD_MAGIC, b"RPRO-SHARD3\x00"))


def test_sidecar_with_old_transport_magic_is_a_miss(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    _age_sidecar(path)
    assert load_sidecar(path) is None
    _assert_equal_datasets(load_dataset(path), small_dataset)


def test_format_4_export_beside_its_sidecar_fails_in_one_line(
    small_dataset, tmp_path, capsys
):
    # A format-4 export with a sidecar fingerprinted from its bytes: the
    # sidecar misses on its magic, and the framed parse names the version.
    path = str(tmp_path / "old.json")
    frames = list(_dataset_frames(small_dataset))
    frames[0]["format_version"] = 4
    write_segment_file(path, frames)
    write_sidecar(path, small_dataset)
    with open(sidecar_path(path), "rb") as handle:
        raw = handle.read()
    with open(sidecar_path(path), "wb") as handle:
        handle.write(raw.replace(MAGIC, b"RPRO-COLS1\x00", 1))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "unsupported dataset format version 4" in err


def test_torn_tail_salvage_ignores_sidecar(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    intact = recover_dataset(path)[0]

    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 120)

    # The sidecar still describes the intact export; a strict load must
    # not serve it (fingerprint mismatch) ...
    assert load_sidecar(path) is None
    # ... and salvage works purely from the frames: it reports an
    # incomplete recovery even though a byte-complete sidecar sits next
    # to the torn file.
    recovered, recovery = recover_dataset(path)
    assert not recovery.report.complete
    assert recovered.measurement_count <= intact.measurement_count
    assert recovered.beacon_count <= intact.beacon_count


def test_write_sidecar_is_best_effort(small_dataset, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "dataset.json")
    assert write_sidecar(missing, small_dataset) is False


def test_fingerprint_pins_exact_bytes(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    before = file_fingerprint(path)
    # Same-length rewrite still changes the fingerprint.
    with open(path, "r+b") as handle:
        first = handle.read(1)
        handle.seek(0)
        handle.write(b"#" if first != b"#" else b"%")
    after = file_fingerprint(path)
    assert before[0] == after[0]
    assert before[1] != after[1]
    assert load_sidecar(path) is None


def test_sidecar_magic_is_distinct_from_transport():
    # A sidecar is not a raw shard payload: feeding one to the shard
    # decoder must fail loudly, not mis-decode.
    from repro.simulation.transport import MAGIC as SHARD_MAGIC

    assert MAGIC != SHARD_MAGIC


#: Per-client resolvers: two /24s behind each, so the LDNS view folds.
LDNS_OF = {key: f"ldns-{i % 2}" for i, key in enumerate(CLIENT_KEYS)}

#: Days the generated cells fall on; one more day holds only sketch cells.
DAYS = 4

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=0,
    max_size=17,
)
diff_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DAYS - 1),       # day
        st.integers(min_value=0, max_value=len(CLIENT_KEYS) - 1),
        st.sampled_from(["na", "eu", "as"]),                # region
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ),
    max_size=20,
)
passive_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DAYS - 1),       # day
        st.sampled_from(CLIENT_KEYS),
        st.sampled_from(["fe-a", "fe-b"]),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=12,
)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=DAYS - 1),   # day
            st.sampled_from(CLIENT_KEYS),                   # group
            st.sampled_from(["anycast", "fe-a", "fe-b"]),   # target
            samples,
        ),
        max_size=25,
    ),
    st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=DAYS - 1),
            st.sampled_from(CLIENT_KEYS),
        ),
        max_size=3,
    ),                                                      # zero-sample cells
    st.sampled_from([None, 4]),                             # sketch mode
    st.sampled_from([8, 512]),                              # bucket cap
    st.booleans(),                                          # bounded diffs
    diff_rows,
    st.booleans(),                                          # bounded passive
    passive_rows,
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_columnar_transport_round_trip_property(
    tmp_path,
    cells,
    empty_cells,
    threshold,
    cap,
    diffs_bounded,
    diffs,
    passive_bounded,
    passive_counts,
):
    """Every byte stream of a dataset is the column codec's, and each
    one round-trips to the same digest.

    Cells from zero to dozens of samples, scattered over days, groups
    and targets in any order, exact and promoted cells interleaved in
    one day, a day holding only promoted cells, exact and bounded diff
    and passive logs: the framed export (salvaged, and loaded without
    its sidecar), the shard transport and the service window
    checkpoint must all decode to what was encoded.
    """
    ecs = GroupedDailyAggregates(
        "ecs", exact_threshold=threshold, max_buckets=cap
    )
    window = PredictionWindow(
        window_days=DAYS + 1, exact_threshold=threshold, max_buckets=cap
    )
    if threshold is not None:
        # Past the threshold on every cell: the day holds sketches only.
        cells = cells + [
            (DAYS, key, "anycast", [float(k) for k in range(1, 8)])
            for key in CLIENT_KEYS[:2]
        ]
    for day, group, target, rtts in cells:
        ecs.observe_many(day, group, target, rtts)
        for rtt in rtts:
            window.observe(
                BeaconEvent(day, group, LDNS_OF[group], target, rtt)
            )
    # Cells whose only sample the lenient gate drops stay, empty.
    for day, group in empty_cells:
        ecs.observe(day, group, "fe-void", -1.0)
    log = RequestDiffLog(bounded=diffs_bounded, max_buckets=cap)
    for day, client, region, anycast, best in diffs:
        log.observe(day, client, region, anycast, best)
    passive = PassiveLog(bounded=passive_bounded)
    for day, key, frontend_id, count in passive_counts:
        passive.record(day, key, frontend_id, count)
    clients = tuple(
        make_client(i, ldns_id=LDNS_OF[make_client(i).key])
        for i in range(1, 5)
    )
    dataset = StudyDataset(
        calendar=SimulationCalendar(num_days=DAYS + 1),
        clients=clients,
        ecs_aggregates=ecs,
        request_diffs=log,
        passive=passive,
        measurement_count=sum(len(rtts) for *_, rtts in cells)
        + len(empty_cells),
    )
    validate_dataset(dataset, "lenient")
    expected = dataset.digest()

    path = str(tmp_path / "dataset.json")
    save_dataset(dataset, path)
    recovered, recovery = recover_dataset(path)
    assert recovery.complete
    assert recovered.digest() == expected
    os.remove(sidecar_path(path))
    assert load_dataset(path).digest() == expected

    payload = encode_shard_payload(dataset, None, None)
    decoded, _, _ = decode_shard_payload(payload, clients)
    assert decoded.digest() == expected
    after = decoded.ecs_aggregates
    assert after.days == ecs.days
    for day in ecs.days:
        before_rows = {(g, t): d for g, t, d in ecs.iter_day(day)}
        after_rows = {(g, t): d for g, t, d in after.iter_day(day)}
        assert before_rows.keys() == after_rows.keys()
        for key, digest in before_rows.items():
            other = after_rows[key]
            assert digest.is_exact == other.is_exact
            if digest.is_exact:
                assert digest.values() == other.values()
            else:
                assert digest.count == other.count
                assert digest.minimum() == other.minimum()
                assert digest.maximum() == other.maximum()

    checkpoint = json.loads(json.dumps(window.to_obj()))
    restored = PredictionWindow.from_obj(checkpoint)
    assert restored.state_digest() == window.state_digest()


def test_decode_rejects_sidecar_bytes(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    with open(sidecar_path(path), "rb") as handle:
        raw = handle.read()
    with pytest.raises(Exception):
        decode_shard_payload(raw, small_dataset.clients)
