"""Columnar sidecar cache: round-trip parity, staleness, salvage.

The sidecar (``repro.measurement.columnar``) is a derived read cache —
every test here asserts the same invariant from a different angle: no
matter what happens to the sidecar (fresh, stale, torn, absent), a load
returns exactly the dataset the framed export describes.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.measurement.aggregate import GroupedDailyAggregates
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
from repro.measurement.storage import write_segment_file
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


def test_format_3_export_beside_its_sidecar_fails_in_one_line(
    small_dataset, tmp_path, capsys
):
    # A format-3 export with a sidecar fingerprinted from its bytes: the
    # sidecar misses on its magic, and the framed parse names the version.
    path = str(tmp_path / "old.json")
    frames = list(_dataset_frames(small_dataset))
    frames[0]["format_version"] = 3
    write_segment_file(path, frames)
    write_sidecar(path, small_dataset)
    _age_sidecar(path)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "unsupported dataset format version 3" in err


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


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),          # day
            st.sampled_from(CLIENT_KEYS),                   # group
            st.sampled_from(["anycast", "fe-a", "fe-b"]),   # target
            st.lists(
                st.floats(
                    min_value=0.0, max_value=1e4, allow_nan=False
                ),
                min_size=0,
                max_size=17,
            ),
        ),
        max_size=25,
    ),
    st.sampled_from([None, 4]),                             # sketch mode
)
@settings(max_examples=40, deadline=None)
def test_columnar_transport_round_trip_property(samples, threshold):
    """Arbitrary digest shapes survive the coalesced-column encoding.

    Column sizes from zero to dozens of samples, digests scattered over
    days/groups/targets in any order, and (in sketch mode) exact and
    promoted digests interleaved in one day must all decode to equal
    aggregates.
    """
    before = GroupedDailyAggregates("ecs", exact_threshold=threshold)
    for day, group, target, rtts in samples:
        before.observe_many(day, group, target, rtts)
    clients = tuple(make_client(i) for i in range(1, 5))
    dataset = make_dataset(clients)
    dataset.ecs_aggregates = before
    payload = encode_shard_payload(dataset, None, None)
    decoded, _, _ = decode_shard_payload(payload, clients)
    after = decoded.ecs_aggregates
    assert after.days == before.days
    for day in before.days:
        before_rows = {
            (g, t): d for g, t, d in before.iter_day(day)
        }
        after_rows = {
            (g, t): d for g, t, d in after.iter_day(day)
        }
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
    assert decoded.digest() == dataset.digest()


def test_decode_rejects_sidecar_bytes(small_dataset, tmp_path):
    path = str(tmp_path / "dataset.json")
    save_dataset(small_dataset, path)
    with open(sidecar_path(path), "rb") as handle:
        raw = handle.read()
    with pytest.raises(Exception):
        decode_shard_payload(raw, small_dataset.clients)
