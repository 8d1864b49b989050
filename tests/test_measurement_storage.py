"""Crash-safe storage tests: framing, torn tails, bit rot, recovery.

Satellite of the hardened-data-plane issue: every damage mode a log
pipeline sees — a writer killed mid-flush, bytes flipped at rest, a
file cut mid-record — must either raise a precise
:class:`~repro.errors.StorageError` (strict posture) or salvage every
intact frame and report exactly what was lost (recovery posture).
"""

import io
import os

import pytest

from repro.errors import CheckpointError, MeasurementError, StorageError
from repro.measurement.export import (
    load_dataset,
    recover_dataset,
    save_dataset,
)
from repro.measurement import storage
from repro.measurement.storage import (
    atomic_write_text,
    footer_frame,
    format_frame,
    read_checkpoint,
    read_segment_file,
    read_segment_text,
    write_checkpoint,
    write_segment_file,
)


def _frames(n):
    return [{"kind": "sample", "index": i, "value": i * 1.5} for i in range(n)]


class TestFraming:
    def test_round_trip_path(self, tmp_path):
        path = str(tmp_path / "segment.jsonl")
        count = write_segment_file(path, _frames(5))
        assert count == 5
        frames, report = read_segment_file(path)
        assert frames == _frames(5)
        assert report.complete
        assert report.salvaged_kinds == {"sample": 5}

    def test_round_trip_stream(self):
        buffer = io.StringIO()
        write_segment_file(buffer, _frames(3))
        frames, report = read_segment_text(buffer.getvalue())
        assert frames == _frames(3)
        assert report.complete

    def test_footer_counts_frames(self):
        buffer = io.StringIO()
        write_segment_file(buffer, _frames(2))
        lines = buffer.getvalue().splitlines()
        assert lines[-1] == format_frame(footer_frame(2)).rstrip("\n")

    def test_atomic_writer_cleans_up_temp_files(self, tmp_path):
        path = str(tmp_path / "segment.jsonl")
        write_segment_file(path, _frames(2))

        def exploding():
            yield {"kind": "sample"}
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            write_segment_file(path, exploding())
        # The destination keeps its previous complete content and no
        # temp file is left behind.
        frames, report = read_segment_file(path)
        assert len(frames) == 2 and report.complete
        assert os.listdir(tmp_path) == ["segment.jsonl"]

    def test_atomic_write_text(self, tmp_path):
        path = str(tmp_path / "note.json")
        atomic_write_text(path, "{}\n")
        with open(path) as handle:
            assert handle.read() == "{}\n"
        assert os.listdir(tmp_path) == ["note.json"]


class TestCheckpointEnvelope:
    IDENTITY = {"shard_index": 0, "client_range": [0, 20], "seed": 7}

    def _write(self, tmp_path, payload=b"payload bytes \x00\xff"):
        path = str(tmp_path / "unit.ckpt")
        write_checkpoint(
            path, "unit", self.IDENTITY, payload, anchors={"digest": "d1"}
        )
        return path

    def _flip(self, path, offset):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0x01]))

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path)
        header, payload = read_checkpoint(path, "unit", self.IDENTITY)
        assert payload == b"payload bytes \x00\xff"
        assert header["anchors"] == {"digest": "d1"}
        assert header["payload_bytes"] == len(payload)
        assert os.listdir(tmp_path) == ["unit.ckpt"]

    def test_absent_reads_as_none(self, tmp_path):
        assert (
            read_checkpoint(str(tmp_path / "no.ckpt"), "unit", self.IDENTITY)
            is None
        )

    def test_other_owner_reads_as_none_before_hashing(self, tmp_path):
        path = self._write(tmp_path)
        # Damage the payload: the owner check must still answer "not
        # mine" from the header alone, never "corrupt".
        self._flip(path, os.path.getsize(path) - 1)
        other = dict(self.IDENTITY, seed=8)
        assert read_checkpoint(path, "unit", other) is None
        assert read_checkpoint(path, "other-kind", self.IDENTITY) is None
        with pytest.raises(CheckpointError):
            read_checkpoint(path, "unit", self.IDENTITY)

    def test_other_format_version_reads_as_none(self, tmp_path, monkeypatch):
        # Version 2 envelopes held payloads with an LDNS plane, version
        # 3 service payloads a per-cell window codec.
        for version in (1, 2, 3):
            monkeypatch.setattr(storage, "CHECKPOINT_FORMAT_VERSION", version)
            path = self._write(tmp_path)
            monkeypatch.undo()
            assert read_checkpoint(path, "unit", self.IDENTITY) is None

    def test_payload_bit_flip_is_a_hash_mismatch(self, tmp_path):
        path = self._write(tmp_path)
        self._flip(path, os.path.getsize(path) - 3)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            read_checkpoint(path, "unit", self.IDENTITY)

    def test_truncated_payload_is_a_length_mismatch(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        with pytest.raises(CheckpointError, match="length mismatch"):
            read_checkpoint(path, "unit", self.IDENTITY)

    def test_damaged_header_is_corruption(self, tmp_path):
        path = self._write(tmp_path)
        self._flip(path, 20)
        with pytest.raises(CheckpointError, match="damaged checkpoint header"):
            read_checkpoint(path, "unit", self.IDENTITY)


class TestDamage:
    def _segment_text(self, n=4):
        buffer = io.StringIO()
        write_segment_file(buffer, _frames(n))
        return buffer.getvalue()

    def test_torn_tail(self):
        text = self._segment_text()
        torn = text[:-25]  # cut mid-frame, no trailing newline
        with pytest.raises(StorageError, match="torn tail"):
            read_segment_text(torn, source="seg")
        frames, report = read_segment_text(torn, strict=False)
        assert report.torn_tail
        assert not report.complete
        assert len(frames) == report.frames_total
        assert frames == _frames(len(frames))

    def test_mid_record_truncation_at_every_offset(self):
        """No truncation point yields a parse error or phantom frame."""
        text = self._segment_text(3)
        full_frames, _ = read_segment_text(text)
        for cut in range(len(text)):
            frames, report = read_segment_text(text[:cut], strict=False)
            assert frames == full_frames[: len(frames)]
            assert not report.complete or cut == len(text)

    def test_bit_flip_is_localized(self):
        text = self._segment_text(4)
        lines = text.splitlines(keepends=True)
        # Flip a character inside the second frame's payload.
        victim = lines[1]
        flip_at = victim.index('"value"') + 3
        lines[1] = (
            victim[:flip_at]
            + chr(ord(victim[flip_at]) ^ 1)
            + victim[flip_at + 1:]
        )
        damaged = "".join(lines)
        with pytest.raises(StorageError, match="corrupt frame at line 2"):
            read_segment_text(damaged, source="seg")
        frames, report = read_segment_text(damaged, strict=False)
        assert report.frames_corrupt == 1
        assert not report.footer_seen  # footer count no longer matches
        assert [f["index"] for f in frames] == [0, 2, 3]

    def test_non_ascii_damage_skipped(self):
        text = self._segment_text(2)
        lines = text.splitlines(keepends=True)
        lines[0] = lines[0].replace("sample", "samplé", 1)
        frames, report = read_segment_text("".join(lines), strict=False)
        assert report.frames_corrupt == 1
        assert [f["index"] for f in frames] == [1]

    def test_missing_footer_strict(self):
        text = self._segment_text(2)
        without_footer = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(StorageError, match="footer"):
            read_segment_text(without_footer, source="seg")
        frames, report = read_segment_text(without_footer, strict=False)
        assert len(frames) == 2 and not report.footer_seen


class TestDatasetRecovery:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.clients.population import ClientPopulationConfig
        from repro.simulation.campaign import CampaignRunner
        from repro.simulation.clock import SimulationCalendar
        from repro.simulation.scenario import Scenario, ScenarioConfig

        scenario = Scenario.build(
            ScenarioConfig(
                seed=13,
                population=ClientPopulationConfig(prefix_count=20),
                calendar=SimulationCalendar(num_days=2),
            )
        )
        return CampaignRunner(scenario).run()

    def test_framed_round_trip(self, dataset, tmp_path):
        path = str(tmp_path / "dataset.json")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.digest() == dataset.digest()
        recovered, recovery = recover_dataset(path)
        assert recovery.complete
        assert recovered.digest() == dataset.digest()

    def test_torn_tail_load_raises_then_recovers(self, dataset, tmp_path):
        path = str(tmp_path / "torn.json")
        save_dataset(dataset, path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 300)
        with pytest.raises(StorageError):
            load_dataset(path)
        recovered, recovery = recover_dataset(path)
        assert recovery.report.torn_tail
        assert not recovery.complete
        assert recovered.beacon_count == dataset.beacon_count
        assert (
            recovery.recovered_measurement_count
            <= recovery.claimed_measurement_count
        )

    def test_corrupt_middle_frame_recovers_the_rest(self, dataset, tmp_path):
        path = str(tmp_path / "rot.json")
        save_dataset(dataset, path)
        with open(path, "r", encoding="ascii", newline="") as handle:
            lines = handle.read().splitlines(keepends=True)
        # Damage an aggregates frame (header and clients must survive for
        # recovery to be possible at all).
        victim_index = next(
            i for i, line in enumerate(lines) if '"aggregates"' in line
        )
        lines[victim_index] = lines[victim_index].replace("0", "1", 1)
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write("".join(lines))

        recovered, recovery = recover_dataset(path)
        assert recovery.report.frames_corrupt == 1
        assert not recovery.complete
        assert recovered.beacon_count == dataset.beacon_count
        assert (
            recovery.recovered_measurement_count
            < recovery.claimed_measurement_count
        )

    def test_unrecoverable_without_header(self, dataset, tmp_path):
        path = str(tmp_path / "headless.json")
        save_dataset(dataset, path)
        with open(path, "r", encoding="ascii", newline="") as handle:
            lines = handle.read().splitlines(keepends=True)
        # Corrupt the header frame itself.
        lines[0] = lines[0].replace('"header"', '"haeder"', 1)
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write("".join(lines))
        with pytest.raises(StorageError, match="unrecoverable"):
            recover_dataset(path)

    def test_unframed_input_is_not_a_framed_export(self, tmp_path):
        # A JSON document (the retired single-document layout) or an
        # empty file has no frame structure: load and salvage both fail
        # with one clear error instead of a torn-tail or footer message.
        for name, text in (("document.json", '{"format_version": 1}\n'),
                           ("empty.json", "")):
            path = str(tmp_path / name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for reader in (load_dataset, recover_dataset):
                with pytest.raises(
                    MeasurementError, match="not a framed dataset export"
                ):
                    reader(path)

    def test_missing_format_version_is_a_clear_error(self, dataset):
        from repro.measurement.export import _dataset_frames

        frames = list(_dataset_frames(dataset))
        del frames[0]["format_version"]
        buffer = io.StringIO()
        write_segment_file(buffer, frames)
        with pytest.raises(MeasurementError, match="no format version"):
            load_dataset(io.StringIO(buffer.getvalue()))
        frames[0]["format_version"] = 999
        buffer = io.StringIO()
        write_segment_file(buffer, frames)
        with pytest.raises(
            MeasurementError, match="unsupported dataset format version"
        ):
            load_dataset(io.StringIO(buffer.getvalue()))
