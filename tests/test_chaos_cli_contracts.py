"""The chaos drills' CLI contracts on 80 /24s at seed 7.

Four seeded campaigns run through ``repro run``, each once per module:

* **quarantine export** — 1 day, 2 workers, vectorized, four corrupted
  records under the lenient policy: the ``--quarantine-out`` log agrees
  with the run manifest's validation section;
* **cross-shard trace timeline** — 2 days, vectorized, a crashed shard
  retried on 4 workers against a serial run: the injected fault, the
  retry and both attempt outcomes are on the Perfetto timeline, every
  shard has its lane, the merged trace digest equals the serial one,
  and ``repro trace`` summarizes the file;
* **degraded campaign** — 1 day, 2 workers, vectorized, a shard that
  crashes past its retries under ``--allow-partial``: the manifest
  declares the lost half of the population;
* **checkpoint + resume** — 2 days, matrix, the same unrecoverable
  crash with ``--checkpoint-dir``, then ``--resume-from``: the resumed
  dataset digest equals a serial run's, after loading one checkpoint.

Every file lands in one ``chaos`` directory under pytest's base
temporary directory, so a run with ``--basetemp`` leaves the manifests,
checkpoints and traces where an artifact upload can find them.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.telemetry import TraceLog

pytestmark = pytest.mark.chaos

#: The population and seed every campaign shares.
BASE = ["--prefixes", "80", "--seed", "7"]


@pytest.fixture(scope="module")
def chaos_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("chaos", numbered=False)


def _run(*argv):
    assert main(["run", *BASE, *[str(arg) for arg in argv]]) == 0, argv


def _json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quarantine_export(chaos_dir):
    """(quarantine log, run manifest) of the lenient dirty campaign."""
    _run(
        "--days", "1", "--workers", "2", "--engine", "vectorized",
        "--fault-plan", "record-corrupt:4", "--validation-policy", "lenient",
        "--quarantine-out", chaos_dir / "chaos-quarantine.json",
        chaos_dir / "chaos-dirty-dataset.json",
    )
    return (
        _json(chaos_dir / "chaos-quarantine.json"),
        _json(chaos_dir / "chaos-dirty-dataset.manifest.json"),
    )


def test_quarantine_export_matches_manifest(quarantine_export):
    quarantine, manifest = quarantine_export
    validation = manifest["validation"]
    assert quarantine["dropped"] == validation["quarantined_total"], (
        quarantine, validation
    )
    assert quarantine["counts"] == validation["quarantined_by_reason"], (
        quarantine, validation
    )


@pytest.fixture(scope="module")
def trace_timeline(chaos_dir):
    """The sharded crash campaign's and the serial run's trace files."""
    chaos_trace = chaos_dir / "chaos-trace.json"
    serial_trace = chaos_dir / "serial-trace.json"
    _run(
        "--days", "2", "--workers", "4", "--engine", "vectorized",
        "--fault-plan", "crash:1", "--max-retries", "3",
        "--trace-out", chaos_trace, chaos_dir / "chaos-traced.json",
    )
    _run(
        "--days", "2", "--workers", "1", "--engine", "vectorized",
        "--trace-out", serial_trace, chaos_dir / "serial-traced.json",
    )
    return chaos_trace, serial_trace


def test_trace_timeline_shows_crash_and_retry(trace_timeline):
    chaos = _json(trace_timeline[0])
    events = [e for e in chaos["traceEvents"] if e["ph"] != "M"]
    names = [e["name"] for e in events]
    # The injected crash, its retry, and both attempts must be on the
    # timeline.
    assert "fault.injected" in names, sorted(set(names))
    assert "shard.retry" in names, sorted(set(names))
    statuses = {
        e["args"].get("status") for e in events if e["name"] == "shard.attempt"
    }
    assert {"failed", "ok"} <= statuses, statuses
    # One Perfetto lane per shard plus the coordinator.
    assert {e["tid"] for e in events} >= {1, 2, 3, 4}


def test_trace_digest_is_shard_and_fault_invariant(trace_timeline):
    chaos_log = TraceLog.from_perfetto_obj(_json(trace_timeline[0]))
    serial_log = TraceLog.from_perfetto_obj(_json(trace_timeline[1]))
    assert chaos_log.digest() == serial_log.digest(), (
        "sharded chaos trace digest diverged from serial"
    )


def test_trace_command_summarizes_timeline(trace_timeline):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["trace", str(trace_timeline[0])]) == 0
    assert printed.getvalue().strip()


def test_degraded_manifest_declares_gaps(chaos_dir):
    _run(
        "--days", "1", "--workers", "2", "--engine", "vectorized",
        "--fault-plan", "crash:3@1", "--max-retries", "2", "--allow-partial",
        chaos_dir / "chaos-partial.json",
    )
    manifest = _json(chaos_dir / "chaos-partial.manifest.json")
    assert manifest["missing_client_ranges"] == [[40, 80]], manifest
    assert manifest["client_coverage"] == 0.5, manifest


@pytest.fixture(scope="module")
def checkpoint_resume(chaos_dir):
    """Manifests of the partial, resumed and serial matrix campaigns,
    plus the resumed run's telemetry counters."""
    matrix = ["--days", "2", "--engine", "matrix"]
    checkpoints = chaos_dir / "chaos-ckpt"
    _run(
        *matrix, "--workers", "2",
        "--fault-plan", "crash:3@1", "--max-retries", "2", "--allow-partial",
        "--checkpoint-dir", checkpoints, chaos_dir / "chaos-ckpt-partial.json",
    )
    _run(
        *matrix, "--workers", "2", "--resume-from", checkpoints,
        "--telemetry-out", chaos_dir / "chaos-resume.telemetry.json",
        chaos_dir / "chaos-resumed.json",
    )
    _run(*matrix, "--workers", "1", chaos_dir / "chaos-ckpt-serial.json")
    return {
        name: _json(chaos_dir / f"chaos-{name}.manifest.json")
        for name in ("ckpt-partial", "resumed", "ckpt-serial")
    }, _json(chaos_dir / "chaos-resume.telemetry.json")["counters"]


def test_checkpointed_partial_run_declares_gaps(checkpoint_resume):
    manifests, _ = checkpoint_resume
    partial = manifests["ckpt-partial"]
    assert partial["missing_client_ranges"] == [[40, 80]], partial


def test_resumed_digest_equals_serial(checkpoint_resume):
    manifests, counters = checkpoint_resume
    resumed, serial = manifests["resumed"], manifests["ckpt-serial"]
    assert resumed["dataset_digest"] == serial["dataset_digest"], (
        resumed["dataset_digest"], serial["dataset_digest"]
    )
    assert counters["checkpoint.loaded_total"] == 1, counters
