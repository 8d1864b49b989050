"""The smoke campaign's CLI contracts on 80 /24s x 1 day, seed 7.

Five ``repro run`` legs (reference, vectorized and matrix engines;
serial and 2-worker) write framed exports, telemetry snapshots and, on
the sharded vectorized leg, a Perfetto trace.  Every export is loaded
back, so the legs are also the export format's round trip across
engines and worker counts, read through each ``.cols`` sidecar and
through the frames:

* serial == 2-worker digests and manifest ``config_hash`` (the run's
  data identity, which no worker count moves) on the reference and
  vectorized engines, and matrix == vectorized;
* the vectorized 2-worker manifest's phase seconds are sums of the
  trace's phase slices;
* the engines and a sharded run agree on seven volume counters;
* ``repro telemetry``, ``repro trace`` and ``repro analyze`` render the
  outputs.

Every file lands in one ``smoke`` directory under pytest's base
temporary directory, so a run with ``--basetemp`` leaves the telemetry
snapshots, manifests and trace where an artifact upload can find them.
"""

import json

import pytest

from repro.cli import main
from repro.measurement.export import load_dataset, recover_dataset
from repro.telemetry import TelemetrySnapshot

#: (name, extra ``repro run`` flags) of each leg; the vectorized
#: 2-worker leg also exports the trace.
LEGS = (
    ("serial", ["--workers", "1"]),
    ("parallel", ["--workers", "2"]),
    ("vec-serial", ["--workers", "1", "--engine", "vectorized"]),
    ("vec-parallel", ["--workers", "2", "--engine", "vectorized"]),
    ("mat-serial", ["--workers", "1", "--engine", "matrix"]),
)

#: Volume and ingestion counters every engine and shard layout share.
PARITY_COUNTERS = (
    "campaign.beacons_total",
    "campaign.measurements_total",
    "campaign.queries_total",
    "campaign.client_days_total",
    "campaign.passive_records_total",
    "campaign.idle_client_days_total",
    "validate.records_total",
)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke directory, after all five legs ran."""
    out_dir = tmp_path_factory.mktemp("smoke", numbered=False)
    for name, flags in LEGS:
        trace = (
            ["--trace-out", str(out_dir / "smoke-trace.json")]
            if name == "vec-parallel"
            else []
        )
        assert main([
            "run", "--prefixes", "80", "--days", "1", "--seed", "7",
            *flags,
            "--telemetry-out", str(out_dir / f"smoke-{name}.telemetry.json"),
            *trace,
            str(out_dir / f"smoke-{name}.json"),
        ]) == 0
    return out_dir


def _digest(smoke, name):
    """The export's digest, read through its sidecar and its frames."""
    path = str(smoke / f"smoke-{name}.json")
    digest = load_dataset(path).digest()
    assert recover_dataset(path)[0].digest() == digest
    return digest


def _counters(smoke, name):
    path = smoke / f"smoke-{name}.telemetry.json"
    return TelemetrySnapshot.from_json(path.read_text("utf-8")).counters


def _config_hash(smoke, name):
    path = smoke / f"smoke-{name}.manifest.json"
    return json.loads(path.read_text("utf-8"))["config_hash"]


def test_serial_equals_two_workers(smoke):
    assert _digest(smoke, "serial") == _digest(smoke, "parallel"), (
        "serial and 2-worker smoke campaigns diverged"
    )
    assert _config_hash(smoke, "serial") == _config_hash(smoke, "parallel")


def test_vectorized_serial_equals_two_workers(smoke):
    assert _digest(smoke, "vec-serial") == _digest(smoke, "vec-parallel"), (
        "vectorized serial and 2-worker smoke campaigns diverged"
    )
    assert (
        _config_hash(smoke, "vec-serial")
        == _config_hash(smoke, "vec-parallel")
    )


def test_matrix_equals_vectorized(smoke):
    assert _digest(smoke, "mat-serial") == _digest(smoke, "vec-serial"), (
        "matrix engine diverged from its vectorized oracle"
    )


def test_manifest_phase_seconds_trace_back_to_the_timeline(smoke):
    manifest = json.loads(
        (smoke / "smoke-vec-parallel.manifest.json").read_text("utf-8")
    )
    trace = json.loads((smoke / "smoke-trace.json").read_text("utf-8"))
    slices = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X" and event.get("cat") == "phase":
            slices.setdefault(event["name"], []).append(event["dur"])
    phases = manifest["phase_seconds"]
    # Span records are a view of the trace's phase slices: every
    # manifest phase is the summed whole-microsecond durations of the
    # slices with its name, within 1 us of rounding per slice.
    assert phases and set(phases) == set(slices), (
        sorted(phases), sorted(slices)
    )
    for name, seconds in sorted(phases.items()):
        durations = slices[name]
        assert abs(seconds * 1e6 - sum(durations)) <= len(durations), (
            name, seconds, sum(durations), len(durations)
        )


def test_telemetry_counter_parity(smoke):
    # The engines share one day pipeline (workload, passive log,
    # churn/episode streams, validation), so their volume and ingestion
    # accounting must agree exactly; so must a sharded run's merged
    # snapshot.
    reference = _counters(smoke, "serial")
    vectorized = _counters(smoke, "vec-serial")
    matrix = _counters(smoke, "mat-serial")
    merged = _counters(smoke, "vec-parallel")
    for name in PARITY_COUNTERS:
        for engine, observed in (
            ("vectorized", vectorized), ("matrix", matrix)
        ):
            assert reference[name] == observed[name], (
                f"{name}: reference {reference[name]} != "
                f"{engine} {observed[name]}"
            )
        assert vectorized[name] == merged[name], (
            f"{name}: serial {vectorized[name]} != "
            f"2-worker merged {merged[name]}"
        )


def test_telemetry_report_renders(smoke):
    assert main(
        ["telemetry", str(smoke / "smoke-vec-parallel.telemetry.json")]
    ) == 0


def test_trace_timeline_summary_renders(smoke):
    assert main(["trace", str(smoke / "smoke-trace.json")]) == 0


def test_smoke_figure_replay(smoke):
    assert main(
        ["analyze", str(smoke / "smoke-serial.json"), "--figures", "fig3"]
    ) == 0
