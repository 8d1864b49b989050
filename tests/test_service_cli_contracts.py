"""The live service's CLI contracts on a recorded 80 /24 x 3-day campaign.

One campaign is recorded through ``repro run`` (seed 7, vectorized
engine) and replayed through ``repro replay`` three ways:

* unpaced, where the online predictions must equal the batch
  :class:`~repro.core.predictor.HistoryBasedPredictor` over the loaded
  export's ECS and LDNS planes, bit for bit;
* paced (``--speed``), which must print the unpaced digests;
* killed by an injected crash (exit 3) and resumed from its checkpoint,
  which must be bit-identical to an uninterrupted run of the same
  record faults, while a replay under other record faults must not
  adopt that checkpoint.

``repro trace`` summarizes the unpaced replay's trace.  A separate
``repro serve`` run (20 /24s x 2 days) checks that the streaming half
logs under the service's run identity, the campaign half under the
campaign's.

Every file lands in one ``service`` directory under pytest's base
temporary directory, so a run with ``--basetemp`` leaves the manifests,
predictions, telemetry and trace where an artifact upload can find
them.
"""

import json
import logging
import shutil

import pytest

from repro.cli import main
from repro.core.predictor import HistoryBasedPredictor
from repro.measurement.export import load_dataset
from repro.service.predictor import predictions_to_obj

pytestmark = pytest.mark.service

#: Record faults both fault plans share; the quarantine they fill is part
#: of the compared digests.
RECORD_FAULTS = "record-corrupt:6,record-clock-skew:4"


def _json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _json_lines(text):
    return [
        json.loads(line) for line in text.splitlines() if line.startswith("{")
    ]


def _drop_log_handlers():
    """Remove the handler that ``--log-format`` installed."""
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("service", numbered=False)


@pytest.fixture(scope="module")
def campaign(out_dir):
    path = str(out_dir / "service-campaign.json")
    assert main([
        "run", "--prefixes", "80", "--days", "3", "--seed", "7",
        "--engine", "vectorized", path,
    ]) == 0
    return path


@pytest.fixture(scope="module")
def unpaced(out_dir, campaign):
    """The unpaced replay's manifest; it also writes the predictions,
    telemetry and trace."""
    assert main([
        "replay", campaign,
        "--predictions-out", str(out_dir / "service-predictions.json"),
        "--manifest-out", str(out_dir / "service-replay.manifest.json"),
        "--telemetry-out", str(out_dir / "service-telemetry.json"),
        "--trace-out", str(out_dir / "service-trace.json"),
    ]) == 0
    return _json(out_dir / "service-replay.manifest.json")


def test_replay_matches_the_batch_predictor(out_dir, campaign, unpaced):
    dataset = load_dataset(campaign)
    batch = HistoryBasedPredictor()
    ldns_aggregates = dataset.ldns_aggregates
    expected = {
        day: {
            "ecs": batch.predict_day(dataset.ecs_aggregates, day),
            "ldns": batch.predict_day(ldns_aggregates, day),
        }
        for day in range(dataset.calendar.num_days)
    }
    online = _json(out_dir / "service-predictions.json")
    assert online == predictions_to_obj(expected), (
        "online predictions diverged from the batch oracle"
    )
    assert unpaced["days_closed"] == dataset.calendar.num_days


def test_paced_replay_prints_the_unpaced_digests(
    out_dir, campaign, unpaced, capsys
):
    capsys.readouterr()  # drop what the fixtures printed
    # 10 simulated days per second: one 0.1 s sleep per day advance.
    assert main([
        "replay", campaign, "--speed", "864000",
        "--manifest-out", str(out_dir / "service-paced.manifest.json"),
    ]) == 0
    paced = _json(out_dir / "service-paced.manifest.json")
    assert paced["digests"] == unpaced["digests"], (
        paced["digests"], unpaced["digests"]
    )
    printed = capsys.readouterr().out
    for digest in unpaced["digests"].values():
        assert digest in printed


def test_crash_killed_resume_is_bit_identical(out_dir, campaign):
    plan = f"crash:1,{RECORD_FAULTS}"
    checkpoints = str(out_dir / "service-ckpt")
    common = ["replay", campaign, "--seed", "7", "--fault-plan"]
    # The injected crash must kill the service.
    assert main(common + [plan, "--checkpoint-dir", checkpoints]) == 3
    assert main(common + [
        plan, "--resume-from", checkpoints,
        "--manifest-out", str(out_dir / "service-resumed.manifest.json"),
    ]) == 0
    assert main(common + [
        f"exception:1,{RECORD_FAULTS}",
        "--manifest-out", str(out_dir / "service-reference.manifest.json"),
    ]) == 0
    resumed = _json(out_dir / "service-resumed.manifest.json")
    reference = _json(out_dir / "service-reference.manifest.json")
    # Killed-and-resumed equals uninterrupted: predictions, stream and
    # quarantine.
    assert resumed["digests"] == reference["digests"], (
        resumed["digests"], reference["digests"]
    )
    assert resumed["quarantine"]["dropped"] > 0, resumed["quarantine"]


def test_trace_command_summarizes_service_timeline(out_dir, unpaced, capsys):
    capsys.readouterr()  # drop what the fixtures printed
    assert main(["trace", str(out_dir / "service-trace.json")]) == 0
    assert capsys.readouterr().out.strip()


def test_checkpoint_resumes_only_under_its_record_faults(
    out_dir, campaign, unpaced
):
    # The replay dirties the stream from the plan's record-* specs, so
    # they are part of the identity a checkpoint must match; the crash
    # is not.
    plan = "record-corrupt:8,crash:1"
    crashed = out_dir / "service-dirty-ckpt"
    common = ["replay", campaign, "--seed", "7"]
    assert main(common + [
        "--fault-plan", plan, "--checkpoint-dir", str(crashed),
        "--checkpoint-every", "1000",
    ]) == 3
    same_plan_dir = out_dir / "service-dirty-ckpt-same-plan"
    shutil.copytree(crashed, same_plan_dir)

    # No record faults: the dirty checkpoint is not adopted, and the
    # replay reads the clean digests.
    assert main(common + [
        "--resume-from", str(crashed),
        "--manifest-out", str(out_dir / "service-other-plan.manifest.json"),
    ]) == 0
    other = _json(out_dir / "service-other-plan.manifest.json")
    assert other["resumed_from_cursor"] == 0, other
    assert other["digests"] == unpaced["digests"], (
        other["digests"], unpaced["digests"]
    )

    # The same plan resumes mid-stream to the dirty run's digests.
    assert main(common + [
        "--fault-plan", plan, "--resume-from", str(same_plan_dir),
        "--manifest-out", str(out_dir / "service-same-plan.manifest.json"),
    ]) == 0
    assert main(common + [
        "--fault-plan", "record-corrupt:8,exception:1",
        "--manifest-out", str(out_dir / "service-dirty.manifest.json"),
    ]) == 0
    same = _json(out_dir / "service-same-plan.manifest.json")
    dirty = _json(out_dir / "service-dirty.manifest.json")
    assert same["resumed_from_cursor"] > 0, same
    assert same["digests"] == dirty["digests"], (
        same["digests"], dirty["digests"]
    )
    assert dirty["digests"] != unpaced["digests"]


def test_replay_logs_and_telemetry_carry_the_service_identity(
    out_dir, campaign, capsys
):
    def replay(name, *flags):
        telemetry = out_dir / f"service-identity-{name}.telemetry.json"
        assert main([
            "replay", campaign, "--seed", "7",
            "--telemetry-out", str(telemetry), *flags,
        ]) == 0
        return _json(telemetry)["context"]["config_hash"]

    capsys.readouterr()  # drop what the fixtures printed
    try:
        logged = replay(
            "logged", "--log-format", "json", "--log-level", "debug",
            "--checkpoint-dir", str(out_dir / "service-identity-ckpt"),
        )
        lines = _json_lines(capsys.readouterr().err)
    finally:
        _drop_log_handlers()
    assert logged
    assert "dataset loaded" in {line["msg"] for line in lines}
    assert {line["config_hash"] for line in lines} == {logged}
    # A data setting moves the identity; a run setting does not.
    assert replay("sketch", "--sketch-threshold", "32") != logged
    assert replay("spill", "--checkpoint-every", "1000") == logged


def test_serve_logs_its_stream_under_the_service_identity(out_dir, capsys):
    telemetry = out_dir / "service-serve-identity.telemetry.json"
    capsys.readouterr()
    try:
        assert main([
            "serve", "--prefixes", "20", "--days", "2", "--seed", "7",
            "--log-format", "json", "--log-level", "debug",
            "--checkpoint-dir", str(out_dir / "service-serve-identity-ckpt"),
            "--telemetry-out", str(telemetry),
        ]) == 0
        lines = _json_lines(capsys.readouterr().err)
    finally:
        _drop_log_handlers()
    service = _json(telemetry)["context"]
    assert service["engine"] == "service"
    checkpoints = [
        (line["config_hash"], line["engine"])
        for line in lines
        if line["logger"] == "repro.service.checkpoint"
    ]
    assert checkpoints
    assert set(checkpoints) == {(service["config_hash"], "service")}
    # The campaign half keeps the campaign's identity.
    (built,) = [line for line in lines if line["msg"] == "scenario built"]
    assert built["engine"] == "reference"
    assert built["config_hash"] not in ("", service["config_hash"])
