"""The campaign's one day pipeline, pinned for all three engines.

* **Golden digests.**  Every engine's ``StudyDataset.digest()`` and
  quarantine total at seed 23, 120 /24s x 3 days, on four legs: plain,
  sketch mode, dirty-record faults, and finite capacity with an overload
  drill under fastroute.  The reference engine is otherwise compared
  with the batched engines only statistically, so this is what keeps a
  refactor from changing it silently.
* **Shared terms.**  The day pipeline draws the workload and computes
  the episode effect, anycast daily offset, load extras and dirty-record
  slots once, for whichever engine runs; all three engines must
  therefore be staged with identical arguments for every (day, client).
* **Export bytes.**  The matrix engine's plain and sketch datasets save
  to pinned framed exports (SHA-256 of the bytes): the day blocks keep
  every cell, the cell order and each cell's sample order.
* **Chunking.**  The matrix engine's digest and quarantine total do not
  depend on how many rows it synthesizes per chunk: five pinned sizes,
  plus a property over any size in [1, 65536], where chunk edges meet
  quarantined cells on the dirty leg.
"""

import hashlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.measurement.export import save_dataset
from repro.simulation import campaign
from repro.simulation.campaign import CampaignConfig, CampaignRunner
from repro.simulation.episodes import OverloadPlan

ENGINES = ("reference", "vectorized", "matrix")

FAULTS = {
    "fault_plan": FaultPlan.from_spec("record-corrupt:40,record-truncate:20")
}
LOAD = {
    "frontend_capacity": 1.3,
    "overload_plan": OverloadPlan.from_spec("flash-crowd:1"),
    "load_policy": "fastroute",
}
LEGS = {
    "plain": {},
    "sketch": {"sketch_threshold": 32},
    "dirty": FAULTS,
    "load": LOAD,
}

_BATCHED = {
    "plain": (
        "05a0fd364023c8be2e7535dac4c77931fa991eb8aaadfd1d1dd3a8a6245bafc5", 0
    ),
    "sketch": (
        "b03870dd7610503ffab389c6fc39d9bfd56cd0b69329fafaddd8a140f4453875", 0
    ),
    "dirty": (
        "30f0a58dca924636945207bb1db32d4ee9c13707989936426b7cf58ce451cdf6", 57
    ),
    "load": (
        "19e4131c4a6a29bab7de66fd8748e542d054a7cfc59ea22938ac923b4ad94c5a", 0
    ),
}

#: (digest, quarantine total) per (engine, leg).  The vectorized and
#: matrix engines are bit-identical by contract, so they share theirs.
GOLDEN = {
    ("reference", "plain"): (
        "4ab2da2605406259b1198ba9a2d3340f8c4b23cdba332381af398344fe337a26", 0
    ),
    ("reference", "sketch"): (
        "7b63153a8902d18e0106be4ba8e2cc7fe0c501f81c147969ffa8fd800c4c97b3", 0
    ),
    ("reference", "dirty"): (
        "27f8783963765d923447b81d968328fc5c90d61784abba2f323a49c14358d5d3", 57
    ),
    ("reference", "load"): (
        "271250ad7fb03280c6f1fd225fda63ab544f95c4fcf9af67a51bcbc253d6656b", 0
    ),
    **{("vectorized", leg): pair for leg, pair in _BATCHED.items()},
    **{("matrix", leg): pair for leg, pair in _BATCHED.items()},
}


#: SHA-256 of the framed export of the matrix engine's dataset per leg.
EXPORT_SHA256 = {
    "plain": "e3001cdffbf228fa26ce78b8e3412cae184e743f9aa69f361e8d20b5d3852dca",
    "sketch": "7010df1a4be0216787dc75197a093c4b33417fedfaf52be7b2c28a0eb5711c72",
}


def _export_sha256(dataset):
    text = io.StringIO()
    save_dataset(dataset, text)
    return hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()


def _run(scenario, engine, leg_config):
    runner = CampaignRunner(
        scenario, CampaignConfig(engine=engine, **leg_config)
    )
    dataset = runner.run()
    return dataset, runner


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize("engine", ENGINES)
def test_golden_digest(engine_scenario, engine, leg):
    dataset, runner = _run(engine_scenario, engine, LEGS[leg])
    assert (dataset.digest(), runner.quarantine.total) == GOLDEN[engine, leg]
    if engine == "matrix" and leg in EXPORT_SHA256:
        assert _export_sha256(dataset) == EXPORT_SHA256[leg]


def _recording(stage, log):
    """Wrap an engine's ``stage_client_day`` to log its terms, not the
    client-day's RNG (a fresh object per engine run)."""

    def wrapper(self, *, rng, **terms):
        day_keys = terms["day_keys"]
        log.append(
            {
                **terms,
                "day_keys": (int(day_keys.beacon), int(day_keys.daily)),
                "client": terms["client"].key,
            }
        )
        stage(self, rng=rng, **terms)

    return wrapper


def test_engines_are_staged_identically(engine_scenario, monkeypatch):
    classes = {
        "reference": campaign._ReferenceBeaconEngine,
        "vectorized": campaign._VectorizedBeaconEngine,
        "matrix": campaign._MatrixBeaconEngine,
    }
    staged = {engine: [] for engine in ENGINES}
    for engine, cls in classes.items():
        monkeypatch.setattr(
            cls,
            "stage_client_day",
            _recording(cls.stage_client_day, staged[engine]),
        )

    for engine in ENGINES:
        _run(engine_scenario, engine, {**FAULTS, **LOAD})

    reference = staged["reference"]
    # The leg exercises every shared term at least once.
    assert len({row["day"] for row in reference}) == 3
    assert any(row["dirty_slots"] for row in reference)
    assert any(row["load_extras"] for row in reference)
    assert any(row["degraded_frontend"] for row in reference)
    assert any(len(row["plan"].ranks) > 1 for row in reference)
    assert staged["vectorized"] == reference
    assert staged["matrix"] == reference


@pytest.mark.parametrize("chunk_rows", (1, 4096, 4097, 32768, 2**24))
@pytest.mark.parametrize("leg", ("plain", "dirty", "sketch"))
def test_matrix_chunking_keeps_digest(
    engine_scenario, monkeypatch, leg, chunk_rows
):
    monkeypatch.setattr(campaign, "_MATRIX_CHUNK_ROWS", chunk_rows)
    dataset, runner = _run(engine_scenario, "matrix", LEGS[leg])
    assert (dataset.digest(), runner.quarantine.total) == GOLDEN["matrix", leg]
    snapshot = runner.telemetry.snapshot()
    chunks = snapshot.counters["engine.matrix.chunks_total"]
    client_days = snapshot.histograms["campaign.beacons_per_client_day"][
        "observations"
    ]
    if chunk_rows == 1:
        # No client-day here reaches 4096 sessions, so each is one span
        # and, at one row per chunk, one chunk: the setting took effect.
        assert chunks == client_days
    else:
        assert chunks < client_days


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(chunk_rows=st.integers(min_value=1, max_value=65536))
def test_any_matrix_chunk_size_keeps_digest(engine_scenario, chunk_rows):
    # Chunking decides how runs reach a day block; the digest must not
    # see it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "_MATRIX_CHUNK_ROWS", chunk_rows)
        for leg in ("plain", "sketch", "dirty"):
            dataset, runner = _run(engine_scenario, "matrix", LEGS[leg])
            assert (
                dataset.digest(), runner.quarantine.total
            ) == GOLDEN["matrix", leg], (leg, chunk_rows)
