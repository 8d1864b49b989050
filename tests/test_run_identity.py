"""The run identity: which settings move ``config_hash``.

A campaign's ``config_hash`` (and the identity its shard checkpoints
are written under) is :func:`repro.identity.config_digest` of the
scenario and the resolved campaign config; a service checkpoint's is
the digest of its :class:`ServiceConfig`.  Every setting that changes
the data must move it; no run setting may, or serial and sharded runs
would stop sharing a manifest hash and ledger group, and a checkpoint
would not resume under a new retry budget.
"""

import dataclasses

import pytest

from repro.core.predictor import PredictorConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.identity import config_digest, run_context
from repro.measurement.beacon import BeaconConfig
from repro.service.ingest import ServiceConfig
from repro.simulation.campaign import CampaignConfig
from repro.simulation.episodes import OverloadPlan
from repro.simulation.scenario import ScenarioConfig

SCENARIO = ScenarioConfig(seed=7)
CAPACITY = {"frontend_capacity": 1.5}
SKETCH = {"sketch_threshold": 64}


def plan(spec):
    return FaultPlan.from_spec(spec)


def campaign_hash(settings):
    return run_context(SCENARIO, CampaignConfig(**settings)).config_hash


def service_hash(settings):
    return config_digest(ServiceConfig(**settings))


#: (hash, settings, other settings that produce different data).
DATA_CHANGES = {
    "validation": (campaign_hash, {}, {"validation": "strict"}),
    "beacon": (
        campaign_hash, {}, {"beacon": BeaconConfig(random_picks=1)}
    ),
    "sketch threshold": (campaign_hash, {}, SKETCH),
    "sketch accuracy": (
        campaign_hash, SKETCH, {**SKETCH, "sketch_accuracy": 0.02}
    ),
    "sketch buckets": (
        campaign_hash, SKETCH, {**SKETCH, "sketch_max_buckets": 64}
    ),
    "record fault": (
        campaign_hash, {}, {"fault_plan": plan("record-corrupt:4")}
    ),
    "record fault position": (
        campaign_hash,
        {"fault_plan": plan("record-corrupt:4,crash:1")},
        {"fault_plan": plan("crash:1,record-corrupt:4")},
    ),
    "frontend capacity": (campaign_hash, {}, CAPACITY),
    "load policy": (
        campaign_hash, CAPACITY, {**CAPACITY, "load_policy": "fastroute"}
    ),
    "overload plan": (
        campaign_hash,
        CAPACITY,
        {**CAPACITY, "overload_plan": OverloadPlan.from_spec("drain:1")},
    ),
    "engine": (campaign_hash, {}, {"engine": "matrix"}),
    "service window": (service_hash, {}, {"window_days": 2}),
    "service predictor": (
        service_hash, {}, {"predictor": PredictorConfig(min_samples=5)}
    ),
    "service validation": (service_hash, {}, {"validation": "repair"}),
    "service sketch": (service_hash, {}, SKETCH),
    "service seed": (service_hash, {}, {"seed": 3}),
    "service record fault": (
        service_hash, {}, {"fault_plan": plan("record-corrupt:8,crash:1")}
    ),
    "service record fault position": (
        service_hash,
        {"fault_plan": plan("record-corrupt:8,exception:1")},
        {"fault_plan": plan("exception:1,record-corrupt:8")},
    ),
}

#: (hash, settings, other settings that produce the same data).
RUN_CHANGES = {
    "workers": (campaign_hash, {}, {"workers": 4}),
    "retries": (campaign_hash, {}, {"max_retries": 5}),
    "timeout": (campaign_hash, {}, {"shard_timeout": 30.0}),
    "backoff": (campaign_hash, {}, {"retry_backoff_seconds": 1.0}),
    "allow partial": (campaign_hash, {}, {"allow_partial": True}),
    "checkpointing": (
        campaign_hash, {}, {"checkpoint_dir": "ckpt", "resume": True}
    ),
    "worker faults": (
        campaign_hash, {}, {"fault_plan": plan("crash:1,hang:2,corrupt:1@0")}
    ),
    "worker faults after record faults": (
        campaign_hash,
        {"fault_plan": plan("record-corrupt:4")},
        {"fault_plan": FaultPlan.from_spec("record-corrupt:4,merge:1", 5.0)},
    ),
    "progress listener": (campaign_hash, {}, {"progress_listener": print}),
    "service spill cadence": (
        service_hash, {}, {"checkpoint_every_events": 500}
    ),
    "service speed": (service_hash, {}, {"speed": 86400.0}),
    "service checkpointing": (
        service_hash, {}, {"checkpoint_dir": "ckpt", "resume": True}
    ),
    "service worker faults": (
        service_hash,
        {"fault_plan": plan("crash:1,record-corrupt:8")},
        {"fault_plan": plan("exception:2,record-corrupt:8")},
    ),
}


@pytest.mark.parametrize("name", sorted(DATA_CHANGES))
def test_data_setting_moves_the_identity(name):
    digest, settings, changed = DATA_CHANGES[name]
    assert digest(settings) != digest(changed)


@pytest.mark.parametrize("name", sorted(RUN_CHANGES))
def test_run_setting_keeps_the_identity(name):
    digest, settings, changed = RUN_CHANGES[name]
    assert digest(settings) == digest(changed)


def test_scenario_engine_and_workers_are_only_defaults():
    matrix = CampaignConfig(engine="matrix")
    other = dataclasses.replace(SCENARIO, engine="vectorized", workers=3)
    assert (
        run_context(other, matrix).config_hash
        == run_context(SCENARIO, matrix).config_hash
    )
    # An unset campaign engine resolves to the scenario's default.
    resolved = run_context(
        dataclasses.replace(SCENARIO, engine="matrix"), CampaignConfig()
    )
    assert resolved == run_context(SCENARIO, matrix)


def test_unstable_values_are_refused():
    @dataclasses.dataclass(frozen=True)
    class Knobs:
        hook: object = None

    for value in (print, lambda progress: None, {"crash"}, object()):
        with pytest.raises(ConfigurationError, match="tag its config field"):
            config_digest(Knobs(hook=value))
