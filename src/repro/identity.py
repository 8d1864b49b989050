"""Run identity: which configuration settings change the data.

Two runs are the same run when they produce the same data, whatever
their worker count, retry budget or checkpoint directory.  Every
contract that compares runs asks this one module: serial and sharded
manifests share one ``config_hash``, shard and service checkpoints
resume only under the identity they were written with, and the perf
ledger groups records by it.

Every config dataclass field is a *data* setting unless its metadata
says otherwise: ``field(..., metadata=RUN)`` marks a run setting, one
that never changes the data, and ``metadata={IDENTITY: view}`` counts
only ``view(value)`` (a fault plan counts its ``record-*`` specs and
their positions).  Because data is the default, an untagged field can
only make the identity stricter; and :func:`config_digest` refuses a
value it cannot hash stably, such as a callable, so an untagged
listener fails its run at once.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import hashlib
import numbers
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.errors import ConfigurationError
from repro.telemetry.logs import RunContext

if TYPE_CHECKING:
    from repro.service.ingest import ServiceConfig
    from repro.simulation.campaign import CampaignConfig
    from repro.simulation.scenario import ScenarioConfig

#: Field-metadata key saying how a setting enters the run identity.
IDENTITY = "identity"

#: Field metadata of a run setting: one that never changes the data.
RUN: Mapping[str, Any] = MappingProxyType({IDENTITY: "run"})


def config_digest(*configs: object) -> str:
    """The run identity of ``configs``: a short digest of their data
    settings, the ``config_hash`` of every :class:`RunContext` and the
    identity shard and service checkpoints are written under.

    Raises:
        ConfigurationError: on a value with no stable rendering (a
            callable, a set, an arbitrary object).
    """
    text = repr(tuple(_data_settings(config) for config in configs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _data_settings(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        settings = []
        for item in dataclasses.fields(value):
            view = item.metadata.get(IDENTITY)
            if view == "run":
                continue
            setting = getattr(value, item.name)
            if view is not None:
                setting = view(setting)
            settings.append((item.name, _data_settings(setting)))
        return (type(value).__name__, tuple(settings))
    if isinstance(value, (tuple, list)):
        return tuple(_data_settings(item) for item in value)
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, str, datetime.date)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise ConfigurationError(
        f"cannot hash a {type(value).__name__} setting into the run "
        "identity; tag its config field RUN if it never changes the data"
    )


def resolve(
    campaign: "CampaignConfig", scenario: "ScenarioConfig"
) -> "CampaignConfig":
    """``campaign`` with an unset ``engine`` or ``workers`` taken from
    the scenario's defaults."""
    return dataclasses.replace(
        campaign,
        engine=campaign.engine or scenario.engine,
        workers=campaign.workers or scenario.workers,
    )


def run_context(
    scenario: "ScenarioConfig",
    campaign: "CampaignConfig",
    workers: Optional[int] = None,
) -> RunContext:
    """The :class:`RunContext` of a campaign over ``scenario``: engine
    and workers resolved against the scenario's defaults (``workers``
    overrides the count), and the :func:`config_digest` of the scenario
    and the resolved campaign as ``config_hash``.
    """
    campaign = resolve(campaign, scenario)
    return RunContext(
        seed=scenario.seed,
        engine=campaign.engine,
        workers=workers or campaign.workers,
        config_hash=config_digest(scenario, campaign),
    )


def service_context(config: "ServiceConfig") -> RunContext:
    """The :class:`RunContext` of a live-service run over ``config``:
    engine ``"service"`` and the :func:`config_digest` of ``config`` as
    ``config_hash``, the identity its checkpoints are keyed on.
    """
    return RunContext(
        seed=config.seed,
        engine="service",
        config_hash=config_digest(config),
    )
