"""Structured logging with a shared run context.

The library logs through the standard :mod:`logging` tree under the
``"repro"`` root logger — quiet by default (no handler is installed at
import time, so the library never prints on its own).  The CLI's
``--log-level`` / ``--log-format`` flags call :func:`configure_logging`,
which installs one stream handler emitting either:

* ``json`` — one JSON object per line: timestamp, level, logger,
  message, the bound :class:`RunContext` fields (seed, engine, workers,
  config hash), and any ``extra=`` fields the call site attached; or
* ``text`` — a human-oriented ``level logger: message key=value ...``
  line with the same fields.

The run context rides on a logging filter rather than on every call
site, so a line logged deep inside the campaign still says which run it
belongs to — the property that makes per-shard JSON logs mergeable by
simple concatenation.
"""

from __future__ import annotations

import io
import json
import logging
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.errors import TelemetryError

#: Root logger name for the whole library.
ROOT_LOGGER = "repro"

#: Attributes present on every LogRecord; anything else is call-site extra.
_STANDARD_RECORD_FIELDS = frozenset(
    logging.LogRecord(
        "x", logging.INFO, "x", 0, "", (), None
    ).__dict__
) | {"message", "asctime", "taskName", "run_context"}

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


@dataclass(frozen=True)
class RunContext:
    """Identity of one run, attached to every structured log line.

    ``config_hash`` is the run's data identity
    (:func:`repro.identity.config_digest`, via
    :func:`repro.identity.run_context`): no run setting such as the
    worker count moves it, every data setting does.
    """

    seed: int = 0
    engine: str = "reference"
    workers: int = 1
    config_hash: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """The context as plain fields (for log lines and snapshots)."""
        return asdict(self)


class _ContextFilter(logging.Filter):
    """Binds the run context onto every record passing through."""

    def __init__(self, context: RunContext) -> None:
        super().__init__()
        self.context = context

    def filter(self, record: logging.LogRecord) -> bool:
        record.run_context = self.context.as_dict()
        return True


def _extra_fields(record: logging.LogRecord) -> Dict[str, Any]:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _STANDARD_RECORD_FIELDS and not key.startswith("_")
    }


class JsonLineFormatter(logging.Formatter):
    """One JSON object per log line (JSON-lines stream)."""

    def format(self, record: logging.LogRecord) -> str:
        """Render a record as one sorted-key JSON object."""
        document: Dict[str, Any] = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S%z"),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        document.update(getattr(record, "run_context", {}))
        for key, value in _extra_fields(record).items():
            try:
                json.dumps(value)
            except TypeError:
                value = repr(value)
            document[key] = value
        if record.exc_info:
            document["exc"] = self.formatException(record.exc_info)
        return json.dumps(document, sort_keys=True)


class TextLineFormatter(logging.Formatter):
    """Human-oriented ``level logger: message key=value`` lines."""

    def format(self, record: logging.LogRecord) -> str:
        """Render a record as a single aligned text line."""
        parts = [
            f"{record.levelname.lower():7s}",
            f"{record.name}:",
            record.getMessage(),
        ]
        for key, value in sorted(_extra_fields(record).items()):
            parts.append(f"{key}={value}")
        line = " ".join(parts)
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


def get_logger(name: str) -> logging.Logger:
    """A logger under the library's ``repro`` root."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def configure_logging(
    level: str = "warning",
    fmt: str = "text",
    context: Optional[RunContext] = None,
    stream: Optional[io.TextIOBase] = None,
) -> logging.Logger:
    """Install one handler on the ``repro`` root logger.

    Replaces any handler a previous call installed (re-configuring must
    not stack duplicate handlers), binds ``context`` to every record,
    and stops propagation so application-level logging config does not
    double-print library lines.

    Args:
        level: ``debug`` | ``info`` | ``warning`` | ``error``.
        fmt: ``json`` (JSON-lines) or ``text``.
        context: Run identity stamped onto every line.
        stream: Destination; defaults to ``sys.stderr`` so structured
            logs never mix with report output on stdout.

    Returns:
        The configured ``repro`` root logger.

    Raises:
        TelemetryError: for an unknown level or format name.
    """
    if level not in _LEVELS:
        raise TelemetryError(
            f"unknown log level {level!r}; expected one of "
            f"{sorted(_LEVELS)}"
        )
    if fmt not in ("json", "text"):
        raise TelemetryError(
            f"unknown log format {fmt!r}; expected 'json' or 'text'"
        )
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(
        JsonLineFormatter() if fmt == "json" else TextLineFormatter()
    )
    # The context filter rides on the handler, not the logger: logger
    # filters do not apply to records propagated up from child loggers,
    # handler filters apply to everything the handler emits.
    handler.addFilter(_ContextFilter(context or RunContext()))
    root.addHandler(handler)
    root.setLevel(_LEVELS[level])
    root.propagate = False
    return root
