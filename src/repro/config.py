"""Config JSON round-trips.

The protocol/fault configs (:class:`~repro.protocols.inicproto.INICProtoConfig`,
:class:`~repro.faults.FaultSpec`, :class:`~repro.faults.campaign.CampaignSpec`)
share field conventions — ``max_retries``, ``timeout``, ``seed`` — and a
``to_json``/``from_json`` round-trip.  This module provides the plumbing:
:func:`config_to_json`, a recursive dataclass -> plain-JSON-dict
conversion, and :func:`config_from_json`, which rebuilds the flat
configs with unknown-key rejection (``FaultSpec`` nests component
specs and tuples, so it rebuilds itself through ``from_params``).

:class:`~repro.errors.ConfigError` (re-exported here) roots the error
family: domain-specific config errors such as
:class:`~repro.errors.FaultConfigError` subclass it, so unknown-key
rejection is catchable uniformly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Type, TypeVar

from .errors import ConfigError

__all__ = [
    "ConfigError",
    "config_to_json",
    "config_from_json",
]

T = TypeVar("T")


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, (list, dict, str, int, float, bool)) or value is None:
        return value
    raise ConfigError(f"cannot JSON-encode config value {value!r}")


def config_to_json(obj: Any) -> dict[str, Any]:
    """A dataclass config as a plain JSON-safe dict (recursive)."""
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise ConfigError(f"config_to_json needs a dataclass instance, got {obj!r}")
    return _encode(obj)


def config_from_json(cls: Type[T], doc: dict[str, Any]) -> T:
    """Rebuild a flat (scalar-field) dataclass config from
    :func:`config_to_json` output.

    Unknown keys are rejected, catching typos and stale documents.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__}: config document must be a dict")
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown config fields {sorted(unknown)}")
    return cls(**doc)
