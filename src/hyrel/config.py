"""The ``key = value`` text form of the frozen configuration dataclasses.

Checkpoint ``.meta`` sidecars, CLI config files and flags, and the CLI's
reproducibility header all write a config as one string per field, in field
order; an ``InteractionConfig`` field writes a ``relation_set`` and an
``entity_set`` key.  Reading is strict and goes by the type of each field's
default: a bad value raises :class:`~hyrel.errors.ConfigError` naming its key.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Mapping

from .errors import ConfigError
from .foundation import EntInteraction, InteractionConfig, RelInteraction


def format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def _parse_value(key: str, text: str, like):
    if isinstance(like, tuple):
        return tuple(_parse_value(key, part, like[0]) for part in text.split(","))
    if isinstance(like, bool):
        if text not in ("True", "False"):
            raise ConfigError(f"{key} must be True or False, got {text!r}")
        return text == "True"
    try:
        value = type(like)(text)
    except ValueError:
        raise ConfigError(f"{key} must be {type(like).__name__}, got {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _parse_interactions(key: str, text: str, enum_cls) -> frozenset:
    by_value = {t.value: t for t in enum_cls}
    names = [name for name in text.split(",") if name]
    unknown = [name for name in names if name not in by_value]
    if unknown:
        raise ConfigError(f"{key} names unknown interactions {unknown}")
    return frozenset(by_value[name] for name in names)


class TextConfig:
    """Mixin for a frozen dataclass whose every field has a default."""

    def to_dict(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, InteractionConfig):
                out["relation_set"] = ",".join(sorted(t.value for t in value.relation_set))
                out["entity_set"] = ",".join(sorted(t.value for t in value.entity_set))
            else:
                out[f.name] = format_value(value)
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, str]):
        """Parse the keys :meth:`to_dict` writes; other keys are ignored."""
        defaults = cls()
        missing = [key for key in defaults.to_dict() if key not in d]
        if missing:
            raise ConfigError(f"missing configuration keys {missing}")
        kwargs = {}
        for f in fields(cls):
            like = getattr(defaults, f.name)
            if isinstance(like, InteractionConfig):
                kwargs[f.name] = InteractionConfig(
                    _parse_interactions("relation_set", d["relation_set"], RelInteraction),
                    _parse_interactions("entity_set", d["entity_set"], EntInteraction))
            else:
                kwargs[f.name] = _parse_value(f.name, d[f.name], like)
        return cls(**kwargs)
