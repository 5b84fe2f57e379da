"""The ``key = value`` text form of the frozen configuration dataclasses.

Checkpoint ``.meta`` sidecars, CLI config files and flags, and the CLI's
reproducibility header all write a config as one string per field, in field
order.  Reading is strict and goes by the type of each field's default: a
bad value raises :class:`~hyrel.errors.ConfigError` naming its key.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Mapping

from .errors import ConfigError


def format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def parse_value(key: str, text: str, like):
    """``text`` read as the type of ``like``; a bad value is a ConfigError naming ``key``."""
    if isinstance(like, tuple):
        return tuple(parse_value(key, part, like[0]) for part in text.split(","))
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


class TextConfig:
    """Mixin for a frozen dataclass whose every field has a default."""

    def to_dict(self) -> dict[str, str]:
        return {f.name: format_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, str]):
        """Parse the keys :meth:`to_dict` writes; other keys are ignored."""
        defaults = cls()
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise ConfigError(f"missing configuration keys {missing}")
        return cls(**{f.name: parse_value(f.name, d[f.name], getattr(defaults, f.name))
                      for f in fields(cls)})
