"""Exception types shared across the package."""

from __future__ import annotations


class HyrelError(Exception):
    """Base class for every failure raised by this package."""


class ConfigError(HyrelError, ValueError):
    """Invalid or inconsistent configuration."""


class ShapeError(HyrelError, ValueError):
    """Array operands with incompatible shapes."""


class ContractError(HyrelError, ValueError):
    """A caller violated a documented precondition."""


class DataError(HyrelError, ValueError):
    """Input data violates a documented contract."""


class NumericalError(HyrelError, ArithmeticError):
    """A computation produced NaN or infinity where finite values are required."""


class VocabularyError(DataError):
    """An entity or relation id is not part of the expected vocabulary."""


class ParseError(DataError):
    """A single malformed input line or record."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class BundleParseError(DataError):
    """Every parse failure found while reading a file set, aggregated."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        head = f"{len(self.problems)} malformed record(s)"
        super().__init__(head + "\n" + "\n".join(self.problems))


class SplitError(HyrelError, RuntimeError):
    """A requested dataset split cannot be produced from the given graph."""
