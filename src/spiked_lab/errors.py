"""Exception types, and the argument checks, shared across the package.

The error taxonomy is deliberately small: contract violations (bad inputs),
sizing errors (refusing to allocate absurd tensors), numerical failures
(an algorithm that did not converge), and config errors (malformed specs,
always naming the offending field).
"""

import math
from numbers import Integral


class SpikedLabError(Exception):
    """Base class for package errors."""


class ContractError(SpikedLabError, ValueError):
    """An input violates a documented precondition (shape, symmetry, range)."""


class SizingError(SpikedLabError, ValueError):
    """A requested allocation exceeds the entry budget."""


class NumericalFailure(SpikedLabError, RuntimeError):
    """An iterative routine failed to converge; carries partial state."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigError(SpikedLabError, ValueError):
    """A spec or CLI configuration problem, pointing at the bad field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


def _check_order(k, max_order: float = math.inf) -> int:
    """A tensor order: an integer k >= 2 (bools refused), at most ``max_order``."""
    if isinstance(k, bool) or not isinstance(k, Integral) or not 2 <= k <= max_order:
        bound = ">= 2" if max_order == math.inf else f"in [2, {max_order}]"
        raise ContractError(f"order k must be an integer {bound}, got {k!r}")
    return int(k)


def _check_count(value, name: str, lo: int) -> int:
    """A sample or iteration count: an integer >= ``lo`` (bools refused)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise ContractError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _finite_number(value, field: str) -> float:
    """A finite spec number as a float; bools are refused, not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(field, f"must be a finite number, got {value!r}")
    return float(value)


def _check_strength(value, name: str) -> float:
    """A signal strength: finite and >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ContractError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)
