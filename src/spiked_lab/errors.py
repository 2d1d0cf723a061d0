"""Exception types, and the argument checks, shared across the package.

The error taxonomy is deliberately small: contract violations (bad inputs),
sizing errors (refusing to allocate absurd tensors), numerical failures
(an algorithm that did not converge), and config errors (malformed specs,
always naming the offending field).
"""

import contextlib
import math
from numbers import Integral, Real


class SpikedLabError(Exception):
    """Base class for package errors."""


class ContractError(SpikedLabError, ValueError):
    """An input violates a documented precondition (shape, symmetry, range)."""


class SizingError(SpikedLabError, ValueError):
    """A requested allocation exceeds the entry budget."""


class NumericalFailure(SpikedLabError, RuntimeError):
    """An iterative routine failed to converge, or a computation left the finite range."""


class ConfigError(SpikedLabError, ValueError):
    """A spec or CLI configuration problem, pointing at the bad field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an integer too long for Python to print."""
    try:
        return repr(value)
    except ValueError:  # past the interpreter's int-to-string digit limit
        return f"a {value.bit_length()}-bit integer"


def _check_order(k, max_order: float = math.inf) -> int:
    """A tensor order: an integer k >= 2 (bools refused), at most ``max_order``."""
    if isinstance(k, bool) or not isinstance(k, Integral) or not 2 <= k <= max_order:
        bound = ">= 2" if max_order == math.inf else f"in [2, {max_order}]"
        raise ContractError(f"order k must be an integer {bound}, got {_shown(k)}")
    return int(k)


def _check_count(value, name: str, lo: int) -> int:
    """A sample or iteration count: an integer >= ``lo`` (bools refused)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise ContractError(f"{name} must be an integer >= {lo}, got {_shown(value)}")
    return int(value)


def _check_real(value, name: str) -> float:
    """A finite real number as a float; bools are refused, not read as 0 or 1."""
    with contextlib.suppress(OverflowError):  # an integer past the float range
        if isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    raise ContractError(f"{name} must be a finite number, got {_shown(value)}")


def _finite_number(value, field: str) -> float:
    """``_check_real`` for a spec field, refused as a ConfigError on ``field``."""
    try:
        return _check_real(value, field)
    except ContractError:
        raise ConfigError(field, f"must be a finite number, got {_shown(value)}") from None


def _check_strength(value, name: str) -> float:
    """A signal strength: a finite real number >= 0."""
    value = _check_real(value, name)
    if value < 0:
        raise ContractError(f"{name} must be finite and >= 0, got {value!r}")
    return value
