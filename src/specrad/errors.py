"""The toolkit's typed errors, and the scalar checks that raise them.

Every count, tolerance, exponent and factor that a public entry point
takes is checked here: ``_integer`` for a count and ``_real`` for a
nonnegative (or positive) finite real.  A list of them (a weight vector's
weights, a weight sequence's prefix) goes through ``_reals``, and a
polynomial's coefficients, finite reals of either sign, through
``_coefficients``.  A bool is no number, a numeric string is no number, and
a value the check accepts comes back as a Python ``int`` or ``float``, so
what a caller stores is JSON as it is.
"""

import math
import numbers


class SpecradError(Exception):
    """Base class for toolkit errors."""


class ShapeMismatchError(SpecradError, ValueError):
    """Operands have incompatible shapes or structures."""


class DomainError(SpecradError, ValueError):
    """A scalar parameter is outside its admissible range."""


class ClosureOverflowError(SpecradError, RuntimeError):
    """Symbolic closure of a banded-operator expression grew past its cap.

    Raised instead of silently truncating; callers may widen budgets or
    report the evaluation as inconclusive.
    """


class BudgetExceededError(SpecradError, RuntimeError):
    """An enumeration or refinement exceeded its configured budget."""


class HypothesisViolation(SpecradError, ValueError):
    """Inputs do not satisfy the side conditions of an inequality chain.

    This is a rejection, not a counterexample: the chain is simply not
    applicable to the offered inputs.
    """


class InputFormatError(SpecradError, ValueError):
    """A JSON input file does not match the documented schemas."""


def _is_number(value) -> bool:
    """True for a real number that converts to a float.

    This is the one number check for JSON values, chain params and scalar
    arguments.  true and false decode to bools, not numbers.  JSON integers
    have no size limit, and one beyond the float range is refused here
    rather than left to overflow in ``float()``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_int(value) -> bool:
    """True for an integer of any type but bool, a numpy one too."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(v, low: int, what: str, error=DomainError) -> int:
    """v as an ``int``, refused with ``error`` unless it is an integer >= low."""
    if _is_int(v) and v >= low:
        return int(v)
    raise error(f"{what} must be an integer >= {low}, got {v!r}")


def _real(v, what: str, strict: bool = False, error=DomainError) -> float:
    """v as a ``float``, refused with ``error`` unless it is a finite real
    >= 0, or > 0 when ``strict``.  A float skips the type test, and a
    non-number reads as nan, which fails both comparisons."""
    x = v if type(v) is float else float(v) if _is_number(v) else math.nan
    if (x > 0.0 if strict else x >= 0.0) and x < math.inf:
        return x
    raise error(f"{what} must be a finite number {'>' if strict else '>='} 0, got {v!r}")


def _reals(values, what: str, strict: bool = False) -> tuple[float, ...]:
    """The sequence ``values`` as a tuple of ``_real(v, what, strict)``."""
    return tuple(_real(v, what, strict) for v in _items(values, what))


def _coefficients(values, what: str) -> tuple[float, ...]:
    """The sequence ``values`` as a tuple of floats, each a finite real of
    either sign.  A float skips the type test, as in ``_real``."""
    for v in (values := _items(values, what)):
        if not ((type(v) is float or _is_number(v)) and math.isfinite(v)):
            raise DomainError(f"{what} must be a finite number, got {v!r}")
    return tuple(map(float, values))


def _items(values, what: str) -> tuple:
    """The sequence ``values`` as a tuple, refused unless it is one."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what}s must be a sequence, got {values!r}") from None
