"""Semantic exception hierarchy shared by all modules."""

from __future__ import annotations

from typing import Callable


class NonlocalLabError(Exception):
    """Base error for this package."""


class LengthMismatch(NonlocalLabError, ValueError):
    """An input or outcome vector has the wrong number of entries."""


class InvalidInput(NonlocalLabError, ValueError):
    """A value violates its documented domain (range, promise, click-only)."""


class DivisionByZeroEfficiency(NonlocalLabError, ZeroDivisionError):
    """Click-conditioned quantities are undefined when nothing ever clicks."""


class ResourceLimit(NonlocalLabError):
    """An enumeration would exceed the configured cap."""


class BudgetExceeded(NonlocalLabError):
    """A search or scan would exceed its configured budget."""


def count_text(count: int, formula: str) -> str:
    """``count`` in decimal for a refusal message, or ``formula`` (such as
    ``3^10000``) when it has more digits than CPython converts to text."""
    try:
        return str(count)
    except ValueError:
        return formula


def largest_n_text(k: int, fits: Callable[[int], bool]) -> str:
    """A refusal's closing clause: the largest party count ``n`` with
    ``fits(n)`` at this ``k``, or that none fits when that ``n`` is below 2,
    the fewest parties an instance has. ``fits`` holds from n = 0 up to some
    n and fails after it, so a doubling then bisecting search finds that n."""
    lo, hi = 0, 1
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return f"the largest n that fits at k={k} is {lo}" if lo >= 2 else f"no n fits at k={k}"


class MalformedTree(NonlocalLabError):
    """A protocol tree node does not partition the input set."""


class ArityMismatch(NonlocalLabError, ValueError):
    """A model and a correlation problem disagree on (n, k, l)."""


class FlavorMismatch(NonlocalLabError):
    """An operation requires the shared-randomness protocol flavor."""


class EmptyWeight(NonlocalLabError):
    """A rectangle carries zero input weight, so advantage is undefined."""


class EmptyIntersection(NonlocalLabError):
    """A rectangle contains no valid inputs, so bias is undefined."""


class DeltaOutOfRange(NonlocalLabError, ValueError):
    """The advantage threshold must lie in [0, 1)."""


class CrossCheckMismatch(NonlocalLabError):
    """Two independent computations of the same quantity disagree."""


class Infeasible(NonlocalLabError):
    """The linear program admits no feasible point."""


class ModulusMismatch(NonlocalLabError, ValueError):
    """Two cyclic-group multisets live over different moduli."""


class PreconditionViolated(NonlocalLabError, ValueError):
    """A lemma-style check was invoked outside its hypothesis."""


class TooFewSets(NonlocalLabError, ValueError):
    """A verification requires more sets than were supplied."""


class NotPowerOfTwo(NonlocalLabError, ValueError):
    """The group order must be a power of two for this verification."""
