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


class BudgetExceeded(NonlocalLabError):
    """A request would enumerate more than its budget allows."""


#: the one default budget, of the command line and of every library entry point
DEFAULT_BUDGET = 10**7
#: an optional table (the quantum table, the rectangle statistics, the
#: trade-off LP) is built only when its size is at most this and the budget
TABLE_LIMIT = 4096


def table_fits(count: int, budget: int) -> bool:
    """The one rule for optional tables: ``count`` is within the budget and
    ``TABLE_LIMIT``. An optional table that does not fit is left out, not
    refused."""
    return count <= min(budget, TABLE_LIMIT)


def printable(count: int, formula: str) -> int | str:
    """``count``, or ``formula`` (such as ``3^10000``) when it has more
    digits than CPython converts to text."""
    try:
        str(count)
    except ValueError:
        return formula
    return count


def check_budget(
    count_at: Callable[[int], int],
    size: int,
    budget: int,
    noun: str,
    formula: str,
    at: str,
    name: str = "n",
    least: int = 2,
) -> int:
    """The one budget rule: return ``count_at(size)``, the number of
    ``noun`` a request of this ``size`` enumerates, or raise
    ``BudgetExceeded`` when it exceeds ``budget``. The refusal prints the
    count, or ``formula`` (such as ``3^10000``) when it has more digits than
    CPython converts to text, and the largest ``name`` that fits at ``at``
    (such as ``k=2``), or that none fits when that size is below ``least``,
    the smallest a request may have. Counts rise with the size, so only a
    refusal runs the doubling then bisecting search for that size.
    """
    count = count_at(size)
    if count <= budget:
        return count
    lo, hi = 0, 1
    while count_at(hi) <= budget:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count_at(mid) <= budget else (lo, mid)
    fits = f"fits at {at}"
    closing = f"the largest {name} that {fits} is {lo}" if lo >= least else f"no {name} {fits}"
    count_txt = printable(count, formula)
    raise BudgetExceeded(f"{count_txt} {noun} exceed the budget of {budget}; {closing}")


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
