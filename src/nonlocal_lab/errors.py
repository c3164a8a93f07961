"""Semantic exception hierarchy shared by all modules."""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional


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


def log2_comb_lower(a: int, b: int) -> float:
    """A lower bound on log2 C(a, b) for 0 <= b <= a, C(a, b) >= (a/b)^b
    with b the smaller side, in floats: no binomial is built."""
    b = min(b, a - b)
    if b <= 0:
        return 0.0
    if b.bit_length() > 1000:  # a/b >= 2, so the bound is at least b
        return math.ldexp(1.0, 1000)
    return b * (math.log2(a) - math.log2(b))


def check_budget(
    count_at: Callable[[int], int],
    size: int,
    budget: int,
    noun: str,
    formula: str,
    at: str,
    name: str = "n",
    least: int = 2,
    log2_at: Optional[Callable[[int], float]] = None,
) -> int:
    """The one budget rule: return ``count_at(size)``, the number of
    ``noun`` a request of this ``size`` enumerates, or raise
    ``BudgetExceeded`` when it exceeds ``budget``. The refusal prints the
    count, or ``formula`` (such as ``3^10000``) when it has more digits than
    CPython converts to text, and the largest ``name`` that fits at ``at``
    (such as ``k=2``), or that none fits when that size is below ``least``,
    the smallest a request may have. Counts rise with the size, so only a
    refusal runs the doubling then bisecting search for that size.

    ``log2_at``, a lower bound on log2 of the count that builds no big int,
    refuses a count far over the budget unbuilt, printing ``formula`` past
    the digit limit: a binomial of a million digits costs nothing.
    """

    def over(m: int) -> bool:
        bound = log2_at is not None and log2_at(m) > budget.bit_length() + 1
        return bound or count_at(m) > budget

    if not over(size):
        return count_at(size)
    lo, hi = 0, 1
    while not over(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if over(mid) else (mid, hi)
    fits = f"fits at {at}"
    closing = f"the largest {name} that {fits} is {lo}" if lo >= least else f"no {name} {fits}"
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    unbuilt = log2_at is not None and digits and log2_at(size) > digits * math.log2(10) + 1
    count_txt = formula if unbuilt else printable(count_at(size), formula)
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
