"""Semantic exception hierarchy shared by all modules."""

from __future__ import annotations


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
