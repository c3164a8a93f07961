"""Valid inputs up to permuting parties.

The GHZ problem is invariant under permuting parties: every valid input
carries the same weight, and the Born probabilities and the parity target
depend on an input only through its multiset of settings. A pass over the
valid inputs can therefore visit one sorted representative per orbit and
weight it by the orbit's size, the number of distinct orderings.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator

from .errors import CrossCheckMismatch


def multiplicity(rep: tuple[int, ...]) -> int:
    """Distinct orderings of the sorted ``rep``: the multinomial
    n! / prod(c_v!) over the run lengths c_v of its values."""
    count, left, start = 1, len(rep), 0
    while start < len(rep):
        end = bisect.bisect_right(rep, rep[start], start)
        count *= math.comb(left, end - start)
        left -= end - start
        start = end
    return count


def valid_input_orbits(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each orbit of the valid inputs (n settings in 0..k-1 summing to 0 mod
    k) as its sorted representative, in lexicographic order, with its
    multiplicity. Once the last is yielded, the multiplicities are checked
    to sum to the k**(n-1) valid inputs."""
    total = 0
    for rep in itertools.combinations_with_replacement(range(k), n):
        if sum(rep) % k == 0:
            m = multiplicity(rep)
            total += m
            yield rep, m
    if total != k ** (n - 1):
        raise CrossCheckMismatch(
            f"orbit multiplicities sum to {total}, not the {k}^{n - 1} valid inputs"
        )


def orbit_pass_size(n: int, k: int) -> int:
    """The work of one pass over the orbits, rising with n: the
    C(n+k-1, k-1) multisets of settings it enumerates, times the n
    overlap factors of each."""
    return math.comb(n + k - 1, k - 1) * n
