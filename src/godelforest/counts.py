"""Exact counts: forest leaves, weak Ruspini partitions the logic can tell
apart, and the 2-overlapping subcount.

Each count is a closed formula in n, so nothing here builds a forest, and
only a refusal imports the package's `records`.  The counts grow doubly
exponentially, so every function checks one budget table first.
"""

from __future__ import annotations


def ordered_bell(n: int) -> int:
    """Number of ordered partitions of an n-set.

    The sum of c_j * j**n over j = 0..n, where c_n = 1 and c_j = 2 * c_(j+1)
    + (-1)**(n-j) * C(n+1, j+1): O(n) big-int steps and no recursion.
    """
    if type(n) is not int or n < 0:  # bool too: True is not a count
        from .records import _shown  # loaded only to word a refusal
        raise ValueError(f"need n >= 0, got {_shown(n)}")
    if n:
        _check_count_budget("leaves", n)
    total, c, binom, sign = 0, 1, 1, -1  # c_j, C(n+1, j+1), (-1)**(n-j+1) at j = n
    for j in range(n, -1, -1):
        total += c * j**n
        binom = binom * (j + 1) // (n + 1 - j)
        c, sign = 2 * c + sign * binom, -sign
    return total


#: Largest n per count kind whose exact count is computed and printed in
#: about 2 s (x86_64, Python 3.11.7).  Printing time grows with the square of
#: the digit count: `weak-ruspini` at n = 9 has 4,266,956 digits.
COUNT_MAX_N = {"leaves": 4000, "weak-ruspini": 8, "overlap2": 850}


def _check_count_budget(kind: str, n: int) -> None:
    limit = COUNT_MAX_N[kind]
    if type(n) is int and 1 <= n <= limit:  # bool too is refused: True is not a count
        return
    from .records import _shown  # loaded only to word a refusal
    if type(n) is not int or n < 1:
        raise ValueError(f"need n >= 1, got {_shown(n)}")
    raise ValueError(f"the {kind} count supports n <= {limit}: "
                     f"the n = {_shown(n)} count takes too long to print")


def count_leaves(n: int) -> int:
    """Number of maximal classes of the full forest: twice the number of
    ordered partitions of the n variables."""
    _check_count_budget("leaves", n)
    return 2 * ordered_bell(n)


def count_weak_ruspini(n: int) -> int:
    """Number of weak Ruspini partitions of n sets the logic can tell apart:
    one per nonempty subset of the Ruspini forest's leaves."""
    _check_count_budget("weak-ruspini", n)
    return 2 ** (count_leaves(n) - 1) - 1


def count_2overlap_weak_ruspini(n: int) -> int:
    """Same count restricted to families where no three sets overlap."""
    _check_count_budget("overlap2", n)
    return 2 ** ((3 * n * n - n) // 2) - 1
