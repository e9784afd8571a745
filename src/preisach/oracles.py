"""Independent reference computations over increasing subsequences.

Everything here is deliberately naive or classical: positional backtracking
for enumeration, an O(n log n) Fenwick-tree count in exact integers,
patience sorting for the longest increasing subsequence, and a full
subset sweep as an oracle for patience sorting itself.  These functions
never touch the graph machinery, so they can stand as the other side of
every cross-check.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Permutation

__all__ = [
    "DEFAULT_ITEM_BUDGET",
    "ItemBudgetExceeded",
    "enumerate_increasing",
    "count_increasing",
    "lis_patience",
    "lis_bruteforce",
]

DEFAULT_ITEM_BUDGET = 1 << 20

_BRUTEFORCE_LIMIT = 12


class ItemBudgetExceeded(RuntimeError):
    """Enumeration would produce more subsequences than the allowed budget."""


def enumerate_increasing(
    rho: Permutation, max_items: int = DEFAULT_ITEM_BUDGET
) -> frozenset[tuple[int, ...]]:
    """Every increasing subsequence of rho, the empty one included, by
    positional backtracking.

    >>> sorted(enumerate_increasing(Permutation((2, 3, 1))))
    [(), (1,), (2,), (2, 3), (3,)]
    """
    values = rho.values
    n = rho.n
    found: list[tuple[int, ...]] = [()]

    def extend(start: int, prefix: tuple[int, ...]) -> None:
        last = prefix[-1] if prefix else 0
        for i in range(start, n):
            v = values[i]
            if v > last:
                if len(found) + 1 > max_items:
                    raise ItemBudgetExceeded(
                        f"budget exceeded: more than {max_items} increasing subsequences"
                    )
                item = prefix + (v,)
                found.append(item)
                extend(i + 1, item)

    extend(0, ())
    return frozenset(found)


def count_increasing(rho: Permutation) -> int:
    """Number of increasing subsequences of rho, the empty one included.

    A Fenwick tree over values, filled in position order: the subsequences
    ending at value v are 1 plus those ending at any smaller value already
    seen, a prefix sum, and that amount is then added at v.  O(n log n) in
    exact integers, so the identity permutation at n=64 really comes out
    as 2**64.

    >>> count_increasing(Permutation((2, 3, 1)))
    5
    """
    n = rho.n
    tree = [0] * (n + 1)
    total = 1
    for v in rho.values:
        ending = 1
        i = v - 1
        while i:
            ending += tree[i]
            i &= i - 1
        total += ending
        i = v
        while i <= n:
            tree[i] += ending
            i += i & -i
    return total


def lis_patience(rho: Permutation) -> int:
    """Length of the longest increasing subsequence, by patience sorting.

    One pile top per pile, kept sorted; each value replaces the first top
    that is >= it or starts a new pile.  The pile count is the answer.

    >>> lis_patience(Permutation((2, 3, 1)))
    2
    """
    tops: list[int] = []
    for v in rho.values:
        i = bisect_left(tops, v)
        if i == len(tops):
            tops.append(v)
        else:
            tops[i] = v
    return len(tops)


def lis_bruteforce(rho: Permutation) -> int:
    """Longest increasing subsequence length by sweeping all 2^n subsets.

    Only for cross-checking lis_patience; refuses n > 12.
    """
    n = rho.n
    if n > _BRUTEFORCE_LIMIT:
        raise ValueError(f"size limit exceeded: n={n} > {_BRUTEFORCE_LIMIT}")
    values = rho.values
    best = 0
    for mask in range(1 << n):
        prev = 0
        length = 0
        for i in range(n):
            if mask >> i & 1:
                if values[i] <= prev:
                    length = -1
                    break
                prev = values[i]
                length += 1
        if length > best:
            best = length
    return best
