"""Reference answers computed without the preisach package.

The output checks compare the program against these, so that a defect in
the package's own oracles cannot hide a defect in the code under test.
"""

from __future__ import annotations

from bisect import bisect_left


def count_increasing(values) -> int:
    """Number of increasing subsequences of a permutation of 1..n, the empty
    one included, by a Fenwick tree over values: the subsequences ending at
    value v are one plus those ending at any smaller value seen earlier."""
    n = len(values)
    tree = [0] * (n + 1)
    total = 1
    for v in values:
        below = 1
        i = v - 1
        while i > 0:
            below += tree[i]
            i &= i - 1
        total += below
        i = v
        while i <= n:
            tree[i] += below
            i += i & -i
    return total


def lis(values) -> int:
    """Length of the longest increasing subsequence, by patience sorting."""
    tops: list[int] = []
    for v in values:
        i = bisect_left(tops, v)
        if i == len(tops):
            tops.append(v)
        else:
            tops[i] = v
    return len(tops)
