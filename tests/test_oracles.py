from __future__ import annotations

from itertools import compress, permutations, product

import pytest
from hypothesis import given, settings

from preisach import count_increasing, invert, lis_patience, make_permutation
from preisach.oracles import ItemBudgetExceeded, enumerate_increasing, lis_bruteforce
from strategies import permutations_st

RHO231 = make_permutation([2, 3, 1])


def _count_quadratic(rho):
    """Reference for count_increasing: the quadratic recurrence.

    f(i) counts the subsequences ending at position i: 1 plus f(j) over
    every earlier position j with a smaller value.  The 1 added to their
    sum is the empty subsequence.
    """
    values = rho.values
    n = rho.n
    ending = [0] * n
    for i in range(n):
        v = values[i]
        total = 1
        for j in range(i):
            if values[j] < v:
                total += ending[j]
        ending[i] = total
    return 1 + sum(ending)


def test_enumerate_fig_instance():
    assert enumerate_increasing(RHO231) == {
        (),
        (1,),
        (2,),
        (3,),
        (2, 3),
    }


def test_enumerate_singleton():
    assert enumerate_increasing(make_permutation([1])) == {(), (1,)}


def test_enumerate_no_increasing_pair():
    assert enumerate_increasing(make_permutation([2, 1])) == {
        (),
        (1,),
        (2,),
    }


def test_enumerate_equals_subset_sweep_exhaustive_small():
    # the literal definition: the values at any set of positions, kept if
    # they increase; this checks both soundness and completeness
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            sweep = set()
            for picks in product((False, True), repeat=n):
                chosen = tuple(compress(values, picks))
                if all(a < b for a, b in zip(chosen, chosen[1:])):
                    sweep.add(chosen)
            assert enumerate_increasing(make_permutation(values)) == sweep, values


def test_enumerate_budget():
    with pytest.raises(ItemBudgetExceeded, match="budget exceeded"):
        enumerate_increasing(make_permutation(range(1, 26)), max_items=1000)


def test_count_fig_instance():
    assert count_increasing(RHO231) == 5


def test_count_identity_is_power_of_two():
    assert count_increasing(make_permutation(range(1, 11))) == 1024
    assert count_increasing(make_permutation(range(1, 65))) == 2**64
    assert count_increasing(make_permutation(range(1, 201))) == 2**200


def test_count_reversal():
    assert count_increasing(make_permutation(range(10, 0, -1))) == 11
    assert count_increasing(make_permutation(range(200, 0, -1))) == 201


def test_count_equals_quadratic_and_enumeration_exhaustive():
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            count = count_increasing(rho)
            assert count == _count_quadratic(rho), values
            assert count == len(enumerate_increasing(rho)), values


def test_count_is_at_least_two_to_the_lis_exhaustive_small():
    # every subset of a longest increasing subsequence is increasing, so
    # the count is at least 2**LIS; the identity has nothing else
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            assert count_increasing(rho) >= 2 ** lis_patience(rho)
        identity = make_permutation(range(1, n + 1))
        assert count_increasing(identity) == 2 ** lis_patience(identity)


@settings(deadline=None)
@given(permutations_st(max_n=200))
def test_count_equals_quadratic_random(rho):
    assert count_increasing(rho) == _count_quadratic(rho)


def test_lis_patience_examples():
    assert lis_patience(RHO231) == 2
    assert lis_patience(make_permutation(range(1, 9))) == 8
    assert lis_patience(make_permutation(range(8, 0, -1))) == 1


def test_lis_bruteforce_examples():
    assert lis_bruteforce(RHO231) == 2
    assert lis_bruteforce(make_permutation([1])) == 1
    assert lis_bruteforce(make_permutation([2, 4, 3, 5, 1])) == 3


def test_lis_bruteforce_size_limit():
    with pytest.raises(ValueError, match="size limit exceeded"):
        lis_bruteforce(make_permutation(range(1, 14)))


def test_patience_equals_bruteforce_exhaustive_small():
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            assert lis_patience(rho) == lis_bruteforce(rho), values


@settings(max_examples=50, deadline=None)
@given(permutations_st(max_n=10))
def test_patience_equals_bruteforce_random(rho):
    assert lis_patience(rho) == lis_bruteforce(rho)


@given(permutations_st())
def test_enumeration_count_and_max_length_agree(rho):
    subs = enumerate_increasing(rho)
    assert len(subs) == count_increasing(rho)
    assert max(map(len, subs)) == lis_patience(rho)


@settings(deadline=None)
@given(permutations_st(max_n=200))
def test_count_is_inversion_invariant(rho):
    assert count_increasing(rho) == count_increasing(invert(rho))
