from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given

from preisach import (
    SpinConfig,
    alpha,
    apply_D,
    apply_U,
    i_minus,
    i_plus,
    invert,
    make_permutation,
    omega,
)
from strategies import perm_config_pairs, permutations_st

RHO231 = make_permutation([2, 3, 1])


def test_make_permutation_fig_instance():
    rho = make_permutation([2, 3, 1])
    assert rho.n == 3
    assert rho.values == (2, 3, 1)


def test_make_permutation_singleton():
    assert make_permutation([1]).n == 1


def test_make_permutation_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate value 2"):
        make_permutation([2, 2, 1])


def test_make_permutation_rejects_out_of_range():
    with pytest.raises(ValueError, match="value 7 out of range"):
        make_permutation([1, 7, 2])


def test_make_permutation_rejects_empty():
    with pytest.raises(ValueError):
        make_permutation([])


def test_invert_identity():
    assert invert(make_permutation([1, 2, 3])).values == (1, 2, 3)


def test_invert_fig_instance():
    assert invert(RHO231).values == (3, 1, 2)


def test_invert_involution_case():
    assert invert(make_permutation([2, 1])).values == (2, 1)


@given(permutations_st())
def test_invert_composes_to_identity(rho):
    inv = invert(rho)
    assert all(inv.values[rho.values[i - 1] - 1] == i for i in range(1, rho.n + 1))
    assert invert(inv) == rho


def test_i_plus_examples():
    assert i_plus(alpha(3)) == 1
    assert i_plus(omega(3)) is None
    assert i_plus(SpinConfig((1, -1, 1))) == 2


def test_i_minus_examples():
    assert i_minus(alpha(3), RHO231) is None
    assert i_minus(SpinConfig((1, 1, -1)), RHO231) == 2
    assert i_minus(SpinConfig((1, -1, 1)), RHO231) == 3


def test_apply_u_examples():
    assert apply_U(alpha(3), RHO231) == SpinConfig((1, -1, -1))
    assert apply_U(omega(3), RHO231) == omega(3)
    assert apply_U(SpinConfig((1, -1, 1)), RHO231) == omega(3)


def test_apply_d_examples():
    assert apply_D(alpha(3), RHO231) == alpha(3)
    assert apply_D(omega(3), RHO231) == SpinConfig((1, -1, 1))
    assert apply_D(SpinConfig((1, 1, -1)), RHO231) == SpinConfig((1, -1, -1))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_U(alpha(2), RHO231)
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_D(alpha(4), RHO231)
    with pytest.raises(ValueError, match="dimension mismatch"):
        i_minus(alpha(2), RHO231)


@given(perm_config_pairs())
def test_single_step_changes_one_spin(pair):
    rho, sigma = pair
    up = apply_U(sigma, rho)
    if sigma == omega(rho.n):
        assert up == sigma
    else:
        assert up.count_plus() == sigma.count_plus() + 1
    down = apply_D(sigma, rho)
    if sigma == alpha(rho.n):
        assert down == sigma
    else:
        assert down.count_plus() == sigma.count_plus() - 1


@given(perm_config_pairs())
def test_orbits_terminate_within_n_steps(pair):
    rho, sigma = pair
    up = sigma
    down = sigma
    for _ in range(rho.n):
        up = apply_U(up, rho)
        down = apply_D(down, rho)
    assert up == omega(rho.n)
    assert down == alpha(rho.n)


@given(perm_config_pairs())
def test_fixed_points_characterize_endpoints(pair):
    rho, sigma = pair
    assert (i_plus(sigma) is None) == (sigma == omega(rho.n))
    assert (i_minus(sigma, rho) is None) == (sigma == alpha(rho.n))


def test_spin_config_ordering_reads_left_to_right():
    assert SpinConfig((-1, 1)) < SpinConfig((1, -1))
    assert SpinConfig((1, -1, -1)) < SpinConfig((1, -1, 1))


def test_spin_config_rejects_bad_entries():
    with pytest.raises(ValueError):
        SpinConfig((1, 0, -1))
    # only the ints -1 and +1 are spins, as Permutation takes only ints
    for bad in ((True, -1), (1.0, -1)):
        with pytest.raises(ValueError, match="spins must be -1 or"):
            SpinConfig(bad)
    # a list is read like a tuple: the result hashes and compares as one
    from_list, from_tuple = SpinConfig([1, -1]), SpinConfig((1, -1))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert from_list in {from_tuple} and not from_list < from_tuple


def test_flipped_agrees_with_validated_constructor():
    # flipped skips the constructor's scan; its result must be
    # indistinguishable from a configuration built through the checked
    # constructor, which holds the spins as a mask: bit i-1 set for spin i up
    with pytest.raises(ValueError, match="spins must be -1 or"):
        SpinConfig((0, 1))
    for n in range(1, 5):
        configs = list(product((-1, 1), repeat=n))
        for spins in configs:
            sigma = SpinConfig(spins)
            assert sigma.spins == spins and sigma.n == n
            assert all((sigma.mask >> (i - 1) & 1) == (spins[i - 1] == 1) for i in range(1, n + 1))
            assert sigma.mask < 1 << n
            assert sigma.count_plus() == spins.count(1)
            assert repr(sigma) == f"SpinConfig(spins={spins!r})"
            for other in configs:
                tau = SpinConfig(other)
                assert (sigma < tau, sigma <= tau, sigma > tau, sigma >= tau) == (
                    spins < other,
                    spins <= other,
                    spins > other,
                    spins >= other,
                )
            for copied in (pickle.loads(pickle.dumps(sigma)), copy.deepcopy(sigma)):
                assert type(copied) is SpinConfig and copied == sigma
                assert hash(copied) == hash(sigma) and copied.spins == spins
            for field in ("n", "mask", "spins"):
                with pytest.raises(FrozenInstanceError):
                    setattr(sigma, field, 0)
            for i in range(1, n + 1):
                flipped = sigma.flipped(i)
                checked = SpinConfig(spins[: i - 1] + (-spins[i - 1],) + spins[i:])
                assert type(flipped) is SpinConfig
                assert flipped == checked and hash(flipped) == hash(checked)
                assert (flipped < sigma) == (checked < sigma)
                assert flipped.flipped(i) == sigma


def test_spin_config_store_is_two_slots():
    # slots, not a per-object dict; pickle and copy still rebuild an equal,
    # equally hashed configuration, and the object stays frozen
    sigma = SpinConfig((1, -1, 1, 1))
    assert SpinConfig.__slots__ == ("n", "mask") and not hasattr(sigma, "__dict__")
    copies = [pickle.loads(pickle.dumps(sigma, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(sigma), copy.deepcopy(sigma), copy.deepcopy([sigma])[0]]
    for copied in copies:
        assert type(copied) is SpinConfig and copied == sigma and hash(copied) == hash(sigma)
        assert (copied.n, copied.mask, copied.spins) == (4, 0b1101, (1, -1, 1, 1))
    for field in ("n", "mask", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(sigma, field, 0)
    assert (sigma.n, sigma.mask) == (4, 0b1101)


@pytest.mark.parametrize("i", [0, -1, 4, 7])
def test_flipped_rejects_index_outside_range(i):
    with pytest.raises(ValueError, match=f"spin index {i} outside 1..3"):
        SpinConfig((1, -1, 1)).flipped(i)
