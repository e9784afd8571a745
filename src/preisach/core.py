"""Spin configurations and the up/down transition maps driven by a permutation.

A system of n spins, each -1 or +1, is driven between the all-down state
alpha and the all-up state omega by two deterministic maps.  The up map U
flips the lowest-indexed -1 spin to +1.  The down map D scans the spins in
the order given by a permutation rho = (rho_1, ..., rho_n) and flips the
first +1 spin it encounters back to -1.  omega is a fixed point of U and
alpha a fixed point of D; both maps are total.

Spin positions are 1-based throughout the package; any 0-based indexing is
internal to a function body.  Spin configurations compare and sort by their
spin sequence read left to right with -1 < +1.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SpinIndex",
    "Permutation",
    "SpinConfig",
    "make_permutation",
    "invert",
    "alpha",
    "omega",
    "i_plus",
    "i_minus",
    "apply_U",
    "apply_D",
]

# 1-based position of a spin
SpinIndex = int


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> Permutation((2, 3, 1)).n
    3
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("permutation must have at least one entry")
        n = len(self.values)
        seen = set()
        for v in self.values:
            if type(v) is not int:
                raise ValueError(f"non-integer value {v!r}")
            if not 1 <= v <= n:
                raise ValueError(f"value {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"duplicate value {v}")
            seen.add(v)

    @property
    def n(self) -> int:
        return len(self.values)

    def position_of(self, value: int) -> int:
        """1-based position of `value` in the one-line word."""
        return self.values.index(value) + 1


def make_permutation(values) -> Permutation:
    """Validate a sequence of values and return it as a Permutation.

    Rejects anything that is not a bijection of {1, ..., n}, naming the
    offending value in the error.

    >>> make_permutation([2, 3, 1]).values
    (2, 3, 1)
    >>> make_permutation([2, 2, 1])
    Traceback (most recent call last):
        ...
    ValueError: duplicate value 2
    """
    return Permutation(tuple(values))


def invert(rho: Permutation) -> Permutation:
    """The inverse permutation: invert(rho).values[v-1] is the position of v.

    >>> invert(make_permutation([2, 3, 1])).values
    (3, 1, 2)
    """
    inv = [0] * rho.n
    for pos, v in enumerate(rho.values, start=1):
        inv[v - 1] = pos
    return Permutation(tuple(inv))


@dataclass(frozen=True, order=True)
class SpinConfig:
    """A configuration of n spins, each -1 or +1."""

    spins: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.spins:
            raise ValueError("spin configuration must have at least one spin")
        if any(s != 1 and s != -1 for s in self.spins):
            raise ValueError("spins must be -1 or +1")

    @property
    def n(self) -> int:
        return len(self.spins)

    def count_plus(self) -> int:
        return self.spins.count(1)

    def flipped(self, i: SpinIndex) -> SpinConfig:
        """The configuration with spin i (1-based) negated."""
        j = i - 1
        return SpinConfig(self.spins[:j] + (-self.spins[j],) + self.spins[j + 1 :])


def alpha(n: int) -> SpinConfig:
    """The all -1 configuration on n spins."""
    return SpinConfig((-1,) * n)


def omega(n: int) -> SpinConfig:
    """The all +1 configuration on n spins."""
    return SpinConfig((1,) * n)


def _check_same_n(sigma: SpinConfig, rho: Permutation) -> None:
    if sigma.n != rho.n:
        raise ValueError(
            f"dimension mismatch: {sigma.n} spins vs permutation of {rho.n}"
        )


def i_plus(sigma: SpinConfig) -> SpinIndex | None:
    """Lowest index holding a -1 spin, or None for omega.

    >>> i_plus(SpinConfig((1, -1, 1)))
    2
    >>> i_plus(omega(3)) is None
    True
    """
    for i, s in enumerate(sigma.spins, start=1):
        if s == -1:
            return i
    return None


def i_minus(sigma: SpinConfig, rho: Permutation) -> SpinIndex | None:
    """First +1 spin in the scan order rho_1, rho_2, ..., or None for alpha.

    >>> i_minus(SpinConfig((1, 1, -1)), make_permutation([2, 3, 1]))
    2
    """
    _check_same_n(sigma, rho)
    for v in rho.values:
        if sigma.spins[v - 1] == 1:
            return v
    return None


def apply_U(sigma: SpinConfig, rho: Permutation) -> SpinConfig:
    """One up step: flip the lowest -1 spin; omega maps to itself."""
    _check_same_n(sigma, rho)
    i = i_plus(sigma)
    return sigma if i is None else sigma.flipped(i)


def apply_D(sigma: SpinConfig, rho: Permutation) -> SpinConfig:
    """One down step: flip the first +1 spin in scan order; alpha maps to itself."""
    _check_same_n(sigma, rho)
    i = i_minus(sigma, rho)
    return sigma if i is None else sigma.flipped(i)
