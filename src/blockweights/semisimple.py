"""Semisimple ell'-labels as twist orbits of reduced fractions.

A p'-root of unity of order N is written as a reduced fraction k/N, and the
Frobenius twist sigma -> sigma**(eps q) becomes multiplication of k by
eps*q mod N.  All arithmetic is exact integer arithmetic on (num, den) pairs.

The twist orbits of denominator N are the cosets of the subgroup generated by
eps*q in the units mod N, so all of them have ord_N(eps*q) elements, and an
orbit is kept as its least element and that size.  twist_orbit finds that
pair from any element: it canonicalizes orbits and translates them by
central elements.  Unit orders come from arith.mult_order, the one walk over
the powers of a unit, and prime factors from arith.prime_factors, both once
per denominator in the enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .arith import InstanceParams, ell_prime_part, mult_order, prime_factors
from .errors import DomainError, InvariantViolationError


class RootLabel(NamedTuple):
    """A root of unity of p'-order, as the reduced fraction num/den.

    A named tuple rather than a dataclass: these are built, hashed, and
    compared in the innermost counting loops.  The denominator comes first
    so that plain tuple comparison is the canonical order (denominator
    ascending, then numerator ascending).
    """

    den: int
    num: int

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


IDENTITY = RootLabel(1, 0)


def root_label(num: int, den: int) -> RootLabel:
    """Reduce num/den modulo 1 to canonical form."""
    if den < 1:
        raise DomainError(f"denominator must be positive, got {den}")
    num %= den
    g = math.gcd(num, den)
    return RootLabel(den // g, num // g)


class FrobeniusOrbit(NamedTuple):
    """A twist orbit: a coset k <eps q> of the units mod a denominator N,
    kept as (least element, size), where the size ord_N(eps q) is its degree.
    twist_orbit(sigma, eq) finds it from any of its elements."""

    rep: RootLabel
    size: int


def twist_orbit(sigma: RootLabel, eq: int) -> FrobeniusOrbit:
    """The orbit of sigma under the twist sigma -> sigma**eq, as (least
    element, size).

    The orbit is num * <eq> in the units mod den: its size is
    arith.mult_order(eq, den), and its least element the least
    num * eq**k mod den over k below that size.  Only that one is built as
    a label.
    """
    den, start = sigma
    if math.gcd(eq, den) != 1:
        raise DomainError(f"denominator {den} is not coprime to {eq}")
    size = mult_order(eq, den)
    least = min(start * pow(eq, k, den) % den for k in range(size))
    return FrobeniusOrbit(RootLabel(den, least), size)


def orbit_of(sigma: RootLabel, params: InstanceParams) -> FrobeniusOrbit:
    """The twist orbit through sigma, canonicalized."""
    return twist_orbit(sigma, params.eq)


def center_act(z: RootLabel, sigma: RootLabel) -> RootLabel:
    """Multiply by the central element z: fraction addition modulo 1."""
    return root_label(z.num * sigma.den + sigma.num * z.den, z.den * sigma.den)


def translate_orbit(z: RootLabel, orbit: FrobeniusOrbit, eq: int) -> FrobeniusOrbit:
    """The canonical z-translate of orbit; raises if the translation changes
    the orbit size.  It caches nothing: the fixed-block pass walks the
    <z>-cycles of the orbits of an instance that z moves and that are small
    enough to lie in a z-fixed block, once each."""
    image = twist_orbit(center_act(z, orbit.rep), eq)
    if image.size != orbit.size:
        raise InvariantViolationError(
            f"central translation changed orbit size: {orbit.rep} -> {image.rep}"
        )
    return image


# translate_orbit cached for block translations, which meet the same
# (z, orbit) again and again.  The key (z, orbit, eq) names no instance, so
# all instances with the same eq share its entries; it is never cleared.
act_on_orbit = lru_cache(maxsize=None)(translate_orbit)


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def twist_modulus(d: int, params: InstanceParams) -> int:
    """|(eps q)**d - 1|: labels of degree dividing d are the k/N with N | this."""
    if d < 1:
        raise DomainError(f"degree must be at least 1, got {d}")
    return abs(params.eq**d - 1)


@lru_cache(maxsize=1)
def enumerate_ellprime_orbits(params: InstanceParams) -> tuple[FrobeniusOrbit, ...]:
    """All twist orbits of ell'-labels of degree at most n, sorted canonically.

    Per denominator den, the orbits are the cosets num * <eq> of the units,
    all of size mult_order(eq, den): the multiples of each prime factor of
    den (arith.prime_factors) are struck out first, then each numerator not
    yet met, ascending, is a unit and the least element of its coset, which
    is then marked met.  The powers of eq and the factors are found once per
    denominator.  The denominators and then the numerators ascend, so the
    orbits come sorted by representative; den = 1 gives the identity,
    num = 0.  Cached for the last instance only: symbols runs its block walk
    over these orbits, and its fixed-block pass reads them per denominator
    and runs the same block walk over cycles of them, both for one
    instance; the next instance replaces the entry.
    """
    eq = params.eq
    dens: set[int] = set()
    for d in range(1, params.n + 1):
        modulus = ell_prime_part(twist_modulus(d, params), params.ell)
        dens.update(_divisors(modulus))
    orbits: list[FrobeniusOrbit] = []
    for den in sorted(dens):
        size = mult_order(eq, den)
        powers = [pow(eq, k, den) for k in range(size)]
        seen = bytearray(den)
        for p in prime_factors(den):
            seen[::p] = b"\x01" * len(range(0, den, p))
        num = seen.find(0)
        while num != -1:
            orbits.append(FrobeniusOrbit(RootLabel(den, num), size))
            for u in powers:
                seen[num * u % den] = 1
            num = seen.find(0, num + 1)
    return tuple(orbits)


@dataclass(frozen=True)
class CenterGroup:
    """The ell'-part of the center, acting by fraction addition."""

    order: int
    elements: tuple[RootLabel, ...]


@lru_cache(maxsize=None)
def _center_elements(q: int, eps: int, ell: int) -> CenterGroup:
    order = ell_prime_part(q - eps, ell)
    elems = tuple(sorted(root_label(k, order) for k in range(order)))
    return CenterGroup(order, elems)


def center_elements(params: InstanceParams) -> CenterGroup:
    """The ell'-part of the center of GL_n(eps q), of order (q - eps)_ell'."""
    return _center_elements(params.q, params.eps, params.ell)

