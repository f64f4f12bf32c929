"""Semisimple ell'-labels as twist orbits of reduced fractions.

A p'-root of unity of order N is written as a reduced fraction k/N, and the
Frobenius twist sigma -> sigma**(eps q) becomes multiplication of k by
eps*q mod N.  All arithmetic is exact integer arithmetic on (num, den) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .arith import InstanceParams, ell_prime_part
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
    """A twist orbit, stored from its canonical representative in twist order."""

    rep: RootLabel
    elements: tuple[RootLabel, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def _twist_step(sigma: RootLabel, d: int, eq: int) -> RootLabel:
    if sigma.den == 1:
        return sigma
    u = pow(eq, d, sigma.den)
    return RootLabel(sigma.den, sigma.num * u % sigma.den)


def suborbit(sigma: RootLabel, d: int, eq: int) -> tuple[RootLabel, ...]:
    """Iterates of the d-fold twist sigma -> sigma**(eq**d) starting at sigma.

    Has deg(sigma) / gcd(d, deg(sigma)) elements; d = 1 walks the orbit.
    """
    if d < 1:
        raise DomainError(f"step must be at least 1, got {d}")
    if math.gcd(eq, sigma.den) != 1:
        raise DomainError(f"denominator {sigma.den} is not coprime to {eq}")
    elems = [sigma]
    x = _twist_step(sigma, d, eq)
    while x != sigma:
        elems.append(x)
        x = _twist_step(x, d, eq)
    return tuple(elems)


@lru_cache(maxsize=None)
def _orbit_of(sigma: RootLabel, eq: int) -> FrobeniusOrbit:
    elems = suborbit(sigma, 1, eq)
    start = elems.index(min(elems))
    rotated = elems[start:] + elems[:start]
    return FrobeniusOrbit(rotated[0], rotated)


def orbit_of(sigma: RootLabel, params: InstanceParams) -> FrobeniusOrbit:
    """The twist orbit through sigma, canonicalized."""
    return _orbit_of(sigma, params.eq)


def center_act(z: RootLabel, sigma: RootLabel) -> RootLabel:
    """Multiply by the central element z: fraction addition modulo 1."""
    den = z.den * sigma.den
    num = (z.num * sigma.den + sigma.num * z.den) % den
    g = math.gcd(num, den)
    return RootLabel(den // g, num // g)


@lru_cache(maxsize=None)
def act_on_orbit(z: RootLabel, rep: RootLabel, eq: int) -> FrobeniusOrbit:
    """The canonical z-translate of the orbit through the representative rep;
    raises if the translation changes the orbit size."""
    image = _orbit_of(center_act(z, rep), eq)
    if len(image.elements) != len(_orbit_of(rep, eq).elements):
        raise InvariantViolationError(
            f"central translation changed orbit size: {rep} -> {image.rep}"
        )
    return image


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


def enumerate_ellprime_orbits(params: InstanceParams) -> tuple[FrobeniusOrbit, ...]:
    """All twist orbits of ell'-labels of degree at most n, sorted canonically."""
    eq = params.eq
    dens: set[int] = set()
    for d in range(1, params.n + 1):
        modulus = ell_prime_part(twist_modulus(d, params), params.ell)
        dens.update(_divisors(modulus))
    orbits: list[FrobeniusOrbit] = []
    for den in sorted(dens):
        if den == 1:
            orbits.append(_orbit_of(IDENTITY, eq))
            continue
        seen: set[int] = set()
        for num in range(1, den):
            if num in seen or math.gcd(num, den) != 1:
                continue
            orb = _orbit_of(RootLabel(den, num), eq)
            for el in orb.elements:
                seen.add(el.num)
            orbits.append(orb)
    # distinct canonical reps, so plain tuple order sorts by rep
    orbits.sort()
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


def clear_orbit_caches() -> None:
    """Drop per-regime orbit caches; used between grid regimes to bound memory."""
    _orbit_of.cache_clear()
    act_on_orbit.cache_clear()
