"""Multiplicative orders, prime factors, prime powers, and valuation helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ConfigurationError, DomainError, InvariantViolationError

# All enumerations are desk scale; configurations with q**n at or above this
# bound are rejected up front instead of starting a hopeless run.  As q >= 2,
# every n >= DESK_EXPONENT is past it, and is refused before q**n is taken.
DESK_EXPONENT = 62
DESK_LIMIT = 2**DESK_EXPONENT


def is_prime(m: int) -> bool:
    """Primality: m >= 2 is its own least prime factor."""
    return m >= 2 and next(_trial_division(m)) == m


@lru_cache(maxsize=None)
def prime_factors(m: int) -> tuple[int, ...]:
    """The distinct prime factors of m >= 1, ascending; cached, as a sweep
    meets the same denominators at every instance of one q."""
    if m < 1:
        raise DomainError(f"expected a positive integer, got {m}")
    return tuple(_trial_division(m))


def _trial_division(m: int):
    """Yield the distinct prime factors of m >= 1, ascending: the one
    factorization of the package, adequate for desk scale inputs.  It is
    lazy, so is_prime and prime_power_decomposition stop at the least
    factor, and refuse a huge m with a small factor at once."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            yield d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        yield m


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p**f, p prime, f >= 1."""
    if q < 2:
        raise ConfigurationError(f"q must be at least 2, got {q}")
    p = next(_trial_division(q))
    f = 0
    rest = q
    while rest % p == 0:
        rest //= p
        f += 1
    if rest != 1:
        raise ConfigurationError(f"q = {q} is not a prime power")
    return p, f


def mult_order(b: int, m: int) -> int:
    """Smallest t >= 1 with b**t == 1 (mod m); m = 1 gives 1.  The one walk
    over the powers of a unit in the package: a unit returns to 1 within m
    steps, so a walk that does not raises instead of hanging."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    if m == 1:
        return 1
    b %= m
    if math.gcd(b, m) != 1:
        raise DomainError(f"{b} is not a unit modulo {m}")
    t = 1
    x = b
    while x != 1:
        if t == m:
            raise InvariantViolationError(
                f"the powers of {b} modulo {m} did not return to 1 in {m} steps"
            )
        x = x * b % m
        t += 1
    return t


def ell_valuation_and_parts(x: int, ell: int) -> tuple[int, int, int]:
    """Return (v, ell**v, x / ell**v) for a positive integer x."""
    if x < 1:
        raise DomainError(f"expected a positive integer, got {x}")
    if ell < 2:
        raise DomainError(f"ell must be at least 2, got {ell}")
    v = 0
    part = 1
    while x % ell == 0:
        x //= ell
        v += 1
        part *= ell
    return v, part, x


def ell_part(x: int, ell: int) -> int:
    return ell_valuation_and_parts(x, ell)[1]


def ell_prime_part(x: int, ell: int) -> int:
    return ell_valuation_and_parts(x, ell)[2]


@dataclass(frozen=True)
class InstanceParams:
    """One verification instance: GL_n(eps q) or its SL subgroup, at a prime ell.

    eps = +1 selects the general linear group, eps = -1 the unitary group.
    ell is a prime different from the defining characteristic p.
    """

    p: int
    f: int
    q: int
    eps: int
    ell: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ConfigurationError(f"p must be prime, got {self.p}")
        if self.f < 1 or self.p**self.f != self.q:
            raise ConfigurationError(
                f"q = {self.q} does not equal p**f = {self.p}**{self.f}"
            )
        if self.eps not in (1, -1):
            raise ConfigurationError(f"eps must be +1 or -1, got {self.eps}")
        if not is_prime(self.ell):
            raise ConfigurationError(f"ell must be prime, got {self.ell}")
        if self.ell == self.p:
            raise ConfigurationError(
                f"ell = {self.ell} equals the defining characteristic"
            )
        if self.n < 1:
            raise ConfigurationError(f"n must be at least 1, got {self.n}")
        if self.n >= DESK_EXPONENT or self.q**self.n >= DESK_LIMIT:
            raise ConfigurationError(
                f"q**n = {self.q}**{self.n} exceeds the desk scale guard"
            )

    @cached_property
    def e(self) -> int:
        """Multiplicative order of eps*q modulo ell; equals 1 when ell = 2."""
        return mult_order(self.eps * self.q, self.ell)

    @property
    def eq(self) -> int:
        """The signed prime power eps*q acting on semisimple labels."""
        return self.eps * self.q

    @cached_property
    def e_gamma_table(self) -> tuple[int, ...]:
        """e_gamma(d) for every orbit degree d = 1..n, at index d - 1."""
        return tuple(e_gamma(d, self) for d in range(1, self.n + 1))


def make_params(n: int, q: int, eps: int, ell: int) -> InstanceParams:
    """Validate and package one instance configuration."""
    p, f = prime_power_decomposition(q)
    return InstanceParams(p=p, f=f, q=q, eps=eps, ell=ell, n=n)


def e_gamma(d: int, params: InstanceParams) -> int:
    """Multiplicative order of (eps*q)**d modulo ell for a degree d orbit.

    Computed from the definition; the identity e_gamma(d) = e / gcd(e, d)
    is asserted in tests rather than assumed here.  InstanceParams.e_gamma_table
    keeps the values of an instance.
    """
    if d < 1:
        raise DomainError(f"degree must be at least 1, got {d}")
    return mult_order(pow(params.eq, d, params.ell), params.ell)
