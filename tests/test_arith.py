import math
import time

import pytest
from hypothesis import given, strategies as st

from blockweights.arith import (
    InstanceParams,
    e_gamma,
    ell_part,
    ell_prime_part,
    ell_valuation_and_parts,
    is_prime,
    make_params,
    mult_order,
    prime_factors,
    prime_power_decomposition,
)
from blockweights.errors import ConfigurationError, DomainError

PRIMES_TO_50 = [p for p in range(2, 51) if is_prime(p)]
PRIME_POWERS_TO_200 = []
for _q in range(2, 201):
    try:
        PRIME_POWERS_TO_200.append((_q, prime_power_decomposition(_q)[0]))
    except ConfigurationError:
        pass


def test_is_prime_small():
    assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def sieve(limit: int) -> bytearray:
    """Reference primality by the sieve of Eratosthenes: flags[m] for
    m <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def test_prime_factors_match_a_sieve_reference():
    """For every m <= 5000, the prime factors are the sieved primes that
    divide m, ascending, and is_prime agrees with the sieve."""
    limit = 5000
    flags = sieve(limit)
    primes = [p for p in range(limit + 1) if flags[p]]
    for m in range(1, limit + 1):
        assert prime_factors(m) == tuple(p for p in primes if m % p == 0), m
        assert is_prime(m) == bool(flags[m])
    for bad in (0, -1, -12):
        with pytest.raises(DomainError):
            prime_factors(bad)


SIEVE_TO_3000 = sieve(3000)


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_prime_factors_recompose_and_multiply(a, b):
    """The factors of a are primes, ascending, whose powers make up a; the
    factors of a * b are those of a and of b together."""
    factors = prime_factors(a)
    assert list(factors) == sorted(set(factors))
    assert all(SIEVE_TO_3000[p] for p in factors)
    rest = a
    for p in factors:
        assert rest % p == 0
        while rest % p == 0:
            rest //= p
    assert rest == 1
    assert prime_factors(a * b) == tuple(sorted({*factors, *prime_factors(b)}))


def test_a_huge_composite_is_refused_at_its_least_factor():
    """is_prime and prime_power_decomposition stop at the least prime
    factor, so 2 (2**61 - 1), from the command line, is refused at once;
    factoring it whole by trial division would take minutes."""
    huge = 2 * (2**61 - 1)
    start = time.perf_counter()
    assert not is_prime(huge)
    with pytest.raises(ConfigurationError, match="not a prime power"):
        prime_power_decomposition(huge)
    assert time.perf_counter() - start < 1.0


def test_prime_power_decomposition_known():
    assert prime_power_decomposition(2) == (2, 1)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(49) == (7, 2)
    assert prime_power_decomposition(128) == (2, 7)


def test_prime_power_decomposition_rejects():
    for bad in (0, 1, 6, 10, 12, 100):
        with pytest.raises(ConfigurationError):
            prime_power_decomposition(bad)


def test_mult_order_known():
    assert mult_order(1, 7) == 1
    assert mult_order(5, 3) == 2
    assert mult_order(2, 7) == 3
    assert mult_order(3, 7) == 6
    assert mult_order(0, 1) == 1


def test_mult_order_rejects_non_unit():
    with pytest.raises(DomainError):
        mult_order(6, 9)
    with pytest.raises(DomainError):
        mult_order(0, 5)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=500))
def test_mult_order_is_minimal(m, b):
    if math.gcd(b, m) != 1:
        return
    t = mult_order(b, m)
    assert pow(b, t, m) == 1
    for s in range(1, t):
        assert pow(b, s, m) != 1


def test_valuation_known():
    assert ell_valuation_and_parts(24, 2) == (3, 8, 3)
    assert ell_valuation_and_parts(7, 2) == (0, 1, 7)
    assert ell_valuation_and_parts(1, 5) == (0, 1, 1)
    assert ell_part(360, 3) == 9
    assert ell_prime_part(360, 3) == 40


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_recomposes(x, ell):
    v, part, prime_part = ell_valuation_and_parts(x, ell)
    assert part == ell**v
    assert part * prime_part == x
    assert prime_part % ell != 0


def test_params_fields():
    params = make_params(n=2, q=9, eps=-1, ell=5)
    assert (params.p, params.f, params.q) == (3, 2, 9)
    assert params.eq == -9
    assert params.e == mult_order(-9, 5)


def test_params_rejections():
    with pytest.raises(ConfigurationError):
        make_params(n=2, q=6, eps=1, ell=5)
    with pytest.raises(ConfigurationError):
        make_params(n=2, q=9, eps=1, ell=3)
    with pytest.raises(ConfigurationError):
        make_params(n=2, q=5, eps=0, ell=3)
    with pytest.raises(ConfigurationError):
        make_params(n=2, q=5, eps=1, ell=4)
    with pytest.raises(ConfigurationError):
        make_params(n=0, q=5, eps=1, ell=3)
    with pytest.raises(ConfigurationError):
        make_params(n=80, q=7, eps=1, ell=3)


def test_desk_guard_refuses_a_huge_n_before_taking_the_power():
    """q**n is not taken for n >= 62, where q >= 2 is past the guard
    already: 2**(10**9) alone would take seconds.  The bound itself is
    where it was."""
    start = time.perf_counter()
    with pytest.raises(ConfigurationError):
        make_params(10**9, 2, 1, 3)
    assert time.perf_counter() - start < 1.0
    assert make_params(61, 2, 1, 3).n == 61
    with pytest.raises(ConfigurationError):
        make_params(62, 2, 1, 3)
    with pytest.raises(ConfigurationError):
        make_params(40, 3, 1, 2)


def test_e_for_ell_two_is_one():
    for q in (3, 5, 7, 9, 25):
        for eps in (1, -1):
            assert make_params(n=1, q=q, eps=eps, ell=2).e == 1


def test_e_relates_to_e0_across_grid():
    """Odd ell: e(+1) = e0 and e(-1) is 2*e0, e0/2, or e0 by e0 mod 4."""
    for q, p in PRIME_POWERS_TO_200:
        for ell in PRIMES_TO_50:
            if ell == 2 or ell == p:
                continue
            e0 = mult_order(q, ell)
            assert make_params(n=1, q=q, eps=1, ell=ell).e == e0
            e_minus = make_params(n=1, q=q, eps=-1, ell=ell).e
            if e0 % 2 == 1:
                assert e_minus == 2 * e0
            elif e0 % 4 == 2:
                assert e_minus == e0 // 2
            else:
                assert e_minus == e0


def test_e_gamma_known():
    params = make_params(n=2, q=5, eps=1, ell=3)
    assert e_gamma(1, params) == 2
    assert e_gamma(2, params) == 1
    for eps in (1, -1):
        assert e_gamma(1, make_params(n=1, q=5, eps=eps, ell=2)) == 1


def test_e_gamma_rejects_bad_degree():
    params = make_params(n=2, q=5, eps=1, ell=3)
    with pytest.raises(DomainError):
        e_gamma(0, params)


def test_e_gamma_is_order_of_power_across_grid():
    """e_gamma(d) = e / gcd(e, d), the order of (eps*q)^d mod ell."""
    small_powers = [(q, p) for q, p in PRIME_POWERS_TO_200 if q <= 50]
    for q, p in small_powers:
        for ell in (2, 3, 5, 7, 11, 13):
            if ell == p:
                continue
            for eps in (1, -1):
                params = make_params(n=1, q=q, eps=eps, ell=ell)
                e = params.e
                for d in range(1, 25):
                    expected = e // math.gcd(e, d)
                    assert e_gamma(d, params) == expected
                    assert mult_order(pow(params.eq, d, ell), ell) == expected


def test_e_gamma_table_matches_pointwise():
    params = make_params(n=6, q=7, eps=-1, ell=5)
    assert params.e_gamma_table == tuple(e_gamma(d, params) for d in range(1, 7))
