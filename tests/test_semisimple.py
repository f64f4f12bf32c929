import math
import types

import pytest
from hypothesis import given, strategies as st

from blockweights import arith, semisimple
from blockweights.arith import ell_prime_part, make_params, mult_order
from blockweights.errors import DomainError, InvariantViolationError
from blockweights.semisimple import (
    IDENTITY,
    FrobeniusOrbit,
    RootLabel,
    act_on_orbit,
    center_act,
    center_elements,
    enumerate_ellprime_orbits,
    orbit_of,
    root_label,
    twist_modulus,
    twist_orbit,
)

from helpers import REFERENCE_INSTANCES, suborbit

GL25_L3 = make_params(n=2, q=5, eps=1, ell=3)
GU2_L5 = make_params(n=2, q=2, eps=-1, ell=5)


@st.composite
def reduced_fraction(draw, max_den=60):
    den = draw(st.integers(min_value=1, max_value=max_den))
    num = draw(st.integers(min_value=0, max_value=den - 1))
    return root_label(num, den)


def test_root_label_reduces():
    assert root_label(2, 8) == RootLabel(4, 1)
    assert root_label(0, 5) == IDENTITY
    assert root_label(6, 9) == root_label(2, 3)


def test_canonical_order_is_den_then_num():
    labels = [root_label(3, 8), root_label(1, 2), IDENTITY, root_label(1, 8), root_label(3, 4)]
    assert sorted(labels) == [
        IDENTITY,
        root_label(1, 2),
        root_label(3, 4),
        root_label(1, 8),
        root_label(3, 8),
    ]


def test_orbit_known():
    assert orbit_of(IDENTITY, GL25_L3) == FrobeniusOrbit(IDENTITY, 1)
    assert suborbit(IDENTITY, 1, GL25_L3.eq) == (IDENTITY,)
    # In twist order from the least element: 1/3 -> 5/3 = 2/3 at q = 5,
    # 1/9 -> -2/9 = 7/9 -> -14/9 = 4/9 at eps q = -2.
    plus = make_params(n=2, q=5, eps=1, ell=2)
    orb = orbit_of(root_label(2, 3), plus)
    assert orb == FrobeniusOrbit(root_label(1, 3), 2)
    assert suborbit(orb.rep, 1, plus.eq) == (root_label(1, 3), root_label(2, 3))
    minus2 = make_params(n=3, q=2, eps=-1, ell=5)
    orb9 = orbit_of(root_label(4, 9), minus2)
    assert orb9 == FrobeniusOrbit(root_label(1, 9), 3)
    assert suborbit(orb9.rep, 1, minus2.eq) == (
        root_label(1, 9),
        root_label(7, 9),
        root_label(4, 9),
    )
    assert FrobeniusOrbit._fields == ("rep", "size")


@given(reduced_fraction(max_den=40), st.sampled_from([(2, -1, 5), (3, -1, 2), (5, 1, 3), (7, 1, 2)]))
def test_orbit_rep_is_minimum_and_stable(sigma, qel):
    q, eps, ell = qel
    params = make_params(n=3, q=q, eps=eps, ell=ell)
    if math.gcd(sigma.den, q) != 1:
        return
    orb = orbit_of(sigma, params)
    walk = suborbit(orb.rep, 1, params.eq)
    assert sigma in walk
    assert orb.rep == min(walk)
    assert mult_order(params.eq, sigma.den) == orb.size == len(walk)
    for elem in walk:
        assert orbit_of(elem, params) == orb


def test_center_act_known():
    assert center_act(IDENTITY, root_label(3, 7)) == root_label(3, 7)
    assert center_act(root_label(1, 2), root_label(1, 4)) == root_label(3, 4)
    assert center_act(root_label(1, 4), IDENTITY) == root_label(1, 4)


@given(reduced_fraction(), reduced_fraction(), reduced_fraction())
def test_center_act_is_a_group_action(z1, z2, sigma):
    assert center_act(IDENTITY, sigma) == sigma
    lhs = center_act(z1, center_act(z2, sigma))
    z12 = root_label(z1.num * z2.den + z2.num * z1.den, z1.den * z2.den)
    assert lhs == center_act(z12, sigma)


def test_act_on_orbit_known():
    eq = GL25_L3.eq
    orb_identity = orbit_of(IDENTITY, GL25_L3)
    assert act_on_orbit(IDENTITY, orb_identity, eq) == orb_identity
    moved = act_on_orbit(root_label(1, 4), orb_identity, eq)
    assert moved == FrobeniusOrbit(root_label(1, 4), 1)
    orb8 = orbit_of(root_label(1, 8), GL25_L3)
    assert act_on_orbit(root_label(1, 2), orb8, eq) == orb8
    assert act_on_orbit(root_label(1, 4), orb8, eq) == orbit_of(root_label(3, 8), GL25_L3)


def test_act_on_orbit_refuses_a_changed_size():
    """act_on_orbit compares the size of the image with the size the orbit
    carries, so an orbit planted with a wrong size raises."""
    orb8 = orbit_of(root_label(1, 8), GL25_L3)
    planted = FrobeniusOrbit(orb8.rep, orb8.size + 1)
    with pytest.raises(InvariantViolationError, match="changed orbit size"):
        act_on_orbit(root_label(1, 2), planted, GL25_L3.eq)


def test_action_preserves_degree_and_is_rep_independent():
    for params in (GL25_L3, GU2_L5, make_params(n=3, q=3, eps=-1, ell=2)):
        zs = center_elements(params).elements
        for orb in enumerate_ellprime_orbits(params):
            for z in zs:
                image = act_on_orbit(z, orb, params.eq)
                assert image.size == orb.size
                for elem in suborbit(orb.rep, 1, params.eq):
                    assert orbit_of(center_act(z, elem), params) == image


def test_suborbit_known():
    assert suborbit(root_label(1, 4), 3, GL25_L3.eq) == (root_label(1, 4),)
    assert suborbit(root_label(1, 8), 2, GL25_L3.eq) == (root_label(1, 8),)
    params9 = make_params(n=3, q=2, eps=-1, ell=5)
    assert suborbit(root_label(1, 9), 3, params9.eq) == (root_label(1, 9),)


def test_twist_orbit_matches_the_reference_walk():
    """twist_orbit(sigma, eq) is the least element and the length of the
    reference walk of the twist, for every element sigma of every orbit on
    the reference instances."""
    compared = 0
    for params in REFERENCE_INSTANCES:
        for orb in enumerate_ellprime_orbits(params):
            for sigma in suborbit(orb.rep, 1, params.eq):
                walk = suborbit(sigma, 1, params.eq)
                expected = FrobeniusOrbit(min(walk), len(walk))
                assert twist_orbit(sigma, params.eq) == expected
                compared += 1
    assert compared > 100


def test_suborbit_refuses_a_denominator_not_prime_to_eq():
    """twist_orbit, and orbit_of through it, refuse such a denominator: the
    twist step is no permutation of its labels, so the walk would never
    return."""
    params = make_params(n=1, q=4, eps=1, ell=3)
    with pytest.raises(DomainError):
        orbit_of(root_label(1, 2), params)
    with pytest.raises(DomainError, match="not coprime"):
        twist_orbit(root_label(1, 2), params.eq)


def test_suborbit_walk_is_bounded_by_its_denominator(monkeypatch):
    """With the coprimality checks of arith.mult_order and twist_orbit
    bypassed, the powers of 0 modulo 2 stay at 0 and never return to 1:
    mult_order stops after m steps and raises instead of hanging, and so
    does the twist walk from 1/2 under eq = 4, whose orbit size it reads."""
    coprime = types.SimpleNamespace(gcd=lambda a, b: 1)
    monkeypatch.setattr(arith, "math", coprime)
    monkeypatch.setattr(semisimple, "math", coprime)
    with pytest.raises(InvariantViolationError, match="did not return to 1 in 2 steps"):
        mult_order(0, 2)
    with pytest.raises(InvariantViolationError, match="did not return to 1 in 2 steps"):
        twist_orbit(root_label(1, 2), 4)


def test_suborbit_size_formula():
    for params in (GL25_L3, GU2_L5, make_params(n=4, q=3, eps=1, ell=2)):
        for orb in enumerate_ellprime_orbits(params):
            for d in range(1, 7):
                sub = suborbit(orb.rep, d, params.eq)
                assert len(sub) == orb.size // math.gcd(d, orb.size)
                assert len(set(sub)) == len(sub)
                assert set(sub) <= set(suborbit(orb.rep, 1, params.eq))


def test_twist_modulus_known():
    minus2 = make_params(n=3, q=2, eps=-1, ell=5)
    assert twist_modulus(1, minus2) == 3
    assert twist_modulus(2, minus2) == 3
    assert twist_modulus(3, minus2) == 9
    assert twist_modulus(1, GL25_L3) == 4
    assert twist_modulus(2, GL25_L3) == 24


def test_orbit_enumeration_known_counts():
    assert len(enumerate_ellprime_orbits(make_params(n=1, q=5, eps=1, ell=3))) == 4
    orbs = enumerate_ellprime_orbits(GL25_L3)
    assert [str(o.rep) for o in orbs] == ["0/1", "1/2", "1/4", "3/4", "1/8", "3/8"]
    assert [o.size for o in orbs] == [1, 1, 1, 1, 2, 2]
    assert len(enumerate_ellprime_orbits(make_params(n=1, q=2, eps=-1, ell=5))) == 3


def test_orbit_enumeration_is_sorted_and_duplicate_free():
    for params in (GL25_L3, GU2_L5, make_params(n=4, q=3, eps=1, ell=2)):
        orbs = enumerate_ellprime_orbits(params)
        reps = [o.rep for o in orbs]
        assert reps == sorted(reps)
        assert len(set(reps)) == len(reps)


def test_orbit_enumeration_matches_direct_scan():
    """Cross-check the divisor-driven enumeration against a raw fraction scan."""
    for n, q, eps, ell in [
        (2, 5, 1, 3),
        (3, 2, -1, 5),
        (3, 3, 1, 2),
        (2, 4, -1, 3),
        (3, 7, -1, 2),
    ]:
        params = make_params(n=n, q=q, eps=eps, ell=ell)
        orbs = enumerate_ellprime_orbits(params)
        found = [elem for orb in orbs for elem in suborbit(orb.rep, 1, params.eq)]
        assert len(found) == len(set(found))
        bound = max(twist_modulus(d, params) for d in range(1, n + 1))
        expected = set()
        for den in range(1, bound + 1):
            if math.gcd(den, q * ell) != 1:
                continue
            if mult_order(params.eq, den) > n:
                continue
            for num in range(den):
                if math.gcd(num, den) == 1 or den == 1:
                    expected.add(root_label(num, den))
        assert set(found) == expected


def test_enumerated_orbits_are_twist_walks():
    """Each enumerated orbit (rep, size) is the twist walk from rep: rep is
    its least element, and size is ord_den(eq), the length of the walk; on
    every n <= 4 grid instance."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for ell in (2, 3, 5, 7):
            if q % ell == 0:
                continue
            for eps in (1, -1):
                for n in (1, 2, 3, 4):
                    params = make_params(n=n, q=q, eps=eps, ell=ell)
                    for orb in enumerate_ellprime_orbits(params):
                        walk = suborbit(orb.rep, 1, params.eq)
                        assert orb.size == mult_order(params.eq, orb.rep.den)
                        assert orb.size == len(walk)
                        assert orb.rep == min(walk)


def _orbits_by_gcd(params):
    """Reference enumeration: the units mod each denominator found by a gcd
    test per numerator, each unit not yet met starting its twist orbit."""
    dens = set()
    for d in range(1, params.n + 1):
        modulus = ell_prime_part(twist_modulus(d, params), params.ell)
        dens.update(semisimple._divisors(modulus))
    orbits = []
    for den in sorted(dens):
        met = set()
        for num in range(den):
            if num in met or math.gcd(num, den) != 1:
                continue
            walk = suborbit(RootLabel(den, num), 1, params.eq)
            orbits.append(FrobeniusOrbit(RootLabel(den, num), len(walk)))
            met.update(label.num for label in walk)
    return tuple(orbits)


def test_orbit_enumeration_sieve_matches_a_gcd_reference():
    """Striking out the multiples of the prime factors of each denominator
    finds the same units as a gcd test: the orbit tuple equals the reference
    on every n <= 5 grid instance."""
    compared = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for ell in (2, 3, 5, 7):
            if q % ell == 0:
                continue
            for eps in (1, -1):
                for n in range(1, 6):
                    params = make_params(n=n, q=q, eps=eps, ell=ell)
                    assert enumerate_ellprime_orbits(params) == _orbits_by_gcd(params)
                    compared += 1
    assert compared == 210


def test_orbit_enumeration_per_degree_counts():
    """Orbits of degree dividing d cover exactly the ell'-residues mod M_d."""
    for n, q, eps, ell in [(2, 5, 1, 3), (3, 2, -1, 5), (4, 3, 1, 2)]:
        params = make_params(n=n, q=q, eps=eps, ell=ell)
        orbs = enumerate_ellprime_orbits(params)
        for d in range(1, n + 1):
            m_d = twist_modulus(d, params)
            residue_count = sum(
                1 for j in range(m_d) if (m_d // math.gcd(j, m_d)) % ell != 0
            )
            covered = sum(o.size for o in orbs if d % o.size == 0)
            assert covered == residue_count


def test_center_group_known():
    center = center_elements(GL25_L3)
    assert center.order == 4
    assert [str(z) for z in center.elements] == ["0/1", "1/2", "1/4", "3/4"]
    assert center_elements(make_params(n=2, q=5, eps=1, ell=2)).order == 1
    assert center_elements(GU2_L5).order == 3


def test_center_group_is_closed():
    for params in (GL25_L3, GU2_L5, make_params(n=2, q=7, eps=-1, ell=2)):
        center = center_elements(params)
        assert center.elements[0] == IDENTITY
        elems = set(center.elements)
        assert len(elems) == center.order
        for z1 in elems:
            for z2 in elems:
                assert center_act(z1, z2) in elems
        for z in elems:
            assert center.order % z.den == 0
