from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from blockweights.errors import DomainError
from blockweights.partitions import (
    as_partition,
    beta_set,
    core_tower,
    count_with_core,
    delta,
    distinct_cores,
    e_core,
    e_quotient,
    enumerate_partitions,
    enumerate_with_core,
    from_core_quotient,
    is_e_core,
    partition_count,
    partition_from_beta,
    series_mul,
    series_pow,
    tower_to_partition,
    transpose,
)


def all_partitions_upto(m):
    """All partitions of every size from 0 to m."""
    return [mu for k in range(m + 1) for mu in enumerate_partitions(k)]


# Diagram-level rim hook removal: the independent route that cross-checks
# the beta-set core computation.  Nothing here touches beta-sets.


def _hook_lengths(mu):
    cols = transpose(mu)
    return [
        [mu[i] - (j + 1) + cols[j] - (i + 1) + 1 for j in range(mu[i])]
        for i in range(len(mu))
    ]


def remove_rim_hook(mu, row, col, e):
    """Remove the rim e-hook of the cell (row, col), both 1-based."""
    hooks = _hook_lengths(mu)
    if hooks[row - 1][col - 1] != e:
        raise DomainError(f"cell ({row},{col}) has hook {hooks[row-1][col-1]}, not {e}")
    last = max(i for i in range(len(mu)) if mu[i] >= col) + 1
    new = list(mu)
    for t in range(row, last):
        new[t - 1] = mu[t] - 1
    new[last - 1] = col - 1
    return tuple(part for part in new if part > 0)


def _removable_cells(mu, e):
    hooks = _hook_lengths(mu)
    return [
        (i + 1, j + 1)
        for i in range(len(mu))
        for j in range(mu[i])
        if hooks[i][j] == e
    ]


def rim_hook_core(mu, e):
    """e-core by repeated rim hook removal, hook in the lowest numbered row."""
    if e == 1:
        return ()
    while True:
        cells = _removable_cells(mu, e)
        if not cells:
            return mu
        row, col = min(cells)
        mu = remove_rim_hook(mu, row, col, e)


def rim_hook_cores_all_orders(mu, e):
    """Every core reachable by rim hook removals in any order (should be one)."""
    if e == 1:
        return {()}

    @lru_cache(maxsize=None)
    def reachable(nu):
        cells = _removable_cells(nu, e)
        if not cells:
            return frozenset((nu,))
        out = set()
        for row, col in cells:
            out |= reachable(remove_rim_hook(nu, row, col, e))
        return frozenset(out)

    return set(reachable(mu))


@st.composite
def partition_strategy(draw, max_total=12):
    total = draw(st.integers(min_value=0, max_value=max_total))
    parts = []
    remaining = total
    cap = total
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


def test_as_partition_validates():
    assert as_partition([3, 1]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(DomainError):
        as_partition((1, 3))
    with pytest.raises(DomainError):
        as_partition((2, 0))


def test_transpose_known():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose((1, 1, 1)) == (3,)


@given(partition_strategy())
def test_transpose_involution(mu):
    assert transpose(transpose(mu)) == mu
    assert sum(transpose(mu)) == sum(mu)


def test_delta_known():
    assert delta((4, 2)) == 2
    assert delta(()) == 0
    assert delta((3,)) == 3
    assert delta((5, 3)) == 1


def test_beta_set_round_trip():
    for mu in all_partitions_upto(8):
        for beads in (len(mu), len(mu) + 1, len(mu) + 4):
            if beads == 0:
                continue
            assert partition_from_beta(beta_set(mu, beads)) == mu


def test_beta_set_known():
    assert beta_set((3, 1), 2) == (4, 1)
    assert beta_set((3, 1), 4) == (6, 3, 1, 0)
    with pytest.raises(DomainError):
        beta_set((3, 1), 1)


def test_e_core_known():
    assert e_core((1,), 2) == (1,)
    assert e_core((2,), 2) == ()
    assert e_core((3, 1, 1), 2) == (1,)
    assert e_core((2, 1), 3) == ()
    assert e_core((5,), 1) == ()


def test_e_core_against_rim_hook_oracle():
    """Abacus core equals the core computed by explicit rim-hook stripping."""
    for mu in all_partitions_upto(12):
        for e in range(1, 7):
            assert e_core(mu, e) == rim_hook_core(mu, e)


def test_rim_hook_core_is_order_independent():
    for mu in all_partitions_upto(8):
        for e in range(1, 5):
            assert rim_hook_cores_all_orders(mu, e) == {e_core(mu, e)}


@given(partition_strategy(), st.integers(min_value=1, max_value=6))
def test_e_core_idempotent_and_congruent(mu, e):
    core = e_core(mu, e)
    assert e_core(core, e) == core
    assert is_e_core(core, e)
    assert (sum(mu) - sum(core)) % e == 0


def test_is_e_core_known():
    assert is_e_core((), 4)
    assert is_e_core((1,), 2)
    assert not is_e_core((2,), 2)


def test_e_quotient_size_identity():
    for mu in all_partitions_upto(10):
        for e in range(1, 6):
            quot = e_quotient(mu, e)
            assert len(quot) == e
            assert sum(mu) == sum(e_core(mu, e)) + e * sum(sum(c) for c in quot)


def test_e_quotient_known():
    assert e_quotient((), 3) == ((), (), ())
    quot = e_quotient((2,), 2)
    assert sorted(quot) == [(), (1,)]


def test_core_quotient_round_trip():
    for mu in all_partitions_upto(10):
        for e in range(1, 6):
            assert from_core_quotient(e_core(mu, e), e_quotient(mu, e), e) == mu


def test_core_quotient_inverse_round_trip():
    for e in (2, 3):
        cores = [lam for m in range(4) for lam in distinct_cores(m, e)]
        quotients = [q for q in product(all_partitions_upto(2), repeat=e)]
        for lam, quot in product(cores, quotients):
            mu = from_core_quotient(lam, quot, e)
            assert e_core(mu, e) == lam
            assert e_quotient(mu, e) == quot


def test_from_core_quotient_rejects():
    with pytest.raises(DomainError):
        from_core_quotient((2,), ((), ()), 2)
    with pytest.raises(DomainError):
        from_core_quotient((1,), ((),), 2)


def test_enumerate_partitions_known_counts():
    known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
    for m, count in known.items():
        parts = enumerate_partitions(m)
        assert len(parts) == count
        assert partition_count(m) == count
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == count
        assert all(sum(mu) == m for mu in parts)


def test_count_with_core_known():
    assert count_with_core(4, 2, ()) == 5
    assert count_with_core(1, 2, (1,)) == 1
    assert count_with_core(2, 2, ()) == 2
    assert count_with_core(3, 2, ()) == 0
    assert count_with_core(0, 2, ()) == 1


def test_count_with_core_vacuous_cases():
    assert count_with_core(4, 2, (2,)) == 0
    assert count_with_core(1, 3, (2, 1)) == 0


def test_count_with_core_matches_enumeration():
    for m in range(9):
        for e in range(1, 6):
            for lam in distinct_cores(m, e) + distinct_cores(max(m - e, 0), e):
                listed = enumerate_with_core(m, e, lam)
                assert len(listed) == count_with_core(m, e, lam)
                assert len(set(listed)) == len(listed)
                for mu in listed:
                    assert sum(mu) == m
                    assert e_core(mu, e) == lam


def test_count_with_core_partitions_the_full_set():
    for m in range(9):
        for e in range(1, 6):
            assert sum(count_with_core(m, e, lam) for lam in distinct_cores(m, e)) == partition_count(m)


def full_product(a, b):
    """The product of two coefficient lists, untruncated."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def truncated(coeffs, cap):
    """Coefficients 0..cap of a coefficient list, zero past its end."""
    return (coeffs + [0] * (cap + 1))[: cap + 1]


# Coefficient lists, some with zero leading coefficients.
series = st.tuples(
    st.integers(0, 3), st.lists(st.integers(-4, 4), max_size=6)
).map(lambda t: [0] * t[0] + t[1])


@given(series, series, st.integers(0, 9))
@example(a=[0, 0, 1], b=[0, 3], cap=2)
def test_series_mul_is_the_truncated_full_product(a, b, cap):
    assert series_mul(a, b, cap) == truncated(full_product(a, b), cap)


@given(series, st.integers(0, 6), st.integers(0, 9))
@example(base=[0, 0, 5], exp=0, cap=3)
def test_series_pow_is_the_truncated_repeated_product(base, exp, cap):
    power = [1]
    for _ in range(exp):
        power = full_product(power, base)
    assert series_pow(base, exp, cap) == truncated(power, cap)


def test_distinct_cores_known():
    assert distinct_cores(2, 2) == ((),)
    assert set(distinct_cores(3, 2)) == {(1,), (2, 1)}
    assert distinct_cores(0, 5) == ((),)


def test_core_tower_trivial_cases():
    assert all(len(level) == 0 or all(c == () for c in level) for level in core_tower((), 2))
    levels = core_tower((1,), 2)
    assert levels[0] == ((1,),)
    assert all(c == () for level in levels[1:] for c in level)


def test_core_tower_round_trip():
    for ell in (2, 3):
        for nu in all_partitions_upto(9):
            levels = core_tower(nu, ell)
            assert tower_to_partition(levels, ell) == nu
            assert sum(ell**d * sum(map(sum, level)) for d, level in enumerate(levels)) == sum(nu)


def test_core_tower_level_shapes():
    for ell in (2, 3):
        for nu in all_partitions_upto(7):
            for d, level in enumerate(core_tower(nu, ell)):
                assert len(level) == ell**d
                for core in level:
                    assert is_e_core(core, ell)


def test_tower_to_partition_rejects():
    with pytest.raises(DomainError):
        tower_to_partition((((2,),),), 2)
    with pytest.raises(DomainError):
        tower_to_partition((((1,), ()),), 2)


def test_hook_removal_known():
    assert remove_rim_hook((2,), 1, 1, 2) == ()
    assert remove_rim_hook((2, 2), 1, 2, 2) == (1, 1)
    with pytest.raises(DomainError):
        remove_rim_hook((2, 2), 1, 1, 2)
