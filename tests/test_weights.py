import pytest

from blockweights import weights
from blockweights.errors import DomainError
from blockweights.partitions import count_with_core, distinct_cores, is_e_core
from blockweights.weights import (
    CoreFunction,
    count_core_functions,
    ell_cores_of_size,
    enumerate_core_functions,
    slots_at_level,
    validate_core_function,
)


def test_slots_at_level_known():
    assert slots_at_level(1, 0, 3) == ((0, 1, 1),)
    assert len(slots_at_level(2, 1, 3)) == 6
    assert len(slots_at_level(3, 0, 2)) == 3
    assert slots_at_level(2, 1, 2) == ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2))


def test_slots_at_level_rejects():
    with pytest.raises(DomainError):
        slots_at_level(0, 0, 2)
    with pytest.raises(DomainError):
        slots_at_level(1, -1, 2)


def test_count_core_functions_refuses_ell_below_two(monkeypatch):
    """As enumerate_core_functions does; with ell = 1 every level has unit 1
    and the level loop never ends.  Powering is capped at 1,000 calls so
    that a loop fails rather than hangs."""
    with pytest.raises(DomainError):
        enumerate_core_functions(1, 1, 1)
    real_pow = weights.series_pow
    calls = []

    def capped_pow(base, exp, cap):
        calls.append(exp)
        if len(calls) > 1000:
            raise RuntimeError("count_core_functions looped 1,000 levels")
        return real_pow(base, exp, cap)

    monkeypatch.setattr(weights, "series_pow", capped_pow)
    with pytest.raises(DomainError):
        count_core_functions(1, 1, 1)


def test_enumerate_core_functions_refuses_at_weight_zero():
    """As count_core_functions does: the parameter checks come before the
    weight, so w = 0 is no way around them."""
    for h, ell in ((1, 1), (0, 2)):
        with pytest.raises(DomainError):
            enumerate_core_functions(h, 0, ell)
        with pytest.raises(DomainError):
            count_core_functions(h, 0, ell)


def test_ell_cores_of_size():
    assert ell_cores_of_size(0, 2) == ((),)
    assert ell_cores_of_size(2, 2) == ()
    assert set(ell_cores_of_size(2, 3)) == {(2,), (1, 1)}
    for ell in (2, 3, 5):
        for s in range(7):
            assert all(is_e_core(c, ell) and sum(c) == s for c in ell_cores_of_size(s, ell))


def test_empty_weight_gives_empty_function():
    for h in (1, 2, 5):
        for ell in (2, 3):
            assert enumerate_core_functions(h, 0, ell) == (CoreFunction(entries=()),)
            assert count_core_functions(h, 0, ell) == 1


def test_counts_known():
    assert count_core_functions(1, 2, 2) == 2
    assert count_core_functions(2, 1, 3) == 2
    assert count_core_functions(1, 1, 5) == 1
    assert count_core_functions(1, 2, 3) == 2


def test_enumeration_known_shapes():
    levels = {slot[0] for f in enumerate_core_functions(1, 2, 2) for slot in dict(f.entries)}
    assert levels == {1}
    fs = enumerate_core_functions(2, 1, 3)
    assert [dict(f.entries) for f in fs] == [{(0, 1, 1): (1,)}, {(0, 2, 1): (1,)}]


def test_count_matches_enumeration():
    for ell in (2, 3, 5):
        for h in range(1, 5):
            for w in range(7):
                fs = enumerate_core_functions(h, w, ell)
                assert len(fs) == count_core_functions(h, w, ell)
                assert len(set(fs)) == len(fs)


def test_enumerated_functions_validate():
    for ell in (2, 3):
        for h in (1, 3):
            for w in range(6):
                for f in enumerate_core_functions(h, w, ell):
                    validate_core_function(f, h, w, ell)
                    assert f.weighted_size(ell) == w
                    for (d, k, j), core in f.entries:
                        assert ell**d <= w
                        assert 1 <= k <= h
                        assert 1 <= j <= ell**d


def cf(*entries):
    return CoreFunction(tuple(entries))


def test_validate_rejects():
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 2, 1), (1,))), 1, 1, 3)
    with pytest.raises(DomainError):
        validate_core_function(cf(((1, 1, 3), (1,))), 1, 2, 2)
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 1, 1), (2,))), 1, 2, 2)
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 1, 1), (1,))), 1, 2, 3)
    # An empty core is not stored.
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 1, 1), ())), 1, 0, 3)
    # Each slot once, in increasing order: the right weighted size alone
    # does not make a member.
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 1, 1), (1,)), ((0, 1, 1), (2,))), 1, 3, 3)
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 1, 1), (1,)), ((0, 1, 1), (1,))), 2, 2, 3)
    with pytest.raises(DomainError):
        validate_core_function(cf(((0, 2, 1), (1,)), ((0, 1, 1), (1,))), 2, 2, 3)
    validate_core_function(cf(((0, 1, 1), (1,)), ((0, 2, 1), (1,))), 2, 2, 3)


def test_counting_identity_with_partition_cores():
    """|A(e, w)| equals the number of partitions with a fixed e-core, any core."""
    for ell in (2, 3, 5):
        for e in range(1, 5):
            for w in range(6):
                expected = count_core_functions(e, w, ell)
                for m in range(5):
                    for lam in distinct_cores(m, e):
                        assert count_with_core(sum(lam) + e * w, e, lam) == expected
