import itertools
import random
import re

import pytest

from blockweights import oracle
from blockweights.arith import make_params, prime_power_decomposition
from blockweights.errors import (
    ConfigurationError,
    InvariantViolationError,
    UnsupportedModeError,
)
from blockweights.semisimple import center_elements
from blockweights.symbols import kappa, z_act
from blockweights.verify import run_instance
from blockweights.oracle import (
    ElementIndex,
    TinyField,
    conjugacy_class_reps,
    cross_check,
    element_order,
    enumerate_matrix_group,
    generating_set,
    group_order,
    mat_det,
    mat_identity,
    mat_mul,
    tiny_field,
)

from helpers import enumerate_admissible_symbols


def test_field_axioms_and_frobenius():
    for q in (2, 3, 4, 5, 7, 9, 25, 49):
        F = TinyField(q)
        assert F.q == q
        fixed = [a for a in range(q) if F.frob[a] == a]
        assert len(fixed) == F.p
        for a in range(1, q):
            assert F.mul[a * q + F.inv[a]] == 1


def test_field_power():
    F = TinyField(9)
    for a in range(1, 9):
        assert F.power(a, 8) == 1
        acc = 1
        for k in range(5):
            assert F.power(a, k) == acc
            acc = F.mul[acc * 9 + a]


def _codes(q: int, n: int, a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference row and column codes of a flat matrix: each row or column
    read as a base-q integer, first entry most significant."""

    def code(v):
        return sum(x * q ** (n - 1 - k) for k, x in enumerate(v))

    return (
        tuple(code(a[i * n : i * n + n]) for i in range(n)),
        tuple(code(a[j::n]) for j in range(n)),
    )


def _transposed(a, n: int) -> tuple[int, ...]:
    return tuple(x for j in range(n) for x in a[j::n])


def _inverse_by_powers(F: TinyField, n: int, g):
    """g^-1 as the last power of g before the identity."""
    last, power = mat_identity(n), g
    while power != mat_identity(n):
        last, power = power, mat_mul(F, power, g, n)
    return last


def test_matrix_helpers():
    F = TinyField(5)
    eye = mat_identity(2)
    a = (1, 2, 3, 4)
    b = (2, 0, 1, 3)
    assert mat_mul(F, a, eye, 2) == a
    prod_det = mat_det(F, mat_mul(F, a, b, 2), 2)
    assert prod_det == F.mul[mat_det(F, a, 2) * 5 + mat_det(F, b, 2)]
    # The vector tables of ElementIndex multiply as mat_mul does, x g by the
    # rows of x and g x by its columns, the inverse permutation of a table
    # is the table of the inverse matrix, and the transpose of each element
    # is listed, its rows the element's columns: checked on every pair of
    # elements of GL_2(3) and GU_2(2), and on a fixed sample of GL_3(q)
    # closed under transposition.
    groups = [
        enumerate_matrix_group(kind, n, q) + (n,)
        for kind, n, q in (("GL", 2, 3), ("GU", 2, 2))
    ]
    for q in (2, 3, 4, 5):
        F = tiny_field(q)
        rng = random.Random(f"inverse {q}")
        sample: list = []
        while len(sample) < 30:
            g = tuple(rng.randrange(q) for _ in range(9))
            if mat_det(F, g, 3):
                sample.extend(h for h in (g, _transposed(g, 3)) if h not in sample)
        groups.append((F, sample, 3))
    for F, elements, n in groups:
        index = ElementIndex(F, n, elements, "sample")
        for i, g in enumerate(elements):
            t = index.transpose[i]
            assert (index.rows[i], index.rows[t]) == _codes(F.q, n, g)
            assert elements[t] == _transposed(g, n)
            right, left = index.row_table(g), index.column_table(g)
            for x in elements:
                rows, cols = _codes(F.q, n, x)
                xg_rows = _codes(F.q, n, mat_mul(F, x, g, n))[0]
                gx_cols = _codes(F.q, n, mat_mul(F, g, x, n))[1]
                assert tuple(right[r] for r in rows) == xg_rows
                assert tuple(left[c] for c in cols) == gx_cols
            inverse = _inverse_by_powers(F, n, g)
            assert oracle._inverse_table(right) == index.row_table(inverse)
            assert oracle._inverse_table(left) == index.column_table(inverse)


def test_determinant_is_multiplicative():
    """GL enumeration keeps the matrices of nonzero determinant, so mat_det
    must be the determinant: multiplicative, and 1 on the identity.  Checked
    on a fixed pseudo-random sample of pairs for every tiny field, n <= 3."""
    for q in (2, 3, 4, 5, 7, 9, 25, 49):
        F = tiny_field(q)
        for n in (1, 2, 3):
            assert mat_det(F, mat_identity(n), n) == 1
            rng = random.Random(f"{q},{n}")
            for _ in range(200):
                a = tuple(rng.randrange(q) for _ in range(n * n))
                b = tuple(rng.randrange(q) for _ in range(n * n))
                want = F.mul[mat_det(F, a, n) * q + mat_det(F, b, n)]
                assert mat_det(F, mat_mul(F, a, b, n), n) == want


def test_gl_enumeration_order_check_catches_a_wrong_determinant(monkeypatch):
    """A determinant that calls one singular matrix invertible adds it to
    GL_2(3), and the order check refuses the enumeration."""
    real = oracle.mat_det
    singular = (1, 2, 2, 1)
    assert real(tiny_field(3), singular, 2) == 0
    monkeypatch.setattr(
        oracle, "mat_det", lambda F, a, n: 1 if a == singular else real(F, a, n)
    )
    with pytest.raises(InvariantViolationError, match="expected 48"):
        enumerate_matrix_group("GL", 2, 3)


def test_group_order_formulas():
    assert group_order("GL", 2, 5) == 480
    assert group_order("SL", 2, 5) == 120
    assert group_order("GU", 2, 2) == 18
    assert group_order("GL", 2, 3) == 48
    assert group_order("SU", 2, 3) == 24
    assert group_order("GU", 3, 2) == 648
    assert group_order("GL", 3, 2) == 168


def test_enumeration_matches_order():
    for kind, n, q in [("GL", 2, 3), ("SL", 2, 5), ("GU", 2, 2), ("SU", 2, 3), ("GL", 1, 7)]:
        F, elems = enumerate_matrix_group(kind, n, q)
        assert len(elems) == group_order(kind, n, q)
        assert len(set(elems)) == len(elems)


def test_su_is_det_one_inside_gu():
    F, gu = enumerate_matrix_group("GU", 2, 3)
    _, su = enumerate_matrix_group("SU", 2, 3)
    filtered = [x for x in gu if mat_det(F, x, 2) == 1]
    assert sorted(filtered) == sorted(su)


def test_enumeration_refuses_out_of_scope():
    with pytest.raises(UnsupportedModeError):
        enumerate_matrix_group("GL", 3, 5)
    with pytest.raises(UnsupportedModeError):
        enumerate_matrix_group("GL", 4, 2)
    with pytest.raises(UnsupportedModeError):
        enumerate_matrix_group("GU", 2, 4)


def test_element_order_basics():
    F, elems = enumerate_matrix_group("SL", 2, 3)
    eye = mat_identity(2)
    assert element_order(F, 2, eye) == 1
    order = len(elems)
    for x in elems[:8]:
        assert order % element_order(F, 2, x) == 0


def test_class_counts_known():
    for kind, n, q, classes in [("GL", 2, 3, 8), ("SL", 2, 5, 9), ("GU", 2, 2, 9), ("GL", 2, 5, 24)]:
        F, elems = enumerate_matrix_group(kind, n, q)
        index = ElementIndex(F, n, elems, f"{kind}_{n}({q})")
        reps = conjugacy_class_reps(index, generating_set(index))
        assert len(reps) == classes


def test_conjugacy_reps_are_deterministic():
    F, elems = enumerate_matrix_group("GU", 2, 2)
    index = ElementIndex(F, 2, elems, "GU_2(2)")
    first = conjugacy_class_reps(index, generating_set(index))
    again = ElementIndex(F, 2, elems, "GU_2(2)")
    second = conjugacy_class_reps(again, generating_set(again))
    assert first == second


def lexicographic_generating_set(index: ElementIndex) -> list:
    """Reference greedy generating set: the elements scanned in enumeration
    order, each one not yet in the closure joining it."""
    rows, by_rows, elements = index.rows, index.by_rows, index.elements
    q, n = index.F.q, index.n
    inside = bytearray(len(rows))
    members = [by_rows[tuple(q ** (n - 1 - i) for i in range(n))]]
    inside[members[0]] = 1
    gens: list = []
    tables: list[list[int]] = []
    for x in range(len(rows)):
        if inside[x]:
            continue
        gens.append(elements[x])
        tables.append(index.row_table(elements[x]))
        frontier, step = members, tables[-1:]
        while frontier:
            fresh = []
            for y in frontier:
                for table in step:
                    z = by_rows[tuple(map(table.__getitem__, rows[y]))]
                    if not inside[z]:
                        inside[z] = 1
                        fresh.append(z)
            members.extend(fresh)
            frontier, step = fresh, tables
    assert len(members) == len(rows)
    return gens


def _in_cap_groups(n: int):
    """Every (kind, n, q) the oracle enumerates at this n."""
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 49):
        for kind in ("GL", "SL", "GU", "SU"):
            try:
                oracle._field_in_scope(kind, n, q)
            except UnsupportedModeError:
                continue
            yield kind, n, q


def test_class_reps_do_not_depend_on_the_generating_set():
    """The representatives are the first element of each class in
    enumeration order, so the strided generating set gives those of the
    reference lexicographic one: checked on every in-cap group with n <= 2
    and on six n = 3 groups.  The oracle-n3 groups keep their short sets;
    the lexicographic scan took 4, 4, 5, 5, 3, 5 (26) generators."""
    groups = [g for n in (1, 2) for g in _in_cap_groups(n)]
    assert len(groups) == 44
    groups += [(kind, 3, 2) for kind in ("GL", "SL", "GU", "SU")]
    groups += [("GL", 3, 3), ("SL", 3, 3)]
    counts = {}
    for kind, n, q in groups:
        F, elems = enumerate_matrix_group(kind, n, q)
        index = ElementIndex(F, n, elems, f"{kind}_{n}({q})")
        gens = generating_set(index)
        counts[kind, n, q] = len(gens)
        want = conjugacy_class_reps(index, lexicographic_generating_set(index))
        assert conjugacy_class_reps(index, gens) == want, (kind, n, q)
    assert max(counts.values()) == 3
    oracle_n3 = [
        counts[g]
        for g in (("GL", 3, 3), ("SL", 3, 3), ("GU", 3, 2), ("SU", 3, 2), ("GL", 2, 7), ("GU", 2, 7))
    ]
    assert oracle_n3 == [2, 2, 2, 3, 3, 2]


def pairwise_enumerate_gu(F: TinyField, n: int) -> list[tuple[int, ...]]:
    """Reference frame search: each depth keeps the candidates whose
    Hermitian product with the column just chosen is zero, one product per
    pair."""
    frob = F.frob
    vectors = itertools.product(range(F.q), repeat=n)
    unit = [v for v in vectors if oracle._herm(F, [frob[x] for x in v], v) == 1]
    out: list[tuple[int, ...]] = []
    cols: list[tuple[int, ...]] = []

    def extend(candidates) -> None:
        if len(cols) == n - 1:
            out.extend(
                tuple(itertools.chain.from_iterable(zip(*cols, v))) for v in candidates
            )
            return
        for v in candidates:
            v_bar = [frob[x] for x in v]
            cols.append(v)
            extend([u for u in candidates if oracle._herm(F, v_bar, u) == 0])
            cols.pop()

    extend(unit)
    return out


def test_gu_frames_match_the_pairwise_reference(monkeypatch):
    """_enumerate_gu lists the frames of the pairwise reference in the same
    order on all 10 in-cap GU groups, and takes one Hermitian product per
    vector of F_q^n (its norm), none per pair of unit vectors."""
    groups = [(n, q) for n in (1, 2, 3) for kind, _, q in _in_cap_groups(n) if kind == "GU"]
    assert groups == [(n, q) for n in (1, 2) for q in (2, 3, 5, 7)] + [(3, 2), (3, 3)]
    real = oracle._herm
    calls = []

    def counted(F, u_bar, v):
        calls.append(1)
        return real(F, u_bar, v)

    for n, q in groups:
        F = tiny_field(q * q)
        want = pairwise_enumerate_gu(F, n)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_herm", counted)
            calls.clear()
            assert oracle._enumerate_gu(F, n) == want, (n, q)
        assert len(calls) == F.q**n
        assert len(want) == group_order("GU", n, q)


def test_a_short_element_list_raises_naming_the_missing_product():
    """With one element left out of the list, the list is not the group,
    and the oracle raises naming the missing element, where a silent skip
    would count classes wrongly.  Left out with its transpose listed, the
    index raises when it is built; left out a symmetric, non-central
    element, some product of listed elements is the missing one, and the
    closure and the conjugation search both raise and name it."""
    F, elems = enumerate_matrix_group("GL", 2, 3)
    index = ElementIndex(F, 2, elems, "GL_2(3)")
    gens = generating_set(index)

    def message(a):
        return re.escape(f"GL_2(3): the product {a} is not among the 47 elements")

    assert _transposed(elems[5], 2) != elems[5]
    with pytest.raises(InvariantViolationError, match=message(elems[5])):
        ElementIndex(F, 2, elems[:5] + elems[6:], "GL_2(3)")
    k = next(
        k
        for k, a in enumerate(elems)
        if a == _transposed(a, 2) and a != (a[0], 0, 0, a[0])
    )
    short = ElementIndex(F, 2, elems[:k] + elems[k + 1 :], "GL_2(3)")
    with pytest.raises(InvariantViolationError, match=message(elems[k])):
        generating_set(short)
    with pytest.raises(InvariantViolationError, match=message(elems[k])):
        conjugacy_class_reps(short, gens)
    for i, a in enumerate(elems):
        columns = index.rows[index.transpose[i]]
        for codes, by_rows in ((index.rows[i], True), (columns, False)):
            assert f"product {a} is" in str(index.missing(codes, by_rows))


def ell_regular_class_count(F: TinyField, n: int, elements, ell: int) -> tuple[int, int]:
    """Uncached reference: (class count, count of classes whose
    representative has order prime to ell), from the elements given."""
    index = ElementIndex(F, n, elements, "reference")
    reps = conjugacy_class_reps(index, generating_set(index))
    orders = [element_order(F, n, r) for r in reps]
    return len(orders), sum(1 for k in orders if k % ell != 0)


def test_regular_class_counts_known():
    cases = {
        ("GL", 2, 5, 3): (24, 16),
        ("SL", 2, 5, 3): (9, 7),
        ("GU", 2, 2, 5): (9, 9),
        ("GL", 3, 2, 3): (6, 5),
    }
    for (kind, n, q, ell), expected in cases.items():
        F, elems = enumerate_matrix_group(kind, n, q)
        assert ell_regular_class_count(F, n, elems, ell) == expected


def test_cross_check_named_instances():
    gl = cross_check("GL", 2, 5, 3)
    assert gl["pass"] and gl["engine_count"] == 16 and gl["ell_regular"] == 16
    assert gl["order"] == 480 and gl["classes"] == 24
    sl = cross_check("SL", 2, 5, 3)
    assert sl["pass"] and sl["engine_count"] == 7
    gu = cross_check("GU", 2, 2, 5)
    assert gu["pass"] and gu["engine_count"] == 9
    assert gu["group"] == "GU_2(2)"


def test_cross_check_more_instances():
    assert cross_check("SU", 2, 2, 5)["engine_count"] == 3
    assert cross_check("SU", 2, 3, 5)["engine_count"] == 7
    assert cross_check("SU", 2, 2, 3)["engine_count"] == 2
    assert cross_check("GL", 3, 2, 3)["engine_count"] == 5
    assert cross_check("GU", 3, 2, 3)["engine_count"] == 3


def test_class_profile_memo_cannot_change_a_record():
    """cross_check reads each group's class profile from a per-process memo;
    its records equal those built from a fresh enumeration for every ell.
    SL_2(5) after GL_2(5) would read a memo keyed on (n, q) alone."""
    compared = 0
    for kind, n, q in (("GL", 2, 5), ("SL", 2, 5), ("SU", 2, 3), ("GL", 3, 2)):
        F, elems = enumerate_matrix_group(kind, n, q)
        p = tiny_field(q).p
        for ell in (2, 3, 5, 7):
            if ell == p:
                continue
            try:
                record = cross_check(kind, n, q, ell)
            except UnsupportedModeError:
                continue
            classes, regular = ell_regular_class_count(F, n, elems, ell)
            engine = record["engine_count"]
            assert record == {
                "group": f"{kind}_{n}({q})",
                "ell": ell,
                "order": len(elems),
                "classes": classes,
                "ell_regular": regular,
                "engine_count": engine,
                "pass": engine == regular,
            }
            compared += 1
    assert compared == 10


def test_cross_check_refusals():
    with pytest.raises(UnsupportedModeError):
        cross_check("SL", 2, 5, 2)
    with pytest.raises(UnsupportedModeError):
        cross_check("SL", 2, 3, 2)
    with pytest.raises(ConfigurationError):
        cross_check("GL", 2, 5, 5)
    refused = run_instance(make_params(3, 4, 1, 3)).totals["sl_refused"]
    with pytest.raises(UnsupportedModeError) as info:
        cross_check("SL", 3, 4, 3)
    assert str(info.value) == refused == "ell divides gcd(n, q-eps)"


def test_cross_check_refuses_before_the_engine(monkeypatch):
    """Requests beyond the oracle's n, cap or fields, and SL/SU instances
    that sl_refusal does not admit, fail fast: neither the engine nor the
    matrix side runs."""

    def ran(*args, **kwargs):
        raise AssertionError("cross_check ran before refusing")

    monkeypatch.setattr(oracle, "run_instance", ran)
    monkeypatch.setattr(oracle, "class_profile", ran)
    for case in (
        ("GL", 6, 9, 7),
        ("GL", 3, 5, 3),
        ("GL", 2, 8, 3),
        ("GU", 2, 4, 3),
        ("SL", 3, 4, 3),
        ("SU", 2, 3, 2),
    ):
        with pytest.raises(UnsupportedModeError):
            cross_check(*case)


def test_cross_check_engine_count_is_the_run_instance_total(monkeypatch):
    """On the n <= 2 grid the engine count is the run_instance total, and it
    equals the count from the symbols themselves: all of them for GL/GU, the
    sum of kappa over center orbit representatives for SL/SU.  The matrix
    side is stubbed out at the per-group profile and at its scope check,
    which refuses the fields without a table (q = 8; GU over q = 4, 8, 9),
    so no stub reaches the memo; the tests above check it."""
    monkeypatch.setattr(oracle, "class_profile", lambda kind, n, q: (0, ()))
    monkeypatch.setattr(oracle, "_field_in_scope", lambda kind, n, q: None)
    compared = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        p = prime_power_decomposition(q)[0]
        for ell in (2, 3, 5, 7):
            if ell == p:
                continue
            for kind, eps in (("GL", 1), ("SL", 1), ("GU", -1), ("SU", -1)):
                for n in (1, 2):
                    params = make_params(n, q, eps, ell)
                    totals = run_instance(params).totals
                    symbols = enumerate_admissible_symbols(params)
                    if kind in ("GL", "GU"):
                        want = totals["total_symbols"]
                        assert want == len(symbols)
                    elif totals["sl_refused"] is not None:
                        with pytest.raises(UnsupportedModeError):
                            cross_check(kind, n, q, ell)
                        continue
                    else:
                        want = totals["sl_total_ibr"]
                        zs = center_elements(params).elements
                        assert want == sum(
                            kappa(s, params)
                            for s in symbols
                            if min(z_act(z, s, params) for z in zs) == s
                        )
                    assert cross_check(kind, n, q, ell)["engine_count"] == want
                    compared += 1
    assert compared == 152
