import pytest

from blockweights import symbols
from blockweights.arith import make_params
from blockweights.errors import DomainError, InvariantViolationError, UnsupportedModeError
from blockweights.semisimple import center_act, center_elements, orbit_of, root_label
from blockweights.weights import core_function
from blockweights.symbols import (
    AdmissibleSymbol,
    SlBlockReport,
    _acted_key,
    _center_orbit,
    admissible_symbol,
    block_counts,
    block_of,
    block_suborbit_set,
    block_symbol,
    count_symbols_in_block,
    count_weight_symbols_in_block,
    enumerate_admissible_symbols,
    enumerate_block_symbols,
    from_weight_symbol,
    is_unipotent_block,
    kappa,
    kappa_block,
    kappa_ell,
    kappa_ellprime,
    kappa_weight,
    sl_block_report,
    sl_refusal,
    symbols_in_block,
    to_weight_symbol,
    weight_symbol,
    weight_symbols_in_block,
    z_act,
)
from blockweights.verify import run_instance

P25 = make_params(n=2, q=5, eps=1, ell=3)
PU22 = make_params(n=2, q=2, eps=-1, ell=5)

# Centers of order 4, 3, 5, 10 and 2; in the last, some center orbits meet
# a block in more than one label.
REFERENCE_INSTANCES = (
    P25,
    PU22,
    make_params(n=3, q=4, eps=-1, ell=3),
    make_params(n=2, q=9, eps=-1, ell=7),
    make_params(n=4, q=5, eps=-1, ell=3),
)


def orbit_and_stabilizer(sym, params):
    """Reference: center orbit (sorted) and stabilizer order of any symbol
    type, from z_act at every center element."""
    center = center_elements(params)
    images = {}
    for z in center.elements:
        image = z_act(z, sym, params)
        images.setdefault(image.key(), image)
    orbit = tuple(sorted(images.values(), key=lambda t: t.key()))
    stab, rem = divmod(center.order, len(orbit))
    assert rem == 0
    return orbit, stab


def block_c1_c2(block, params):
    """Reference: setwise block stabilizer C1 and suborbit condition subgroup
    C2, from z_act and the constraint suborbit sets."""
    zs = center_elements(params).elements
    c1 = tuple(z for z in zs if z_act(z, block, params) == block)
    subs = [
        frozenset(block_suborbit_set(o, m, lam, params)) for o, m, lam in block.triples
    ]
    c2 = tuple(
        z
        for z in zs
        if all(frozenset(center_act(z, x) for x in sub) == sub for sub in subs)
    )
    return c1, c2


def orb(num, den, params=P25):
    return orbit_of(root_label(num, den), params)


def test_constructor_validates():
    admissible_symbol([(orb(0, 1), (2,))], P25)
    with pytest.raises(DomainError):
        admissible_symbol([(orb(0, 1), (1,))], P25)
    with pytest.raises(DomainError):
        admissible_symbol([(orb(0, 1), (1,)), (orb(0, 1), (1,))], P25)
    with pytest.raises(DomainError):
        admissible_symbol([(orb(0, 1), ())], P25)
    with pytest.raises(DomainError):
        admissible_symbol([(orb(1, 3), (1,))], P25)


def test_block_constructor_validates():
    block_symbol([(orb(0, 1), 2, ())], P25)
    with pytest.raises(DomainError):
        block_symbol([(orb(0, 1), 2, (2,))], P25)
    with pytest.raises(DomainError):
        block_symbol([(orb(0, 1), 2, (1,))], P25)
    with pytest.raises(DomainError):
        block_symbol([(orb(1, 8), 2, ())], P25)


def test_weight_constructor_validates():
    base = (orb(0, 1), 2, ())
    weight_symbol([base + (core_function([((0, 1, 1), (1,))]),)], P25)
    with pytest.raises(DomainError):
        weight_symbol([base + (core_function([((0, 1, 1), (2,))]),)], P25)
    with pytest.raises(DomainError):
        weight_symbol([base + (core_function(()),)], P25)


def test_block_enumeration_worked_instance():
    blocks = enumerate_block_symbols(P25)
    assert len(blocks) == 12
    assert len(set(blocks)) == 12
    shapes = sorted(
        (len(b.triples), tuple(sorted(o.size for o, _m, _lam in b.triples)))
        for b in blocks
    )
    assert shapes.count((1, (1,))) == 4
    assert shapes.count((1, (2,))) == 2
    assert shapes.count((2, (1, 1))) == 6
    unipotent = [b for b in blocks if is_unipotent_block(b)]
    assert len(unipotent) == 1
    assert unipotent[0].triples[0][1:] == (2, ())


def test_block_enumeration_n1():
    assert len(enumerate_block_symbols(make_params(n=1, q=5, eps=1, ell=3))) == 4


def test_blocks_partition_the_symbols():
    for params in (P25, PU22, make_params(n=3, q=3, eps=1, ell=2)):
        blocks = enumerate_block_symbols(params)
        symbols = enumerate_admissible_symbols(params)
        seen = []
        for b in blocks:
            members = symbols_in_block(b, params)
            assert len(members) == count_symbols_in_block(b, params)
            for s in members:
                assert block_of(s, params) == b
            seen.extend(members)
        assert sorted(seen) == list(symbols)
        assert len(set(seen)) == len(symbols)


def test_symbol_count_worked_instance():
    assert len(enumerate_admissible_symbols(P25)) == 16
    assert len(enumerate_admissible_symbols(PU22)) == 9


def test_block_of_known():
    s = admissible_symbol([(orb(0, 1), (2,))], P25)
    assert block_of(s, P25) == block_symbol([(orb(0, 1), 2, ())], P25)


def test_kappa_known_values():
    unipotent = admissible_symbol([(orb(0, 1), (2,))], P25)
    assert kappa_ellprime(unipotent, P25) == 1
    assert kappa(unipotent, P25) == 1
    paired = admissible_symbol([(orb(1, 4), (1,)), (orb(3, 4), (1,))], P25)
    assert kappa_ellprime(paired, P25) == 2
    assert kappa_ell(paired, P25) == 1
    assert kappa(paired, P25) == 2


def test_kappa_ell_known_value():
    params = make_params(n=3, q=4, eps=1, ell=3)
    s = admissible_symbol([(orbit_of(root_label(0, 1), params), (1, 1, 1))], params)
    assert kappa_ell(s, params) == 3
    assert kappa_ellprime(s, params) == 1
    assert kappa(s, params) == 3


def test_kappa_ell_is_one_when_gcd_is_ellprime():
    """On an instance sl_refusal admits, kappa_ell = 1, so the full kappa of
    every symbol is its center stabilizer order and that of its weight
    symbol; block_counts relies on it."""
    grid = tuple(
        make_params(n=n, q=q, eps=eps, ell=ell)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for ell in (2, 3, 5, 7)
        if q % ell
        for eps in (1, -1)
        for n in (1, 2, 3)
    )
    admitted = [p for p in REFERENCE_INSTANCES + grid if sl_refusal(p) is None]
    assert len(admitted) == 5 + 97
    for params in admitted:
        for s in enumerate_admissible_symbols(params):
            w = to_weight_symbol(s, params)
            assert kappa(s, params) == kappa_ellprime(s, params) == kappa_weight(w, params)


def test_orbit_and_stabilizer_known():
    unipotent = admissible_symbol([(orb(0, 1), (2,))], P25)
    o, stab = orbit_and_stabilizer(unipotent, P25)
    assert (len(o), stab) == (4, 1)
    paired = admissible_symbol([(orb(1, 4), (1,)), (orb(3, 4), (1,))], P25)
    o, stab = orbit_and_stabilizer(paired, P25)
    assert (len(o), stab) == (2, 2)
    assert o[0] == min(o)


def test_orbit_stabilizer_product():
    order = center_elements(P25).order
    for s in enumerate_admissible_symbols(P25):
        o, stab = orbit_and_stabilizer(s, P25)
        assert len(o) * stab == order
        assert stab == kappa_ellprime(s, P25)


def test_z_act_is_a_group_action_on_symbols():
    """On admissible, block and weight symbols; block_counts relies on it to
    lift equivariance from one symbol per center orbit to every symbol.  The
    key-level action _acted_key, which the kernel scans with and checks
    equivariance by, gives the key of z_act on every label."""
    for params in REFERENCE_INSTANCES:
        zs = center_elements(params).elements
        for b in enumerate_block_symbols(params):
            labels = (b,) + symbols_in_block(b, params) + weight_symbols_in_block(b, params)
            for s in labels:
                assert z_act(zs[0], s, params) == s
                for z1 in zs:
                    assert _acted_key(z1, s.key(), params.eq) == z_act(z1, s, params).key()
                    for z2 in zs:
                        z12 = root_label(z1.num * z2.den + z2.num * z1.den, z1.den * z2.den)
                        assert z_act(z1, z_act(z2, s, params), params) == z_act(z12, s, params)


def test_z_act_commutes_with_block_of():
    """Taking the block of a symbol or weight symbol commutes with z_act, so
    a central element fixing a label fixes its block."""
    for params in REFERENCE_INSTANCES:
        zs = center_elements(params).elements
        for b in enumerate_block_symbols(params):
            for z in zs:
                zb = z_act(z, b, params)
                for s in symbols_in_block(b, params):
                    assert block_of(z_act(z, s, params), params) == zb
                for w in weight_symbols_in_block(b, params):
                    assert tuple(t[:3] for t in z_act(z, w, params).tuples) == zb.triples


def test_block_suborbit_set_known():
    assert block_suborbit_set(orb(0, 1), 2, (), P25) == (root_label(0, 1),)
    assert block_suborbit_set(orb(0, 1), 1, (1,), P25) == ()
    assert block_suborbit_set(orb(1, 8), 1, (), P25) == (root_label(1, 8),)


def test_block_suborbit_set_ell_two_branches():
    plus = make_params(n=2, q=5, eps=1, ell=2)
    o5 = orbit_of(root_label(1, 3), plus)
    assert set(block_suborbit_set(o5, 1, (), plus)) == set(o5.elements)
    minus = make_params(n=2, q=3, eps=1, ell=2)
    o1 = orbit_of(root_label(0, 1), minus)
    assert block_suborbit_set(o1, 1, (), minus) == ()
    assert block_suborbit_set(o1, 2, (), minus) == (root_label(0, 1),)


def test_kappa_block_known():
    blocks = enumerate_block_symbols(P25)
    by_kappa = sorted(kappa_block(b, P25) for b in blocks)
    assert by_kappa == [1] * 10 + [2, 2]
    paired = block_symbol([(orb(1, 4), 1, (1,)), (orb(3, 4), 1, (1,))], P25)
    c1, c2 = block_c1_c2(paired, P25)
    assert len(c1) == 2
    assert len(c2) == center_elements(P25).order
    assert kappa_block(paired, P25) == 2
    deg2 = block_symbol([(orb(1, 8), 1, ())], P25)
    assert kappa_block(deg2, P25) == 1


def test_kappa_block_agrees_with_c1_c2():
    for params in REFERENCE_INSTANCES:
        for b in enumerate_block_symbols(params):
            c1, c2 = block_c1_c2(b, params)
            assert kappa_block(b, params) == len(set(c1) & set(c2))


def test_block_counts_match_reference_orbits():
    """The kernel's stabilizer orders, least keys, kappa_b and SL sums equal
    those of the full z_act orbits and of C1 and C2; its squared stabilizer
    sums, over the center order, count stabilizers once per center orbit."""
    assert [center_elements(p).order for p in REFERENCE_INSTANCES] == [4, 3, 5, 10, 2]
    shared_orbits = 0
    for params in REFERENCE_INSTANCES:
        zs_rest = center_elements(params).elements[1:]
        rep_stab_total = 0
        stab_sq_total = 0
        for b in enumerate_block_symbols(params):
            orbit, stab = orbit_and_stabilizer(b, params)
            _, fixing, least = _center_orbit(b, zs_rest, params.eq)
            assert (1 + len(fixing), least) == (stab, orbit[0].key())
            c1, c2 = block_c1_c2(b, params)
            kappa_b = len(set(c1) & set(c2))
            sums = []
            stab_sq_sum = 0
            for members in (symbols_in_block, weight_symbols_in_block):
                per_orbit = {}
                labels = members(b, params)
                for s in labels:
                    s_orbit, s_stab = orbit_and_stabilizer(s, params)
                    own, fixing, least = _center_orbit(s, zs_rest, params.eq)
                    assert (own, 1 + len(fixing), least) == (
                        s.key(),
                        s_stab,
                        s_orbit[0].key(),
                    )
                    per_orbit[s_orbit[0]] = s_stab
                    if members is symbols_in_block:
                        stab_sq_sum += s_stab * s_stab
                        if s_orbit[0] == s:
                            rep_stab_total += s_stab
                shared_orbits += len(per_orbit) < len(labels)
                assert all(n % kappa_b == 0 for n in per_orbit.values())
                sums.append(sum(n // kappa_b for n in per_orbit.values()))
            (counts,) = block_counts((b,), params)
            assert counts.kappa_b == kappa_b
            assert counts.is_rep == (orbit[0] == b)
            assert [counts.sl_ibr, counts.sl_weights] == sums
            assert counts.stab_sq_sum == stab_sq_sum
            stab_sq_total += counts.stab_sq_sum
            assert not counts.failed
        assert divmod(stab_sq_total, center_elements(params).order) == (
            rep_stab_total,
            0,
        )
    assert shared_orbits


def test_kappa_divisibility_sees_a_planted_stabilizer(monkeypatch):
    """Counting every element of C1 in C2 makes kappa_b = |C1|, which exceeds
    the stabilizer of a center orbit meeting a block in two labels; the
    kernel, run_instance and sl_block_report all report it."""
    params = make_params(n=4, q=5, eps=-1, ell=3)
    assert run_instance(params).checks["kappa_divisibility"]
    monkeypatch.setattr(symbols, "_z_fixes_cycle", lambda *args: True)
    bad = [
        counts
        for counts in block_counts(enumerate_block_symbols(params), params)
        if "kappa_divisibility" in counts.failed
    ]
    assert bad
    assert run_instance(params).checks["kappa_divisibility"] is False
    with pytest.raises(InvariantViolationError):
        sl_block_report(bad[0].block, params)


def weight_keys(params):
    """The keys of every weight symbol of an instance."""
    return {
        w.key()
        for b in enumerate_block_symbols(params)
        for w in weight_symbols_in_block(b, params)
    }


def test_equivariance_check_sees_every_central_element(monkeypatch):
    """A center action on weight symbol keys that ignores one element of
    order 5 breaks equivariance; the check scans all of Z, not only C1."""
    params = make_params(n=2, q=9, eps=-1, ell=7)
    z5 = root_label(1, 5)
    assert z5 in center_elements(params).elements
    assert run_instance(params).checks["bijection_equivariant"]
    real_acted_key = symbols._acted_key
    weights = weight_keys(params)

    def faulty_acted_key(z, key, eq):
        if z == z5 and key in weights:
            return key
        return real_acted_key(z, key, eq)

    monkeypatch.setattr(symbols, "_acted_key", faulty_acted_key)
    assert run_instance(params).checks["bijection_equivariant"] is False


@pytest.mark.parametrize(
    "check",
    [
        "bijection_roundtrip",
        "bijection_block_preserved",
        "bijection_kappa_preserved",
        "counts_match",
        "gl_blockwise_awc",
    ],
)
def test_gl_check_sees_a_planted_fault(check, monkeypatch):
    """Each GL check of the kernel turns False in run_instance under a fault
    it guards against: two symbols of a block sent to one weight symbol; a
    weight list that repeats one weight symbol and misses another, so an
    image is no weight symbol of its block; weight symbols that look fixed
    by no central element; a symbol list one short of the closed form; a
    closed-form weight count one too high."""
    unipotent = block_symbol([(orb(0, 1), 2, ())], P25)
    first, second = symbols_in_block(unipotent, P25)
    real_to = symbols.to_weight_symbol
    real_weights = symbols.weight_symbols_in_block
    real_symbols = symbols.symbols_in_block
    real_count = symbols.count_weight_symbols_in_block
    real_acted_key = symbols._acted_key
    weights = weight_keys(P25)
    faults = {
        "bijection_roundtrip": (
            "to_weight_symbol",
            lambda s, params: real_to(first if s == second else s, params),
        ),
        "bijection_block_preserved": (
            "weight_symbols_in_block",
            lambda b, params: real_weights(b, params)[:1]
            + real_weights(b, params)[:-1],
        ),
        "bijection_kappa_preserved": (
            "_acted_key",
            lambda z, key, eq: () if key in weights else real_acted_key(z, key, eq),
        ),
        "counts_match": (
            "symbols_in_block",
            lambda b, params: real_symbols(b, params)[:-1],
        ),
        "gl_blockwise_awc": (
            "count_weight_symbols_in_block",
            lambda b, params: real_count(b, params) + 1,
        ),
    }
    assert run_instance(P25).checks[check]
    monkeypatch.setattr(symbols, *faults[check])
    assert run_instance(P25).checks[check] is False


def test_weight_symbols_per_block_worked_instance():
    blocks = enumerate_block_symbols(P25)
    for b in blocks:
        ws = weight_symbols_in_block(b, P25)
        assert len(ws) == count_weight_symbols_in_block(b, P25)
        assert len(ws) == len(symbols_in_block(b, P25))
    total = sum(count_weight_symbols_in_block(b, P25) for b in blocks)
    assert total == 16


def test_kappa_weight_known():
    unipotent_block = block_symbol([(orb(0, 1), 2, ())], P25)
    for w in weight_symbols_in_block(unipotent_block, P25):
        assert kappa_weight(w, P25) == 1
    paired = block_symbol([(orb(1, 4), 1, (1,)), (orb(3, 4), 1, (1,))], P25)
    ws = weight_symbols_in_block(paired, P25)
    assert len(ws) == 1
    assert kappa_weight(ws[0], P25) == 2


def test_bijection_worked_example():
    s = admissible_symbol([(orb(0, 1), (2,))], P25)
    w = to_weight_symbol(s, P25)
    orbit, m, lam, func = w.tuples[0]
    assert (orbit.rep, m, lam) == (root_label(0, 1), 2, ())
    assert len(func.entries) == 1
    (slot, core), = func.entries
    assert slot[0] == 0 and core == (1,)
    assert from_weight_symbol(w, P25) == s


def test_bijection_round_trip_and_kappa():
    for params in (P25, PU22, make_params(n=3, q=3, eps=-1, ell=2)):
        for b in enumerate_block_symbols(params):
            images = []
            for s in symbols_in_block(b, params):
                w = to_weight_symbol(s, params)
                assert from_weight_symbol(w, params) == s
                assert tuple(t[:3] for t in w.tuples) == b.triples
                assert kappa_ellprime(s, params) == kappa_weight(w, params)
                images.append(w)
            assert sorted(set(images), key=lambda w: w.key()) == list(weight_symbols_in_block(b, params))
        for w in (w for b in enumerate_block_symbols(params) for w in weight_symbols_in_block(b, params)):
            assert to_weight_symbol(from_weight_symbol(w, params), params) == w


def test_bijection_is_equivariant():
    zs = center_elements(P25).elements
    for s in enumerate_admissible_symbols(P25):
        image = to_weight_symbol(s, P25)
        for z in zs:
            assert to_weight_symbol(z_act(z, s, P25), P25) == z_act(z, image, P25)


def test_sl_reports_worked_instance():
    reports = {}
    for b in enumerate_block_symbols(P25):
        label = tuple((str(o.rep), m, lam) for o, m, lam in b.triples)
        reports[label] = sl_block_report(b, P25)
    assert reports[(("0/1", 2, ()),)] == SlBlockReport(1, 2, 2)
    assert reports[(("1/4", 1, (1,)), ("3/4", 1, (1,)))] == SlBlockReport(2, 1, 1)
    assert reports[(("1/8", 1, ()),)] == SlBlockReport(1, 2, 2)
    assert reports[(("0/1", 1, (1,)), ("1/2", 1, (1,)))] == SlBlockReport(2, 1, 1)
    for report in reports.values():
        assert report.ibr_per_block == report.weights_per_block


def test_sl_totals_worked_instance():
    """Block-orbit reps weighted by covered count give the 5 blocks and 7 labels."""
    zs = center_elements(P25).elements
    blocks = enumerate_block_symbols(P25)
    block_count = 0
    label_count = 0
    for b in blocks:
        if min(z_act(z, b, P25) for z in zs) != b:
            continue
        report = sl_block_report(b, P25)
        block_count += report.covered
        label_count += report.covered * report.ibr_per_block
    assert block_count == 5
    assert label_count == 7


def test_sl_report_refuses_ell_two():
    params = make_params(n=2, q=5, eps=1, ell=2)
    block = enumerate_block_symbols(params)[0]
    with pytest.raises(UnsupportedModeError):
        sl_block_report(block, params)


def test_sl_report_refuses_center_divisor():
    params = make_params(n=3, q=4, eps=1, ell=3)
    block = enumerate_block_symbols(params)[0]
    with pytest.raises(UnsupportedModeError):
        sl_block_report(block, params)


def test_su_symbol_side_count():
    """Sum of kappa over symbol-orbit reps, the SU_2(2) Brauer label count."""
    zs = center_elements(PU22).elements
    total = 0
    for s in enumerate_admissible_symbols(PU22):
        if min(z_act(z, s, PU22) for z in zs) == s:
            total += kappa(s, PU22)
    assert total == 3
