import collections
import dataclasses
import itertools
import math

import pytest

from blockweights import semisimple, symbols, verify
from blockweights.arith import e_gamma, make_params, prime_power_decomposition
from blockweights.errors import DomainError, InvariantViolationError, UnsupportedModeError
from blockweights.partitions import (
    count_with_core,
    distinct_cores,
    enumerate_with_core,
    series_mul,
    series_pow,
)
from blockweights.semisimple import (
    IDENTITY,
    FrobeniusOrbit,
    RootLabel,
    center_act,
    center_elements,
    enumerate_ellprime_orbits,
    orbit_of,
    root_label,
)
from blockweights.weights import (
    CoreFunction,
    count_core_functions,
    enumerate_core_functions,
)
from blockweights.symbols import (
    AdmissibleSymbol,
    BlockSymbol,
    WeightSymbol,
    _stabilizer,
    admissible_symbol,
    block_counts,
    block_of,
    block_symbol,
    enumerate_block_symbols,
    from_weight_symbol,
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

from helpers import (
    REFERENCE_INSTANCES,
    center_cycles,
    clear_symbol_caches,
    enumerate_admissible_symbols,
    orbit_slots,
    reference_block_stabilizers,
    reference_walk,
    suborbit,
    unipotent_blocks,
)

P25, PU22 = REFERENCE_INSTANCES[:2]

# The instances the kernel is compared with the label-level reference on.
KERNEL_INSTANCES = REFERENCE_INSTANCES + (make_params(n=4, q=9, eps=-1, ell=7),)


def orbit_and_stabilizer(sym, params):
    """Reference: center orbit (sorted) and stabilizer order of any symbol
    type, from z_act at every center element."""
    center = center_elements(params)
    orbit = tuple(sorted({z_act(z, sym, params) for z in center.elements}))
    stab, rem = divmod(center.order, len(orbit))
    assert rem == 0
    return orbit, stab


def block_suborbit_set(orbit, m, lam, params):
    """Reference: the constraint suborbit of one block entry, which may be
    empty, with its size e_gamma(deg) * deg / e checked."""
    step = symbols._suborbit_step(orbit.size, m, sum(lam), params)
    if step is None:
        return ()
    sub = suborbit(orbit.rep, step, params.eq)
    expected, rem = divmod(e_gamma(orbit.size, params) * orbit.size, params.e)
    assert rem == 0 and len(sub) == expected
    return sub


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


def reference_key(label):
    """Reference: the (orbit representative, rest) key of a label, which
    orders labels by the representatives of their orbits first."""
    if isinstance(label, AdmissibleSymbol):
        return tuple((orb.rep, mu) for orb, mu in label.pairs)
    if isinstance(label, BlockSymbol):
        return tuple((orb.rep, (m, lam)) for orb, m, lam in label.triples)
    return tuple(
        (orb.rep, (m, lam, func.entries)) for orb, m, lam, func in label.tuples
    )


def slot_lists(block, params):
    """Reference: per slot of a block, its partitions and its core functions."""
    table = params.e_gamma_table
    mus, funcs = [], []
    for orbit, m, lam in block.triples:
        e = table[orbit.size - 1]
        mus.append(enumerate_with_core(m, e, lam))
        funcs.append(enumerate_core_functions(e, (m - sum(lam)) // e, params.ell))
    return mus, funcs


def reference_block_c1(blocks, params):
    """Reference: the block-level center scan.  Yields, per block, C1
    without the identity and whether the block is the first of its center
    orbit among those passed.  The first block of each orbit is acted on by
    every nontrivial central element; the other members are kept with its
    C1 until they come."""
    zs_rest = center_elements(params).elements[1:]
    pending = {}
    for block in blocks:
        is_rep = block not in pending
        if is_rep:
            c1_rest = []
            for z in zs_rest:
                acted = z_act(z, block, params)
                if acted == block:
                    c1_rest.append(z)
                else:
                    pending[acted] = c1_rest
        else:
            c1_rest = pending.pop(block)
        yield tuple(c1_rest), is_rep


def reference_block_counts(blocks, params):
    """Reference: the label-level kernel.  On every block it enumerates,
    relabels and round-trips every symbol, takes C1 from the block-level
    center scan and kappa_b from the constraint suborbit sets of
    block_c1_c2, and at the first block of each center orbit it checks
    equivariance by label, whatever the block's C1."""
    table = params.e_gamma_table
    zs_rest = center_elements(params).elements[1:]
    blocks = tuple(blocks)
    for block, (c1_rest, is_rep) in zip(blocks, reference_block_c1(blocks, params)):
        failed = set()
        nsym = nwt = 1
        for orbit, m, lam in block.triples:
            e = table[orbit.size - 1]
            nsym *= count_with_core(m, e, lam)
            nwt *= count_core_functions(e, (m - sum(lam)) // e, params.ell)
        if nsym != nwt:
            failed.add("gl_blockwise_awc")
        kappa_b = 1
        if c1_rest:
            _, c2 = block_c1_c2(block, params)
            kappa_b += sum(z in c2 for z in c1_rest)

        wt_list = weight_symbols_in_block(block, params)
        if len(wt_list) != nwt:
            failed.add("counts_match")
        wt_stab = {}
        wt_sq_sum = 0
        for w in wt_list:
            stab = wt_stab[w] = _stabilizer(w, c1_rest, params)
            wt_sq_sum += stab * stab
            if stab % kappa_b:
                failed.add("kappa_divisibility")

        sym_list = symbols_in_block(block, params)
        if len(sym_list) != nsym:
            failed.add("counts_match")
        stab_sq_sum = 0
        for s in sym_list:
            stab = _stabilizer(s, c1_rest, params)
            stab_sq_sum += stab * stab
            if stab % kappa_b:
                failed.add("kappa_divisibility")
            image = to_weight_symbol(s, params)
            if from_weight_symbol(image, params) != s:
                failed.add("bijection_roundtrip")
            image_stab = wt_stab.get(image)
            if image_stab is None:
                failed.add("bijection_block_preserved")
            elif image_stab != stab:
                failed.add("bijection_kappa_preserved")
            if is_rep and any(
                z_act(z, image, params) != to_weight_symbol(z_act(z, s, params), params)
                for z in zs_rest
            ):
                failed.add("bijection_equivariant")

        per_sl_block = (1 + len(c1_rest)) * kappa_b
        sl_ibr, ibr_rem = divmod(stab_sq_sum, per_sl_block)
        sl_weights, wt_rem = divmod(wt_sq_sum, per_sl_block)
        if ibr_rem or wt_rem or sl_ibr != sl_weights:
            failed.add("sl_blockwise_awc")
        yield symbols.BlockCounts(
            block, nsym, nwt, kappa_b, 1 + len(c1_rest), sl_ibr, sl_weights, stab_sq_sum,
            tuple(sorted(failed)),
        )


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
    weight_symbol([base + (CoreFunction((((0, 1, 1), (1,)),)),)], P25)
    with pytest.raises(DomainError):
        weight_symbol([base + (CoreFunction((((0, 1, 1), (2,)),)),)], P25)
    with pytest.raises(DomainError):
        weight_symbol([base + (CoreFunction(()),)], P25)
    # Core functions of the right weighted size that are not canonical: a
    # repeated slot, and two slots out of order.
    p45 = make_params(n=4, q=5, eps=1, ell=3)
    base = (orbit_of(IDENTITY, p45), 4, ())
    for entries in (
        (((0, 1, 1), (1,)), ((0, 1, 1), (1,))),
        (((0, 2, 1), (1,)), ((0, 1, 1), (1,))),
    ):
        with pytest.raises(DomainError):
            weight_symbol([base + (CoreFunction(entries),)], p45)
        with pytest.raises(DomainError):
            from_weight_symbol(WeightSymbol((base + (CoreFunction(entries),),)), p45)


@pytest.mark.parametrize("num, den", [(1, 2), (2, 4), (0, 1), (0, 2)])
def test_constructors_take_reduced_representatives_only(num, den):
    """An orbit representative is canonical only as a reduced fraction, the
    identity as 0/1: 2/4 and 0/2 are least in their twist orbits at
    n=1 q=5 eps=+1 ell=3 (every orbit has size 1), yet the three label
    constructors refuse them and take 1/2 and 0/1."""
    params = make_params(n=1, q=5, eps=1, ell=3)
    rep = FrobeniusOrbit(RootLabel(den, num), 1)
    build = (
        lambda: admissible_symbol([(rep, (1,))], params),
        lambda: block_symbol([(rep, 1, (1,))], params),
        lambda: weight_symbol([(rep, 1, (1,), CoreFunction(()))], params),
    )
    if math.gcd(num, den) == 1:
        for constructor in build:
            constructor()
    else:
        for constructor in build:
            with pytest.raises(DomainError, match="canonical orbit"):
                constructor()


def is_unipotent_block(block: BlockSymbol) -> bool:
    """True when every orbit of the block is the identity orbit."""
    return all(orb.rep == IDENTITY for orb, _, _ in block.triples)


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


def test_unipotent_blocks_are_the_filtered_enumeration():
    """The unipotent blocks, walked over the identity orbit alone, are the
    identity-orbit blocks of the full enumeration, in the same order, on
    every n <= 4 grid instance."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for ell in (2, 3, 5, 7):
            if ell == prime_power_decomposition(q)[0]:
                continue
            for eps in (1, -1):
                for n in (1, 2, 3, 4):
                    params = make_params(n=n, q=q, eps=eps, ell=ell)
                    filtered = tuple(
                        b for b in enumerate_block_symbols(params)
                        if is_unipotent_block(b)
                    )
                    assert unipotent_blocks(params) == filtered


def test_block_enumeration_n1():
    assert len(enumerate_block_symbols(make_params(n=1, q=5, eps=1, ell=3))) == 4


def block_count(params):
    """The number of blocks, counted without enumerating them: the
    coefficient of x**n in the product over degrees d of F_d(x)**N_d, where
    N_d orbits have degree d and F_d = 1 + sum_m |distinct_cores(m, e_d)|
    x**(d m).  A block picks, for each orbit, a multiplicity m >= 0 and, if
    m > 0, one of the e_d-cores of partitions of m."""
    n = params.n
    degrees = collections.Counter(orb.size for orb in enumerate_ellprime_orbits(params))
    total = [1] + [0] * n
    for d, orbits in degrees.items():
        factor = [0] * (n + 1)
        for m in range(n // d + 1):
            factor[d * m] = len(distinct_cores(m, e_gamma(d, params)))
        total = series_mul(total, series_pow(factor, orbits, n), n)
    return total[n]


def test_block_enumeration_is_complete_sorted_and_valid():
    """The enumerated blocks are as many as the generating function counts,
    strictly increasing, and (for n <= 3) each is a valid block symbol."""
    instances = [
        make_params(n=n, q=q, eps=eps, ell=ell)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for ell in (2, 3, 5, 7)
        if ell != prime_power_decomposition(q)[0]
        for eps in (1, -1)
        for n in (1, 2, 3, 4)
    ] + [make_params(n=5, q=9, eps=-1, ell=7)]
    for params in instances:
        blocks = enumerate_block_symbols(params)
        assert len(blocks) == block_count(params), params
        assert all(a < b for a, b in zip(blocks, blocks[1:])), params
        if params.n <= 3:
            for b in blocks:
                assert block_symbol(b.triples, params) == b


def test_block_count_of_the_largest_instances():
    """The counts of the two largest n = 6 instances (606,320 and 81,403
    blocks, which run_instance reports), with no enumeration."""
    assert block_count(make_params(n=6, q=9, eps=-1, ell=7)) == 606320
    assert block_count(make_params(n=6, q=8, eps=1, ell=3)) == 81403


def test_blocks_partition_the_symbols():
    for params in (P25, PU22, make_params(n=3, q=3, eps=1, ell=2)):
        blocks = enumerate_block_symbols(params)
        symbols = enumerate_admissible_symbols(params)
        seen = []
        for b in blocks:
            members = symbols_in_block(b, params)
            expected = 1
            for orbit, m, lam in b.triples:
                expected *= count_with_core(m, e_gamma(orbit.size, params), lam)
            assert len(members) == expected
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


def test_label_order_is_the_reference_key_order():
    """Labels sort and compare equal as their reference keys: the orbits of
    an instance have distinct representatives, so comparing two labels
    compares those representatives first.  Enumeration order, and with it
    the report order, rests on this."""
    for params in REFERENCE_INSTANCES:
        reps = [o.rep for o in enumerate_ellprime_orbits(params)]
        assert len(set(reps)) == len(reps)
        blocks = enumerate_block_symbols(params)
        symbols_ = [s for b in blocks for s in symbols_in_block(b, params)]
        weights = [w for b in blocks for w in weight_symbols_in_block(b, params)]
        for labels in (list(blocks), symbols_, weights):
            given = labels[::-1]
            assert sorted(given) == sorted(given, key=reference_key)
            pairs = {(label, reference_key(label)) for label in labels}
            assert len(pairs) == len(set(labels)) == len(
                {reference_key(label) for label in labels}
            )


def test_z_act_is_a_group_action_on_symbols():
    """On admissible, block and weight symbols; block_counts relies on it to
    lift equivariance from one symbol per center orbit to every symbol."""
    for params in REFERENCE_INSTANCES:
        zs = center_elements(params).elements
        for b in enumerate_block_symbols(params):
            labels = (b,) + symbols_in_block(b, params) + weight_symbols_in_block(b, params)
            for s in labels:
                assert z_act(zs[0], s, params) == s
                for z1 in zs:
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
    assert set(block_suborbit_set(o5, 1, (), plus)) == set(suborbit(o5.rep, 1, plus.eq))
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
    """The kernel's stabilizer orders, |C1|, kappa_b and SL sums equal those
    of the full z_act orbits, summed once per orbit, and of C1 and C2; its
    squared stabilizer sums, over the center order, count stabilizers once
    per center orbit, and kappa_b |C1| over the center order counts kappa_b
    once per center orbit of blocks.
    The kernel runs over the sorted block list of the instance and on each
    block alone."""
    assert [center_elements(p).order for p in REFERENCE_INSTANCES] == [4, 3, 5, 10, 2]
    shared_orbits = 0
    for params in REFERENCE_INSTANCES:
        zs_rest = center_elements(params).elements[1:]
        rep_stab_total = 0
        stab_sq_total = 0
        rep_kappa_total = 0
        covered_total = 0
        blocks = enumerate_block_symbols(params)
        swept = dict(zip(blocks, block_counts(blocks, params)))
        for b in blocks:
            orbit, stab = orbit_and_stabilizer(b, params)
            assert _stabilizer(b, zs_rest, params) == stab
            c1, c2 = block_c1_c2(b, params)
            kappa_b = len(set(c1) & set(c2))
            sums = []
            stab_sq_sum = 0
            for members in (symbols_in_block, weight_symbols_in_block):
                per_orbit = {}
                labels = members(b, params)
                for s in labels:
                    s_orbit, s_stab = orbit_and_stabilizer(s, params)
                    assert _stabilizer(s, zs_rest, params) == s_stab
                    per_orbit[s_orbit[0]] = s_stab
                    if members is symbols_in_block:
                        stab_sq_sum += s_stab * s_stab
                        if s_orbit[0] == s:
                            rep_stab_total += s_stab
                shared_orbits += len(per_orbit) < len(labels)
                assert all(n % kappa_b == 0 for n in per_orbit.values())
                sums.append(sum(n // kappa_b for n in per_orbit.values()))
            (alone,) = block_counts((b,), params)
            for counts in (alone, swept[b]):
                assert counts.block == b
                assert counts.c1_order == len(c1) == stab
                assert counts.kappa_b == kappa_b
                assert [counts.sl_ibr, counts.sl_weights] == sums
                assert counts.stab_sq_sum == stab_sq_sum
                assert not counts.failed
            stab_sq_total += swept[b].stab_sq_sum
            covered_total += swept[b].kappa_b * swept[b].c1_order
            if orbit[0] == b:
                rep_kappa_total += kappa_b
        order = center_elements(params).order
        assert divmod(stab_sq_total, order) == (rep_stab_total, 0)
        assert divmod(covered_total, order) == (rep_kappa_total, 0)
    assert shared_orbits


def test_block_counts_follow_the_input_order_and_subset():
    """Whatever the order or subset of blocks passed, each block gets the
    record of the sorted sweep, with the stabilizer map of the instance
    built before or after the blocks come."""
    for params in REFERENCE_INSTANCES:
        blocks = enumerate_block_symbols(params)
        unipotent = unipotent_blocks(params)
        clear_symbol_caches()
        assert list(block_counts(unipotent, params)) == list(
            block_counts(unipotent[::-1], params)
        )[::-1]
        swept = {counts.block: counts for counts in block_counts(blocks, params)}
        for given in (blocks[::-1], blocks[1::2], blocks[-1:], unipotent):
            results = list(block_counts(given, params))
            assert results == [swept[b] for b in given]
        for b in blocks:
            clear_symbol_caches()
            (alone,) = block_counts((b,), params)
            assert alone == swept[b]


def test_block_walk_skips_a_budget_with_no_candidate():
    """Two items of weight 2 leave budgets 1 and 3 with no candidate, as the
    <1/r>-cycles of the fixed-block pass can: an odd n yields nothing and
    raises no IndexError, and n = 4 yields exactly the sorted blocks, each
    with the record of its slots folded."""
    slots = [(2, 5), (2, 5)]
    assert list(symbols._walk_blocks(["a", "b"], slots, 3, 7)) == []
    assert list(symbols._walk_blocks(["a", "b"], slots, 5, 7)) == []
    walked = list(symbols._walk_blocks(["a", "b"], slots, 4, 7))
    assert [triples for triples, _ in walked] == [
        (("a", 1, (1,)), ("b", 1, (1,))),
        (("a", 2, (1, 1)),),
        (("a", 2, (2,)),),
        (("b", 2, (1, 1)),),
        (("b", 2, (2,)),),
    ]
    for triples, record in walked:
        folded = symbols._NO_SLOT
        for _, m, lam in triples:
            folded = symbols._fold(folded, symbols._slot_counts(m, 5, lam, 7))
        assert record == folded


def _assert_walks_match_the_reference(params, monkeypatch):
    """The orbit walk, the unipotent walk and every <1/r>-cycle walk of the
    fixed-block pass of one instance yield the triples of the reference
    walk, in its order, with equal records."""
    cycle_walks = []
    real_walk = symbols._walk_blocks

    def spy(items, slots, n, ell):
        cycle_walks.append((items, slots, n, ell))
        return real_walk(items, slots, n, ell)

    orbits = enumerate_ellprime_orbits(params)
    for items in (orbits, (symbols.IDENTITY_ORBIT,)):
        walked = list(symbols._orbit_walk(items, params))
        slots = orbit_slots(items, params)
        assert walked == list(reference_walk(items, slots, params.n, params.ell))
    monkeypatch.setattr(symbols, "_walk_blocks", spy)
    clear_symbol_caches()
    symbols._block_stabilizers(params)
    monkeypatch.undo()
    clear_symbol_caches()
    for args in cycle_walks:
        assert list(symbols._walk_blocks(*args)) == list(reference_walk(*args))
    return len(cycle_walks)


def test_block_walk_matches_the_reference_walk(monkeypatch):
    """On every n <= 5 grid instance the bottom-up block walk yields what
    the recursive reference walk yields, in the same order, with equal
    records: over the orbits, over the identity orbit alone, and over the
    <1/r>-cycles of the fixed-block pass, of which some instance has one."""
    cycle_walks = 0
    for params in grid_params((1, 2, 3, 4, 5)):
        cycle_walks += _assert_walks_match_the_reference(params, monkeypatch)
    assert cycle_walks


@pytest.mark.slow
def test_block_walk_matches_the_reference_walk_at_n6(monkeypatch):
    """The same on every n = 6 grid instance."""
    for params in grid_params((6,)):
        _assert_walks_match_the_reference(params, monkeypatch)


def test_block_walk_builds_no_block_before_the_first(plant):
    """Taking the first block of the n = 5 q = 9 walk folds at most once
    per tail, a tuple of size below n, and once for the block, under a
    quarter of the 75,720 folds of the whole walk: the walk lists its tails
    but yields each block as it builds it."""
    params = make_params(n=5, q=9, eps=-1, ell=7)
    orbits = enumerate_ellprime_orbits(params)
    slots = orbit_slots(orbits, params)
    tails = sum(
        sum(1 for _ in reference_walk(orbits, slots, b, params.ell))
        for b in range(1, params.n)
    )
    folds = 0
    real_fold = symbols._fold

    def counting_fold(record, slot):
        nonlocal folds
        folds += 1
        return real_fold(record, slot)

    plant(symbols, "_fold", counting_fold)
    walk = symbols._walk_blocks(orbits, slots, params.n, params.ell)
    first, _ = next(walk)
    assert 0 < folds <= tails + 1 < 75720 // 4
    assert first == enumerate_block_symbols(params)[0].triples


def test_fixed_block_pass_finds_every_nontrivial_stabilizer():
    """The fixed-block pass maps exactly the blocks with C1 != 1 to C1
    without the identity, as the brute-force z_act scan of block_c1_c2
    finds them; none is unipotent.  At order 4 (P25) the element 1/2 of
    prime order does not generate the center, and the blocks with C1 of
    order 2 are found through it."""
    for params in REFERENCE_INSTANCES:
        brute = {}
        for b in enumerate_block_symbols(params):
            c1, _ = block_c1_c2(b, params)
            if len(c1) > 1:
                brute[b] = c1[1:]
        assert symbols._block_stabilizers(params) == brute
        assert not brute.keys() & set(unipotent_blocks(params))
    found = symbols._block_stabilizers(P25)
    assert found and set(found.values()) == {(root_label(1, 2),)}


def grid_params(ns):
    for q in (2, 3, 4, 5, 7, 8, 9):
        for ell in (2, 3, 5, 7):
            if ell == prime_power_decomposition(q)[0]:
                continue
            for eps in (1, -1):
                for n in ns:
                    yield make_params(n=n, q=q, eps=eps, ell=ell)


@pytest.mark.slow
def test_fixed_block_pass_satisfies_burnside():
    """Burnside's lemma on every n <= 5 grid instance: (1/|Z|) sum_z |Fix(z)|
    is the number of center orbits of blocks.  Fix(1) holds every block, and
    the pass counts each other z at the blocks it fixes; the orbits are
    counted by the block-level reference scan."""
    nontrivial = 0
    for params in grid_params((1, 2, 3, 4, 5)):
        blocks = enumerate_block_symbols(params)
        stabilizers = symbols._block_stabilizers(params)
        fixed = len(blocks) + sum(len(c1_rest) for c1_rest in stabilizers.values())
        orbit_count = sum(is_rep for _, is_rep in reference_block_c1(blocks, params))
        assert divmod(fixed, center_elements(params).order) == (orbit_count, 0)
        nontrivial += bool(stabilizers)
    assert nontrivial


@pytest.mark.slow
def test_fixed_block_pass_matches_the_center_cycle_walk(monkeypatch):
    """On every n <= 6 grid instance: s(N) of each orbit is |Z| over the
    length of its center cycle, walked by the reference; the stabilizer map
    is the reference's, which walks every center cycle and scans C1 at
    every central element; and the pass translates only orbits of degree at
    most n / r that 1/r moves, so none of degree above n / 2."""
    translated = []
    real_translate = symbols.translate_orbit

    def spy(z, orbit, eq):
        translated.append((z, orbit))
        return real_translate(z, orbit, eq)

    monkeypatch.setattr(symbols, "translate_orbit", spy)
    nontrivial = 0
    for params in grid_params((1, 2, 3, 4, 5, 6)):
        order = center_elements(params).order
        cycles = center_cycles(params)
        for orb, cycle in cycles.items():
            den = orb.rep.den
            stab = symbols._center_stabilizer_order(den, params.eq, order)
            assert stab * len(cycle) == order
        translated.clear()
        clear_symbol_caches()
        found = symbols._block_stabilizers(params)
        assert found == reference_block_stabilizers(params)
        for z, orbit in translated:
            assert z.num == 1 and orbit.size * z.den <= params.n
            assert order // z.den % len(cycles[orbit])
        nontrivial += bool(translated)
    assert nontrivial


def test_center_stabilizer_order_counts_the_z_fixing_each_suborbit():
    """The identity the kernel reads C2 from, on every twist orbit of every
    n <= 4 grid instance and every step d in 1..n: with N the denominator
    of the orbit, _center_stabilizer_order(N, eq**d mod N, |Z|) is the
    number of central z that map the reference suborbit(rep, d, eq) set
    onto itself, a set of deg / gcd(d, deg) elements, deg the degree."""
    cases = proper = 0
    for params in grid_params((1, 2, 3, 4)):
        eq = params.eq
        center = center_elements(params)
        for orb in enumerate_ellprime_orbits(params):
            den = orb.rep.den
            for d in range(1, params.n + 1):
                sub = frozenset(suborbit(orb.rep, d, eq))
                size = orb.size // math.gcd(d, orb.size)
                assert len(sub) == size
                fixing = sum(
                    frozenset(center_act(z, x) for x in sub) == sub
                    for z in center.elements
                )
                u = pow(eq, d, den)
                stab = symbols._center_stabilizer_order(den, u, center.order)
                assert stab == fixing
                cases += 1
                proper += 1 < fixing < center.order
    assert cases == 42136 and proper


def test_a_block_that_z_act_does_not_fix_raises(plant):
    """The fixed-block pass builds every block of its map from
    <1/r>-cycles, so 1/r must fix it: a z_act that moves every block symbol
    makes run_instance raise."""
    params = make_params(n=2, q=9, eps=-1, ell=7)
    assert symbols._block_stabilizers(params)
    real_z_act = symbols.z_act

    def moves_blocks(z, sym, params):
        if isinstance(sym, BlockSymbol):
            return BlockSymbol(())
        return real_z_act(z, sym, params)

    plant(symbols, "z_act", moves_blocks)
    with pytest.raises(InvariantViolationError, match="does not fix block"):
        run_instance(params)


def test_planted_size_changing_translate_raises(monkeypatch):
    """A translate that changes the size of an orbit that the fixed-block
    pass walks, of degree at most n / r and moved by 1/r, makes run_instance
    raise.  The pass translates no orbit of larger degree, so the same fault
    planted on one goes unseen there; the twist-fixed center stands in for
    a size check at those (test_a_center_not_fixed_by_the_twist_raises)."""
    params = make_params(n=2, q=9, eps=-1, ell=7)
    walked = semisimple.translate_orbit(
        root_label(1, 2), symbols.IDENTITY_ORBIT, params.eq
    )
    unwalked = enumerate_ellprime_orbits(params)[-1]
    assert (walked.size, unwalked.size) == (1, 2)
    real_translate = semisimple.translate_orbit
    planted = []

    def wrong_size(z, orbit, eq):
        image = real_translate(z, orbit, eq)
        if image in planted:
            return image._replace(size=image.size + 1)
        return image

    monkeypatch.setattr(symbols, "translate_orbit", wrong_size)
    planted.append(unwalked)
    clear_symbol_caches()
    assert run_instance(params).all_passed
    planted.append(walked)
    clear_symbol_caches()
    with pytest.raises(InvariantViolationError, match="changed orbit size"):
        run_instance(params)
    monkeypatch.undo()
    clear_symbol_caches()
    assert run_instance(params).all_passed


def test_a_center_not_fixed_by_the_twist_raises(plant):
    """A center whose order does not divide eq - 1 breaks the identity that
    stands in for a size check at every orbit: the kernel and the
    fixed-block pass raise, on a full and on a unipotent-only run."""
    params = make_params(n=2, q=9, eps=-1, ell=7)
    assert (params.eq - 1) % 3
    plant(
        symbols,
        "center_elements",
        lambda params: semisimple.CenterGroup(
            3, (IDENTITY, root_label(1, 3), root_label(2, 3))
        ),
    )
    for run in (
        lambda: run_instance(params),
        lambda: run_instance(params, unipotent_only=True),
        lambda: symbols._block_stabilizers(params),
    ):
        with pytest.raises(InvariantViolationError, match="not fixed by the twist"):
            run()


@pytest.mark.slow
def test_run_instance_rows_are_the_block_counts_records():
    """On every n <= 5 grid instance the rows of run_instance, whose GL
    records the block walk carries, are the records block_counts folds for
    the enumerated blocks, plain and unipotent_only."""
    for params in grid_params((1, 2, 3, 4, 5)):
        blocks = enumerate_block_symbols(params)
        assert run_instance(params).rows == tuple(block_counts(blocks, params))
        unipotent = tuple(b for b in blocks if is_unipotent_block(b))
        assert run_instance(params, unipotent_only=True).rows == tuple(
            block_counts(unipotent, params)
        )


def test_walk_fold_sees_a_slot_record_off_by_one(plant):
    """One slot record whose symbol list is one longer than its partitions,
    planted in the fold of the block walk, fails counts_match in
    run_instance on exactly the blocks that carry that slot; block_counts,
    which folds with the same step, finds the same rows."""
    orbit, m, lam = PLANT_BLOCKS[1].triples[0]
    target = symbols._slot_counts(m, e_gamma(orbit.size, P25), lam, P25.ell)
    real_fold = symbols._fold

    def off_by_one(record, slot):
        nsym, nwt, listed_sym, listed_wt, failed = real_fold(record, slot)
        if slot == target:
            listed_sym += 1
        return nsym, nwt, listed_sym, listed_wt, failed

    assert run_instance(P25).checks["counts_match"]
    plant(symbols, "_fold", off_by_one)
    report = run_instance(P25)
    assert report.checks["counts_match"] is False
    bad = {row.block for row in report.rows if "counts_match" in row.failed}
    assert bad == {
        row.block
        for row in report.rows
        if any(
            symbols._slot_counts(m, e_gamma(o.size, P25), lam, P25.ell) == target
            for o, m, lam in row.block.triples
        )
    }
    assert PLANT_BLOCKS[1] in bad
    assert report.rows == tuple(block_counts(enumerate_block_symbols(P25), P25))


def test_kernel_c1_is_read_at_every_fixed_block():
    """On every n <= 5 grid instance with a nontrivial center, each row's
    c1_order is one more than its entry in the stabilizer map, so no block
    of the map is skipped by the first-orbit filter of the kernel."""
    fixed = 0
    for params in grid_params((1, 2, 3, 4, 5)):
        if center_elements(params).order == 1:
            continue
        stabilizers = symbols._block_stabilizers(params)
        for row in run_instance(params).rows:
            assert row.c1_order == 1 + len(stabilizers.get(row.block, ()))
        fixed += len(stabilizers)
    assert fixed


def test_listed_counts_that_differ_fail_on_a_block_with_trivial_c1(plant):
    """A block with C1 = 1 whose symbol list is planted one longer than its
    weight list fails counts_match and sl_blockwise_awc, alone and in
    run_instance: its per-SL-block counts are the two list lengths."""
    block = PLANT_BLOCKS[0]
    ((orbit, m, lam),) = block.triples
    target = symbols._slot_counts(m, e_gamma(orbit.size, P25), lam, P25.ell)
    real_fold = symbols._fold

    def off_by_one(record, slot):
        nsym, nwt, listed_sym, listed_wt, failed = real_fold(record, slot)
        if slot == target:
            listed_sym += 1
        return nsym, nwt, listed_sym, listed_wt, failed

    (clean,) = block_counts((block,), P25)
    assert clean.c1_order == 1 and not clean.failed
    plant(symbols, "_fold", off_by_one)
    (counts,) = block_counts((block,), P25)
    assert counts.failed == ("counts_match", "sl_blockwise_awc")
    assert (counts.sl_ibr, counts.sl_weights) == (clean.sl_ibr + 1, clean.sl_weights)
    checks = run_instance(P25).checks
    assert checks["counts_match"] is False and checks["sl_blockwise_awc"] is False


def test_block_counts_equal_the_label_level_reference():
    """The slot kernel yields the records of the label-level reference on
    every block of the kernel instances, in the sorted sweep and on the
    reversed block list."""
    for params in KERNEL_INSTANCES:
        blocks = enumerate_block_symbols(params)
        for given in (blocks, blocks[::-1]):
            assert list(block_counts(given, params)) == list(
                reference_block_counts(given, params)
            )


def test_labels_of_a_block_are_slot_products():
    """Product lemma: the symbols and the weight symbols of a block are the
    sorted Cartesian products of its per-slot partition and core-function
    lists."""
    for params in KERNEL_INSTANCES:
        for b in enumerate_block_symbols(params):
            mus, funcs = slot_lists(b, params)
            symbols_ = sorted(
                AdmissibleSymbol(
                    tuple((orbit, mu) for (orbit, _, _), mu in zip(b.triples, combo))
                )
                for combo in itertools.product(*mus)
            )
            weights = sorted(
                WeightSymbol(
                    tuple(
                        (orbit, m, lam, func)
                        for (orbit, m, lam), func in zip(b.triples, combo)
                    )
                )
                for combo in itertools.product(*funcs)
            )
            assert list(symbols_in_block(b, params)) == symbols_
            assert list(weight_symbols_in_block(b, params)) == weights


def test_to_weight_symbol_is_entry_by_entry():
    """Product lemma: to_weight_symbol and from_weight_symbol relabel each
    entry by _weight_data and _brauer_partition, keep its orbit and read it
    only through e_gamma of its size."""
    for params in KERNEL_INSTANCES:
        ell = params.ell
        for b in enumerate_block_symbols(params):
            for s in symbols_in_block(b, params):
                w = WeightSymbol(
                    tuple(
                        (orbit, *symbols._weight_data(mu, e_gamma(orbit.size, params), ell))
                        for orbit, mu in s.pairs
                    )
                )
                assert to_weight_symbol(s, params) == w
                back = AdmissibleSymbol(
                    tuple(
                        (
                            orbit,
                            symbols._brauer_partition(
                                m, lam, func.entries, e_gamma(orbit.size, params), ell
                            ),
                        )
                        for orbit, m, lam, func in w.tuples
                    )
                )
                assert from_weight_symbol(w, params) == back == s


def test_to_weight_symbol_commutes_with_z_act():
    """The equivariance the kernel proves where C1 = 1, checked at every
    central element and every symbol of every block, not only at the blocks
    the kernel scans."""
    for params in KERNEL_INSTANCES:
        zs = center_elements(params).elements
        for b in enumerate_block_symbols(params):
            for s in symbols_in_block(b, params):
                image = to_weight_symbol(s, params)
                for z in zs:
                    assert to_weight_symbol(z_act(z, s, params), params) == z_act(
                        z, image, params
                    )


def test_kappa_divisibility_sees_a_planted_stabilizer(monkeypatch):
    """Dropping every constraint suborbit makes C2 = Z and kappa_b = |C1|,
    which exceeds the stabilizer of a center orbit meeting a block in two
    labels; the kernel, run_instance and sl_block_report all report it."""
    params = make_params(n=4, q=5, eps=-1, ell=3)
    assert run_instance(params).checks["kappa_divisibility"]
    monkeypatch.setattr(symbols, "_suborbit_step", lambda *args: None)
    bad = [
        counts
        for counts in block_counts(enumerate_block_symbols(params), params)
        if "kappa_divisibility" in counts.failed
    ]
    assert bad
    assert run_instance(params).checks["kappa_divisibility"] is False
    with pytest.raises(InvariantViolationError):
        sl_block_report(bad[0].block, params)


def test_equivariance_check_sees_every_central_element(monkeypatch):
    """A center action on weight symbols that ignores one element of order 5
    breaks equivariance; the check scans all of Z, not only C1."""
    params = make_params(n=2, q=9, eps=-1, ell=7)
    z5 = root_label(1, 5)
    assert z5 in center_elements(params).elements
    assert run_instance(params).checks["bijection_equivariant"]
    real_z_act = symbols.z_act

    def faulty_z_act(z, sym, params):
        if z == z5 and isinstance(sym, WeightSymbol):
            return sym
        return real_z_act(z, sym, params)

    monkeypatch.setattr(symbols, "z_act", faulty_z_act)
    assert run_instance(params).checks["bijection_equivariant"] is False


@pytest.fixture
def plant(monkeypatch):
    """monkeypatch.setattr that drops the symbol caches after planting and
    after undoing: _slot_counts keeps what the code under it returned."""

    def setattr_(*args):
        monkeypatch.setattr(*args)
        clear_symbol_caches()

    yield setattr_
    monkeypatch.undo()
    clear_symbol_caches()


# Blocks of P25 whose stabilizer C1 in the center has order 1 and 2.
PLANT_BLOCKS = (
    block_symbol([(orb(0, 1), 2, ())], P25),
    block_symbol([(orb(1, 4), 1, (1,)), (orb(3, 4), 1, (1,))], P25),
)


def gl_fault(check, block, params):
    """(name in symbols, fake) of a fault the GL check guards against,
    planted where the kernel reads."""
    if check == "bijection_roundtrip":
        # The first partition of the block's first slot comes back wrong.
        real_brauer = symbols._brauer_partition
        orbit, m, lam = block.triples[0]
        target = enumerate_with_core(m, e_gamma(orbit.size, params), lam)[0]

        def wrong_partition(m, lam, entries, e, ell):
            mu = real_brauer(m, lam, entries, e, ell)
            return (m + 1,) if mu == target else mu

        return "_brauer_partition", wrong_partition
    if check == "bijection_block_preserved":
        # A slot past the e components, so in no core-function list.
        real_weight_data = symbols._weight_data

        def unlisted_function(mu, e, ell):
            m, lam, func = real_weight_data(mu, e, ell)
            return m, lam, CoreFunction(func.entries + (((0, e + 1, 1), (1,)),))

        return "_weight_data", unlisted_function
    if check == "counts_match":
        real_with_core = symbols.enumerate_with_core
        return "enumerate_with_core", lambda m, e, lam: real_with_core(m, e, lam)[:-1]
    assert check == "gl_blockwise_awc"
    real_count = symbols.count_core_functions
    return "count_core_functions", lambda h, w, ell: real_count(h, w, ell) + 1


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
def test_gl_check_sees_a_planted_fault(check, monkeypatch, plant):
    """Each GL check of the kernel turns False under a fault it guards
    against, planted where the kernel reads it: one partition of a slot that
    _brauer_partition does not bring back; core functions from _weight_data
    that lie in no slot list; slot partition lists one short of the closed
    form; a closed-form weight count one too high; weight symbols that look
    fixed by no central element.  The first four sit in the per-slot check
    and are seen on a block whose stabilizer C1 in the center is trivial
    and on one where it is not, each alone and in run_instance."""
    assert [len(block_c1_c2(b, P25)[0]) for b in PLANT_BLOCKS] == [1, 2]
    assert run_instance(P25).checks[check]
    if check == "bijection_kappa_preserved":
        real_z_act = symbols.z_act
        monkeypatch.setattr(
            symbols,
            "z_act",
            lambda z, sym, params: ()
            if isinstance(sym, WeightSymbol)
            else real_z_act(z, sym, params),
        )
        assert run_instance(P25).checks[check] is False
        return
    for block in PLANT_BLOCKS:
        (clean,) = block_counts((block,), P25)
        assert check not in clean.failed
        plant(symbols, *gl_fault(check, block, P25))
        (counts,) = block_counts((block,), P25)
        assert check in counts.failed
        assert run_instance(P25).checks[check] is False
        monkeypatch.undo()
        clear_symbol_caches()


def _rows_with_a_remainder(fault, real_walk_block_counts):
    """A stand-in for walk_block_counts that plants one fault in its rows: one
    more block orbit member, with kappa_b |C1| = 1 and no Brauer character,
    so that only kappa_b |C1| summed over the blocks leaves a remainder over
    the center order; or one more SL Brauer character on a block whose
    kappa_b |C1| is 1, so that only kappa_b sl_ibr |C1| summed does,
    while its quotient stays the squared stabilizer total's."""

    def walk_block_counts(orbits, params):
        rows = list(real_walk_block_counts(orbits, params))
        i = next(i for i, row in enumerate(rows) if row.kappa_b * row.c1_order == 1)
        row = rows[i]
        if fault == "one more block orbit member":
            rows.append(row._replace(ibr=0, weights=0, sl_ibr=0, sl_weights=0, stab_sq_sum=0))
        else:
            rows[i] = row._replace(sl_ibr=row.sl_ibr + 1, sl_weights=row.sl_weights + 1)
        yield from rows

    return walk_block_counts


@pytest.mark.parametrize(
    "check, fault",
    [
        ("sl_blockwise_awc", "weight stabilizers doubled"),
        ("sl_blockwise_awc", "every stabilizer 1"),
        ("sl_global_consistency", "center order doubled"),
        ("sl_global_consistency", "one more block orbit member"),
        ("sl_global_consistency", "one more SL Brauer character"),
    ],
)
def test_sl_check_sees_a_planted_fault(check, fault, monkeypatch):
    """Each SL count check turns False in run_instance under a fault it
    guards against: weight symbol stabilizers read twice their order, so
    each sl_weights is four times sl_ibr; every label looks fixed by no
    central element, so the squared stabilizer orders of a block whose
    stabilizer C1 has order 2 leave a remainder over |C1| kappa_b while
    sl_ibr == sl_weights; run_instance divides its three sums by twice the
    center order; or a remainder in one of the two sums that run_instance
    divides by the center order for sl_block_count and sl_total_ibr
    (_rows_with_a_remainder)."""
    real_stabilizer = symbols._stabilizer
    real_center = verify.center_elements
    faults = {
        "weight stabilizers doubled": (
            symbols,
            "_stabilizer",
            lambda sym, zs, params: real_stabilizer(sym, zs, params)
            * (2 if isinstance(sym, WeightSymbol) else 1),
        ),
        "every stabilizer 1": (symbols, "_stabilizer", lambda sym, zs, params: 1),
        "center order doubled": (
            verify,
            "center_elements",
            lambda params: dataclasses.replace(
                real_center(params), order=2 * real_center(params).order
            ),
        ),
    }
    for name in ("one more block orbit member", "one more SL Brauer character"):
        faults[name] = (
            verify,
            "walk_block_counts",
            _rows_with_a_remainder(name, verify.walk_block_counts),
        )
    assert run_instance(P25).checks[check]
    monkeypatch.setattr(*faults[fault])
    report = run_instance(P25)
    assert report.checks[check] is False
    if fault.startswith("one more"):
        assert [name for name, ok in report.checks.items() if not ok] == [check]


def test_weight_symbols_per_block_worked_instance():
    blocks = enumerate_block_symbols(P25)
    total = 0
    for b in blocks:
        ws = weight_symbols_in_block(b, P25)
        count = 1
        for orbit, m, lam in b.triples:
            e = e_gamma(orbit.size, P25)
            count *= count_core_functions(e, (m - sum(lam)) // e, P25.ell)
        assert len(ws) == count
        assert len(ws) == len(symbols_in_block(b, P25))
        total += count
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
            assert sorted(set(images)) == list(weight_symbols_in_block(b, params))
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
        report = sl_block_report(b, P25)
        assert report.block == b
        reports[label] = (report.kappa_b, report.sl_ibr, report.sl_weights)
    assert reports[(("0/1", 2, ()),)] == (1, 2, 2)
    assert reports[(("1/4", 1, (1,)), ("3/4", 1, (1,)))] == (2, 1, 1)
    assert reports[(("1/8", 1, ()),)] == (1, 2, 2)
    assert reports[(("0/1", 1, (1,)), ("1/2", 1, (1,)))] == (2, 1, 1)
    for _, sl_ibr, sl_weights in reports.values():
        assert sl_ibr == sl_weights


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
        block_count += report.kappa_b
        label_count += report.kappa_b * report.sl_ibr
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
