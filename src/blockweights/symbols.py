"""Brauer character, block, and weight labels with center actions and counts.

An admissible symbol pairs finitely many distinct twist orbits with nonempty
partitions, with sizes weighted by orbit degree summing to n; it labels one
irreducible ell-Brauer character of GL_n(eps q).  Replacing each partition by
its size, core, and either nothing (block symbols, labelling ell-blocks) or a
core function on slots (weight symbols, labelling conjugacy classes of
weights) gives the two compressed label families.  The ell'-part of the
center acts on all three by translating orbits; stabilizer orders drive the
SL-level restriction counts.

The center acts on all three label types by one function, z_act.  A label
holds a sorted tuple of entries whose first item is a canonical orbit, and
distinct canonical orbits have distinct representatives, so labels compare,
sort and hash as their own keys, orbit representative first; z_act
translates the orbit of each entry and re-sorts.

Each quantity of the descent to SL_n(eps q) is implemented here, once:
sl_refusal decides whether the SL counts cover an instance; _stabilizer
gives the stabilizer order of a label under a given set of central
elements (kappa_ellprime, kappa_weight use the whole center); the per-block
kernel gives kappa_b = |C1 intersect C2|, the per-SL-block restriction sums
with their divisibility and the bijection checks.  A center stabilizer has
two rules: a label's or a block's is found by the z_act scan, and that of
an orbit of roots, a twist orbit or a constraint suborbit, by arithmetic
on its denominator (_center_stabilizer_order).  block_counts runs it on
any blocks (kappa_block, sl_block_report read it for one), and
walk_block_counts on the blocks of the block walk, for verify.run_instance.

The labels of a block are products over its slots (orbit, m, core), so the
GL side is counted once per slot shape, and every GL check is decided there
(_slot_counts) and nowhere else: a block's GL record, its two counts and its
failed names, is the fold (_fold) of its slots' records.  The block walk
_walk_blocks builds bottom up: it lists once the sorted tuples of each size
below n, the tails, with their records, and builds each block as one first
triple followed by a tail over later orbits, folding that triple into the
tail's record; the blocks themselves are yielded as they are built, each
with its record.  block_counts folds the slots of a block it is given with
the same step.  A central element outside the block stabilizer C1 moves
every label of a block into another block, so where C1 is trivial every
label stabilizer is 1, the kernel builds no label and its per-SL-block
counts are the list lengths; it scans the labels of the other blocks under
C1 only, and looks a block up in the stabilizer map only when its first
orbit begins a block of the map.  Every sum over orbits is counted by
orbit-stabilizer: a label with stabilizer order k lies in an orbit of
|G| / k labels, so summing k^2 / |G| over all labels adds k once per
orbit.  Per block G is C1, whose orbits are where the center orbits meet
the block, and the sums are the per-SL-block counts; over the blocks of an
instance G is the center, and the symbol sum is the number of Brauer
characters of SL_n(eps q).

The center Z acts on orbits by translation, which commutes with the twist
because |Z| divides eq - 1 (_twist_fixed_center checks it), so it keeps
orbit sizes.  It acts on a block only where it fixes it.  Z is cyclic, so
C1 != 1 exactly when the element 1/r of some prime order r fixes the block,
and such a block is a union of <1/r>-cycles of orbits with one (m, core)
along each cycle.  The stabilizer of an orbit in Z depends on its
denominator alone, so _block_stabilizers finds the orbits 1/r fixes once
per denominator, walks the <1/r>-cycles of the few orbits of degree at
most n / r that it moves, runs the block walk over those cycles, and scans
C1 on the blocks it yields by z_act at every nontrivial central element;
every other block has C1 = 1, so a block's record does not depend on the
other blocks passed.  C2, the subgroup fixing every constraint suborbit of
a block, is the subgroup of the gcd of the suborbits' stabilizer orders,
so kappa_b counts the z in C1 whose order divides that gcd.  Over the
blocks of an instance the SL totals are counted by orbit-stabilizer as
well: a block orbit has |Z| / |C1| members.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

from .arith import InstanceParams, e_gamma, ell_part, mult_order, prime_factors
from .errors import DomainError, InvariantViolationError, UnsupportedModeError
from .partitions import (
    Partition,
    as_partition,
    core_tower,
    count_with_core,
    delta,
    distinct_cores,
    e_core,
    e_quotient,
    enumerate_with_core,
    from_core_quotient,
    is_e_core,
    tower_to_partition,
    transpose,
)
from .semisimple import (
    FrobeniusOrbit,
    IDENTITY,
    RootLabel,
    act_on_orbit,
    center_elements,
    enumerate_ellprime_orbits,
    translate_orbit,
    twist_orbit,
)
from .weights import (
    CoreFunction,
    count_core_functions,
    enumerate_core_functions,
    validate_core_function,
)


class AdmissibleSymbol(NamedTuple):
    """Pairs (orbit, partition); labels one irreducible Brauer character."""

    pairs: tuple[tuple[FrobeniusOrbit, Partition], ...]


class BlockSymbol(NamedTuple):
    """Triples (orbit, multiplicity, core); labels one ell-block."""

    triples: tuple[tuple[FrobeniusOrbit, int, Partition], ...]


class WeightSymbol(NamedTuple):
    """Tuples (orbit, multiplicity, core, core function); a weight class."""

    tuples: tuple[tuple[FrobeniusOrbit, int, Partition, CoreFunction], ...]


def _validate_orbit(orbit: FrobeniusOrbit, params: InstanceParams) -> None:
    den = orbit.rep.den
    if den % params.p == 0 or math.gcd(den, params.ell) != 1:
        raise DomainError(f"orbit denominator {den} is not prime to p*ell")
    # Canonical: a reduced fraction, the least element of its twist orbit.
    if math.gcd(*orbit.rep) != 1 or twist_orbit(orbit.rep, params.eq) != orbit:
        raise DomainError(f"{orbit.rep} does not represent a canonical orbit")


def _check_distinct_sorted(keys) -> None:
    for a, b in zip(keys, keys[1:]):
        if a >= b:
            raise DomainError("orbits in a symbol must be pairwise distinct")


def admissible_symbol(pairs, params: InstanceParams) -> AdmissibleSymbol:
    """Validate, canonicalize, and build an admissible symbol."""
    canon = tuple(sorted((orb, as_partition(mu)) for orb, mu in pairs))
    _check_distinct_sorted([orb.rep for orb, _ in canon])
    total = 0
    for orb, mu in canon:
        _validate_orbit(orb, params)
        if not mu:
            raise DomainError("pairs with empty partitions are not stored")
        total += orb.size * sum(mu)
    if total != params.n:
        raise DomainError(f"symbol has size {total}, expected n = {params.n}")
    return AdmissibleSymbol(canon)


def block_symbol(triples, params: InstanceParams) -> BlockSymbol:
    """Validate, canonicalize, and build a block symbol."""
    canon = tuple(
        sorted((orb, int(m), as_partition(lam)) for orb, m, lam in triples)
    )
    _check_distinct_sorted([orb.rep for orb, _, _ in canon])
    total = 0
    for orb, m, lam in canon:
        _validate_orbit(orb, params)
        if m < 1:
            raise DomainError(f"multiplicity must be positive, got {m}")
        ei = e_gamma(orb.size, params)
        if not is_e_core(lam, ei):
            raise DomainError(f"{lam} is not an {ei}-core")
        if sum(lam) > m or (m - sum(lam)) % ei != 0:
            raise DomainError(
                f"core size {sum(lam)} incompatible with multiplicity {m} mod {ei}"
            )
        total += orb.size * m
    if total != params.n:
        raise DomainError(f"symbol has size {total}, expected n = {params.n}")
    return BlockSymbol(canon)


def weight_symbol(tuples_, params: InstanceParams) -> WeightSymbol:
    """Validate, canonicalize, and build a weight symbol."""
    canon = tuple(
        sorted(
            (orb, int(m), as_partition(lam), func) for orb, m, lam, func in tuples_
        )
    )
    block_symbol([(orb, m, lam) for orb, m, lam, _ in canon], params)
    for orb, m, lam, func in canon:
        ei = e_gamma(orb.size, params)
        w = (m - sum(lam)) // ei
        validate_core_function(func, ei, w, params.ell)
    return WeightSymbol(canon)


# Center action and stabilizer counts.


def z_act(z: RootLabel, sym, params: InstanceParams):
    """Translate every orbit of a label by the central element z."""
    if not isinstance(sym, (AdmissibleSymbol, BlockSymbol, WeightSymbol)):
        raise DomainError(f"cannot act on {type(sym).__name__}")
    (entries,) = sym
    eq = params.eq
    acted = sorted((act_on_orbit(z, orb, eq), *rest) for orb, *rest in entries)
    return type(sym)(tuple(acted))


def _stabilizer(sym, zs_rest, params: InstanceParams) -> int:
    """Order of the stabilizer of a label in the group of the identity and
    zs_rest, a set of nonidentity central elements such as the center or
    the block stabilizer C1 without the identity."""
    return 1 + sum(z_act(z, sym, params) == sym for z in zs_rest)


def kappa_ellprime(sym, params: InstanceParams) -> int:
    """Order of the stabilizer of an admissible or weight symbol in the
    ell'-part of the center."""
    zs_rest = center_elements(params).elements[1:]
    return _stabilizer(sym, zs_rest, params)


def kappa_ell(sym: AdmissibleSymbol, params: InstanceParams) -> int:
    """ell-part of gcd(n, q - eps, and the part gcds of the transposes)."""
    g = math.gcd(params.n, params.q - params.eps)
    for _, mu in sym.pairs:
        g = math.gcd(g, delta(transpose(mu)))
    return ell_part(g, params.ell)


def kappa(sym: AdmissibleSymbol, params: InstanceParams) -> int:
    """Number of irreducible constituents of the restriction to SL_n(eps q)."""
    return kappa_ell(sym, params) * kappa_ellprime(sym, params)


# The stabilizer order of a weight symbol, by the same scan.
kappa_weight = kappa_ellprime


# Blocks.


def block_of(sym: AdmissibleSymbol, params: InstanceParams) -> BlockSymbol:
    """The block symbol of an admissible symbol: sizes and cores per orbit."""
    table = params.e_gamma_table
    triples = tuple(
        (orb, sum(mu), e_core(mu, table[orb.size - 1])) for orb, mu in sym.pairs
    )
    return BlockSymbol(triples)


def symbols_in_block(
    block: BlockSymbol, params: InstanceParams
) -> tuple[AdmissibleSymbol, ...]:
    """All admissible symbols with the given block symbol, sorted: the
    slots hold distinct orbits in order, so the product of the slots'
    ascending lists (enumerate_with_core's, reversed) is sorted."""
    table = params.e_gamma_table
    per_slot = [
        reversed(enumerate_with_core(m, table[orb.size - 1], lam))
        for orb, m, lam in block.triples
    ]
    return tuple(
        AdmissibleSymbol(
            tuple((orb, mu) for (orb, _, _), mu in zip(block.triples, combo))
        )
        for combo in itertools.product(*per_slot)
    )


def _walk_blocks(items, slots, n: int, ell: int):
    """Yield every tuple of triples (items[i], m, lam) over distinct items,
    where slots[i] = (weight, e), m >= 1 and lam is an e-core of a partition
    of m, of size n: weight times m summed.  They come sorted, ordered by i,
    then m, then lam, slot by slot, each with its GL record: the records
    _slot_counts(m, e, lam, ell) of its triples folded by _fold.

    The walk builds bottom up.  A tuple of size b is a first triple
    (items[i], m, lam) followed by a tail: a tuple of size b - weight m
    whose first item index exceeds i, or the empty tail.  So the tuples of
    each size b < n, the tails, are built once, sorted, from the smaller
    ones, each with its record and first item index, and the tails a first
    triple takes are a suffix of those of their size, found by bisection.
    Each tuple costs one concatenation and one fold of its first slot into
    the record of its tail, and shares its triples with its tail.  The
    tuples of size n are yielded as they are built and never listed."""
    fold = _fold
    candidates: list[list[int]] = [[] for _ in range(n + 1)]
    for i, (weight, _) in enumerate(slots):
        for b in range(weight, n + 1):
            candidates[b].append(i)
    # tails[b]: the (triples, record) of every tuple of size b, sorted;
    # firsts[b]: the first item index of each, the empty tail's past all.
    tails = [[((), _NO_SLOT)]]
    firsts = [[len(items)]]

    def heads(b):
        """(i, first triple as a 1-tuple, its record, the tails after it)
        of every first triple of a tuple of size b, in sorted order."""
        for i in candidates[b]:
            item = items[i]
            weight, e = slots[i]
            for m in range(1, b // weight + 1):
                rest = b - weight * m
                start = bisect_right(firsts[rest], i)
                if start == len(firsts[rest]):
                    continue  # no tail of size rest starts after item i
                after = tails[rest][start:]
                for lam, slot in _slot_records(m, e, ell):
                    yield i, ((item, m, lam),), slot, after

    for b in range(1, n):
        built = []
        starts = []
        for i, head, slot, after in heads(b):
            built += [(head + tail, fold(record, slot)) for tail, record in after]
            starts += [i] * len(after)
        tails.append(built)
        firsts.append(starts)
    for _, head, slot, after in heads(n):
        for tail, record in after:
            yield head + tail, fold(record, slot)


def _orbit_walk(orbits, params: InstanceParams):
    """The block walk over the sorted orbits, with weight the degree of each
    orbit and e = e_gamma of it: the triples of every block symbol over
    them, sorted, each with its GL record."""
    table = params.e_gamma_table
    slots = [(orb.size, table[orb.size - 1]) for orb in orbits]
    return _walk_blocks(orbits, slots, params.n, params.ell)


def enumerate_block_symbols(params: InstanceParams) -> tuple[BlockSymbol, ...]:
    """All block symbols of the instance, sorted and duplicate free.

    Block symbols compare by their triples, and distinct orbits have
    distinct representatives, so the sorted order is lexicographic in the
    triples (orbit, m, core), slot by slot.  _walk_blocks builds exactly
    that order: the first orbit ascending, then m ascending, then the core
    ascending, then the sorted tails over later orbits that fill the rest
    of n.  Each block is one first triple and one tail, so it comes once,
    and the blocks need no sort.
    """
    orbits = enumerate_ellprime_orbits(params)
    return tuple(BlockSymbol(triples) for triples, _ in _orbit_walk(orbits, params))


# The orbit of the unipotent blocks.
IDENTITY_ORBIT = FrobeniusOrbit(IDENTITY, 1)


# Suborbit constraints and the block stabilizer count.


def _suborbit_step(deg: int, m: int, lam_size: int, params: InstanceParams):
    """Step of the constraint suborbit, or None when the set is empty."""
    if params.ell != 2:
        return None if lam_size == m else params.e
    if (params.q - params.eps) % 4 == 0 or deg % 2 == 0:
        return 1
    if m == 1:
        return None
    return 2


def kappa_block(block: BlockSymbol, params: InstanceParams) -> int:
    """Number of SL-blocks covered by this block: |C1 intersect C2|."""
    (counts,) = block_counts((block,), params)
    return counts.kappa_b


# The blocks whose stabilizer C1 in the center is nontrivial.  The center Z
# is cyclic, so C1 != 1 exactly when C1 holds the element 1/r of prime order
# r, for some prime r dividing |Z|.  A block fixed by z = 1/r is a union of
# <z>-cycles of orbits with one (m, lam) on all the orbits of a cycle.


def _center_stabilizer_order(den: int, u: int, order: int) -> int:
    """The order of the stabilizer, in the center Z of order `order`, of the
    orbit of a unit a/N, N = den, under multiplication by the unit u mod N:
    with u = eq the twist orbits of denominator N, with u = eq**step the
    constraint suborbits of that step.

    Z is fixed by the twist (_twist_fixed_center), so z maps that orbit onto
    the orbit of z + a/N, and fixes it exactly when z + a/N lies in it: when
    z + a/N = a u**k / N for some k below the period ord_N(u), that is
    z = a (u**k - 1) / N mod 1.  That is an element of Z, the multiples of
    1 / |Z|, exactly when N divides a (u**k - 1) |Z|, or (u**k - 1) |Z| as a
    is a unit mod N, and distinct k give distinct z.  With g = gcd(N, |Z|),
    N / g and |Z| / g are coprime, so N | (u**k - 1) |Z| exactly when
    u**k = 1 mod N / g: the k counted are the multiples of ord_{N/g}(u),
    which divides ord_N(u), and there are ord_N(u) / ord_{N/g}(u) of them,
    whatever a is.  Both orders come from arith.mult_order.  Z is cyclic, so
    the stabilizer is its subgroup of that order, the z whose denominator
    divides it."""
    return mult_order(u, den) // mult_order(u, den // math.gcd(den, order))


def _twist_fixed_center(params: InstanceParams):
    """The ell'-part Z of the center, checked to be fixed by the twist.

    |Z| divides q - eps, which divides eq - 1, so eq z = z for every z in Z:
    translating by z commutes with the twist, and maps the twist orbit of
    sigma onto that of z sigma, of the same size.  That identity stands in
    for a size check at every orbit; it is checked here, once per kernel
    run and per stabilizer map, and a center it fails for raises."""
    center = center_elements(params)
    if (params.eq - 1) % center.order:
        raise InvariantViolationError(
            f"the center of order {center.order} is not fixed by the twist by"
            f" {params.eq}"
        )
    return center


@lru_cache(maxsize=1)
def _block_stabilizers(
    params: InstanceParams,
) -> dict[BlockSymbol, tuple[RootLabel, ...]]:
    """Map every block of the instance whose stabilizer C1 in the center is
    nontrivial to C1 without the identity, in the center's order.  Absent
    blocks have C1 = 1.

    The center comes from _twist_fixed_center, so translating by a central
    element maps twist orbits onto twist orbits of the same size, and the
    <1/r>-cycles below are cycles of orbits.

    The primes r are those of arith.prime_factors(|Z|).  The stabilizer of
    a twist orbit in the cyclic Z is its subgroup of order
    s(N) = _center_stabilizer_order(N, eq, |Z|), which depends on the
    denominator N alone and is computed once per N, so 1/r fixes the orbit
    exactly when r divides s(N); such an orbit is a one-orbit <1/r>-cycle.
    An orbit that 1/r moves lies on a <1/r>-cycle of r orbits, which a
    block fixed by 1/r holds whole, so only those of degree at most n / r
    can be in one: translate_orbit walks their cycles, checking the
    size of every translate and that the cycle closes after exactly r steps.
    The blocks fixed by 1/r come from the block walk over the <1/r>-cycles,
    each of weight its length times its degree: a slot (cycle, m, lam) puts
    (orbit, m, lam) on every orbit of the cycle.  Only on those blocks does
    the center act on a block: C1 is read off by definition, the central
    z != 1 with z_act(z, block) == block, and a block whose C1 lacks 1/r
    raises.  Cached for the last instance only: block_counts looks the map
    up at every block of one instance, and the next instance replaces it.
    """
    center = _twist_fixed_center(params)
    order = center.order
    if order == 1:
        return {}
    eq = params.eq
    n = params.n
    primes = prime_factors(order)
    cycles: dict[int, list] = {r: [] for r in primes}
    walked: set = set()
    den = stab = 0
    for orb in enumerate_ellprime_orbits(params):
        if orb.rep.den != den:
            den = orb.rep.den
            stab = _center_stabilizer_order(den, eq, order)
        for r in primes:
            if stab % r == 0:
                cycles[r].append((orb,))
            elif orb.size * r <= n and (r, orb) not in walked:
                z = RootLabel(r, 1)
                cycle = [orb]
                image = translate_orbit(z, orb, eq)
                while image != orb and len(cycle) < r:
                    cycle.append(image)
                    image = translate_orbit(z, image, eq)
                if image != orb or len(cycle) != r:
                    raise InvariantViolationError(
                        f"the <{z}>-cycle of {orb.rep} does not have {r} orbits"
                    )
                walked.update((r, x) for x in cycle)
                cycles[r].append(tuple(cycle))
    table = params.e_gamma_table
    zs_rest = center.elements[1:]
    stabilizers: dict[BlockSymbol, tuple[RootLabel, ...]] = {}
    for r, found in cycles.items():
        slots = [
            (cycle[0].size * len(cycle), table[cycle[0].size - 1]) for cycle in found
        ]
        for slot_triples, _ in _walk_blocks(found, slots, n, params.ell):
            triples = [(orb, m, lam) for cycle, m, lam in slot_triples for orb in cycle]
            block = BlockSymbol(tuple(sorted(triples)))
            if block in stabilizers:
                continue
            c1_rest = tuple(z for z in zs_rest if z_act(z, block, params) == block)
            if RootLabel(r, 1) not in c1_rest:
                raise InvariantViolationError(
                    f"z_act does not fix block {block_to_jsonable(block)} under 1/{r}"
                )
            stabilizers[block] = c1_rest
    return stabilizers


# Weight symbols per block.


def weight_symbols_in_block(
    block: BlockSymbol, params: InstanceParams
) -> tuple[WeightSymbol, ...]:
    """All weight symbols over the given block symbol, sorted, as the
    product of the slots' sorted core-function lists (symbols_in_block)."""
    table = params.e_gamma_table
    per_slot = []
    for orb, m, lam in block.triples:
        ei = table[orb.size - 1]
        w = (m - sum(lam)) // ei
        per_slot.append(enumerate_core_functions(ei, w, params.ell))
    return tuple(
        WeightSymbol(
            tuple(
                (orb, m, lam, func)
                for (orb, m, lam), func in zip(block.triples, combo)
            )
        )
        for combo in itertools.product(*per_slot)
    )


# The block preserving relabeling between admissible and weight symbols:
# per pair, the partition is traded for its core together with the core
# towers of its quotient components, spread over slots.


@lru_cache(maxsize=None)
def _weight_data(mu: Partition, e: int, ell: int):
    lam = e_core(mu, e)
    entries: list[tuple[tuple[int, int, int], Partition]] = []
    for k, comp in enumerate(e_quotient(mu, e), start=1):
        for d, level in enumerate(core_tower(comp, ell)):
            for j, core in enumerate(level, start=1):
                if core:
                    entries.append(((d, k, j), core))
    return sum(mu), lam, CoreFunction(tuple(sorted(entries)))


@lru_cache(maxsize=None)
def _brauer_partition(
    m: int,
    lam: Partition,
    entries: tuple[tuple[tuple[int, int, int], Partition], ...],
    e: int,
    ell: int,
) -> Partition:
    comps: list[Partition] = []
    for k in range(1, e + 1):
        sub = [(slot, core) for slot, core in entries if slot[1] == k]
        if not sub:
            comps.append(())
            continue
        depth = max(slot[0] for slot, _ in sub) + 1
        levels = [[()] * (ell**d) for d in range(depth)]
        for (d, _, j), core in sub:
            levels[d][j - 1] = core
        comps.append(
            tower_to_partition(tuple(tuple(level) for level in levels), ell)
        )
    mu = from_core_quotient(lam, tuple(comps), e)
    if sum(mu) != m:
        raise InvariantViolationError("relabeled partition has the wrong size")
    return mu


def to_weight_symbol(sym: AdmissibleSymbol, params: InstanceParams) -> WeightSymbol:
    """Relabel an admissible symbol as the matching weight symbol."""
    table = params.e_gamma_table
    out = []
    for orb, mu in sym.pairs:
        m, lam, func = _weight_data(mu, table[orb.size - 1], params.ell)
        out.append((orb, m, lam, func))
    return WeightSymbol(tuple(out))


def from_weight_symbol(sym: WeightSymbol, params: InstanceParams) -> AdmissibleSymbol:
    """Inverse relabeling: rebuild the partition from core and slot cores."""
    table = params.e_gamma_table
    out = []
    for orb, m, lam, func in sym.tuples:
        ei = table[orb.size - 1]
        validate_core_function(func, ei, (m - sum(lam)) // ei, params.ell)
        mu = _brauer_partition(m, lam, func.entries, ei, params.ell)
        out.append((orb, mu))
    return AdmissibleSymbol(tuple(out))


# The per-block kernel: the GL counts, the bijection checks and every
# quantity of the SL descent of one block, from its slots and, where its
# stabilizer in the center is nontrivial, one pass over its labels.

REFUSAL_ELL_TWO = "ell=2 upper bound only"
REFUSAL_GCD = "ell divides gcd(n, q-eps)"


def sl_refusal(params: InstanceParams) -> str | None:
    """Why the SL-level counts do not cover the instance, or None when they
    do: they need ell odd and prime to gcd(n, q - eps)."""
    if params.ell == 2:
        return REFUSAL_ELL_TWO
    if math.gcd(params.n, params.q - params.eps) % params.ell == 0:
        return REFUSAL_GCD
    return None


class BlockCounts(NamedTuple):
    """What block_counts finds on one block; the rows of a verify report.

    ibr and weights are the closed-form GL counts of the block.  kappa_b is
    the number of SL-blocks it covers, and c1_order the order of its
    stabilizer C1 in the center Z.  The center orbit of the block has
    |Z| / c1_order members, which share kappa_b and the SL counts, so
    kappa_b c1_order summed over a center-stable set of blocks and divided
    by |Z| adds kappa_b once per center orbit of blocks.  sl_ibr and sl_weights
    count Brauer characters and weights per covered SL-block: stabilizer
    order over kappa_b, summed over the center orbits that meet the block.
    Each meets it in one C1-orbit, so by orbit-stabilizer in C1 they are
    the sums of squared stabilizer orders over the symbols and over the
    weight symbols of the block, divided by |C1| kappa_b.
    stab_sq_sum is that sum over the symbols; summed over a center-stable
    set of blocks and divided by the center order, it is the sum of
    stabilizer orders over center orbits.
    failed names, sorted, the checks of verify.run_instance that fail on
    this block; it is empty on a clean block.
    """

    block: BlockSymbol
    ibr: int
    weights: int
    kappa_b: int
    c1_order: int
    sl_ibr: int
    sl_weights: int
    stab_sq_sum: int
    failed: tuple[str, ...]


@lru_cache(maxsize=None)
def _slot_counts(m: int, e: int, lam: Partition, ell: int):
    """The counts and GL checks of one block slot: multiplicity m, e-core
    lam, with e = e_gamma of the orbit degree.  Every GL check is decided
    here and nowhere else.  Returns (nsym, nwt, failed): the closed-form
    counts of partitions (count_with_core) and of core functions
    (count_core_functions), and the names of the checks that fail on the
    slot.  gl_blockwise_awc fails when the counts differ, counts_match when
    a list (enumerate_with_core, enumerate_core_functions) is not as long
    as its count.  Each partition mu of the list must relabel by
    _weight_data to (m, lam, f) with f in the core-function list
    (bijection_block_preserved); validate_core_function must accept f, and
    raises DomainError as from_weight_symbol does when it does not; and
    _brauer_partition must bring f back to mu (bijection_roundtrip).  The
    key holds no instance, so every instance shares the cache, which is
    never cleared: the n <= 6 grid has 105 slot shapes.
    """
    w = (m - sum(lam)) // e
    nsym = count_with_core(m, e, lam)
    nwt = count_core_functions(e, w, ell)
    mus = enumerate_with_core(m, e, lam)
    funcs = enumerate_core_functions(e, w, ell)
    members = set(funcs)
    failed = set()
    if nsym != nwt:
        failed.add("gl_blockwise_awc")
    if len(mus) != nsym or len(funcs) != nwt:
        failed.add("counts_match")
    for mu in mus:
        m_mu, lam_mu, func = _weight_data(mu, e, ell)
        if (m_mu, lam_mu) != (m, lam) or func not in members:
            failed.add("bijection_block_preserved")
            continue
        validate_core_function(func, e, w, ell)
        if _brauer_partition(m, lam, func.entries, e, ell) != mu:
            failed.add("bijection_roundtrip")
    return nsym, nwt, frozenset(failed)


@lru_cache(maxsize=None)
def _slot_records(m: int, e: int, ell: int):
    """(lam, _slot_counts(m, e, lam, ell)) for every e-core lam of a
    partition of m, lam ascending: the slots the block walk takes at (m, e).
    Shared by every instance and never cleared, as _slot_counts is."""
    # distinct_cores lists the cores descending
    return tuple(
        (lam, _slot_counts(m, e, lam, ell)) for lam in reversed(distinct_cores(m, e))
    )


# The GL record of a block, as _slot_counts gives that of one slot: the
# closed-form symbol and weight counts and the names of the failed checks.
# _NO_SLOT is the record of no slot.
_NO_SLOT = (1, 1, frozenset())


def _fold(record, slot):
    """A block's record extended by the record of one more slot: the counts
    multiplied, the failed names united.  The block walk and block_counts
    fold with this one step."""
    nsym, nwt, failed = record
    slot_sym, slot_wt, slot_failed = slot
    return (
        nsym * slot_sym,
        nwt * slot_wt,
        failed | slot_failed if slot_failed else failed,
    )


def block_counts(blocks, params: InstanceParams):
    """Yield one BlockCounts per block, in order: count, restrict to SL and
    check each block.  Each block's GL record is folded from its slots by
    _fold, the step the block walk folds with (walk_block_counts).

    A block's C1 is looked up in the map of _block_stabilizers for the
    instance and nowhere else, so its record does not depend on the blocks
    passed with it.  A unipotent block, on the identity orbit alone, has
    C1 = 1 without a look-up: z != 1 moves the identity orbit to the orbit
    of z.  So the map, and with it the set of the first orbits of its
    blocks, is built at the first block that is not unipotent, and a
    unipotent-only run builds neither.  A block is looked up only when its
    first orbit is in that set; no other block can be in the map.

    The SL quantities are computed whether or not sl_refusal admits the
    instance; callers decide whether they apply.  On an admitted instance
    kappa_ell, the ell-part of a divisor of gcd(n, q - eps), is 1, so the
    stabilizer order of a symbol is its full kappa
    (test_symbols::test_kappa_ell_is_one_when_gcd_is_ellprime).

    Product lemma.  A block is a tuple of slots (orbit, m, lam) over
    distinct orbits.  Its symbols are the Cartesian product over the slots
    of the partitions of m with e-core lam, e = e_gamma(orbit size), and its
    weight symbols that of the core functions on e components of weight
    (m - |lam|) / e (test_symbols::test_labels_of_a_block_are_slot_products).
    to = to_weight_symbol and from = from_weight_symbol act entry by entry:
    each keeps the orbit and reads it only through e
    (test_symbols::test_to_weight_symbol_is_entry_by_entry).  So every GL
    count and check of a block is a product or a union over its slots, and
    _slot_counts decides each once per slot (m, e, lam, ell); a block fails
    a GL check exactly when one of its slots does:

    * gl_blockwise_awc: the closed-form symbol and weight counts agree.
    * counts_match: they equal the lengths of the lists.
    * bijection_roundtrip, from(to(s)) == s: to is injective.
    * bijection_block_preserved, to(s) is a weight symbol of the block: as
      the block has as many weight symbols as symbols (the two checks
      above), to is onto them and to(from(w)) == w for each.

    The center.  A central element outside the block stabilizer C1 moves
    every label of the block into another block, so the stabilizer of a
    label lies in C1.  When C1 = 1, every label stabilizer is 1 and
    kappa_b = 1: the squared stabilizer sums are the list lengths,
    kappa_divisibility and bijection_kappa_preserved hold, and no label is
    built.  Otherwise kappa_b = |C1 intersect C2|, C2 the z that fix every
    constraint suborbit of the block setwise.  The stabilizer of one
    suborbit, the orbit of its orbit representative under the step-fold
    twist, is the subgroup of Z of order _center_stabilizer_order(N,
    eq**step, |Z|), the closed form ord_N(u) / ord_{N/gcd(N, |Z|)}(u) at
    u = eq**step proved there, both orders by arith.mult_order.  Z is
    cyclic, so C2 is its subgroup of order c2, the gcd of those orders
    (c2 = 0, C2 = Z, when no slot has a constraint suborbit), and kappa_b
    is 1 plus the number of z in C1 without the identity whose denominator
    divides c2.  A block with C1 != 1 scans its labels under C1:

    * kappa_divisibility asks that kappa_b divide the stabilizer order of
      every symbol and weight symbol of the block.
    * bijection_kappa_preserved, equal stabilizers in C1: equal in the
      whole center, since a z fixing a label fixes its block
      (test_symbols::test_z_act_commutes_with_block_of).
    * bijection_equivariant, to(z s) == z to(s) for every z at every
      symbol s of the block.

    Equivariance needs no labels where C1 = 1.  z s translates the orbit of
    each entry of s and keeps its partition, so by the product lemma to(z s)
    and z to(s) have the same entries, except that one reads e at the size
    of z orb and the other at that of orb; both sort their entries by the
    distinct orbits.  Those sizes are equal: |Z| divides eq - 1, so the
    twist fixes every z, translating by z commutes with the twist, and the
    translate of a twist orbit is a twist orbit of the same size.  The
    kernel checks that identity once per run (_twist_fixed_center), and
    raises where it fails; so to(z s) == z to(s) at every z on every block
    passed (test_symbols::test_to_weight_symbol_commutes_with_z_act checks
    it at every z and every symbol of every block).  On a unipotent block
    the orbit of z has size 1, as the identity orbit, by the same identity.

    The per-SL-block sums are counted by orbit-stabilizer in C1 and divided
    by |C1| kappa_b; a remainder fails sl_blockwise_awc, and so do quotients
    that differ.  When C1 = 1 the divisor is 1: sl_ibr and stab_sq_sum are
    the number of symbols and sl_weights that of weight symbols, the GL
    counts by counts_match, so the kernel takes those without a division,
    and sl_blockwise_awc fails exactly when they differ.
    """
    table = params.e_gamma_table
    ell = params.ell

    def counted():
        for block in blocks:
            record = _NO_SLOT
            for orb, m, lam in block.triples:
                record = _fold(record, _slot_counts(m, table[orb.size - 1], lam, ell))
            yield block.triples, record

    return _kernel(counted(), params)


def walk_block_counts(orbits, params: InstanceParams):
    """Yield one BlockCounts per block over the given sorted orbits of the
    instance, all of them or the identity orbit alone, in sorted order: the
    records block_counts gives those blocks, each block's GL record carried
    by the block walk that builds it (_orbit_walk)."""
    return _kernel(_orbit_walk(orbits, params), params)


def _kernel(counted, params: InstanceParams):
    """The body of block_counts, from the triples of each block with its GL
    record (nsym, nwt, failed), every GL check decided by _slot_counts: C1;
    where C1 = 1 the row from the record, a failed-name set built only when
    a check fails; elsewhere kappa_b, the label scan under C1 and the SL
    divisions."""
    eq = params.eq
    center = _twist_fixed_center(params)
    order = center.order
    zs_rest = center.elements[1:]
    stabilizers = None
    fixed_firsts = ()
    # The named tuples are built by tuple.__new__, as their _make builds
    # them, without the Python-level __new__ they have: on the per-block
    # path that call costs as much as the rest of building the tuple.
    new = tuple.__new__
    for triples, (nsym, nwt, failed) in counted:
        block = new(BlockSymbol, (triples,))
        # C1 is the setwise stabilizer of the block in the center.  The
        # triples are sorted, so the block is unipotent, with C1 = 1, when
        # its last orbit is the identity; the map is built at the first
        # block that is not.  A block whose first orbit begins no block of
        # the map is not in it.
        if stabilizers is None and triples[-1][0] != IDENTITY_ORBIT:
            stabilizers = _block_stabilizers(params)
            fixed_firsts = {b.triples[0][0] for b in stabilizers}
        c1_rest = stabilizers.get(block) if triples[0][0] in fixed_firsts else None

        if c1_rest is None:
            # C1 = 1: kappa_b = 1, every stabilizer is 1, each squared
            # stabilizer sum is the number of labels, its closed form by
            # counts_match, and each per-SL-block sum that number over 1.
            if nsym != nwt:
                failed = {*failed, "sl_blockwise_awc"}
            yield new(
                BlockCounts,
                (
                    block, nsym, nwt, 1, 1, nsym, nwt, nsym,
                    tuple(sorted(failed)) if failed else (),
                ),
            )
            continue

        # kappa_b = |C1 intersect C2|, C2 the subgroup of order c2 that fixes
        # every constraint suborbit of the block.
        failed = set(failed)
        c2 = 0
        for orb, m, lam in triples:
            step = _suborbit_step(orb.size, m, sum(lam), params)
            if step is not None:
                c2 = math.gcd(c2, _center_stabilizer_order(orb.rep.den, eq**step, order))
        kappa_b = 1 + sum(c2 % z.den == 0 for z in c1_rest)
        # Weight side first: stabilizers by weight symbol, so the
        # symbols can match into them.
        wt_stab: dict = {}
        wt_sq_sum = 0
        for w in weight_symbols_in_block(block, params):
            stab = wt_stab[w] = _stabilizer(w, c1_rest, params)
            wt_sq_sum += stab * stab
            if stab % kappa_b:
                failed.add("kappa_divisibility")
        stab_sq_sum = 0
        for s in symbols_in_block(block, params):
            stab = _stabilizer(s, c1_rest, params)
            stab_sq_sum += stab * stab
            if stab % kappa_b:
                failed.add("kappa_divisibility")
            image = to_weight_symbol(s, params)
            # An image outside the block fails bijection_block_preserved
            # at its slot.
            if wt_stab.get(image, stab) != stab:
                failed.add("bijection_kappa_preserved")
            if any(
                z_act(z, image, params)
                != to_weight_symbol(z_act(z, s, params), params)
                for z in zs_rest
            ):
                failed.add("bijection_equivariant")

        # Orbit-stabilizer in C1: the squared stabilizer orders over |C1|
        # add the stabilizer order of each C1-orbit once, and kappa_b
        # divides each of those (kappa_divisibility).
        c1_order = 1 + len(c1_rest)
        per_sl_block = c1_order * kappa_b
        sl_ibr, ibr_rem = divmod(stab_sq_sum, per_sl_block)
        sl_weights, wt_rem = divmod(wt_sq_sum, per_sl_block)
        if ibr_rem or wt_rem or sl_ibr != sl_weights:
            failed.add("sl_blockwise_awc")
        yield new(
            BlockCounts,
            (
                block, nsym, nwt, kappa_b, c1_order, sl_ibr, sl_weights,
                stab_sq_sum, tuple(sorted(failed)) if failed else (),
            ),
        )


def sl_block_report(block: BlockSymbol, params: InstanceParams) -> BlockCounts:
    """The kernel's record of one block, whose kappa_b, sl_ibr and
    sl_weights are its SL-level counts; refuses modes the counts do not
    cover and raises when kappa_b does not divide a stabilizer order."""
    refusal = sl_refusal(params)
    if refusal is not None:
        raise UnsupportedModeError(refusal)
    (counts,) = block_counts((block,), params)
    if "kappa_divisibility" in counts.failed:
        raise InvariantViolationError(
            f"a stabilizer order in block {block_to_jsonable(block)} is not divisible"
            f" by kappa_b = {counts.kappa_b}"
        )
    return counts


# Serialization.


def block_to_jsonable(sym: BlockSymbol) -> list[dict]:
    return [
        {"orbit": str(orb.rep), "deg": orb.size, "m": m, "lambda": list(lam)}
        for orb, m, lam in sym.triples
    ]

