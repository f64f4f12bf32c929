"""Brauer character, block, and weight labels with center actions and counts.

An admissible symbol pairs finitely many distinct twist orbits with nonempty
partitions, with sizes weighted by orbit degree summing to n; it labels one
irreducible ell-Brauer character of GL_n(eps q).  Replacing each partition by
its size, core, and either nothing (block symbols, labelling ell-blocks) or a
core function on slots (weight symbols, labelling conjugacy classes of
weights) gives the two compressed label families.  The ell'-part of the
center acts on all three by translating orbits; stabilizer orders drive the
SL-level restriction counts.

The center action is coded once per level for all three label types.  Every
key() is a sorted tuple of entries (orbit representative, rest), so z_act
translates the orbit of each entry and re-sorts, and _acted_key does the
same on keys without building the label: z_act is the reference,
_acted_key the fast path the kernel scans with, and the tests tie the two
(test_symbols::test_z_act_is_a_group_action_on_symbols).

Each quantity of the descent to SL_n(eps q) is implemented here, once:
sl_refusal decides whether the SL counts cover an instance; _center_orbit
gives the stabilizer order and least acted key of any label under a given
set of central elements (kappa_ellprime, kappa_weight use the whole
center); block_counts, the per-block kernel, gives kappa_b =
|C1 intersect C2|, the per-SL-block restriction sums with their
divisibility and the bijection checks (kappa_block, sl_block_report).

A central element outside the block stabilizer C1 moves every label of a
block into another block, so the kernel scans the labels of a block under
C1 only.  The one sum over whole center orbits, the number of Brauer
characters of SL_n(eps q), is counted by orbit-stabilizer: each label adds
its squared stabilizer order, and the instance total over the center order
is the sum of stabilizer orders over center orbits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .arith import InstanceParams, e_gamma, ell_part
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
    enumerate_partitions,
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
    _acted_rep,
    _orbit_of,
    _twist_step,
    act_on_orbit,
    center_act,
    center_elements,
    enumerate_ellprime_orbits,
    suborbit,
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

    def key(self):
        return tuple((orb.rep, mu) for orb, mu in self.pairs)


class BlockSymbol(NamedTuple):
    """Triples (orbit, multiplicity, core); labels one ell-block."""

    triples: tuple[tuple[FrobeniusOrbit, int, Partition], ...]

    def key(self):
        return tuple((orb.rep, (m, lam)) for orb, m, lam in self.triples)


class WeightSymbol(NamedTuple):
    """Tuples (orbit, multiplicity, core, core function); a weight class."""

    tuples: tuple[tuple[FrobeniusOrbit, int, Partition, CoreFunction], ...]

    def key(self):
        return tuple(
            (orb.rep, (m, lam, func.entries)) for orb, m, lam, func in self.tuples
        )


def _validate_orbit(orbit: FrobeniusOrbit, params: InstanceParams) -> None:
    den = orbit.rep.den
    if den % params.p == 0 or math.gcd(den, params.ell) != 1:
        raise DomainError(f"orbit denominator {den} is not prime to p*ell")
    if _orbit_of(orbit.rep, params.eq) != orbit:
        raise DomainError(f"{orbit.rep} does not represent a canonical orbit")


def _check_distinct_sorted(keys) -> None:
    for a, b in zip(keys, keys[1:]):
        if a >= b:
            raise DomainError("orbits in a symbol must be pairwise distinct")


def admissible_symbol(pairs, params: InstanceParams) -> AdmissibleSymbol:
    """Validate, canonicalize, and build an admissible symbol."""
    canon = tuple(
        sorted(
            ((orb, as_partition(mu)) for orb, mu in pairs),
            key=lambda t: t[0].rep,
        )
    )
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
        sorted(
            ((orb, int(m), as_partition(lam)) for orb, m, lam in triples),
            key=lambda t: t[0].rep,
        )
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
            ((orb, int(m), as_partition(lam), func) for orb, m, lam, func in tuples_),
            key=lambda t: t[0].rep,
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
    acted = sorted(
        ((act_on_orbit(z, orb, params), *rest) for orb, *rest in entries),
        key=lambda t: t[0].rep,
    )
    return type(sym)(tuple(acted))


def _acted_key(z: RootLabel, key, eq: int):
    """The key of the z-translate of the label with this key: z_act(z,
    sym, params).key() from sym.key() alone."""
    if len(key) == 1:
        ((rep, rest),) = key
        return ((_acted_rep(z, rep, eq), rest),)
    return tuple(sorted([(_acted_rep(z, rep, eq), rest) for rep, rest in key]))


def _center_orbit(sym, zs_rest, eq: int):
    """(key of sym, the elements of zs_rest fixing sym, least key among sym
    and its images under zs_rest), for a label of any type.  zs_rest is a
    set of nonidentity central elements.  When zs_rest is the center
    without its identity, the least key is that of the center orbit; when
    zs_rest and the identity form a subgroup, such as the block stabilizer
    C1, it is the least key of the orbit under that subgroup."""
    own = sym.key()
    fixing = []
    least = own
    for z in zs_rest:
        key = _acted_key(z, own, eq)
        if key == own:
            fixing.append(z)
        elif key < least:
            least = key
    return own, fixing, least


def kappa_ellprime(sym, params: InstanceParams) -> int:
    """Order of the stabilizer of an admissible or weight symbol in the
    ell'-part of the center."""
    zs_rest = center_elements(params).elements[1:]
    return 1 + len(_center_orbit(sym, zs_rest, params.eq)[1])


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
    """All admissible symbols with the given block symbol, sorted."""
    table = params.e_gamma_table
    per_slot = []
    for orb, m, lam in block.triples:
        choices = enumerate_with_core(m, table[orb.size - 1], lam)
        if not choices:
            raise InvariantViolationError(f"block slot ({orb.rep},{m},{lam}) is empty")
        per_slot.append(choices)
    out = [
        AdmissibleSymbol(
            tuple((orb, mu) for (orb, _, _), mu in zip(block.triples, combo))
        )
        for combo in itertools.product(*per_slot)
    ]
    out.sort(key=AdmissibleSymbol.key)
    return tuple(out)


def count_symbols_in_block(block: BlockSymbol, params: InstanceParams) -> int:
    table = params.e_gamma_table
    count = 1
    for orb, m, lam in block.triples:
        count *= count_with_core(m, table[orb.size - 1], lam)
    return count


def enumerate_block_symbols(params: InstanceParams) -> tuple[BlockSymbol, ...]:
    """All block symbols of the instance, sorted and duplicate free."""
    orbits = enumerate_ellprime_orbits(params)
    by_deg: dict[int, list[FrobeniusOrbit]] = {}
    for orb in orbits:
        by_deg.setdefault(orb.size, []).append(orb)
    degs = sorted(by_deg)
    results: list[BlockSymbol] = []
    chosen: list[tuple[FrobeniusOrbit, int]] = []

    table = params.e_gamma_table

    def close_out() -> None:
        base = sorted(chosen, key=lambda t: t[0].rep)
        if len(base) == 1:
            orb, m = base[0]
            for lam in distinct_cores(m, table[orb.size - 1]):
                results.append(BlockSymbol(((orb, m, lam),)))
            return
        core_lists = [distinct_cores(m, table[orb.size - 1]) for orb, m in base]
        for combo in itertools.product(*core_lists):
            results.append(
                BlockSymbol(
                    tuple((orb, m, lam) for (orb, m), lam in zip(base, combo))
                )
            )

    def assign(di: int, budget: int) -> None:
        if budget == 0:
            close_out()
            return
        if di == len(degs):
            return
        d = degs[di]
        pool = by_deg[d]
        assign(di + 1, budget)
        for t in range(1, budget // d + 1):
            for shape in enumerate_partitions(t):
                if len(shape) > len(pool):
                    continue
                orderings = sorted(set(itertools.permutations(shape)))
                for orbs in itertools.combinations(pool, len(shape)):
                    for ordering in orderings:
                        chosen.extend(zip(orbs, ordering))
                        assign(di + 1, budget - d * t)
                        del chosen[-len(shape):]

    assign(0, params.n)
    results.sort(key=BlockSymbol.key)
    return tuple(results)


def enumerate_admissible_symbols(
    params: InstanceParams,
) -> tuple[AdmissibleSymbol, ...]:
    """All admissible symbols of the instance, grouped from their blocks."""
    out: list[AdmissibleSymbol] = []
    for block in enumerate_block_symbols(params):
        out.extend(symbols_in_block(block, params))
    out.sort(key=AdmissibleSymbol.key)
    return tuple(out)


def is_unipotent_block(block: BlockSymbol) -> bool:
    """True when every orbit of the block is the identity orbit."""
    return all(orb.rep == IDENTITY for orb, _, _ in block.triples)


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


def block_suborbit_set(
    orbit: FrobeniusOrbit, m: int, lam: Partition, params: InstanceParams
) -> tuple[RootLabel, ...]:
    """The constraint suborbit attached to one block entry; may be empty."""
    if m < 1:
        raise DomainError(f"multiplicity must be positive, got {m}")
    ei = e_gamma(orbit.size, params)
    if not is_e_core(lam, ei):
        raise DomainError(f"{lam} is not an {ei}-core")
    if sum(lam) > m or (m - sum(lam)) % ei != 0:
        raise DomainError(f"core {lam} incompatible with multiplicity {m}")
    step = _suborbit_step(orbit.size, m, sum(lam), params)
    if step is None:
        return ()
    sub = suborbit(orbit.rep, step, params)
    expected, rem = divmod(ei * orbit.size, params.e)
    if rem or len(sub) != expected:
        raise InvariantViolationError(
            f"suborbit of {orbit.rep} has {len(sub)} elements, expected {expected}"
        )
    return sub


@lru_cache(maxsize=None)
def _suborbit_elems(rep: RootLabel, step: int, eq: int) -> frozenset[RootLabel]:
    out = [rep]
    x = _twist_step(rep, step, eq)
    while x != rep:
        out.append(x)
        x = _twist_step(x, step, eq)
    return frozenset(out)


@lru_cache(maxsize=None)
def _z_fixes_cycle(z: RootLabel, rep: RootLabel, step: int, eq: int) -> bool:
    elems = _suborbit_elems(rep, step, eq)
    return frozenset(center_act(z, x) for x in elems) == elems


def _block_steps(block: BlockSymbol, params: InstanceParams):
    """(orbit representative, suborbit step) pairs with empty sets dropped."""
    return [
        (orb.rep, step)
        for orb, m, lam in block.triples
        for step in (_suborbit_step(orb.size, m, sum(lam), params),)
        if step is not None
    ]


def kappa_block(block: BlockSymbol, params: InstanceParams) -> int:
    """Number of SL-blocks covered by this block: |C1 intersect C2|."""
    (counts,) = block_counts((block,), params)
    return counts.kappa_b


# Weight symbols per block.


def weight_symbols_in_block(
    block: BlockSymbol, params: InstanceParams
) -> tuple[WeightSymbol, ...]:
    """All weight symbols over the given block symbol, sorted."""
    table = params.e_gamma_table
    per_slot = []
    for orb, m, lam in block.triples:
        ei = table[orb.size - 1]
        w = (m - sum(lam)) // ei
        per_slot.append(enumerate_core_functions(ei, w, params.ell))
    out = [
        WeightSymbol(
            tuple(
                (orb, m, lam, func)
                for (orb, m, lam), func in zip(block.triples, combo)
            )
        )
        for combo in itertools.product(*per_slot)
    ]
    out.sort(key=WeightSymbol.key)
    return tuple(out)


def count_weight_symbols_in_block(block: BlockSymbol, params: InstanceParams) -> int:
    table = params.e_gamma_table
    count = 1
    for orb, m, lam in block.triples:
        ei = table[orb.size - 1]
        count *= count_core_functions(ei, (m - sum(lam)) // ei, params.ell)
    return count


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
# quantity of the SL descent of one block, from one pass over its labels.

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


@dataclass(frozen=True)
class SlBlockReport:
    """Counts for the SL-blocks covered by one GL-block."""

    covered: int
    ibr_per_block: int
    weights_per_block: int


class BlockCounts(NamedTuple):
    """What block_counts finds on one block.

    ibr and weights are the closed-form GL counts of the block.  kappa_b is
    the number of SL-blocks it covers; is_rep says it is the least of its
    center orbit.  sl_ibr and sl_weights count Brauer characters and weights
    per covered SL-block: stabilizer order over kappa_b, summed over the
    center orbits that meet the block (each meets it in one C1-orbit).
    stab_sq_sum adds the squared stabilizer order of every symbol of the
    block; summed over a center-stable set of blocks and divided by the
    center order, it is the sum of stabilizer orders over center orbits.
    failed names the checks of verify.run_instance that fail on this
    block.
    """

    block: BlockSymbol
    ibr: int
    weights: int
    kappa_b: int
    is_rep: bool
    sl_ibr: int
    sl_weights: int
    stab_sq_sum: int
    failed: set[str]


def block_counts(blocks, params: InstanceParams):
    """Yield one BlockCounts per block, in order: count, restrict to SL and
    check each block in one pass over its labels.

    The SL quantities are computed whether or not sl_refusal admits the
    instance; callers decide whether they apply.  On an admitted instance
    kappa_ell, the ell-part of a divisor of gcd(n, q - eps), is 1, so the
    stabilizer order of a symbol is its full kappa
    (test_symbols::test_kappa_ell_is_one_when_gcd_is_ellprime).

    With to = to_weight_symbol and from = from_weight_symbol, the bijection
    checks at every symbol s of every block of an instance prove:

    * bijection_roundtrip, from(to(s)) == s: to is injective.
    * bijection_block_preserved, to(s) is a weight symbol of the block: as
      the block has as many weight symbols as symbols (counts_match,
      gl_blockwise_awc), to is onto them and to(from(w)) == w for each.
    * bijection_kappa_preserved, equal stabilizers in C1: equal in the
      whole center, since a z fixing a label fixes its block
      (test_symbols::test_z_act_commutes_with_block_of).
    * bijection_equivariant, to(z s) == z to(s) for every z at one s per
      center orbit: at every s' = y s too, as z_act is a group action
      (test_symbols::test_z_act_is_a_group_action_on_symbols), so
      to(z s') = to(zy s) = zy to(s) = z to(s').  The check compares keys,
      with z to(s) acted on by _acted_key; the same test shows that
      _acted_key gives the key of z_act on every label.
    """
    eq = params.eq
    zs_rest = center_elements(params).elements[1:]
    for block in blocks:
        failed: set[str] = set()
        nsym = count_symbols_in_block(block, params)
        nwt = count_weight_symbols_in_block(block, params)
        if nsym != nwt:
            failed.add("gl_blockwise_awc")
        # kappa_b = |C1 intersect C2|: C1 is the setwise stabilizer of the
        # block in the center, C2 the elements that fix every constraint
        # suborbit of it.
        own, c1_rest, least = _center_orbit(block, zs_rest, eq)
        is_rep = least == own
        kappa_b = 1
        if c1_rest:
            steps = _block_steps(block, params)
            for z in c1_rest:
                if all(_z_fixes_cycle(z, rep, step, eq) for rep, step in steps):
                    kappa_b += 1

        # A central element outside C1 moves every label of the block out of
        # it, so the stabilizer of a label lies in C1 and a center orbit
        # meets the block in one C1-orbit: the label scans run over C1 only,
        # and "least" below is least in the C1-orbit.
        #
        # Weight side first: stabilizers keyed by symbol key, so the
        # bijection checks below can match into them.
        wt_list = weight_symbols_in_block(block, params)
        if len(wt_list) != nwt:
            failed.add("counts_match")
        wt_stab: dict = {}
        wt_orbits: dict = {}
        for w in wt_list:
            own, fixing, least = _center_orbit(w, c1_rest, eq)
            stab = wt_stab[own] = 1 + len(fixing)
            wt_orbits.setdefault(least, stab)

        sym_list = symbols_in_block(block, params)
        if len(sym_list) != nsym:
            failed.add("counts_match")
        sym_orbits: dict = {}
        stab_sq_sum = 0
        for s in sym_list:
            own, fixing, least = _center_orbit(s, c1_rest, eq)
            stab = 1 + len(fixing)
            sym_orbits.setdefault(least, stab)
            stab_sq_sum += stab * stab
            image = to_weight_symbol(s, params)
            if from_weight_symbol(image, params) != s:
                failed.add("bijection_roundtrip")
            image_key = image.key()
            image_stab = wt_stab.get(image_key)
            if image_stab is None:
                failed.add("bijection_block_preserved")
            elif image_stab != stab:
                failed.add("bijection_kappa_preserved")
            # Every center orbit of symbols meets a representative block in
            # one C1-orbit, so this tests each center orbit at one symbol.
            # The weight side acts on keys, the symbol side through z_act,
            # so each comparison also checks _acted_key against z_act.
            if is_rep and least == own and any(
                _acted_key(z, image_key, eq)
                != to_weight_symbol(z_act(z, s, params), params).key()
                for z in zs_rest
            ):
                failed.add("bijection_equivariant")

        # kappa_b divides the stabilizer order of every center orbit iff it
        # divides their gcd; then the quotients below are exact.
        if math.gcd(*sym_orbits.values(), *wt_orbits.values()) % kappa_b:
            failed.add("kappa_divisibility")
        sl_ibr = sum(sym_orbits.values()) // kappa_b
        sl_weights = sum(wt_orbits.values()) // kappa_b
        if sl_ibr != sl_weights:
            failed.add("sl_blockwise_awc")
        yield BlockCounts(
            block, nsym, nwt, kappa_b, is_rep, sl_ibr, sl_weights, stab_sq_sum, failed
        )


def sl_block_report(block: BlockSymbol, params: InstanceParams) -> SlBlockReport:
    """Per block SL-level counts; refuses modes the counts do not cover."""
    refusal = sl_refusal(params)
    if refusal is not None:
        raise UnsupportedModeError(refusal)
    (counts,) = block_counts((block,), params)
    if "kappa_divisibility" in counts.failed:
        raise InvariantViolationError(
            f"a stabilizer order in block {block.key()} is not divisible"
            f" by kappa_b = {counts.kappa_b}"
        )
    return SlBlockReport(counts.kappa_b, counts.sl_ibr, counts.sl_weights)


# Serialization.


def block_to_jsonable(sym: BlockSymbol) -> list[dict]:
    return [
        {"orbit": str(orb.rep), "deg": orb.size, "m": m, "lambda": list(lam)}
        for orb, m, lam in sym.triples
    ]


def clear_symbol_caches() -> None:
    """Drop per-regime caches; used between grid regimes to bound memory."""
    _suborbit_elems.cache_clear()
    _z_fixes_cycle.cache_clear()
