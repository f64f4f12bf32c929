"""Helpers that only the tests call: whole-instance symbol lists and
retained grid reports, both built from the streaming library entry points,
the reference twist walk, center-cycle walk and block walk, the instances
the references run on, and a reset of the symbol caches for tests that
plant faults under them."""

import math
from bisect import bisect_right

from blockweights import symbols
from blockweights.arith import is_prime, make_params
from blockweights.semisimple import (
    RootLabel,
    center_elements,
    enumerate_ellprime_orbits,
    translate_orbit,
)
from blockweights.symbols import (
    IDENTITY_ORBIT,
    enumerate_block_symbols,
    symbols_in_block,
    walk_block_counts,
)
from blockweights.verify import iter_grid

# Centers of order 4, 3, 5, 10 and 2; in the last, some center orbits meet
# a block in more than one label.
REFERENCE_INSTANCES = (
    make_params(n=2, q=5, eps=1, ell=3),
    make_params(n=2, q=2, eps=-1, ell=5),
    make_params(n=3, q=4, eps=-1, ell=3),
    make_params(n=2, q=9, eps=-1, ell=7),
    make_params(n=4, q=5, eps=-1, ell=3),
)


def suborbit(sigma, d, eq):
    """Reference walk: the iterates of the d-fold twist sigma ->
    sigma**(eq**d) starting at sigma, as labels in walk order.  Has
    deg(sigma) / gcd(d, deg(sigma)) elements; d = 1 walks the orbit."""
    den = sigma.den
    assert d >= 1 and math.gcd(eq, den) == 1
    u = pow(eq, d, den)
    elems = [sigma]
    num = sigma.num * u % den
    while num != sigma.num:
        assert len(elems) < den
        elems.append(RootLabel(den, num))
        num = num * u % den
    return tuple(elems)


def _blocks_after(items, slots, candidates, last, budget, head, record, ell):
    """Yield every tuple of triples (item, m, lam) that extends head by
    triples over items[i] with i > last, where slots[i] = (weight, e),
    m >= 1 and lam is an e-core of a partition of m, of total size budget:
    weight times m summed.  They come ordered by i, then m, then lam, slot
    by slot.  candidates[b] lists the indices of the items of weight at
    most b.  Each tuple comes with record, the record of head, with the
    record of each triple added folded in by symbols._fold."""
    idx = candidates[budget]
    for i in idx[bisect_right(idx, last) :]:
        item = items[i]
        weight, e = slots[i]
        for m in range(1, budget // weight + 1):
            rest = budget - weight * m
            if rest and not (candidates[rest] and candidates[rest][-1] > i):
                continue  # no item after this one fits in rest
            for lam, slot in symbols._slot_records(m, e, ell):
                triples = head + ((item, m, lam),)
                extended = symbols._fold(record, slot)
                if rest:
                    yield from _blocks_after(
                        items, slots, candidates, i, rest, triples, extended, ell
                    )
                else:
                    yield triples, extended


def reference_walk(items, slots, n, ell):
    """Reference for symbols._walk_blocks, top down: each tuple is extended
    slot by slot from the empty head, recursively, and passed up through
    one generator per slot."""
    candidates = [[] for _ in range(n + 1)]
    for i, (weight, _) in enumerate(slots):
        for b in range(weight, n + 1):
            candidates[b].append(i)
    return _blocks_after(items, slots, candidates, -1, n, (), symbols._NO_SLOT, ell)


def orbit_slots(orbits, params):
    """The (weight, e) of each orbit in the orbit walk: its degree and
    e_gamma of it."""
    table = params.e_gamma_table
    return [(orb.size, table[orb.size - 1]) for orb in orbits]


def center_cycles(params):
    """Reference: the cycle of every twist orbit of the instance under the
    generator g = 1/|Z| of the center, walked by translate_orbit, which
    raises if a translate has another size.  Maps each orbit to its cycle,
    which starts at its least orbit."""
    order = center_elements(params).order
    g = RootLabel(order, 1)
    cycles = {}
    for orb in enumerate_ellprime_orbits(params):
        if orb in cycles:
            continue
        walk = [orb]
        while True:
            image = translate_orbit(g, walk[-1], params.eq)
            if image == orb:
                break
            walk.append(image)
            assert len(walk) <= order
        walk = tuple(walk)
        cycles.update(dict.fromkeys(walk, walk))
    return cycles


def reference_block_stabilizers(params):
    """Reference: the fixed-block pass from the center cycle of every orbit.
    1/r = g**(|Z| / r) moves a cycle of length L by |Z| / r mod L places: it
    fixes every orbit of the cycle when L divides |Z| / r, and otherwise
    splits the cycle into L / r cycles of r orbits.  The blocks fixed by 1/r
    come from the block walk over those cycles, and C1 from z_act at every
    nontrivial central element."""
    center = center_elements(params)
    order = center.order
    if order == 1:
        return {}
    primes = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    cycles = {r: [] for r in primes}
    for orb, walk in center_cycles(params).items():
        if walk[0] != orb:
            continue
        length = len(walk)
        for r in primes:
            if order // r % length == 0:
                cycles[r].extend((x,) for x in walk)
            elif orb.size * r <= params.n:
                span = length // r
                cycles[r].extend(tuple(walk[i::span]) for i in range(span))
    table = params.e_gamma_table
    stabilizers = {}
    for found in cycles.values():
        slots = [(c[0].size * len(c), table[c[0].size - 1]) for c in found]
        for slot_triples, _ in symbols._walk_blocks(found, slots, params.n, params.ell):
            triples = [(orb, m, lam) for cycle, m, lam in slot_triples for orb in cycle]
            block = symbols.BlockSymbol(tuple(sorted(triples)))
            stabilizers[block] = tuple(
                z
                for z in center.elements[1:]
                if symbols.z_act(z, block, params) == block
            )
    return stabilizers


def unipotent_blocks(params):
    """The blocks of the identity orbit alone, sorted, as the unipotent-only
    path of run_instance walks them: one per e-core of a partition of n,
    with e = e_gamma(1)."""
    return tuple(row.block for row in walk_block_counts((IDENTITY_ORBIT,), params))


def enumerate_admissible_symbols(params):
    """All admissible symbols of the instance, grouped from their blocks,
    sorted."""
    out = []
    for block in enumerate_block_symbols(params):
        out.extend(symbols_in_block(block, params))
    out.sort()
    return tuple(out)


def run_grid(param_list, unipotent_only=False):
    """All grid reports, in the (n, q, eps, ell) order iter_grid yields;
    retains every row, so keep the grid at desk scale."""
    return tuple(iter_grid(param_list, unipotent_only))


def report_order(report):
    """The (n, q, eps, ell) key of a report."""
    p = report.params
    return (p.n, p.q, p.eps, p.ell)


def clear_symbol_caches():
    """Drop what _slot_counts, _slot_records and _block_stabilizers hold,
    so that code planted under them, or undone, is run again.  The kernel
    keeps the first orbits of the stabilizer map for one run only."""
    symbols._slot_counts.cache_clear()
    symbols._slot_records.cache_clear()
    symbols._block_stabilizers.cache_clear()
