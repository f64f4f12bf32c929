"""Helpers that only the tests call: whole-instance symbol lists and
retained grid reports, both built from the streaming library entry points,
the reference twist walk, the instances the references run on, and a reset
of the symbol caches for tests that plant faults under them."""

import math

from blockweights import symbols
from blockweights.arith import make_params
from blockweights.semisimple import RootLabel
from blockweights.symbols import enumerate_block_symbols, symbols_in_block
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
    """Drop what _slot_counts and _block_stabilizers hold, so that code
    planted under them, or undone, is run again."""
    symbols._slot_counts.cache_clear()
    symbols._block_stabilizers.cache_clear()
