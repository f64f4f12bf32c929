"""Helpers that only the tests call: whole-instance symbol lists and
retained grid reports, both built from the streaming library entry points."""

from blockweights.symbols import enumerate_block_symbols, symbols_in_block
from blockweights.verify import iter_grid, report_order


def enumerate_admissible_symbols(params):
    """All admissible symbols of the instance, grouped from their blocks,
    sorted."""
    out = []
    for block in enumerate_block_symbols(params):
        out.extend(symbols_in_block(block, params))
    out.sort()
    return tuple(out)


def run_grid(param_list, unipotent_only=False):
    """All grid reports in report_order; retains every row, so keep the grid
    at desk scale."""
    return tuple(sorted(iter_grid(param_list, unipotent_only), key=report_order))
