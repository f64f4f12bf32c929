"""Instance level verification runs and deterministic report emission.

run_instance runs the per-block kernel symbols.block_counts on every block of
one (n, q, eps, ell) instance and records, per block, the Brauer character
count, the weight count, and the center stabilizer data, together with a
dictionary of named equality checks:

* gl_blockwise_awc: per block, #Brauer characters == #weight classes;
* counts_match: closed form counts agree with explicit enumerations;
* bijection_*: the relabeling between the two families is a bijection on
  each block, preserves stabilizer orders, and commutes with the center;
* kappa_divisibility, sl_blockwise_awc, sl_global_consistency: the SL-level
  counts, run only when symbols.sl_refusal admits the instance (ell odd and
  prime to gcd(n, q - eps)).  The first two come from the kernel; the last
  compares the instance totals sl_block_count and sl_total_ibr, which are
  sums of the kernel's per-block results.  sl_total_ibr, the sum of
  stabilizer orders over center orbits of symbols, is counted by
  orbit-stabilizer as the sum of squared stabilizer orders over all symbols
  divided by the center order; a remainder fails the check.

Reports serialize to JSON or CSV with fully deterministic bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .arith import InstanceParams
from .semisimple import center_elements, clear_orbit_caches
from .symbols import (
    BlockSymbol,
    SlBlockReport,
    block_counts,
    block_to_jsonable,
    clear_symbol_caches,
    enumerate_block_symbols,
    is_unipotent_block,
    sl_refusal,
)

REFUSAL_FILTERED = "unipotent-only run"

GL_CHECKS = (
    "gl_blockwise_awc",
    "counts_match",
    "bijection_roundtrip",
    "bijection_block_preserved",
    "bijection_kappa_preserved",
    "bijection_equivariant",
)
SL_BLOCK_CHECKS = ("kappa_divisibility", "sl_blockwise_awc")


@dataclass(frozen=True)
class BlockRow:
    """One block of the instance with its counts."""

    block: BlockSymbol
    ibr: int
    weights: int
    kappa_b: int
    sl: SlBlockReport | None


@dataclass(frozen=True)
class InstanceReport:
    params: InstanceParams
    rows: tuple[BlockRow, ...]
    checks: dict
    totals: dict

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def run_instance(
    params: InstanceParams, unipotent_only: bool = False
) -> InstanceReport:
    refusal = REFUSAL_FILTERED if unipotent_only else sl_refusal(params)
    admitted = refusal is None
    blocks = enumerate_block_symbols(params)
    if unipotent_only:
        blocks = tuple(b for b in blocks if is_unipotent_block(b))
    checks = dict.fromkeys(GL_CHECKS + (SL_BLOCK_CHECKS if admitted else ()), True)

    rows: list[BlockRow] = []
    total_symbols = 0
    total_weights = 0
    sl_block_count = 0
    covered_times_ibr = 0
    stab_sq_total = 0
    for counts in block_counts(blocks, params):
        block, ibr, weights, kappa_b, is_rep, sl_ibr, sl_wts, stab_sq, failed = counts
        for name in failed:
            if name in checks:
                checks[name] = False
        total_symbols += ibr
        total_weights += weights
        stab_sq_total += stab_sq
        sl = None
        if admitted:
            sl = SlBlockReport(kappa_b, sl_ibr, sl_wts)
            if is_rep:
                sl_block_count += kappa_b
                covered_times_ibr += kappa_b * sl_ibr
        rows.append(BlockRow(block, ibr, weights, kappa_b, sl))

    # Orbit-stabilizer: a center orbit of symbols with stabilizer order k has
    # |Z| / k members, so summing k^2 / |Z| over all symbols gives the sum of
    # k over the orbits.
    total_kappa, rem = divmod(stab_sq_total, center_elements(params).order)
    if admitted:
        checks["sl_global_consistency"] = (
            rem == 0 and covered_times_ibr == total_kappa
        )

    totals = {
        "blocks": len(rows),
        "total_symbols": total_symbols,
        "total_weight_symbols": total_weights,
        "sl_block_count": sl_block_count if admitted else None,
        "sl_total_ibr": total_kappa if admitted else None,
        "sl_refused": refusal,
    }
    return InstanceReport(params, tuple(rows), checks, totals)


def iter_grid(param_list, unipotent_only: bool = False):
    """Yield one report per instance, grouped by (q, eps, ell) regime with
    caches cleared between regimes.  Streaming: callers that only need the
    check flags can drop each report before the next is built."""
    by_regime: dict = {}
    for params in param_list:
        by_regime.setdefault((params.q, params.eps, params.ell), []).append(params)
    for regime in sorted(by_regime):
        for params in sorted(by_regime[regime], key=lambda t: t.n):
            yield run_instance(params, unipotent_only)
        clear_orbit_caches()
        clear_symbol_caches()


def run_grid(
    param_list, unipotent_only: bool = False
) -> tuple[InstanceReport, ...]:
    """All grid reports, sorted by (n, q, eps, ell); retains every row, so
    keep the grid at desk scale or consume iter_grid instead."""
    reports = sorted(
        iter_grid(param_list, unipotent_only),
        key=lambda r: (r.params.n, r.params.q, r.params.eps, r.params.ell),
    )
    return tuple(reports)


def report_to_jsonable(report: InstanceReport) -> dict:
    p = report.params
    refusal = report.totals["sl_refused"]
    blocks = []
    for row in report.rows:
        if row.sl is not None:
            sl = {
                "covered": row.sl.covered,
                "ibr_per_block": row.sl.ibr_per_block,
                "weights_per_block": row.sl.weights_per_block,
            }
        else:
            sl = {"refused": refusal}
        blocks.append(
            {
                "label": block_to_jsonable(row.block),
                "ibr": row.ibr,
                "weights": row.weights,
                "kappa_b": row.kappa_b,
                "sl": sl,
            }
        )
    return {
        "instance": {"n": p.n, "q": p.q, "eps": p.eps, "ell": p.ell, "e": p.e},
        "blocks": blocks,
        "checks": report.checks,
        "totals": report.totals,
    }


def reports_to_json(reports) -> str:
    payload = [report_to_jsonable(r) for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


CSV_FIELDS = (
    "n",
    "q",
    "eps",
    "ell",
    "label",
    "ibr",
    "weights",
    "kappa_b",
    "sl_covered",
    "sl_ibr_per_block",
    "sl_weights_per_block",
    "sl_refused",
)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for report in reports:
        p = report.params
        refusal = report.totals["sl_refused"] or ""
        for row in report.rows:
            label = json.dumps(
                block_to_jsonable(row.block), separators=(",", ":"), sort_keys=True
            )
            if row.sl is not None:
                sl_cols = (
                    row.sl.covered,
                    row.sl.ibr_per_block,
                    row.sl.weights_per_block,
                    "",
                )
            else:
                sl_cols = ("", "", "", refusal)
            writer.writerow(
                (p.n, p.q, p.eps, p.ell, label, row.ibr, row.weights, row.kappa_b)
                + sl_cols
            )
    return buf.getvalue()
