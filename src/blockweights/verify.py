"""Instance level verification runs and deterministic report emission.

run_instance runs the per-block kernel, through symbols.walk_block_counts, on
every block of one (n, q, eps, ell) instance as the block walk builds it, and
keeps its records, one symbols.BlockCounts per block, as the report rows: the
Brauer character count, the weight count, the center stabilizer data and the
per-SL-block counts; they equal the records symbols.block_counts gives the
enumerated blocks.  The finished rows are summed column by column, and their
failed names gathered, by map and sum, with no Python loop per row.  With
them comes a dictionary of named equality checks:

* gl_blockwise_awc: per block, #Brauer characters == #weight classes;
* counts_match: closed form counts agree with explicit enumerations;
* bijection_*: the relabeling between the two families is a bijection on
  each block, preserves stabilizer orders, and commutes with the center
  (symbols.block_counts proves that its checks show this).  The bijection
  is checked once per block slot.  Stabilizers and center equivariance are
  checked by label only on the blocks whose stabilizer C1 in the center is
  nontrivial, which the blocks fixed by the central elements of prime order
  give, equivariance at every symbol of each; on the others they follow
  from the slot structure and from the identity that the order of the
  center divides eq - 1, so that translating by a central element keeps
  the size of every twist orbit, which the kernel checks once per
  instance;
* kappa_divisibility, sl_blockwise_awc, sl_global_consistency: the SL-level
  counts, run only when symbols.sl_refusal admits the instance (ell odd and
  prime to gcd(n, q - eps)); the rows of a refused instance carry the
  kernel's SL counts, but the reports write the refusal in their place.
  The first two come from the kernel, which counts the per-SL-block sums by
  orbit-stabilizer in the block stabilizer C1; the last compares the
  instance totals, sl_block_count and sl_total_ibr.  All of them are counted
  by orbit-stabilizer in the center Z over every block: sl_block_count, the
  sum of kappa_b over center orbits of blocks, is kappa_b |C1| summed over
  the blocks and divided by |Z|; the SL Brauer characters of the covered
  blocks are kappa_b sl_ibr |C1| summed and divided the same way; and
  sl_total_ibr, the sum of stabilizer orders over center orbits of symbols,
  is the sum of squared stabilizer orders over all symbols divided by |Z|.
  A remainder in any of the three divisions fails the check, as one in a
  per-block division fails sl_blockwise_awc.

Reports serialize to JSON or CSV with fully deterministic bytes, written by
write_json and write_csv into a text file one report at a time, keeping
nothing of a report once it is written.  The JSON layout is written out by
hand, straight from the report rows.  Its bytes equal json.dumps(...,
indent=2, sort_keys=True) + "\n" of the nested dicts that report_to_jsonable,
the reference kept in tests/test_verify.py, builds; with an indent json.dumps
runs its pure-Python encoder, several times slower.
"""

from __future__ import annotations

import csv
import gc
import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, mul

from .arith import InstanceParams
from .errors import InvariantViolationError
from .semisimple import center_elements, enumerate_ellprime_orbits
from .symbols import (
    IDENTITY_ORBIT,
    BlockCounts,
    BlockSymbol,
    sl_refusal,
    walk_block_counts,
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
class InstanceReport:
    params: InstanceParams
    rows: tuple[BlockCounts, ...]
    checks: dict
    totals: dict

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def run_instance(
    params: InstanceParams, unipotent_only: bool = False
) -> InstanceReport:
    """Verify one instance: every block, or with unipotent_only the blocks
    of the identity orbit alone, whose report refuses the SL counts.

    The cyclic garbage collector is paused while the report is built and
    left as it was found, on return and on raise.  Its passes would only
    re-traverse the instance's labels, hundreds of thousands of live tuples
    on the large instances, and those cannot form cycles: they are tuples
    of orbits, integers and partitions, and nothing built here refers back
    to itself, so all of it is freed by reference counting when the report
    is dropped (test_verify::test_run_instance_leaves_no_cyclic_garbage).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if unipotent_only:
            refusal = REFUSAL_FILTERED
            orbits = (IDENTITY_ORBIT,)
        else:
            refusal = sl_refusal(params)
            orbits = enumerate_ellprime_orbits(params)
        admitted = refusal is None
        checks = dict.fromkeys(
            GL_CHECKS + (SL_BLOCK_CHECKS if admitted else ()), True
        )

        rows = tuple(walk_block_counts(orbits, params))
        for name in set(chain.from_iterable(map(attrgetter("failed"), rows))):
            if name in checks:
                checks[name] = False
            elif name not in SL_BLOCK_CHECKS:  # dropped when SL is refused
                raise InvariantViolationError(f"a block failed unknown check {name!r}")
        total_symbols = sum(map(attrgetter("ibr"), rows))
        total_weights = sum(map(attrgetter("weights"), rows))
        stab_sq_total = sum(map(attrgetter("stab_sq_sum"), rows))
        covered_sum = covered_ibr_sum = 0
        if admitted:
            kappa_b = map(attrgetter("kappa_b"), rows)
            covered = list(map(mul, kappa_b, map(attrgetter("c1_order"), rows)))
            covered_sum = sum(covered)
            covered_ibr_sum = sum(map(mul, covered, map(attrgetter("sl_ibr"), rows)))

        # Orbit-stabilizer in the center Z: an orbit of blocks with
        # stabilizer C1 has |Z| / |C1| members, and one of symbols with
        # stabilizer order k has |Z| / k, so the sums weighted by |C1| or k
        # over |Z| add each orbit once.
        order = center_elements(params).order
        sl_block_count, block_rem = divmod(covered_sum, order)
        covered_times_ibr, ibr_rem = divmod(covered_ibr_sum, order)
        total_kappa, rem = divmod(stab_sq_total, order)
        if admitted:
            checks["sl_global_consistency"] = (
                not (block_rem or ibr_rem or rem)
                and covered_times_ibr == total_kappa
            )

        totals = {
            "blocks": len(rows),
            "total_symbols": total_symbols,
            "total_weight_symbols": total_weights,
            "sl_block_count": sl_block_count if admitted else None,
            "sl_total_ibr": total_kappa if admitted else None,
            "sl_refused": refusal,
        }
        return InstanceReport(params, rows, checks, totals)
    finally:
        if was_enabled:
            gc.enable()


def iter_grid(param_list, unipotent_only: bool = False):
    """Yield one report per instance in (n, q, eps, ell) order, the order in
    which the reports are written.  Streaming: a caller, as the writers do,
    can drop each report before the next is built.  A cache keyed by the
    parameters of an instance keeps the current instance only; those keyed
    by slot shape or by orbit translation are shared by all instances and
    never cleared."""
    for params in sorted(param_list, key=lambda p: (p.n, p.q, p.eps, p.ell)):
        yield run_instance(params, unipotent_only)


# The JSON layout of a report: keys in sorted order at indent 2, ints written
# with %d, strings with the C string encoder json.dumps itself uses.


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, opened on a line indented by indent."""
    if not items:
        return "[]"
    sep = "\n" + indent + "  "
    return "[" + sep + ("," + sep).join(items) + "\n" + indent + "]"


def _json_dict(d: dict, indent: str) -> str:
    """A small dict, opened on a line indented by indent; a JSON string holds
    no raw newline, so every newline in the text is layout."""
    return json.dumps(d, indent=2, sort_keys=True).replace("\n", "\n" + indent)


_TRIPLE = (
    "{\n"
    '            "deg": %d,\n'
    '            "lambda": %s,\n'
    '            "m": %d,\n'
    '            "orbit": %s\n'
    "          }"
)
_SL = (
    "{\n"
    '          "covered": %d,\n'
    '          "ibr_per_block": %d,\n'
    '          "weights_per_block": %d\n'
    "        }"
)
_SL_REFUSED = '{\n          "refused": %s\n        }'
_BLOCK = (
    "%s{\n"
    '        "ibr": %d,\n'
    '        "kappa_b": %d,\n'
    '        "label": %s,\n'
    '        "sl": %s,\n'
    '        "weights": %d\n'
    "      }"
)
_REPORT_TAIL = (
    ",\n"
    '    "checks": %s,\n'
    '    "instance": %s,\n'
    '    "totals": %s\n'
    "  }"
)


def _triple_texts(block: BlockSymbol, memo: dict, write) -> list[str]:
    """The text of each triple of a block, written by write(orb, m, lam) the
    first time a report meets the triple and then kept in memo: the blocks
    of an instance share most of their triples."""
    items = []
    for triple in block.triples:
        text = memo.get(triple)
        if text is None:
            text = memo[triple] = write(*triple)
        items.append(text)
    return items


def _triple_json(orb, m: int, lam) -> str:
    return _TRIPLE % (
        orb.size,
        _json_array([str(part) for part in lam], " " * 12),
        m,
        encode_basestring_ascii(str(orb.rep)),
    )


def _report_parts(report: InstanceReport):
    """Yield the JSON text of one report in pieces, one per block, so that
    a large report is written without building its whole text."""
    p = report.params
    refusal = report.totals["sl_refused"]
    refused = _SL_REFUSED % json.dumps(refusal)
    triple_json: dict = {}
    yield '{\n    "blocks": ['
    sep = "\n      "
    for row in report.rows:
        if refusal is None:
            sl_text = _SL % (row.kappa_b, row.sl_ibr, row.sl_weights)
        else:
            sl_text = refused
        triples = _triple_texts(row.block, triple_json, _triple_json)
        label = _json_array(triples, " " * 8)
        yield _BLOCK % (sep, row.ibr, row.kappa_b, label, sl_text, row.weights)
        sep = ",\n      "
    yield "\n    ]" if report.rows else "]"
    instance = {"n": p.n, "q": p.q, "eps": p.eps, "ell": p.ell, "e": p.e}
    yield _REPORT_TAIL % (
        _json_dict(report.checks, " " * 4),
        _json_dict(instance, " " * 4),
        _json_dict(report.totals, " " * 4),
    )


def write_json(reports, out) -> None:
    out.write("[")
    sep = "\n  "
    for report in reports:
        out.write(sep)
        out.writelines(_report_parts(report))
        sep = ",\n  "
    out.write("]\n" if sep == "\n  " else "\n]\n")


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


# The label of a CSV row is the compact JSON text of
# json.dumps(block_to_jsonable(block), separators=(",", ":"), sort_keys=True),
# written out by hand as the JSON report's labels are.
_TRIPLE_CSV = '{"deg":%d,"lambda":[%s],"m":%d,"orbit":%s}'


def _triple_csv(orb, m: int, lam) -> str:
    return _TRIPLE_CSV % (
        orb.size,
        ",".join([str(part) for part in lam]),
        m,
        encode_basestring_ascii(str(orb.rep)),
    )


def write_csv(reports, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for report in reports:
        p = report.params
        refusal = report.totals["sl_refused"]
        triple_csv: dict = {}
        for row in report.rows:
            triples = _triple_texts(row.block, triple_csv, _triple_csv)
            label = "[" + ",".join(triples) + "]"
            if refusal is None:
                sl_cols = (row.kappa_b, row.sl_ibr, row.sl_weights, "")
            else:
                sl_cols = ("", "", "", refusal)
            writer.writerow(
                (p.n, p.q, p.eps, p.ell, label, row.ibr, row.weights, row.kappa_b)
                + sl_cols
            )
