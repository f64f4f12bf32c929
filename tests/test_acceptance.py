"""Acceptance gate: the seven binding criteria, one printed verdict line each.

Criteria 2-4 share one streamed sweep over the full desk grid (n <= 6,
q in {2,3,4,5,7,8,9}, eps = +-1, ell in {2,3,5,7} with ell != p), collected
once per test session by the grid_summary fixture.
"""

import math
import time

import pytest

from blockweights.arith import (
    e_gamma,
    is_prime,
    make_params,
    mult_order,
    prime_power_decomposition,
)
from blockweights.errors import ConfigurationError, UnsupportedModeError
from blockweights.oracle import cross_check
from blockweights.partitions import all_partitions_upto, count_with_core, is_e_core
from blockweights.semisimple import center_elements
from blockweights.symbols import (
    enumerate_block_symbols,
    from_weight_symbol,
    kappa,
    kappa_ellprime,
    kappa_weight,
    symbols_in_block,
    to_weight_symbol,
    weight_symbols_in_block,
    z_act,
)
from blockweights.verify import iter_grid, run_instance
from blockweights.weights import count_core_functions

pytestmark = pytest.mark.slow

GRID_QS = (2, 3, 4, 5, 7, 8, 9)
GRID_ELLS = (2, 3, 5, 7)

BIJECTION_CHECKS = (
    "bijection_roundtrip",
    "bijection_block_preserved",
    "bijection_kappa_preserved",
    "bijection_equivariant",
)
SL_CHECKS = ("sl_blockwise_awc", "kappa_divisibility", "sl_global_consistency")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _grid_params(max_n: int):
    out = []
    for q in GRID_QS:
        p = prime_power_decomposition(q)[0]
        for ell in GRID_ELLS:
            if ell == p:
                continue
            for eps in (1, -1):
                for n in range(1, max_n + 1):
                    out.append(make_params(n=n, q=q, eps=eps, ell=ell))
    return out


@pytest.fixture(scope="module")
def grid_summary():
    start = time.monotonic()
    summary = {
        "instances": 0,
        "blocks": 0,
        "gl_failures": [],
        "bijection_instances_n5": 0,
        "bijection_failures_n5": [],
        "admitted": 0,
        "sl_failures": [],
    }
    for report in iter_grid(_grid_params(6)):
        p = report.params
        key = (p.n, p.q, p.eps, p.ell)
        summary["instances"] += 1
        summary["blocks"] += report.totals["blocks"]
        if not (report.checks["counts_match"] and report.checks["gl_blockwise_awc"]):
            summary["gl_failures"].append(key)
        if p.n <= 5:
            summary["bijection_instances_n5"] += 1
            if not all(report.checks[c] for c in BIJECTION_CHECKS):
                summary["bijection_failures_n5"].append(key)
        if report.totals["sl_refused"] is None:
            summary["admitted"] += 1
            if not all(report.checks[c] for c in SL_CHECKS):
                summary["sl_failures"].append(key)
    summary["elapsed"] = time.monotonic() - start
    return summary


def test_criterion_1_core_function_counting():
    start = time.monotonic()
    checked = 0
    bad = []
    for ell in (2, 3, 5):
        for e in range(1, 6):
            cores = [lam for lam in all_partitions_upto(6) if is_e_core(lam, e)]
            for w in range(8):
                expected = count_core_functions(e, w, ell)
                for lam in cores:
                    checked += 1
                    if count_with_core(sum(lam) + e * w, e, lam) != expected:
                        bad.append((e, ell, w, lam))
    elapsed = time.monotonic() - start
    _verdict(
        1,
        not bad,
        f"count_with_core = count_core_functions on {checked} cases "
        f"(e<=5, ell in 2/3/5, w<=7, |core|<=6) in {elapsed:.1f} s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_2_gl_blockwise_awc(grid_summary):
    s = grid_summary
    _verdict(
        2,
        not s["gl_failures"],
        f"|symbols| = |weights| per block on {s['instances']} instances, "
        f"{s['blocks']} blocks, grid swept in {s['elapsed']:.0f} s"
        + (f"; failures {s['gl_failures'][:3]}" if s["gl_failures"] else ""),
    )


def test_criterion_3_bijection(grid_summary):
    assert not grid_summary["bijection_failures_n5"]
    start = time.monotonic()
    checked = 0
    bad = []
    for params in _grid_params(5):
        zs = center_elements(params).elements
        admitted = params.ell > 2 and math.gcd(params.n, params.q - params.eps) % params.ell != 0
        instance_ok = True
        for block in enumerate_block_symbols(params):
            block_weights = weight_symbols_in_block(block, params)
            for w in block_weights:
                if to_weight_symbol(from_weight_symbol(w, params), params) != w:
                    instance_ok = False
            weight_set = set(block_weights)
            for sym in symbols_in_block(block, params):
                checked += 1
                image = to_weight_symbol(sym, params)
                if (
                    image not in weight_set
                    or from_weight_symbol(image, params) != sym
                    or image.base_triples() != block.triples
                    or kappa_ellprime(sym, params) != kappa_weight(image, params)
                    or (admitted and kappa(sym, params) != kappa_weight(image, params))
                    or any(
                        to_weight_symbol(z_act(z, sym, params), params)
                        != z_act(z, image, params)
                        for z in zs[1:]
                    )
                ):
                    instance_ok = False
        if not instance_ok:
            bad.append((params.n, params.q, params.eps, params.ell))
    elapsed = time.monotonic() - start
    _verdict(
        3,
        not bad,
        f"round trips both ways, block and kappa preservation, every-z "
        f"equivariance on {checked} symbols across {len(_grid_params(5))} "
        f"instances (n <= 5) in {elapsed:.0f} s"
        + (f"; failures {bad[:3]}" if bad else ""),
    )


def test_criterion_4_sl_restriction(grid_summary):
    s = grid_summary
    _verdict(
        4,
        not s["sl_failures"],
        f"ibr = weights per block, exact divisibility, global consistency "
        f"on {s['admitted']} admitted instances"
        + (f"; failures {s['sl_failures'][:3]}" if s["sl_failures"] else ""),
    )


def test_criterion_5_worked_instance():
    report = run_instance(make_params(n=2, q=5, eps=1, ell=3))
    totals = report.totals
    sl_rows = {}
    for row in report.rows:
        label = tuple((str(o.rep), m, lam) for o, m, lam in row.block.triples)
        sl_rows[label] = (row.sl.covered, row.sl.ibr_per_block, row.sl.weights_per_block)
    ok = (
        totals["blocks"] == 12
        and totals["total_symbols"] == 16
        and totals["total_weight_symbols"] == 16
        and totals["sl_block_count"] == 5
        and totals["sl_total_ibr"] == 7
        and sl_rows[(("0/1", 2, ()),)] == (1, 2, 2)
        and sl_rows[(("1/4", 1, (1,)), ("3/4", 1, (1,)))] == (2, 1, 1)
        and report.all_passed
    )
    _verdict(
        5,
        ok,
        "GL_2(5) ell=3: 12 blocks, 16 symbols, 16 weights; SL: 5 blocks, 7 labels; "
        f"unipotent {sl_rows[(('0/1', 2, ()),)]}, order-4 pair {sl_rows[(('1/4', 1, (1,)), ('3/4', 1, (1,)))]}",
    )


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    named = {
        ("GL", 2, 5, 3): 16,
        ("SL", 2, 5, 3): 7,
        ("GU", 2, 2, 5): 9,
    }
    bad = []
    for (kind, n, q, ell), expected in named.items():
        record = cross_check(kind, n, q, ell)
        if not (record["pass"] and record["engine_count"] == expected == record["ell_regular"]):
            bad.append((kind, n, q, ell))
    compared = 0
    slowest = 0.0
    for q in (2, 3, 4, 5):
        for n in (1, 2):
            for ell in (2, 3, 5, 7):
                for kind in ("GL", "SL", "GU", "SU"):
                    t0 = time.monotonic()
                    try:
                        record = cross_check(kind, n, q, ell)
                    except (ConfigurationError, UnsupportedModeError):
                        continue
                    slowest = max(slowest, time.monotonic() - t0)
                    compared += 1
                    if not record["pass"]:
                        bad.append((kind, n, q, ell))
    elapsed = time.monotonic() - start
    _verdict(
        6,
        not bad and compared == 76,
        f"3 named checks plus {compared} in-cap runs (n<=2, q<=5) agree; "
        f"slowest run {slowest:.1f} s, total {elapsed:.0f} s"
        + (f"; failures {bad[:3]}" if bad else ""),
    )


def test_criterion_7_arithmetic_relations():
    bad = []
    prime_powers = []
    for q in range(2, 201):
        try:
            prime_powers.append((q, prime_power_decomposition(q)[0]))
        except ConfigurationError:
            continue
    odd_primes_50 = [m for m in range(3, 51) if is_prime(m)]
    for q, p in prime_powers:
        for ell in odd_primes_50:
            if ell == p:
                continue
            e0 = mult_order(q, ell)
            if make_params(n=1, q=q, eps=1, ell=ell).e != e0:
                bad.append(("plus", q, ell))
            e_minus = make_params(n=1, q=q, eps=-1, ell=ell).e
            wanted = 2 * e0 if e0 % 2 else (e0 // 2 if e0 % 4 == 2 else e0)
            if e_minus != wanted:
                bad.append(("minus", q, ell))
    order_checked = 0
    for q, p in prime_powers:
        if q > 50:
            continue
        for ell in (2, 3, 5, 7, 11, 13):
            if ell == p:
                continue
            for eps in (1, -1):
                params = make_params(n=1, q=q, eps=eps, ell=ell)
                for d in range(1, 25):
                    order_checked += 1
                    if e_gamma(d, params) != params.e // math.gcd(params.e, d):
                        bad.append(("e_gamma", q, eps, ell, d))
    _verdict(
        7,
        not bad,
        f"e/e0 relation on q<=200 with odd ell<=50, and "
        f"e_gamma(d) = e/gcd(e,d) on {order_checked} (q<=50, ell<=13, d<=24) cases"
        + (f"; failures {bad[:3]}" if bad else ""),
    )
