"""Regenerate perfbench/expected.json from the current code.

    python3 perfbench/record.py        # from the repository root; ~5 minutes

The file holds what every benchmark run is gated against: the totals of each
instance any seed can draw, the sha256 of each cli-json report, and the
oracle record of each case.  It also holds the cost of each unit that seeds
other than 0 draw from, so alternate sets can be matched to the named set.
Record it once, at a commit whose reports are trusted; a change that alters
a report must fail the gate, not re-record.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from blockweights import cli, oracle  # noqa: E402
from blockweights.arith import make_params, prime_power_decomposition  # noqa: E402
from blockweights.errors import BlockweightsError  # noqa: E402
from blockweights.semisimple import center_elements  # noqa: E402
from blockweights.verify import iter_grid  # noqa: E402

import workloads as wl  # noqa: E402

# Regimes outside the grid with a center of order at most 2, drawn from by
# grid-small-center on seeds other than 0; n <= 4 keeps each one cheap.
EXTRA_QS = (11, 13, 16, 17, 19, 23, 25, 27)
EXTRA_ELLS = (2, 3, 5, 7, 11, 13, 17)
EXTRA_MAX_N = 4

ORACLE_ELLS = (2, 3, 5, 7, 11, 13)
CLI_ALTERNATES = 6
COST_ROUNDS = 5


def _params(n, q, eps, ell):
    return make_params(n=n, q=q, eps=eps, ell=ell)


def _center(q, eps, ell) -> int:
    return center_elements(_params(1, q, eps, ell)).order


def _regimes(qs, ells):
    for q in qs:
        p = prime_power_decomposition(q)[0]
        for ell in ells:
            if ell != p:
                for eps in (1, -1):
                    yield q, eps, ell


def pool_keys() -> list[str]:
    keys = []
    for q, eps, ell in _regimes(wl.GRID_QS, wl.GRID_ELLS):
        top = 6 if _center(q, eps, ell) <= 2 else 5
        keys += [wl.instance_key(n, q, eps, ell) for n in range(1, top + 1)]
    for q, eps, ell in _regimes(EXTRA_QS, EXTRA_ELLS):
        if not wl.on_grid(q, ell) and _center(q, eps, ell) <= 2:
            keys += [
                wl.instance_key(n, q, eps, ell) for n in range(1, EXTRA_MAX_N + 1)
            ]
    return keys


def sweep(keys: list[str]) -> dict:
    """Totals, center order and in-sweep seconds of every instance."""
    table = {}
    start = time.perf_counter()
    for report in iter_grid([_params(*wl.parse_key(k)) for k in keys]):
        now = time.perf_counter()
        p = report.params
        if not report.all_passed:
            raise SystemExit(f"checks fail on {p}; refusing to record")
        table[wl.instance_key(p.n, p.q, p.eps, p.ell)] = {
            "z": center_elements(p).order,
            "cost_s": now - start,
            "totals": report.totals,
        }
        start = time.perf_counter()
    return dict(sorted(table.items()))


_FRESH = """
import sys, time
sys.path.insert(0, sys.argv[1])
from blockweights.arith import make_params
from blockweights.verify import iter_grid
params = [make_params(*map(int, k.split(","))) for k in sys.argv[2:]]
start = time.perf_counter()
for _ in iter_grid(params):
    pass
print(time.perf_counter() - start)
"""


def fresh_seconds(keys: list[str]) -> float:
    """Seconds of iter_grid over keys in a new interpreter."""
    run = subprocess.run(
        [sys.executable, "-c", _FRESH, os.path.join(ROOT, "src"), *keys],
        check=True,
        capture_output=True,
        text=True,
    )
    return float(run.stdout)


def grid_units(table: dict) -> dict:
    center = [
        k
        for k, rec in table.items()
        if wl.parse_key(k)[0] == 5
        and rec["z"] >= 8
        and rec["totals"]["sl_refused"] is None
    ]
    named_center = wl.instance_key(*wl.CENTER_INSTANCE)
    regimes: dict = {}
    for k, rec in table.items():
        n, q, eps, ell = wl.parse_key(k)
        if rec["z"] <= 2:
            regimes.setdefault((q, eps, ell), []).append(k)
    units = {
        "grid-center": [
            {"keys": [k], "named": k == named_center} for k in sorted(center)
        ],
        "grid-small-center": [
            {"keys": sorted(keys), "named": wl.on_grid(q, ell)}
            for (q, eps, ell), keys in sorted(regimes.items())
        ],
    }
    # Every unit once per round, so a slow spell of the machine lands on
    # all units alike; the cost is the median over the rounds.
    everything = [unit for unit_list in units.values() for unit in unit_list]
    samples = [[] for _ in everything]
    for _ in range(COST_ROUNDS):
        for unit, times in zip(everything, samples):
            times.append(fresh_seconds(unit["keys"]))
    for unit, times in zip(everything, samples):
        unit["cost_s"] = statistics.median(times)
        print(f"unit {unit['keys'][0]}..: {unit['cost_s']:.3f} s", flush=True)
    return units


def cli_grids(table: dict) -> list[dict]:
    """The named cli-json grid first, then the alternates closest to it in
    blocks and in recorded cost."""

    def measure(grid):
        keys = wl.cli_instances(grid)
        if not all(k in table for k in keys):
            return None
        return (
            sum(table[k]["totals"]["blocks"] for k in keys),
            sum(table[k]["cost_s"] for k in keys),
        )

    named = dict(wl.CLI_GRID)
    blocks0, cost0 = measure(named)
    scored = []
    for top_n in (3, 4, 5):
        for nq in range(1, len(wl.GRID_QS) + 1):
            for qs in itertools.combinations(wl.GRID_QS, nq):
                for nl in range(1, len(wl.GRID_ELLS) + 1):
                    for ells in itertools.combinations(wl.GRID_ELLS, nl):
                        for eps in ("+1,-1", "+1", "-1"):
                            grid = {
                                "n": f"1..{top_n}",
                                "q": ",".join(map(str, qs)),
                                "eps": eps,
                                "ell": ",".join(map(str, ells)),
                            }
                            if grid == named:
                                continue
                            got = measure(grid)
                            if got is None:
                                continue
                            db = abs(got[0] / blocks0 - 1)
                            dc = abs(got[1] / cost0 - 1)
                            if db <= 0.02 and dc <= wl.COST_TOLERANCE:
                                scored.append((db + dc, grid))
    scored.sort(key=lambda t: t[0])
    grids = [named] + [grid for _, grid in scored[:CLI_ALTERNATES]]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "report.json")
        for grid in grids:
            argv = ["verify"]
            for flag in ("n", "q", "eps", "ell"):
                argv += [f"--{flag}", grid[flag]]
            if cli.main(argv + ["--format", "json", "--out", out]) != 0:
                raise SystemExit(f"cli verify fails on {grid}; refusing to record")
            with open(out, "rb") as handle:
                grid["sha256"] = hashlib.sha256(handle.read()).hexdigest()
            print(f"cli {grid}", flush=True)
    return grids


def oracle_records() -> dict:
    records = {}
    for kind, n, q in wl.ORACLE_CASES:
        for ell in ORACLE_ELLS:
            try:
                record = oracle.cross_check(kind, n, q, ell)
            except BlockweightsError as exc:  # unsupported cases are left out
                print(f"oracle {kind}_{n}({q}) ell={ell}: {exc}", flush=True)
                continue
            if not record["pass"]:
                raise SystemExit(f"oracle fails on {record}; refusing to record")
            records[wl.oracle_key(kind, n, q, ell)] = record
    return records


def main() -> None:
    table = sweep(pool_keys())
    expected = {
        "instances": table,
        "units": grid_units(table),
        "cli": cli_grids(table),
        "oracle": oracle_records(),
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
