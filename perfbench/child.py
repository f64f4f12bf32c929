"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED MODE

MODE is `setup` (import the package and build the inputs, then exit),
`plain` (run untraced) or `traced` (run under the layer trace).  The package
is imported from ROOT/src.  Prints `ready` once the inputs are built, then,
unless MODE is setup, one JSON line with the measurements and the result of
the output gate.  Everything runs in this one process, with no threads.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

import layertrace
import workloads as wl

clock = time.perf_counter

VERDICT = re.compile(r"^(ok|FAIL): n=(\d+) q=(\d+) eps=([+-]\d+) ell=(\d+) blocks=(\d+)$")


def timed(tracer, layer: str, fn) -> tuple[float, float, float]:
    """(start, seconds, peak RSS in MB) of fn, inside a span of the layer
    when traced.  An exception from the package is printed, not raised: the
    units it left unfinished then fail the gate."""
    start = clock()
    try:
        if tracer is None:
            fn()
        else:
            tracer.call(layer, fn)
    except Exception:
        traceback.print_exc(file=sys.__stderr__)
    seconds = clock() - start
    return start, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def gate_totals(keys, observed: dict, table: dict) -> list[str]:
    """One failure per instance whose verdict or totals differ from the
    table; observed maps key -> (passed, totals), totals possibly partial."""
    failures = []
    for key in keys:
        if key not in observed:
            failures.append(f"{key}: no verdict")
            continue
        passed, totals = observed[key]
        want = {name: table[key]["totals"][name] for name in totals}
        if not passed:
            failures.append(f"{key}: checks failed")
        elif totals != want:
            failures.append(f"{key}: totals {totals} != recorded {want}")
    return failures


def grid_workload(bw, workload: str, seed: int, expected: dict):
    keys = wl.grid_instances(workload, seed, expected)
    params = [bw.make_params(*wl.parse_key(key)) for key in keys]

    def run(tracer):
        iter_grid = bw.verify.iter_grid
        observed = {}
        unit_s = {}

        def sweep():
            # Each instance is timed from the previous yield to its own, so
            # the cache clears between regimes count and the units sum to
            # the wall time.
            last = clock()
            for report in iter_grid(params):
                p = report.params
                key = wl.instance_key(p.n, p.q, p.eps, p.ell)
                observed[key] = (report.all_passed, report.totals)
                now = clock()
                unit_s[key] = now - last
                last = now
            if unit_s:
                unit_s[key] += clock() - last

        _, wall, rss = timed(tracer, "verify.iter_grid", sweep)
        failures = gate_totals(keys, observed, expected["instances"])
        return {
            "wall_s": wall,
            "unit_s": unit_s,
            "peak_rss_mb": rss,
            "blocks": sum(totals["blocks"] for _, totals in observed.values()),
            "attempted": len(keys),
            "failed": len(failures),
            "failures": failures,
        }

    return run


class VerdictStream(io.TextIOBase):
    """Stands in for stderr; keeps the text and the time of the first
    ok:/FAIL: line."""

    def __init__(self):
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None and text.startswith(("ok:", "FAIL:")):
            self.first = clock()
        self.parts.append(text)
        return len(text)


def _report_units(path: str) -> dict:
    """key -> (passed, totals) read back from a JSON report."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    out = {}
    for item in payload:
        inst = item["instance"]
        key = wl.instance_key(inst["n"], inst["q"], inst["eps"], inst["ell"])
        out[key] = (all(item["checks"].values()), item["totals"])
    return out


def cli_workload(bw, seed: int, expected: dict, out_dir: str):
    # The package __init__ does not import its command line front end.
    cli = importlib.import_module("blockweights.cli")
    grid = wl.cli_grid(seed, expected)
    keys = wl.cli_instances(grid)
    path = os.path.join(out_dir, f"cli-report-{os.getpid()}.json")
    argv = ["verify"]
    for flag in ("n", "q", "eps", "ell"):
        argv += [f"--{flag}", grid[flag]]
    argv += ["--format", "json", "--out", path]

    def run(tracer):
        os.makedirs(out_dir, exist_ok=True)
        stream = VerdictStream()
        code = []
        saved, sys.stderr = sys.stderr, stream
        try:
            start, wall, rss = timed(
                tracer, "cli.main", lambda: code.append(cli.main(argv))
            )
        finally:
            sys.stderr = saved
        observed = {}
        for line in "".join(stream.parts).splitlines():
            match = VERDICT.match(line)
            if match:
                status, n, q, eps, ell, blocks = match.groups()
                key = wl.instance_key(int(n), int(q), int(eps), int(ell))
                observed[key] = (status == "ok", {"blocks": int(blocks)})
        report_failures = [] if code == [0] else [f"exit code {code}"]
        digest = None
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            if digest != grid["sha256"]:
                # Attribute the difference to the instances that show it.
                observed = _report_units(path)
            os.remove(path)
        if digest != grid["sha256"]:
            report_failures.append(f"report sha256 {digest} != {grid['sha256']}")
        failures = gate_totals(keys, observed, expected["instances"])
        return {
            "wall_s": wall,
            "unit_s": {"cli.main": wall},
            "first_verdict_s": stream.first - start if stream.first else wall,
            "peak_rss_mb": rss,
            "blocks": sum(totals["blocks"] for _, totals in observed.values()),
            "attempted": len(keys),
            "failed": len(failures) or (1 if report_failures else 0),
            "failures": report_failures + failures,
        }

    return run


def oracle_workload(bw, seed: int, expected: dict):
    cases = wl.oracle_cases(seed, expected)

    def run(tracer):
        cross_check = bw.oracle.cross_check
        records = []
        unit_s = {}

        def check_all():
            last = clock()
            for case in cases:
                records.append(cross_check(*case))
                now = clock()
                unit_s[wl.oracle_key(*case)] = now - last
                last = now

        _, wall, rss = timed(tracer, "oracle.cross_check", check_all)
        failures = []
        for i, case in enumerate(cases):
            want = expected["oracle"][wl.oracle_key(*case)]
            if i >= len(records):
                failures.append(f"{case}: no record")
            elif records[i] != want:
                failures.append(f"{case}: {records[i]} != recorded {want}")
        return {
            "wall_s": wall,
            "unit_s": unit_s,
            "peak_rss_mb": rss,
            "attempted": len(cases),
            "failed": len(failures),
            "failures": failures,
        }

    return run


def main() -> int:
    root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import blockweights as bw

    if not os.path.realpath(bw.__file__).startswith(src + os.sep):
        print(f"blockweights imported from {bw.__file__}, not {src}", file=sys.stderr)
        return 2
    expected = wl.load_expected()
    if workload == "cli-json":
        out_dir = os.path.join(root, "perfbench", "out")
        run = cli_workload(bw, seed, expected, out_dir)
    elif workload == "oracle-n3":
        run = oracle_workload(bw, seed, expected)
    else:
        run = grid_workload(bw, workload, seed, expected)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = layertrace.Tracer() if mode == "traced" else None
    result = run(tracer)
    if tracer is not None:
        tracer.close()
        result["trace"] = {
            "layers": tracer.stats,
            "caches": tracer.cache_stats(),
            "found": tracer.found,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
