"""Benchmark of blockweights: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload grid-center --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root.  Each measured run of a workload is a fresh
interpreter (perfbench/child.py) that imports blockweights from src/, so no
cache or retained object carries over from one run to the next.  A run of
this script repeats rounds until the next round would end after --seconds,
but at least MIN_ROUNDS, so that no median rests on fewer runs.  A
round times PROBES_PER_ROUND interpreters that only import the package and
build the inputs, then runs the workload once, untraced.  With --trace 1 the
untraced run of each round is paired with a traced one
(perfbench/layertrace.py) and the per-layer metrics are reported instead of
the end-to-end ones.

wall_s is the sum, over the units of a workload (its instances, or its
oracle cases), of each unit's median seconds across the runs; a workload
of one unit gets the median wall time of its runs.  Taking the median per
unit keeps a slow spell of the machine that hits part of one run out of
the figure.

Every run is gated: its outputs must equal those recorded in
perfbench/expected.json.  Failed units count in `failed`, and any failure
makes this script exit 1.  The latest untraced and traced figures of each
workload, with the machine they were taken on, are kept in
perfbench/out/results.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from statistics import median

import layertrace
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
RESULTS_PATH = os.path.join(OUT_DIR, "results.json")

# Setup-only interpreters timed in each round, spread over the run.
PROBES_PER_ROUND = 4
# At least this many rounds run, even past --seconds.
MIN_ROUNDS = 3
# A run of one workload must end within 180 s; children are killed beyond.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run child.py; returns its JSON result plus setup_s, the time from
    spawning the interpreter to its `ready` line."""
    child = os.path.join(HERE, "child.py")
    cmd = [sys.executable, child, ROOT, workload, str(seed), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise ChildError(f"{workload} {mode}: no ready line")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} {mode}: out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildError(f"{workload} {mode}: exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def wall_estimate(plain: list[dict]) -> float:
    """Sum over the units of each unit's median seconds across the runs."""
    units = {unit for r in plain for unit in r["unit_s"]}
    return sum(
        median(r["unit_s"][unit] for r in plain if unit in r["unit_s"])
        for unit in units
    )


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    """name -> (value, unit); medians over the untraced runs."""
    wall = wall_estimate(plain)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    if "blocks" in plain[0]:
        metrics["blocks_per_s"] = (median(r["blocks"] for r in plain) / wall, "1/s")
    if "first_verdict_s" in plain[0]:
        metrics["first_verdict_s"] = (median(r["first_verdict_s"] for r in plain), "s")
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """name -> (value, unit); medians over the traced runs.  Every name is
    present on every workload, zero where the workload never calls it."""

    def med(get):
        return median(get(r["trace"]) for r in traced)

    metrics = {}
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.calls"] = (med(lambda t: t["layers"][layer]["calls"]), "count")
        metrics[f"{layer}.s"] = (med(lambda t: t["layers"][layer]["s"]), "s")
    metrics["verify.run_instance.self_s"] = (
        med(lambda t: t["layers"]["verify.run_instance"]["self_s"]),
        "s",
    )
    metrics["verify.report_bytes"] = (
        med(lambda t: t["layers"]["verify.serialize"]["bytes"]),
        "B",
    )
    metrics["cli.self_s"] = (med(lambda t: t["layers"]["cli.main"]["self_s"]), "s")
    for short, attr in layertrace.CACHES:
        name = f"{short}.{attr}"
        for field, unit in (("hit_ratio", "ratio"), ("currsize", "count")):
            value = med(lambda t: t["caches"].get(name, {}).get(field, 0))
            metrics[f"cache.{name}.{field}"] = (value, unit)
    overhead = wall_estimate(traced) - wall_estimate(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def environment() -> dict:
    uname = os.uname()
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def save_results(workload: str, trace: bool, entry: dict) -> None:
    """Keep the latest untraced and traced result of each workload."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {"workloads": {}}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH, encoding="utf-8") as handle:
            results = json.load(handle)
    results["environment"] = environment()
    mode = "traced" if trace else "untraced"
    results["workloads"].setdefault(workload, {})[mode] = entry
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    # A round starts only if a round of median length would end in time.
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start + median(rounds) <= seconds
    ):
        begin = time.perf_counter()
        for _ in range(PROBES_PER_ROUND):
            setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
        plain.append(spawn(workload, seed, "plain", deadline))
        if trace:
            traced.append(spawn(workload, seed, "traced", deadline))
        rounds.append(time.perf_counter() - begin)
    runs = plain + traced
    setups += [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "seed": seed,
        "seconds": seconds,
        "runs": {
            "plain": len(plain),
            "traced": len(traced),
            "probes": PROBES_PER_ROUND * len(rounds),
        },
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end(plain, setups),
        "failures": [f for r in runs for f in r["failures"]][:20],
    }
    result["end_to_end"]["fail_ratio"] = (failed / attempted, "ratio")
    if trace:
        result["per_layer"] = per_layer(plain, traced)
        result["trace_overhead_s"] = result["per_layer"]["trace.overhead_s"][0]
        result["trace_found"] = traced[0]["trace"]["found"]
    save_results(workload, trace, result)
    return result


def print_block(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def declared_metrics() -> dict:
    """Metric names BENCHMARK.json declares, keyed by whether traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "blockweights", "__init__.py")):
        print(f"error: no blockweights source under {ROOT}/src", file=sys.stderr)
        return 2
    contract = declared_metrics()[bool(args.trace)]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            got = measure(name, args.seed, args.seconds, bool(args.trace))
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_block(f"{name} seed={args.seed} end-to-end (untraced):", got["end_to_end"])
        if args.trace:
            print_block(f"{name} per-layer (traced):", got["per_layer"])
            for layer, found in got["trace_found"].items():
                print(f"  {layer} wraps: {', '.join(found) or 'nothing found'}")
        for failure in got["failures"]:
            print(f"  gate failure: {failure}")
        attempted += got["attempted"]
        failed += got["failed"]
        chosen = got["per_layer"] if args.trace else got["end_to_end"]
        missing = contract - chosen.keys()
        if missing:
            print(f"error: no value for {sorted(missing)}", file=sys.stderr)
            return 1
        for metric in sorted(contract):
            value, unit = chosen[metric]
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
