"""Command line front end.

verify: check a grid of (n, q, eps, ell) instances in that order, printing
each verdict on stderr and spooling each report to a temporary file as the
instance finishes, then copy the JSON or CSV report to stdout or --out.
oracle: cross check one small instance against its brute force matrix group.

Exit codes: 0 all checks passed, 1 a check or internal invariant failed,
2 the request itself was invalid or unsupported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import stat
import sys
import tempfile

from .arith import make_params, prime_power_decomposition
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolationError,
    UnsupportedModeError,
)
from .oracle import cross_check
from .verify import iter_grid, write_csv, write_json


# The most values one --n, --q or --ell list may hold.  A range is measured
# before it is expanded, so a huge one is refused without allocating it.
MAX_LIST_VALUES = 10_000


def _parse_int_list(text: str, what: str) -> list[int]:
    """Comma separated integers and A..B ranges, deduplicated and sorted."""
    out: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ".." in token:
                lo_text, hi_text = token.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise ValueError
            else:
                lo = hi = int(token)
        except ValueError:
            raise ConfigurationError(f"cannot parse {what} token {token!r}")
        if len(out) + (hi - lo + 1) > MAX_LIST_VALUES:
            raise ConfigurationError(
                f"{what} lists more than {MAX_LIST_VALUES} values"
            )
        out.update(range(lo, hi + 1))
    if not out:
        raise ConfigurationError(f"empty {what} list")
    return sorted(out)


def _parse_eps_list(text: str) -> list[int]:
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("+1", "1"):
            value = 1
        elif token == "-1":
            value = -1
        else:
            raise ConfigurationError(f"eps must be +1 or -1, got {token!r}")
        if value not in out:
            out.append(value)
    if not out:
        raise ConfigurationError("empty --eps list")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockweights",
        description="Blockwise Alperin weight counts for GL/SL/GU/SU "
        "in non-defining characteristic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run the block/weight checks over a parameter grid"
    )
    verify.add_argument("--n", required=True, help="ranks, e.g. 1..4 or 2,3")
    verify.add_argument("--q", required=True, help="prime powers, e.g. 2,3,4,5")
    verify.add_argument(
        "--eps", default="+1,-1", help="signs, +1 linear / -1 unitary"
    )
    verify.add_argument("--ell", required=True, help="primes, e.g. 2,3,5")
    verify.add_argument(
        "--unipotent-only",
        action="store_true",
        help="restrict to blocks whose orbits are all the identity",
    )
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--out", help="write the report here instead of stdout")

    oracle = sub.add_parser(
        "oracle", help="brute force matrix group cross check of one instance"
    )
    oracle.add_argument("--group", required=True, choices=("GL", "SL", "GU", "SU"))
    oracle.add_argument("--n", required=True, type=int)
    oracle.add_argument("--q", required=True, type=int)
    oracle.add_argument("--ell", required=True, type=int)
    return parser


def _cmd_verify(args) -> int:
    ns = _parse_int_list(args.n, "--n")
    qs = _parse_int_list(args.q, "--q")
    ells = _parse_int_list(args.ell, "--ell")
    epss = _parse_eps_list(args.eps)
    param_list = []
    for q in qs:
        p = prime_power_decomposition(q)[0]
        for ell in ells:
            if ell == p:
                # defining characteristic is out of scope; skip the
                # combination rather than failing the whole grid
                print(
                    f"skip: q={q} ell={ell} (defining characteristic)",
                    file=sys.stderr,
                )
                continue
            for eps in epss:
                for n in ns:
                    param_list.append(make_params(n, q, eps, ell))
    if not param_list:
        raise ConfigurationError("the parameter grid is empty")
    out = sys.stdout
    created = False
    if args.out:
        # Opened before the sweep to check it can be written, but in append
        # mode: the old contents go only once the new report is ready.
        created = not os.path.lexists(args.out)
        try:
            out = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write {args.out}: {exc.strerror or exc}"
            ) from None
    failed = []

    def verdicts(reports):
        # Print each instance's verdict as it passes on to the writer.
        for report in reports:
            p = report.params
            status = "ok" if report.all_passed else "FAIL"
            if not report.all_passed:
                failed.append(p)
            print(
                f"{status}: n={p.n} q={p.q} eps={p.eps:+d} ell={p.ell}"
                f" blocks={report.totals['blocks']}",
                file=sys.stderr,
            )
            yield report

    write = write_json if args.format == "json" else write_csv
    done = False
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            reports = iter_grid(param_list, unipotent_only=args.unipotent_only)
            write(verdicts(reports), spool)
            if out is not sys.stdout and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)
            spool.seek(0)
            shutil.copyfileobj(spool, out)
        done = True
    finally:
        if out is not sys.stdout:
            out.close()
            if created and not done:
                os.unlink(args.out)
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    record = cross_check(args.group, args.n, args.q, args.ell)
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0 if record["pass"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_oracle(args)
    except (ConfigurationError, DomainError, UnsupportedModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
