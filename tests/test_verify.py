import ast
import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import pathlib
import stat
import tempfile
import threading
import time
import weakref

import pytest

import blockweights
from blockweights import cli, symbols, verify
from blockweights.arith import make_params, prime_power_decomposition
from blockweights.errors import ConfigurationError, InvariantViolationError
from blockweights.partitions import enumerate_partitions
from blockweights.semisimple import enumerate_ellprime_orbits
from blockweights.symbols import block_to_jsonable
from blockweights.weights import count_core_functions, enumerate_core_functions
from blockweights.verify import (
    InstanceReport,
    iter_grid,
    run_instance,
    write_csv,
    write_json,
)

from helpers import report_order, run_grid

WORKED = make_params(n=2, q=5, eps=1, ell=3)

ALWAYS_ON = {
    "counts_match",
    "gl_blockwise_awc",
    "bijection_roundtrip",
    "bijection_block_preserved",
    "bijection_kappa_preserved",
    "bijection_equivariant",
}
ADMITTED_ONLY = {"sl_blockwise_awc", "kappa_divisibility", "sl_global_consistency"}

N3_GRID = [
    make_params(n=n, q=q, eps=eps, ell=ell)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for ell in (2, 3, 5, 7)
    if ell != prime_power_decomposition(q)[0]
    for eps in (1, -1)
    for n in (1, 2, 3)
]


def report_to_jsonable(report: InstanceReport) -> dict:
    """Reference for the JSON report: the nested dicts whose
    json.dumps(indent=2, sort_keys=True) text write_json must write."""
    p = report.params
    refusal = report.totals["sl_refused"]
    blocks = []
    for row in report.rows:
        if refusal is None:
            sl = {
                "covered": row.kappa_b,
                "ibr_per_block": row.sl_ibr,
                "weights_per_block": row.sl_weights,
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


def json_text(reports) -> str:
    """The JSON report of reports, as write_json writes it."""
    buf = io.StringIO()
    write_json(reports, buf)
    return buf.getvalue()


def csv_text(reports) -> str:
    """The CSV report of reports, as write_csv writes it."""
    buf = io.StringIO()
    write_csv(reports, buf)
    return buf.getvalue()


def reference_json(reports) -> str:
    payload = [report_to_jsonable(r) for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_csv(reports) -> str:
    """Reference for the CSV report: each label is the compact json.dumps
    of block_to_jsonable."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(verify.CSV_FIELDS)
    for report in reports:
        p = report.params
        refusal = report.totals["sl_refused"]
        for row in report.rows:
            label = json.dumps(
                block_to_jsonable(row.block), separators=(",", ":"), sort_keys=True
            )
            if refusal is None:
                sl_cols = (row.kappa_b, row.sl_ibr, row.sl_weights, "")
            else:
                sl_cols = ("", "", "", refusal)
            writer.writerow(
                (p.n, p.q, p.eps, p.ell, label, row.ibr, row.weights, row.kappa_b)
                + sl_cols
            )
    return buf.getvalue()


def test_worked_instance_report():
    report = run_instance(WORKED)
    assert report.all_passed
    assert set(report.checks) == ALWAYS_ON | ADMITTED_ONLY
    assert all(report.checks.values())
    assert report.totals == {
        "blocks": 12,
        "total_symbols": 16,
        "total_weight_symbols": 16,
        "sl_block_count": 5,
        "sl_total_ibr": 7,
        "sl_refused": None,
    }
    assert len(report.rows) == 12
    for row in report.rows:
        assert row.ibr == row.weights


def test_degree_one_instance_is_trivial():
    report = run_instance(make_params(n=1, q=7, eps=1, ell=5))
    assert report.all_passed
    for row in report.rows:
        assert (row.ibr, row.weights) == (1, 1)


def test_ell_two_instance_reports_refusal():
    report = run_instance(make_params(n=2, q=5, eps=1, ell=2))
    assert report.all_passed
    assert set(report.checks) == ALWAYS_ON
    assert report.totals["sl_refused"] == "ell=2 upper bound only"
    assert report.totals["sl_block_count"] is None
    (doc,) = json.loads(json_text([report]))
    assert len(doc["blocks"]) == len(report.rows)
    assert all(b["sl"] == {"refused": "ell=2 upper bound only"} for b in doc["blocks"])


def test_center_divisor_instance_reports_refusal():
    report = run_instance(make_params(n=3, q=4, eps=1, ell=3))
    assert report.all_passed
    assert set(report.checks) == ALWAYS_ON
    assert report.totals["sl_refused"] == "ell divides gcd(n, q-eps)"


def test_unipotent_only_filter():
    report = run_instance(WORKED, unipotent_only=True)
    assert report.all_passed
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.ibr, row.weights, row.kappa_b) == (2, 2, 1)
    assert report.totals["sl_refused"] == "unipotent-only run"
    assert report.totals["total_symbols"] == 2


@pytest.fixture
def gc_state():
    """Put the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_instance_leaves_the_collector_as_found(gc_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert run_instance(WORKED).all_passed
    assert gc.isenabled() is enabled


def test_run_instance_restores_the_collector_on_raise(gc_state, monkeypatch):
    seen = []

    def broken(orbits, params):
        seen.append(gc.isenabled())
        raise InvariantViolationError("planted")

    monkeypatch.setattr(verify, "walk_block_counts", broken)
    gc.enable()
    with pytest.raises(InvariantViolationError, match="planted"):
        run_instance(WORKED)
    assert seen == [False]
    assert gc.isenabled()


def plant_failed(monkeypatch, name):
    """Make every row of the block walk fail the check called name."""
    real = verify.walk_block_counts

    def planted(orbits, params):
        for row in real(orbits, params):
            yield row._replace(failed=(name,))

    monkeypatch.setattr(verify, "walk_block_counts", planted)


def test_run_instance_refuses_a_failed_name_that_is_no_check(monkeypatch):
    """A misspelt name must not vanish and leave every check passing."""
    plant_failed(monkeypatch, "kappa_divisibilty")
    with pytest.raises(InvariantViolationError, match="'kappa_divisibilty'"):
        run_instance(WORKED)


def test_run_instance_drops_sl_names_only_when_refused(monkeypatch):
    plant_failed(monkeypatch, "kappa_divisibility")
    report = run_instance(WORKED)
    assert [n for n, ok in report.checks.items() if not ok] == ["kappa_divisibility"]
    refused = run_instance(make_params(n=2, q=5, eps=1, ell=2))
    assert refused.totals["sl_refused"] and refused.all_passed


def test_run_instance_leaves_no_cyclic_garbage(gc_state):
    """The collector is paused in run_instance because an instance builds
    no reference cycle: once its report is dropped, reference counting has
    freed everything it made.  The first run fills the (q, eps, ell)
    caches, which are kept, not garbage."""
    params = make_params(n=4, q=9, eps=-1, ell=7)
    run_instance(params)
    gc.disable()
    gc.collect()
    report = run_instance(params)
    assert report.all_passed
    del report
    assert gc.collect() == 0


def test_cached_enumerators_build_no_cycles(gc_state):
    """The enumerators an instance runs cold, called past their caches."""
    gc.disable()
    gc.collect()
    assert len(enumerate_partitions.__wrapped__(8)) == 22
    functions = enumerate_core_functions.__wrapped__(2, 9, 3)
    assert len(functions) == count_core_functions(2, 9, 3)
    assert gc.collect() == 0


def test_rejects_defining_characteristic():
    with pytest.raises(ConfigurationError):
        run_instance(make_params(n=2, q=5, eps=1, ell=5))


def test_json_shape_and_determinism():
    report = run_instance(WORKED)
    text = json_text([report])
    again = json_text([run_instance(WORKED)])
    assert text == again
    assert text.endswith("\n")
    payload = json.loads(text)
    assert len(payload) == 1
    doc = payload[0]
    assert doc["instance"] == {"n": 2, "q": 5, "eps": 1, "ell": 3, "e": 2}
    assert len(doc["blocks"]) == 12
    unipotent = [b for b in doc["blocks"] if b["label"] == [{"orbit": "0/1", "deg": 1, "m": 2, "lambda": []}]]
    assert unipotent[0]["sl"] == {"covered": 1, "ibr_per_block": 2, "weights_per_block": 2}
    assert doc["checks"]["gl_blockwise_awc"] is True


def test_csv_shape():
    reports = [run_instance(WORKED), run_instance(make_params(n=2, q=5, eps=1, ell=2))]
    text = csv_text(reports)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["n", "q", "eps", "ell", "label"]
    assert len(lines) == 1 + 12 + 2
    assert lines[-1].endswith("ell=2 upper bound only")
    assert csv_text(reports) == text


# Out of order, over four (q, eps, ell) regimes and both signs.
UNSORTED_GRID = [
    make_params(n=2, q=2, eps=-1, ell=5),
    make_params(n=1, q=3, eps=1, ell=2),
    make_params(n=2, q=2, eps=1, ell=3),
    make_params(n=1, q=3, eps=-1, ell=2),
    make_params(n=1, q=2, eps=1, ell=3),
]


def test_grid_runner_orders_and_streams(monkeypatch):
    """iter_grid yields in (n, q, eps, ell) order whatever the input order,
    and builds each report only when it is asked for."""
    order = [report_order(r) for r in iter_grid(UNSORTED_GRID)]
    assert order == [
        (1, 2, 1, 3),
        (1, 3, -1, 2),
        (1, 3, 1, 2),
        (2, 2, -1, 5),
        (2, 2, 1, 3),
    ]
    built = []
    real_run_instance = verify.run_instance

    def counted(params, *args):
        built.append(params)
        return real_run_instance(params, *args)

    monkeypatch.setattr(verify, "run_instance", counted)
    stream = iter_grid(UNSORTED_GRID)
    assert report_order(next(stream)) == (1, 2, 1, 3) and len(built) == 1
    assert [report_order(r) for r in stream] == order[1:] and len(built) == 5


def test_grid_sweep_keeps_one_instance_cached():
    """After a sweep over several regimes, the caches keyed by an instance
    hold that instance only: the orbits of the last one, and the stabilizer
    map of the last one that built it."""
    for _ in iter_grid(UNSORTED_GRID):
        pass
    assert enumerate_ellprime_orbits.cache_info().currsize == 1
    assert symbols._block_stabilizers.cache_info().currsize <= 1


def test_grid_report_bytes_are_pinned():
    """The JSON and CSV reports of the n <= 3 grid (126 instances) have
    fixed bytes: a refactor of the labels, their keys or the kernel must
    keep them."""
    reports = run_grid(N3_GRID)
    assert len(reports) == 126
    digests = [
        hashlib.sha256(text.encode()).hexdigest()
        for text in (json_text(reports), csv_text(reports))
    ]
    assert digests == [
        "b4e1dc85e371a451cc79e00d1e2578cd87dca2bd2ec8e40c2b1fc9d3271e2b6d",
        "bb05c3c838321d9ddb00ca43c9eb5a9b19ae5e24d470443738583a6a97ae79c1",
    ]

def test_cli_verify_exit_zero(capsys):
    rc = cli.main(["verify", "--n", "2", "--q", "5", "--eps", "+1", "--ell", "3"])
    out = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.out)
    assert payload[0]["totals"]["sl_total_ibr"] == 7
    assert "ok" in out.err


def test_cli_verify_range_and_csv(tmp_path, capsys):
    target = tmp_path / "report.csv"
    rc = cli.main([
        "verify", "--n", "1..2", "--q", "5", "--eps", "+1,-1", "--ell", "2,3",
        "--format", "csv", "--out", str(target),
    ])
    capsys.readouterr()
    assert rc == 0
    lines = target.read_text().splitlines()
    assert lines[0].startswith("n,q,eps,ell,label")
    assert len(lines) > 8


def test_cli_verify_skips_defining_characteristic(capsys):
    rc = cli.main(["verify", "--n", "1", "--q", "5", "--eps", "+1", "--ell", "5,3"])
    out = capsys.readouterr()
    assert rc == 0
    assert "skip" in out.err


def test_cli_verify_rejects_non_prime_ell(capsys):
    for q, ell in (("5,7", "1"), ("8", "4")):
        rc = cli.main(["verify", "--n", "2", "--q", q, "--eps", "+1", "--ell", ell])
        out = capsys.readouterr()
        assert rc == 2
        assert "ell must be prime" in out.err
        assert "skip" not in out.err


def test_cli_verify_eps_list_skips_empty_tokens(capsys):
    """A trailing comma is accepted in --eps as in --q; a list with no sign
    left is rejected."""
    rc = cli.main(["verify", "--n", "2", "--q", "5,", "--eps", "+1,", "--ell", "3"])
    out = capsys.readouterr()
    assert rc == 0
    assert [r["instance"]["eps"] for r in json.loads(out.out)] == [1]
    rc = cli.main(["verify", "--n", "2", "--q", "5", "--eps", " , ", "--ell", "3"])
    out = capsys.readouterr()
    assert rc == 2
    assert "empty --eps list" in out.err


def test_cli_verify_rejects_bad_q(capsys):
    rc = cli.main(["verify", "--n", "2", "--q", "6", "--eps", "+1", "--ell", "3"])
    out = capsys.readouterr()
    assert rc == 2
    assert "error:" in out.err


def test_cli_verify_refuses_a_huge_range_before_expanding_it(capsys):
    """A list of more than cli.MAX_LIST_VALUES values exits 2 at once: a range
    is measured before it is expanded, and the tokens of a list count
    together."""
    start = time.perf_counter()
    rc = cli.main(
        ["verify", "--n", "1..1000000000000", "--q", "5", "--eps", "+1", "--ell", "3"]
    )
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert rc == 2
    assert "--n lists more than 10000 values" in out.err
    rc = cli.main(
        ["verify", "--n", "2", "--q", "5", "--eps", "+1", "--ell", "3,1..10000"]
    )
    assert rc == 2
    assert "--ell lists more than 10000 values" in capsys.readouterr().err
    assert cli._parse_int_list("1..10000", "--n") == list(range(1, 10001))


def test_cli_exit_one_on_check_failure(monkeypatch, capsys):
    report = run_instance(WORKED)
    broken = dataclasses.replace(report, checks={**report.checks, "gl_blockwise_awc": False})
    monkeypatch.setattr(cli, "iter_grid", lambda *a, **k: iter((broken,)))
    rc = cli.main(["verify", "--n", "2", "--q", "5", "--eps", "+1", "--ell", "3"])
    out = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in out.err


def test_cli_oracle_subcommand(capsys):
    rc = cli.main(["oracle", "--group", "GU", "--n", "2", "--q", "2", "--ell", "5"])
    out = capsys.readouterr()
    assert rc == 0
    record = json.loads(out.out)
    assert record["group"] == "GU_2(2)"
    assert record["pass"] is True
    assert record["engine_count"] == 9


def test_cli_oracle_refusal_exits_two(capsys):
    rc = cli.main(["oracle", "--group", "SL", "--n", "2", "--q", "5", "--ell", "2"])
    out = capsys.readouterr()
    assert rc == 2
    assert "error:" in out.err


def test_report_jsonable_matches_json_text():
    report = run_instance(make_params(n=2, q=2, eps=-1, ell=5))
    doc = report_to_jsonable(report)
    assert json.loads(json_text([report]))[0] == doc


@pytest.mark.parametrize("unipotent_only", [False, True])
def test_json_emitter_matches_reference_on_grid(unipotent_only):
    """Byte identity with json.dumps of the reference dicts on the n <= 3
    grid, which holds admitted instances and both refusals (ell = 2, ell
    dividing the center); unipotent-only runs take the "unipotent-only run"
    refusal branch."""
    reports = run_grid(N3_GRID, unipotent_only=unipotent_only)
    refusals = {r.totals["sl_refused"] for r in reports}
    if unipotent_only:
        assert refusals == {"unipotent-only run"}
    else:
        assert refusals == {
            None,
            "ell=2 upper bound only",
            "ell divides gcd(n, q-eps)",
        }
    assert json_text(reports) == reference_json(reports)


@pytest.mark.parametrize("unipotent_only", [False, True])
def test_csv_labels_match_the_reference_on_grid(unipotent_only):
    """Byte identity of the CSV report, whose labels are written from the
    memoized text of each triple, with the json.dumps reference on the
    n <= 3 grid, on an n = 4 instance with a center of order 10 and on an
    empty report."""
    reports = run_grid(N3_GRID + [make_params(n=4, q=9, eps=-1, ell=7)], unipotent_only)
    empty = InstanceReport(WORKED, (), {}, {**reports[0].totals, "blocks": 0})
    for given in (reports, [empty], []):
        assert csv_text(given) == reference_csv(given)


def test_json_emitter_matches_reference_on_edge_reports():
    report = run_instance(WORKED)
    broken = dataclasses.replace(report, checks={**report.checks, "gl_blockwise_awc": False})
    empty = InstanceReport(WORKED, (), dict(report.checks), {**report.totals, "blocks": 0})
    for reports in ([broken], [empty], [empty, broken]):
        assert json_text(reports) == reference_json(reports)
    assert '"blocks": [],' in json_text([empty])
    assert '"gl_blockwise_awc": false' in json_text([broken])
    assert json_text([]) == reference_json([]) == "[]\n"


def test_cli_verify_directory_out_exits_two_before_the_sweep(tmp_path, capsys):
    rc = cli.main([
        "verify", "--n", "2", "--q", "5", "--eps", "+1", "--ell", "3",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr()
    assert rc == 2
    assert f"error: cannot write {tmp_path}: Is a directory" in out.err
    assert "ok:" not in out.err
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_unwritable_out_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    rc = cli.main([
        "verify", "--n", "2", "--q", "5", "--eps", "+1", "--ell", "3",
        "--out", str(target),
    ])
    out = capsys.readouterr()
    assert rc == 2
    assert f"error: cannot write {target}:" in out.err
    assert "ok:" not in out.err and "FAIL:" not in out.err
    assert out.out == ""
    assert not target.exists()


@pytest.mark.parametrize("fault", [InvariantViolationError("planted"), KeyboardInterrupt()])
def test_cli_verify_stopped_sweep_keeps_the_old_out(tmp_path, monkeypatch, fault):
    """A sweep that stops leaves an earlier report byte for byte as it was,
    and no temporary file beside it."""
    target = tmp_path / "r.json"
    target.write_bytes(b"earlier report\n")

    def stopped(*args, **kwargs):
        raise fault
        yield

    monkeypatch.setattr(cli, "iter_grid", stopped)
    argv = ["verify", "--n", "1", "--q", "5", "--eps", "+1", "--ell", "3",
            "--out", str(target)]
    if isinstance(fault, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
    assert target.read_bytes() == b"earlier report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["r.json"]


def test_cli_verify_stopped_sweep_leaves_no_new_out(tmp_path, monkeypatch):
    """A sweep that stops removes the --out file it created itself."""

    def stopped(*args, **kwargs):
        raise InvariantViolationError("planted")
        yield

    monkeypatch.setattr(cli, "iter_grid", stopped)
    assert cli.main([
        "verify", "--n", "1", "--q", "5", "--eps", "+1", "--ell", "3",
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert list(tmp_path.iterdir()) == []


VERIFY_N2 = ["verify", "--n", "2", "--q", "5", "--eps", "+1", "--ell", "3"]


def test_cli_verify_out_replaces_an_existing_file_in_place(tmp_path, capsys):
    """A longer earlier report is replaced whole; the file keeps its mode
    and its hard links see the new report."""
    assert cli.main(VERIFY_N2) == 0
    report = capsys.readouterr().out
    target = tmp_path / "r.json"
    target.write_text("x" * (2 * len(report)))
    target.chmod(0o600)
    os.link(target, tmp_path / "link.json")
    assert cli.main(VERIFY_N2 + ["--out", str(target)]) == 0
    assert target.read_text() == report
    assert (tmp_path / "link.json").read_text() == report
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_cli_verify_out_writes_through_a_symlink(tmp_path, capsys):
    assert cli.main(VERIFY_N2) == 0
    report = capsys.readouterr().out
    real = tmp_path / "real.json"
    real.write_text("earlier report\n")
    link = tmp_path / "r.json"
    link.symlink_to(real)
    assert cli.main(VERIFY_N2 + ["--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == report


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cli_verify_out_to_a_named_pipe(tmp_path, capsys):
    """A non-regular --out is written to, not replaced or truncated."""
    assert cli.main(VERIFY_N2) == 0
    report = capsys.readouterr().out
    fifo = tmp_path / "r.pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    assert cli.main(VERIFY_N2 + ["--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert received == [report]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


class Tape(io.TextIOBase):
    """Stands in for stdout or stderr; records each write, in the order of
    the writes to every tape, in events."""

    def __init__(self, name, events):
        self.name = name
        self.events = events

    def write(self, text):
        self.events.append((self.name, text))
        return len(text)


def test_cli_verify_prints_verdicts_before_the_report(monkeypatch):
    """Every verdict line is on stderr before any of the report is on
    stdout, and the verdict lines and the report both come in
    (n, q, eps, ell) order."""
    argv = ["verify", "--n", "1..2", "--q", "3,5", "--eps", "+1,-1", "--ell", "2"]
    events = []
    monkeypatch.setattr("sys.stdout", Tape("out", events))
    monkeypatch.setattr("sys.stderr", Tape("err", events))
    assert cli.main(argv) == 0
    first_out = [name for name, _ in events].index("out")
    err = "".join(text for name, text in events if name == "err")
    out = "".join(text for name, text in events if name == "out")
    assert "".join(text for name, text in events[:first_out]) == err
    verdicts = [
        tuple(int(field.split("=")[1]) for field in line.split()[1:5])
        for line in err.splitlines()
        if line.startswith("ok:")
    ]
    assert len(verdicts) == 8 and verdicts == sorted(verdicts)
    order = [
        tuple(doc["instance"][key] for key in ("n", "q", "eps", "ell"))
        for doc in json.loads(out)
    ]
    assert order == verdicts
    assert out == json_text(run_grid([make_params(*k) for k in order]))


def test_cli_verify_keeps_no_report(monkeypatch, capsys):
    """Each report is written into the spool and dropped as the next one is
    built: when report k comes from the sweep, the reports before k - 1 are
    gone (k - 1 is still the loop variable of the writer)."""
    refs = []
    alive_before = []
    real_iter_grid = cli.iter_grid

    def watched(*args, **kwargs):
        for report in real_iter_grid(*args, **kwargs):
            alive_before.append([ref() is not None for ref in refs[:-1]])
            refs.append(weakref.ref(report))
            yield report

    monkeypatch.setattr(cli, "iter_grid", watched)
    for fmt in ("json", "csv"):
        refs.clear()
        alive_before.clear()
        argv = ["verify", "--n", "1..3", "--q", "5", "--eps", "+1", "--ell", "2,3",
                "--format", fmt]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert len(alive_before) == 6
        assert not any(map(any, alive_before))


def test_cli_verify_stopped_after_spooling_keeps_the_old_out(
    tmp_path, monkeypatch, capsys
):
    """A sweep that stops after two instances have been spooled leaves an
    earlier --out byte for byte as it was, no file beside it or in the
    temporary directory, and nothing on stdout."""
    target = tmp_path / "r.json"
    target.write_bytes(b"earlier report\n")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    real_iter_grid = cli.iter_grid

    def stopped(*args, **kwargs):
        yield from itertools.islice(real_iter_grid(*args, **kwargs), 2)
        raise InvariantViolationError("planted")

    monkeypatch.setattr(cli, "iter_grid", stopped)
    rc = cli.main(["verify", "--n", "1..3", "--q", "5", "--eps", "+1", "--ell", "3",
                   "--out", str(target)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.count("ok:") == 2 and "invariant violated: planted" in out.err
    assert out.out == ""
    assert target.read_bytes() == b"earlier report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["r.json"]


def test_src_holds_no_test_only_code():
    """Every top-level function and class of the package is named somewhere
    in the package (a Name or an Attribute), exported in __all__, or the
    console entry point cli.main.  A helper that only tests call belongs in
    the tests."""
    package = pathlib.Path(blockweights.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    kept = named | set(blockweights.__all__)
    unused = sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in kept
        and (module, node.name) != ("cli", "main")
    )
    assert unused == []


def test_src_imports_only_names_it_uses():
    """Every name a module of the package imports is named in that module
    or listed in its __all__, so a deletion leaves no import behind.  A
    from __future__ import binds no name."""
    package = pathlib.Path(blockweights.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                named.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in bound if name not in named]
    assert unused == []
