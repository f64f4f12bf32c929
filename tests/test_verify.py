import dataclasses
import hashlib
import json

import pytest

from blockweights import cli
from blockweights.arith import make_params, prime_power_decomposition
from blockweights.errors import ConfigurationError
from blockweights.verify import (
    iter_grid,
    report_to_jsonable,
    reports_to_csv,
    reports_to_json,
    run_grid,
    run_instance,
)

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
    assert all(row.sl is None for row in report.rows)


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


def test_rejects_defining_characteristic():
    with pytest.raises(ConfigurationError):
        run_instance(make_params(n=2, q=5, eps=1, ell=5))


def test_json_shape_and_determinism():
    report = run_instance(WORKED)
    text = reports_to_json([report])
    again = reports_to_json([run_instance(WORKED)])
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
    text = reports_to_csv(reports)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["n", "q", "eps", "ell", "label"]
    assert len(lines) == 1 + 12 + 2
    assert lines[-1].endswith("ell=2 upper bound only")
    assert reports_to_csv(reports) == text


def test_grid_runner_orders_and_streams():
    grid = [
        make_params(n=1, q=3, eps=-1, ell=2),
        make_params(n=2, q=2, eps=-1, ell=5),
        make_params(n=1, q=2, eps=1, ell=3),
    ]
    reports = run_grid(grid)
    keys = [(r.params.n, r.params.q, r.params.eps, r.params.ell) for r in reports]
    assert keys == sorted(keys)
    order_key = lambda r: (r.params.n, r.params.q, r.params.eps, r.params.ell)
    streamed = sorted(iter_grid(grid), key=order_key)
    assert [order_key(r) for r in streamed] == keys
    assert reports_to_json(reports) == reports_to_json(streamed)



def test_grid_report_bytes_are_pinned():
    """The JSON and CSV reports of the n <= 3 grid (126 instances) have
    fixed bytes: a refactor of the labels, their keys or the kernel must
    keep them."""
    grid = [
        make_params(n=n, q=q, eps=eps, ell=ell)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for ell in (2, 3, 5, 7)
        if ell != prime_power_decomposition(q)[0]
        for eps in (1, -1)
        for n in (1, 2, 3)
    ]
    reports = run_grid(grid)
    assert len(reports) == 126
    digests = [
        hashlib.sha256(text.encode()).hexdigest()
        for text in (reports_to_json(reports), reports_to_csv(reports))
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


def test_cli_verify_rejects_bad_q(capsys):
    rc = cli.main(["verify", "--n", "2", "--q", "6", "--eps", "+1", "--ell", "3"])
    out = capsys.readouterr()
    assert rc == 2
    assert "error:" in out.err


def test_cli_exit_one_on_check_failure(monkeypatch, capsys):
    report = run_instance(WORKED)
    broken = dataclasses.replace(report, checks={**report.checks, "gl_blockwise_awc": False})
    monkeypatch.setattr(cli, "run_grid", lambda *a, **k: (broken,))
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
    assert json.loads(reports_to_json([report]))[0] == doc
