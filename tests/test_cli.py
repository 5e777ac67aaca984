"""Command line front end: golden outputs, determinism, JSON mode, errors."""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from berkline.cli import main
from berkline.documents import canonical_json, load_document, parse_document

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


GOLDEN_RUNS = [
    (("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0"), "1\n"),
    (("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--multiplicative"), "1\n"),
    (("fsderiv", str(GOLDEN / "fsderiv_identity.json"), "--point", "0,1"), "1\n"),
    (("dck", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y"), "1\n"),
    (("dtree", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y"), "1/5\n"),
    (("classify", str(GOLDEN / "tate.json")), "tate-curve\n"),
    (("genus", str(GOLDEN / "tate.json")), "1\n"),
    (("chi", "--genus", "0", "--punctures", "3"), "-1\n"),
    (("chi", "--genus", "2"), "-2\n"),
    (
        ("segments", str(GOLDEN / "tropical_two_lines.json")),
        "[-2, -1)  slope -1  intercept -2\n[-1, 0)  slope 1  intercept 0\n",
    ),
    (("theta", str(GOLDEN / "tropical_two_lines.json"), "--at", "-1"), "-1\n"),
    (("zeros", str(GOLDEN / "laurent_series.json"), "--window=-2,1"), "2\n"),
    (
        ("pieces", str(GOLDEN / "eval_gauss.json"), "--window=-2,0"),
        "[-2, -1)  exponent 1  logcoeff -1\n[-1, 0)  exponent 2  logcoeff 0\n",
    ),
    (("dproj", str(GOLDEN / "dproj_units.json")), "1\n"),
    (
        ("gromov", str(GOLDEN / "squares_sample.json"), "--start", "0", "--epsilon", "1", "--tau", "3/2"),
        "selected index 1  conditions i=True ii=True iii=True\n",
    ),
    (
        ("zalcman", str(GOLDEN / "zalcman_family.json")),
        "n=1  z=0  |rho|=β^(-1)  |g'(0)|=1\nn=2  z=0  |rho|=β^(-2)  |g'(0)|=1\n",
    ),
]


@pytest.mark.parametrize("args,expected", GOLDEN_RUNS, ids=lambda v: v[0] if isinstance(v, tuple) else "out")
def test_golden_outputs(args, expected):
    code, out = run_cli(*args)
    assert code == 0
    assert out == expected


def test_outputs_are_deterministic():
    for args, _ in GOLDEN_RUNS:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second


def test_json_output_reparses():
    code, out = run_cli("dtree", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"command": "dtree", "result": "1/5"}
    code, out = run_cli("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--json")
    assert json.loads(out) == {"command": "eval", "result": "0"}  # logval of magnitude 1
    code, out = run_cli("classify", str(GOLDEN / "tate.json"), "--json")
    assert json.loads(out) == {"command": "classify", "result": {"genus": 1, "kind": "tate-curve"}}


def test_multiplicative_padic_output():
    code, out = run_cli(
        "eval", str(GOLDEN / "laurent_series.json"), "--point", "0,-2", "--multiplicative"
    )
    assert code == 0
    assert out == "9\n"  # |T^-1 + 3T| at eta_{0, 3^-2} is 3^2


def test_multiplicative_huge_numeric_base(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": {"backend": "puiseux-q"}, "series": {"terms": [[1, "1"]]}}))
    code, out = run_cli(
        "eval", str(path), "--point", "0,1/2", "--multiplicative", "--field", f"puiseux:{10**400}"
    )
    assert code == 0
    assert out == f"{10**200}\n"  # |T| at eta_{0, beta^(1/2)} with beta = 10^400


def test_padic_prime_beyond_the_primality_limit_is_a_schema_error():
    code, _ = run_cli("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", f"padic:{2**89 - 1}")
    assert code == 2
    code, out = run_cli("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", f"padic:{2**61 - 1}")
    assert code == 0


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"backend": "padic"}}')
    code, _ = run_cli("eval", str(bad), "--point", "0,0")
    assert code == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    code, _ = run_cli("eval", str(notjson), "--point", "0,0")
    assert code == 2
    code, _ = run_cli("eval", str(tmp_path / "missing.json"), "--point", "0,0")
    assert code == 2


def test_domain_error_exit_code():
    code, _ = run_cli("eval", str(GOLDEN / "laurent_series.json"), "--point", "0,zero")
    assert code == 3


def test_chain_budget_env(monkeypatch):
    monkeypatch.setenv("BERKLINE_MAX_CHAIN", "3")
    code, out = run_cli("dtree", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y")
    assert code == 0
    assert out == "1/3\n"


def test_point_literals_with_puiseux_scalars(tmp_path):
    doc = {
        "field": {"backend": "puiseux-q"},
        "series": {"terms": [[1, "1"]]},
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("eval", str(path), "--point", "t^1/2+2,zero")
    assert code == 0
    assert out == "1\n"  # |t^(1/2) + 2| = 1
    code, out = run_cli("eval", str(path), "--point", "t^1/2,zero")
    assert out == "β^(-1/2)\n"


def test_diam_command_multiple_points():
    code, out = run_cli(
        "diam", str(GOLDEN / "eval_gauss.json"), "--point", "0,-1", "--point", "0,-2"
    )
    assert code == 0
    assert out == "β^(-1)\n"


def test_round_trip_documents():
    for name in os.listdir(GOLDEN):
        if not name.endswith(".json"):
            continue
        doc = load_document(str(GOLDEN / name))
        text = canonical_json(doc.raw)
        again = parse_document(text)
        assert canonical_json(again.raw) == text
        assert again.kind == doc.kind
        assert again.spec == doc.spec
