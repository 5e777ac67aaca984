"""Command line front end: golden outputs, determinism, JSON mode, errors."""

from __future__ import annotations

import argparse
import io
import json
import os
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from berkline import AbsValue, DiskPoint, FieldSpec, Poly, cli, eval_seminorm
from berkline.cli import main
from berkline.documents import load_document, parse_document
from berkline.errors import BackendMismatch
from berkline.field import abs_max

from conftest import binomial_shift_oracle, count_deflation_passes, rng_for, run_cli_full

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


# (argv, exact text output, exact "result" of the --json line)
GOLDEN_RUNS = [
    (("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0"), "1\n", '"0"'),
    (("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--multiplicative"), "1\n", '"0"'),
    (("fsderiv", str(GOLDEN / "fsderiv_identity.json"), "--point", "0,1"), "1\n", '"0"'),
    (("diam", "--field", "padic:3", "--point", "0,-1", "--point", "1/3,0"), "β^(-2)\n", '"-2"'),
    (("dck", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y"), "1\n", '"1"'),
    (("dtree", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y"), "1/5\n", '"1/5"'),
    (("classify", str(GOLDEN / "tate.json")), "tate-curve\n", '{"genus": 1, "kind": "tate-curve"}'),
    (("genus", str(GOLDEN / "tate.json")), "1\n", "1"),
    (("chi", "--genus", "0", "--punctures", "3"), "-1\n", "-1"),
    (("chi", "--genus", "2"), "-2\n", "-2"),
    (
        ("segments", str(GOLDEN / "tropical_two_lines.json")),
        "[-2, -1)  slope -1  intercept -2\n[-1, 0)  slope 1  intercept 0\n",
        '[{"intercept": "-2", "left": "-2", "right": "-1", "slope": -1}, '
        '{"intercept": "0", "left": "-1", "right": "0", "slope": 1}]',
    ),
    (("theta", str(GOLDEN / "tropical_two_lines.json"), "--at", "-1"), "-1\n", '"-1"'),
    (
        ("theta", str(GOLDEN / "tropical_two_lines.json"), "--plot"),
        "[-2, -1)  slope -1  intercept -2\n[-1, 0)  slope 1  intercept 0\n",
        '[{"intercept": "-2", "left": "-2", "right": "-1", "slope": -1}, '
        '{"intercept": "0", "left": "-1", "right": "0", "slope": 1}]',
    ),
    (("zeros", str(GOLDEN / "laurent_series.json"), "--window=-2,1"), "2\n", "2"),
    (
        ("pieces", str(GOLDEN / "eval_gauss.json"), "--window=-2,0"),
        "[-2, -1)  exponent 1  logcoeff -1\n[-1, 0)  exponent 2  logcoeff 0\n",
        '[{"exponent": 1, "left": "-2", "logcoeff": "-1", "right": "-1"}, '
        '{"exponent": 2, "left": "-1", "logcoeff": "0", "right": "0"}]',
    ),
    (("dproj", str(GOLDEN / "dproj_units.json")), "1\n", '"0"'),
    (
        ("gromov", str(GOLDEN / "squares_sample.json"), "--start", "0", "--epsilon", "1", "--tau", "3/2"),
        "selected index 1  conditions i=True ii=True iii=True\n",
        '{"conditions": [true, true, true], "selected": 1}',
    ),
    (
        ("zalcman", str(GOLDEN / "zalcman_family.json")),
        "n=1  z=0  |rho|=β^(-1)  |g'(0)|=1\nn=2  z=0  |rho|=β^(-2)  |g'(0)|=1\n",
        '[{"derivative_at_zero": "1", "n": 1, "rho_logval": "-1", "z": "0"}, '
        '{"derivative_at_zero": "1", "n": 2, "rho_logval": "-2", "z": "0"}]',
    ),
]


# fsderiv on [3 : T^2 + T] over padic 3, where |3| != 1, and on the
# three-coordinate puiseux-q map [2t^(1/3) : T^2 + t : t^(1/2) T^3 + T]:
# (argv, exact text output, exact "result" of the --json line)
FSDERIV_GOLDEN_RUNS = [
    pytest.param(("fsderiv", str(GOLDEN / "fsderiv_padic_quadratic.json"), "--point", "1/3,-2"), "β^(-2)\n", '"-2"', id="padic-ball"),
    pytest.param(("fsderiv", str(GOLDEN / "fsderiv_padic_quadratic.json"), "--point", "3"), "β^(1)\n", '"1"', id="padic-rigid"),
    pytest.param(
        ("fsderiv", str(GOLDEN / "fsderiv_puiseux_three.json"), "--point", "t^1/2,-1/2"), "β^(1/3)\n", '"1/3"', id="puiseux-ball-centre-0"
    ),
    pytest.param(("fsderiv", str(GOLDEN / "fsderiv_puiseux_three.json"), "--point", "t^-1,1/3"), "β^(1/2)\n", '"1/2"', id="puiseux-ball"),
    pytest.param(("fsderiv", str(GOLDEN / "fsderiv_puiseux_three.json"), "--point", "t^1/3"), "β^(1/3)\n", '"1/3"', id="puiseux-rigid"),
]


@pytest.mark.parametrize("args,expected,result", FSDERIV_GOLDEN_RUNS)
def test_fsderiv_golden_outputs(args, expected, result):
    assert run_cli(*args) == (0, expected)
    assert run_cli_full([*args, "--json"]) == (0, f'{{"command": "fsderiv", "result": {result}}}\n', "")


def golden_id(value) -> str:
    return value[0] if isinstance(value, tuple) else "out"


@pytest.mark.parametrize("args,expected", [(args, text) for args, text, _ in GOLDEN_RUNS], ids=golden_id)
def test_golden_outputs(args, expected):
    code, out = run_cli(*args)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("args,result", [(args, result) for args, _, result in GOLDEN_RUNS], ids=golden_id)
def test_golden_json_outputs(args, result):
    assert run_cli_full([*args, "--json"]) == (0, f'{{"command": "{args[0]}", "result": {result}}}\n', "")


def test_every_subcommand_has_a_golden_run():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {args[0] for args, _, _ in GOLDEN_RUNS}


def test_outputs_are_deterministic():
    for args, _, _ in GOLDEN_RUNS:
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


@pytest.mark.parametrize("raw, expected", [("1000000000", "1/5\n"), (" 4 ", "1/4\n"), ("", "1/5\n")])
def test_chain_budget_env_values(monkeypatch, raw, expected):
    monkeypatch.setenv("BERKLINE_MAX_CHAIN", raw)
    assert run_cli_full(["dtree", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y"]) == (0, expected, "")


# int() would read "1_0" as 10 and "٣" as 3; a budget counts disk visits, so it is at least 1
@pytest.mark.parametrize("raw", ["1_0", "٣", "0", "-1", "abc", "10**9", "3/1"])
def test_chain_budget_env_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("BERKLINE_MAX_CHAIN", raw)
    for command in ("dck", "dtree"):
        code, out, err = run_cli_full([command, str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y"])
        assert (code, out) == (2, ""), raw
        assert err.startswith("berkline: input error: ")


def test_dck_on_a_long_path(tmp_path):
    # 1,500 disks in a row: the chain search must not recurse once per disk
    n = 1500
    steps = [Fraction(1, 2 + i % 3) for i in range(n)]
    edges = [[f"d{i}", [[str(steps[i]), "1"]], f"d{i + 1}", "0"] for i in range(n - 1)]
    tree = {
        "disks": [f"d{i}" for i in range(n)],
        "edges": edges,
        "marks": {"x": ["d0", "0"], "y": [f"d{n - 1}", [[str(steps[-1]), "1"]]]},
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"field": {"backend": "puiseux-q"}, "tree-of-disks": tree}))
    assert run_cli_full(["dck", str(path), "--from", "x", "--to", "y"]) == (0, f"{sum(steps)}\n", "")
    assert run_cli_full(["dtree", str(path), "--from", "x", "--to", "y"]) == (0, "1/2\n", "")


@pytest.mark.parametrize(
    "edges, marks, where",
    [
        ([[["x"], "0", "A", "0"]], {"x": ["A", "0"], "y": ["A", "0"]}, "tree-of-disks.edges[0][0]"),
        ([], {"x": [["A"], "0"], "y": ["A", "0"]}, "tree-of-disks.marks.x[0]"),
    ],
)
def test_disk_references_must_be_names(tmp_path, edges, marks, where):
    # a list as a disk reference once reached TreeOfDisks and raised TypeError (exit 1)
    tree = {"disks": ["A"], "edges": edges, "marks": marks}
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": {"backend": "puiseux-q"}, "tree-of-disks": tree}))
    for command in ("dck", "dtree"):
        code, out, err = run_cli_full([command, str(path), "--from", "x", "--to", "y"])
        assert (code, out) == (2, "")
        assert err == f"berkline: input error: {where}: expected a disk name\n"


CURVE_BASE = {"vertices": [["a", 1]]}


@pytest.mark.parametrize(
    "command, payload, where",
    [
        ("genus", {"curve-model": {"vertices": 7}}, "curve-model.vertices: expected a list"),
        ("genus", {"curve-model": {**CURVE_BASE, "edges": None}}, "curve-model.edges: expected a list"),
        ("genus", {"curve-model": {**CURVE_BASE, "punctures": 3}}, "curve-model.punctures: expected a list"),
        ("genus", {"curve-model": {**CURVE_BASE, "disks": True}}, "curve-model.disks: expected a list"),
        ("genus", {"curve-model": {**CURVE_BASE, "boundary": "a"}}, "curve-model.boundary: expected a list"),
        ("genus", {"curve-model": {"vertices": [[["a"], 1]]}}, "curve-model.vertices[0][0]: expected a vertex name"),
        (
            "genus",
            {"curve-model": {**CURVE_BASE, "edges": [["a", 0, "1"]]}},
            "curve-model.edges[0][1]: expected a vertex name",
        ),
        ("genus", {"curve-model": {**CURVE_BASE, "boundary": [["a"]]}}, "curve-model.boundary[0]: expected a vertex name"),
        (
            "classify",
            {"curve-model": {**CURVE_BASE, "punctures": [["vertex", {"a": 1}]]}},
            "curve-model.punctures[0][1]: expected a vertex name",
        ),
        (
            "classify",
            {"curve-model": {**CURVE_BASE, "disks": [[None, ["vertex", "a"]]]}},
            "curve-model.disks[0][0]: expected a tag name",
        ),
        (
            "dck",
            {"tree-of-disks": {"disks": ["A"], "edges": 5, "marks": {"x": ["A", "0"], "y": ["A", "0"]}}},
            "tree-of-disks.edges: expected a list",
        ),
    ],
    ids=lambda v: v.split(":")[0] if isinstance(v, str) and ":" in v else None,
)
def test_non_list_and_non_name_document_fields_are_schema_errors(tmp_path, command, payload, where):
    # each of these once raised TypeError out of the parser or the model (exit 1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"field": {"backend": "padic", "p": 3}, **payload}))
    argv = [command, str(path)] + (["--from", "x", "--to", "y"] if command == "dck" else [])
    code, out, err = run_cli_full(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"berkline: input error: {where}")


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
        with open(GOLDEN / name, encoding="utf-8") as handle:
            again = parse_document(json.dumps(json.load(handle), sort_keys=True))
        assert again.kind == doc.kind
        assert again.spec == doc.spec


# payload kind -> (a command that reads it and its flags, a minimal valid block)
MINIMAL_PAYLOADS = {
    "series": (["eval", "--point", "0,0"], {"terms": [[1, "1"]]}),
    "map": (["fsderiv", "--point", "0,0"], {"coordinates": [[[0, "1"]], [[1, "1"]]]}),
    "tropical": (["segments"], {"terms": [[1, "0"]], "domain": ["-1", "0"]}),
    "tree-of-disks": (["dck", "--from", "x", "--to", "y"], {"disks": ["A"], "marks": {"x": ["A", "0"], "y": ["A", "1"]}}),
    "curve-model": (["genus"], {"vertices": [["a", 1]]}),
    "sample-function": (["gromov", "--start", "0", "--epsilon", "1", "--tau", "2"], {"points": ["0"], "values": ["1"]}),
    "map-family": (["zalcman"], {"maps": [{"coordinates": [[[0, "3"]], [[1, "1"]]], "domain": {"disk": "0"}}]}),
    "tuples": (["dproj"], {"x": ["1", "0"], "y": ["0", "1"]}),
}


@pytest.mark.parametrize("block", ["field", *MINIMAL_PAYLOADS])
def test_every_object_block_rejects_unknown_keys_and_non_objects(tmp_path, block):
    kind = "series" if block == "field" else block
    (command, *flags), payload = MINIMAL_PAYLOADS[kind]
    doc = {"field": {"backend": "padic", "p": 3}, kind: payload}
    path = tmp_path / "doc.json"

    def run(document):
        path.write_text(json.dumps(document))
        return run_cli_full([command, str(path), *flags])

    assert run(doc)[0] == 0
    error = f"berkline: input error: {block}: "
    assert run({**doc, block: {**doc[block], "bogus": 1}}) == (2, "", error + "unknown keys ['bogus']\n")
    assert run({**doc, block: [doc[block]]}) == (2, "", error + "expected an object\n")


@pytest.mark.parametrize("override", [[], ["--field", "padic:3"], ["--field", "puiseux:5"]], ids=lambda o: "-".join(o))
def test_numeric_base_on_a_padic_field_is_a_schema_error(tmp_path, override):
    # the padic base is p, so a declared numeric_base would go unread
    path = tmp_path / "doc.json"
    field = {"backend": "padic", "p": 3, "numeric_base": "5"}
    path.write_text(json.dumps({"field": field, "series": {"terms": [[1, "1"]]}}))
    code, out, err = run_cli_full(["eval", str(path), "--point", "1/3", "--multiplicative", *override])
    assert (code, out) == (2, "")
    assert err == "berkline: input error: field: padic backend takes no numeric_base (its base is p)\n"
    with pytest.raises(ValueError, match="numeric_base"):
        FieldSpec("padic", 3, numeric_base=Fraction(5))


def test_main_builds_the_parser_once(monkeypatch):
    fresh = cli.build_parser
    sequence = [
        ["eval", str(GOLDEN / "eval_gauss.json")],  # --point missing: argparse exits 2
        ["eval", str(GOLDEN / "laurent_series.json"), "--point", "0,zero"],  # domain error
        ["dtree", str(GOLDEN / "chain5.json"), "--from", "x", "--to", "y", "--json"],
    ] + [list(args) for args, _, _ in GOLDEN_RUNS]

    monkeypatch.setattr(cli, "_parser", fresh)  # a freshly built parser for every call
    reference = [run_cli_full(argv) for argv in sequence]
    monkeypatch.undo()

    builds = []

    def counting_build_parser():
        builds.append(1)
        return fresh()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        reused = [run_cli_full(argv) for argv in sequence]
    finally:
        cli._parser.cache_clear()

    assert len(builds) <= 1
    assert reused == reference
    assert [code for code, _, _ in reused[:3]] == [2, 3, 0]
    assert "the following arguments are required: --point" in reused[0][2]
    assert json.loads(reused[2][1]) == {"command": "dtree", "result": "1/5"}
    assert [(code, out) for code, out, _ in reused[3:]] == [(0, text) for _, text, _ in GOLDEN_RUNS]


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("window,expected", [("0,1", ["0", "1"]), ("-1,0", ["-1", "0"])])
def test_pieces_json_on_a_constant_series(tmp_path, window, expected):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"field": {"backend": "padic", "p": 3}, "series": {"terms": [[0, "1"]]}}))
    code, out, err = run_cli_full(["pieces", str(path), f"--window={window}", "--json"])
    assert (code, err) == (0, "")
    left, right = expected
    assert json.loads(out) == {"command": "pieces", "result": [{"left": left, "right": right, "constant": True}]}
    code, out = run_cli("pieces", str(path), f"--window={window}")
    assert out == f"[{left}, {right})  constant (zero diameter)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", str(GOLDEN / "tropical_two_lines.json"), "--at", "1/0"],
        ["zeros", str(GOLDEN / "laurent_series.json"), "--window=1/0,2"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "1/0"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,1/0"],
        ["diam", str(GOLDEN / "eval_gauss.json"), "--point", "1/0"],
        ["gromov", str(GOLDEN / "squares_sample.json"), "--start", "0", "--epsilon", "1/0", "--tau", "3/2"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", "puiseux:1/0"],
        ["theta", str(GOLDEN / "tropical_two_lines.json"), "--at", "1e1000000"],
        ["theta", str(GOLDEN / "tropical_two_lines.json"), "--at", "0.5"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "t^1e9,0", "--field", "puiseux"],
    ],
    ids=lambda argv: " ".join(argv[2:]),
)
def test_malformed_rational_flags_are_input_errors(argv):
    code, out, err = run_cli_full(argv)
    assert (code, out) == (2, "")
    assert err.startswith("berkline: input error: ")


@pytest.mark.parametrize("bad", ["1/0", "1e1000000", "0.5", "1_000"])
def test_malformed_rationals_in_documents_are_schema_errors(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"backend": "padic", "p": 3}, "series": {"terms": [[1, bad]]}}))
    code, out, err = run_cli_full(["eval", str(path), "--point", "0,0"])
    assert (code, out) == (2, "")
    assert err.startswith("berkline: input error: series.terms[0][1]: bad rational")


@pytest.mark.parametrize("terms", [[[1, "0"], [1, "5"]], [[1, "5"], [1, "0"]]], ids=["zero-first", "zero-second"])
def test_a_duplicate_exponent_is_a_schema_error_in_either_order(tmp_path, terms):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"field": {"backend": "padic", "p": 3}, "series": {"terms": terms}}))
    code, out, err = run_cli_full(["eval", str(path), "--point", "0,0"])
    assert (code, out, err) == (2, "", "berkline: input error: series.terms[1]: duplicate exponent 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--point", "0,0"],
        ["fsderiv", "--point", "0,1"],
        ["theta", "--at", "0"],
        ["zeros", "--window=-1,0"],
        ["dtree", "--from", "x", "--to", "y"],
        ["classify"],
        ["gromov", "--start", "0", "--epsilon", "1", "--tau", "2"],
        ["zalcman"],
    ],
    ids=lambda argv: argv[0],
)
def test_field_flag_without_input_needs_the_payload(argv):
    # only diam reads nothing but the field; every other command needs its payload
    code, out, err = run_cli_full(argv + ["--field", "padic:3"])
    assert (code, out) == (2, "")
    assert "an input file with a payload among" in err


@pytest.mark.parametrize("start", ["2", "-1"])
def test_gromov_start_outside_the_sample_is_an_input_error(start):
    code, out, err = run_cli_full(
        ["gromov", str(GOLDEN / "squares_sample.json"), "--start", start, "--epsilon", "1", "--tau", "3/2"]
    )
    assert (code, out) == (2, "")
    assert "outside 0..1" in err


@pytest.mark.parametrize("window", ["1,-1", "0,0"])
@pytest.mark.parametrize("command,document", [("zeros", "laurent_series.json"), ("pieces", "eval_gauss.json")])
def test_an_empty_window_is_an_input_error(command, document, window):
    code, out, err = run_cli_full([command, str(GOLDEN / document), f"--window={window}"])
    assert (code, out) == (2, "")
    assert err == f"berkline: input error: empty interval ({window.replace(',', ', ')})\n"


@pytest.mark.parametrize("nmax", ["0", "-1", "-5"])
def test_zalcman_needs_at_least_one_step(nmax):
    code, out, err = run_cli_full(["zalcman", str(GOLDEN / "zalcman_family.json"), "--nmax", nmax])
    assert (code, out) == (2, "")
    assert err == f"berkline: input error: --nmax must be at least 1, got {nmax}\n"
    assert run_cli_full(["zalcman", str(GOLDEN / "zalcman_family.json"), "--nmax", "3"])[0] == 2  # two maps
    one_step = run_cli("zalcman", str(GOLDEN / "zalcman_family.json"), "--nmax", "1")
    assert one_step == (0, "n=1  z=0  |rho|=β^(-1)  |g'(0)|=1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["chi", "--genus", "1_0"],
        ["chi", "--genus", "٣"],
        ["chi", "--genus", "1.0"],
        ["chi", "--genus", "0", "--punctures", "1_0"],
        ["gromov", str(GOLDEN / "squares_sample.json"), "--start", "0_0", "--epsilon", "1", "--tau", "3/2"],
        ["gromov", str(GOLDEN / "squares_sample.json"), "--start", "٠", "--epsilon", "1", "--tau", "3/2"],
        ["zalcman", str(GOLDEN / "zalcman_family.json"), "--nmax", "١"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", "padic:٣"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", "padic:1_1"],
        ["eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", "padic:3/1"],
    ],
    ids=lambda argv: " ".join(argv[-2:]),
)
def test_integer_flags_take_ascii_digits_only(argv):
    # int() would accept digit separators and non-ASCII digits; the flags do not
    code, out, err = run_cli_full(argv)
    assert (code, out) == (2, "")
    assert "not an integer" in err


def test_integer_flags_allow_a_sign_and_whitespace():
    assert run_cli("chi", "--genus", "+1", "--punctures", " 2 ") == (0, "-2\n")
    assert run_cli("eval", str(GOLDEN / "eval_gauss.json"), "--point", "0,0", "--field", "padic:+3") == (0, "1\n")


def sparse_series(tmp_path, exponent: int) -> Path:
    path = tmp_path / f"sparse{exponent}.json"
    doc = {"field": {"backend": "padic", "p": 3}, "series": {"terms": [[exponent, "3"], [2, "1"]]}}
    path.write_text(json.dumps(doc))
    return path


def v3(x: Fraction) -> int:
    """The 3-adic valuation of a nonzero rational."""
    v, num, den = 0, x.numerator, x.denominator
    while num % 3 == 0:
        num, v = num // 3, v + 1
    while den % 3 == 0:
        den, v = den // 3, v - 1
    return v


@pytest.mark.parametrize("radius", [None, -1])
def test_sparse_series_of_large_degree_evaluates_in_bounded_time(tmp_path, radius):
    # 3 T^2999 + T^2 at 1/2: the seminorm needs P(T + 1/2), not a dense O(deg^2) shift
    point = "1/2" if radius is None else f"1/2,{radius}"
    start = time.perf_counter()
    code, out, err = run_cli_full(["eval", str(sparse_series(tmp_path, 2999)), "--point", point, "--json"])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 10
    # the seminorm from plain Fractions: b_k = sum_n c_n C(n, k) (1/2)^(n - k)
    half = Fraction(1, 2)
    coeffs = [3 * comb(2999, k) * half ** (2999 - k) + comb(2, k) * half ** (2 - k) for k in range(3000)]
    if radius is None:
        expected = -v3(coeffs[0])
    else:
        expected = max(-v3(b) + radius * k for k, b in enumerate(coeffs) if b)
    assert json.loads(out)["result"] == str(expected)


@pytest.mark.parametrize("point", ["1/2", "1/2,-1", "3/5,-2", "9,-1/2", "0,1"])
def test_sparse_series_value_matches_the_binomial_oracle(tmp_path, p3, point):
    code, out, _ = run_cli_full(["eval", str(sparse_series(tmp_path, 9)), "--point", point, "--json"])
    centre, _, radius = point.partition(",")
    poly = Poly.from_dict(p3, {9: p3.scalar(3), 2: p3.one()})
    shifted = binomial_shift_oracle(poly, p3.scalar(Fraction(centre)))
    if radius:
        r = AbsValue.of(radius)
        value = abs_max(c.abs() * r**n for n, c in shifted.terms)
    else:
        value = shifted.coeff(0).abs()
    assert code == 0
    assert json.loads(out)["result"] == (None if value.is_zero else str(value.logval))


@pytest.mark.parametrize("point", ["t", "t^1/2,-1"])
def test_padic_series_at_a_puiseux_centre_is_a_backend_mismatch(point):
    # the rigid point always raised; the ball once mixed the padic coefficients
    # into a puiseux-q shift and printed a value.  --field now parses the
    # payload under the override, so only the library can still mix them.
    series = load_document(str(GOLDEN / "eval_gauss.json")).payload
    with pytest.raises(BackendMismatch):
        eval_seminorm(series, cli._parse_point(FieldSpec("puiseux-q"), point))


@pytest.mark.parametrize("point", ["t", "t,-1", "t^1/2,-1", "0,1/2", "1/3,-2"])
def test_field_override_parses_the_payload_under_the_override(tmp_path, point):
    # a padic document under --field puiseux reads as the same document with a
    # puiseux-q field block (the ball around t once printed beta^(-2) here,
    # mixing padic coefficient magnitudes with a puiseux-q radius)
    doc = json.loads((GOLDEN / "eval_gauss.json").read_text())
    doc["field"] = {"backend": "puiseux-q"}
    path = tmp_path / "eval_puiseux.json"
    path.write_text(json.dumps(doc))
    overridden = run_cli_full(["eval", str(GOLDEN / "eval_gauss.json"), "--point", point, "--field", "puiseux"])
    assert overridden == run_cli_full(["eval", str(path), "--point", point])
    assert overridden[0] == 0
    if point == "t,-1":
        assert overridden[1] == "β^(-1)\n"


def puiseux_series(tmp_path, terms: dict[int, list[tuple[str, str]]]) -> Path:
    """A puiseux-q series document: degree -> (exponent, coefficient) pairs."""
    path = tmp_path / "puiseux_series.json"
    series = [[n, [list(t) for t in pairs]] for n, pairs in terms.items()]
    doc = {"field": {"backend": "puiseux-q"}, "series": {"terms": series}}
    path.write_text(json.dumps(doc))
    return path


def test_dense_puiseux_series_at_a_ball_evaluates_in_bounded_time(tmp_path):
    # (T - 2 t^(1/2))^400 expanded: by multiplicativity its seminorm at the
    # ball around a = t^(1/2) + t + t^(4/3) of log-radius -2 is
    # max(|a - 2 t^(1/2)|, beta^-2)^400 = (beta^(-1/2))^400
    n = 400
    terms = {k: [(f"{n - k}/2", str(comb(n, k) * (-2) ** (n - k)))] for k in range(n + 1)}
    path = puiseux_series(tmp_path, terms)
    start = time.perf_counter()
    code, out, err = run_cli_full(["eval", str(path), "--point", "t^1/2+t+t^4/3,-2", "--json"])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 1
    assert json.loads(out)["result"] == "-200"


def planted_root_cofactor(rng, degree: int) -> list[int]:
    """Dense small int coefficients of a Q of the given degree whose sum Q(1)
    is nonzero, so that Q's initial form at a = 1 + t^(1/2) + t^(1/3) (its
    value at in(a) = 1) does not vanish."""
    coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
    if not sum(coeffs):
        coeffs[0] += 1
    return coeffs


def test_puiseux_series_with_a_root_at_the_ball_centre_evaluates_in_bounded_time(tmp_path):
    # (T - a) Q at degree 401, a = 1 + t^(1/2) + t^(1/3): sigma = 0 at the
    # ball around a, once took 27 s as a full shift; one deflation pass leaves
    # Q, certified, and by multiplicativity the seminorm is r |Q|_{a,r} = beta^-2
    q = planted_root_cofactor(rng_for("planted-root-cli"), 400)
    terms = {}
    for n in range(402):
        below, here = (q[n - 1] if n else 0), (q[n] if n <= 400 else 0)
        pairs = [(e, str(c)) for e, c in (("0", below - here), ("1/2", -here), ("1/3", -here)) if c]
        if pairs:
            terms[n] = pairs
    path = puiseux_series(tmp_path, terms)
    start = time.perf_counter()
    code, out, err = run_cli_full(["eval", str(path), "--point", "1+t^1/2+t^1/3,-2", "--json"])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 1
    assert json.loads(out)["result"] == "-2"


@pytest.mark.parametrize("multiplicity", [1, 2, 3])
def test_a_root_of_multiplicity_m_at_the_ball_centre_deflates_m_times_at_every_degree(monkeypatch, pq, multiplicity):
    # a work gate: the passes do not grow with the degree, where the full
    # shift's work grew about tenfold per doubling
    a = pq.from_terms([(0, 1), ("1/2", 1), ("1/3", 1)])
    t_minus_a = Poly.from_dict(pq, {0: -a, 1: pq.one()})
    x = DiskPoint(a, AbsValue.of(-2))
    passes = count_deflation_passes(monkeypatch)
    for degree in (100, 200, 400):
        q = planted_root_cofactor(rng_for(f"planted-root-{degree}"), degree - multiplicity)
        p = Poly.from_coeffs(pq, [pq.scalar(c) for c in q])
        for _ in range(multiplicity):
            p = t_minus_a * p
        passes.clear()
        assert eval_seminorm(p, x) == AbsValue.of(-2 * multiplicity)
        assert passes == list(range(multiplicity)), (degree, passes)


@pytest.mark.parametrize(
    ("point", "centre", "radius"),
    [
        ("t^1/2+t+t^4/3,-2", [("1/2", 1), (1, 1), ("4/3", 1)], "-2"),
        ("1+t^1/3+2*t^1,-1/2", [(0, 1), ("1/3", 1), (1, 2)], "-1/2"),
        ("t^1/2+t+t^4/3,-1/3", [("1/2", 1), (1, 1), ("4/3", 1)], "-1/3"),
        ("t^1/2+3*t^1,zero", [("1/2", 1), (1, 3)], None),
    ],
)
def test_dense_puiseux_series_value_matches_the_binomial_oracle(tmp_path, pq, point, centre, radius):
    rng = rng_for(f"dense-puiseux-{point}")
    terms = {}
    for k in range(13):
        pairs = {}
        for _ in range(rng.randint(1, 3)):
            exponent = Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
            pairs[exponent] = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        terms[k] = [(str(e), str(c)) for e, c in pairs.items()]
    code, out, err = run_cli_full(["eval", str(puiseux_series(tmp_path, terms)), "--point", point, "--json"])
    poly = Poly.from_dict(pq, {k: pq.from_terms(pairs) for k, pairs in terms.items()})
    shifted = binomial_shift_oracle(poly, pq.from_terms(centre))
    if radius is None:
        value = shifted.coeff(0).abs()
    else:
        r = AbsValue.of(radius)
        value = abs_max(c.abs() * r**n for n, c in shifted.terms)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == str(value.logval)
