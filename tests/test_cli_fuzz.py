"""Fuzz the command line: every argv ends in exit code 0, 2 or 3, in bounded time.

Random command lines go to ``cli.main`` in-process: any of the subcommands,
random flags with values drawn from exact rationals, malformed numbers
("1/0", "-inf", long exponents, decimals) and free text, and input documents
that are the golden files, truncated and byte-mutated copies of them, or
copies with one node at any depth replaced by a value of another JSON type.
``dck`` and ``dtree`` also read generated trees of disks: up to 12 disks,
often every pair glued, sometimes with a mark on a disk no chain reaches,
under a ``BERKLINE_MAX_CHAIN`` that is unset, well formed or malformed.
Other documents stay as small as the goldens.  The hypothesis deadline is
the time bound.
"""

from __future__ import annotations

import argparse
import json
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from berkline.cli import build_parser

from conftest import run_cli_full

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_DOCS = sorted(GOLDEN.glob("*.json"))

# subcommand -> (the golden document whose payload it reads, the flags it takes a value for)
COMMANDS = {
    "eval": ("eval_gauss", ("--point",)),
    "diam": ("eval_gauss", ("--point", "--point")),
    "fsderiv": ("fsderiv_identity", ("--point",)),
    "dproj": ("dproj_units", ()),
    "theta": ("tropical_two_lines", ("--at",)),
    "segments": ("tropical_two_lines", ()),
    "zeros": ("laurent_series", ("--window",)),
    "pieces": ("eval_gauss", ("--window",)),
    "dck": ("chain5", ("--from", "--to")),
    "dtree": ("chain5", ("--from", "--to")),
    "classify": ("tate", ()),
    "genus": ("tate", ()),
    "chi": (None, ("--genus", "--punctures")),
    "gromov": ("squares_sample", ("--start", "--epsilon", "--tau")),
    "zalcman": ("zalcman_family", ("--nmax",)),
}
FLAGS_WITH_VALUE = tuple(sorted({f for _, flags in COMMANDS.values() for f in flags} | {"--field"}))

ODD_VALUES = (
    "1/0",
    "-1/0",
    "0/0",
    "-inf",
    "+inf",
    "inf",
    "zero",
    "1e1000000",
    "-1e-99999999999",
    "1.5",
    "nan",
    "1_000",
    "3/-4",
    "",
    " ",
    "t",
    "t^1/2",
    "2*t^3+1",
    "t^1/0",
    "t^1e1000000",
    "9" * 5000,
    "x",
    "y",
    "z",
    "padic:3",
    "padic:4",
    "padic:",
    "padic:1/0",
    "puiseux",
    "puiseux:2",
    "puiseux:1/0",
    "puiseux:1",
    "puiseux:-3",
    "puiseux-q",
    "bogus:5",
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(str)
# int() accepts digit separators and non-ASCII digits; the integer flags must not
ODD_INTEGERS = ("1_0", "0_0", "٣", "١", "+3", " 2 ", "-0", "2/1")
small_ints = st.integers(-1, 4).map(str)
integer_flags = st.one_of(small_ints, st.sampled_from(ODD_INTEGERS))
atoms = st.one_of(st.sampled_from(ODD_VALUES), rationals, small_ints, st.text(max_size=8))
values = st.one_of(atoms, st.tuples(atoms, atoms).map(",".join))
ends = st.one_of(st.fractions(-12, 2, max_denominator=6).map(str), st.sampled_from(["-inf", "+inf", ""]))
centers = st.one_of(rationals, st.sampled_from(["t", "t^1/2", "2*t^3+1", "t^-1/3+3/4", "0"]))

# flag -> values of the shape it expects; the shapes still reach the error paths
WELL_FORMED = {
    "--point": st.one_of(centers, st.tuples(centers, st.one_of(rationals, st.just("zero"))).map(",".join)),
    "--window": st.tuples(ends, ends).map(",".join),
    "--at": rationals,
    "--from": st.sampled_from(["x", "y", "z"]),
    "--to": st.sampled_from(["x", "y", "z"]),
    "--genus": integer_flags,
    "--punctures": integer_flags,
    "--start": st.one_of(st.integers(-1, 2).map(str), st.sampled_from(ODD_INTEGERS)),
    "--nmax": integer_flags,
    "--epsilon": st.fractions(0, 20, max_denominator=12).map(str),
    "--tau": st.fractions(1, 20, max_denominator=12).map(str),
    "--field": st.sampled_from(
        ["padic:2", "padic:3", "padic:5", "padic:+3", "padic:٣", "padic:1_1", "puiseux", "puiseux:3", "puiseux:1/2"]
    ),
}


def flag(name: str, value: str, joined: bool) -> list[str]:
    return [f"{name}={value}"] if joined else [name, value]


def chance(draw, k: int, n: int) -> bool:
    """True with probability k/n."""
    return draw(st.integers(0, n - 1)) < k


@st.composite
def flag_value(draw, name: str) -> str:
    return draw(WELL_FORMED[name] if chance(draw, 3, 4) else values)


@st.composite
def flag_args(draw, command: str) -> list[str]:
    """The command's own flags (each usually present), --field, the bare flags
    and now and then a stray flag or token."""
    argv: list[str] = []
    for name in COMMANDS[command][1]:
        if chance(draw, 7, 8):
            argv += flag(name, draw(flag_value(name)), draw(st.booleans()))
    if chance(draw, 1, 4):
        argv += flag("--field", draw(flag_value("--field")), draw(st.booleans()))
    for name in ("--json", "--multiplicative") + (("--plot",) if command == "theta" else ()):
        if chance(draw, 1, 3):
            argv.append(name)
    if chance(draw, 1, 4):
        if draw(st.booleans()):
            name = draw(st.sampled_from(FLAGS_WITH_VALUE))
            argv += flag(name, draw(flag_value(name)), draw(st.booleans()))
        else:
            argv.append(draw(atoms))
    return argv


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """A truncated copy of ``data`` or one with a few bytes replaced, inserted or deleted."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data)))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(out)))
        byte = draw(st.one_of(st.sampled_from(b'0123456789-/"[]{},.e '), st.integers(0, 255)))
        op = draw(st.integers(0, 2))
        if op == 0 and pos < len(out):
            out[pos] = byte
        elif op == 1:
            out.insert(pos, byte)
        elif pos < len(out):
            del out[pos]
    return bytes(out)


MAGNITUDES = ("1", "1/2", "1/3", "1/4", "2/3")
disk_coords = st.one_of(
    st.integers(-3, 3).map(str),
    st.lists(st.tuples(st.sampled_from(MAGNITUDES), st.integers(-2, 2).map(str)).map(list), max_size=2),
)
TREE_COMMANDS = ("dck", "dtree")
# well-formed budgets, then ones int() would accept or that are below 1
chain_budgets = st.one_of(
    st.none(),
    st.integers(1, 8).map(str),
    st.sampled_from(["1_0", "٣", "0", "-1", "abc", "10**9", str(10**9), " 3 ", ""]),
)


@st.composite
def tree_documents(draw) -> dict:
    """Up to 12 disks, either every pair glued or a spanning tree plus a few
    extra edges, with marks x, y, z; now and then a mark sits on a disk glued
    to nothing, or one disk reference is a list, an object, a number, null
    or a bool."""
    names = [f"d{i}" for i in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    else:
        pairs = [(names[i], draw(st.sampled_from(names[:i]))) for i in range(1, len(names))]
        pairs += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=4))
    edges = [[a, draw(disk_coords), b, draw(disk_coords)] for a, b in pairs]
    disks = names + ["lone"] if chance(draw, 1, 3) else names
    marks = {m: [draw(st.sampled_from(disks)), draw(disk_coords)] for m in ("x", "y", "z")}
    if chance(draw, 1, 4):
        # one disk reference that is not a name
        refs = [(e, k) for e in edges for k in (0, 2)] + [(marks[m], 0) for m in marks]
        entry, k = draw(st.sampled_from(refs))
        entry[k] = draw(st.sampled_from([[entry[k]], {"disk": entry[k]}, 0, 1.5, None, True, False]))
    return {"field": {"backend": "puiseux-q"}, "tree-of-disks": {"disks": disks, "edges": edges, "marks": marks}}


def compact(path: Path) -> bytes:
    return json.dumps(json.loads(path.read_text()), separators=(",", ":")).encode()


JSON_VALUES = ([], {}, 0, 1.5, "x", None, True)


def node_paths(node, path: tuple = ()) -> list[tuple]:
    """The path of every node of a parsed JSON document, the root included."""
    out = [path]
    if isinstance(node, dict):
        for key, child in node.items():
            out += node_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            out += node_paths(child, path + (i,))
    return out


@st.composite
def retyped(draw, path: Path) -> object:
    """The golden document with one node, at any depth, replaced by a value
    of another JSON type; the depth is drawn first, so the few nodes near the
    root are drawn as often as the many leaves."""
    doc = json.loads(path.read_text())
    paths = node_paths(doc)
    depth = draw(st.integers(0, max(len(p) for p in paths)))
    where = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    parent, key = None, None
    node = doc
    for key in where:
        parent, node = node, node[key]
    value = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(node)]))
    if parent is None:
        return value
    parent[key] = value
    return doc


@st.composite
def command_lines(draw, workdir: Path, commands: tuple[str, ...]) -> list[str]:
    command = draw(st.sampled_from(commands))
    argv = [command]
    doc = COMMANDS[command][0]
    source = draw(st.integers(0, 6))
    if source in (1, 2) and command in TREE_COMMANDS:
        path = workdir / "tree.json"
        path.write_text(json.dumps(draw(tree_documents())))
        argv.append(str(path))
    elif source <= 1 and doc is not None:
        argv.append(str(GOLDEN / f"{doc}.json"))
    elif source == 2:
        argv.append(str(draw(st.sampled_from(GOLDEN_DOCS))))
    elif source == 3:
        path = workdir / "doc.json"
        path.write_bytes(draw(mutated(compact(GOLDEN / f"{doc or 'tate'}.json"))))
        argv.append(str(path))
    elif source == 4:
        argv.append(str(draw(st.sampled_from([workdir / "missing.json", workdir]))))
    elif source == 5:
        path = workdir / "doc.json"
        path.write_text(json.dumps(draw(retyped(GOLDEN / f"{doc or 'tate'}.json"))))
        argv.append(str(path))
    # otherwise no input document
    return argv + draw(flag_args(command))


# tmp_path and monkeypatch are shared by the examples of one run: each example
# rewrites doc.json or tree.json and sets BERKLINE_MAX_CHAIN before its command runs.
FUZZ = settings(
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_every_command_line_exits_0_2_or_3(tmp_path, monkeypatch, data):
    check_command_line(tmp_path, monkeypatch, data, tuple(sorted(COMMANDS)))


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_tree_command_lines_exit_0_2_or_3(tmp_path, monkeypatch, data):
    check_command_line(tmp_path, monkeypatch, data, TREE_COMMANDS)


def check_command_line(workdir: Path, monkeypatch, data, commands: tuple[str, ...]) -> None:
    budget = data.draw(chain_budgets)
    if budget is None:
        monkeypatch.delenv("BERKLINE_MAX_CHAIN", raising=False)
    else:
        monkeypatch.setenv("BERKLINE_MAX_CHAIN", budget)
    argv = data.draw(command_lines(workdir, commands))
    assert run_cli_full(argv)[0] in (0, 2, 3), (argv, budget)


@settings(FUZZ, max_examples=500)
@given(data=st.data())
def test_retyped_documents_exit_0_2_or_3(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(c for c, (doc, _) in COMMANDS.items() if doc)))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data.draw(retyped(GOLDEN / f"{COMMANDS[command][0]}.json"))))
    argv = [command, str(path)]
    for name in COMMANDS[command][1]:  # well-formed flags, so the document is what fails
        argv += [name, data.draw(WELL_FORMED[name])]
    assert run_cli_full(argv)[0] in (0, 2, 3), argv


def test_the_fuzzer_draws_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMANDS)
