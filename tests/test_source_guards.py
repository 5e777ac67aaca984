"""Source guards: the library contains no floating point at all, its
runtime checks are explicit raises, never assert statements (which python -O
strips), every import sits at module level, no tuple is built from a
generator expression, the polynomial kernels allocate no dense lists,
magnitude arithmetic builds no Fraction, nor do the int paths of document
rationals, in-disk coordinates and the p-adic selection gap, the seminorm
kernel builds no Poly and evaluates no Scalar, the int kernel of a query
builds no AbsValue and reads no magnitude of a Scalar, nor do the
point-level checks, which read |a| as an int pair, the rigid value runs on
raw int rows with no term-map arithmetic, the map reduction
and the substitution name no Poly and use none of its members, every
benchmark trace target names a library function, and the CLI's command
table and the document reader's payload table name the same payload
kinds."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import MemberDescriptorType

import pytest

from berkline import Poly, cli, documents
from berkline.field import Scalar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "berkline"


def _float_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{path.name}:{node.lineno}: float(...) call")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_literals_or_calls(path):
    assert _float_uses(path) == []


def _asserts(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{node.lineno}: assert" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _asserts(path) == []


def _function_local_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno}: import in {fn.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert _function_local_imports(path) == []


def _tuple_from_generator(path: Path) -> list[str]:
    # tuple(genexpr) reallocates a guessed-size tuple, and the freed results
    # pile up in CPython's per-size tuple free lists (see field.py's term
    # algebra comment): build the tuple from a list instead.
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.name}:{node.lineno}: tuple(genexpr)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and node.args
        and isinstance(node.args[0], ast.GeneratorExp)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_tuple_from_generator(path):
    assert _tuple_from_generator(path) == []


def _list_multiplications(path: Path) -> list[str]:
    # [x] * n allocates one slot per unit of n: the dense layout that gave
    # an integer polynomial one slot per unit of exponent span
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.name}:{node.lineno}: list * n"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and (isinstance(node.left, (ast.List, ast.ListComp)) or isinstance(node.right, (ast.List, ast.ListComp)))
    ]


@pytest.mark.parametrize("name", ["field.py", "points.py"])
def test_polynomial_kernels_build_no_list_by_multiplication(name):
    assert _list_multiplications(SRC / name) == []


def _unreferenced_private_functions() -> list[str]:
    # a private module-level function that nothing else in the package names
    # is dead code: count every name and attribute outside its own body
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    names: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if isinstance(node, ast.alias):
                name = node.name
            if name is not None:
                names[name] = names.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__"):
                inside = sum(1 for node in ast.walk(fn) if getattr(node, "id", None) == fn.name)
                if names.get(fn.name, 0) - inside == 0:
                    found.append(f"{module}:{fn.lineno}: {fn.name}")
    return found


def test_every_private_function_is_referenced():
    assert _unreferenced_private_functions() == []


# the order and arithmetic of AbsValue, its one constructor and its producers
# (the seminorm kernel among them), and the int keys of the Puiseux hash:
# magnitudes are reduced int pairs, and a Fraction here is one per magnitude
MAGNITUDE_FUNCTIONS = [
    ("field.py", "AbsValue.__lt__"),
    ("field.py", "AbsValue.__le__"),
    ("field.py", "AbsValue.__gt__"),
    ("field.py", "AbsValue.__ge__"),
    ("field.py", "AbsValue.__mul__"),
    ("field.py", "AbsValue.__truediv__"),
    ("field.py", "AbsValue.__pow__"),
    ("field.py", "_magnitude"),
    ("field.py", "PuiseuxScalar.abs"),
    ("field.py", "PadicScalar.abs"),
    ("field.py", "_padic_split"),
    ("field.py", "_expansion"),
    ("points.py", "initial_form"),
    ("points.py", "_Point.__init__"),
    ("points.py", "_term_abs"),
    ("points.py", "_weights"),
    ("points.py", "_certificate"),
    ("points.py", "_seminorm"),
    ("points.py", "_derivative_seminorm"),
    ("points.py", "_disk_image"),
    ("points.py", "_truncated_value"),
    ("points.py", "_cut_product"),
]


# the parser of document rationals, the int layout of in-disk coordinates,
# the chain search's steps and the p-adic gap of the selection step: ints
# from the document to the result, so a Fraction here is one per coordinate
# or sample point
INT_PATH_FUNCTIONS = [
    ("field.py", "rational_pair"),
    ("field.py", "PadicScalar.dist"),
    ("curves.py", "UltraScalar.__sub__"),
    ("curves.py", "ultra_from_pairs"),
    ("curves.py", "_top_down"),
    ("curves.py", "_step"),
]


# a call of either builds a Fraction
FRACTION_BUILDERS = ("Fraction", "as_fraction")


def _scope(name: str, qualname: str) -> ast.AST:
    path = SRC / name
    scope: ast.AST = ast.parse(path.read_text(), str(path))
    for part in qualname.split("."):
        scope = next(
            node
            for node in ast.iter_child_nodes(scope)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == part
        )
    return scope


def _fraction_calls(name: str, qualname: str) -> list[str]:
    return [
        f"{name}:{node.lineno}: {ast.unparse(node.func)}(...) in {qualname}"
        for node in ast.walk(_scope(name, qualname))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in FRACTION_BUILDERS)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in FRACTION_BUILDERS)
        )
    ]


@pytest.mark.parametrize("name, qualname", MAGNITUDE_FUNCTIONS, ids=lambda x: x)
def test_magnitude_arithmetic_builds_no_fraction(name, qualname):
    assert _fraction_calls(name, qualname) == []


@pytest.mark.parametrize("name, qualname", INT_PATH_FUNCTIONS, ids=lambda x: x)
def test_int_paths_build_no_fraction(name, qualname):
    assert _fraction_calls(name, qualname) == []


# the seminorm kernel reads cleared lists of int term maps at every point
# type, the rigid point included: no Poly is built there and no Horner's rule
# on Scalars runs
KERNEL_FUNCTIONS = [
    ("points.py", "_seminorm"),
    ("points.py", "_derivative_seminorm"),
    ("points.py", "_certificate"),
    ("points.py", "_disk_image"),
    ("points.py", "_truncated_value"),
    ("points.py", "_cut_product"),
    ("points.py", "_SyntheticDivision"),
    ("points.py", "_value_at"),
]


def _poly_uses(name: str, qualname: str) -> list[str]:
    return [
        f"{name}:{node.lineno}: {ast.unparse(node)} in {qualname}"
        for node in ast.walk(_scope(name, qualname))
        if (isinstance(node, ast.Name) and node.id == "Poly")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "evaluate")
    ]


@pytest.mark.parametrize("name, qualname", KERNEL_FUNCTIONS, ids=lambda x: x)
def test_seminorm_kernel_names_no_poly_and_evaluates_no_scalar(name, qualname):
    assert _poly_uses(name, qualname) == []


# the int kernel of one query: a magnitude is an unreduced int pair from the
# cleared lists up to the public function, which builds the one AbsValue of
# its result, so these bodies name no AbsValue builder and call no abs()
INT_KERNEL_FUNCTIONS = [
    ("points.py", "_Point.__init__"),
    ("points.py", "_log_lt"),
    ("points.py", "_log_max"),
    ("points.py", "_log_mul"),
    ("points.py", "_log_div"),
    ("points.py", "_term_abs"),
    ("points.py", "_weights"),
    ("points.py", "_certificate"),
    ("points.py", "_seminorm"),
    ("points.py", "_derivative_seminorm"),
    ("points.py", "_disk_image"),
    ("points.py", "_truncated_value"),
    ("fsderiv.py", "_minor_seminorms"),
    ("fsderiv.py", "_at_radius"),
]
ABS_VALUE_NAMES = ("_magnitude", "AbsValue", "abs_max", "unit_max", "ABS_ZERO", "ABS_ONE")


def _abs_value_uses_in_body(name: str, qualname: str) -> list[str]:
    return [
        f"{name}:{node.lineno}: {ast.unparse(node)} in {qualname}"
        for statement in _scope(name, qualname).body
        for node in ast.walk(statement)
        if (isinstance(node, ast.Name) and node.id in ABS_VALUE_NAMES)
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "abs")
    ]


@pytest.mark.parametrize("name, qualname", INT_KERNEL_FUNCTIONS, ids=lambda x: x)
def test_int_kernel_builds_no_abs_value_and_reads_no_scalar_magnitude(name, qualname):
    assert _abs_value_uses_in_body(name, qualname) == []


# |P'| at a point is read off P's own terms (points._derivative_seminorm):
# the derivative and the ball image build no P' list, which only the
# seminorm's sigma' = 0 and Laurent fallback does
DERIVATIVE_READERS = [
    ("fsderiv.py", "fs_derivative"),
    ("fsderiv.py", "_minor_seminorms"),
    ("fsderiv.py", "apply_map"),
    ("points.py", "_disk_image"),
]


@pytest.mark.parametrize("name, qualname", DERIVATIVE_READERS, ids=lambda x: x)
def test_derivative_seminorms_build_no_derivative_list(name, qualname):
    assert [
        f"{name}:{node.lineno}: _derived in {qualname}"
        for node in ast.walk(_scope(name, qualname))
        if isinstance(node, ast.Name) and node.id == "_derived"
    ] == []


# the point-level checks read |a| as an int pair (Scalar.abs_pair, one reader
# per backend) and decide on ints: their bodies call no abs() or norm(), the
# readers of an AbsValue, and name no AbsValue builder
PAIR_READER_FUNCTIONS = [
    ("field.py", "PadicScalar.abs_pair"),
    ("field.py", "PuiseuxScalar.abs_pair"),
    ("points.py", "_log_norm"),
    ("points.py", "short_centre"),
    ("fsderiv.py", "Domain.contains"),
    ("fsderiv.py", "_validate_generator"),
]


def _magnitude_reads_in_body(name: str, qualname: str) -> list[str]:
    return _abs_value_uses_in_body(name, qualname) + [
        f"{name}:{node.lineno}: {ast.unparse(node)} in {qualname}"
        for statement in _scope(name, qualname).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "norm"
    ]


@pytest.mark.parametrize("name, qualname", PAIR_READER_FUNCTIONS, ids=lambda x: x)
def test_point_checks_read_magnitudes_as_int_pairs(name, qualname):
    assert _magnitude_reads_in_body(name, qualname) == []


# the rigid value is one Horner pass on raw int rows, reduced once at its
# end: no term-map product, sum or power runs inside it
TERM_MAP_ARITHMETIC = ("_terms_mul", "_terms_add", "_times", "_power")
RAW_ROW_FUNCTIONS = [
    ("points.py", "_value_at"),
    ("points.py", "_add_product"),
    ("points.py", "_row_power"),
    ("points.py", "_row_product"),
]


def _term_map_arithmetic(name: str, qualname: str) -> list[str]:
    return [
        f"{name}:{node.lineno}: {node.id} in {qualname}"
        for node in ast.walk(_scope(name, qualname))
        if isinstance(node, ast.Name) and node.id in TERM_MAP_ARITHMETIC
    ]


@pytest.mark.parametrize("name, qualname", RAW_ROW_FUNCTIONS, ids=lambda x: x)
def test_rigid_value_runs_on_raw_rows(name, qualname):
    assert _term_map_arithmetic(name, qualname) == []


# the map reduction, the rescaling and the substitution read and return
# cleared lists: their bodies name no Poly and use no member of it, beyond
# its fields and what a Scalar shares with it (is_zero); annotations may
# name Poly
CLEARED_LIST_FUNCTIONS = [
    ("fsderiv.py", "series_map"),
    ("fsderiv.py", "rescale_map"),
    ("fsderiv.py", "_substitute_cleared"),
]
POLY_MEMBERS = sorted(
    name
    for name, value in vars(Poly).items()
    if not name.startswith("__") and not isinstance(value, MemberDescriptorType) and not hasattr(Scalar, name)
)


def _poly_uses_in_body(name: str, qualname: str) -> list[str]:
    fn = _scope(name, qualname)
    annotated = [node.annotation for node in ast.walk(fn) if isinstance(node, ast.AnnAssign)]
    annotations = {id(n) for annotation in annotated for n in ast.walk(annotation)}
    return [
        f"{name}:{node.lineno}: {ast.unparse(node)} in {qualname}"
        for statement in fn.body
        for node in ast.walk(statement)
        if id(node) not in annotations
        and (
            (isinstance(node, ast.Name) and node.id == "Poly")
            or (isinstance(node, ast.Attribute) and node.attr in POLY_MEMBERS)
        )
    ]


@pytest.mark.parametrize("name, qualname", CLEARED_LIST_FUNCTIONS, ids=lambda x: x)
def test_cleared_list_functions_build_no_poly_and_use_none_of_its_members(name, qualname):
    assert POLY_MEMBERS
    assert _poly_uses_in_body(name, qualname) == []


def _trace_targets() -> list[tuple[str, str, str, str]]:
    # read, not imported: the TARGETS literal of benchmarks/spans.py
    tree = ast.parse((ROOT / "benchmarks" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/spans.py defines no TARGETS list")


def test_every_benchmark_trace_target_resolves_in_the_library():
    # the tracer wraps (layer, name, owner, attribute): a module attribute
    # through getattr, a class attribute through the class's own __dict__
    # (an inherited method is not there), so a renamed, deleted or merely
    # inherited function breaks --trace 1; name it here instead
    targets = _trace_targets()
    assert targets
    missing = []
    for layer, name, owner, attr in targets:
        module = importlib.import_module(f"berkline.{layer}")
        if owner == "module":
            target = getattr(module, attr, None)
        else:
            target = vars(getattr(module, owner, object)).get(attr)
        if not callable(target):
            missing.append(f"{layer}.{name}: {owner}.{attr}")
    assert missing == []


def _command_payload_kinds() -> set[str]:
    return {kind for _, kinds, _, _ in cli.COMMANDS.values() for kind in kinds or ()}


def test_every_command_payload_kind_has_a_parser():
    # a kind no parser reads would turn every input of that command into a schema error
    assert sorted(_command_payload_kinds() - documents.PAYLOADS.keys()) == []


def test_every_payload_kind_is_read_by_a_command():
    # a kind no command takes is parsed only to be refused
    assert sorted(documents.PAYLOADS.keys() - _command_payload_kinds()) == []
