"""Parsing of berkline input documents.

A document is a JSON object with a ``field`` block and at most one payload
block.  All rationals travel as "num/den" strings (plain integers are also
accepted) so no float ever enters the toolchain; see docs/formats.md for the
full schema.  ``PAYLOADS`` maps each payload kind to its parser
``parse(spec, node, path)``, and every object block, the top level included,
is read by ``_object``, so parsing is strict in one place: unknown keys, wrong
shapes and inexact numbers raise :class:`SchemaError` with the offending path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

from .curves import CurveModel, TreeOfDisks, UltraScalar, curve_model, tree_of_disks, ultra_from_pairs
from .errors import InconsistentModel, SchemaError
from .field import PADIC, PUISEUX, AbsValue, FieldSpec, PadicScalar, Scalar, rational_pair
from .fsderiv import Domain, SeriesMap, series_map
from .points import Poly
from .tropic import Interval, TropicalPolygon
from .zalcman import SampledFunction, sampled_function


@dataclass
class Document:
    spec: FieldSpec
    kind: str
    payload: Any


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def _object(node: Any, path: str, keys: set[str]) -> dict:
    """The object block node at path, checked to hold no key outside keys."""
    if not isinstance(node, dict):
        raise _fail(path, "expected an object")
    if not keys.issuperset(node):
        raise _fail(path, f"unknown keys {sorted(set(node) - keys)}")
    return node


def _pair(node: Any, path: str) -> tuple[int, int]:
    """The document rational at path as a reduced int pair (n, d)."""
    # exact types: json.loads makes no other int or str, and bool is rejected
    if type(node) is not str and type(node) is not int:
        raise _fail(path, f"expected a rational as int or 'num/den' string, got {node!r}")
    try:
        return rational_pair(node)
    except ValueError as exc:
        raise _fail(path, f"bad rational {node!r}: {exc}") from None


def _rational(node: Any, path: str) -> Fraction:
    return Fraction(*_pair(node, path))


def _int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise _fail(path, f"expected an integer, got {node!r}")
    return node


def _list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise _fail(path, f"expected a list, got {node!r}")
    return node


def _entries(node: Any, path: str, sizes: tuple[int, ...], expected: str) -> Iterator[tuple[str, list]]:
    """(path, entry) for each entry of the list ``node``, failing with
    ``expected`` at the first entry that is not a list of one of ``sizes`` items."""
    for i, entry in enumerate(_list(node, path)):
        if not isinstance(entry, list) or len(entry) not in sizes:
            raise _fail(f"{path}[{i}]", expected)
        yield f"{path}[{i}]", entry


def _rational_pairs(node: Any, path: str, expected: str) -> list[tuple[Fraction, Fraction]]:
    return [(_rational(a, f"{at}[0]"), _rational(b, f"{at}[1]")) for at, (a, b) in _entries(node, path, (2,), expected)]


def parse_field_spec(node: Any, path: str = "field") -> FieldSpec:
    node = _object(node, path, {"backend", "p", "value_group", "numeric_base"})
    backend = node.get("backend")
    if backend not in (PADIC, PUISEUX):
        raise _fail(f"{path}.backend", f"expected 'padic' or 'puiseux-q', got {backend!r}")
    p = node.get("p")
    if backend == PADIC:
        p = _int(p, f"{path}.p")
    vg = node.get("value_group")
    if vg is not None and vg != "Q":
        vg = _int(vg, f"{path}.value_group")
    base = node.get("numeric_base")
    if base is not None:
        base = _rational(base, f"{path}.numeric_base")
    try:
        return FieldSpec(backend, p, vg, base)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def parse_scalar(spec: FieldSpec, node: Any, path: str) -> Scalar:
    if spec.backend == PADIC:
        return PadicScalar(spec, _rational(node, path))
    if isinstance(node, (int, str)):
        return spec.scalar(_rational(node, path))
    if isinstance(node, list):
        return spec.from_terms(_rational_pairs(node, path, "expected an [exponent, coefficient] pair"))
    raise _fail(path, f"expected a rational or a term list, got {node!r}")


def parse_poly(spec: FieldSpec, node: Any, path: str) -> Poly:
    if not isinstance(node, list):
        raise _fail(path, "expected a list of [exponent, coefficient] pairs")
    coeffs: dict[int, Scalar] = {}
    seen: set[int] = set()  # coeffs keeps nonzero terms only
    for at, (n, c) in _entries(node, path, (2,), "expected an [exponent, coefficient] pair"):
        n = _int(n, f"{at}[0]")
        if n in seen:
            raise _fail(at, f"duplicate exponent {n}")
        seen.add(n)
        c = parse_scalar(spec, c, f"{at}[1]")
        if not c.is_zero:
            coeffs[n] = c
    return Poly.from_dict(spec, coeffs)


def _parse_domain(node: Any, path: str) -> Domain | None:
    if node is None:
        return None
    if not isinstance(node, dict) or len(node) != 1:
        raise _fail(path, "expected {'disk': logval} or {'annulus': [lo, hi]}")
    if "disk" in node:
        return Domain.disk(AbsValue.of(_rational(node["disk"], f"{path}.disk")))
    if "annulus" in node:
        pair = node["annulus"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise _fail(f"{path}.annulus", "expected [lo, hi] log-radii")
        lo = AbsValue.of(_rational(pair[0], f"{path}.annulus[0]"))
        hi = AbsValue.of(_rational(pair[1], f"{path}.annulus[1]"))
        return Domain.annulus(lo, hi)
    raise _fail(path, "expected {'disk': ...} or {'annulus': ...}")


def _series(spec: FieldSpec, node: Any, path: str) -> Poly:
    return parse_poly(spec, _object(node, path, {"terms"}).get("terms"), f"{path}.terms")


def parse_map(spec: FieldSpec, node: Any, path: str) -> SeriesMap:
    node = _object(node, path, {"coordinates", "domain"})
    coords_node = node.get("coordinates")
    if not isinstance(coords_node, list) or len(coords_node) < 2:
        raise _fail(f"{path}.coordinates", "expected at least two coordinate polynomials")
    coords = [parse_poly(spec, c, f"{path}.coordinates[{i}]") for i, c in enumerate(coords_node)]
    return series_map(coords, _parse_domain(node.get("domain"), f"{path}.domain"))


def _map_family(spec: FieldSpec, node: Any, path: str) -> tuple[list[SeriesMap], list[Scalar] | None]:
    node = _object(node, path, {"maps", "witnesses"})
    maps_node = node.get("maps")
    if not isinstance(maps_node, list) or not maps_node:
        raise _fail(f"{path}.maps", "expected a nonempty list")
    maps = [parse_map(spec, m, f"{path}.maps[{i}]") for i, m in enumerate(maps_node)]
    wit_node = node.get("witnesses")
    if wit_node is None:
        return maps, None
    if not isinstance(wit_node, list) or len(wit_node) != len(maps):
        raise _fail(f"{path}.witnesses", "one witness per map")
    return maps, [parse_scalar(spec, w, f"{path}.witnesses[{i}]") for i, w in enumerate(wit_node)]


def _tuples(spec: FieldSpec, node: Any, path: str) -> tuple[list[Scalar], list[Scalar]]:
    node = _object(node, path, {"x", "y"})
    xs, ys = node.get("x"), node.get("y")
    if not isinstance(xs, list) or not isinstance(ys, list):
        raise _fail(path, "'x' and 'y' must be coordinate lists")
    x = [parse_scalar(spec, c, f"{path}.x[{i}]") for i, c in enumerate(xs)]
    return x, [parse_scalar(spec, c, f"{path}.y[{i}]") for i, c in enumerate(ys)]


def _parse_bound(node: Any, path: str) -> Fraction | None:
    if node is None:
        return None
    return _rational(node, path)


def parse_tropical(spec: FieldSpec, node: Any, path: str) -> TropicalPolygon:
    node = _object(node, path, {"terms", "domain"})
    terms_node = node.get("terms")
    if not isinstance(terms_node, list) or not terms_node:
        raise _fail(f"{path}.terms", "expected a nonempty list of [exponent, logval] pairs")
    terms = [
        (_int(n, f"{at}[0]"), _rational(v, f"{at}[1]"))
        for at, (n, v) in _entries(terms_node, f"{path}.terms", (2,), "expected an [exponent, logval] pair")
    ]
    dom = node.get("domain")
    if not isinstance(dom, list) or len(dom) != 2:
        raise _fail(f"{path}.domain", "expected [lo, hi] with null for an infinite endpoint")
    interval = Interval(_parse_bound(dom[0], f"{path}.domain[0]"), _parse_bound(dom[1], f"{path}.domain[1]"))
    try:
        return TropicalPolygon(tuple(terms), interval)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _parse_ultra(node: Any, path: str) -> UltraScalar:
    if isinstance(node, (int, str)):
        return ultra_from_pairs([(1, 1, *_pair(node, path))])
    if isinstance(node, list):
        return ultra_from_pairs(
            [
                _pair(m, f"{at}[0]") + _pair(c, f"{at}[1]")
                for at, (m, c) in _entries(node, path, (2,), "expected a [magnitude, coefficient] pair")
            ]
        )
    raise _fail(path, f"expected a rational or [magnitude, coefficient] pairs, got {node!r}")


def _name(node: Any, path: str, kind: str) -> str:
    if not isinstance(node, str):
        raise _fail(path, f"expected a {kind} name")
    return node


def parse_tree(spec: FieldSpec, node: Any, path: str) -> TreeOfDisks:
    node = _object(node, path, {"disks", "edges", "marks"})
    disks = node.get("disks")
    if not isinstance(disks, list) or not all(isinstance(d, str) for d in disks):
        raise _fail(f"{path}.disks", "expected a list of disk names")
    edges = []
    for at, e in _entries(node.get("edges", []), f"{path}.edges", (4,), "expected [diskA, coordA, diskB, coordB]"):
        a, b = _name(e[0], f"{at}[0]", "disk"), _name(e[2], f"{at}[2]", "disk")
        edges.append((a, _parse_ultra(e[1], f"{at}[1]"), b, _parse_ultra(e[3], f"{at}[3]")))
    marks_node = node.get("marks", {})
    if not isinstance(marks_node, dict):
        raise _fail(f"{path}.marks", "expected an object of name -> [disk, coord]")
    marks = {}
    for name in sorted(marks_node):
        entry = marks_node[name]
        if not isinstance(entry, list) or len(entry) != 2:
            raise _fail(f"{path}.marks.{name}", "expected [disk, coord]")
        disk = _name(entry[0], f"{path}.marks.{name}[0]", "disk")
        marks[name] = (disk, _parse_ultra(entry[1], f"{path}.marks.{name}[1]"))
    try:
        return tree_of_disks(disks, edges, marks)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _parse_attachment(node: Any, path: str):
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected ['vertex', name] or ['edge', index, offset]")
    if node[0] == "vertex" and len(node) == 2:
        return ("vertex", _name(node[1], f"{path}[1]", "vertex"))
    if node[0] == "edge" and len(node) == 3:
        return ("edge", _int(node[1], f"{path}[1]"), _rational(node[2], f"{path}[2]"))
    raise _fail(path, f"bad attachment {node!r}")


def parse_curve_model(spec: FieldSpec, node: Any, path: str) -> CurveModel:
    node = _object(node, path, {"vertices", "edges", "punctures", "boundary", "disks"})
    vertices = []
    for at, v in _entries(node.get("vertices", []), f"{path}.vertices", (1, 2, 3), "expected [name, genus?, extra?]"):
        name, genus, extra = (v + [0, 0])[:3]  # genus and extra default to 0
        vertices.append((_name(name, f"{at}[0]", "vertex"), _int(genus, f"{at}[1]"), _int(extra, f"{at}[2]")))
    edges = []
    for at, e in _entries(node.get("edges", []), f"{path}.edges", (3,), "expected [u, v, length]"):
        u, v = _name(e[0], f"{at}[0]", "vertex"), _name(e[1], f"{at}[1]", "vertex")
        edges.append((u, v, _rational(e[2], f"{at}[2]")))
    punctures = [
        _parse_attachment(a, f"{path}.punctures[{i}]")
        for i, a in enumerate(_list(node.get("punctures", []), f"{path}.punctures"))
    ]
    disks = [
        (_name(tag, f"{at}[0]", "tag"), _parse_attachment(a, f"{at}[1]"))
        for at, (tag, a) in _entries(node.get("disks", []), f"{path}.disks", (2,), "expected [tag, attachment]")
    ]
    boundary = [
        _name(b, f"{path}.boundary[{i}]", "vertex")
        for i, b in enumerate(_list(node.get("boundary", []), f"{path}.boundary"))
    ]
    try:
        return curve_model(vertices, edges, punctures, boundary, disks)
    except (ValueError, InconsistentModel) as exc:
        raise _fail(path, str(exc)) from None


def parse_sample_function(spec: FieldSpec, node: Any, path: str) -> SampledFunction:
    node = _object(node, path, {"points", "values"})
    pts = node.get("points")
    vals = node.get("values")
    if not isinstance(pts, list) or not isinstance(vals, list) or len(pts) != len(vals):
        raise _fail(path, "expected matching 'points' and 'values' lists")
    points = [parse_scalar(spec, p, f"{path}.points[{i}]") for i, p in enumerate(pts)]
    values = [_rational(v, f"{path}.values[{i}]") for i, v in enumerate(vals)]
    try:
        return sampled_function(points, values)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


# payload kind -> parse(spec, node, path)
PAYLOADS = {
    "series": _series,
    "map": parse_map,
    "tropical": parse_tropical,
    "tree-of-disks": parse_tree,
    "curve-model": parse_curve_model,
    "sample-function": parse_sample_function,
    "map-family": _map_family,
    "tuples": _tuples,
}
_TOP_LEVEL = {"field", *PAYLOADS}


def parse_document(text: str, spec: FieldSpec | None = None) -> Document:
    """The document in text; with ``spec``, its payload is parsed under that
    FieldSpec instead of the document's own field block (which must still be
    valid)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    raw = _object(raw, "top level", _TOP_LEVEL)
    if "field" not in raw:
        raise _fail("top level", "missing 'field' block")
    own = parse_field_spec(raw["field"])  # validated under an override too
    spec = own if spec is None else spec
    kinds = [k for k in raw if k != "field"]
    if len(kinds) > 1:
        raise _fail("top level", f"more than one payload block {sorted(kinds)}")
    if not kinds:
        return Document(spec, "field-only", None)
    kind = kinds[0]
    return Document(spec, kind, PAYLOADS[kind](spec, raw[kind], kind))


def load_document(path: str, spec: FieldSpec | None = None) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read(), spec)
