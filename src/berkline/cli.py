"""Command line front end.

Every subcommand reads a JSON input document (see docs/formats.md), runs one
library operation and prints exact results: rationals as "num/den",
magnitudes as "β^(num/den)" with the unit magnitude printed as "1" and the
zero magnitude as "0".  ``--multiplicative`` evaluates magnitudes to exact
rationals whenever the backend base makes that possible.  Output is
deterministic byte for byte; ``--json`` emits a machine-readable form.

Exit status: 0 on success, 2 on parse/schema errors, 3 on domain errors.

``main(argv)`` may be called repeatedly in one process: the argument parser is
built on the first call and reused by every later one.  ``build_parser()``
returns a fresh parser, so no caller can change the shared one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import curves, tropic
from .documents import Document, load_document, parse_field_spec
from .errors import BerklineError, SchemaError
from .field import (
    ABS_ONE,
    AbsValue,
    FieldSpec,
    NumericBaseRequired,
    PADIC,
    PUISEUX,
    Scalar,
    as_fraction,
    as_integer,
    magnitude_as_rational,
)
from .fsderiv import fs_derivative
from .metrics import d_proj
from .points import DiskPoint, diam_proj, eval_seminorm
from .zalcman import gromov_conditions, gromov_select, zalcman_rescale


def _format_magnitude(v: AbsValue, spec: FieldSpec, multiplicative: bool) -> str:
    if v.is_zero:
        return "0"
    if v.logval == 0:
        return "1"
    if multiplicative:
        try:
            return str(magnitude_as_rational(v, spec.base()))
        except (NumericBaseRequired, ValueError):
            pass
    return f"β^({v.logval})"


def _magnitude_json(v: AbsValue) -> object:
    return None if v.is_zero else str(v.logval)


def _format_cost(c) -> str:
    if c == curves.INFINITE:
        return "infinity"
    return str(c)


def _parse_scalar_literal(spec: FieldSpec, text: str) -> Scalar:
    """Scalar literals for flags: "3/4", "t^1/2", "2*t^3", sums with +."""
    text = text.strip()
    if spec.backend == PADIC:
        return spec.scalar(as_fraction(text))
    acc = spec.zero()
    for part in text.split("+"):
        part = part.strip()
        if "t^" in part:
            coeff_txt, _, exp_txt = part.partition("t^")
            coeff_txt = coeff_txt.rstrip("*").strip() or "1"
            acc = acc + spec.t_power(as_fraction(exp_txt), as_fraction(coeff_txt))
        elif part == "t":
            acc = acc + spec.t_power(1)
        else:
            acc = acc + spec.scalar(as_fraction(part))
    return acc


def _parse_point(spec: FieldSpec, text: str) -> DiskPoint:
    """--point CENTER[,LOGRADIUS]; radius "zero" or omitted means rigid."""
    center_txt, sep, radius_txt = text.partition(",")
    center = _parse_scalar_literal(spec, center_txt)
    if not sep or radius_txt.strip() in ("zero", "-inf"):
        return DiskPoint(center, AbsValue.zero())
    return DiskPoint(center, AbsValue.of(as_fraction(radius_txt)))


def _parse_field_flag(text: str) -> FieldSpec:
    name, _, arg = text.partition(":")
    if name == "padic":
        if not arg:
            raise SchemaError("--field padic:P needs a prime")
        return FieldSpec(PADIC, as_integer(arg))
    if name in ("puiseux", PUISEUX):
        base = as_fraction(arg) if arg else None
        return FieldSpec(PUISEUX, numeric_base=base)
    raise SchemaError(f"--field: unknown backend {name!r}")


def _integer_flag(text: str) -> int:
    """argparse type of the integer flags: the as_integer grammar."""
    try:
        return as_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load(args: argparse.Namespace, kinds: tuple[str, ...]) -> Document:
    if args.input is None:
        if kinds:
            raise SchemaError(f"an input file with a payload among {list(kinds)} is required")
        if getattr(args, "field", None):
            spec = _parse_field_flag(args.field)
            return Document(spec, "field-only", None, {"field": {"backend": spec.backend}})
        raise SchemaError("an input file (or --field) is required")
    # an override is parsed first, so that the payload is read under it
    override = _parse_field_flag(args.field) if getattr(args, "field", None) else None
    doc = load_document(args.input, override)
    if kinds and doc.kind not in kinds:
        raise SchemaError(f"command needs a payload among {list(kinds)}, got {doc.kind!r}")
    return doc


def _window(text: str) -> tuple[Fraction | None, Fraction | None]:
    lo_txt, sep, hi_txt = text.partition(",")
    if not sep:
        raise SchemaError("--window needs LO,HI (use -inf / +inf for open ends)")
    lo = None if lo_txt.strip() in ("-inf", "") else as_fraction(lo_txt)
    hi = None if hi_txt.strip() in ("+inf", "inf", "") else as_fraction(hi_txt)
    return lo, hi


def _emit(args: argparse.Namespace, text: str, payload: object) -> None:
    if args.json:
        print(json.dumps({"command": args.command, "result": payload}, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_eval(args) -> None:
    doc = _load(args, ("series",))
    point = _parse_point(doc.spec, args.point)
    value = eval_seminorm(doc.payload, point)
    _emit(args, _format_magnitude(value, doc.spec, args.multiplicative), _magnitude_json(value))


def _cmd_diam(args) -> None:
    doc = _load(args, ())
    points = [_parse_point(doc.spec, p) for p in args.point]
    value = diam_proj(points)
    _emit(args, _format_magnitude(value, doc.spec, args.multiplicative), _magnitude_json(value))


def _cmd_fsderiv(args) -> None:
    doc = _load(args, ("map",))
    point = _parse_point(doc.spec, args.point)
    value = fs_derivative(doc.payload, point)
    _emit(args, _format_magnitude(value, doc.spec, args.multiplicative), _magnitude_json(value))


def _cmd_dproj(args) -> None:
    doc = _load(args, ("tuples",))
    x, y = doc.payload
    value = d_proj(x, y)
    _emit(args, _format_magnitude(value, doc.spec, args.multiplicative), _magnitude_json(value))


def _segment_lines(segs) -> tuple[str, list]:
    lines = []
    payload = []
    for s in segs:
        left = "-inf" if s.left is None else str(s.left)
        right = "+inf" if s.right is None else str(s.right)
        lines.append(f"[{left}, {right})  slope {s.slope}  intercept {s.intercept}")
        payload.append(
            {
                "left": None if s.left is None else str(s.left),
                "right": None if s.right is None else str(s.right),
                "slope": s.slope,
                "intercept": str(s.intercept),
            }
        )
    return "\n".join(lines), payload


def _cmd_theta(args) -> None:
    doc = _load(args, ("tropical",))
    polygon = doc.payload
    if args.at is not None:
        value = polygon.theta(as_fraction(args.at))
        _emit(args, str(value), str(value))
        return
    if not args.plot:
        raise SchemaError("theta needs --at R or --plot")
    text, payload = _segment_lines(polygon.segments())
    _emit(args, text, payload)


def _cmd_segments(args) -> None:
    doc = _load(args, ("tropical",))
    text, payload = _segment_lines(doc.payload.segments())
    _emit(args, text, payload)


def _cmd_zeros(args) -> None:
    doc = _load(args, ("series",))
    lo, hi = _window(args.window)
    count = tropic.count_zeros_annulus(doc.payload, lo, hi)
    _emit(args, str(count), count)


def _cmd_pieces(args) -> None:
    doc = _load(args, ("series",))
    lo, hi = _window(args.window)
    pieces = tropic.monomial_pieces(doc.payload, tropic.Interval(lo, hi))
    lines = []
    payload = []
    for p in pieces:
        left = "-inf" if p.left is None else str(p.left)
        right = "+inf" if p.right is None else str(p.right)
        bounds = {
            "left": None if p.left is None else str(p.left),
            "right": None if p.right is None else str(p.right),
        }
        if p.constant:
            lines.append(f"[{left}, {right})  constant (zero diameter)")
            payload.append(bounds | {"constant": True})
        else:
            lines.append(f"[{left}, {right})  exponent {p.exponent}  logcoeff {p.logcoeff}")
            payload.append(bounds | {"exponent": p.exponent, "logcoeff": str(p.logcoeff)})
    _emit(args, "\n".join(lines), payload)


def _budget() -> int | None:
    """BERKLINE_MAX_CHAIN in the as_integer grammar; unset or empty means no budget."""
    raw = os.environ.get("BERKLINE_MAX_CHAIN")
    try:
        return as_integer(raw) if raw else None
    except ValueError as exc:
        raise SchemaError(f"BERKLINE_MAX_CHAIN: {exc}") from None


def _cmd_dck(args) -> None:
    doc = _load(args, ("tree-of-disks",))
    value = curves.dck_tree(doc.payload, args.src, args.dst, _budget())
    _emit(args, _format_cost(value), _format_cost(value))


def _cmd_dtree(args) -> None:
    doc = _load(args, ("tree-of-disks",))
    value = curves.d_tree(doc.payload, args.src, args.dst, _budget())
    _emit(args, _format_cost(value), _format_cost(value))


def _cmd_classify(args) -> None:
    doc = _load(args, ("curve-model",))
    label = curves.classify(doc.payload)
    _emit(args, str(label), {"kind": label.kind, "genus": label.genus})


def _cmd_genus(args) -> None:
    doc = _load(args, ("curve-model",))
    value = curves.total_genus(doc.payload)
    _emit(args, str(value), value)


def _cmd_chi(args) -> None:
    value = curves.euler_characteristic(args.genus, args.punctures)
    _emit(args, str(value), value)


def _cmd_gromov(args) -> None:
    doc = _load(args, ("sample-function",))
    sample = doc.payload
    b = gromov_select(sample, args.start, as_fraction(args.epsilon), as_fraction(args.tau))
    conds = gromov_conditions(sample, args.start, b, as_fraction(args.epsilon), as_fraction(args.tau))
    text = f"selected index {b}  conditions i={conds[0]} ii={conds[1]} iii={conds[2]}"
    _emit(args, text, {"selected": b, "conditions": list(conds)})


def _cmd_zalcman(args) -> None:
    doc = _load(args, ("map-family",))
    maps, witnesses = doc.payload
    n_max = args.nmax if args.nmax is not None else len(maps)
    if n_max > len(maps):
        raise SchemaError(f"--nmax {n_max} exceeds the {len(maps)} maps provided")
    spec = doc.spec

    def family(n: int):
        return maps[n - 1]

    def witness(n: int) -> Scalar:
        if witnesses is not None:
            return witnesses[n - 1]
        return spec.zero()

    steps = zalcman_rescale(family, witness, n_max)
    lines = []
    payload = []
    for s in steps:
        rho_mag = s.scale.abs()
        lines.append(
            f"n={s.index}  z={s.center!r}  |rho|={_format_magnitude(rho_mag, spec, args.multiplicative)}"
            f"  |g'(0)|={_format_magnitude(ABS_ONE, spec, args.multiplicative)}"
        )
        payload.append(
            {
                "n": s.index,
                "z": repr(s.center),
                "rho_logval": _magnitude_json(rho_mag),
                "derivative_at_zero": "1",
            }
        )
    _emit(args, "\n".join(lines), payload)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berkline",
        description="Exact computations on the Berkovich line: seminorms, "
        "diameters, derivative magnitudes, tropical envelopes, skeleton "
        "calculus and Kobayashi-type distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("input", nargs="?", help="input document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--multiplicative", action="store_true", help="print magnitudes as rationals when exact")
        p.add_argument("--field", help="field override: padic:P or puiseux[:BASE]")

    p = sub.add_parser("eval", help="seminorm of a series at a point")
    common(p)
    p.add_argument("--point", required=True, help="CENTER[,LOGRADIUS] ('zero' for rigid)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diam", help="projective diameter of a product point")
    common(p)
    p.add_argument("--point", action="append", required=True, help="one per coordinate")
    p.set_defaults(func=_cmd_diam)

    p = sub.add_parser("fsderiv", help="Fubini-Study derivative of a map at a point")
    common(p)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_fsderiv)

    p = sub.add_parser("dproj", help="projective distance of two rigid tuples")
    common(p)
    p.set_defaults(func=_cmd_dproj)

    p = sub.add_parser("theta", help="evaluate the tropical envelope")
    common(p)
    p.add_argument("--at", help="log-radius to evaluate at")
    p.add_argument("--plot", action="store_true", help="emit breakpoint/slope data")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("segments", help="envelope segments of a tropical polygon")
    common(p)
    p.set_defaults(func=_cmd_segments)

    p = sub.add_parser("zeros", help="count zeros of a series in a log-radius window")
    common(p)
    p.add_argument("--window", required=True, help="LO,HI log-radii (-inf/+inf allowed)")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("pieces", help="monomial pieces of the image diameter")
    common(p)
    p.add_argument("--window", required=True, help="LO,HI log-radii")
    p.set_defaults(func=_cmd_pieces)

    p = sub.add_parser("dck", help="chain semi-distance (sum of steps) on a tree of disks")
    common(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(func=_cmd_dck)

    p = sub.add_parser("dtree", help="ultrametric chain semi-distance (max step)")
    common(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(func=_cmd_dtree)

    p = sub.add_parser("classify", help="skeleton/node taxonomy of a curve model")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("genus", help="total genus of a projective curve model")
    common(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("chi", help="Euler characteristic 2 - 2g - punctures")
    common(p, with_input=False)
    p.add_argument("--genus", type=_integer_flag, required=True)
    p.add_argument("--punctures", type=_integer_flag, default=0)
    p.set_defaults(func=_cmd_chi, input=None)

    p = sub.add_parser("gromov", help="selection step on a sampled function")
    common(p)
    p.add_argument("--start", type=_integer_flag, required=True, help="index of the start point")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(func=_cmd_gromov)

    p = sub.add_parser("zalcman", help="rescale a map family around selected points")
    common(p)
    p.add_argument("--nmax", type=_integer_flag)
    p.set_defaults(func=_cmd_zalcman)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on the first call.

    argparse keeps no state between parse_args calls (each returns a new
    Namespace, and the only append action defaults to None), so one parser
    serves every main() call in the process.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except SchemaError as exc:
        print(f"berkline: input error: {exc}", file=sys.stderr)
        return 2
    except BerklineError as exc:
        print(f"berkline: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"berkline: input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
