"""Command line front end.

Every subcommand is one row of ``COMMANDS``: its help text, the payload kinds
its input document may carry (``None`` for a command that reads no
document), its own flags, and ``run(doc, args)``, which returns the text and
the JSON result.  ``main`` loads the document (see docs/formats.md), calls
``run`` and prints one of the two, so every command reads its input and
reports its result in the same place.  Results are exact: rationals as
"num/den", magnitudes as "β^(num/den)" with the unit magnitude printed as "1"
and the zero magnitude as "0".  ``--multiplicative`` evaluates magnitudes to
exact rationals whenever the backend base makes that possible.  Output is
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

from . import curves, tropic
from .documents import Document, load_document
from .errors import BerklineError, SchemaError
from .field import (
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
        if args.field:
            spec = _parse_field_flag(args.field)
            return Document(spec, "field-only", None)
        raise SchemaError("an input file (or --field) is required")
    # an override is parsed first, so that the payload is read under it
    override = _parse_field_flag(args.field) if args.field else None
    doc = load_document(args.input, override)
    if kinds and doc.kind not in kinds:
        raise SchemaError(f"command needs a payload among {list(kinds)}, got {doc.kind!r}")
    return doc


def _window(text: str) -> tropic.Interval:
    """--window LO,HI: a nonempty open interval of log-radii."""
    lo_txt, sep, hi_txt = text.partition(",")
    if not sep:
        raise SchemaError("--window needs LO,HI (use -inf / +inf for open ends)")
    lo = None if lo_txt.strip() in ("-inf", "") else as_fraction(lo_txt)
    hi = None if hi_txt.strip() in ("+inf", "inf", "") else as_fraction(hi_txt)
    return tropic.Interval(lo, hi)


def _budget() -> int | None:
    """BERKLINE_MAX_CHAIN in the as_integer grammar; unset or empty means no budget."""
    raw = os.environ.get("BERKLINE_MAX_CHAIN")
    try:
        return as_integer(raw) if raw else None
    except ValueError as exc:
        raise SchemaError(f"BERKLINE_MAX_CHAIN: {exc}") from None


# ---------------------------------------------------------------------------
# Results: each renderer returns the text and the JSON form of one result


def _number(value: object) -> tuple[str, object]:
    return str(value), value


def _magnitude(v: AbsValue, doc: Document, args: argparse.Namespace) -> tuple[str, str | None]:
    """The text ("0", "1", an exact rational under --multiplicative, else
    "β^(q)") and the JSON log-value (null for the zero magnitude)."""
    if v.is_zero:
        return "0", None
    logval = str(v.logval)
    if v.logval == 0:
        return "1", logval
    if args.multiplicative:
        try:
            return str(magnitude_as_rational(v, doc.spec.base())), logval
        except (NumericBaseRequired, ValueError):
            pass
    return f"β^({logval})", logval


def _bounds(left, right) -> tuple[str, dict]:
    """The text "[left, right)", with -inf/+inf for open ends, and the JSON ends (null when open)."""
    text = f"[{'-inf' if left is None else left}, {'+inf' if right is None else right})"
    return text, {"left": None if left is None else str(left), "right": None if right is None else str(right)}


def _segments(segs) -> tuple[str, list]:
    lines, payload = [], []
    for s in segs:
        text, bounds = _bounds(s.left, s.right)
        lines.append(f"{text}  slope {s.slope}  intercept {s.intercept}")
        payload.append(bounds | {"slope": s.slope, "intercept": str(s.intercept)})
    return "\n".join(lines), payload


def _theta(doc: Document, args):
    if args.at is not None:
        value = str(doc.payload.theta(as_fraction(args.at)))
        return value, value
    if not args.plot:
        raise SchemaError("theta needs --at R or --plot")
    return _segments(doc.payload.segments())


def _zeros(doc: Document, args):
    window = _window(args.window)
    return _number(tropic.count_zeros_annulus(doc.payload, window.lo, window.hi))


def _pieces(doc: Document, args):
    lines, payload = [], []
    for p in tropic.monomial_pieces(doc.payload, _window(args.window)):
        text, bounds = _bounds(p.left, p.right)
        if p.constant:
            lines.append(f"{text}  constant (zero diameter)")
            payload.append(bounds | {"constant": True})
        else:
            lines.append(f"{text}  exponent {p.exponent}  logcoeff {p.logcoeff}")
            payload.append(bounds | {"exponent": p.exponent, "logcoeff": str(p.logcoeff)})
    return "\n".join(lines), payload


def _chain(doc: Document, args):
    """dck (the sum of the steps) or dtree (the largest step), by args.command."""
    search = curves.dck_tree if args.command == "dck" else curves.d_tree
    value = search(doc.payload, args.src, args.dst, _budget())
    text = "infinity" if value == curves.INFINITE else str(value)
    return text, text


def _classify(doc: Document, args):
    label = curves.classify(doc.payload)
    return str(label), {"kind": label.kind, "genus": label.genus}


def _gromov(doc: Document, args):
    epsilon, tau = as_fraction(args.epsilon), as_fraction(args.tau)
    b = gromov_select(doc.payload, args.start, epsilon, tau)
    conds = gromov_conditions(doc.payload, args.start, b, epsilon, tau)
    text = f"selected index {b}  conditions i={conds[0]} ii={conds[1]} iii={conds[2]}"
    return text, {"selected": b, "conditions": list(conds)}


def _zalcman(doc: Document, args):
    maps, witnesses = doc.payload
    n_max = args.nmax if args.nmax is not None else len(maps)
    if n_max < 1:
        raise SchemaError(f"--nmax must be at least 1, got {n_max}")
    if n_max > len(maps):
        raise SchemaError(f"--nmax {n_max} exceeds the {len(maps)} maps provided")
    witnesses = witnesses or [doc.spec.zero() for _ in maps]
    lines, payload = [], []
    for s in zalcman_rescale(lambda n: maps[n - 1], lambda n: witnesses[n - 1], n_max):
        rho, rho_logval = _magnitude(s.scale.abs(), doc, args)
        lines.append(f"n={s.index}  z={s.center!r}  |rho|={rho}  |g'(0)|=1")
        payload.append({"n": s.index, "z": repr(s.center), "rho_logval": rho_logval, "derivative_at_zero": "1"})
    return "\n".join(lines), payload


# ---------------------------------------------------------------------------
# The command table and the parser built from it

_POINT = {"required": True, "help": "CENTER[,LOGRADIUS] ('zero' for rigid)"}
_CHAIN = {"--from": {"dest": "src", "required": True}, "--to": {"dest": "dst", "required": True}}

# name -> (help, payload kinds, {flag: add_argument options}, run(doc, args)); the kinds are None for a command
# that reads no document, and () for one that takes any document or --field alone
COMMANDS = {
    "eval": (
        "seminorm of a series at a point",
        ("series",),
        {"--point": _POINT},
        lambda doc, args: _magnitude(eval_seminorm(doc.payload, _parse_point(doc.spec, args.point)), doc, args),
    ),
    "diam": (
        "projective diameter of a product point",
        (),
        {"--point": {"action": "append", "required": True, "help": "one per coordinate"}},
        lambda doc, args: _magnitude(diam_proj([_parse_point(doc.spec, p) for p in args.point]), doc, args),
    ),
    "fsderiv": (
        "Fubini-Study derivative of a map at a point",
        ("map",),
        {"--point": _POINT},
        lambda doc, args: _magnitude(fs_derivative(doc.payload, _parse_point(doc.spec, args.point)), doc, args),
    ),
    "dproj": (
        "projective distance of two rigid tuples",
        ("tuples",),
        {},
        lambda doc, args: _magnitude(d_proj(*doc.payload), doc, args),
    ),
    "theta": (
        "evaluate the tropical envelope",
        ("tropical",),
        {
            "--at": {"help": "log-radius to evaluate at"},
            "--plot": {"action": "store_true", "help": "emit breakpoint/slope data"},
        },
        _theta,
    ),
    "segments": (
        "envelope segments of a tropical polygon",
        ("tropical",),
        {},
        lambda doc, args: _segments(doc.payload.segments()),
    ),
    "zeros": (
        "count zeros of a series in a log-radius window",
        ("series",),
        {"--window": {"required": True, "help": "LO,HI log-radii (-inf/+inf allowed)"}},
        _zeros,
    ),
    "pieces": (
        "monomial pieces of the image diameter",
        ("series",),
        {"--window": {"required": True, "help": "LO,HI log-radii"}},
        _pieces,
    ),
    "dck": ("chain semi-distance (sum of steps) on a tree of disks", ("tree-of-disks",), _CHAIN, _chain),
    "dtree": ("ultrametric chain semi-distance (max step)", ("tree-of-disks",), _CHAIN, _chain),
    "classify": ("skeleton/node taxonomy of a curve model", ("curve-model",), {}, _classify),
    "genus": (
        "total genus of a projective curve model",
        ("curve-model",),
        {},
        lambda doc, args: _number(curves.total_genus(doc.payload)),
    ),
    "chi": (
        "Euler characteristic 2 - 2g - punctures",
        None,
        {"--genus": {"type": _integer_flag, "required": True}, "--punctures": {"type": _integer_flag, "default": 0}},
        lambda doc, args: _number(curves.euler_characteristic(args.genus, args.punctures)),
    ),
    "gromov": (
        "selection step on a sampled function",
        ("sample-function",),
        {
            "--start": {"type": _integer_flag, "required": True, "help": "index of the start point"},
            "--epsilon": {"required": True},
            "--tau": {"required": True},
        },
        _gromov,
    ),
    "zalcman": (
        "rescale a map family around selected points",
        ("map-family",),
        {"--nmax": {"type": _integer_flag}},
        _zalcman,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berkline",
        description="Exact computations on the Berkovich line: seminorms, "
        "diameters, derivative magnitudes, tropical envelopes, skeleton "
        "calculus and Kobayashi-type distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, kinds, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if kinds is not None:
            p.add_argument("input", nargs="?", help="input document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--multiplicative", action="store_true", help="print magnitudes as rationals when exact")
        p.add_argument("--field", help="field override: padic:P or puiseux[:BASE]")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
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
    _, kinds, _, run = COMMANDS[args.command]
    try:
        text, payload = run(None if kinds is None else _load(args, kinds), args)
        print(json.dumps({"command": args.command, "result": payload}, sort_keys=True) if args.json else text)
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
