"""Shared fixtures and deterministic random generators for the test suite."""

from __future__ import annotations

import io
import math
import operator
import random
import re
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest

from berkline import (
    ABS_ONE,
    ABS_ZERO,
    AbsValue,
    DiskPoint,
    FieldSpec,
    Poly,
    ProjPoint,
    SeriesMap,
    rigid,
    series_map,
    taylor_shift,
    tree_of_disks,
)
from berkline import points
from berkline.cli import main
from berkline.errors import BackendMismatch, DomainViolation, NumericBaseRequired, PoleAtPoint
from berkline.field import (
    _KEY_TERMS,
    _ONE_TERMS,
    _magnitude,
    _reduced,
    _terms_at,
    _terms_from_dict,
    _terms_gcd,
    _terms_lowest,
    _terms_shift,
    abs_max,
    unit_max,
)
from berkline.fsderiv import _plain_shift, _require_in_domain, _word_matrix
from berkline.points import _ONE_POLY, _Point, _seminorm, _times, _wronskian


# Process CPU seconds (user time, ITIMER_VIRTUAL) that one test may use; the
# slowest test takes about 4 s, so only a hang reaches the limit.
CPU_SECONDS_PER_TEST = 300


class CpuLimitExceeded(BaseException):
    """A test used more than CPU_SECONDS_PER_TEST of CPU.  Not an Exception,
    so hypothesis reports it at once instead of shrinking through it."""


@pytest.fixture(autouse=True)
def cpu_limit():
    """Turn a hang into a failure: a virtual-time timer, armed for each test
    and disarmed after it.  It counts CPU time, not wall time, so a loaded
    host cannot trip it, and it leaves SIGALRM and ITIMER_REAL to the tests'
    own wall-clock deadlines."""

    def expire(signum, frame):
        raise CpuLimitExceeded(f"the test used more than {CPU_SECONDS_PER_TEST} s of CPU")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, CPU_SECONDS_PER_TEST)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


@pytest.fixture
def p3() -> FieldSpec:
    return FieldSpec("padic", 3)


@pytest.fixture
def p2() -> FieldSpec:
    return FieldSpec("padic", 2)


@pytest.fixture
def pq() -> FieldSpec:
    return FieldSpec("puiseux-q")


def run_cli_full(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (argparse's SystemExit code included), stdout and stderr of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def count_deflation_passes(monkeypatch) -> list[int]:
    """The passes that the sigma = 0 fallback of the seminorm kernel
    (points._seminorm, under eval_seminorm, fs_derivative and apply_map)
    runs, one entry (the pass index) per pass: the passes of
    points._SyntheticDivision that deflate at a ball, and the one value-only
    pass (points._value_at, entry 0) that gives P(a) at a rigid point.  The
    one pass of a disk image (a padic ball's division; a puiseux-q ball
    divides nowhere but in the seminorm of P') and the passes of
    taylor_shift are not counted."""
    passes: list[int] = []
    divide, value_at = points._SyntheticDivision.divide, points._value_at

    def counting(division):
        if sys._getframe(1).f_code.co_name == "_seminorm":
            passes.append(division.k)
        return divide(division)

    def evaluating(*args):
        if sys._getframe(1).f_code.co_name == "_seminorm":
            passes.append(0)
        return value_at(*args)

    monkeypatch.setattr(points._SyntheticDivision, "divide", counting)
    monkeypatch.setattr(points, "_value_at", evaluating)
    return passes


def rng_for(name: str) -> random.Random:
    return random.Random(f"berkline:{name}")


def random_padic_scalar(rng: random.Random, spec: FieldSpec, unit_ball: bool = False):
    p = spec.p
    num = rng.choice([1, 2, 4, 5, 7, 8, -1, -2, -5])
    den = rng.choice([1, 1, 2, 5, 7])
    while den % p == 0:
        den = rng.choice([1, 2, 5, 7, 11])
    k = rng.randint(0, 3) if unit_ball else rng.randint(-2, 3)
    return spec.scalar(Fraction(num, den) * Fraction(p) ** k)


def random_puiseux_scalar(rng: random.Random, spec: FieldSpec, unit_ball: bool = False):
    n_terms = rng.randint(0, 2)
    terms = []
    for _ in range(n_terms + 1):
        d = rng.choice([1, 1, 2, 3])
        lo = 0 if unit_ball else -2
        q = Fraction(rng.randint(lo * d, 3 * d), d)
        c = rng.choice([1, 2, 3, -1, -2, 5])
        terms.append((q, c))
    return spec.from_terms(terms)


def random_scalar(rng: random.Random, spec: FieldSpec, unit_ball: bool = False):
    if spec.backend == "padic":
        return random_padic_scalar(rng, spec, unit_ball)
    return random_puiseux_scalar(rng, spec, unit_ball)


def random_nonzero_scalar(rng: random.Random, spec: FieldSpec, unit_ball: bool = False):
    while True:
        x = random_scalar(rng, spec, unit_ball)
        if not x.is_zero:
            return x


def random_radius(rng: random.Random, allow_zero: bool = True) -> AbsValue:
    if allow_zero and rng.random() < 0.3:
        return AbsValue.zero()
    d = rng.choice([1, 1, 2, 3])
    return AbsValue.of(Fraction(rng.randint(-6 * d, 0), d))


def random_unit_disk_point(rng: random.Random, spec: FieldSpec) -> DiskPoint:
    return DiskPoint(random_scalar(rng, spec, unit_ball=True), random_radius(rng))


def random_poly(rng: random.Random, spec: FieldSpec, max_deg: int, unit_ball: bool = False) -> Poly:
    coeffs = {}
    for n in range(max_deg + 1):
        if rng.random() < 0.6:
            coeffs[n] = random_scalar(rng, spec, unit_ball)
    poly = Poly.from_dict(spec, coeffs)
    if poly.is_zero:
        return Poly.from_dict(spec, {rng.randint(0, max_deg): spec.one()})
    return poly


def random_laurent(rng: random.Random, spec: FieldSpec, span: int = 4) -> Poly:
    coeffs = {}
    for n in range(-span, span + 1):
        if rng.random() < 0.4:
            coeffs[n] = random_scalar(rng, spec)
    poly = Poly.from_dict(spec, coeffs)
    if poly.is_zero:
        return Poly.from_dict(spec, {rng.randint(-span, span): spec.one()})
    return poly


def random_poly_map(rng: random.Random, spec: FieldSpec, max_deg: int) -> SeriesMap:
    """A map [1 : P] with P nonconstant, coefficients in the unit ball."""
    while True:
        p = random_poly(rng, spec, max_deg, unit_ball=True)
        if not p.is_constant:
            return series_map([Poly.constant(spec, spec.one()), p])


def random_pgl_word(rng: random.Random, spec: FieldSpec, max_len: int = 4) -> list:
    word = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(["scale", "translate", "invert"])
        if kind == "scale":
            if spec.backend == "padic":
                a = spec.scalar(rng.choice([1, 2, -1, Fraction(4, 5), 7]))
            else:
                a = spec.from_terms([(0, rng.choice([1, 2, -1, 3])), (rng.randint(1, 3), 1)])
            word.append(("scale", a))
        elif kind == "translate":
            word.append(("translate", random_scalar(rng, spec, unit_ball=True)))
        else:
            word.append(("invert",))
    return word


def random_tree_of_disks(rng: random.Random, n_disks: int = 5):
    """A connected tree-of-disks model with a few extra cycle edges and
    three marked points."""
    names = [f"d{i}" for i in range(n_disks)]
    mags = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)]

    def coord():
        k = rng.randint(0, 2)
        pairs = [(rng.choice(mags), rng.randint(-2, 2)) for _ in range(k)]
        return [(m, c) for m, c in pairs if c != 0]

    edges = []
    for i in range(1, n_disks):
        other = names[rng.randint(0, i - 1)]
        edges.append((names[i], coord(), other, coord()))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(names, 2)
        edges.append((a, coord(), b, coord()))
    marks = {m: (rng.choice(names), coord()) for m in ("x", "y", "z")}
    return tree_of_disks(names, edges, marks)


# ---------------------------------------------------------------------------
# Recentering oracles: slow, exact, independent of points.taylor_shift


def binomial_shift_oracle(p: Poly, a):
    """Independent recentering oracle: expand each (T + a)^n binomially."""
    spec = p.spec
    acc: dict[int, object] = {}
    for n, c in p.terms:
        for k in range(n + 1):
            term = c * spec.scalar(comb(n, k))
            for _ in range(n - k):
                term = term * a
            prev = acc.get(k)
            acc[k] = term if prev is None else prev + term
    return Poly.from_dict(spec, {k: v for k, v in acc.items() if not v.is_zero})


def horner_shift_oracle(p: Poly, a):
    """Dense synthetic-Horner recentering: O(deg^2) scalar operations."""
    spec = p.spec
    coeffs = [spec.zero()] * (p.degree() + 1)
    for n, c in p.terms:
        coeffs[n] = c
    deg = len(coeffs) - 1
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            coeffs[j] = coeffs[j] + a * coeffs[j + 1]
    return Poly.from_coeffs(spec, coeffs)


# ---------------------------------------------------------------------------
# Product oracles: the per-coefficient Scalar loops that the cleared-product
# kernel of points.py replaced


def poly_add_oracle(a: Poly, b: Poly) -> Poly:
    acc = dict(a.terms)
    for n, c in b.terms:
        s = acc.get(n, a.spec.zero()) + c
        if s.is_zero:
            acc.pop(n, None)
        else:
            acc[n] = s
    return Poly(a.spec, tuple(sorted(acc.items())))


def poly_sub_oracle(a: Poly, b: Poly) -> Poly:
    return poly_add_oracle(a, -b)


def poly_mul_oracle(a: Poly, b: Poly) -> Poly:
    acc: dict = {}
    for n, x in a.terms:
        for m, y in b.terms:
            k = n + m
            prod = x * y
            if k in acc:
                s = acc[k] + prod
                if s.is_zero:
                    del acc[k]
                else:
                    acc[k] = s
            elif not prod.is_zero:
                acc[k] = prod
    return Poly(a.spec, tuple(sorted(acc.items())))


def poly_scale_oracle(p: Poly, c) -> Poly:
    if c.is_zero:
        return Poly(p.spec, ())
    return Poly(p.spec, tuple([(n, a * c) for n, a in p.terms]))


def poly_derivative_oracle(p: Poly) -> Poly:
    acc = {}
    for n, c in p.terms:
        if n:
            acc[n - 1] = c * p.spec.scalar(n)
    return Poly.from_dict(p.spec, acc)


def wronskian_oracle(f: SeriesMap) -> list[Poly]:
    derivs = [poly_derivative_oracle(c) for c in f.coords]
    out = []
    for i in range(len(f.coords)):
        for j in range(i + 1, len(f.coords)):
            left, right = poly_mul_oracle(derivs[i], f.coords[j]), poly_mul_oracle(derivs[j], f.coords[i])
            out.append(poly_sub_oracle(left, right))
    return out


def proportional_oracle(f: SeriesMap, g: SeriesMap) -> bool:
    if len(f.coords) != len(g.coords):
        return False
    for i in range(len(f.coords)):
        for j in range(i + 1, len(f.coords)):
            left, right = poly_mul_oracle(f.coords[i], g.coords[j]), poly_mul_oracle(f.coords[j], g.coords[i])
            if not poly_sub_oracle(left, right).is_zero:
                return False
    return True


def substitute_oracle(f: SeriesMap, num: Poly, den: Poly) -> tuple[Poly, ...]:
    """The coordinates of f composed with num/den: sum_j a_j num^j den^(d-j)
    after one common shift to plain coordinates, d the largest degree."""
    shift = min(min(0, c.min_exp()) for c in f.coords if not c.is_zero)
    plain = [c.shift_exp(-shift) for c in f.coords]
    d = max(c.degree() for c in plain if not c.is_zero)
    one = Poly.constant(f.spec, f.spec.one())
    pow_num, pow_den = [one], [one]
    for _ in range(d):
        pow_num.append(poly_mul_oracle(pow_num[-1], num))
        pow_den.append(poly_mul_oracle(pow_den[-1], den))
    coords = []
    for c in plain:
        acc = Poly(f.spec, ())
        for j, a in c.terms:
            acc = poly_add_oracle(acc, poly_scale_oracle(poly_mul_oracle(pow_num[j], pow_den[d - j]), a))
        coords.append(acc)
    return tuple(coords)


def pgl_apply_oracle(word, f: SeriesMap) -> tuple[Poly, ...]:
    """The word's matrix multiplied out in Scalar arithmetic, then substituted."""
    spec = f.spec
    one, zero = spec.one(), spec.zero()
    a, b, c, d = one, zero, zero, one
    for gen in word:
        if gen[0] == "scale":
            m = (gen[1], zero, zero, one)
        elif gen[0] == "translate":
            m = (one, gen[1], zero, one)
        else:
            m = (zero, one, one, zero)
        a, b, c, d = a * m[0] + b * m[2], a * m[1] + b * m[3], c * m[0] + d * m[2], c * m[1] + d * m[3]
    return substitute_oracle(f, Poly.from_dict(spec, {0: b, 1: a}), Poly.from_dict(spec, {0: d, 1: c}))


# ---------------------------------------------------------------------------
# Division oracle: field division on Scalars, independent of the Z[u][T] path


def poly_divexact_oracle(a: Poly, b: Poly) -> Poly:
    """a / b by long division with Scalar inverses; raises ValueError unless
    b divides a."""
    lead_inv = b.terms[-1][1].inv()
    db = b.degree()
    out = {}
    while not a.is_zero and a.degree() >= db:
        n, c = a.terms[-1]
        factor = c * lead_inv
        out[n - db] = factor
        a = poly_sub_oracle(a, poly_scale_oracle(b.shift_exp(n - db), factor))
    if not a.is_zero:
        raise ValueError("inexact polynomial division")
    return Poly(b.spec, tuple(sorted(out.items())))


# ---------------------------------------------------------------------------
# Dense Z[u] oracles: the gcd and exact division on lists of ints (index =
# degree, no trailing zeros) that the sparse term-map stack of field.py
# replaced; a term map with no negative exponent is read over u = t^(1/denom)


def terms_to_dense(a: tuple, denom: int) -> list[int]:
    d, terms = a
    m = denom // d
    out = [0] * (terms[-1][0] * m + 1) if terms else []
    for k, c in terms:
        out[k * m] = c
    return out


def dense_to_terms(z: list[int], denom: int) -> tuple:
    return _reduced(denom, tuple([(i, c) for i, c in enumerate(z) if c]))


def _dense_primitive(a: list[int]) -> tuple[int, list[int]]:
    if not a:
        return 0, []
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return g, (a if g == 1 else [c // g for c in a])


def dense_divexact_oracle(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b in Z[u] when b divides a there."""
    r = list(a)
    nb, lead = len(b), b[-1]
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1] // lead
        if c:
            q[k] = c
            for i, cb in enumerate(b):
                r[k + i] -= c * cb
    return q


def dense_gcd_oracle(a: list[int], b: list[int]) -> list[int]:
    """The gcd in Z[u], leading positively, by a primitive pseudo-remainder
    sequence on dense lists."""
    ca, a = _dense_primitive(a)
    cb, b = _dense_primitive(b)
    content = math.gcd(ca, cb)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = list(a)
        lead, nb = b[-1], len(b)
        while len(r) >= nb:
            lr = r.pop()
            k = len(r) - nb + 1
            r = [c * lead for c in r]
            for i in range(nb - 1):
                r[k + i] -= lr * b[i]
            while r and not r[-1]:
                r.pop()
        a, b = b, _dense_primitive(r)[1]
    return a if content == 1 else [content * c for c in a]


# ---------------------------------------------------------------------------
# Transform oracles: the per-transform code that fsderiv's one substitution
# replaced


def sub_linear(p: Poly, scale, offset) -> Poly:
    """P(scale*T + offset) of a plain polynomial: shift, then scale term by term."""
    shifted = taylor_shift(p, offset)
    out = {}
    for n, c in shifted.terms:
        factor = p.spec.one()
        for _ in range(n):
            factor = factor * scale
        scaled = c * factor
        if not scaled.is_zero:
            out[n] = scaled
    return Poly.from_dict(p.spec, out)


def eager_pgl_point(word, x) -> ProjPoint:
    """The image of a point under a unit Moebius word, every inversion
    carried out at once so the image is always held in the affine chart
    (the rigid point at infinity aside)."""
    current = x if isinstance(x, ProjPoint) else ProjPoint.affine(x)
    spec = current.point.spec
    for gen in reversed(list(word)):
        kind = gen[0]
        aff = current.to_affine()
        if aff is None:  # the rigid point at infinity
            if kind == "invert":
                current = ProjPoint.affine(rigid(spec.zero()))
            continue
        if kind == "scale":
            a = gen[1]
            current = ProjPoint.affine(DiskPoint(a * aff.center, a.abs() * aff.radius))
        elif kind == "translate":
            current = ProjPoint.affine(DiskPoint(aff.center + gen[1], aff.radius))
        else:
            ca = aff.center.abs()
            if ca > aff.radius:
                current = ProjPoint.affine(DiskPoint(aff.center.inv(), aff.radius / (ca * ca)))
            elif not aff.radius.is_zero:
                current = ProjPoint.affine(DiskPoint(spec.zero(), ABS_ONE / aff.radius))
            else:
                current = ProjPoint.infinity(spec)
    return current


# ---------------------------------------------------------------------------
# Seminorm oracles: the initial-form certificate, the seminorm, the derivative
# and the disk image as they ran on Scalars (a Poly per minor and quotient),
# and the Puiseux expansion behind the hash as it ran on Fractions


def padic_split_oracle(x: Fraction, p: int) -> tuple[int, int, int]:
    """(v, n, d) with a nonzero x = p^v n / d and p dividing neither n nor d."""
    n, d = x.numerator, x.denominator
    v = 0
    while not n % p:
        n //= p
        v += 1
    while not d % p:
        d //= p
        v -= 1
    return v, n, d


def initial_form_oracle(p: Poly, a):
    """The witness (U, S) of |P(a)| = |P|_{0,|a|}, or None when the leading
    parts of the attaining terms cancel, read off each coefficient's value."""
    values = [c for _, c in p.terms] + [a]
    if a.spec.backend == "puiseux-q":
        maps = [(c.num_terms, c.den_terms) for c in values]
        denom = math.lcm(*[m[0] for pair in maps for m in pair])
        prime = 0
        initials = [
            (num[1][0][0] * (denom // num[0]) - den[1][0][0] * (denom // den[0]), num[1][0][1], den[1][0][1])
            for num, den in maps
        ]
    else:
        prime, denom = a.spec.p, 1
        initials = [padic_split_oracle(c.value, prime) for c in values]
    *coeffs, (step, alpha, beta) = initials
    weights = [v + n * step for (n, _), (v, _, _) in zip(p.terms, coeffs)]
    best = min(weights)
    support = [i for i, w in enumerate(weights) if w == best]
    if len(support) > 1:
        d = p.terms[support[-1]][0]
        scale = math.lcm(*[coeffs[i][2] for i in support])
        sigma = sum(
            coeffs[i][1] * (scale // coeffs[i][2]) * alpha ** p.terms[i][0] * beta ** (d - p.terms[i][0])
            for i in support
        )
        if not (sigma % prime if prime else sigma):
            return None
    return AbsValue.of(Fraction(-best, denom)), tuple(p.terms[i][0] for i in support)


def divide_linear_oracle(p: Poly, a):
    """(P(a), Q) with P = P(a) + (T - a) Q: dense Horner on Scalars."""
    spec = p.spec
    coeffs = [p.coeff(n) for n in range(p.degree() + 1)]
    acc, quotient = coeffs[-1], []
    for c in reversed(coeffs[:-1]):
        quotient.append(acc)
        acc = c + a * acc
    return acc, Poly.from_coeffs(spec, quotient[::-1])


def eval_seminorm_oracle(p: Poly, x: DiskPoint) -> AbsValue:
    """|P(x)|: the certificate at the short centre, Horner at a rigid point,
    and deflation by Scalar synthetic division at a ball."""
    if p.is_zero:
        return ABS_ZERO
    neg = -min(0, p.min_exp())
    if neg:
        t_norm = x.norm()
        if t_norm.is_zero:
            raise PoleAtPoint("Laurent polynomial at the rigid point 0")
        return eval_seminorm_oracle(p.shift_exp(neg), x) / t_norm**neg
    a = x.center if x.is_rigid else points.short_centre(x)
    if not a.is_zero:
        certificate = initial_form_oracle(p, a)
        if certificate is not None:
            return certificate[0]
    if x.is_rigid:
        return p.evaluate(a).abs()
    r = x.radius
    if a.is_zero:
        return abs_max(c.abs() * r**n for n, c in p.terms)
    value, k, certificate = ABS_ZERO, 0, None
    while certificate is None:
        c, p = divide_linear_oracle(p, a)
        value = max(value, c.abs() * r**k)
        k += 1
        certificate = initial_form_oracle(p, a)
    return max(value, certificate[0] * r**k)


def fs_derivative_oracle(f: SeriesMap, z: DiskPoint) -> AbsValue:
    """max(1, |z|^2) max |W_ij(z)| / max |f_i(z)|^2 over Scalar minors."""
    den = abs_max(eval_seminorm_oracle(c, z) for c in f.coords)
    if den.is_zero:
        raise DomainViolation("all homogeneous coordinates vanish at the point")
    num = abs_max(eval_seminorm_oracle(w, z) for w in wronskian_oracle(f))
    zn = z.norm()
    return unit_max(zn * zn) * num / (den * den)


def fs_derivative_all_minors(f: SeriesMap, z: DiskPoint) -> AbsValue:
    """The derivative with no rule for constant coordinates, the reference
    for fs_derivative's: every coordinate's seminorm is taken on its cleared
    list, and every minor W_ij, i < j, is built in one product pass
    (points._wronskian).  Each int pair of the kernel becomes an AbsValue
    where it is read."""
    _require_in_domain(f, z)
    if f.spec is not z.spec and f.spec != z.spec:
        raise BackendMismatch(f"mixed backends: {f.spec} vs {z.spec}")
    point = _Point(z)
    coords = f.cleared
    den = abs_max([_magnitude(*_seminorm(c, point)) for c in coords])
    if den.is_zero:
        raise DomainViolation("all homogeneous coordinates vanish at the point")
    num = abs_max([_magnitude(*_seminorm(w, point)) for w in _all_minors(coords)])
    zn = z.norm()
    return unit_max(zn * zn) * num / (den * den)


def _all_minors(coords):
    n = len(coords)
    return [_wronskian(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)]


# ---------------------------------------------------------------------------
# The substitution with one collection per product: the reference for the
# one-accumulation substitution.  combine_per_call and substitute_per_call are
# the earlier points._combine and fsderiv._substitute_cleared, kept as they
# were: every product, power and basis product is rescaled to its own lcm of
# exponent denominators and collected (sorted and reduced) on its own.

_T_POLY = [(1, _ONE_TERMS)]  # the cleared coordinate T


def combine_per_call(products):
    denom, over = _over_lcm_per_call([part for _, a, b in products for part in (a, b)])
    acc: dict[int, dict[int, int]] = {}
    for sign, a, b in products:
        right = [(m, over(y)) for m, y in b]
        for n, x in a:
            x = over(x) if sign > 0 else [(k, -c) for k, c in over(x)]
            for m, y in right:
                row = acc.get(n + m)
                if row is None:
                    row = acc[n + m] = {}
                get = row.get
                for kx, cx in x:
                    for ky, cy in y:
                        e = kx + ky
                        row[e] = get(e, 0) + cx * cy
    return _collected_per_call(acc, denom)


def _over_lcm_per_call(parts):
    denom = math.lcm(*[num[0] for part in parts for _, num in part])

    def over(num: tuple) -> tuple:
        m = denom // num[0]
        return num[1] if m == 1 else [(k * m, c) for k, c in num[1]]

    return denom, over


def _collected_per_call(acc, denom):
    out = []
    for n in sorted(acc):
        terms = sorted([ec for ec in acc[n].items() if ec[1]])
        if terms:
            out.append((n, _reduced(denom, tuple(terms))))
    return out


def substitute_per_call(f: SeriesMap, top: list, bottom: list, den: tuple, domain) -> SeriesMap:
    shift = _plain_shift(f.cleared)
    d = max([c[-1][0] for c in f.cleared if c]) + shift
    pow_top, pow_bottom, common = [_ONE_POLY, top], [_ONE_POLY, bottom], f.den
    for _ in range(d - 1):
        pow_top.append(combine_per_call([(1, pow_top[-1], top)]))
        pow_bottom.append(combine_per_call([(1, pow_bottom[-1], bottom)]))
    for _ in range(d):
        common = _times(common, den)
    basis: dict[int, list] = {0: pow_bottom[d], d: pow_top[d]}
    coords = []
    for terms in f.cleared:
        products = []
        for j, a in terms:
            j += shift
            if j not in basis:
                basis[j] = combine_per_call([(1, pow_top[j], pow_bottom[d - j])])
            products.append((1, [(0, a)], basis[j]))
        coords.append(combine_per_call(products))
    return SeriesMap._of(f.spec, common, coords, domain)


def pgl_apply_per_call(word, f: SeriesMap) -> SeriesMap:
    a, b, c, d, common = _word_matrix(word, f.spec)
    num = [(n, e) for n, e in ((0, b), (1, a)) if e[1]]
    den = [(n, e) for n, e in ((0, d), (1, c)) if e[1]]
    return substitute_per_call(f, num, den, common, f.domain)


def compose_per_call(f: SeriesMap, g: SeriesMap) -> SeriesMap:
    g0, g1 = g.cleared
    return substitute_per_call(f, g1, g0, g.den, g.domain)


def rescale_per_call(f: SeriesMap, scale, offset, domain) -> SeriesMap:
    den, (top,) = points._clear([Poly.from_dict(f.spec, {0: offset, 1: scale})])
    return substitute_per_call(f, top, [(0, den)], den, domain)


def at_infinity_per_call(f: SeriesMap) -> SeriesMap:
    return substitute_per_call(f, _ONE_POLY, _T_POLY, _ONE_TERMS, None)


# ---------------------------------------------------------------------------
# series_map on Polys: the map reduction as it was before it ran on one
# clearing.  Each gcd step clears its own two operands, the padic gcd is made
# monic by Poly arithmetic, and the divisor is cleared again with the
# coordinates (divide_out); the result is a map of the reduced Polys.


def coprime_certificate_on_polys(polys) -> bool:
    if len(polys) < 2 or polys[0].spec.backend != "puiseux-q":
        return False
    maps = [m for p in polys for _, c in p.terms for m in (c.num_terms, c.den_terms)]
    denom = math.lcm(*[m[0] for m in maps])
    for sigma in (Fraction(2), Fraction(3), Fraction(5, 2)):
        images = [_specialize_on_polys(p, denom, sigma) for p in polys]
        if None in images or not any(s[1] and s[1][-1][0] == p.degree() for s, p in zip(images, polys)):
            continue
        g = images[0]
        for image in images[1:]:
            g = _terms_gcd(g, image)
            if points._is_constant(g):
                return True
    return False


def _specialize_on_polys(p: Poly, denom: int, sigma: Fraction):
    values = {}
    for n, c in p.terms:
        den = _terms_at(c.den_terms, denom, sigma)
        if den == 0:
            return None
        values[n] = _terms_at(c.num_terms, denom, sigma) / den
    return _terms_from_dict(values)[0]


def _biv_on_polys(polys):
    _, out = points._clear(polys)
    nums = [num for a in out for _, num in a]
    denom = math.lcm(*[num[0] for num in nums])
    shift = min([_terms_lowest(num, denom) for num in nums], default=0)
    return [[(n, _terms_shift(num, -shift, denom)) for n, num in a] for a in out]


def poly_gcd_on_polys(p: Poly, q: Poly) -> Poly:
    a, b = _biv_on_polys([p, q])
    (a,), (b,) = points._biv_pp([a]), points._biv_pp([b])
    while b:
        a, b = b, points._biv_pp([points._biv_divide(a, b, False)])[0]
    g = points._uncleared(p.spec, a, _ONE_TERMS)
    if p.spec.backend == "puiseux-q" or g.is_zero:
        return g
    return g.scale(g.terms[-1][1].inv())


def divide_out_on_polys(polys, g: Poly) -> list[Poly]:
    *images, divisor = _biv_on_polys([*polys, g])
    (divisor,) = points._biv_pp([divisor])
    quotients = points._biv_pp([points._biv_divide(a, divisor, True) for a in images])
    return [points._uncleared(g.spec, q, _ONE_TERMS) for q in quotients]


def series_map_on_polys(coords, domain=None) -> SeriesMap:
    coords = tuple(coords)
    nonzero = [c for c in coords if not c.is_zero]
    shift = min(c.min_exp() for c in nonzero)
    if shift != 0:
        coords = tuple([c.shift_exp(-shift) for c in coords])
        nonzero = [c for c in coords if not c.is_zero]
    if not any(c.is_constant for c in nonzero) and not coprime_certificate_on_polys(nonzero):
        g = nonzero[0]
        for c in nonzero[1:]:
            g = poly_gcd_on_polys(g, c)
            if g.is_constant:
                break
        if not g.is_constant:
            coords = tuple(divide_out_on_polys(coords, g))
    return SeriesMap(coords, domain)


def apply_map_oracle(f: SeriesMap, z: DiskPoint) -> list[DiskPoint]:
    """The image balls: centre f(a) / c and radius r |q|_{a,r} / |c| for
    f = f(a) + (T - a) q, c the constant chart denominator."""
    c = f.coords[0].coeff(0)
    out = []
    for p in f.coords[1:]:
        if z.is_rigid:
            out.append(DiskPoint(p.evaluate(z.center) / c, z.radius))
            continue
        a = points.short_centre(z)
        if a.is_zero:
            value, q = p.coeff(0), Poly(p.spec, tuple([(n - 1, b) for n, b in p.terms if n]))
        else:
            value, q = divide_linear_oracle(p, a)
        out.append(DiskPoint(value / c, z.radius * eval_seminorm_oracle(q, DiskPoint(a, z.radius)) / c.abs()))
    return out


# -- point magnitudes as they ran on AbsValues: the norm, the projective
# diameter, the inverted ball of the chart at infinity and the domain test,
# each step a reduced AbsValue (abs(), abs_max, unit_max, * and /)


def norm_oracle(x: DiskPoint) -> AbsValue:
    """|T(x)| = max(|a|, r)."""
    v = x.center.abs()
    return v if v > x.radius else x.radius


def diam_proj_oracle(coords) -> AbsValue:
    """diam_A(x) / max(1, max_i |x_i|)^2."""
    if isinstance(coords, DiskPoint):
        coords = [coords]
    denom = unit_max(abs_max(norm_oracle(x) for x in coords))
    return abs_max(x.radius for x in coords) / (denom * denom)


def to_affine_oracle(x: ProjPoint) -> DiskPoint | None:
    """The affine-chart representative of a projective point, None for the
    rigid point at infinity."""
    if x.chart == "affine":
        return x.point
    c, r = x.point.center, x.point.radius
    ca = c.abs()
    if ca > r:
        return DiskPoint(c.inv(), r / (ca * ca))
    if not r.is_zero:
        return DiskPoint(c.spec.zero(), ABS_ONE / r)
    return None


def domain_contains_oracle(domain, x: DiskPoint) -> bool:
    n = norm_oracle(x)
    if n > domain.outer:
        return False
    return domain.inner is None or not n < domain.inner


def expansion_oracle(num: tuple, den: tuple, radius: AbsValue = ABS_ZERO) -> tuple:
    """The lowest terms, at most _KEY_TERMS, of the Puiseux expansion of
    num/den of magnitude > radius, as (exponent, coefficient) Fractions."""
    denom = math.lcm(num[0], den[0])
    rem = {k * (denom // num[0]): c for k, c in num[1]}
    (k0, c0), *rest = [(k * (denom // den[0]), c) for k, c in den[1]]
    out = []
    bound = radius.n * denom
    while rem and len(out) < _KEY_TERMS:
        k = min(rem)
        if (k0 - k) * radius.d <= bound:
            break
        q = Fraction(rem.pop(k), c0)
        out.append((Fraction(k - k0, denom), q))
        for kd, cd in rest:
            e = k - k0 + kd
            c = rem.pop(e, 0) - q * cd
            if c:
                rem[e] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# Selection oracles: slow, exact, one magnitude decision for every point


def magnitude_le_rational_oracle(v: AbsValue, bound: Fraction, base: Fraction) -> bool:
    """beta^q <= bound by Fraction powers: beta^(n/d) <= bound iff beta^n <= bound^d."""
    if base <= 1:
        raise NumericBaseRequired("numeric base must exceed 1")
    if v.is_zero:
        return bound >= 0
    return bound > 0 and base**v.n <= bound**v.d


def magnitude_ge_rational_oracle(v: AbsValue, bound: Fraction, base: Fraction) -> bool:
    if base <= 1:
        raise NumericBaseRequired("numeric base must exceed 1")
    if v.is_zero:
        return bound <= 0
    return bound <= 0 or base**v.n >= bound**v.d


def gromov_select_oracle(s, a_index: int, eps: Fraction, tau: Fraction) -> int:
    """zalcman.gromov_select as an exhaustive loop: from b, jump to the
    largest phi above tau phi(b) in the ball of radius 1/(eps phi(b))."""
    base = s.spec.base()
    b = a_index
    while True:
        bound = 1 / (eps * s.values[b])
        witness = None
        for i, (x, phi_x) in enumerate(zip(s.points, s.values)):
            if phi_x <= tau * s.values[b]:
                continue
            if magnitude_le_rational_oracle((x - s.points[b]).abs(), bound, base):
                if witness is None or phi_x > s.values[witness]:
                    witness = i
        if witness is None:
            return b
        b = witness


def gromov_conditions_oracle(s, a_index: int, b_index: int, eps: Fraction, tau: Fraction) -> tuple[bool, bool, bool]:
    """zalcman.gromov_conditions with condition (iii) tested at every point."""
    base = s.spec.base()
    phi_a, phi_b = s.values[a_index], s.values[b_index]
    gap = (s.points[a_index] - s.points[b_index]).abs()
    cond_i = magnitude_le_rational_oracle(gap, tau / (eps * (tau - 1) * phi_a), base)
    cond_ii = phi_b >= phi_a
    cond_iii = True
    bound = 1 / (eps * phi_b)
    for x, phi_x in zip(s.points, s.values):
        if magnitude_le_rational_oracle((x - s.points[b_index]).abs(), bound, base):
            if phi_x > tau * phi_b:
                cond_iii = False
                break
    return cond_i, cond_ii, cond_iii


# ---------------------------------------------------------------------------
# Rational and in-disk coordinate oracles: the regex-plus-Fraction parser
# and the Fraction-pair UltraScalar that field.rational_pair and the int
# layout of curves.UltraScalar replaced


_RATIONAL_ORACLE = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")


def as_fraction_oracle(x) -> Fraction:
    """Ints, Fractions and "num/den" strings as a Fraction, one regex match
    and one Fraction per string."""
    if type(x) is Fraction:
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL_ORACLE.fullmatch(x)
        if m is None:
            raise ValueError(f"not an integer or 'num/den' rational: {x!r}")
        num, den = m.groups()
        if den is None:
            return Fraction(int(num))
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(int(num), d)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"not an exact rational: {x!r}")


def as_integer_oracle(text: str) -> int:
    m = _RATIONAL_ORACLE.fullmatch(text)
    if m is None or m.group(2) is not None:
        raise ValueError(f"not an integer: {text!r}")
    return int(m.group(1))


@dataclass(frozen=True)
class UltraOracle:
    """An in-disk coordinate as (magnitude, coefficient) Fraction pairs by
    strictly increasing magnitude, every coefficient nonzero."""

    terms: tuple

    def __post_init__(self) -> None:
        prev = 0
        for m, c in self.terms:
            if type(m) not in (int, Fraction) or type(c) not in (int, Fraction):
                raise ValueError(f"magnitudes and coefficients must be ints or Fractions, not {m!r}, {c!r}")
            if m <= prev:
                if prev == 0:
                    raise ValueError("magnitudes must be positive rationals")
                raise ValueError("magnitudes must be strictly increasing")
            if not c:
                raise ValueError("zero coefficients are not stored")
            prev = m

    def __sub__(self, other: "UltraOracle") -> "UltraOracle":
        acc = dict(self.terms)
        for m, c in other.terms:
            s = acc.get(m, Fraction(0)) - c
            if s == 0:
                acc.pop(m, None)
            else:
                acc[m] = s
        return UltraOracle(tuple(sorted(acc.items())))

    def magnitude(self) -> Fraction:
        return self.terms[-1][0] if self.terms else Fraction(0)


def ultra_oracle(value) -> UltraOracle:
    """curves.ultra on Fraction pairs: sort, merge repeated magnitudes, drop
    zero coefficients, then check the magnitudes."""
    if isinstance(value, (int, str, Fraction)):
        c = as_fraction_oracle(value)
        return UltraOracle(()) if c == 0 else UltraOracle(((Fraction(1), c),))
    pairs = sorted([(as_fraction_oracle(m), as_fraction_oracle(c)) for m, c in value], key=operator.itemgetter(0))
    merged: list[list] = []
    for m, c in pairs:
        if merged and merged[-1][0] == m:
            merged[-1][1] += c
        else:
            merged.append([m, c])
    return UltraOracle(tuple([(m, c) for m, c in merged if c]))


def ultra_distance_oracle(x, y) -> Fraction:
    return (ultra_oracle(x) - ultra_oracle(y)).magnitude()

