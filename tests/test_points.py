"""Points of the line: seminorm evaluation, recentering, diameters, join."""

from __future__ import annotations

import time
from fractions import Fraction
from math import ceil, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkline import (
    ABS_ONE,
    ABS_ZERO,
    AbsValue,
    DiskPoint,
    Domain,
    FieldSpec,
    Poly,
    ProjPoint,
    Scalar,
    SeriesMap,
    apply_map,
    diam_affine,
    diam_proj,
    diam_proj_point,
    eval_seminorm,
    fs_derivative,
    fs_ratio,
    gauss_point,
    join,
    rigid,
    series_map,
    taylor_shift,
)
from berkline.errors import BackendMismatch, DomainViolation, PoleAtPoint, ZeroTuple
from berkline.field import PadicScalar, PuiseuxScalar, _magnitude, _scaled, _terms_neg, abs_max
from berkline import points
from berkline.points import (
    _Point,
    _SyntheticDivision,
    _clear,
    _num_den,
    _scalar_pow,
    _seminorm,
    _value_at,
    divide_linear,
    initial_form,
    short_centre,
)

from conftest import (
    apply_map_oracle,
    binomial_shift_oracle,
    count_deflation_passes,
    diam_proj_oracle,
    domain_contains_oracle,
    eval_seminorm_oracle,
    fs_derivative_oracle,
    horner_shift_oracle,
    initial_form_oracle,
    norm_oracle,
    random_nonzero_scalar,
    random_poly,
    random_radius,
    random_scalar,
    random_unit_disk_point,
    rng_for,
    to_affine_oracle,
)


# ---------------------------------------------------------------------------
# taylor_shift


def test_taylor_shift_square(p3):
    p = Poly.from_dict(p3, {2: p3.one()})
    shifted = taylor_shift(p, p3.one())
    assert shifted == Poly.from_coeffs(p3, [p3.one(), p3.scalar(2), p3.one()])


def test_taylor_shift_coordinate(p3):
    c = p3.scalar(7)
    assert taylor_shift(Poly.coordinate(p3), c) == Poly.from_coeffs(p3, [c, p3.one()])


def test_taylor_shift_cubic_against_binomial_oracle(p3):
    p = Poly.from_dict(p3, {3: p3.one(), 1: p3.scalar(-1)})  # T^3 - T
    a = p3.scalar(2)
    shifted = taylor_shift(p, a)
    # frozen expansion: (T+2)^3 - (T+2) = T^3 + 6T^2 + 11T + 6
    assert shifted == Poly.from_coeffs(p3, [p3.scalar(6), p3.scalar(11), p3.scalar(6), p3.one()])
    assert shifted == binomial_shift_oracle(p, a)


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_taylor_shift_matches_oracle_randomly(backend):
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    rng = rng_for(f"shift-{backend}")
    for _ in range(25):
        p = random_poly(rng, spec, 5)
        a = random_scalar(rng, spec)
        assert taylor_shift(p, a) == binomial_shift_oracle(p, a)


def test_taylor_shift_evaluation_identity(p3):
    rng = rng_for("shift-eval")
    for _ in range(25):
        p = random_poly(rng, p3, 5)
        a = random_scalar(rng, p3)
        x = random_scalar(rng, p3)
        assert taylor_shift(p, a).evaluate(x) == p.evaluate(x + a)


# -- the fast paths against the slow oracles (hypothesis) ---------------------

P3 = FieldSpec("padic", 3)
PQ = FieldSpec("puiseux-q")

padic_scalars = st.fractions(-40, 40, max_denominator=30).map(P3.scalar)
# (exponent, coefficient) pairs; exponent denominators up to 3, so D <= 6
puiseux_terms = st.tuples(st.fractions(-2, 3, max_denominator=3), st.fractions(-6, 6, max_denominator=3))
puiseux_polynomials = st.lists(puiseux_terms, max_size=3).map(PQ.from_terms)
binomials = st.lists(puiseux_terms, max_size=2).map(PQ.from_terms)
puiseux_rational_functions = st.tuples(binomials, binomials.filter(lambda d: not d.is_zero)).map(
    lambda nd: nd[0] / nd[1]
)
# one scalar strategy per kind of value the shift kernel clears: padic
# Fractions, puiseux-q polynomials (nothing to clear) and puiseux-q rational
# functions (a rational coefficient or centre)
SCALARS = {
    "padic": padic_scalars,
    "puiseux-polynomial": puiseux_polynomials,
    "puiseux-rational": st.one_of(puiseux_polynomials, puiseux_rational_functions),
}
SPECS = {"padic": P3, "puiseux-polynomial": PQ, "puiseux-rational": PQ}
SHIFT_SETTINGS = settings(max_examples=60, deadline=None)


def polys(kind: str, max_exp: int = 6, max_terms: int = 5):
    spec = SPECS[kind]
    if kind == "puiseux-rational":
        # lazy fractions of degree-6 shifts can reach the fraction gcd, whose
        # eliminations grow with the exponent span
        max_exp, max_terms = 4, 3
    return st.dictionaries(st.integers(0, max_exp), SCALARS[kind], max_size=max_terms).map(
        lambda d: Poly.from_dict(spec, d)
    )


def assert_minimal_layout(p: Poly) -> None:
    """Every puiseux-q coefficient keeps its term map over a minimal D."""
    for _, c in p.terms:
        if isinstance(c, PuiseuxScalar):
            for denom, terms in (c.num_terms, c.den_terms):
                assert gcd(denom, *(k for k, _ in terms)) == 1


@pytest.mark.parametrize("kind", sorted(SCALARS))
@SHIFT_SETTINGS
@given(data=st.data())
def test_taylor_shift_equals_both_oracles(kind, data):
    p = data.draw(polys(kind))
    a = data.draw(SCALARS[kind])
    shifted = taylor_shift(p, a)
    assert shifted == binomial_shift_oracle(p, a) == horner_shift_oracle(p, a)
    assert_minimal_layout(shifted)


@pytest.mark.parametrize("kind", ["padic", "puiseux-polynomial"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_taylor_shift_on_sparse_large_exponents(kind, data):
    # a few terms of degree up to 120 (padic) or 30 (puiseux-q)
    p = data.draw(polys(kind, max_exp=120 if kind == "padic" else 30, max_terms=3))
    a = data.draw(SCALARS[kind])
    shifted = taylor_shift(p, a)
    assert shifted == binomial_shift_oracle(p, a) == horner_shift_oracle(p, a)
    assert_minimal_layout(shifted)


def rational_shift_inputs():
    """A padic polynomial and puiseux-q rational-function coefficients and
    centre, each with its shift by the oracle."""
    p3_poly = Poly.from_dict(P3, {0: P3.scalar("2/9"), 2: P3.scalar(-5), 5: P3.scalar("7/4")})
    a = PQ.from_terms([(0, 1), ("1/2", 2)]) / PQ.from_terms([(0, 3), ("1/3", 1)])
    c = PQ.from_terms([("1/2", 1)]) / PQ.from_terms([(0, 1), (1, "1/2")])
    q = Poly.from_dict(PQ, {0: c, 1: PQ.t_power("1/3"), 3: c * c, 4: PQ.one() / c})
    cases = [(p3_poly, P3.scalar("5/6")), (q, a), (q, PQ.t_power(1)), (Poly.coordinate(PQ).scale(c), a)]
    return [(p, a, binomial_shift_oracle(p, a)) for p, a in cases]


def test_taylor_shift_does_no_scalar_arithmetic(monkeypatch):
    cases = rational_shift_inputs()
    # planted double roots: eval_seminorm at a ball around the root deflates
    planted = []
    for p, a, _ in cases[:2]:
        t_minus_a = Poly.from_dict(p.spec, {0: -a, 1: p.spec.one()})
        planted.append((t_minus_a * t_minus_a * p, DiskPoint(a, AbsValue.of(-3))))

    def refuse(*args):
        raise AssertionError("a recentering called Scalar arithmetic")

    for cls in (PuiseuxScalar, PadicScalar):
        for name in ("__add__", "__mul__", "inv"):
            monkeypatch.setattr(cls, name, refuse)
    shifted = [taylor_shift(p, a) for p, a, _ in cases]
    seminorms = [eval_seminorm(p, x) for p, x in planted]
    monkeypatch.undo()
    for out, (_, _, expected) in zip(shifted, cases):
        assert out == expected
        assert_minimal_layout(out)
    for value, (p, x) in zip(seminorms, planted):
        assert initial_form(p, x.center) is None
        assert value == abs_max(c.abs() * x.radius**n for n, c in binomial_shift_oracle(p, x.center).terms)


def test_taylor_shift_at_a_rational_function_centre_clears_once():
    # a shift as d synthetic divisions of Poly quotients would clear each
    # quotient again, and its denominators would grow like B^(d(d-1)/2): 834
    # num + den terms at this input, against 97 when P is cleared once
    rng = rng_for("shift-growth")
    coeffs = [PQ.scalar(rng.randint(-3, 3)) for _ in range(24)] + [PQ.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))]
    p = Poly.from_coeffs(PQ, coeffs)
    a = PQ.from_terms([(0, 1), ("1/2", 2)]) / PQ.from_terms([(0, 3), ("1/3", 1)])
    shifted = taylor_shift(p, a)
    assert max(len(c.num_terms[1]) + len(c.den_terms[1]) for _, c in shifted.terms) <= 97
    assert shifted.coeff(0) == p.evaluate(a)


def degree_6_rational_polynomials(rng, count: int):
    """Degree-6 polynomials whose coefficients are quotients of two-term
    puiseux-q polynomials (exponent denominators up to 6), each with a
    polynomial centre; each coefficient is kept as its (N_n, M_n) pair."""

    def element(n_terms: int):
        terms = []
        for _ in range(n_terms):
            d = rng.randint(1, 6)
            terms.append((Fraction(rng.randint(0, 3 * d), d), rng.choice([1, 2, 3, -1, -2, Fraction(1, 2)])))
        return PQ.from_terms(terms)

    out = []
    for _ in range(count):
        pairs = {}
        for n in range(7):
            num, den = element(2), element(2)
            while den.is_zero or (n == 6 and num.is_zero):
                num, den = element(2), element(2)
            if not num.is_zero:
                pairs[n] = (num, den)
        out.append((pairs, element(3)))
    return out


def test_shift_of_degree_6_rational_coefficients_is_fast_and_exact():
    # these shifts once fell into the gcd of lazy-fraction arithmetic, for up
    # to minutes per polynomial; the shift kernel now runs no gcd
    radius = AbsValue.of(Fraction(-1, 2))
    cases = [
        (pairs, Poly.from_dict(PQ, {n: num / den for n, (num, den) in pairs.items()}), DiskPoint(centre, radius))
        for pairs, centre in degree_6_rational_polynomials(rng_for("shift-degree-6-rational"), 10)
    ]
    start = time.perf_counter()
    values = [eval_seminorm(p, x) for _, p, x in cases]
    elapsed = time.perf_counter() - start
    assert elapsed < 2
    for (pairs, p, x), value in zip(cases, values):
        # multiplicativity: P = Q / L with Q_n = N_n prod_{m != n} M_m and L = prod_m M_m
        q_coeffs, lcm = {}, PQ.one()
        for n, (num, _) in pairs.items():
            for m, (_, den) in pairs.items():
                if m != n:
                    num = num * den
            q_coeffs[n] = num
        for _, den in pairs.values():
            lcm = lcm * den
        assert value == eval_seminorm(Poly.from_dict(PQ, q_coeffs), x) / lcm.abs()
        assert_minimal_layout(taylor_shift(p, short_centre(x)))


def affine_map(spec: FieldSpec, den: Scalar, p: Poly):
    return series_map([Poly.constant(spec, den), p])


@pytest.mark.parametrize("kind", sorted(SCALARS))
@SHIFT_SETTINGS
@given(data=st.data())
def test_rigid_points_evaluate_as_the_shift_does(kind, data):
    spec = SPECS[kind]
    p = data.draw(polys(kind))
    a = data.draw(SCALARS[kind])
    b0 = binomial_shift_oracle(p, a).coeff(0)
    assert eval_seminorm(p, rigid(a)) == b0.abs()
    den = data.draw(SCALARS[kind].filter(lambda c: not c.is_zero))
    f = affine_map(spec, den, p)
    (image,) = apply_map(f, rigid(a))
    expected = binomial_shift_oracle(f.coords[1], a).coeff(0) / f.coords[0].coeff(0)
    assert image.is_rigid and image.center == expected


# the degree of Q in the near-root property below: the Scalar oracle
# Q.evaluate(a) grows with the terms of a^d over puiseux-q
NEAR_ROOT_DEGREES = {"padic": 60, "puiseux-polynomial": 16, "puiseux-rational": 6}
SMALL = {"padic": P3.scalar(3**20), "puiseux-polynomial": PQ.t_power(20), "puiseux-rational": PQ.t_power(20)}


@pytest.mark.parametrize("kind", sorted(SCALARS))
@SHIFT_SETTINGS
@given(data=st.data())
def test_a_near_root_at_a_rigid_point_evaluates_as_a_full_pass(kind, data):
    # P = Q - Q(a) + e with Q sparse and e small, so P(a) = e and the leading
    # parts at a cancel (sigma = 0) whenever |e| is below |P|_{0,|a|}: the
    # value-only pass gives the first pass's term maps, and P(a) itself
    spec = SPECS[kind]
    nonzero = SCALARS[kind].filter(lambda c: not c.is_zero)
    a = data.draw(nonzero)
    exponents = data.draw(st.lists(st.integers(1, NEAR_ROOT_DEGREES[kind]), min_size=1, max_size=3, unique=True))
    q = Poly.from_dict(spec, {n: data.draw(nonzero) for n in exponents})
    e = data.draw(SCALARS[kind]) * SMALL[kind]
    p = Poly.from_dict(spec, {**dict(q.terms), 0: e - q.evaluate(a)})
    lcm, (nums,) = _clear([p])
    top, bottom = _num_den(a)
    assert _value_at(nums, lcm, top, bottom) == _SyntheticDivision(nums, lcm, top, bottom).divide()
    assert eval_seminorm(p, rigid(a)) == e.abs()
    (image,) = apply_map(affine_map(spec, spec.one(), p), rigid(a))
    assert image.is_rigid and image.center == e


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_a_sparse_root_at_a_rigid_point_costs_log_d_products_per_term(monkeypatch, backend):
    # a work gate: it counts term-map products, not time, so a loaded host
    # cannot move it.  P = T^d + T - a^d - a has a root at a, and sigma = 0
    # there; a full pass took d products, sparse P or not
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    a = spec.scalar("7/5") if backend == "padic" else spec.from_terms([(0, 1), ("1/2", 1)])
    # the products are term-map products (_terms_mul) and raw-row products
    # (_add_product, under the value-only pass)
    products = {"count": 0}
    for name in ("_terms_mul", "_add_product"):

        def counting(*args, product=getattr(points, name)):
            products["count"] += 1
            return product(*args)

        monkeypatch.setattr(points, name, counting)
    passes = count_deflation_passes(monkeypatch)
    for degree in (100, 200, 400):
        p = Poly.from_dict(spec, {degree: spec.one(), 1: spec.one(), 0: -_scalar_pow(a, degree) - a})
        products["count"] = 0
        passes.clear()
        assert eval_seminorm(p, rigid(a)) == ABS_ZERO
        assert passes == [0], (degree, passes)
        assert products["count"] <= 3 * len(p.terms) * degree.bit_length(), (degree, products)


# -- rigid values on raw int rows against Scalar Horner (hypothesis) ----------

# the highest exponent of the sparse P below: a gap of up to ~120 exponents,
# except at rational-function centres, where the Scalar oracle's lazy
# fractions reach the fraction gcd, whose eliminations grow with the span
# (seconds per example from degree 9 on); for the same reason P's
# coefficients there are Puiseux polynomials (the centre's B is a
# polynomial already).  At degree 5 the image's num and den span at most
# 330 units of 1/6, inside the span that repr prints in reduced form
RAW_ROW_DEGREES = {"padic": 120, "puiseux-polynomial": 120, "puiseux-rational": 5}
_nonzero = {kind: scalars.filter(lambda c: not c.is_zero) for kind, scalars in SCALARS.items()}
_nonzero["puiseux-rational"] = _nonzero["puiseux-polynomial"]


@st.composite
def raw_row_centres(draw, kind: str):
    """A nonzero centre a = A/B, B != 1 where the kind allows it: a padic
    rational, a Puiseux binomial with rational coefficients (a constant B),
    or a Puiseux binomial over a binomial with two terms (a polynomial B)."""
    if kind == "padic":
        return draw(_nonzero[kind])
    a = draw(binomials.filter(lambda c: not c.is_zero))
    if kind == "puiseux-polynomial":
        return a * PQ.scalar(Fraction(1, draw(st.integers(2, 5))))
    return a / draw(binomials.filter(lambda c: len(c.num_terms[1]) == 2))


@pytest.mark.parametrize("kind", sorted(SCALARS))
@SHIFT_SETTINGS
@given(data=st.data())
def test_rigid_values_on_raw_rows_equal_the_scalar_horner_oracle(kind, data):
    # the value-only pass on raw int rows (_value_at) under eval_seminorm's
    # sigma = 0 fallback and apply_map's rigid images, against Poly.evaluate:
    # sparse P with long gaps, and planted roots (P(a) = 0)
    spec = SPECS[kind]
    a = data.draw(raw_row_centres(kind))
    exponents = st.integers(0, RAW_ROW_DEGREES[kind])
    p = Poly.from_dict(spec, data.draw(st.dictionaries(exponents, _nonzero[kind], min_size=1, max_size=4)))
    if data.draw(st.booleans()):
        p = p - Poly.constant(spec, p.evaluate(a))
    value = p.evaluate(a)
    lcm, (nums,) = _clear([p])
    if nums:
        num, den = _value_at(nums, lcm, *_num_den(a))
        for denom, terms in (num, den):
            assert list(terms) == sorted(terms) and all(c for _, c in terms)
            assert gcd(denom, *[k for k, _ in terms]) == 1
        assert points._from_num_den(spec, num, den) == value
    assert eval_seminorm(p, rigid(a)) == value.abs()
    # a rational chart keeps the image's den a power of B, so both reprs
    # print in reduced form
    chart = data.draw(st.fractions(-6, 6, max_denominator=5).filter(bool).map(spec.scalar))
    f = affine_map(spec, chart, p)
    images, expected = apply_map(f, rigid(a)), apply_map_oracle(f, rigid(a))
    assert images == expected and [hash(y) for y in images] == [hash(y) for y in expected]
    assert [repr(y) for y in images] == [repr(y) for y in expected]
    assert all(y.is_rigid for y in images)


# -- a constant chart other than the map's den scales on term maps -------------


def chart_case(spec: FieldSpec, degree: int):
    """[-3 : T^degree + 2 T^3 + 1] and a rigid point whose centre is a
    rational function of three terms over two (puiseux-q) or 7/5 (padic)."""
    if spec.p:
        a = spec.scalar(Fraction(7, 5))
    else:
        a = spec.from_terms([("5/3", 2), (2, 5), ("8/3", -1)]) / spec.from_terms([(0, 6), ("5/2", -2)])
    p = Poly.from_dict(spec, {degree: spec.one(), 3: spec.scalar(2), 0: spec.one()})
    return affine_map(spec, spec.scalar(-3), p), rigid(a)


@pytest.mark.parametrize("spec", [P3, PQ], ids=lambda spec: spec.backend)
def test_a_constant_chart_scales_the_image_as_the_scalar_product(spec):
    # the image centre num/den times 1/c_0 = L/c_0, formed on term maps, is
    # the scalar product value * (1/c_0) that apply_map formed before
    f, x = chart_case(spec, 8)
    (image,) = apply_map(f, x)
    (nums,) = f.cleared[1:]
    c0, top_bottom = f.cleared[0][0][1], _num_den(x.center)
    value = points._from_num_den(spec, *_value_at(nums, f.den, *top_bottom))
    expected = rigid(value * points._from_num_den(spec, f.den, c0))
    assert image == expected and hash(image) == hash(expected) and repr(image) == repr(expected)
    assert image.center * spec.scalar(-3) == value


@pytest.mark.parametrize("spec", [P3, PQ], ids=lambda spec: spec.backend)
def test_a_constant_chart_at_a_rational_function_centre_takes_no_gcd(spec):
    # 1/c_0 through PuiseuxScalar.__mul__ ran the fraction gcd on the image
    # centre, a 777-term num over a 65-term den at degree 64: 7 s at degree
    # 16, and no result in 60 s at degree 64.  Scaling on term maps is two
    # products; the hash reads the centre's expansion with no gcd either
    f, x = chart_case(spec, 64)
    start = time.process_time()
    (image,) = apply_map(f, x)
    hash(image)
    assert time.process_time() - start < 1.0
    # P(a) = num/den, so the centre is -num / (3 den), compared by
    # cross-multiplication
    (nums,) = f.cleared[1:]
    num, den = _value_at(nums, f.den, *_num_den(x.center))
    assert image.is_rigid and image.center == points._from_num_den(spec, _terms_neg(num), _scaled(den, 3))


# -- point magnitudes on int pairs against the AbsValue oracles (hypothesis) ---


@st.composite
def oracle_disk_points(draw, kind: str):
    """A point with a zero or random centre and a zero or random radius."""
    centre = draw(st.one_of(st.just(SPECS[kind].zero()), SCALARS[kind]))
    radius = draw(st.one_of(st.just(ABS_ZERO), st.fractions(-4, 4, max_denominator=6).map(AbsValue.of)))
    return DiskPoint(centre, radius)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@SHIFT_SETTINGS
@given(data=st.data())
def test_point_magnitudes_on_int_pairs_equal_the_abs_value_oracles(kind, data):
    # diam_proj, DiskPoint.norm, ProjPoint.to_affine and Domain.contains read
    # |a| as an int pair and build at most one AbsValue, against the formulas
    # they replaced: several coordinates, the empty list, rigid and zero
    # centres, and the point at infinity
    coords = data.draw(st.lists(oracle_disk_points(kind), max_size=4))
    value, expected = diam_proj(coords), diam_proj_oracle(coords)
    assert value == expected and repr(value) == repr(expected)
    logs = st.fractions(-4, 4, max_denominator=6)
    low, high = sorted(data.draw(st.lists(logs, min_size=2, max_size=2, unique=True)))
    domains = [Domain.disk(ABS_ZERO), Domain.disk(AbsValue.of(high)), Domain.annulus(AbsValue.of(low), AbsValue.of(high))]
    infinity = ProjPoint.infinity(SPECS[kind])
    assert infinity.to_affine() is None and diam_proj_point(infinity) == ABS_ZERO
    for x in coords:
        assert diam_proj(x) == diam_proj_oracle(x) and x.norm() == norm_oracle(x)
        for domain in domains:
            assert domain.contains(x) == domain_contains_oracle(domain, x)
        for chart in ("affine", "infinity"):
            point = ProjPoint(chart, x)
            value, expected = point.to_affine(), to_affine_oracle(point)
            if expected is None:
                assert value is None and diam_proj_point(point) == ABS_ZERO
            else:
                assert value == expected and value.radius == expected.radius and repr(value) == repr(expected)
                assert diam_proj_point(point) == diam_proj_oracle(expected)


# -- puiseux-q ball images from the derivative's seminorm (hypothesis) --------

_nonzero_polynomials = puiseux_polynomials.filter(lambda c: not c.is_zero)
_constants = st.fractions(-6, 6, max_denominator=3).filter(bool).map(PQ.scalar)


@st.composite
def puiseux_ball_images(draw):
    """(f, x): a map [c : P] over puiseux-q and a ball x.

    P is random, or (T - a)^m Q with a root a of multiplicity m = 1 or 2.
    The centre of x is a, a plus one term (a near root, or a centre inside
    the ball), or a held as the rational function (a w) / w.  c is a
    nonzero constant or a Puiseux polynomial."""
    a = draw(_nonzero_polynomials)
    construction = draw(st.sampled_from(["random", "simple root", "double root"]))
    if construction == "random":
        p = Poly.from_dict(PQ, draw(st.dictionaries(st.integers(0, 6), puiseux_polynomials, max_size=5)))
    else:
        small = st.dictionaries(st.integers(0, 3), _nonzero_polynomials, min_size=1, max_size=3)
        p = Poly.from_dict(PQ, draw(small))
        for _ in range(1 if construction == "simple root" else 2):
            p = Poly.from_dict(PQ, {0: -a, 1: PQ.one()}) * p
    centre = draw(st.sampled_from(["root", "near", "rational"]))
    if centre == "near":
        a = a + PQ.from_terms([(draw(st.fractions(0, 5, max_denominator=6)), draw(st.integers(1, 3)))])
    elif centre == "rational":
        w = PQ.from_terms([(0, 1), (draw(st.fractions(1, 3, max_denominator=3)), 1)])
        a = PuiseuxScalar(PQ, (a * w).num_terms, w.num_terms)
    x = DiskPoint(a, AbsValue.of(draw(st.fractions(-4, 1, max_denominator=6))))
    return affine_map(PQ, draw(st.one_of(_constants, _nonzero_polynomials)), p), x


@SHIFT_SETTINGS
@given(case=puiseux_ball_images())
def test_puiseux_ball_images_equal_the_division_oracle(case):
    # the radius read off P' and the centre cut at it against the Scalar
    # division and the quotient's seminorm
    f, x = case
    images, expected = apply_map(f, x), apply_map_oracle(f, x)
    assert images == expected and [hash(y) for y in images] == [hash(y) for y in expected]
    assert [y.radius for y in images] == [y.radius for y in expected]
    (image,) = images
    chart = f.coords[0].coeff(0)
    dens = (x.center.den_terms, chart.num_terms, chart.den_terms, image.center.den_terms)
    if all(len(terms) == 1 and not terms[0][0] for _, terms in dens):
        # with a constant den, no term of the centre lies inside the image ball
        assert all(AbsValue.of(-q) > image.radius for q, _ in image.center.num)


def test_a_puiseux_ball_near_a_root_cuts_its_centre_at_every_degree():
    # (T - a) Q with Q dense and Q(1) != 0, at a ball around a + t^(7/5) of
    # log-radius -2: P' is a unit there, so the image radius is
    # r = beta^(-2), and P(a + t^(7/5)) keeps the three terms of magnitude
    # above it at every degree.  An uncut Horner pass carries a four-term
    # centre to powers up to the degree, about 5x the time per doubling
    a = PQ.from_terms([(0, 1), ("1/2", 1), ("1/3", 1)])
    x = DiskPoint(a + PQ.t_power("7/5"), AbsValue.of(-2))
    rng = rng_for("near-root-ball")
    terms, elapsed = {}, {}
    for degree in (101, 201, 401):
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(degree)]
        if not sum(coeffs):
            coeffs[0] += 1
        p = Poly.from_dict(PQ, {0: -a, 1: PQ.one()}) * Poly.from_coeffs(PQ, [PQ.scalar(c) for c in coeffs])
        f = affine_map(PQ, PQ.one(), p)
        start = time.process_time()
        (image,) = apply_map(f, x)
        elapsed[degree] = time.process_time() - start
        assert image.radius == AbsValue.of(-2)
        terms[degree] = len(image.center.num_terms[1])
        if degree == 101:
            assert image == DiskPoint(p.evaluate(x.center), AbsValue.of(-2))
    assert terms[101] == terms[201] == terms[401] == 3, terms
    assert elapsed[401] < 1, elapsed


def test_a_padic_ball_image_reads_its_radius_off_the_quotient(p3):
    # over Q_3, (1 + h)^3 = 1 + 3h + 3h^2 + h^3, so [1 : T^3] maps
    # eta_{1, beta^(-1/3)} to the ball of radius |b_3| r^3 = beta^(-1); but
    # r |P'|_x = r max(|3|, |6| r, |3| r^2) = beta^(-4/3), because |3|_3 < 1:
    # a padic ball keeps its quotient
    p = Poly.from_dict(p3, {3: p3.one()})
    x = DiskPoint(p3.one(), AbsValue.of("-1/3"))
    (image,) = apply_map(affine_map(p3, p3.one(), p), x)
    assert image.radius == AbsValue.of(-1)
    assert image == DiskPoint(p3.one(), AbsValue.of(-1))
    assert x.radius * eval_seminorm(p.derivative(), x) == AbsValue.of("-4/3")


# ball points with a puiseux-q polynomial centre and a radius in (1/6)Z
puiseux_balls = st.builds(
    DiskPoint, puiseux_polynomials, st.fractions(-4, 3, max_denominator=6).map(AbsValue.of)
)


@SHIFT_SETTINGS
@given(x=puiseux_balls, p=polys("puiseux-polynomial"), den=puiseux_polynomials.filter(lambda c: not c.is_zero))
def test_short_centre_names_the_same_ball_and_seminorm(x, p, den):
    s = short_centre(x)
    assert DiskPoint(s, x.radius) == x
    assert all(AbsValue.of(-q) > x.radius for q, _ in s.num)  # no term inside the ball
    assert s.den_terms == x.center.den_terms
    full = binomial_shift_oracle(p, x.center)
    assert eval_seminorm(p, x) == abs_max(c.abs() * x.radius**n for n, c in full.terms)
    f = affine_map(PQ, den, p)
    (image,) = apply_map(f, x)
    g = binomial_shift_oracle(f.coords[1], x.center)
    c0 = f.coords[0].coeff(0)
    radius = abs_max(c.abs() * x.radius**n for n, c in g.terms if n >= 1) / c0.abs()
    assert image == DiskPoint(g.coeff(0) / c0, radius)


def test_short_centre_of_a_centre_inside_the_ball_is_zero(pq, p3):
    x = DiskPoint(pq.from_terms([(1, 2), ("3/2", 1)]), AbsValue.of(-1))
    assert short_centre(x).is_zero
    y = DiskPoint(pq.from_terms([("1/2", 1), (1, 2), ("3/2", 1)]), AbsValue.of(-1))
    assert short_centre(y) == pq.t_power("1/2")
    # padic and rational-function centres: 0 when |a| <= r, as given otherwise
    fraction = pq.t_power(1) / pq.from_terms([(0, 1), ("1/2", 1)])
    assert short_centre(DiskPoint(fraction, AbsValue.of(-1))).is_zero
    assert short_centre(DiskPoint(fraction, AbsValue.of(-2))) is fraction
    assert short_centre(DiskPoint(p3.scalar(9), AbsValue.of(-2))).is_zero
    assert short_centre(DiskPoint(p3.scalar(9), AbsValue.of("-5/2"))) == p3.scalar(9)


# -- the initial-form certificate against the full shift (hypothesis) ---------

PQ6 = FieldSpec("puiseux-q", value_group=6)  # log-radii outside (1/6)Z are type III
_pq6_polynomials = st.lists(puiseux_terms, max_size=3).map(PQ6.from_terms)
_pq6_binomials = st.lists(puiseux_terms, max_size=2).map(PQ6.from_terms)
CERTIFICATE_SCALARS = {
    "padic": padic_scalars,
    "puiseux-polynomial": _pq6_polynomials,
    "puiseux-rational": st.one_of(
        _pq6_polynomials,
        st.tuples(_pq6_binomials, _pq6_binomials.filter(lambda d: not d.is_zero)).map(lambda nd: nd[0] / nd[1]),
    ),
}
CERTIFICATE_SPECS = {"padic": P3, "puiseux-polynomial": PQ6, "puiseux-rational": PQ6}


def _log_radius(kind: str, point_type: str):
    """Log-radii in the value group (type II) or outside it (type III)."""
    sixths = kind != "padic"
    if point_type == "II":
        return st.integers(-24, 12).map(lambda k: Fraction(k, 6)) if sixths else st.integers(-4, 2).map(Fraction)
    if sixths:
        return st.integers(-28, 14).filter(lambda k: k % 7).map(lambda k: Fraction(k, 7))
    return st.integers(-4, 2).map(lambda k: Fraction(2 * k + 1, 2))


def _below_one(w: Scalar) -> Scalar:
    """w times a power of the uniformizer, of magnitude < 1."""
    return w * w.spec.uniformizer(-max(1, ceil(w.abs().logval) + 1))


@st.composite
def certificate_cases(draw, kind: str):
    """(construction, P, a, x): a plain P and a point x centred at a.

    Except for "random", P is built so that its initial form at the Gauss
    point of radius |a| vanishes at a (sigma = 0): a is the leading part of a
    root b = a (1 + eps), a root itself (a planted factor of multiplicity 1
    to 3, so that a ball deflates for up to three passes), or two terms of P
    cancel in their leading parts at a."""
    spec, scalars = CERTIFICATE_SPECS[kind], CERTIFICATE_SCALARS[kind]
    nonzero = scalars.filter(lambda c: not c.is_zero)
    # lazy fractions of rational-function polynomials can reach the fraction
    # gcd, whose eliminations grow with the exponent span
    rational = kind == "puiseux-rational"
    construction = draw(st.sampled_from(["random", "root-lead", "planted", "cancel"]))
    a = draw(scalars if construction == "random" else nonzero)
    if construction == "random":
        coeffs = st.dictionaries(st.integers(0, 4 if rational else 6), scalars, max_size=3 if rational else 5)
        p = Poly.from_dict(spec, draw(coeffs))
    elif construction == "cancel":
        m, gap = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        c = draw(nonzero)
        lam = spec.one() + _below_one(draw(nonzero))
        for _ in range(gap):
            lam = lam * a
        p = Poly.from_dict(spec, {m: -(c * lam), m + gap: c})
    else:
        b = a if construction == "planted" else a * (spec.one() + _below_one(draw(nonzero)))
        multiplicity = draw(st.integers(1, 3)) if construction == "planted" else 1
        max_exp, max_terms = (2, 2) if rational else (4, 3)
        small = st.dictionaries(st.integers(0, max_exp), nonzero, min_size=1, max_size=max_terms)
        p = Poly.from_dict(spec, draw(small))
        for _ in range(multiplicity):
            p = Poly.from_dict(spec, {0: -b, 1: spec.one()}) * p
    point_type = draw(st.sampled_from(["I", "II", "III"]))
    radius = ABS_ZERO if point_type == "I" else AbsValue.of(draw(_log_radius(kind, point_type)))
    x = DiskPoint(a, radius)
    assert x.point_type() == point_type
    return construction, p, a, x


@pytest.mark.parametrize("kind", sorted(CERTIFICATE_SCALARS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_certified_seminorms_and_images_equal_the_full_shift(kind, data):
    construction, p, a, x = data.draw(certificate_cases(kind))
    shifted = binomial_shift_oracle(p, a)
    r = x.radius
    if x.is_rigid:
        expected = shifted.coeff(0).abs()
    else:
        expected = abs_max(c.abs() * r**n for n, c in shifted.terms)
    assert eval_seminorm(p, x) == expected
    # the witness: U = max_n |c_n| |a|^n, S its argmax, certified iff |P(a)| = U
    if not a.is_zero and not p.is_zero:
        reach = {n: c.abs() * a.abs() ** n for n, c in p.terms}
        top = abs_max(reach.values())
        witness = initial_form(p, a)
        assert (witness is not None) == (shifted.coeff(0).abs() == top)
        if witness is not None:
            assert witness == (top, tuple(n for n in sorted(reach) if reach[n] == top))
        if construction != "random":
            assert witness is None
    den = data.draw(CERTIFICATE_SCALARS[kind].filter(lambda c: not c.is_zero))
    f = affine_map(CERTIFICATE_SPECS[kind], den, p)
    (image,) = apply_map(f, x)
    g = binomial_shift_oracle(f.coords[1], a)
    c0 = f.coords[0].coeff(0)
    radius = ABS_ZERO if x.is_rigid else abs_max(c.abs() * r**n for n, c in g.terms if n >= 1) / c0.abs()
    assert image == DiskPoint(g.coeff(0) / c0, radius)
    assert image.radius == radius


def _result(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except (DomainViolation, PoleAtPoint) as exc:
        return type(exc)


@pytest.mark.parametrize("kind", sorted(CERTIFICATE_SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_seminorm_kernel_matches_the_scalar_oracles(kind, data):
    # the kernel on P cleared once (eval_seminorm), on a map's cleared lists
    # (fs_derivative) and on the cleared quotient (apply_map, at balls and
    # rigid points) against the Scalar paths they replaced: planted
    # sigma = 0 roots, rational-function coefficients, rigid points, Laurent
    # coordinates and a short centre 0
    construction, p, a, x = data.draw(certificate_cases(kind))
    spec, scalars = CERTIFICATE_SPECS[kind], CERTIFICATE_SCALARS[kind]
    nonzero = scalars.filter(lambda c: not c.is_zero)
    if not x.is_rigid and data.draw(st.booleans()):
        # a centre inside the ball names the ball around 0
        w = data.draw(nonzero)
        x = DiskPoint(w * spec.uniformizer(-ceil(w.abs().logval - x.radius.logval)), x.radius)
        assert short_centre(x).is_zero
    if not a.is_zero and not p.is_zero:
        assert initial_form(p, a) == initial_form_oracle(p, a)
    laurent = p.shift_exp(-data.draw(st.integers(0, 2)))
    assert _result(eval_seminorm, laurent, x) == _result(eval_seminorm_oracle, laurent, x)
    other = Poly.from_dict(spec, data.draw(st.dictionaries(st.integers(0, 3), scalars, max_size=2)))
    coords = (other.shift_exp(-data.draw(st.integers(0, 2))), laurent)
    if other.is_zero and laurent.is_zero:
        # a map with every coordinate zero is refused when it is made
        with pytest.raises(ZeroTuple):
            SeriesMap(coords)
    else:
        f = SeriesMap(coords)
        assert _result(fs_derivative, f, x) == _result(fs_derivative_oracle, f, x)
    g = affine_map(spec, data.draw(nonzero), p)
    images, expected = apply_map(g, x), apply_map_oracle(g, x)
    assert images == expected and [y.radius for y in images] == [y.radius for y in expected]


@pytest.mark.parametrize("kind", sorted(CERTIFICATE_SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_int_pair_queries_equal_the_scalar_oracles(kind, data):
    # fs_derivative, eval_seminorm and apply_map form their results on int
    # pairs and build one AbsValue each: against the Scalar oracles at
    # sigma = 0 balls and rigid points (planted roots and near roots), for
    # maps with a unit chart and with another constant chart, and for
    # Laurent maps at the points of an annulus around the point
    construction, p, a, x = data.draw(certificate_cases(kind))
    spec, scalars = CERTIFICATE_SPECS[kind], CERTIFICATE_SCALARS[kind]
    nonzero = scalars.filter(lambda c: not c.is_zero)
    assert eval_seminorm(p, x) == eval_seminorm_oracle(p, x)
    chart = data.draw(st.one_of(st.just(spec.one()), nonzero))
    f = affine_map(spec, chart, p)
    assert _result(fs_derivative, f, x) == _result(fs_derivative_oracle, f, x)
    images, expected = apply_map(f, x), apply_map_oracle(f, x)
    assert images == expected and [y.radius for y in images] == [y.radius for y in expected]
    norm = x.norm()
    if norm.is_zero:
        return
    other = Poly.from_dict(spec, data.draw(st.dictionaries(st.integers(0, 3), nonzero, min_size=1, max_size=2)))
    coords = (other.shift_exp(-data.draw(st.integers(0, 2))), p.shift_exp(-data.draw(st.integers(1, 2))))
    beta = AbsValue.of(1)
    g = SeriesMap(coords, Domain.annulus(norm / beta, norm * beta))
    assert _result(fs_derivative, g, x) == _result(fs_derivative_oracle, g, x)
    for c in coords:
        assert _result(eval_seminorm, c, x) == _result(eval_seminorm_oracle, c, x)


# -- the derivative seminorm off P's own terms (hypothesis) ---------------------


@st.composite
def derivative_cases(draw, kind: str):
    """(construction, P, x) for the seminorm of P' at x.

    P is random, has exponents divisible by 3 (so |n|_3 < 1 over padic), is
    (T - b)^2 Q with a planted double root b (a root of P'), or is constant
    (P' = 0); it may be shifted into a Laurent polynomial.  x is rigid or a
    ball smaller than |b| centred at b (the root, for a double root), near b
    or at 0, or a ball around 0 that holds b."""
    spec, scalars = SPECS[kind], SCALARS[kind]
    nonzero = scalars.filter(lambda c: not c.is_zero)
    # lazy fractions of rational-function polynomials reach the fraction gcd
    # of the Scalar oracle, whose eliminations grow with the exponent span
    rational = kind == "puiseux-rational"
    construction = draw(st.sampled_from(["random", "p-multiples", "double root", "constant"]))
    b = draw(nonzero)
    if construction == "random":
        coeffs = st.dictionaries(st.integers(0, 4 if rational else 7), scalars, max_size=3 if rational else 5)
    elif construction == "p-multiples":
        coeffs = st.dictionaries(st.sampled_from([0, 1, 3, 6, 9]), nonzero, max_size=3 if rational else 4)
    elif construction == "constant":
        coeffs = st.dictionaries(st.just(0), scalars, max_size=1)
    else:
        coeffs = st.dictionaries(st.integers(0, 1 if rational else 3), nonzero, min_size=1, max_size=2)
    p = Poly.from_dict(spec, draw(coeffs))
    if construction == "double root":
        root = Poly.from_dict(spec, {0: -b, 1: spec.one()})
        p = root * root * p
    if draw(st.booleans()):
        p = p.shift_exp(-draw(st.integers(1, 2)))
    centre = draw(st.sampled_from(["b", "near", "zero", "inside"]))
    if centre == "near":
        b = b + _below_one(draw(nonzero)) * b
    elif centre == "zero":
        b = spec.zero()
    # a ball below |b|, or one around 0 that holds b
    offset = AbsValue.of(draw(st.fractions(Fraction(1, 3), 4, max_denominator=3)))
    if centre == "inside":
        radius = b.abs() * offset
    elif draw(st.booleans()):
        radius = ABS_ZERO
    else:
        radius = (b.abs() if centre != "zero" else AbsValue.of(2)) / offset
    return construction, p, DiskPoint(b, radius)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_derivative_seminorm_off_p_equals_the_seminorm_of_its_derivative(kind, data):
    # |P'(x)| |L| read off P's own cleared terms (_derivative_seminorm),
    # against the kernel on the built P' list, and |P'(x)| against
    # eval_seminorm and the Scalar oracle on Poly.derivative: exponents
    # divisible by p, planted double roots and near roots (sigma' = 0), rigid
    # points, the point 0 and balls around it, constant P and Laurent P
    construction, p, x = data.draw(derivative_cases(kind))
    lcm, (nums,) = _clear([p])
    point = _Point(x)
    value = _result(points._derivative_seminorm, nums, point)
    assert value == _result(_seminorm, points._derived(nums), point)
    expected = _result(eval_seminorm, p.derivative(), x)
    assert expected == _result(eval_seminorm_oracle, p.derivative(), x)
    if isinstance(value, tuple):
        assert _magnitude(*points._log_div(value, points._term_abs(lcm, point.prime))) == expected
    else:
        assert value == expected
    if p.is_constant:
        assert value == (-1, 0)


def test_synthetic_division_recovers_the_polynomial():
    for spec in (P3, PQ):
        rng = rng_for(f"divide-linear-{spec.backend}")
        for _ in range(30):
            p = random_poly(rng, spec, 6)
            a = random_scalar(rng, spec)
            value, q = divide_linear(p, a)
            assert value == p.evaluate(a)
            assert Poly.from_dict(spec, {0: -a, 1: spec.one()}) * q + Poly.constant(spec, value) == p
        value, q = divide_linear(Poly(spec, ()), random_nonzero_scalar(rng, spec))
        assert value.is_zero and q.is_zero


# ---------------------------------------------------------------------------
# eval_seminorm


def test_coordinate_at_gauss_point(p3):
    assert eval_seminorm(Poly.coordinate(p3), gauss_point(p3)) == ABS_ONE


def test_recentering_gives_radius(p3):
    a = p3.scalar(7)
    r = AbsValue.of(Fraction(-5, 2))
    p = Poly.from_dict(p3, {1: p3.one(), 0: -a})  # T - a
    assert eval_seminorm(p, DiskPoint(a, r)) == r


def test_seminorm_brute_force_coefficient_max(p3):
    # T^2 + 3T at the Gauss point: recentered coefficients are (0, 3, 1)
    p = Poly.from_dict(p3, {2: p3.one(), 1: p3.scalar(3)})
    expected = max(p3.scalar(3).abs() * ABS_ONE, p3.one().abs())
    assert eval_seminorm(p, gauss_point(p3)) == expected == ABS_ONE


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_seminorm_multiplicative(backend):
    spec = FieldSpec(backend, 5 if backend == "padic" else None)
    rng = rng_for(f"seminorm-mult-{backend}")
    for _ in range(40):
        p = random_poly(rng, spec, 4)
        q = random_poly(rng, spec, 4)
        x = DiskPoint(random_scalar(rng, spec), random_radius(rng))
        assert eval_seminorm(p * q, x) == eval_seminorm(p, x) * eval_seminorm(q, x)
        s = eval_seminorm(p + q, x)
        assert s <= max(eval_seminorm(p, x), eval_seminorm(q, x))


def test_seminorm_monotone_in_radius(p3):
    rng = rng_for("seminorm-monotone")
    for _ in range(30):
        p = random_poly(rng, p3, 5)
        a = random_scalar(rng, p3)
        radii = sorted(random_radius(rng) for _ in range(3))
        values = [eval_seminorm(p, DiskPoint(a, r)) for r in radii]
        assert values == sorted(values)


def test_seminorm_at_rigid_point_is_plain_evaluation(p3):
    rng = rng_for("seminorm-rigid")
    for _ in range(30):
        p = random_poly(rng, p3, 5)
        a = random_scalar(rng, p3)
        assert eval_seminorm(p, rigid(a)) == p.evaluate(a).abs()


def test_laurent_seminorm_on_annulus_point(p3):
    inv_t = Poly.from_dict(p3, {-1: p3.one()})
    x = DiskPoint(p3.zero(), AbsValue.of(-2))
    assert eval_seminorm(inv_t, x) == AbsValue.of(2)
    # away from zero, |1/T| = 1/|a|
    y = DiskPoint(p3.scalar(3), AbsValue.of(-4))
    assert eval_seminorm(inv_t, y) == AbsValue.of(1)


def test_laurent_at_rigid_zero_raises(p3):
    inv_t = Poly.from_dict(p3, {-1: p3.one()})
    with pytest.raises(PoleAtPoint):
        eval_seminorm(inv_t, rigid(p3.zero()))


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_evaluate_and_scale_reject_a_scalar_of_another_backend(p3, pq, backend):
    # a constant or zero polynomial runs no arithmetic with the scalar, so
    # only a spec check can catch the mix; before it, evaluate returned the
    # constant, scale by another backend's zero returned the zero
    # polynomial, and fs_ratio of constant coordinates read AbsValue(0)
    spec, other = (p3, pq) if backend == "padic" else (pq, p3)
    for p in (Poly.constant(spec, spec.scalar(2)), Poly(spec, ()), Poly.coordinate(spec)):
        for c in (other.one(), other.zero()):
            with pytest.raises(BackendMismatch):
                p.evaluate(c)
            with pytest.raises(BackendMismatch):
                p.scale(c)
    with pytest.raises(BackendMismatch):
        fs_ratio([Poly.constant(spec, spec.one()), Poly.constant(spec, spec.scalar(2))], other.one(), other.scalar(2))


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_poly_rejects_a_coefficient_of_another_backend(p3, pq, backend):
    # a padic Poly of t^5 evaluated silently to beta^0 at rigid 1
    spec, c = (p3, pq.from_terms([(5, 1)])) if backend == "padic" else (pq, p3.scalar(9))
    with pytest.raises(BackendMismatch):
        Poly(spec, ((0, c),))
    with pytest.raises(BackendMismatch):
        Poly.from_dict(spec, {0: spec.one(), 1: c})


def test_poly_rejects_exponents_out_of_order(p3):
    # Poly(p3, ((1, 9), (0, 1))) reported degree() 0, and a map on it ended
    # apply_map in a bare IndexError from _SyntheticDivision
    with pytest.raises(ValueError):
        Poly(p3, ((1, p3.scalar(9)), (0, p3.one())))
    with pytest.raises(ValueError):
        Poly(p3, ((0, p3.one()), (0, p3.scalar(2))))
    assert Poly.from_dict(p3, {1: p3.scalar(9), 0: p3.one()}).degree() == 1


def test_poly_rejects_a_zero_coefficient(p3, pq):
    # Poly(p3, ((0, 0),)) made eval_seminorm at rigid 1 raise "valuation of 0"
    for spec in (p3, pq):
        with pytest.raises(ValueError):
            Poly(spec, ((0, spec.zero()),))
        assert Poly.from_dict(spec, {0: spec.zero(), 1: spec.one()}) == Poly.coordinate(spec)


def test_disk_point_rejects_a_centre_that_is_not_a_scalar(p3):
    # rigid(1) was accepted, and its hash or fs_derivative at it then ended
    # in an AttributeError
    with pytest.raises(ValueError):
        rigid(1)
    with pytest.raises(ValueError):
        DiskPoint(Fraction(1, 3), ABS_ONE)


def test_disk_point_rejects_a_radius_that_is_not_an_abs_value(p3):
    with pytest.raises(ValueError):
        DiskPoint(p3.one(), "x")
    with pytest.raises(ValueError):
        DiskPoint(p3.one(), Fraction(-1))


# ---------------------------------------------------------------------------
# join


def test_join_of_distinct_rigid_points(p3):
    x, y = rigid(p3.zero()), rigid(p3.one())
    assert join(x, y) == DiskPoint(p3.zero(), ABS_ONE)


def test_join_idempotent_commutative_contains(p3):
    rng = rng_for("join")
    for _ in range(40):
        x = DiskPoint(random_scalar(rng, p3), random_radius(rng))
        y = DiskPoint(random_scalar(rng, p3), random_radius(rng))
        j = join(x, y)
        assert join(x, x) == x
        assert j == join(y, x)
        assert j.contains(x) and j.contains(y)


def test_join_containment_example(p3):
    # |3| = 3^(-1), so the ball of log-radius -1 around 0 already contains 3
    x = DiskPoint(p3.zero(), AbsValue.of(-1))
    y = rigid(p3.scalar(3))
    assert join(x, y) == x


# ---------------------------------------------------------------------------
# diameters


def test_diam_affine_is_radius(p3):
    r = AbsValue.of(Fraction(-7, 3))
    assert diam_affine(DiskPoint(p3.scalar(4), r)) == r
    assert diam_affine(rigid(p3.scalar(9))) == ABS_ZERO


def test_diam_affine_max_of_coordinates(p3):
    pts = [DiskPoint(p3.zero(), AbsValue.of(-1)), DiskPoint(p3.zero(), AbsValue.of(-2))]
    assert diam_affine(pts) == AbsValue.of(-1)


def test_diam_proj_inside_unit_disk(p3):
    r = AbsValue.of(-1)
    assert diam_proj(DiskPoint(p3.zero(), r)) == r


def test_diam_proj_outside_unit_disk(p3):
    big = AbsValue.of(2)
    # R / R^2 = 1/R
    assert diam_proj(DiskPoint(p3.zero(), big)) == AbsValue.of(-2)


def test_diam_proj_zero_iff_rigid(p3):
    rng = rng_for("diam-rigid")
    for _ in range(40):
        pts = [DiskPoint(random_scalar(rng, p3), random_radius(rng)) for _ in range(2)]
        assert (diam_proj(pts) == ABS_ZERO) == all(p.is_rigid for p in pts)


# ---------------------------------------------------------------------------
# point equality, types and charts


def test_ball_equality(p3):
    r = AbsValue.of(-1)
    assert DiskPoint(p3.zero(), r) == DiskPoint(p3.scalar(3), r)
    assert DiskPoint(p3.zero(), r) != DiskPoint(p3.one(), r)
    assert DiskPoint(p3.zero(), r) != DiskPoint(p3.zero(), AbsValue.of(-2))


def test_points_from_mixed_backends_are_distinct(p3, pq):
    p5 = FieldSpec("padic", 5)
    pts = [rigid(p3.zero()), rigid(pq.zero()), rigid(p5.zero()), gauss_point(p3), gauss_point(pq)]
    assert rigid(p3.zero()) != rigid(pq.zero())
    assert len(set(pts)) == 5
    proj = {ProjPoint.affine(x) for x in pts}
    proj |= {ProjPoint.infinity(p3), ProjPoint.infinity(pq), ProjPoint.infinity(p3)}
    assert len(proj) == 7


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_equal_points_in_different_charts_hash_equal(backend):
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    rng = rng_for(f"proj-hash-{backend}")
    pool = [ProjPoint.infinity(spec), ProjPoint("infinity", rigid(spec.zero()))]
    for _ in range(60):
        x = DiskPoint(random_scalar(rng, spec), random_radius(rng))
        ca = x.center.abs()
        if ca > x.radius:
            # a ball avoiding 0 is the ball eta_{1/a, r/|a|^2} of the chart at infinity
            other = ProjPoint("infinity", DiskPoint(x.center.inv(), x.radius / (ca * ca)))
        elif not x.radius.is_zero:
            # a ball around 0 is eta_{0, 1/r} there, whatever centre it was built with
            other = ProjPoint("infinity", DiskPoint(spec.zero(), ABS_ONE / x.radius))
        else:
            continue  # the rigid point 0 lies outside the chart at infinity
        point = ProjPoint.affine(x)
        assert point == other and hash(point) == hash(other)
        assert len({point, other}) == 1
        pool += [point, other]
    for p in pool:
        for q in pool:
            if p == q:
                assert hash(p) == hash(q)


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_a_set_of_distinct_rigid_points_builds_fast(backend):
    # rigid points hash by their centre; a radius-only hash puts them all in one bucket
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    if backend == "padic":
        centres = [spec.scalar(Fraction(i, 7)) for i in range(2000)]
    else:
        centres = [spec.from_terms([(0, i), ("1/2", 1)]) for i in range(2000)]
    start = time.perf_counter()
    disk_points = {rigid(c) for c in centres}
    proj_points = {ProjPoint.affine(rigid(c)) for c in centres}
    elapsed = time.perf_counter() - start
    assert len(disk_points) == len(proj_points) == 2000
    assert elapsed < 2


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_a_set_of_distinct_balls_of_one_radius_builds_fast(backend):
    # non-rigid balls hash by a centre key; a radius-only hash puts them all in one bucket
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    if backend == "padic":
        centres = [spec.scalar(Fraction(i, 7)) for i in range(2000)]
    else:
        centres = [spec.from_terms([(0, i), ("1/2", 1)]) for i in range(2000)]
    start = time.perf_counter()
    disk_points = {DiskPoint(c, AbsValue.of(-8)) for c in centres}
    proj_points = {ProjPoint.affine(DiskPoint(c, AbsValue.of(-8))) for c in centres}
    elapsed = time.perf_counter() - start
    assert len(disk_points) == len(proj_points) == 2000
    assert elapsed < 2


def test_hashing_a_fraction_with_coprime_exponent_denominators_is_fast():
    # (1 + t^(1/97) + t^3) / (1 + 2 t^(1/99) + t^3): a gcd over u = t^(1/9603)
    # took over 17 s per hash; the hash reads the expansion and runs none
    x = PQ.from_terms([(0, 1), ("1/97", 1), (3, 1)]) / PQ.from_terms([(0, 1), ("1/99", 2), (3, 1)])
    g = PQ.from_terms([(0, 1), ("1/7", 3)])
    y = (x * g) * g.inv()  # an equal representative
    for value in (x, y, rigid(x), rigid(y), ProjPoint.affine(rigid(x)), ProjPoint.affine(rigid(y))):
        start = time.perf_counter()
        hash(value)
        assert time.perf_counter() - start < 1
    assert x == y and hash(x) == hash(y)
    assert hash(rigid(x)) == hash(rigid(y)) and hash(ProjPoint.affine(rigid(x))) == hash(ProjPoint.affine(rigid(y)))


PQ2 = FieldSpec("puiseux-q", value_group=2)  # radii beta^q with q not in (1/2)Z are type III
# terms of magnitude at most 1, and below 1
unit_terms = st.tuples(st.fractions(0, 3, max_denominator=3), st.fractions(-6, 6, max_denominator=3))
positive_terms = st.tuples(st.fractions(Fraction(1, 3), 3, max_denominator=3), st.fractions(-6, 6, max_denominator=3))
nonzero_rationals = st.fractions(-6, 6, max_denominator=3).filter(bool)


@st.composite
def puiseux_centre_and_small(draw, radius_logval: Fraction):
    """A puiseux-q polynomial or rational-function centre, and an element of
    magnitude at most beta^radius_logval (a polynomial or a rational function)."""
    terms = st.lists(puiseux_terms, max_size=3).map(PQ2.from_terms)
    centre = draw(terms)
    if draw(st.booleans()):
        centre = centre / draw(terms.filter(lambda d: not d.is_zero))
    small = PQ2.from_terms(draw(st.lists(unit_terms, max_size=3))) * PQ2.uniformizer(radius_logval)
    if draw(st.booleans()):
        # divide by a unit 1 + (terms of positive exponent)
        small = small / PQ2.from_terms([(0, draw(nonzero_rationals))] + draw(st.lists(positive_terms, max_size=2)))
    return centre, small


@SHIFT_SETTINGS
@given(data=st.data(), logval=st.fractions(-5, 2, max_denominator=6))
def test_a_ball_hashes_as_any_of_its_centres(data, logval):
    radius = AbsValue.of(logval)
    # padic: a perturbation 3^ceil(-q) * (a 3-integral rational) has magnitude <= 3^q
    centre = data.draw(padic_scalars)
    unit = data.draw(st.fractions(-40, 40, max_denominator=30).filter(lambda f: f.denominator % 3))
    cases = [(centre, P3.scalar(unit * Fraction(3) ** ceil(-logval)))]
    cases.append(data.draw(puiseux_centre_and_small(logval)))
    for a, small in cases:
        x, y = DiskPoint(a, radius), DiskPoint(a + small, radius)
        assert x == y and hash(x) == hash(y)
        assert hash(ProjPoint.affine(x)) == hash(ProjPoint.affine(y))


def test_a_point_of_the_chart_at_infinity_is_inverted_once(monkeypatch):
    calls = []
    inv = PuiseuxScalar.inv

    def counting_inv(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(PuiseuxScalar, "inv", counting_inv)
    # |c| = beta > r, so the affine representative is eta(1/c, r/|c|^2)
    c = PQ.from_terms([(-1, 1), (0, 2), ("1/2", 1)])
    point = ProjPoint("infinity", DiskPoint(c, AbsValue.of(-3)))
    twin = ProjPoint("infinity", DiskPoint(c, AbsValue.of(-3)))
    for _ in range(5):
        assert point.to_affine() == DiskPoint(inv(c), AbsValue.of(-5))
        assert point == twin and hash(point) == hash(twin)
    assert len(calls) == 2  # once for each of the two points


def test_proj_point_rejects_a_chart_it_does_not_know(p3):
    # a misspelt chart was read as the chart at infinity: eta(9, beta^-1)
    # gave the affine point eta(0, beta)
    x = DiskPoint(p3.scalar(9), AbsValue.of(-1))
    for chart in ("Affine", "INFINITY", "", None):
        with pytest.raises(ValueError):
            ProjPoint(chart, x)
    assert ProjPoint("affine", x).to_affine() is x


def test_proj_point_rejects_a_point_that_is_not_a_disk_point(p3):
    for point in (5, p3.scalar(5), None, ProjPoint.affine(rigid(p3.one()))):
        with pytest.raises(ValueError):
            ProjPoint("affine", point)
        with pytest.raises(ValueError):
            ProjPoint("infinity", point)


def test_point_types_follow_value_group():
    spec = FieldSpec("padic", 3)  # value group Z
    assert rigid(spec.one()).point_type() == "I"
    assert DiskPoint(spec.zero(), AbsValue.of(-2)).point_type() == "II"
    assert DiskPoint(spec.zero(), AbsValue.of("-1/2")).point_type() == "III"
    refined = FieldSpec("padic", 3, value_group=2)
    assert DiskPoint(refined.zero(), AbsValue.of("-1/2")).point_type() == "II"


def test_infinity_chart_conversion(p3):
    inf = ProjPoint.infinity(p3)
    assert inf.to_affine() is None
    assert diam_proj_point(inf) == ABS_ZERO
    # reciprocal ball avoiding 0 inverts to an affine ball
    pp = ProjPoint("infinity", DiskPoint(p3.one(), AbsValue.of(-2)))
    aff = pp.to_affine()
    assert aff == DiskPoint(p3.one(), AbsValue.of(-2))
    # reciprocal ball containing 0 is eta_{0, 1/r}
    pp2 = ProjPoint("infinity", DiskPoint(p3.zero(), AbsValue.of(-3)))
    assert pp2.to_affine() == DiskPoint(p3.zero(), AbsValue.of(3))


def test_infinity_chart_seminorm_consistency(p3):
    # eta^S_{c,r} with |c| > r equals eta^T_{1/c, r/|c|^2}: check through |T - w|
    c = p3.scalar(3)
    pp = ProjPoint("infinity", DiskPoint(c, AbsValue.of(-4)))
    aff = pp.to_affine()
    assert aff is not None
    rng = rng_for("chart")
    for _ in range(10):
        w = random_nonzero_scalar(rng, p3)
        direct = eval_seminorm(Poly.from_dict(p3, {1: p3.one(), 0: -w}), aff)
        # in the reciprocal coordinate T - w = (1 - w S)/S
        num = Poly.from_dict(p3, {0: p3.one(), 1: -w})
        s_point = DiskPoint(c, AbsValue.of(-4))
        via_chart = eval_seminorm(num, s_point) / eval_seminorm(Poly.coordinate(p3), s_point)
        assert direct == via_chart
