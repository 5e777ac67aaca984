"""The integer gcd stack: the term-map gcd and exact division, fraction
reduction, poly_gcd on both backends, the coprimality certificate and
series_map's reduction on cleared lists, each against an exact oracle, and
the work series_map does."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berkline import FieldSpec, Poly, SeriesMap, fs_derivative, fsderiv, points, series_map
from berkline.field import (
    _ZERO_TERMS,
    _normalize_fraction,
    _scaled,
    _terms_divide,
    _terms_from_dict,
    _terms_gcd,
    _terms_mul,
)
from berkline.points import coprime_certificate, poly_gcd

from conftest import (
    coprime_certificate_on_polys,
    dense_divexact_oracle,
    dense_gcd_oracle,
    dense_to_terms,
    poly_divexact_oracle,
    random_poly,
    random_unit_disk_point,
    rng_for,
    series_map_on_polys,
    terms_to_dense,
)

P3 = FieldSpec("padic", 3)
PQ = FieldSpec("puiseux-q")

exponents = st.builds(Fraction, st.integers(-3, 6), st.sampled_from([1, 2, 3]))
coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 5]))
term_dicts = st.lists(st.tuples(exponents, coefficients), min_size=1, max_size=4).map(dict)
term_pairs = term_dicts.map(_terms_from_dict)  # int num over the constant lcm of the denominators


@given(term_pairs, term_pairs, term_pairs)
@settings(max_examples=150, deadline=None)
def test_normalize_fraction_is_an_equal_canonical_fraction(a, b, common):
    # the fraction a / b of two rational-coefficient maps, cleared to ints
    # by cross-multiplication, then times common's numerator top and bottom
    num = _terms_mul(_terms_mul(a[0], b[1]), common[0])
    den = _terms_mul(_terms_mul(b[0], a[1]), common[0])
    n, d = _normalize_fraction(num, den)
    assert _terms_mul(n, den) == _terms_mul(num, d)
    assert d[1][0][0] == 0 and type(d[1][0][1]) is int and d[1][0][1] > 0
    assert math.gcd(*(c for _, c in n[1] + d[1])) == 1


# polynomials in u = t^(1/D): no negative exponent, denominators up to 6
polynomial_maps = st.dictionaries(
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)), st.integers(-9, 9).filter(bool), min_size=1, max_size=4
).map(lambda d: _terms_from_dict(d)[0])


@given(st.one_of(st.just(_ZERO_TERMS), polynomial_maps), polynomial_maps, polynomial_maps, st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_term_map_gcd_and_exact_division_match_the_dense_oracles(a, b, common, content):
    # a planted common factor, and integer content on one side
    x, y = _scaled(_terms_mul(a, common), content), _terms_mul(b, common)
    denom = math.lcm(x[0], y[0])
    g = _terms_gcd(x, y)
    assert g == dense_to_terms(dense_gcd_oracle(terms_to_dense(x, denom), terms_to_dense(y, denom)), denom)
    for top in (x, y):
        q = _terms_divide(top, g, True)
        assert q == dense_to_terms(dense_divexact_oracle(terms_to_dense(top, denom), terms_to_dense(g, denom)), denom)
        assert _terms_mul(q, g) == top


SCALARS = {
    "padic": st.builds(lambda a, b: P3.scalar(Fraction(a, b)), st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 9])),
    "puiseux-q": term_dicts.map(lambda d: PQ.from_terms(d.items())),
}


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_poly_gcd_divides_and_is_divided_by_common_factor(backend, data):
    spec = P3 if backend == "padic" else PQ
    polys = st.lists(SCALARS[backend], min_size=1, max_size=3).map(lambda cs: Poly.from_coeffs(spec, cs))
    p, q, g = data.draw(polys), data.draw(polys), data.draw(polys)
    assume(not p.is_zero and not q.is_zero and g.degree() >= 1)
    a, b = p * g, q * g
    h = poly_gcd(a, b)
    poly_divexact_oracle(h, g)  # raises ValueError unless g divides h
    poly_divexact_oracle(a, h)
    poly_divexact_oracle(b, h)


def _euclid_gcd(p: Poly, q: Poly) -> Poly:
    """Slow oracle: the monic Euclidean gcd over padic coefficients."""
    a, b = p, q
    while not b.is_zero:
        lead_inv, db = b.terms[-1][1].inv(), b.degree()
        while not a.is_zero and a.degree() >= db:
            n, c = a.terms[-1]
            a = a - b.shift_exp(n - db).scale(c * lead_inv)
        a, b = b, a
    return a if a.is_zero else a.scale(a.terms[-1][1].inv())


def test_padic_gcd_matches_euclid_oracle(p3):
    rng = rng_for("padic-gcd-euclid")
    for _ in range(150):
        g = random_poly(rng, p3, rng.randint(0, 3))
        p = random_poly(rng, p3, rng.randint(0, 3)) * g
        q = random_poly(rng, p3, rng.randint(0, 3)) * g
        assert poly_gcd(p, q) == _euclid_gcd(p, q)


def test_certificate_ignores_specializations_that_drop_every_degree(pq):
    # h = (t - 2) T + 1 becomes the constant 1 at t = 2, where both products
    # below also lose their leading terms; the certificate must not trust t = 2
    t = Poly.coordinate(pq)
    one = Poly.constant(pq, pq.one())
    h = Poly.from_dict(pq, {0: pq.one(), 1: pq.from_terms([(1, 1), (0, -2)])})
    p, q = h * t, h * (t + one)
    assert not coprime_certificate([p, q])
    assert poly_gcd(p, q).degree() == 1
    f = series_map([p, q])
    assert [c.degree() for c in f.coords] == [1, 1]
    assert f.proportional_to(series_map([t, t + one]))


def test_certificate_holds_for_a_constant_specialized_gcd_with_content(pq):
    t, two = Poly.coordinate(pq), Poly.constant(pq, pq.scalar(2))
    # the specialized gcd of 2T + 2 and 2T + 4 is the constant 2
    assert coprime_certificate([two * t + two, two * t + two + two])


def test_certificate_skips_a_specialization_that_vanishes(pq):
    # p = (t - 2)(T + 1) is 0 at t = 2; t = 3 certifies
    t, one = Poly.coordinate(pq), Poly.constant(pq, pq.one())
    p = Poly.constant(pq, pq.from_terms([(1, 1), (0, -2)])) * (t + one)
    q = t + one + one
    assert coprime_certificate([p, q])
    assert poly_gcd(p, q).degree() == 0


def test_certificate_skips_a_pole_where_an_image_keeps_its_degree(pq):
    # at t = 2 the lists of T/(2 - t) + 1 and T + 1/(2 - t) + 9 - 3t, cleared
    # over L = 2 - t, are T and 1: coprime images of the right degree, but
    # t = 2 is a pole, and at t = 3 and t = 5/2 the two share a root
    t, one = pq.from_terms([(1, 1)]), pq.one()
    w = (pq.scalar(2) - t).inv()
    p = Poly.from_coeffs(pq, [one, w])
    q = Poly.from_coeffs(pq, [w + pq.scalar(9) - pq.scalar(3) * t, one])
    assert not coprime_certificate([p, q])
    assert coprime_certificate([p, q]) == coprime_certificate_on_polys([p, q])


def test_certificate_reads_u_over_the_exponent_denominator_of_the_coefficients(pq):
    # x = (1 + t^(1/2)) / (1 + t^(1/2)) and y = (1 - t^(1/2)) / (1 - t^(1/2))
    # are 1, left unreduced: cleared over L = 1 - t no list keeps t^(1/2), but
    # u is t^(1/2), so sigma = 2 is t = 4, where T + t and the roots
    # -2, -3, -5/2 of the second polynomial are apart
    root = pq.from_terms([(Fraction(1, 2), 1)])
    one = pq.one()
    x, y = (one + root) / (one + root), (one - root) / (one - root)
    p = Poly.from_coeffs(pq, [x * pq.from_terms([(1, 1)]), x])
    q = Poly.from_coeffs(pq, [y])
    for r in (2, 3, Fraction(5, 2)):
        q = q * Poly.from_coeffs(pq, [pq.scalar(r), one])
    assert coprime_certificate([p, q])
    assert coprime_certificate_on_polys([p, q])


def test_certificate_is_puiseux_only(p3):
    t = Poly.coordinate(p3)
    assert not coprime_certificate([t, t + Poly.constant(p3, p3.one())])


# -- series_map against the Scalar-division oracle ----------------------------

# exponents over 1 and 2 only: the Scalar oracle's lazy fractions reduce
# through the fraction gcd, whose eliminations grow with the exponent span in
# units of 1/D, so it is slow over a larger D
_PQ_POLY_COEFFS = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-2, 4), st.sampled_from([1, 2])), coefficients), min_size=1, max_size=3
).map(PQ.from_terms)
_PQ_FRACTION_COEFFS = st.tuples(_PQ_POLY_COEFFS, _PQ_POLY_COEFFS.filter(lambda c: not c.is_zero)).map(
    lambda nd: nd[0] / nd[1]
)
MAP_COEFFS = {
    "padic": SCALARS["padic"],
    "puiseux-q": st.one_of(_PQ_POLY_COEFFS, _PQ_FRACTION_COEFFS),
}
# leading coefficients of the common factor: non-monomial for puiseux-q, so
# that Scalar division by it makes lazy fractions
LEADS = {
    "padic": SCALARS["padic"].filter(lambda c: not c.is_zero),
    "puiseux-q": st.one_of(
        st.just(PQ.from_terms([(0, 3), (Fraction(1, 2), 1)])),
        _PQ_POLY_COEFFS.filter(lambda c: len(c.num_terms[1]) > 1),
        _PQ_FRACTION_COEFFS.filter(lambda c: len(c.num_terms[1]) > 1),
    ),
}


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_series_map_divides_out_a_common_factor_exactly(backend, data):
    spec = P3 if backend == "padic" else PQ
    coeffs = MAP_COEFFS[backend]

    def polys(max_degree):
        cs = st.lists(coeffs, min_size=1, max_size=max_degree + 1)
        return cs.map(lambda cs: Poly.from_coeffs(spec, cs)).filter(lambda p: not p.is_zero)

    # p_0 has degree <= 1 and some other p_i misses its root, so the p_i are
    # coprime and h is the whole common factor of the p_i h
    first = data.draw(polys(1))
    others = data.draw(st.lists(polys(2), min_size=1, max_size=2))
    if first.degree() == 1:
        root = -(first.coeff(0) / first.coeff(1))
        assume(any(not p.evaluate(root).is_zero for p in others))
    h = Poly.from_coeffs(spec, [*data.draw(st.lists(coeffs, min_size=1, max_size=2)), data.draw(LEADS[backend])])
    coords = [p * h for p in [first, *others]]
    f = series_map(coords)
    oracle = SeriesMap(tuple([poly_divexact_oracle(c, h) for c in coords]))
    assert f.proportional_to(oracle)
    g = f.coords[0]
    for c in f.coords[1:]:
        g = poly_gcd(g, c)
    assert g.is_constant
    if backend == "puiseux-q":
        for c in f.coords:
            for _, a in c.terms:
                ((k, d),) = a.den_terms[1]
                assert k == 0 and d > 0
    rng = rng_for(f"series-map-oracle-{backend}-{data.draw(st.integers(0, 2**16))}")
    for _ in range(4):
        z = random_unit_disk_point(rng, spec)  # coprime coordinates never all vanish
        assert fs_derivative(f, z) == fs_derivative(oracle, z)


# -- series_map on one clearing against the reduction on Polys ----------------

DIFFERENTIAL_COEFFS = {
    "padic": SCALARS["padic"],
    "puiseux-polynomial": _PQ_POLY_COEFFS,
    "puiseux-rational": st.one_of(_PQ_POLY_COEFFS, _PQ_FRACTION_COEFFS),
}
DIFFERENTIAL_LEADS = {
    "padic": LEADS["padic"],
    "puiseux-polynomial": _PQ_POLY_COEFFS.filter(lambda c: not c.is_zero),
    "puiseux-rational": LEADS["puiseux-q"],
}


def _map_coords(data, kind: str, laurent: bool) -> list[Poly]:
    """2-3 coordinates of degree <= 2, some possibly zero, not all zero,
    times a drawn common factor of degree 1-2 or none; with ``laurent``,
    each also times its own power T^k, -2 <= k <= 2."""
    spec = P3 if kind == "padic" else PQ
    coeffs = DIFFERENTIAL_COEFFS[kind]
    poly = st.lists(coeffs, min_size=1, max_size=3).map(lambda cs: Poly.from_coeffs(spec, cs))
    coords = data.draw(st.lists(st.one_of(poly, st.just(Poly(spec, ()))), min_size=2, max_size=3))
    assume(any(not c.is_zero for c in coords))
    if data.draw(st.booleans()):
        low = data.draw(st.lists(coeffs, min_size=1, max_size=2))
        h = Poly.from_coeffs(spec, [*low, data.draw(DIFFERENTIAL_LEADS[kind])])
        coords = [c * h for c in coords]
    if laurent:
        coords = [c.shift_exp(data.draw(st.integers(-2, 2))) for c in coords]
    return coords


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_COEFFS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_series_map_equals_the_reduction_on_polys(kind, data):
    coords = _map_coords(data, kind, laurent=True)
    f, oracle = series_map(coords), series_map_on_polys(coords)
    assert f.den == oracle.den
    assert f.cleared == oracle.cleared


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_COEFFS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_coprime_certificate_on_cleared_lists_returns_the_bool_on_polys(kind, data):
    polys = [c for c in _map_coords(data, kind, laurent=False) if not c.is_zero]
    assert coprime_certificate(polys) == coprime_certificate_on_polys(polys)


def test_series_map_keeps_the_sign_of_the_reduction_on_polys_over_a_negative_den(pq):
    # 1 - t leads negatively: a common denominator L of the coordinates, or
    # of only some of them, flips the sign of what each gcd step reads
    t, one, two = pq.from_terms([(1, 1)]), pq.one(), pq.scalar(2)
    w = (one - t).inv()
    line = [Poly.from_coeffs(pq, [c, one]) for c in (one, two, w)]
    for coords in ([p * line[2] for p in line[:2]], [p * Poly.from_coeffs(pq, [t, one]) for p in line]):
        f, oracle = series_map(coords), series_map_on_polys(coords)
        assert (f.den, f.cleared) == (oracle.den, oracle.cleared)


# the Poly constructor, operators and methods that return a Poly
POLY_WORK = ("__init__", "__add__", "__sub__", "__mul__", "__neg__", "scale", "shift_exp", "derivative")


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_series_map_clears_once_and_builds_no_poly(backend, monkeypatch):
    spec = P3 if backend == "padic" else PQ
    t, one, zero = Poly.coordinate(spec), Poly.constant(spec, spec.one()), Poly(spec, ())
    c = Poly.constant(spec, spec.scalar(2) if backend == "padic" else PQ.from_terms([(1, 1), (0, 2)]))
    h = t * t + c
    maps = {
        "a constant coordinate": [one, t * t + c],
        "coprime": [t + one, t + c],
        "a common factor": [(t + one) * h, (t + c) * h],
        "Laurent content, a zero and a common factor": [(t + one) * h, zero, (t * t + one) * h.shift_exp(-1)],
        "a single nonzero coordinate": [zero, h.shift_exp(2)],
    }
    if backend == "puiseux-q":  # coprime, but the certificate is inconclusive
        w = (PQ.scalar(2) - PQ.from_terms([(1, 1)])).inv()
        maps["uncertified"] = [t + Poly.constant(spec, w), t.scale(w) + one]
    counts: dict[str, int] = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_clear", "_uncleared"):
        wrapper = counted(name, getattr(points, name))
        for module in (points, fsderiv):
            monkeypatch.setattr(module, name, wrapper)
    for name in POLY_WORK:
        monkeypatch.setattr(Poly, name, counted(f"Poly.{name}", getattr(Poly, name)))
    for shape, coords in maps.items():
        counts.clear()
        series_map(coords)
        assert counts == {"_clear": 1}, shape
