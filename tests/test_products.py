"""Polynomial products on cleared int term maps against the Scalar oracles:
Poly operators, Wronskian minors, proportionality and the map substitution."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkline import (
    ABS_ONE,
    UNIT_DISK,
    AbsValue,
    DiskPoint,
    FieldSpec,
    Poly,
    SeriesMap,
    compose,
    fs_derivative,
    identity_map,
    pgl_apply,
    rescale_map,
    series_map,
    taylor_shift,
)
from berkline import fsderiv, points
from berkline.errors import DomainViolation, PoleAtPoint
from berkline.field import PadicScalar, PuiseuxScalar, _reduced, _terms_mul
from berkline.fsderiv import _at_infinity, wronskian_minors
from berkline.points import _cleared, _num_den, divide_linear, poly_gcd, short_centre

from conftest import (
    at_infinity_per_call,
    binomial_shift_oracle,
    combine_per_call,
    compose_per_call,
    fs_derivative_all_minors,
    fs_derivative_oracle,
    pgl_apply_oracle,
    pgl_apply_per_call,
    poly_add_oracle,
    poly_derivative_oracle,
    poly_mul_oracle,
    poly_scale_oracle,
    poly_sub_oracle,
    proportional_oracle,
    random_pgl_word,
    random_poly,
    random_poly_map,
    random_nonzero_scalar,
    random_radius,
    random_scalar,
    random_unit_disk_point,
    rescale_per_call,
    rng_for,
    substitute_oracle,
    wronskian_oracle,
)

P3 = FieldSpec("padic", 3)
PQ = FieldSpec("puiseux-q")

# exponent denominators up to 3 and rational functions of two binomials, the
# caps of the shift strategies in test_points.py
padic_scalars = st.fractions(-40, 40, max_denominator=30).map(P3.scalar)
puiseux_terms = st.tuples(st.fractions(-2, 3, max_denominator=3), st.fractions(-6, 6, max_denominator=3))
puiseux_polynomials = st.lists(puiseux_terms, max_size=3).map(PQ.from_terms)
binomials = st.lists(puiseux_terms, max_size=2).map(PQ.from_terms)
puiseux_rational_functions = st.tuples(binomials, binomials.filter(lambda d: not d.is_zero)).map(
    lambda nd: nd[0] / nd[1]
)
SCALARS = {
    "padic": padic_scalars,
    "puiseux-polynomial": puiseux_polynomials,
    "puiseux-rational": st.one_of(puiseux_polynomials, puiseux_rational_functions),
}
SPECS = {"padic": P3, "puiseux-polynomial": PQ, "puiseux-rational": PQ}
PRODUCT_SETTINGS = settings(max_examples=60, deadline=None)


def laurent(kind: str, low: int = -2, high: int = 3, max_terms: int = 3):
    spec = SPECS[kind]
    return st.dictionaries(st.integers(low, high), SCALARS[kind], max_size=max_terms).map(
        lambda d: Poly.from_dict(spec, d)
    )


def conjugate(p: Poly) -> Poly:
    """p(-T): the product p(T) p(-T) loses every odd power of T."""
    return Poly(p.spec, tuple([(n, -c if n % 2 else c) for n, c in p.terms]))


@st.composite
def operand_pairs(draw, kind: str):
    """Two Laurent polynomials; the second is often p itself, p(-T) or a
    multiple of p, so that sums, differences and products cancel."""
    a = draw(laurent(kind))
    how = draw(st.sampled_from(["random", "same", "conjugate", "multiple"]))
    if how == "same":
        return a, a
    if how == "conjugate":
        return a, conjugate(a)
    if how == "multiple":
        return a, poly_scale_oracle(a, draw(SCALARS[kind]))
    return a, draw(laurent(kind))


@pytest.mark.parametrize("kind", sorted(SCALARS))
@PRODUCT_SETTINGS
@given(data=st.data())
def test_poly_operators_equal_the_scalar_oracles(kind, data):
    a, b = data.draw(operand_pairs(kind))
    c = data.draw(SCALARS[kind])
    assert a * b == poly_mul_oracle(a, b)
    assert a * conjugate(a) == poly_mul_oracle(a, conjugate(a))
    assert a + b == poly_add_oracle(a, b)
    assert a - b == poly_sub_oracle(a, b)
    assert a.derivative() == poly_derivative_oracle(a)
    assert a.scale(c) == poly_scale_oracle(a, c)
    assert (a - a).is_zero and (a * b - b * a).is_zero


@st.composite
def maps(draw, kind: str, max_coords: int = 3, low: int = -1, high: int = 3):
    """SeriesMaps built directly: Laurent or constant coordinates, at least
    one nonzero, and sometimes a coordinate proportional to another (a
    vanishing Wronskian minor)."""
    spec = SPECS[kind]
    n = draw(st.integers(2, max_coords))
    coords = []
    for _ in range(n):
        shape = draw(st.sampled_from(["laurent", "constant", "proportional"]))
        if shape == "constant":
            coords.append(Poly.from_dict(spec, {0: draw(SCALARS[kind])}))
        elif shape == "proportional" and coords:
            coords.append(poly_scale_oracle(coords[-1], draw(SCALARS[kind])))
        else:
            coords.append(draw(laurent(kind, low, high)))
    if all(c.is_zero for c in coords):
        coords[0] = Poly.constant(spec, spec.one())
    return SeriesMap(tuple(coords))


def units(kind: str):
    spec = SPECS[kind]
    if kind == "padic":
        return st.sampled_from([1, 2, -1, Fraction(4, 5), 7, Fraction(-5, 7)]).map(spec.scalar)
    one_plus = st.tuples(st.sampled_from([1, 2, -1, 3, Fraction(1, 2)]), st.integers(1, 3)).map(
        lambda ck: spec.from_terms([(0, ck[0]), (ck[1], 1)])
    )
    if kind == "puiseux-polynomial":
        return one_plus
    return st.one_of(one_plus, st.tuples(one_plus, one_plus).map(lambda uv: uv[0] / uv[1]))


def words(kind: str):
    small = SCALARS[kind].filter(lambda b: b.abs() <= ABS_ONE)
    gens = st.one_of(
        units(kind).map(lambda a: ("scale", a)), small.map(lambda b: ("translate", b)), st.just(("invert",))
    )
    return st.lists(gens, min_size=1, max_size=3)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_map_transforms_equal_the_scalar_oracles(kind, data):
    f = data.draw(maps(kind))
    assert wronskian_minors(f) == wronskian_oracle(f)
    # an inner map of degree <= 2 (<= 1 with rational-function coefficients,
    # whose lazy fractions make the Scalar oracle slow)
    g = data.draw(maps(kind, max_coords=2, low=0, high=1 if kind == "puiseux-rational" else 2))
    assert compose(f, g).coords == substitute_oracle(f, g.coords[1], g.coords[0])
    word = data.draw(words(kind))
    moved = pgl_apply(word, f)
    assert moved.coords == pgl_apply_oracle(word, f)
    assert wronskian_minors(moved) == wronskian_oracle(moved)
    scale = data.draw(SCALARS[kind].filter(lambda a: not a.is_zero))
    offset = data.draw(SCALARS[kind])
    spec = f.spec
    line = Poly.from_dict(spec, {0: offset, 1: scale})
    rescaled = rescale_map(f, scale, offset, None)
    assert rescaled.coords == substitute_oracle(f, line, Poly.constant(spec, spec.one()))
    # a common multiple is the same map; another map usually is not
    multiple = SeriesMap(tuple([poly_scale_oracle(c, scale) for c in f.coords]))
    assert f.proportional_to(multiple) and proportional_oracle(f, multiple)
    other = data.draw(maps(kind, max_coords=len(f.coords)))
    assert f.proportional_to(other) == proportional_oracle(f, other)


# -- one clearing over the int lcm of the constant dens -------------------------


@pytest.mark.parametrize("spec", [P3, PQ], ids=["padic", "puiseux-q"])
def test_constant_dens_clear_over_their_int_lcm(spec):
    half, third, sixth = spec.scalar("1/2"), spec.scalar("-1/3"), spec.scalar("5/6")
    p = Poly.from_dict(spec, {0: half, 1: third, 3: sixth})
    nums, lcm = _cleared([_num_den(c) for _, c in p.terms])
    assert lcm == (1, ((0, 6),))  # 36 as the product of the distinct dens
    assert nums == [(1, ((0, 3),)), (1, ((0, -2),)), (1, ((0, 5),))]
    a = spec.scalar("2/5")
    assert taylor_shift(p, a) == binomial_shift_oracle(p, a)
    value, q = divide_linear(p, a)
    assert value == p.evaluate(a)
    t_minus_a = Poly.from_dict(spec, {0: -a, 1: spec.one()})
    assert poly_add_oracle(poly_mul_oracle(t_minus_a, q), Poly.constant(spec, value)) == p
    r = Poly.from_dict(spec, {0: spec.scalar("1/4"), 1: spec.one()})
    s = Poly.from_dict(spec, {0: spec.scalar("-1/9"), 2: spec.scalar("1/2")})
    assert p * r == poly_mul_oracle(p, r)
    g = poly_gcd(p * r, p * s)
    assert g.degree() == p.degree()
    # g is p up to a unit
    assert poly_scale_oracle(g, p.terms[-1][1] / g.terms[-1][1]) == p


def test_a_nonconstant_den_keeps_the_product():
    den = PQ.from_terms([(0, 1), (1, 2)])
    coeffs = [PQ.scalar("1/2"), PQ.scalar("1/3"), PQ.one() / den]
    nums, lcm = _cleared([_num_den(c) for c in coeffs])
    assert lcm == _terms_mul((1, ((0, 6),)), den.num_terms)
    for num, c in zip(nums, coeffs):
        assert PuiseuxScalar(PQ, num, lcm) == c
    p = Poly.from_coeffs(PQ, coeffs)
    a = PQ.from_terms([(0, 1), ("1/2", 1)])
    assert taylor_shift(p, a) == binomial_shift_oracle(p, a)
    assert p * p == poly_mul_oracle(p, p)


# -- a work gate: no Scalar arithmetic inside the products ----------------------


def test_map_transforms_do_no_scalar_arithmetic(monkeypatch):
    # counts Scalar products and sums, not time, so a loaded host cannot move it
    calls = {"count": 0, "on": False}
    for cls in (PuiseuxScalar, PadicScalar):
        for name in ("__mul__", "__add__"):
            original = getattr(cls, name)

            def counting(self, other, original=original):
                if calls["on"]:
                    calls["count"] += 1
                return original(self, other)

            monkeypatch.setattr(cls, name, counting)
    for spec in (P3, PQ):
        rng = rng_for(f"product-work-gate-{spec.backend}")
        for _ in range(200):
            f = random_poly_map(rng, spec, 4)
            g = random_poly_map(rng, spec, 3)
            word = random_pgl_word(rng, spec)
            wide = SeriesMap((f.coords[0], f.coords[1], random_poly(rng, spec, 3)))
            calls["on"] = True
            moved = pgl_apply(word, f)
            composed = compose(f, g)
            for h in (f, moved, composed, wide):
                wronskian_minors(h)
            moved.proportional_to(f)
            wide.proportional_to(wide)
            calls["on"] = False
    assert calls["count"] == 0, calls["count"]


# -- one layout: maps hold their coordinates cleared over one denominator -------


@st.composite
def chart_maps(draw, kind: str):
    """Coordinates [c : P_1 (: P_2)] with c a nonzero constant and plain P_i:
    series_map keeps them as they are (no monomial content, no common
    factor), and every identity transform below gives them back exactly."""
    spec = SPECS[kind]
    c = draw(SCALARS[kind].filter(lambda a: not a.is_zero))
    return (Poly.constant(spec, c), *draw(st.lists(laurent(kind, 0, 3), min_size=1, max_size=2)))


def identity_words(kind: str):
    """Words whose Moebius map is the identity, over different matrices."""
    spec = SPECS[kind]
    small = SCALARS[kind].filter(lambda b: b.abs() <= ABS_ONE)
    return st.one_of(
        st.just([("scale", spec.one())]),
        st.just([("invert",), ("invert",)]),
        units(kind).map(lambda u: [("scale", u), ("scale", u.inv())]),
        small.map(lambda b: [("translate", b), ("translate", -b)]),
    )


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_maps_built_along_different_paths_are_equal_and_hash_equal(kind, data):
    coords = data.draw(chart_maps(kind))
    spec = coords[0].spec
    one, t = Poly.constant(spec, spec.one()), Poly.coordinate(spec)
    direct = SeriesMap(coords)
    word = data.draw(identity_words(kind))
    paths = {
        "series_map": series_map(coords),
        "direct": direct,
        "pgl_apply": pgl_apply(word, direct),
        "compose": compose(direct, identity_map(spec)),
        "flip twice": _at_infinity(_at_infinity(direct)),
    }
    for name, f in paths.items():
        assert f == direct, name
        assert hash(f) == hash(direct), name
        assert f.coords == coords, name
        assert f.spec == spec and f.target_dim == len(coords) - 1 and f.domain is None, name
    assert paths["pgl_apply"].coords == pgl_apply_oracle(word, direct)
    assert paths["compose"].coords == substitute_oracle(direct, t, one)
    # the view is read-only and built once
    with pytest.raises(AttributeError):
        direct.coords = ()  # type: ignore[misc]
    assert direct.coords is direct.coords
    # another domain is another map
    assert SeriesMap(coords, UNIT_DISK) != direct


def test_derivatives_of_transformed_maps_clear_nothing_and_transforms_build_no_scalar(monkeypatch):
    # a work gate: it counts calls and Scalar constructions, not time, so a
    # loaded host cannot move it.  A map from pgl_apply, compose or
    # rescale_map holds its cleared lists, so fs_derivative reads no
    # coefficient through _num_den (its one _num_den call is the point's own
    # short centre, in _Point) and clears nothing; the transforms themselves
    # build no Scalar
    calls = {"num_den": 0, "clear": 0, "cleared": 0, "scalars": 0, "on": False}

    def counting(name, original):
        def wrapper(*args):
            if calls["on"]:
                calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(points, "_num_den", counting("num_den", points._num_den))
    clear = counting("clear", points._clear)
    for module in (points, fsderiv):
        monkeypatch.setattr(module, "_clear", clear)
    monkeypatch.setattr(fsderiv, "_cleared", counting("cleared", points._cleared))
    for cls in (PuiseuxScalar, PadicScalar):

        def constructing(self, *args, init=cls.__init__):
            if calls["on"]:
                calls["scalars"] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", constructing)
    for spec in (P3, PQ):
        rng = rng_for(f"cleared-map-work-gate-{spec.backend}")
        for _ in range(150):
            f = random_poly_map(rng, spec, 4)
            g = random_poly_map(rng, spec, 3)
            word = random_pgl_word(rng, spec)
            z = random_unit_disk_point(rng, spec)
            on_disk, unit_identity = series_map(f.coords, UNIT_DISK), identity_map(spec, UNIT_DISK)
            scale, offset = random_nonzero_scalar(rng, spec), random_scalar(rng, spec)
            calls["on"] = True
            moved = pgl_apply(word, f)
            composed = compose(f, g)
            inside = compose(on_disk, unit_identity)
            assert calls["scalars"] == 0 and calls["clear"] == 0 and calls["num_den"] == 0, calls
            # rescale_map clears its own two parameters once, not the map
            rescaled = rescale_map(f, scale, offset, None)
            calls["on"] = False
            assert calls["scalars"] == 0 and calls["clear"] == 0 and calls["cleared"] == 1, calls
            calls["cleared"] = calls["num_den"] = 0
            centre_reads = 0 if short_centre(z).is_zero else 1
            for h in (moved, composed, inside, rescaled):
                calls["on"] = True
                fs_derivative(h, z)
                calls["on"] = False
                assert calls["clear"] == 0 and calls["num_den"] == centre_reads, calls
                calls["num_den"] = calls["scalars"] = 0


# -- Wronskian minors: one product pass per minor ------------------------------


def derivative_work(h: SeriesMap) -> dict[str, int]:
    """The calls a derivative of h may make: one _wronskian per pair of
    nonconstant coordinates, and one _derived per nonconstant coordinate
    that meets a constant one [(0, c)]."""
    constant = [len(c) == 1 and not c[0][0] for c in h.cleared]
    others = constant.count(False)
    return {"wronskian": others * (others - 1) // 2, "combine": 0, "derived": others if any(constant) else 0}


def test_a_derivative_takes_one_product_pass_per_minor_and_no_transform_builds_one(monkeypatch):
    # a work gate: it counts calls, not time, so a loaded host cannot move it.
    # Making or transforming a map builds no minors.  A derivative builds the
    # minor C_i' C_j - C_j' C_i of two nonconstant coordinates in one pass of
    # points._wronskian, with no two-product _combine; a minor with a
    # constant coordinate c is -c C_j', so it takes no product, only the one
    # derivative of C_j, shared by every constant that meets it
    calls = {"wronskian": 0, "combine": 0, "derived": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(fsderiv, "_wronskian", counting("wronskian", fsderiv._wronskian))
    monkeypatch.setattr(fsderiv, "_combine", counting("combine", fsderiv._combine))
    monkeypatch.setattr(fsderiv, "_derived", counting("derived", fsderiv._derived))
    monkeypatch.setattr(points, "_derived", counting("derived", points._derived))
    for spec in (P3, PQ):
        rng = rng_for(f"minors-gate-{spec.backend}")
        one, c = Poly.constant(spec, spec.one()), Poly.constant(spec, random_nonzero_scalar(rng, spec))
        for _ in range(40):
            f = random_poly_map(rng, spec, 4)
            g = random_poly_map(rng, spec, 3)
            p, q = f.coords[1], g.coords[1]
            made = {
                "series_map": f,
                "SeriesMap": SeriesMap(f.coords),
                "pgl_apply": pgl_apply(random_pgl_word(rng, spec), f),
                "compose": compose(f, g),
                "rescale_map": rescale_map(f, random_nonzero_scalar(rng, spec), random_scalar(rng, spec), None),
                "_at_infinity": _at_infinity(f),
                "[c : 1 : P]": SeriesMap([c, one, p]),
                "[P : c : Q]": SeriesMap([p, c, q]),
                "[P : Q : c]": SeriesMap([p, q, c]),
                "[P : Q : PQ]": SeriesMap([p, q, p * q]),
            }
            assert calls["wronskian"] == calls["derived"] == 0, calls
            z = DiskPoint(random_scalar(rng, spec, True), random_radius(rng, False))
            for name, h in made.items():
                calls["combine"] = 0
                fs_derivative(h, z)
                assert calls == derivative_work(h), (name, calls)
                if name in ("series_map", "SeriesMap", "compose", "rescale_map"):
                    # [c : P]: one derivative, no product
                    assert calls == {"wronskian": 0, "combine": 0, "derived": 1}, (name, calls)
                calls.update(wronskian=0, derived=0)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@PRODUCT_SETTINGS
@given(data=st.data())
def test_one_pass_minors_equal_the_two_products_of_a_derivative(kind, data):
    # the same cleared list, term map for term map: pairs with n = m drop out,
    # and same, conjugate and proportional operands cancel terms or vanish
    a, b = data.draw(operand_pairs(kind))
    _, (x, y) = points._clear([a, b])
    expected = points._combine([(1, points._derived(x), y), (-1, points._derived(y), x)])
    assert points._wronskian(x, y) == expected
    assert points._wronskian(y, x) == points._combine([(1, points._derived(y), x), (-1, points._derived(x), y)])
    assert points._wronskian(x, x) == []


def points_of(kind: str):
    """Balls and rigid points; a rigid point may be a common zero of the
    coordinates, or the pole of a Laurent coordinate."""
    radii = st.one_of(st.just(AbsValue.zero()), st.fractions(-3, 1, max_denominator=3).map(AbsValue.of))
    return st.builds(DiskPoint, SCALARS[kind], radii)


def outcome(derivative, f: SeriesMap, z: DiskPoint):
    """The derivative's value, or the class of the error it raises."""
    try:
        return derivative(f, z)
    except (DomainViolation, PoleAtPoint) as error:
        return type(error)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_pass_minors_give_the_oracle_minors_and_derivatives(kind, data):
    f = data.draw(maps(kind, high=2))
    assert wronskian_minors(f) == wronskian_oracle(f)
    for z in data.draw(st.lists(points_of(kind), min_size=1, max_size=3)):
        assert outcome(fs_derivative, f, z) == outcome(fs_derivative_oracle, f, z)


# -- constant coordinates: |W_ij| = |c| |C_j'| --------------------------------

# constants of magnitude other than 1 as well as any nonzero scalar: a padic
# c divisible by 3 and the puiseux-q c = 2 t^(1/3)
CONSTANTS = {
    "padic": st.one_of(padic_scalars, st.integers(1, 30).map(lambda k: P3.scalar(3 * k))),
    "puiseux-polynomial": st.one_of(puiseux_polynomials, st.just(PQ.t_power(Fraction(1, 3), 2))),
    "puiseux-rational": st.one_of(SCALARS["puiseux-rational"], st.just(PQ.t_power(Fraction(1, 3), 2))),
}
# a scalar of magnitude below 1, to move a centre within the leading part of a root
SMALL = {"padic": P3.scalar(27), "puiseux-polynomial": PQ.t_power(2), "puiseux-rational": PQ.t_power(2)}


@st.composite
def constant_coordinate_maps(draw, kind: str):
    """(f, root): a map of 2 or 3 coordinates with one or two constant ones
    at any index; each other coordinate is (T - root) Q, Q Laurent, so that
    the root and the points near it make the certificate's sigma vanish."""
    spec = SPECS[kind]
    n = draw(st.integers(2, 3))
    constant = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    root = draw(SCALARS[kind])
    linear = Poly.from_dict(spec, {0: -root, 1: spec.one()})
    coords = []
    for is_constant in constant:
        if is_constant:
            c = draw(CONSTANTS[kind].filter(lambda c: not c.is_zero))
            coords.append(Poly.constant(spec, c))
        else:
            q = draw(laurent(kind, low=-1, high=2).filter(lambda q: not q.is_zero))
            coords.append(poly_mul_oracle(linear, q))
    return SeriesMap(coords), root


def points_around(kind: str, root):
    """Rigid 0, the root and a near-root (sigma = 0 at a rigid point), balls
    whose short centre is 0, and balls around the root and elsewhere."""
    spec, small = SPECS[kind], SMALL[kind]
    radii = st.fractions(-3, 1, max_denominator=3).map(AbsValue.of)
    return st.one_of(
        st.just(DiskPoint(spec.zero(), AbsValue.zero())),
        st.just(DiskPoint(root, AbsValue.zero())),
        SCALARS[kind].map(lambda e: DiskPoint(root + small * e, AbsValue.zero())),
        SCALARS[kind].map(lambda e: DiskPoint(small * e, ABS_ONE)),
        radii.map(lambda r: DiskPoint(root, r)),
        st.builds(DiskPoint, SCALARS[kind], radii),
    )


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constant_coordinates_give_the_all_minors_derivative(kind, data):
    f, root = data.draw(constant_coordinate_maps(kind))
    for z in data.draw(st.lists(points_around(kind, root), min_size=1, max_size=4)):
        assert outcome(fs_derivative, f, z) == outcome(fs_derivative_all_minors, f, z)


# -- one accumulation per substitution ----------------------------------------


def cleared_lists(kind: str, low: int = -2, high: int = 8):
    """Cleared lists [(n, num), ...] drawn as they are: a padic num is a
    nonzero int constant; a Puiseux num has its own exponent denominator
    (1, 2, 3, 4 or 6), so the operands of one product mix them."""
    if kind == "padic":
        num = st.integers(-30, 30).filter(bool).map(lambda c: (1, ((0, c),)))
    else:
        terms = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9).filter(bool), min_size=1, max_size=3)
        num = st.tuples(st.sampled_from([1, 2, 3, 4, 6]), terms).map(
            lambda dt: _reduced(dt[0], tuple(sorted(dt[1].items())))
        )
    return st.dictionaries(st.integers(low, high), num, max_size=4).map(lambda d: sorted(d.items()))


@st.composite
def signed_products(draw, kind: str):
    """(sign, a, b) triples; some cancel a row to nothing (a single term
    times b, less the same term times b's first term) or the whole sum
    (a b - b a)."""
    a, b, c = draw(cleared_lists(kind)), draw(cleared_lists(kind)), draw(cleared_lists(kind))
    sign = st.sampled_from([1, -1])
    how = draw(st.sampled_from(["random", "zero", "row"]))
    if how == "zero":
        return [(1, a, b), (-1, b, a)] + [(s, c, c) for s in (1, -1)]
    if how == "row" and a and b:
        return [(1, a[:1], b), (-1, a[:1], b[:1]), (draw(sign), c, b)]
    return [(draw(sign), a, b), (draw(sign), c, a), (draw(sign), b, b)]


@pytest.mark.parametrize("kind", sorted(SCALARS))
@PRODUCT_SETTINGS
@given(data=st.data())
def test_combine_equals_the_product_per_call(kind, data):
    products = data.draw(signed_products(kind))
    assert points._combine(products) == combine_per_call(products)
    assert points._combine(products[:1]) == combine_per_call(products[:1])


@st.composite
def substitution_maps(draw, kind: str):
    """SeriesMaps built directly: Laurent coordinates (a shift > 0), all
    constant ones (d = 0), a zero coordinate, and sparse coordinates of
    degree up to 8 with gaps."""
    spec = SPECS[kind]
    n = draw(st.integers(2, 3))
    shapes = ["constant"] * n if draw(st.booleans()) else None
    coords = []
    for i in range(n):
        shape = shapes[i] if shapes else draw(st.sampled_from(["laurent", "constant", "zero", "sparse"]))
        if shape == "constant":
            coords.append(Poly.from_dict(spec, {0: draw(SCALARS[kind].filter(lambda a: not a.is_zero))}))
        elif shape == "zero":
            coords.append(Poly(spec, ()))
        elif shape == "sparse":
            coords.append(draw(laurent(kind, 0, 8, max_terms=3)))
        else:
            coords.append(draw(laurent(kind, -3, 4)))
    if all(c.is_zero for c in coords):
        coords[0] = Poly.constant(spec, spec.one())
    return SeriesMap(tuple(coords))


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitutions_equal_the_substitution_per_call(kind, data):
    # the same cleared lists, term map for term map, and the same den
    f = data.draw(substitution_maps(kind))
    g = data.draw(maps(kind, max_coords=2, low=-1, high=2))
    word = data.draw(words(kind))
    scale = data.draw(SCALARS[kind].filter(lambda a: not a.is_zero))
    offset = data.draw(SCALARS[kind])
    pairs = {
        "pgl_apply": (pgl_apply(word, f), pgl_apply_per_call(word, f)),
        "compose": (compose(f, g), compose_per_call(f, g)),
        "rescale_map": (rescale_map(f, scale, offset, None), rescale_per_call(f, scale, offset, None)),
        "_at_infinity": (_at_infinity(f), at_infinity_per_call(f)),
    }
    for name, (new, old) in pairs.items():
        assert new.cleared == old.cleared and new.den == old.den, name


def test_a_substitution_collects_each_output_coordinate_once(monkeypatch):
    # a work gate: it counts calls, not time, so a loaded host cannot move it.
    # A substitution keeps its powers and basis products as raw rows and
    # turns accumulated ints into term maps (points._collected) once per
    # output coordinate; the chart at infinity reverses the cleared lists
    # and collects nothing
    calls = {"collected": 0}

    def counting(*args):
        calls["collected"] += 1
        return collected(*args)

    collected = points._collected
    monkeypatch.setattr(points, "_collected", counting)
    monkeypatch.setattr(fsderiv, "_collected", counting, raising=False)
    for spec in (P3, PQ):
        rng = rng_for(f"collection-gate-{spec.backend}")
        for _ in range(40):
            f = random_poly_map(rng, spec, 4)
            wide = SeriesMap((random_poly(rng, spec, 4), random_poly(rng, spec, 4), Poly(spec, ())))
            g = random_poly_map(rng, spec, 3)
            word = random_pgl_word(rng, spec)
            scale, offset = random_nonzero_scalar(rng, spec), random_scalar(rng, spec)
            for h in (f, wide):
                for name, transform in (
                    ("pgl_apply", lambda: pgl_apply(word, h)),
                    ("compose", lambda: compose(h, g)),
                    ("rescale_map", lambda: rescale_map(h, scale, offset, None)),
                    ("_at_infinity", lambda: _at_infinity(h)),
                ):
                    calls["collected"] = 0
                    transform()
                    expected = 0 if name == "_at_infinity" else len(h.cleared)
                    assert calls["collected"] == expected, (name, calls)
