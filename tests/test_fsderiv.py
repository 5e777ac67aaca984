"""Derivative magnitudes: definition, chain rule, unit Moebius invariance,
disk images and the diameter-transport identity with its residue-p failure."""

from __future__ import annotations

from fractions import Fraction

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
    SeriesMap,
    UNIT_DISK,
    apply_map,
    compose,
    diam_proj,
    diam_proj_point,
    eval_seminorm,
    fs_derivative,
    fs_derivative_proj,
    gauss_point,
    identity_map,
    image_disk_radius,
    pgl_apply,
    pgl_point,
    rescale_map,
    rigid,
    series_map,
)
from berkline.errors import (
    BackendMismatch,
    BerklineError,
    DomainViolation,
    InvalidGenerator,
    PoleHit,
    PreconditionViolation,
    ZeroTuple,
)
from berkline import field, fsderiv, points
from berkline.field import PadicScalar, PuiseuxScalar, abs_max, unit_max
from berkline.fsderiv import _at_infinity

from conftest import (
    count_deflation_passes,
    eager_pgl_point,
    random_pgl_word,
    random_poly,
    random_poly_map,
    random_radius,
    random_scalar,
    random_unit_disk_point,
    rng_for,
    sub_linear,
)


def charp_family(spec: FieldSpec, n: int):
    """[1 : c T^{p^n}] with |c| = (p^n)^{p^n}."""
    p = spec.p
    pn = p**n
    c = spec.scalar(Fraction(1, p ** (n * pn)))
    return series_map([Poly.constant(spec, spec.one()), Poly.from_dict(spec, {pn: c})])


# ---------------------------------------------------------------------------
# the definition


def test_identity_map_has_unit_derivative(p3):
    f = identity_map(p3)
    for logr in (0, -1, Fraction(-1, 2), 2):
        assert fs_derivative(f, DiskPoint(p3.zero(), AbsValue.of(logr))) == ABS_ONE
    assert fs_derivative(f, rigid(p3.scalar(7))) == ABS_ONE


def test_squaring_map_derivative_in_residue_char_zero(pq):
    f = series_map([Poly.constant(pq, pq.one()), Poly.from_dict(pq, {2: pq.one()})])
    for logr in (0, -1, Fraction(-5, 3)):
        r = AbsValue.of(logr)
        assert fs_derivative(f, DiskPoint(pq.zero(), r)) == r  # |2| = 1 here


def test_charp_closed_form(p3):
    n = 2
    f = charp_family(p3, n)
    pn = 3**n
    c_abs = AbsValue.of(n * pn)
    for eps_log in (Fraction(-3), Fraction(-5, 2), Fraction(-1), Fraction(0)):
        z = DiskPoint(p3.zero(), AbsValue.of(eps_log))
        expected = (
            c_abs
            * z.radius ** (pn - 1)
            / (AbsValue.of(n) * unit_max(c_abs * z.radius**pn) ** 2)
        )
        assert fs_derivative(f, z) == expected


def test_derivative_zero_only_for_constants(p3):
    const = series_map([Poly.constant(p3, p3.one()), Poly.constant(p3, p3.scalar(5))])
    assert fs_derivative(const, rigid(p3.one())) == ABS_ZERO


def test_a_map_cannot_be_changed_through_its_cleared_lists(p3):
    t = Poly.coordinate(p3)
    f = series_map([Poly.constant(p3, p3.one()), t * t])
    before = fs_derivative(f, gauss_point(p3))
    f.coords  # the cached Poly view, which == and hash read
    with pytest.raises(AttributeError):
        f.cleared[1].clear()
    assert f == SeriesMap(f.coords)
    assert fs_derivative(f, gauss_point(p3)) == before == ABS_ONE


def test_bound_by_coordinate_derivatives(pq):
    rng = rng_for("fs-bound")
    for _ in range(60):
        coords = [Poly.constant(pq, pq.one())] + [random_poly(rng, pq, 4) for _ in range(2)]
        f = series_map(coords)
        z = random_unit_disk_point(rng, pq)
        num = abs_max(eval_seminorm(c.derivative(), z) for c in f.coords)
        den = abs_max(eval_seminorm(c, z) for c in f.coords)
        assert fs_derivative(f, z) <= num / den


def test_domain_annotation_enforced(p3):
    f = identity_map(p3, UNIT_DISK)
    with pytest.raises(DomainViolation):
        fs_derivative(f, DiskPoint(p3.zero(), AbsValue.of(1)))
    ann = identity_map(p3, Domain.annulus(AbsValue.of(-2), ABS_ONE))
    assert fs_derivative(ann, DiskPoint(p3.zero(), AbsValue.of(-1))) == ABS_ONE
    with pytest.raises(DomainViolation):
        fs_derivative(ann, rigid(p3.zero()))


# ---------------------------------------------------------------------------
# reduction


def test_series_map_removes_monomial_content(p3):
    t = Poly.coordinate(p3)
    f = series_map([t, t * t])
    assert f.proportional_to(identity_map(p3))
    assert f.coords[0].is_constant


@pytest.mark.parametrize("spec_name", ["p3", "pq"])
def test_series_map_removes_common_factor(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    t = Poly.coordinate(spec)
    one = Poly.constant(spec, spec.one())
    a = Poly.constant(spec, spec.one() if spec.backend == "padic" else spec.t_power("1/2", 2))
    sq_minus = t * t - a * a  # (T-a)(T+a)
    lin = t - a
    f = series_map([sq_minus, lin])
    assert f.coords[1].is_constant  # T - a cancelled
    assert f.proportional_to(series_map([t + a, one]))
    with pytest.raises(ZeroTuple):
        series_map([Poly(spec, ()), Poly(spec, ())])


@pytest.mark.parametrize("count", [0, 1])
def test_series_map_constructor_needs_two_coordinates(p3, count):
    with pytest.raises(ZeroTuple):
        SeriesMap([Poly.coordinate(p3)] * count)


def test_series_map_constructor_rejects_mixed_field_specs(p3, pq):
    with pytest.raises(BackendMismatch):
        SeriesMap([Poly.constant(p3, p3.one()), Poly.coordinate(pq)])


def test_series_map_constructor_rejects_an_all_zero_map(p3):
    # such a map ended every substitution in a bare ValueError
    with pytest.raises(ZeroTuple):
        SeriesMap([Poly(p3, ()), Poly(p3, ())])


# ---------------------------------------------------------------------------
# composition and the chain rule


def test_compose_with_identity(pq):
    rng = rng_for("compose-id")
    for _ in range(10):
        g = random_poly_map(rng, pq, 3)
        assert compose(identity_map(pq), g).proportional_to(g)


def test_compose_monomials(pq):
    sq = series_map([Poly.constant(pq, pq.one()), Poly.from_dict(pq, {2: pq.one()})])
    cube = series_map([Poly.constant(pq, pq.one()), Poly.from_dict(pq, {3: pq.one()})])
    expected = series_map([Poly.constant(pq, pq.one()), Poly.from_dict(pq, {6: pq.one()})])
    assert compose(sq, cube).proportional_to(expected)


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_chain_rule_exact(backend):
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    rng = rng_for(f"chain-{backend}")
    for _ in range(50):
        f = random_poly_map(rng, spec, 2)
        g = random_poly_map(rng, spec, 3)
        fg = compose(f, g)
        z = random_unit_disk_point(rng, spec)
        gz = apply_map(g, z)[0]
        assert fs_derivative(fg, z) == fs_derivative(f, gz) * fs_derivative(g, z)


def test_compose_domain_check(p3):
    inner = series_map(
        [Poly.constant(p3, p3.one()), Poly.from_dict(p3, {1: p3.scalar(9)})], UNIT_DISK
    )
    outer_small = identity_map(p3, Domain.disk(AbsValue.of(-3)))
    with pytest.raises(DomainViolation):
        compose(outer_small, inner)
    outer_ok = identity_map(p3, Domain.disk(AbsValue.of(-2)))
    assert compose(outer_ok, inner).proportional_to(inner)


def test_compose_over_an_inner_disk_of_radius_zero(p3):
    # the image of the rigid point 0 under T + 3 is 3, inside the unit disk;
    # the domain check read the constant term's radius power 0^0 and raised
    # DivisionByZero
    one = Poly.constant(p3, p3.one())
    inner = SeriesMap((one, Poly.from_dict(p3, {0: p3.scalar(3), 1: p3.one()})), Domain.disk(ABS_ZERO))
    assert compose(identity_map(p3, UNIT_DISK), inner).proportional_to(inner)
    with pytest.raises(DomainViolation):
        compose(identity_map(p3, Domain.disk(AbsValue.of(-2))), inner)


def test_compose_pole_detection(p3):
    t = Poly.coordinate(p3)
    g = series_map([t - Poly.constant(p3, p3.scalar(Fraction(1, 3))), t], UNIT_DISK)
    # denominator T - 1/3 has a zero of magnitude 3 > 1: fine on the unit disk
    assert compose(identity_map(p3, UNIT_DISK), g) is not None
    bad = series_map([t - Poly.constant(p3, p3.scalar(3)), t], UNIT_DISK)
    with pytest.raises(PoleHit):
        compose(identity_map(p3, UNIT_DISK), bad)


def test_compose_reads_a_laurent_chart_denominator(pq):
    # g = [1 + T^-1 : 1] is [T + 1 : T], whose image T/(1 + T) of the disk
    # |T| <= beta^-1 has magnitude at most beta^-1 and meets the puncture 0
    # of f's annulus; the chart denominator has magnitude beta there, not 1
    one = pq.one()
    f = SeriesMap((Poly.constant(pq, one), Poly.coordinate(pq)), Domain.annulus(AbsValue.of(Fraction(-1, 2)), ABS_ONE))
    g = SeriesMap((Poly.from_dict(pq, {-1: one, 0: one}), Poly.constant(pq, one)), Domain.disk(AbsValue.of(-1)))
    with pytest.raises(PoleHit):
        compose(f, g)


# ---------------------------------------------------------------------------
# unit Moebius words


def test_pgl_translate_example(p3):
    b = p3.scalar(Fraction(1, 2))
    f = pgl_apply([("translate", b)], identity_map(p3))
    expected = series_map([Poly.constant(p3, p3.one()), Poly.from_coeffs(p3, [b, p3.one()])])
    assert f.proportional_to(expected)


def test_pgl_generator_validation(p3):
    with pytest.raises(InvalidGenerator):
        pgl_apply([("scale", p3.scalar(3))], identity_map(p3))
    with pytest.raises(InvalidGenerator):
        pgl_apply([("translate", p3.scalar(Fraction(1, 3)))], identity_map(p3))
    with pytest.raises(InvalidGenerator):
        pgl_apply([("spin",)], identity_map(p3))


def test_malformed_generators_raise_invalid_generator(p3, pq):
    # a wrong arity ended in a bare IndexError, and a parameter that is not a
    # Scalar in an AttributeError from its abs()
    f, x = identity_map(p3), rigid(p3.one())
    malformed = [("scale",), ("translate",), ("scale", 2), ("translate", Fraction(1, 2)), ("invert", p3.one())]
    for gen in malformed + [("scale", p3.one(), p3.one()), (), "invert", 5]:
        with pytest.raises(InvalidGenerator):
            pgl_apply([gen], f)
        with pytest.raises(InvalidGenerator):
            pgl_point([gen], x)
    # a Scalar over another field keeps raising BackendMismatch
    with pytest.raises(BackendMismatch):
        pgl_apply([("scale", pq.one())], f)
    with pytest.raises(BackendMismatch):
        pgl_point([("translate", pq.one())], x)


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_pgl_derivative_invariance(backend):
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    rng = rng_for(f"pgl-fs-{backend}")
    for _ in range(60):
        f = random_poly_map(rng, spec, 3)
        word = random_pgl_word(rng, spec)
        z = random_unit_disk_point(rng, spec)
        moved = pgl_point(word, z)
        assert fs_derivative(pgl_apply(word, f), z) == fs_derivative_proj(f, moved)


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_pgl_diameter_invariance(backend):
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    rng = rng_for(f"pgl-diam-{backend}")
    for _ in range(100):
        x = random_unit_disk_point(rng, spec)
        word = random_pgl_word(rng, spec)
        assert diam_proj_point(pgl_point(word, x)) == diam_proj(x)


def test_pgl_point_at_infinity(p3):
    inf = pgl_point([("invert",)], rigid(p3.zero()))
    assert inf.is_infinity
    back = pgl_point([("invert",)], inf)
    assert back.to_affine() == rigid(p3.zero())
    f = identity_map(p3)
    assert fs_derivative_proj(f, inf) == ABS_ONE


def test_pgl_point_matches_eager_inversion():
    for spec in (FieldSpec("padic", 3), FieldSpec("puiseux-q")):
        rng = rng_for(f"pgl-eager-{spec.backend}")
        inv = ("invert",)
        unit = ("scale", spec.one() if spec.backend == "padic" else spec.from_terms([(0, 2), (1, 1)]))
        words = [[inv] * k for k in range(1, 5)]
        words += [[inv, unit, inv], [inv, inv, ("translate", spec.one()), inv], [unit, inv, inv, inv]]
        words += [random_pgl_word(rng, spec) + [inv, inv] + random_pgl_word(rng, spec) for _ in range(12)]
        starts = [rigid(spec.zero()), ProjPoint.infinity(spec)]
        starts += [random_unit_disk_point(rng, spec) for _ in range(6)]
        for word in words:
            for x in starts:
                lazy, eager = pgl_point(word, x), eager_pgl_point(word, x)
                assert lazy == eager
                assert hash(lazy) == hash(eager)


# -- the substitution keeps maps reduced (hypothesis) -------------------------

P3 = FieldSpec("padic", 3)
PQ = FieldSpec("puiseux-q")
SCALARS = {
    "padic": st.fractions(-20, 20, max_denominator=10).map(P3.scalar),
    "puiseux-q": st.lists(
        st.tuples(st.fractions(-2, 3, max_denominator=3), st.fractions(-6, 6, max_denominator=3)), max_size=2
    ).map(PQ.from_terms),
}
SPECS = {"padic": P3, "puiseux-q": PQ}
TRANSFORM_SETTINGS = settings(max_examples=40, deadline=None)


def reduced_maps(backend: str, max_coords: int = 3):
    """series_map of 2..max_coords plain polynomials of degree <= 3; many
    have no constant coordinate, so a common factor could survive."""
    spec = SPECS[backend]
    coords = st.dictionaries(st.integers(0, 3), SCALARS[backend], max_size=3).map(
        lambda d: Poly.from_dict(spec, d)
    )
    return (
        st.lists(coords, min_size=2, max_size=max_coords)
        .filter(lambda cs: any(not c.is_zero for c in cs))
        .map(series_map)
    )


def unit_words(backend: str):
    spec = SPECS[backend]
    if backend == "padic":
        units = st.sampled_from([1, 2, -1, Fraction(4, 5), 7]).map(spec.scalar)
    else:
        units = st.tuples(st.sampled_from([1, 2, -1, 3]), st.integers(1, 3)).map(
            lambda ck: spec.from_terms([(0, ck[0]), (ck[1], 1)])
        )
    small = SCALARS[backend].filter(lambda b: b.abs() <= ABS_ONE)
    gens = st.one_of(
        units.map(lambda a: ("scale", a)), small.map(lambda b: ("translate", b)), st.just(("invert",))
    )
    return st.lists(gens, min_size=1, max_size=4)


def assert_reduced(h) -> None:
    assert series_map(h.coords).coords == h.coords


@pytest.mark.parametrize("backend", sorted(SPECS))
@TRANSFORM_SETTINGS
@given(data=st.data())
def test_pgl_apply_keeps_maps_reduced(backend, data):
    f = data.draw(reduced_maps(backend))
    assert_reduced(pgl_apply(data.draw(unit_words(backend)), f))


@pytest.mark.parametrize("backend", sorted(SPECS))
@TRANSFORM_SETTINGS
@given(data=st.data())
def test_compose_keeps_maps_reduced(backend, data):
    f = data.draw(reduced_maps(backend))
    g = data.draw(reduced_maps(backend, max_coords=2))
    assert_reduced(compose(f, g))


@pytest.mark.parametrize("backend", sorted(SPECS))
@TRANSFORM_SETTINGS
@given(data=st.data())
def test_rescale_map_keeps_maps_reduced_and_matches_sub_linear(backend, data):
    f = data.draw(reduced_maps(backend))
    scale = data.draw(SCALARS[backend].filter(lambda a: not a.is_zero))
    offset = data.draw(SCALARS[backend])
    h = rescale_map(f, scale, offset, None)
    assert h.coords == tuple(sub_linear(c, scale, offset) for c in f.coords)
    assert_reduced(h)


def test_rescale_map_rejects_scalars_over_another_field(p3, pq):
    # [1 : T^2 + 1] over padic 3 with the puiseux-q offset t^(1/2) would
    # otherwise clear Puiseux term maps into a padic map, whose coordinates
    # then read them as the padic 1 + 2T + T^2
    half = pq.t_power(Fraction(1, 2))
    padic_map = series_map([Poly.constant(p3, p3.one()), Poly.from_dict(p3, {0: p3.one(), 2: p3.one()})])
    puiseux_map = series_map([Poly.constant(pq, pq.one()), Poly.from_dict(pq, {0: pq.one(), 2: half})])
    for f, ours, theirs in ((padic_map, p3.scalar(2), half), (puiseux_map, half, p3.scalar(2))):
        with pytest.raises(BackendMismatch):
            rescale_map(f, ours, theirs, None)
        with pytest.raises(BackendMismatch):
            rescale_map(f, theirs, ours, None)
        assert rescale_map(f, ours, ours, None).spec == f.spec


def test_rescale_map_rejects_a_zero_scale(p3, pq):
    # a zero scale would silently give the constant map [f_0(offset) : f_1(offset)]
    for spec in (p3, pq):
        f = series_map([Poly.constant(spec, spec.one()), Poly.from_dict(spec, {1: spec.one(), 2: spec.one()})])
        with pytest.raises(PreconditionViolation) as caught:
            rescale_map(f, spec.zero(), spec.one(), None)
        assert isinstance(caught.value, BerklineError)
        with pytest.raises(PreconditionViolation):
            rescale_map(f, spec.zero(), spec.zero(), UNIT_DISK)


@pytest.mark.parametrize("backend", sorted(SPECS))
@TRANSFORM_SETTINGS
@given(data=st.data())
def test_flip_at_infinity_keeps_maps_reduced(backend, data):
    f = data.draw(reduced_maps(backend))
    flipped = _at_infinity(f)
    assert flipped.coords == pgl_apply([("invert",)], f).coords
    assert_reduced(flipped)


# ---------------------------------------------------------------------------
# disk images and diameter transport


def test_image_disk_radius_examples(p3, pq):
    assert image_disk_radius(Poly.constant(pq, pq.one()), ABS_ONE) == ABS_ZERO
    sq = Poly.from_dict(pq, {2: pq.one()})
    r = AbsValue.of(Fraction(-2, 3))
    assert image_disk_radius(sq, r) == r ** 2
    lin = Poly.from_dict(p3, {1: p3.scalar(3)})
    assert image_disk_radius(lin, ABS_ONE) == AbsValue.of(-1)


def test_diameter_transport_equality_residue_char_zero(pq):
    rng = rng_for("transport-eq")
    for _ in range(60):
        f = random_poly_map(rng, pq, 6)
        z = random_unit_disk_point(rng, pq)
        image = apply_map(f, z)
        assert diam_proj(image) == diam_proj(z) * fs_derivative(f, z)


def test_diameter_transport_inequality_higher_dimension(pq):
    rng = rng_for("transport-ineq")
    for _ in range(40):
        coords = [Poly.constant(pq, pq.one())] + [
            random_poly(rng, pq, 4, unit_ball=True) for _ in range(2)
        ]
        f = series_map(coords)
        z = random_unit_disk_point(rng, pq)
        assert diam_proj(apply_map(f, z)) <= diam_proj(z) * fs_derivative(f, z)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2)])
def test_residue_char_p_breaks_transport_by_factor_p_to_n(p, n):
    spec = FieldSpec("padic", p)
    f = charp_family(spec, n)
    pn = p**n
    for eps_log in (Fraction(-n - 1), Fraction(-2 * n - 1, 2)):
        assert eps_log < -n  # below the critical radius
        z = DiskPoint(spec.zero(), AbsValue.of(eps_log))
        lhs = diam_proj(apply_map(f, z))
        rhs = diam_proj(z) * fs_derivative(f, z)
        assert lhs == AbsValue.of(n) * rhs  # exceeds by exactly p^n
        assert lhs > rhs


@pytest.mark.parametrize("centre, logval", [(0, None), (0, -1), (3, -1), (1, -2)])
def test_a_point_over_another_field_is_a_backend_mismatch(p3, pq, centre, logval):
    # t^3 lies in the ball of radius beta^-1 around 0, so that ball's short
    # centre is 0 and no arithmetic with the centre runs: the spec check
    # decides, as it does at a nonzero centre
    a = pq.zero() if not centre else pq.t_power(centre)
    x = DiskPoint(a, ABS_ZERO if logval is None else AbsValue.of(logval))
    f = series_map([Poly.constant(p3, p3.one()), Poly.from_dict(p3, {0: p3.scalar(2), 2: p3.scalar(3)})])
    for fn, arg in ((eval_seminorm, f.coords[1]), (fs_derivative, f), (apply_map, f)):
        with pytest.raises(BackendMismatch):
            fn(arg, x)


def test_apply_map_requires_constant_denominator(p3):
    t = Poly.coordinate(p3)
    f = series_map([t, Poly.constant(p3, p3.one())])
    with pytest.raises(PoleHit):
        apply_map(f, gauss_point_of(p3))


def gauss_point_of(spec):
    from berkline import gauss_point

    return gauss_point(spec)


# ---------------------------------------------------------------------------
# density of rigid points


def test_rigid_witness_attains_type_two_derivative(p3):
    rng = rng_for("rigid-witness")
    found_all = True
    for _ in range(25):
        f = random_poly_map(rng, p3, 4)
        a = random_scalar(rng, p3, unit_ball=True)
        k = rng.randint(-4, 0)
        x = DiskPoint(a, AbsValue.of(k))  # type II over the integer value group
        target = fs_derivative(f, x)
        witness_found = False
        for c in range(1, 12):
            if c % 3 == 0:
                continue  # keep |c| = 1
            w = a + p3.scalar(c) * p3.uniformizer(k)
            if fs_derivative(f, rigid(w)) == target:
                witness_found = True
                break
        found_all = found_all and witness_found
    assert found_all


def test_sample_max_stable_under_rigid_refinement(p3):
    rng = rng_for("rigid-refine")
    for _ in range(20):
        f = random_poly_map(rng, p3, 4)
        shilov = gauss_point_of(p3)
        sample = [rigid(random_scalar(rng, p3, unit_ball=True)) for _ in range(5)]
        base_max = max(fs_derivative(f, pt) for pt in sample + [shilov])
        refined = sample + [rigid(random_scalar(rng, p3, unit_ball=True)) for _ in range(5)]
        refined_max = max(fs_derivative(f, pt) for pt in refined + [shilov])
        assert refined_max >= base_max


def test_transport_ops_shift_for_at_most_one_percent_of_seminorms_and_images(monkeypatch, pq):
    # a work gate: it counts the passes of the sigma = 0 fallback, not time,
    # so a loaded host cannot move it
    passes = count_deflation_passes(monkeypatch)
    rng = rng_for("transport-shift-gate")
    calls = 0
    for _ in range(500):
        f = random_poly_map(rng, pq, 6)
        z = random_unit_disk_point(rng, pq)
        while len(z.center.num_terms[1]) < 2:
            z = random_unit_disk_point(rng, pq)
        apply_map(f, z)
        fs_derivative(f, z)
        # a seminorm per coordinate and per Wronskian minor, an image per affine coordinate
        calls += len(f.coords) + len(f.coords) * (len(f.coords) - 1) // 2 + len(f.coords) - 1
    assert len(passes) * 100 <= calls, (len(passes), calls)


# Fraction constructions in the same ops before magnitudes were int pairs
# (AbsValue held a Fraction, and both abs() methods and initial_form built one)
_FRACTIONS_WITH_FRACTION_MAGNITUDES = 10_346


def test_transport_ops_build_at_most_a_quarter_of_the_fractions_of_fraction_magnitudes(monkeypatch, pq):
    # a work gate: it counts Fraction constructions, not time, so a loaded
    # host cannot move it
    made = {"count": 0, "on": False}
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        if made["on"]:
            made["count"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    rng = rng_for("transport-fraction-gate")
    for _ in range(500):
        f = random_poly_map(rng, pq, 6)
        z = random_unit_disk_point(rng, pq)
        while len(z.center.num_terms[1]) < 2:
            z = random_unit_disk_point(rng, pq)
        made["on"] = True
        diam_proj(apply_map(f, z))
        diam_proj(z)
        fs_derivative(f, z)
        made["on"] = False
    assert made["count"] * 4 <= _FRACTIONS_WITH_FRACTION_MAGNITUDES, made["count"]


def test_queries_build_one_abs_value_per_result_whatever_the_map(monkeypatch):
    # a work gate: it counts AbsValue constructions (field._magnitude, which
    # field, points and fsderiv each import by name), not time.  Inside one
    # query magnitudes are int pairs, and the domain check and the short
    # centre read |a| as a pair too, so each query builds its results alone:
    # fs_derivative 1 for maps of 2, 3 and 4 coordinates, eval_seminorm 1,
    # apply_map 1 per image coordinate, diam_proj and diam_proj_point 1, and
    # pgl_point none for a word of scalings and translations.  The points
    # include sigma = 0 at planted double roots
    made = {"count": 0}
    magnitude = field._magnitude

    def counting(n, d):
        made["count"] += 1
        return magnitude(n, d)

    for module in (field, points, fsderiv):
        monkeypatch.setattr(module, "_magnitude", counting)

    def count(fn, *args):
        made["count"] = 0
        try:
            fn(*args)
        except DomainViolation:  # every coordinate vanishes at the point
            return None
        return made["count"]

    for spec in (FieldSpec("padic", 3), FieldSpec("puiseux-q")):
        rng = rng_for(f"magnitude-work-gate-{spec.backend}")
        one = Poly.constant(spec, spec.one())
        for i in range(40):
            z = random_unit_disk_point(rng, spec)
            polys = [random_poly(rng, spec, 4, unit_ball=True) for _ in range(4)]
            if i % 2:  # a double root at the centre: the sigma = 0 fallback
                t_minus_a = Poly.from_dict(spec, {0: -z.center, 1: spec.one()})
                polys[1] = t_minus_a * t_minus_a * polys[1]
            polys = [q if not q.is_constant else q + Poly.coordinate(spec) for q in polys]
            charts = [[one] + polys[1:m] for m in (2, 3, 4)]
            maps = [series_map(c, UNIT_DISK) for c in charts + [polys[:m] for m in (2, 3, 4)]]
            assert {count(fs_derivative, f, z) for f in maps} - {None} == {1}
            assert {count(eval_seminorm, q, z) for q in polys} == {1}
            scaled = series_map([Poly.constant(spec, spec.scalar(Fraction(1, 2)))] + polys[1:], UNIT_DISK)
            assert {count(apply_map, f, z) - f.target_dim for f in maps[:3] + [scaled]} == {0}
            images = apply_map(maps[2], z)
            assert count(diam_proj, images) == count(diam_proj, z) == count(diam_proj, []) == 1
            point = ProjPoint("infinity", z)
            point.to_affine()  # the inverted ball, built once and kept
            assert count(diam_proj_point, ProjPoint.affine(z)) == 1
            assert count(diam_proj_point, point) == (0 if point.to_affine() is None else 1)
            word = [g for g in random_pgl_word(rng, spec) if g[0] != "invert"]
            assert count(pgl_point, word, z) == 0


def test_ball_derivatives_and_images_build_no_scalar_per_minor_or_quotient_coefficient(monkeypatch):
    # a work gate: it counts Scalar constructions, not time, so a loaded host
    # cannot move it.  At a ball or a rigid point fs_derivative builds at most
    # the short centre, and apply_map that, 1/c and two scalars per image
    # centre, whatever the degree: every seminorm, the sigma = 0 pass and
    # deflation included, runs on term maps, and neither reads the map's
    # Poly view.  A rigid seminorm at a planted root builds no Scalar at all
    made = {"count": 0, "on": False}
    for cls in (PuiseuxScalar, PadicScalar):

        def counting(self, *args, init=cls.__init__):
            if made["on"]:
                made["count"] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    for spec in (FieldSpec("padic", 3), FieldSpec("puiseux-q")):
        rng = rng_for(f"scalar-work-gate-{spec.backend}")
        over, balls, rigids = [], 0, 0
        for _ in range(300):
            f = random_poly_map(rng, spec, 6)
            z = random_unit_disk_point(rng, spec)
            rigids += z.is_rigid
            balls += not z.is_rigid
            for fn, bound in ((fs_derivative, 1), (apply_map, 2 + 2 * (len(f.cleared) - 1))):
                made["on"], made["count"] = True, 0
                fn(f, z)
                made["on"] = False
                assert "coords" not in vars(f), fn.__name__
                if made["count"] > bound:
                    over.append((fn.__name__, z.is_rigid, f.cleared[1][-1][0], made["count"]))
        assert balls >= 150 and rigids >= 50
        assert over == []
        a = random_scalar(rng, spec, unit_ball=True)
        t_minus_a = Poly.from_dict(spec, {0: -a, 1: spec.one()})
        planted, x = t_minus_a * t_minus_a * random_poly(rng, spec, 4), rigid(a)
        made["on"], made["count"] = True, 0
        assert eval_seminorm(planted, x) == ABS_ZERO
        made["on"] = False
        assert made["count"] == 0
