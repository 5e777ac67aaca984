"""Points of the line: seminorm evaluation, recentering, diameters, join."""

from __future__ import annotations

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
    diam_affine,
    diam_proj,
    diam_proj_point,
    eval_seminorm,
    gauss_point,
    join,
    rigid,
    taylor_shift,
)
from berkline.errors import PoleAtPoint

from conftest import (
    random_nonzero_scalar,
    random_poly,
    random_radius,
    random_scalar,
    random_unit_disk_point,
    rng_for,
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


def binomial_shift_oracle(p: Poly, a):
    """Independent recentering oracle: expand each (T + a)^n binomially."""
    spec = p.spec
    acc: dict[int, object] = {}
    for n, c in p.terms:
        for k in range(n + 1):
            term = c * spec.from_int(comb(n, k))
            for _ in range(n - k):
                term = term * a
            prev = acc.get(k)
            acc[k] = term if prev is None else prev + term
    return Poly.from_dict(spec, {k: v for k, v in acc.items() if not v.is_zero})


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
