"""Tropical envelopes: term extraction, segments, zero counts, slope bounds
and monomial pieces, each checked against a brute-force oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from berkline import (
    ABS_ONE,
    AbsValue,
    DiskPoint,
    FieldSpec,
    Interval,
    Poly,
    TropicalPolygon,
    count_zeros_annulus,
    eval_seminorm,
    from_series,
    image_disk_radius,
    monomial_pieces,
    slope_bound_check,
)
from berkline.errors import (
    DomainViolation,
    OutOfDomain,
    PreconditionViolation,
    ZeroSeries,
)

from conftest import random_laurent, rng_for


def brute_force_theta(terms, r: Fraction) -> Fraction:
    return max(v + n * r for n, v in terms)


def segment_value(segs, r: Fraction):
    """Evaluate the segment list at r, honouring half-open ownership."""
    for s in segs:
        left_ok = s.left is None or r >= s.left
        right_ok = s.right is None or r < s.right
        if left_ok and right_ok:
            return s.value(r)
    raise AssertionError(f"no segment owns {r}")


# ---------------------------------------------------------------------------
# construction and evaluation


def test_interval_is_open_and_its_closure_is_closed():
    unit = Interval(Fraction(0), Fraction(1))
    assert not unit.contains(Fraction(0)) and not unit.contains(Fraction(1))
    assert unit.contains(Fraction(1, 2))
    assert unit.contains_closure(Fraction(0)) and unit.contains_closure(Fraction(1))
    assert not unit.contains_closure(Fraction(-1, 2)) and not unit.contains_closure(Fraction(3, 2))


def test_from_series_examples(p3):
    cube = Poly.from_dict(p3, {3: p3.one()})
    assert from_series(cube, Interval(None, None)).terms == ((3, Fraction(0)),)
    mixed = Poly.from_dict(p3, {1: p3.scalar(3), -1: p3.one()})
    assert set(from_series(mixed, Interval(None, None)).terms) == {(1, Fraction(-1)), (-1, Fraction(0))}
    one = Poly.constant(p3, p3.one())
    assert from_series(one, Interval(None, None)).terms == ((0, Fraction(0)),)
    with pytest.raises(ZeroSeries):
        from_series(Poly(p3, ()), Interval(None, None))


def test_theta_examples():
    single = TropicalPolygon(((3, Fraction(0)),), Interval(None, None))
    assert single.theta(-1) == -3
    two = TropicalPolygon(((1, Fraction(0)), (-1, Fraction(-2))), Interval(Fraction(-2), Fraction(0)))
    assert two.theta(-1) == -1  # breakpoint value
    assert two.theta(0) == 0
    with pytest.raises(OutOfDomain):
        two.theta(1)


def test_segments_examples():
    two = TropicalPolygon(((1, Fraction(0)), (-1, Fraction(-2))), Interval(Fraction(-2), Fraction(0)))
    segs = two.segments()
    assert [(s.left, s.right, s.slope) for s in segs] == [
        (Fraction(-2), Fraction(-1), -1),
        (Fraction(-1), Fraction(0), 1),
    ]
    flat = TropicalPolygon(
        ((0, Fraction(0)), (1, Fraction(0)), (2, Fraction(0))), Interval(Fraction(-1), Fraction(0))
    )
    assert [(s.slope, s.intercept) for s in flat.segments()] == [(0, Fraction(0))]


def test_segments_agree_with_pointwise_maximum():
    rng = rng_for("segments-oracle")
    for _ in range(60):
        n_terms = rng.randint(1, 6)
        terms = tuple(
            (rng.randint(-6, 6), Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3])))
            for _ in range(n_terms)
        )
        terms = tuple({n: v for n, v in terms}.items())
        lo = Fraction(rng.randint(-8, -1), rng.choice([1, 2]))
        hi = lo + Fraction(rng.randint(1, 8), rng.choice([1, 2]))
        polygon = TropicalPolygon(terms, Interval(lo, hi))
        segs = polygon.segments()
        slopes = [s.slope for s in segs]
        assert slopes == sorted(set(slopes)), "slopes strictly increase"
        for k in range(50):
            r = lo + (hi - lo) * Fraction(k, 50)
            if r <= lo:
                continue
            assert segment_value(segs, r) == brute_force_theta(terms, r)
            assert polygon.theta(r) == brute_force_theta(terms, r)


def test_single_slope_examples(p2, p3):
    five = from_series(Poly.from_dict(p3, {5: p3.one()}), Interval(None, None))
    assert five.single_slope() == 5
    two = TropicalPolygon(((1, Fraction(0)), (-1, Fraction(-2))), Interval(Fraction(-2), Fraction(0)))
    assert two.single_slope() is None
    # 2 + T over the 2-adics on (-3, -1): the constant term dominates
    f = Poly.from_dict(p2, {0: p2.scalar(2), 1: p2.one()})
    restricted = from_series(f, Interval(Fraction(-3), Fraction(-1)))
    assert restricted.single_slope() == 0


# ---------------------------------------------------------------------------
# slope bound


def test_slope_bound_monomial_maps():
    # T^n sends A(rho, 1) into A(rho^n, 1); with log R = n log rho the bound
    # n <= log R / log rho is an equality
    for n in (1, 2, 5):
        log_rho = Fraction(-3, 2)
        log_r = n * log_rho
        polygon = TropicalPolygon(((n, Fraction(0)),), Interval(log_rho, Fraction(0)))
        result = slope_bound_check(polygon, log_r, log_rho)
        assert result.slope_ok and result.half_annulus_ok
        assert result.bound == n


def test_slope_bound_identity_map():
    polygon = TropicalPolygon(((1, Fraction(0)),), Interval(Fraction(-2), Fraction(0)))
    result = slope_bound_check(polygon, Fraction(-2), Fraction(-2))
    assert result.slope_ok and result.bound == 1


def test_slope_bound_random_zero_free():
    rng = rng_for("slope-bound")
    for _ in range(60):
        n0 = rng.randint(-4, 6)
        log_rho = Fraction(-rng.randint(1, 6), rng.choice([1, 2]))
        polygon = TropicalPolygon(((n0, Fraction(0)),), Interval(log_rho, Fraction(0)))
        # tightest admissible log R for this slope
        log_r = min(n0 * log_rho, Fraction(-1, 7))
        result = slope_bound_check(polygon, log_r, log_rho)
        assert result.slope_ok
        assert result.half_annulus_ok
        assert Fraction(n0) <= result.bound


def test_slope_bound_preconditions():
    polygon = TropicalPolygon(((3, Fraction(0)),), Interval(Fraction(-2), Fraction(0)))
    with pytest.raises(PreconditionViolation):
        slope_bound_check(polygon, Fraction(-1), Fraction(-2))  # theta dips below log R
    shifted = TropicalPolygon(((0, Fraction(-1)),), Interval(Fraction(-2), Fraction(0)))
    with pytest.raises(PreconditionViolation):
        slope_bound_check(shifted, Fraction(-3), Fraction(-2))  # theta(0-) != 0
    two = TropicalPolygon(((0, Fraction(0)), (2, Fraction(1))), Interval(Fraction(-2), Fraction(0)))
    with pytest.raises(PreconditionViolation):
        slope_bound_check(two, Fraction(-4), Fraction(-2))  # two slopes


# ---------------------------------------------------------------------------
# zero counting


def test_zero_count_examples(p3):
    t = Poly.coordinate(p3)
    one = Poly.constant(p3, p3.one())
    assert count_zeros_annulus(t - one, Fraction(-2), Fraction(1)) == 1
    assert count_zeros_annulus(Poly.from_dict(p3, {4: p3.one()}), Fraction(-9), Fraction(-1)) == 0
    c = Poly.constant(p3, p3.scalar(3))  # |3| = beta^-1
    f = (t - one) * (t - c)
    assert count_zeros_annulus(f, Fraction(-2), Fraction(1)) == 2


def test_zero_count_against_root_magnitudes(p3):
    rng = rng_for("zeros-oracle")
    for _ in range(40):
        roots = [rng.choice([1, 2, 3, 9, Fraction(1, 3), Fraction(1, 9), 5]) for _ in range(rng.randint(1, 4))]
        f = Poly.constant(p3, p3.one())
        for r in roots:
            f = f * (Poly.coordinate(p3) - Poly.constant(p3, p3.scalar(r)))
        lo = Fraction(rng.randint(-4, 0))
        hi = lo + rng.randint(1, 4)
        expected = 0
        for r in roots:
            mag = p3.scalar(r).abs()
            assert mag.logval is not None
            if lo < mag.logval < hi:
                expected += 1
        assert count_zeros_annulus(f, lo, hi) == expected


def test_single_slope_iff_no_zeros(p3):
    rng = rng_for("zeros-slope")
    for _ in range(40):
        f = random_laurent(rng, p3, span=3)
        lo = Fraction(rng.randint(-5, -1))
        hi = lo + rng.randint(1, 4)
        polygon = from_series(f, Interval(lo, hi))
        assert (polygon.single_slope() is not None) == (count_zeros_annulus(f, lo, hi) == 0)


# ---------------------------------------------------------------------------
# monomial pieces


def test_monomial_pieces_square(pq):
    sq = Poly.from_dict(pq, {2: pq.one()})
    pieces = monomial_pieces(sq, Interval(None, Fraction(0)))
    assert len(pieces) == 1
    assert pieces[0].exponent == 2 and pieces[0].logcoeff == 0


def test_monomial_pieces_breakpoint(p3):
    f = Poly.from_dict(p3, {1: p3.scalar(3), 3: p3.one()})
    pieces = monomial_pieces(f, Interval(Fraction(-2), Fraction(0)))
    assert [(p.exponent, p.logcoeff) for p in pieces] == [(1, Fraction(-1)), (3, Fraction(0))]
    assert pieces[0].right == Fraction(-1, 2)  # where beta^-1 r = r^3
    assert pieces[1].left == Fraction(-1, 2)


def test_monomial_pieces_constant_map(p3):
    const = Poly.constant(p3, p3.scalar(Fraction(1, 3)))
    pieces = monomial_pieces(const, Interval(Fraction(-2), Fraction(0)))
    assert len(pieces) == 1 and pieces[0].constant


def test_monomial_pieces_domain_violation(p3):
    f = Poly.from_dict(p3, {1: p3.scalar(Fraction(1, 3))})  # |1/3| = 3 > 1 at radius 1
    with pytest.raises(DomainViolation):
        monomial_pieces(f, Interval(Fraction(-2), Fraction(0)))


def test_monomial_pieces_match_image_radii(p3, pq):
    rng = rng_for("pieces-oracle")
    for spec in (p3, pq):
        for _ in range(20):
            coeffs = {}
            for n in range(1, 5):
                if rng.random() < 0.7:
                    coeffs[n] = spec.uniformizer(Fraction(-rng.randint(0, 4), 1))
            if not coeffs:
                continue
            f = Poly.from_dict(spec, coeffs)
            window = Interval(Fraction(-3), Fraction(0))
            pieces = monomial_pieces(f, window)
            for piece in pieces:
                assert piece.left is not None and piece.right is not None
                for k in range(1, 20):
                    r = piece.left + (piece.right - piece.left) * Fraction(k, 20)
                    expected = image_disk_radius(f, AbsValue.of(r))
                    assert expected == AbsValue.of(piece.logcoeff + piece.exponent * r)


# ---------------------------------------------------------------------------
# cross-module identity and convexity


def test_theta_matches_seminorm_logval(p3, pq):
    rng = rng_for("theta-seminorm")
    for spec in (p3, pq):
        for _ in range(20):
            f = random_laurent(rng, spec, span=4)
            polygon = from_series(f, Interval(None, None))
            for k in range(8):
                r = Fraction(rng.randint(-12, 6), rng.choice([1, 2, 3]))
                value = eval_seminorm(f, DiskPoint(spec.zero(), AbsValue.of(r)))
                assert value.logval == polygon.theta(r)


def test_envelope_convexity():
    rng = rng_for("convexity")
    for _ in range(40):
        terms = tuple(
            {rng.randint(-5, 5): Fraction(rng.randint(-10, 10)) for _ in range(rng.randint(1, 5))}.items()
        )
        polygon = TropicalPolygon(terms, Interval(None, None))
        segs = polygon.segments()
        slopes = [s.slope for s in segs]
        assert slopes == sorted(slopes)
        for prev, cur in zip(segs, segs[1:]):
            assert prev.right == cur.left
            assert prev.value(cur.left) == cur.value(cur.left)  # continuity at breakpoints
