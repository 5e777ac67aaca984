"""Selection lemma on finite samples and the rescaling construction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkline import (
    ABS_ONE,
    AbsValue,
    FieldSpec,
    Poly,
    UNIT_DISK,
    fs_derivative,
    gromov_conditions,
    gromov_select,
    identity_map,
    rescaled_bound_holds,
    rigid,
    sampled_function,
    series_map,
    zalcman_rescale,
)
from berkline import zalcman
from berkline.errors import NoExplosion, RadiusNotInValueGroup
from berkline.field import magnitude_le_rational

from conftest import gromov_conditions_oracle, gromov_select_oracle, rng_for


def scaled_identity_family(spec: FieldSpec):
    """f_n = [c_n : T] with |c_n| = beta^(-n): derivative beta^n at 0."""

    def family(n: int):
        return series_map(
            [Poly.constant(spec, spec.scalar(spec.p**n)), Poly.coordinate(spec)],
            UNIT_DISK,
        )

    return family


# ---------------------------------------------------------------------------
# selection


def test_constant_function_selects_start(p3):
    pts = [p3.scalar(k) for k in range(5)]
    s = sampled_function(pts, [Fraction(2)] * 5)
    assert gromov_select(s, 3, Fraction(1, 2), Fraction(3, 2)) == 3


def test_two_point_jump(p3):
    # phi(a) = 1, phi(a1) = 10, |a - a1| <= 1/eps: the witness is selected
    s = sampled_function([p3.zero(), p3.one()], [1, 10])
    b = gromov_select(s, 0, Fraction(1), Fraction(3, 2))
    assert b == 1
    assert all(gromov_conditions(s, 0, b, Fraction(1), Fraction(3, 2)))


@pytest.mark.parametrize("index", [-1, 2])
def test_selection_rejects_indices_outside_the_sample(p3, index):
    s = sampled_function([p3.zero(), p3.one()], [1, 10])
    with pytest.raises(ValueError, match="outside 0..1"):
        gromov_select(s, index, Fraction(1), Fraction(3, 2))
    with pytest.raises(ValueError, match="outside 0..1"):
        gromov_conditions(s, 0, index, Fraction(1), Fraction(3, 2))


@pytest.mark.parametrize(
    "eps, tau",
    [(0, Fraction(3, 2)), (1, 1), (-1, Fraction(3, 2)), (1, Fraction(1, 2))],
    ids=["eps=0", "tau=1", "eps<0", "tau<1"],
)
def test_selection_and_its_check_reject_epsilon_at_most_0_and_tau_at_most_1(p3, eps, tau):
    # one shared precondition: before it, gromov_conditions divided by zero at
    # eps = 0 or tau = 1 and returned a triple for eps < 0 or tau < 1
    s = sampled_function([p3.zero(), p3.one()], [1, 10])
    with pytest.raises(ValueError, match="need epsilon > 0 and tau > 1"):
        gromov_select(s, 0, eps, tau)
    with pytest.raises(ValueError, match="need epsilon > 0 and tau > 1"):
        gromov_conditions(s, 0, 1, eps, tau)


def test_isolated_ball_selects_start(p3):
    # 1/(eps phi(a)) is far below every pairwise distance
    pts = [p3.zero(), p3.one(), p3.scalar(2)]
    s = sampled_function(pts, [Fraction(1), Fraction(100), Fraction(100)])
    eps = Fraction(100)  # selection ball has radius 1/100 < 1
    assert gromov_select(s, 0, eps, Fraction(2)) == 0


def test_selection_conditions_on_random_samples(p3):
    rng = rng_for("gromov-random")
    for _ in range(60):
        size = rng.randint(1, 30)
        pts = []
        seen = set()
        while len(pts) < size:
            v = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3])) * Fraction(3) ** rng.randint(0, 3)
            if v not in seen:
                seen.add(v)
                pts.append(p3.scalar(v))
        values = [Fraction(rng.randint(1, 500), rng.choice([1, 2, 5])) for _ in pts]
        s = sampled_function(pts, values)
        a = rng.randrange(size)
        eps = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
        tau = 1 + Fraction(1, rng.randint(1, 6))
        b = gromov_select(s, a, eps, tau)
        ci, cii, ciii = gromov_conditions(s, a, b, eps, tau)
        assert ci and cii and ciii


# Few gap exponents, many points: most gaps share a valuation, so the
# per-exponent decisions are reused and any error in reusing them shows.
UNITS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(4, 5), Fraction(-7, 4)])


@st.composite
def padic_samples(draw):
    spec = FieldSpec("padic", draw(st.sampled_from([2, 3, 5])))
    ks = st.integers(-2, 3)
    values = [draw(UNITS) * Fraction(spec.p) ** draw(ks) for _ in range(draw(st.integers(1, 12)))]
    return spec, [spec.scalar(v) for v in values]


@st.composite
def puiseux_samples(draw):
    spec = FieldSpec("puiseux-q", numeric_base=draw(st.sampled_from([Fraction(2), Fraction(3), Fraction(9, 4)])))
    exps = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
    points = []
    for _ in range(draw(st.integers(1, 12))):
        x = spec.zero()
        for _ in range(draw(st.integers(1, 2))):
            x = x + spec.t_power(draw(exps), draw(UNITS))
        points.append(x)
    return spec, points


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(padic_samples(), puiseux_samples()),
    st.data(),
)
def test_selection_matches_exhaustive_oracle(sample, data):
    spec, points = sample
    values = [data.draw(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(2), Fraction(9, 2), Fraction(20)])) for _ in points]
    s = sampled_function(points, values)
    a = data.draw(st.integers(0, len(points) - 1))
    eps = data.draw(st.sampled_from([Fraction(1, 9), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(27)]))
    tau = 1 + Fraction(1, data.draw(st.integers(1, 4)))
    b = gromov_select(s, a, eps, tau)
    assert b == gromov_select_oracle(s, a, eps, tau)
    other = data.draw(st.integers(0, len(points) - 1))
    for index in (b, other):
        assert gromov_conditions(s, a, index, eps, tau) == gromov_conditions_oracle(s, a, index, eps, tau)


# Values and points over many coprime denominators, some of them multiples
# of p: the int comparisons of phi and the p-adic dist must agree with the
# Fraction oracles however the denominators mix.
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_selection_on_coprime_denominators_matches_the_fraction_oracles(p, data):
    spec = FieldSpec("padic", p)
    size = data.draw(st.integers(1, 16))
    dens = st.tuples(st.sampled_from(PRIMES), st.sampled_from([1, 1, p, p * p])).map(lambda qk: qk[0] * qk[1])
    points = [spec.scalar(Fraction(data.draw(st.integers(-400, 400)), data.draw(dens))) for _ in range(size)]
    # and a few values whose ratios are tau, so that phi(x) = tau phi(b) ties occur
    ties = st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 3), Fraction(3), Fraction(9, 4)])
    spread = st.builds(Fraction, st.integers(1, 10**4), st.sampled_from(PRIMES))
    values = [data.draw(st.one_of(spread, ties)) for _ in range(size)]
    s = sampled_function(points, values)
    a = data.draw(st.integers(0, size - 1))
    eps = Fraction(data.draw(st.integers(1, 50)), data.draw(st.sampled_from(PRIMES)))
    tau = 1 + Fraction(1, data.draw(st.integers(1, 3)))
    b = gromov_select(s, a, eps, tau)
    assert b == gromov_select_oracle(s, a, eps, tau)
    for index in (b, data.draw(st.integers(0, size - 1))):
        assert gromov_conditions(s, a, index, eps, tau) == gromov_conditions_oracle(s, a, index, eps, tau)


def test_selection_is_deterministic(p3):
    pts = [p3.scalar(k) for k in range(8)]
    values = [Fraction(1), Fraction(9), Fraction(9), Fraction(2), Fraction(5), Fraction(1), Fraction(7), Fraction(3)]
    s = sampled_function(pts, values)
    picks = {gromov_select(s, 0, Fraction(1, 2), Fraction(3, 2)) for _ in range(5)}
    assert len(picks) == 1


def test_sampled_function_validation(p3):
    with pytest.raises(ValueError):
        sampled_function([], [])
    with pytest.raises(ValueError):
        sampled_function([p3.zero()], [Fraction(0)])
    with pytest.raises(ValueError):
        sampled_function([p3.zero()], [1, 2])


# ---------------------------------------------------------------------------
# rescaling


def test_rescaled_family_is_exactly_normalized(p3):
    family = scaled_identity_family(p3)
    steps = zalcman_rescale(family, lambda n: p3.zero(), 8)
    for s in steps:
        n = s.index
        assert fs_derivative(s.map, rigid(p3.zero())) == ABS_ONE
        # the selected point stays within 2/n of the witness
        gap = (s.witness - s.center).abs()
        assert magnitude_le_rational(gap, Fraction(2, n), p3.base())
        # |rho_n| = 1/|f_n'(z_n)| <= 1/n^3
        assert s.scale.abs() == AbsValue.of(-n)
        assert magnitude_le_rational(s.scale.abs(), Fraction(1, n**3), p3.base())
        # the rescaled map of this family is the identity
        assert s.map.proportional_to(identity_map(p3))


def test_rescaled_bound_on_closed_disks(p3):
    family = scaled_identity_family(p3)
    steps = zalcman_rescale(family, lambda n: p3.zero(), 6)
    for s in steps:
        # the certified region is the disk of radius 1/|rho_n| = beta^n
        for log_r in range(0, s.index + 1):
            assert rescaled_bound_holds(s, AbsValue.of(log_r), s.index)


def test_rescale_with_explicit_samples(p3):
    family = scaled_identity_family(p3)

    def samples(n):
        return [p3.zero(), p3.scalar(3), p3.scalar(1 + n)]

    steps = zalcman_rescale(family, lambda n: p3.zero(), 5, samples)
    for s in steps:
        assert fs_derivative(s.map, rigid(p3.zero())) == ABS_ONE


def test_rescale_takes_each_sample_derivative_once(monkeypatch, p3):
    # a work gate: it counts derivatives, not time.  The witness leads the
    # sample, so its derivative, taken for the explosion check, is reused
    taken = []
    derivative = zalcman.fs_derivative

    def counting(f, z):
        taken.append(z)
        return derivative(f, z)

    monkeypatch.setattr(zalcman, "fs_derivative", counting)
    family = scaled_identity_family(p3)
    steps = zalcman_rescale(family, lambda n: p3.zero(), 5, lambda n: [p3.zero(), p3.scalar(3), p3.scalar(1 + n)])
    # per index: the witness, the two other samples, and the rescaled map at 0
    assert len(taken) == 5 * 4
    assert [s.derivative_at_center for s in steps] == [AbsValue.of(n) for n in range(1, 6)]
    assert [s.center for s in steps] == [p3.zero()] * 5


def test_constant_family_has_no_explosion(p3):
    const = series_map([Poly.constant(p3, p3.one()), Poly.constant(p3, p3.scalar(5))], UNIT_DISK)
    with pytest.raises(NoExplosion):
        zalcman_rescale(lambda n: const, lambda n: p3.zero(), 3)


def test_slow_family_has_no_explosion(p2):
    # 2^n >= n^3 holds at n = 1 but fails from n = 2 on
    family = scaled_identity_family(p2)
    assert len(zalcman_rescale(family, lambda n: p2.zero(), 1)) == 1
    with pytest.raises(NoExplosion):
        zalcman_rescale(family, lambda n: p2.zero(), 2)


def test_uniformizer_magnitude_gap(p3):
    with pytest.raises(RadiusNotInValueGroup):
        p3.uniformizer(Fraction(1, 2))


def test_rescaling_over_puiseux_backend():
    spec = FieldSpec("puiseux-q", numeric_base=Fraction(3))

    def family(n: int):
        return series_map(
            [Poly.constant(spec, spec.t_power(n)), Poly.coordinate(spec)], UNIT_DISK
        )

    steps = zalcman_rescale(family, lambda n: spec.zero(), 6)
    for s in steps:
        assert fs_derivative(s.map, rigid(spec.zero())) == ABS_ONE
        assert s.scale.abs() == AbsValue.of(-s.index)
