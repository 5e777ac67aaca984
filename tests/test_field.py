"""Field backends: exact arithmetic, magnitudes, and the valuation axioms."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkline import ABS_ONE, ABS_ZERO, AbsValue, FieldSpec
from berkline.errors import BackendMismatch, DivisionByZero, RadiusNotInValueGroup
from berkline.field import (
    _iroot_exact,
    _is_prime,
    magnitude_as_rational,
    magnitude_ge_rational,
    magnitude_le_rational,
)

from conftest import random_nonzero_scalar, random_scalar, rng_for


def test_padic_addition_of_thirds():
    spec = FieldSpec("padic", 3)
    assert spec.scalar("1/3") + spec.scalar("2/3") == spec.one()


def test_puiseux_monomial_product():
    spec = FieldSpec("puiseux-q")
    assert spec.t_power("1/2") * spec.t_power("1/2") == spec.t_power(1)


def test_puiseux_cancellation_matches_termwise_oracle():
    spec = FieldSpec("puiseux-q")
    x = spec.from_terms([(0, 1), (1, 1)])  # 1 + t
    y = spec.scalar(-1)
    # termwise oracle: add coefficient maps with cancellation
    oracle = {Fraction(0): Fraction(1) + Fraction(-1), Fraction(1): Fraction(1)}
    expected = spec.from_terms([(q, c) for q, c in oracle.items() if c != 0])
    assert x + y == expected == spec.t_power(1)


def test_padic_abs_by_factorization():
    spec = FieldSpec("padic", 3)
    # 9/2 = 3^2 * (1/2), so v_3 = 2 and |9/2| = 3^(-2)
    assert spec.scalar("9/2").abs() == AbsValue.of(-2)
    assert spec.scalar(0).abs() == ABS_ZERO


def test_puiseux_abs_is_min_exponent():
    spec = FieldSpec("puiseux-q")
    x = spec.from_terms([("-1/2", 5), (3, 1)])
    assert x.abs() == AbsValue.of("1/2")


def test_inverse_of_zero_raises():
    for spec in (FieldSpec("padic", 5), FieldSpec("puiseux-q")):
        with pytest.raises(DivisionByZero):
            spec.zero().inv()


def test_backend_mismatch_raises():
    a = FieldSpec("padic", 3).one()
    b = FieldSpec("padic", 5).one()
    with pytest.raises(BackendMismatch):
        a + b


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_field_axioms_on_random_values(backend):
    spec = FieldSpec(backend, 3 if backend == "padic" else None)
    rng = rng_for(f"field-axioms-{backend}")
    one = spec.one()
    for _ in range(60):
        x = random_nonzero_scalar(rng, spec)
        y = random_scalar(rng, spec)
        z = random_scalar(rng, spec)
        assert x * x.inv() == one
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - x == spec.zero()


def test_puiseux_inverse_of_multiterm_value():
    spec = FieldSpec("puiseux-q")
    x = spec.from_terms([(0, 2), ("1/2", 3), (2, -1)])
    assert x * x.inv() == spec.one()
    # inverse of an inverse is canonical
    assert x.inv().inv() == x


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
def test_abs_multiplicativity_and_ultrametric(backend):
    spec = FieldSpec(backend, 7 if backend == "padic" else None)
    rng = rng_for(f"abs-{backend}")
    for _ in range(120):
        x = random_scalar(rng, spec)
        y = random_scalar(rng, spec)
        assert (x * y).abs() == x.abs() * y.abs()
        s = (x + y).abs()
        m = max(x.abs(), y.abs())
        assert s <= m
        if x.abs() != y.abs():
            assert s == m
        assert (x.abs() == ABS_ZERO) == x.is_zero


@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
@settings(max_examples=80, deadline=None)
def test_padic_abs_multiplicative_hypothesis(a, b):
    spec = FieldSpec("padic", 2)
    x, y = spec.scalar(a), spec.scalar(b)
    assert (x * y).abs() == x.abs() * y.abs()
    assert (x + y).abs() <= max(x.abs(), y.abs())


def test_absvalue_total_order_and_arithmetic():
    zero = ABS_ZERO
    small = AbsValue.of(-3)
    one = ABS_ONE
    big = AbsValue.of("7/2")
    assert zero < small < one < big
    assert small * big == AbsValue.of("1/2")
    assert big / small == AbsValue.of("13/2")
    assert small ** 2 == AbsValue.of(-6)
    with pytest.raises(DivisionByZero):
        one / zero
    assert zero * big == zero


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("padic", 4)
    with pytest.raises(ValueError):
        FieldSpec("padic")
    with pytest.raises(ValueError):
        FieldSpec("puiseux-q", 3)
    with pytest.raises(ValueError):
        FieldSpec("padic", 3, value_group=-2)


def test_value_group_membership():
    spec = FieldSpec("padic", 3)  # default Z
    assert spec.group_contains(Fraction(2))
    assert not spec.group_contains(Fraction(1, 2))
    half = FieldSpec("padic", 3, value_group=2)
    assert half.group_contains(Fraction(1, 2))
    assert not half.group_contains(Fraction(1, 3))
    full = FieldSpec("puiseux-q")  # default Q
    assert full.group_contains(Fraction(22, 7))


def test_uniformizer_magnitudes():
    p5 = FieldSpec("padic", 5)
    assert p5.uniformizer(-2).abs() == AbsValue.of(-2)
    with pytest.raises(RadiusNotInValueGroup):
        p5.uniformizer("1/2")
    pq = FieldSpec("puiseux-q")
    assert pq.uniformizer("-3/2").abs() == AbsValue.of("-3/2")


def test_rational_comparisons_of_magnitudes():
    base = Fraction(3)
    assert magnitude_le_rational(AbsValue.of(-2), Fraction(1, 9), base)
    assert not magnitude_le_rational(AbsValue.of(-2), Fraction(1, 10), base)
    assert magnitude_ge_rational(AbsValue.of("1/2"), Fraction(12, 7), base)  # 3^(1/2) >= 12/7
    assert not magnitude_ge_rational(AbsValue.of("1/2"), Fraction(7, 4), base)  # < 1.75^2=3.0625
    assert magnitude_le_rational(ABS_ZERO, Fraction(0), base)
    assert magnitude_as_rational(AbsValue.of(-2), base) == Fraction(1, 9)
    assert magnitude_as_rational(AbsValue.of("1/2"), Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        magnitude_as_rational(AbsValue.of("1/2"), Fraction(3))


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if _trial_division(n)]


@pytest.mark.parametrize(
    "n",
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 3215031751,
     149491 * 747451 * 34233211, 399165290221 * 798330580441],
)
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not _is_prime(n)


def test_is_prime_large_primes_and_limit():
    assert _is_prime(2**61 - 1)
    assert not _is_prime(2**61 + 1)
    assert FieldSpec("padic", 2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match="3.3e24"):
        FieldSpec("padic", 2**89 - 1)


def test_iroot_exact_is_integer_only():
    assert _iroot_exact(10**400, 2) == 10**200
    assert _iroot_exact(10**400 + 1, 2) is None
    assert _iroot_exact(3**500, 7) is None
    assert _iroot_exact(3**700, 7) == 3**100
    for n in range(200):
        for k in (2, 3, 5):
            r = _iroot_exact(n, k)
            roots = [x for x in range(n + 1) if x**k == n]
            assert r == (roots[0] if roots else None)
