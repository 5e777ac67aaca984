"""Field backends: exact arithmetic, magnitudes, and the valuation axioms."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import berkline
from berkline import ABS_ONE, ABS_ZERO, AbsValue, FieldSpec
from berkline.errors import BackendMismatch, DivisionByZero, NumericBaseRequired, RadiusNotInValueGroup
from berkline.field import (
    _KEY_TERMS,
    _ONE_TERMS,
    PuiseuxScalar,
    _iroot_exact,
    _is_prime,
    _expansion,
    _normalize_fraction,
    _scaled,
    _terms_mul,
    as_fraction,
    as_integer,
    magnitude_as_rational,
    magnitude_ge_rational,
    magnitude_le_rational,
    rational_pair,
)

from berkline.points import _ball_key

from conftest import (
    as_fraction_oracle,
    as_integer_oracle,
    expansion_oracle,
    magnitude_ge_rational_oracle,
    magnitude_le_rational_oracle,
    random_nonzero_scalar,
    random_scalar,
    rng_for,
)


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
    with pytest.raises(BackendMismatch):
        a - b


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
        # subtraction on the values: the value, type and hash of x + (-y)
        diff, total = x - y, x + (-y)
        assert diff == total and hash(diff) == hash(total) and type(diff) is type(total)


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


# -- magnitudes against a Fraction oracle ---------------------------------------
#
# A magnitude is drawn with its exponent q (None for zero) and built in one of
# several ways, so that equal magnitudes reach their reduced int pair by
# different paths: unreduced products, quotients and powers, and the abs() of
# both backends, including a num/den pair that is not reduced.

P3 = FieldSpec("padic", 3)
PQ = FieldSpec("puiseux-q")

magnitude_exponents = st.fractions(-12, 12, max_denominator=12)


@st.composite
def magnitudes(draw) -> tuple[AbsValue, Fraction | None]:
    q = draw(st.one_of(st.none(), magnitude_exponents, magnitude_exponents, magnitude_exponents))
    a = draw(magnitude_exponents)
    k = draw(st.integers(1, 4))
    y = AbsValue.of(a)
    if q is None:
        ways = [ABS_ZERO, AbsValue.zero(), y * ABS_ZERO, ABS_ZERO / y, ABS_ZERO**k, PQ.zero().abs(), P3.zero().abs()]
        return draw(st.sampled_from(ways)), None
    x = AbsValue.of(q)
    ways = [
        x,
        AbsValue.of(f"{q.numerator * k}/{q.denominator * k}"),
        x * y / y,
        y * AbsValue.of(q - a),
        AbsValue.of(q + a) / y,
        AbsValue.of(q / k) ** k,
        AbsValue.of(-q) ** -1,
        PQ.t_power(-q, k).abs(),
        # |t^(a - q) (1 + t)| / |t^a (2 + t)|, a num/den pair with a common factor
        (PQ.from_terms([(a - q, 1), (a - q + 1, 1)]) / PQ.from_terms([(a, 2), (a + 1, 1)])).abs(),
    ]
    if q.denominator == 1:
        ways.append(P3.scalar(Fraction(2, 5) * Fraction(3) ** -q.numerator).abs())
    return draw(st.sampled_from(ways)), q


def _oracle(q: Fraction | None) -> AbsValue:
    return ABS_ZERO if q is None else AbsValue.of(q)


def _order_key(q: Fraction | None) -> tuple:
    # zero lies below every finite magnitude
    return (0, 0) if q is None else (1, q)


def _check_magnitude(v: AbsValue, q: Fraction | None) -> None:
    # equal magnitudes are equal pairs: ==, hash and repr agree with the oracle's
    expected = _oracle(q)
    assert v == expected and not v != expected
    assert hash(v) == hash(expected) and repr(v) == repr(expected)
    assert v.logval == q and v.is_zero == (q is None)


@given(magnitudes(), magnitudes(), st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_magnitudes_match_a_fraction_oracle(xq, yq, k):
    (x, qx), (y, qy) = xq, yq
    _check_magnitude(x, qx)
    if qx is not None:
        assert AbsValue.of(x.logval) == x  # the of/logval round trip
    kx, ky = _order_key(qx), _order_key(qy)
    assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)
    assert (x == y, x != y) == (kx == ky, kx != ky)
    if x == y:
        assert hash(x) == hash(y)
    _check_magnitude(x * y, None if qx is None or qy is None else qx + qy)
    if qy is None:
        with pytest.raises(DivisionByZero):
            x / y
    else:
        _check_magnitude(x / y, None if qx is None else qx - qy)
    if qx is None and k <= 0:
        with pytest.raises(DivisionByZero):
            x**k
    else:
        _check_magnitude(x**k, None if qx is None else qx * k)


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


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(None), st.fractions(-6, 6, max_denominator=7)),
    st.one_of(st.fractions(-3, 10**4, max_denominator=10**4), st.integers(-2, 30)),
    st.sampled_from([Fraction(2), Fraction(3), Fraction(9, 4), Fraction(5, 3), Fraction(1), Fraction(1, 2)]),
)
def test_rational_comparisons_of_magnitudes_match_the_fraction_oracle(q, bound, base):
    v = ABS_ZERO if q is None else AbsValue.of(q)
    for decide, oracle in ((magnitude_le_rational, magnitude_le_rational_oracle), (magnitude_ge_rational, magnitude_ge_rational_oracle)):
        if base <= 1:
            with pytest.raises(NumericBaseRequired):
                decide(v, bound, base)
        else:
            assert decide(v, bound, base) == oracle(v, bound, base)


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


# -- the Puiseux term kernel against a slow dict[Fraction, Fraction] oracle ----

oracle_exponents = st.builds(Fraction, st.integers(-8, 12), st.sampled_from([1, 2, 3, 4, 6]))
oracle_coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 1, 2, 3]))
oracle_polys = st.dictionaries(oracle_exponents, oracle_coefficients, max_size=4)
nonzero_oracle_polys = st.dictionaries(oracle_exponents, oracle_coefficients, min_size=1, max_size=4)


def _oadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for q, c in b.items():
        out[q] = out.get(q, Fraction(0)) + c
    return {q: c for q, c in out.items() if c}


def _omul(a: dict, b: dict) -> dict:
    out: dict = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            out[qa + qb] = out.get(qa + qb, Fraction(0)) + ca * cb
    return {q: c for q, c in out.items() if c}


def _oneg(a: dict) -> dict:
    return {q: -c for q, c in a.items()}


def _check_layout(terms) -> None:
    """(D, ((k, c), ...)): int keys sorted and distinct, D minimal, nonzero
    int coefficients."""
    denom, pairs = terms
    keys = [k for k, _ in pairs]
    assert type(denom) is int and denom >= 1
    assert all(type(k) is int for k in keys) and keys == sorted(set(keys))
    assert math.gcd(denom, *keys) == 1
    for _, c in pairs:
        assert type(c) is int and c != 0


def _check_value(x: PuiseuxScalar, num: dict, den: dict) -> None:
    """x == num/den, read through the Fraction views."""
    _check_layout(x.num_terms)
    _check_layout(x.den_terms)
    assert _omul(dict(x.num), den) == _omul(num, dict(x.den))


@given(oracle_polys, oracle_polys)
@settings(max_examples=200, deadline=None)
def test_term_kernel_ring_operations_match_oracle(a, b):
    x, y = PQ.from_terms(a.items()), PQ.from_terms(b.items())
    cases = [(x, a), (x + y, _oadd(a, b)), (-x, _oneg(a)), (x * y, _omul(a, b)), (x - y, _oadd(a, _oneg(b)))]
    for value, oracle in cases:
        _check_layout(value.num_terms)
        # rational coefficients live in one constant den: the lcm L of the
        # oracle's coefficient denominators, _ONE_TERMS when every one is 1
        scale = math.lcm(*(c.denominator for c in oracle.values()))
        assert value.den_terms == (_ONE_TERMS if scale == 1 else (1, ((0, scale),)))
        assert {q: c / scale for q, c in value.num} == oracle


@given(oracle_polys, nonzero_oracle_polys, oracle_polys, nonzero_oracle_polys)
@settings(max_examples=150, deadline=None)
def test_term_kernel_fractions_match_oracle(a, b, c, d):
    x = PQ.from_terms(a.items()) * PQ.from_terms(b.items()).inv()
    y = PQ.from_terms(c.items()) * PQ.from_terms(d.items()).inv()
    _check_value(x, a, b)
    _check_value(x + y, _oadd(_omul(a, d), _omul(c, b)), _omul(b, d))
    _check_value(-x, _oneg(a), b)
    _check_value(x * y, _omul(a, c), _omul(b, d))
    if a:
        _check_value(x.inv(), b, a)


@given(oracle_polys, nonzero_oracle_polys, nonzero_oracle_polys)
@settings(max_examples=100, deadline=None)
def test_canonical_form_is_unique_and_hash_agrees(a, b, common):
    x = PQ.from_terms(a.items()) * PQ.from_terms(b.items()).inv()
    g = PQ.from_terms(common.items())
    y = (x * g) * g.inv()  # the same value through a different num/den pair
    num, den = _normalize_fraction(x.num_terms, x.den_terms)
    _check_layout(num)
    _check_layout(den)
    assert den[1][0][0] == 0 and den[1][0][1] > 0
    assert math.gcd(*(c for _, c in num[1] + den[1])) == 1
    _check_value(PuiseuxScalar(PQ, num, den), a, b)
    assert y == x and _normalize_fraction(y.num_terms, y.den_terms) == (num, den) and hash(y) == hash(x)


# exponent denominators up to 100: the lcm D, and so the exponent span of a
# Z[u] gcd in units of 1/D, runs into the hundreds of thousands
wide_exponents = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 100))
wide_polys = st.dictionaries(wide_exponents, oracle_coefficients, max_size=4)
nonzero_wide_polys = st.dictionaries(wide_exponents, oracle_coefficients, min_size=1, max_size=4)


@given(wide_polys, nonzero_wide_polys, nonzero_wide_polys, wide_exponents.filter(bool), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_hash_agrees_with_eq_across_representatives(a, b, common, e, extra):
    x = PQ.from_terms(a.items()) * PQ.from_terms(b.items()).inv()
    g = PQ.from_terms(common.items())
    y = (x * g) * g.inv()  # the same value through a different num/den pair
    assert y == x and hash(y) == hash(x)
    # 1 + u + ... + u^(n-1), u = t^e, has more than _KEY_TERMS terms; the
    # fraction (u^n - 1)/(u - 1) equal to it stays unreduced
    n, u, one = _KEY_TERMS + extra, PQ.t_power(e), PQ.one()
    poly, power = PQ.zero(), one
    for _ in range(n):
        poly, power = poly + power, power * u
    frac = (power - one) / (u - one)
    assert len(poly.num_terms[1]) == n and len(frac.den_terms[1]) == 2
    for scale in (one, g):
        assert frac * scale == poly * scale and hash(frac * scale) == hash(poly * scale)


@given(
    oracle_polys,
    nonzero_oracle_polys,
    nonzero_oracle_polys,
    st.integers(-4, 4).filter(bool),
    st.fractions(-4, 4, max_denominator=6),
)
@settings(max_examples=150, deadline=None)
def test_expansion_keys_of_unreduced_pairs_match_the_fraction_oracle(a, b, common, k, logval):
    x = PQ.from_terms(a.items()) * PQ.from_terms(b.items()).inv()
    # the same value over an unreduced pair: num and den times a Puiseux
    # polynomial and a signed int, so den's lowest coefficient is rarely 1
    g = PQ.from_terms(common.items()).num_terms
    y = PuiseuxScalar(PQ, _scaled(_terms_mul(x.num_terms, g), k), _scaled(_terms_mul(x.den_terms, g), k))
    assert y == x and hash(y) == hash(x)
    for radius in (ABS_ZERO, AbsValue.of(logval)):
        expected = tuple(
            (q.numerator, q.denominator, c.numerator, c.denominator)
            for q, c in expansion_oracle(y.num_terms, y.den_terms, radius)
        )
        assert _expansion(y.num_terms, y.den_terms, radius) == _expansion(x.num_terms, x.den_terms, radius)
        assert _ball_key(y, radius) == _ball_key(x, radius) == expected


@given(oracle_polys, nonzero_oracle_polys)
@settings(max_examples=100, deadline=None)
def test_num_den_views_round_trip_through_from_terms(a, b):
    x = PQ.from_terms(a.items()) * PQ.from_terms(b.items()).inv()
    assert all(type(q) is Fraction and type(c) is Fraction for q, c in x.num + x.den)
    assert PQ.from_terms(x.num).num_terms == x.num_terms
    assert PQ.from_terms(x.den).num_terms == x.den_terms
    assert PQ.from_terms(x.num) * PQ.from_terms(x.den).inv() == x


def test_denominator_shrinks_after_product_and_cancellation():
    half = PQ.t_power("1/2")
    square = half * half
    assert square.num_terms == (1, ((1, 1),))
    assert square == PQ.t_power(1) and hash(square) == hash(PQ.t_power(1))
    rest = (PQ.one() + half) - half
    assert rest.num_terms == _ONE_TERMS
    assert rest == PQ.one() and hash(rest) == hash(PQ.one())


def test_integral_coefficients_are_ints():
    # 1/2 t^(1/3) + 4 t = (t^(1/3) + 8 t) / 2: int coefficients over one constant den
    x = PQ.from_terms([("1/3", "1/2"), (1, 4)])
    assert x.num_terms == (3, ((1, 1), (3, 8))) and x.den_terms == (1, ((0, 2),))
    assert (x + x).num_terms == (3, ((1, 1), (3, 8))) and (x + x).den_terms == _ONE_TERMS
    assert x.num == ((Fraction(1, 3), Fraction(1)), (Fraction(1), Fraction(8)))
    assert x.den == ((Fraction(0), Fraction(2)),)
    # the den divides out of every sum and product it cancels from
    assert (x * PQ.scalar(6)).num_terms == (3, ((1, 3), (3, 24))) and (x * PQ.scalar(6)).den_terms == _ONE_TERMS
    assert repr(x) == "1/2*t^1/3 + 4*t^1" and repr(x.inv()) == "(2*t^-1/3)/(1 + 8*t^2/3)"


_SPARSE_PRODUCT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from fractions import Fraction
from berkline import FieldSpec
from berkline.field import PuiseuxScalar, _terms_mul
pq = FieldSpec("puiseux-q")
a = pq.from_terms([(178 * i, 1) for i in range(12)])
b = pq.from_terms(
    [(Fraction(193, 19), -2), (Fraction(-165, 49), 4), (Fraction(289, 16), 6), (Fraction(274, 37), 6)]
) / pq.from_terms([(-154, 4), (0, 5)])
prod = a * b
cross = PuiseuxScalar(pq, _terms_mul(a.num_terms, b.num_terms), _terms_mul(a.den_terms, b.den_terms))
print(prod == cross, prod * b.inv() == a, hash(prod) == hash(cross))
"""


def test_threshold_keeps_a_sparse_fraction_lazy_under_a_memory_limit():
    # 50 terms pass the reduction threshold, but the exponent denominators
    # 16, 19, 37 and 49 give D = 551,152 and an exponent span of about 1.1e9
    # units of 1/D: the product must stay lazy instead of running a gcd
    # whose eliminations can take a step per unit
    src = str(Path(berkline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _SPARSE_PRODUCT], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "True"]


_SPARSE_REPR = (
    _SPARSE_PRODUCT
    + """
from berkline.errors import BerklineError, ReductionTooLong
for value in (b, prod):
    try:
        print(repr(value))
    except ReductionTooLong as exc:
        print(isinstance(exc, BerklineError))
print(repr(pq.one() / pq.from_terms([(0, 1), (30, 1)])))
"""
)


def test_repr_of_a_sparse_fraction_past_the_span_guard_raises_under_a_memory_limit():
    # repr prints the reduced form; the gcd of b's num and den would take a
    # step per unit of a span of about 1e8 units of 1/D, so repr raises a
    # BerklineError (exit 3 in the CLI) instead, and never prints the
    # unreduced pair.  A short span still prints, with a gcd
    src = str(Path(berkline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _SPARSE_REPR], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[1:] == ["True", "True", "(1)/(1 + t^30)", ""]


@pytest.mark.parametrize(
    "text,value",
    [("7", Fraction(7)), (" -3/4 ", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)), ("0/5", Fraction(0)), ("-0", Fraction(0))],
)
def test_as_fraction_reads_integers_and_num_den(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize(
    "text",
    ["1/0", "-3/0", "0/0", "1e1000000", "1E5", "0.5", ".5", "1_000", "3/-4", "/4", "3/", "", " ", "inf", "nan", "\u0663"],
)
def test_as_fraction_rejects_everything_else(text):
    with pytest.raises(ValueError):
        as_fraction(text)


def _outcome(fn, x):
    """fn(x), or the type and message of the exception it raised."""
    try:
        return fn(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


RATIONAL_TEXTS = st.one_of(
    st.text(alphabet="0123456789/-+ _.e\t\u0661\u0662\u00a0", max_size=9),
    st.from_regex(r"\s*[-+]?[0-9]{1,30}(/[0-9]{1,30})?\s*", fullmatch=True),
    st.sampled_from(["1_0", "\u0661\u0662", "1.5", "1e3", "1/0", "-0/4", " 3/4 ", "+6/4", "0/0", "3/-4", "", "7"]),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(RATIONAL_TEXTS, st.integers(), st.fractions(), st.booleans(), st.floats(allow_nan=False), st.none()))
def test_rational_pair_matches_the_regex_fraction_oracle(x):
    if isinstance(x, bool):
        # the oracle reads a bool as the int 0 or 1; a bool is no rational
        for fn in (rational_pair, as_fraction):
            with pytest.raises(TypeError):
                fn(x)
        return
    want = _outcome(as_fraction_oracle, x)
    got = _outcome(rational_pair, x)
    if isinstance(want, Fraction):
        assert got == (want.numerator, want.denominator) and type(got[0]) is int and type(got[1]) is int
        assert as_fraction(x) == want
    else:
        assert got == want and _outcome(as_fraction, x) == want
    if isinstance(x, str):
        assert _outcome(as_integer, x) == _outcome(as_integer_oracle, x)


@pytest.mark.parametrize("backend", ["padic", "puiseux-q"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_dist_matches_the_absolute_difference(backend, seed):
    rng = rng_for(f"dist-{backend}-{seed}")
    spec = FieldSpec(backend, rng.choice([2, 3, 5]) if backend == "padic" else None)
    x, y = random_scalar(rng, spec), random_scalar(rng, spec)
    if rng.random() < 0.2:
        y = x
    assert x.dist(y) == (x - y).abs() == y.dist(x)


@given(st.sampled_from([2, 3, 7]), st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_padic_dist_on_large_denominators(p, a, b, k):
    spec = FieldSpec("padic", p)
    x, y = spec.scalar(a * Fraction(p) ** k), spec.scalar(b)
    assert x.dist(y) == (x - y).abs()
    assert x.dist(x) == ABS_ZERO
