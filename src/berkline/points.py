"""Points of the Berkovich affine and projective line, and seminorm evaluation.

A type I-III point of the analytic affine line is a closed ball eta_{a,r}:
center a in the field, radius an exact magnitude (zero magnitude for rigid
points).  The seminorm of a polynomial P at eta_{a,r} is max_i |c_i| r^i over
the Taylor recentering P(T) = sum c_i (T-a)^i.  It is read from the ball's
short centre a, which is 0 or has |a| > r (a puiseux-q polynomial centre loses
its terms of magnitude <= r; any other centre with |a| <= r becomes 0):

* a = 0: the ball is eta_{0,r} and the seminorm is max_n |c_n| r^n over the
  coefficients of P, with no shift;
* otherwise the initial form of P at the Gauss point of radius R = |a|
  certifies the value (Baker-Rumely: the reduction of P there does not vanish
  in the direction of a).  U = |P|_{0,R} = max_n |c_n| R^n is attained by the
  exponents S; when their leading parts do not cancel, |P(a)| = U, and since
  |P(a)| <= |P|_{a,r} <= U the seminorm is exactly U.  The same test gives
  |P(a)| at a rigid point;
* only when the leading parts cancel is P evaluated at a: at a rigid point
  by one Horner pass over its present terms on raw int rows, whose cost
  follows the number of terms and log d, and at a ball P divides by T - a
  and deflates, by |P|_{a,r} = max(|P(a)|, r |Q|_{a,r}) for
  P = P(a) + (T - a) Q.

The seminorm kernel (_seminorm, _certificate) reads a polynomial as a cleared
list [(n, num), ...] of int term maps over one denominator L and the point as
a context built once per call (_Point: the short centre, its initial triple,
p, and the radius and |T| as int pairs).  Seminorms are multiplicative, so L
only scales the value by |L|: the kernel never sees L, and each caller
divides its magnitude out once (eval_seminorm clears P through _clear; the
derivative of fsderiv reads a map's cleared lists, where L cancels; disk
images divide by the one den of P' at a puiseux-q ball and of the quotient
at a padic ball).  No Scalar is built at any point type, and no AbsValue
inside the kernel: a magnitude there is an unreduced int pair (n, d) for
beta^(n/d), d = 0 for zero, and each public query (eval_seminorm,
initial_form, fsderiv's fs_derivative and apply_map) builds one AbsValue
per result, reduced once.  The point-level magnitudes read |a| as a pair
too (Scalar.abs_pair): the short centre, |T(x)| (_log_norm, under
DiskPoint.norm, diam_proj and fsderiv's domain check) and the inverted ball
of the chart at infinity.

Polynomial algebra runs on one clearing for both backends: every value is
read as a num/den pair of int term maps (a padic rational as two constants),
and the coefficients of a polynomial are put over one denominator L, the int
lcm of the constant dens times the product of the distinct other dens
(_cleared).  The synthetic division, the gcd and the products all work on
those int numerators, with no Scalar arithmetic; a Poly result gets one
scalar per output coefficient, left unreduced over its constant den.
Polynomial input has nothing to clear.  One synthetic-division kernel gives
disk images at a padic ball (one pass), the deflation (passes until a
certificate) and the Taylor shift (all passes); a value-only pass over the
present terms on raw int rows gives P(a) at a rigid point (_value_at), and
a Horner pass on raw int rows cut at the image radius r |P'| the image
centre at a puiseux-q ball (_truncated_value); products, sums and
derivatives (the Poly operators, the Wronskian minors and the map
substitution) accumulate int terms by exponent, the denominator of a product
being the product of the denominators.
Laurent polynomials are evaluated multiplicatively through
|T^{-1}(x)| = 1/max(|a|, r), which is finite at every point except the rigid
point 0.

Diameter functions follow the usual conventions: diam_A is the radius (the
max of coordinate radii in higher dimension) and the projective diameter
divides by max(1, |x|)^2, formed on int pairs with one AbsValue for the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BackendMismatch, PoleAtPoint
from .field import (
    ABS_ONE,
    ABS_ZERO,
    PUISEUX,
    AbsValue,
    FieldSpec,
    PadicScalar,
    PuiseuxScalar,
    Scalar,
    _ONE_TERMS,
    _ZERO_TERMS,
    _constant,
    _expansion,
    _fast_reduce,
    _magnitude,
    _padic_split,
    _reduced,
    _scaled,
    _terms_add,
    _terms_at,
    _terms_divide,
    _terms_from_dict,
    _terms_gcd,
    _terms_lowest,
    _terms_mul,
    _terms_neg,
    _terms_shift,
    abs_max,
)

# ---------------------------------------------------------------------------
# Laurent polynomials over a backend field


@dataclass(frozen=True, slots=True)
class Poly:
    """A (Laurent) polynomial with exact backend coefficients.

    ``terms`` maps integer exponents to nonzero scalars, stored sorted.  A
    plain polynomial has no negative exponents.  The terms are checked once,
    at construction: a coefficient over another FieldSpec raises
    BackendMismatch, and exponents that do not strictly increase or a zero
    coefficient raise ValueError (``from_dict`` sorts and drops zeros).
    """

    spec: FieldSpec
    terms: tuple[tuple[int, Scalar], ...]

    def __post_init__(self) -> None:
        spec, prev = self.spec, None
        for n, c in self.terms:
            if c.spec is not spec and c.spec != spec:
                raise BackendMismatch(f"mixed backends: {spec} vs {c.spec}")
            if c.is_zero:
                raise ValueError(f"zero coefficient of T^{n}")
            if prev is not None and n <= prev:
                raise ValueError(f"exponents must strictly increase: T^{n} after T^{prev}")
            prev = n

    @staticmethod
    def from_dict(spec: FieldSpec, coeffs: dict[int, Scalar]) -> "Poly":
        return Poly(spec, tuple(sorted((n, c) for n, c in coeffs.items() if not c.is_zero)))

    @staticmethod
    def from_coeffs(spec: FieldSpec, coeffs: Sequence[Scalar]) -> "Poly":
        """Dense construction: coeffs[i] is the coefficient of T^i."""
        return Poly.from_dict(spec, dict(enumerate(coeffs)))

    @staticmethod
    def constant(spec: FieldSpec, c: Scalar) -> "Poly":
        return Poly.from_dict(spec, {0: c})

    @staticmethod
    def coordinate(spec: FieldSpec) -> "Poly":
        return Poly.from_dict(spec, {0: spec.zero(), 1: spec.one()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_plain(self) -> bool:
        return not self.terms or self.terms[0][0] >= 0

    @property
    def is_constant(self) -> bool:
        return all(n == 0 for n, _ in self.terms)

    def min_exp(self) -> int:
        return self.terms[0][0]

    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def coeff(self, n: int) -> Scalar:
        for m, c in self.terms:
            if m == n:
                return c
        return self.spec.zero()

    def _check(self, other: "Poly") -> None:
        if self.spec != other.spec:
            raise BackendMismatch("polynomials over different backends")

    # +, -, * and the derivative are thin wrappers over the cleared-product
    # kernel below (_clear, _combine, _uncleared)

    def __add__(self, other: "Poly") -> "Poly":
        return self._sum(other, 1)

    def __neg__(self) -> "Poly":
        return Poly(self.spec, tuple([(n, -c) for n, c in self.terms]))

    def __sub__(self, other: "Poly") -> "Poly":
        return self._sum(other, -1)

    def _sum(self, other: "Poly", sign: int) -> "Poly":
        self._check(other)
        lcm, (a, b) = _clear([self, other])
        return _uncleared(self.spec, _combine([(1, a, _ONE_POLY), (sign, b, _ONE_POLY)]), lcm)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        la, (a,) = _clear([self])
        lb, (b,) = _clear([other])
        return _uncleared(self.spec, _combine([(1, a, b)]), _times(la, lb))

    def scale(self, c: Scalar) -> "Poly":
        if c.spec is not self.spec and c.spec != self.spec:
            raise BackendMismatch(f"mixed backends: {self.spec} vs {c.spec}")
        return self * Poly.constant(self.spec, c)

    def shift_exp(self, m: int) -> "Poly":
        """Multiply by T^m."""
        return Poly(self.spec, tuple([(n + m, c) for n, c in self.terms]))

    def derivative(self) -> "Poly":
        """Exact formal derivative: the ints of each coefficient times n, so
        the factor n keeps its backend magnitude."""
        lcm, (a,) = _clear([self])
        return _uncleared(self.spec, _derived(a), lcm)

    def evaluate(self, a: Scalar) -> Scalar:
        """Exact evaluation at a field element (inverts a for Laurent input).

        Horner's rule from the top term down; a gap of g missing exponents
        multiplies by a^g once, so sparse input costs O(terms * log degree)
        products.
        """
        if a.spec is not self.spec and a.spec != self.spec:
            raise BackendMismatch(f"mixed backends: {self.spec} vs {a.spec}")
        if not self.terms:
            return self.spec.zero()
        if self.terms[0][0] < 0 and a.is_zero:
            raise PoleAtPoint("Laurent polynomial evaluated at 0")
        prev, acc = self.terms[-1]
        for n, c in reversed(self.terms[:-1]):
            acc = acc * _scalar_pow(a, prev - n) + c
            prev = n
        if prev > 0:
            acc = acc * _scalar_pow(a, prev)
        elif prev < 0:
            acc = acc * _scalar_pow(a.inv(), -prev)
        return acc

    def gauss_norm(self) -> AbsValue:
        """max over coefficients of their magnitude (the Gauss point value)."""
        return abs_max(c.abs() for _, c in self.terms)


def _scalar_pow(a: Scalar, k: int) -> Scalar:
    """a^k for k >= 1, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else out * a
        k >>= 1
        if not k:
            return out
        a = a * a


def taylor_shift(p: Poly, a: Scalar) -> Poly:
    """The recentering P(T + a), computed exactly (plain polynomials only).

    Its coefficients are the Taylor coefficients b_k = P_k(a) of P at a, read
    off all d passes of _SyntheticDivision (O(d^2) term-map products, sparse
    or dense P alike); the last, b_d, is the leading coefficient of P.
    """
    if not p.is_plain:
        raise PoleAtPoint("taylor_shift is defined for plain polynomials")
    if a.is_zero or p.is_constant:
        return p
    lcm, (nums,) = _clear([p])
    division = _SyntheticDivision(nums, lcm, *_num_den(a))
    values = [_from_num_den(p.spec, *division.divide()) for _ in range(p.degree())]
    return Poly.from_coeffs(p.spec, values + [p.terms[-1][1]])


class _SyntheticDivision:
    """Synthetic division of a plain P by T - a, repeated on each quotient:
    P_0 = P and P_k = P_k(a) + (T - a) P_{k+1}, so that P_k(a) is the k-th
    Taylor coefficient of P at a.

    P is given as a cleared list [(n, N_n), ...] over its one denominator L,
    so c_n = N_n/L, and a as the pair A/B.  With d the degree, P is put over
    B^d once, to e_n = N_n B^(d-n).  Pass k is one Horner pass by A,
    e_n += A e_{n+1} for n = d - 1, ..., k, with no Scalar arithmetic; it
    leaves P_k(a) = e_k / (L B^(d-k)) and the coefficients
    e_{k+1+j} / (L B^(d-k-1-j)) of P_{k+1}, so no denominator grows with k.
    Both are returned as term maps, left unreduced (a magnitude never needs
    the reduced form); callers that need a Scalar build it once.
    """

    __slots__ = ("top", "lcm", "b_powers", "deg", "e", "k")

    def __init__(self, nums: list[tuple[int, tuple]], lcm: tuple, top: tuple, bottom: tuple) -> None:
        self.top, self.lcm, self.deg, self.k = top, lcm, nums[-1][0], 0
        self.b_powers = [_ONE_TERMS]
        for _ in range(self.deg):
            self.b_powers.append(_times(self.b_powers[-1], bottom))
        self.e = {n: _times(num, self.b_powers[self.deg - n]) for n, num in nums}

    def divide(self) -> tuple[tuple, tuple]:
        """Pass k: P_k(a) as a num/den pair of term maps, leaving P_{k+1}."""
        e, top, k = self.e, self.top, self.k
        acc = e.get(self.deg, _ZERO_TERMS)
        for n in range(self.deg - 1, k - 1, -1):
            acc = _terms_mul(top, acc)
            if n in e:
                acc = _terms_add(e[n], acc)
            if acc[1]:
                e[n] = acc
            else:
                e.pop(n, None)
        self.k = k + 1
        return acc, _times(self.lcm, self.b_powers[self.deg - k])

    def quotient(self) -> tuple[list[tuple[int, tuple]], tuple]:
        """P_k after k passes as a cleared list (nums e_n B^(n-k)) and its one
        denominator L B^(d-k)."""
        e, b, k = self.e, self.b_powers, self.k
        nums = [(n - k, _times(e[n], b[n - k])) for n in range(k, self.deg + 1) if n in e]
        return nums, _times(self.lcm, b[self.deg - k])


def _value_at(nums: list[tuple[int, tuple]], lcm: tuple, top: tuple, bottom: tuple) -> tuple[tuple, tuple]:
    """P(a) as a num/den pair of term maps, for a plain P given as a cleared
    list over lcm and a = A/B: sum_n N_n A^n B^(d-n) over lcm B^d, the value
    of _SyntheticDivision's first pass, term map for term map.

    One Horner pass over the present terms only, on raw int rows over one
    exponent denominator q, the lcm of every map's (the layout of
    _truncated_value): the accumulator is one dict of ints per level,
    multiplied by A^g for a gap of g exponents, into which the term
    N_n B^(d-n) is added, with the running power B^(d-n) kept beside it as a
    raw row (none for B = 1).  A^g and B^g are taken by squaring, once per
    gap length, so the pass takes O(terms log d) raw products, where a full
    pass takes d, and it keeps no quotient.  Nothing is sorted, put over a
    common denominator or reduced until the end, where num and den become
    term maps once."""
    q = _denom([nums, [(0, top), (0, bottom), (0, lcm)]])
    a_row = _over(top, q)
    b_row = None if bottom == _ONE_TERMS else _over(bottom, q)
    powers: dict[int, tuple] = {}  # g -> (A^g, B^g) as raw terms, B^g None for B = 1
    n, num = nums[-1]
    acc, scale = dict(_over(num, q)), [(0, 1)]  # scale: B^(d-n)
    # the pass ends with a gap of n to exponent 0, where it adds no term
    for m, num in [*reversed(nums[:-1]), (0, None)]:
        if n > m:
            if n - m not in powers:
                powers[n - m] = (_row_power(a_row, n - m), b_row and _row_power(b_row, n - m))
            a_g, b_g = powers[n - m]
            row: dict[int, int] = {}
            _add_product(row, acc.items(), a_g)
            acc = row
            if b_g:
                scale = _row_product(scale, b_g)
        if num is not None:
            _add_product(acc, _over(num, q), scale)
        n = m
    value = _reduced(q, tuple(sorted([kc for kc in acc.items() if kc[1]])))
    if b_row is None:
        return value, lcm
    den: dict[int, int] = {}
    _add_product(den, _over(lcm, q), scale)
    return value, _reduced(q, tuple(sorted([kc for kc in den.items() if kc[1]])))


def _add_product(row: dict[int, int], x: Iterable, y: Sequence) -> None:
    """Add into row the product of the raw int terms x and y (a zero int
    of x is skipped)."""
    get = row.get
    for kx, cx in x:
        if cx:
            for ky, cy in y:
                e = kx + ky
                row[e] = get(e, 0) + cx * cy


def _row_power(x: Sequence, k: int) -> Sequence:
    """x^k for raw int terms x and k >= 1, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else _row_product(out, x)
        k >>= 1
        if not k:
            return out
        x = _row_product(x, x)


def _row_product(x: Sequence, y: Sequence) -> list[tuple[int, int]]:
    """The raw int terms of x * y, zero ints dropped."""
    row: dict[int, int] = {}
    _add_product(row, x, y)
    return [kc for kc in row.items() if kc[1]]


def _power(x: tuple, k: int) -> tuple:
    """x^k for a term map and k >= 0, by repeated squaring."""
    out = _ONE_TERMS
    while k:
        if k & 1:
            out = _times(out, x)
        k >>= 1
        if k:
            x = _times(x, x)
    return out


def _num_den(c: Scalar) -> tuple[tuple, tuple]:
    """A scalar as a num/den pair of term maps; a padic n/d is the constant
    maps n and d."""
    if type(c) is PuiseuxScalar:
        return c.num_terms, c.den_terms
    v = c.value  # type: ignore[attr-defined]
    return (1, ((0, v.numerator),)), (1, ((0, v.denominator),))


def _from_num_den(spec: FieldSpec, num: tuple, den: tuple) -> Scalar:
    """The scalar num/den of two term maps, unreduced (the inverse of _num_den)."""
    if not num[1]:
        return spec.zero()
    if spec.backend == PUISEUX:
        return PuiseuxScalar(spec, num, den)
    return PadicScalar(spec, Fraction(num[1][0][1], den[1][0][1]))


def _times(x: tuple, y: tuple) -> tuple:
    """The product of two term maps, with no work for a factor 1."""
    if x == _ONE_TERMS:
        return y
    return x if y == _ONE_TERMS else _terms_mul(x, y)


def _is_constant(den: tuple) -> bool:
    return len(den[1]) == 1 and not den[1][0][0]


def _cleared(pairs: list[tuple[tuple, tuple]]) -> tuple[list[tuple], tuple]:
    """(nums, L): num/den pairs of term maps over one L, the int lcm of the
    constant dens times the product of the distinct other dens; each num is
    multiplied by L over its own den."""
    scale, dens, ints = 1, [], []  # ints: each constant den, 0 for the others
    for _, den in pairs:
        d = den[1][0][1] if _is_constant(den) else 0
        if d and scale % d:
            scale = math.lcm(scale, d)
        elif not d and den not in dens:
            dens.append(den)
        ints.append(d)
    if scale == 1 and not dens:
        return [num for num, _ in pairs], _ONE_TERMS
    nums = []
    for (num, den), d in zip(pairs, ints):
        num = _scaled(num, scale // d if d else scale)
        for m in dens:
            if d or m != den:
                num = _terms_mul(num, m)
        nums.append(num)
    lcm = _constant(scale)
    for m in dens:
        lcm = _times(lcm, m)
    return nums, lcm


# -- products on cleared polynomials -----------------------------------------
#
# A cleared polynomial is a list [(n, num), ...], sorted by n, whose
# coefficient of T^n is num / L: num an int term map and L one denominator
# for the whole list (a padic value is a constant map).  Products, sums and
# derivatives run on the nums alone, with no Scalar arithmetic, and the
# denominator of a product is the product of the denominators.  Scalars are
# built once per output coefficient.

_ONE_POLY = [(0, _ONE_TERMS)]  # the cleared constant 1


def _clear(polys: Sequence[Poly]) -> tuple[tuple, list[list[tuple[int, tuple]]]]:
    """(L, cleared lists): the polynomials over one joint L (``_cleared``)."""
    nums, lcm = _cleared([_num_den(c) for p in polys for _, c in p.terms])
    it = iter(nums)  # zip stops at the end of p.terms before it reads ahead
    return lcm, [[(n, num) for (n, _), num in zip(p.terms, it)] for p in polys]


def _combine(products: Sequence[tuple[int, list, list]]) -> list[tuple[int, tuple]]:
    """The cleared sum of sign * a * b over the (sign, a, b) triples.

    Every num is read over the lcm D of the operands' exponent denominators
    (_denom, _over: a num already over D, every padic num among them, is
    read as it is), and the ints are accumulated by exponent, one dict per
    power of T (Monagan-Pearce: sparse products accumulate by exponent);
    each output num is made minimal once at the end, in _collected, and
    zero coefficients are dropped.
    """
    denom = _denom([part for _, a, b in products for part in (a, b)])
    acc: dict[int, dict[int, int]] = {}
    for sign, a, b in products:
        right = [(m, _over(y, denom)) for m, y in b]
        if sign > 0:
            left = [(n, _over(x, denom)) for n, x in a]
        else:
            left = [(n, [(k, -c) for k, c in _over(x, denom)]) for n, x in a]
        _accumulate(acc, left, right)
    return _collected(acc, denom)


def _wronskian(a: list[tuple[int, tuple]], b: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """The cleared a' b - b' a of two cleared lists, in one product pass.

    With a = sum A_n T^n and b = sum B_m T^m, the minor is
    sum (n - m) A_n B_m T^(n+m-1): each pair of terms is multiplied once,
    by the int n - m, and the pairs with n = m drop out.  Two products of a
    derivative (as _combine would take them) multiply every pair twice.
    The result is the same cleared list, accumulated as in _combine.
    """
    denom = _denom((a, b))
    acc: dict[int, dict[int, int]] = {}
    right = [(m, _over(y, denom)) for m, y in b]
    for n, x in a:
        x = _over(x, denom)
        for m, y in right:
            w = n - m
            if not w:
                continue
            row = acc.get(n + m - 1)
            if row is None:
                row = acc[n + m - 1] = {}
            get = row.get
            for kx, cx in x:
                cx *= w
                for ky, cy in y:
                    e = kx + ky
                    row[e] = get(e, 0) + cx * cy
    return _collected(acc, denom)


def _denom(parts: Sequence[Sequence[tuple[int, tuple]]]) -> int:
    """The lcm D of the exponent denominators of the nums of the cleared
    lists; a num whose denominator divides D so far (1, for every padic
    num) takes no lcm."""
    denom = 1
    for part in parts:
        for _, num in part:
            if denom % num[0]:
                denom = math.lcm(denom, num[0])
    return denom


def _over(num: tuple, denom: int):
    """num's (k, c) terms over denom, a multiple of its own denominator;
    the terms as they are when num is over denom already."""
    d, terms = num
    if d == denom:
        return terms
    m = denom // d
    return [(k * m, c) for k, c in terms]


# A raw row list [(n, [(k, c), ...]), ...] is a polynomial whose coefficient
# of T^n is the sum of c t^(k/D) over one D fixed by the caller: unsorted in
# n and in k, unreduced, with no zero int.  A substitution keeps its powers
# and products in this form and collects only its outputs.


def _accumulate(acc: dict[int, dict[int, int]], a: Sequence, b: Sequence) -> None:
    """Add the product of the raw row lists a and b into acc, the ints
    accumulated by power of T and exponent."""
    for n, x in a:
        for m, y in b:
            row = acc.get(n + m)
            if row is None:
                row = acc[n + m] = {}
            get = row.get
            for kx, cx in x:
                for ky, cy in y:
                    e = kx + ky
                    row[e] = get(e, 0) + cx * cy


def _raw_product(a: Sequence, b: Sequence) -> list[tuple[int, list]]:
    """The raw row list of a * b, zero ints and empty rows dropped."""
    acc: dict[int, dict[int, int]] = {}
    _accumulate(acc, a, b)
    out = []
    for n, row in acc.items():
        terms = [kc for kc in row.items() if kc[1]]
        if terms:
            out.append((n, terms))
    return out


def _collected(acc: dict[int, dict[int, int]], denom: int) -> list[tuple[int, tuple]]:
    """The cleared list of ints accumulated by power of T and exponent over
    denom: rows sorted by power, each num sorted by exponent (a row of one
    entry needs no sort) and made minimal, zero coefficients dropped.  The
    one place where accumulated ints become term maps."""
    out = []
    for n in sorted(acc):
        row = acc[n]
        if len(row) == 1:
            (kc,) = row.items()
            if kc[1]:
                out.append((n, _reduced(denom, (kc,))))
            continue
        terms = sorted([kc for kc in row.items() if kc[1]])
        if terms:
            out.append((n, _reduced(denom, tuple(terms))))
    return out


def _derived(a: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """The formal derivative of a cleared polynomial (same denominator): the
    ints of the coefficient of T^n times n."""
    return [(n - 1, _scaled(num, n)) for n, num in a if n]


def _uncleared(spec: FieldSpec, a: list[tuple[int, tuple]], den: tuple) -> Poly:
    """The Poly of a cleared polynomial over den, one scalar per coefficient.

    A constant den (always, for padic) is kept as it is, so the quotient may
    be unreduced; any other den goes through _fast_reduce, whose term
    threshold bounds growth as in Scalar arithmetic."""
    if _is_constant(den):
        return Poly(spec, tuple([(n, _from_num_den(spec, num, den)) for n, num in a]))
    return Poly(spec, tuple([(n, PuiseuxScalar(spec, *_fast_reduce(num, den))) for n, num in a]))


def divide_linear(p: Poly, a: Scalar) -> tuple[Scalar, Poly]:
    """(P(a), Q) with P = P(a) + (T - a) Q, for a plain polynomial: one pass
    of _SyntheticDivision.  Q's coefficients share one denominator, so a
    seminorm of Q that falls back to deflation clears nothing.
    """
    if not p.is_plain:
        raise PoleAtPoint("divide_linear is defined for plain polynomials")
    if a.is_zero or p.is_zero:
        return p.coeff(0), Poly(p.spec, tuple([(n - 1, c) for n, c in p.terms if n]))
    lcm, (nums,) = _clear([p])
    division = _SyntheticDivision(nums, lcm, *_num_den(a))
    value = _from_num_den(p.spec, *division.divide())
    nums, den = division.quotient()
    return value, Poly(p.spec, tuple([(n, _from_num_den(p.spec, num, den)) for n, num in nums]))


def initial_form(p: Poly, a: Scalar) -> tuple[AbsValue, tuple[int, ...]] | None:
    """The certificate |P(a)| = |P|_{0,|a|} for a nonzero plain P and a != 0
    (_certificate on P cleared over L, whose U divides by |L| once)."""
    lcm, (nums,) = _clear([p])
    point = _Point(rigid(a))
    certificate = _certificate(nums, point)
    return certificate and (_magnitude(*_log_div(certificate[0], _term_abs(lcm, point.prime))), certificate[1])


# -- gcd and exact division in Z[u][T], u = t^(1/D), for both backends -------
#
# Polynomials cleared together (_clear) and shifted into Z[u][T] (_biv; a
# padic n/d is the constant n, D = 1) are their images times one common unit:
# the certificate, the gcd and the exact division of a map all read the lists
# series_map clears once.  By Gauss's lemma over the UFD Z[u], a primitive gcd
# divides there every polynomial it divides over the field.


def _biv(lists: list[list[tuple[int, tuple]]]) -> list[list[tuple[int, tuple]]]:
    """The cleared lists in Z[u][T]: all times the one power of u that
    leaves no negative exponent."""
    nums = [num for a in lists for _, num in a]
    denom = math.lcm(*[num[0] for num in nums])
    shift = min([_terms_lowest(num, denom) for num in nums], default=0)
    return [[(n, _terms_shift(num, -shift, denom)) for n, num in a] for a in lists]


def _biv_pp(polys: list[list[tuple[int, tuple]]]) -> list[list[tuple[int, tuple]]]:
    """Divide out the joint content (the Z[u] gcd of every coefficient,
    taken shortest first, leading positively)."""
    content = _ZERO_TERMS
    for coeff in sorted([c for a in polys for _, c in a], key=lambda c: len(c[1])):
        content = _terms_gcd(content, coeff)
        if content == _ONE_TERMS:
            return polys
    return [[(n, _terms_divide(c, content, True)) for n, c in a] for a in polys]


def _biv_divide(a: list[tuple[int, tuple]], b: list[tuple[int, tuple]], exact: bool) -> list[tuple[int, tuple]]:
    """Elimination of a by b in Z[u][T]: with ``exact``, the quotient a / b
    when b divides a there (b primitive and dividing a over the field
    suffices, by Gauss's lemma); otherwise the fraction-free pseudo-remainder."""
    *rest, (db, lb) = b
    r, q = dict(a), {}
    while r and (dr := max(r)) >= db:
        c = r.pop(dr)
        if exact:
            c = q[dr - db] = _terms_divide(c, lb, True)
        else:
            r = {n: _terms_mul(v, lb) for n, v in r.items()}
        for n, cb in rest:
            k = n + dr - db
            val = _terms_add(r.get(k, _ZERO_TERMS), _terms_neg(_terms_mul(c, cb)))
            if val[1]:
                r[k] = val
            else:
                r.pop(k, None)
    return sorted((q if exact else r).items())


def _biv_gcd(polys: Sequence[Poly], images: Sequence[list], sign: int) -> list[tuple[int, tuple]]:
    """The chain g = gcd(g, f_i), up to a unit, of plain polys given as
    images over one L whose top coefficient has the sign ``sign``.  A step
    is the primitive pseudo-remainder sequence (naive Euclid would
    accumulate rational-function coefficients with exponential blowup) of
    its operands as clearing them alone gives them: primitive images times
    the top sign of their own L, the product of the top signs of their
    distinct non-constant dens.  Padic g leads positively: the monic gcd
    times an int."""
    padic = polys[0].spec.backend != PUISEUX
    dens = [{d for d in [_num_den(c)[1] for _, c in p.terms] if not _is_constant(d)} for p in polys]
    g = _signed(_biv_pp([images[0]])[0], sign)
    for i in range(1, len(polys)):
        step = (-1) ** sum([d[1][-1][1] < 0 for d in (dens[0] | dens[1] if i == 1 else dens[i])])
        a, b = _signed(g, step), _signed(_biv_pp([images[i]])[0], step * sign)
        while b:  # a first remainder of lower degree swaps a and b
            a, b = b, _biv_pp([_biv_divide(a, b, False)])[0]
        g = _signed(a, -1) if padic and a and a[-1][1][1][0][1] < 0 else a
        if g and not g[-1][0]:
            break
    return g


def _signed(a: list[tuple[int, tuple]], sign: int) -> list[tuple[int, tuple]]:
    return a if sign > 0 else [(n, _terms_neg(c)) for n, c in a]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor of two plain polynomials, up to a unit
    (_biv_gcd): primitive in Z[u][T] for puiseux-q, monic for padic."""
    if p.spec != q.spec:
        raise BackendMismatch("gcd over different backends")
    den, lists = _clear([p, q])
    g = _biv_gcd([p, q], _biv(lists), -1 if den[1][-1][1] < 0 else 1)
    return _uncleared(p.spec, g, g[-1][1] if g and p.spec.backend != PUISEUX else _ONE_TERMS)


def coprime_certificate(polys: Sequence[Poly]) -> bool:
    """A sound fast test (_coprime) that plain puiseux-q polynomials share no
    common factor; False when inconclusive and for padic coefficients."""
    return len(polys) > 1 and polys[0].spec.backend == PUISEUX and _coprime(polys, *_clear(polys))


def _coprime(polys: Sequence[Poly], den: tuple, lists: Sequence[list]) -> bool:
    """Whether puiseux-q polys, cleared over den, are certified coprime:
    specializing u = t^(1/D) (D of their coefficients' maps) at a sigma
    where some list keeps its degree can only enlarge the gcd, so a constant
    specialized gcd certifies.  A pole (den vanishes) is skipped; elsewhere
    the lists there are the polys times one rational."""
    maps = [m for p in polys for _, c in p.terms for m in (c.num_terms, c.den_terms)]  # type: ignore[attr-defined]
    denom = math.lcm(*[m[0] for m in maps])
    for sigma in (Fraction(2), Fraction(3), Fraction(5, 2)):
        # each list at u = sigma, cleared to a term map over Z[T]
        values = [_terms_from_dict({n: _terms_at(num, denom, sigma) for n, num in a})[0] for a in lists]
        keeps = any(v[1] and v[1][-1][0] == a[-1][0] for v, a in zip(values, lists))
        if not keeps or not _terms_at(den, denom, sigma):
            continue
        g = values[0]
        for v in values[1:]:
            g = _terms_gcd(g, v)
            if _is_constant(g):
                return True
    return False


def _coprime_coords(polys: Sequence[Poly], den: tuple, lists: list) -> tuple[tuple, list]:
    """(den, lists) of a map's plain coordinates, none constant, cleared over
    den, without their common factor: unless _coprime certifies the nonzero
    ones or their gcd g (_biv_gcd) is constant, their images are divided
    exactly by sign * g, the image of g over den, and lose their joint
    content, over den 1."""
    polys, nonzero = zip(*[(p, a) for p, a in zip(polys, lists) if a])
    if polys[0].spec.backend == PUISEUX and _coprime(polys, den, nonzero):
        return den, lists
    images, sign = _biv(lists), -1 if den[1][-1][1] < 0 else 1
    g = _biv_gcd(polys, [a for a in images if a], sign)
    if not g[-1][0]:
        return den, lists
    return _ONE_TERMS, _biv_pp([_biv_divide(a, _signed(g, sign), True) for a in images])


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True, eq=False, slots=True)
class DiskPoint:
    """eta_{a,r}: the point of the affine line given by a closed ball.

    Type I when r is the zero magnitude, type II when the log-radius lies in
    the declared value group, type III otherwise.  Equality is ball equality:
    same radius and |a - b| <= r.
    """

    center: Scalar
    radius: AbsValue

    def __post_init__(self) -> None:
        # a plain type test: pgl_point and apply_map build points per call
        if not isinstance(self.center, Scalar):
            raise ValueError(f"a ball centre must be a Scalar, not {type(self.center).__name__}")
        if type(self.radius) is not AbsValue:
            raise ValueError(f"a ball radius must be an AbsValue, not {type(self.radius).__name__}")

    @property
    def spec(self) -> FieldSpec:
        return self.center.spec

    @property
    def is_rigid(self) -> bool:
        return self.radius.is_zero

    def point_type(self) -> str:
        r = self.radius
        if r.is_zero:
            return "I"
        # the reduced n/d lies in (1/g)Z iff d divides g
        group = self.spec.value_group
        return "II" if group == "Q" or group % r.d == 0 else "III"

    def norm(self) -> AbsValue:
        """|T(x)| = max(|a|, r), formed on int pairs (_log_norm)."""
        return _magnitude(*_log_norm(self))

    def contains(self, other: "DiskPoint") -> bool:
        return other.radius <= self.radius and (self.center - other.center).abs() <= self.radius

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiskPoint):
            return NotImplemented
        if self.spec != other.spec or self.radius != other.radius:
            return False
        return (self.center - other.center).abs() <= self.radius

    def __hash__(self) -> int:
        return hash((self.radius, _ball_key(self.center, self.radius)))

    def __repr__(self) -> str:
        return f"eta({self.center!r}, {self.radius!r})"


def _ball_key(a: Scalar, r: AbsValue) -> object:
    """A value shared by every centre of the ball of radius r around a.

    padic: a itself when r = 0; otherwise the residue of a = num/den modulo
    p^m, m = -floor(log_p r), as (num * u^-1 mod p^(m+e)) / p^e where
    den = p^e u, and 0 when v_p(a) >= m.  puiseux-q: field._expansion of a,
    cut at the terms inside the ball of radius r around 0 when r > 0 (for a
    polynomial centre, its short centre's lowest terms).
    """
    if type(a) is PuiseuxScalar:
        return _expansion(a.num_terms, a.den_terms, r)
    p, v = a.spec.p, a.value  # type: ignore[attr-defined]
    if r.is_zero or not v:
        return v
    m = -(r.n // r.d)
    val, _, u = _padic_split(v.numerator, v.denominator, p)
    if val >= m:
        return 0
    e = max(0, -val)
    mod = p ** (m + e)
    return Fraction(v.numerator * pow(u, -1, mod) % mod, p**e)


def rigid(center: Scalar) -> DiskPoint:
    return DiskPoint(center, ABS_ZERO)


def gauss_point(spec: FieldSpec) -> DiskPoint:
    return DiskPoint(spec.zero(), ABS_ONE)


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A point of the projective line: an affine DiskPoint or a ball around
    infinity stored in the reciprocal coordinate."""

    chart: str  # "affine" | "infinity"
    point: DiskPoint

    def __post_init__(self) -> None:
        # plain tests: pgl_point builds a point per generator
        if self.chart != "affine" and self.chart != "infinity":
            raise ValueError(f"a chart must be 'affine' or 'infinity', not {self.chart!r}")
        if not isinstance(self.point, DiskPoint):
            raise ValueError(f"a projective point holds a DiskPoint, not {type(self.point).__name__}")

    @staticmethod
    def affine(point: DiskPoint) -> "ProjPoint":
        return ProjPoint("affine", point)

    @staticmethod
    def infinity(spec: FieldSpec) -> "ProjPoint":
        return ProjPoint("infinity", rigid(spec.zero()))

    @property
    def is_infinity(self) -> bool:
        return self.chart == "infinity" and self.point.is_rigid and self.point.center.is_zero

    def to_affine(self) -> DiskPoint | None:
        """The affine-chart representative, or None for the rigid point at
        infinity (the only point without one)."""
        return self._affine

    @cached_property
    def _affine(self) -> DiskPoint | None:
        # a ball held in the chart at infinity is inverted once per point
        if self.chart == "affine":
            return self.point
        c, (rn, rd) = self.point.center, (self.point.radius.n, self.point.radius.d)
        cn, cd = c.abs_pair()
        if rn * cd < cn * rd:
            # the reciprocal ball avoids 0, so it inverts to a ball of
            # radius r / |c|^2, formed on the int pairs
            return DiskPoint(c.inv(), _magnitude(rn * cd - 2 * cn * rd, rd * cd))
        if rd:
            # contains the origin of the reciprocal chart: eta_{0, 1/r}
            return DiskPoint(c.spec.zero(), _magnitude(-rn, rd))
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.point.spec != other.point.spec:
            return False
        a, b = self.to_affine(), other.to_affine()
        if a is None or b is None:
            return a is None and b is None
        return a == b

    def __hash__(self) -> int:
        # equal points have equal affine representatives
        return hash(self.to_affine())


# ---------------------------------------------------------------------------
# Seminorm evaluation and diameters


def eval_seminorm(p: Poly, x: DiskPoint) -> AbsValue:
    """|P(x)| for the multiplicative seminorm of the point x: _seminorm on P
    cleared once over L (_clear), |L| divided out of its int pair, and one
    AbsValue built.  A point over another FieldSpec than P raises
    BackendMismatch, as scalar arithmetic does."""
    if p.spec is not x.spec and p.spec != x.spec:
        raise BackendMismatch(f"mixed backends: {p.spec} vs {x.spec}")
    lcm, (nums,) = _clear([p])
    point = _Point(x)
    value = _seminorm(nums, point)
    if lcm != _ONE_TERMS:
        value = _log_div(value, _term_abs(lcm, point.prime))
    return _magnitude(*value)


# -- magnitudes as int pairs inside one query --------------------------------
#
# The seminorm kernel and the queries on it (eval_seminorm, initial_form, the
# derivative and disk images of fsderiv) carry a magnitude beta^(n/d) as the
# unreduced int pair (n, d), d > 0, and the zero magnitude as a pair with
# d = 0 and n < 0: the convention of AbsValue, so pairs compare by
# cross-multiplication and multiply by adding exponents, and a sum of
# exponents with a zero pair is a zero pair again.  No gcd runs inside a
# query; each public result is reduced once, by the one AbsValue built from
# its pair (field._magnitude).  The point layer reads |a| the same way, off
# the backend's one pair reader (Scalar.abs_pair, on which Scalar.abs is
# built): the short centre, |T(x)| (_log_norm) behind DiskPoint.norm,
# diam_proj and fsderiv's Domain.contains, the inverted ball of
# ProjPoint.to_affine and fsderiv's generator check decide on ints, and
# build an AbsValue only for a result.

_LOG_ZERO = (-1, 0)


def _log_lt(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def _log_max(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return b if a[0] * b[1] < b[0] * a[1] else a


def _log_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product of two magnitudes (zero absorbs)."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return an + bn, ad
    return an * bd + bn * ad, ad * bd


def _log_div(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The quotient of two magnitudes, b nonzero."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return an - bn, ad
    return an * bd - bn * ad, ad * bd


def _log_norm(x: DiskPoint) -> tuple[int, int]:
    """|T(x)| = max(|a|, r) as an int pair, |a| read off the centre's
    abs_pair."""
    r = x.radius
    n, d = x.center.abs_pair()
    return (n, d) if r.n * d < n * r.d else (r.n, r.d)


class _Point:
    """The context of seminorms at one point x = eta_{a,r}, built once per
    call: the short centre a (the centre itself at a rigid point), its num/den
    term maps A/B, the residue characteristic p (0 for puiseux-q), the radius
    r and |T(x)| = max(|a|, r) as int pairs (``radius``, ``norm``), and for
    a != 0 the initial triple of a as ``initial`` = (v, D, alpha, beta): the
    valuation v/D of a, and the lowest num and den coefficients (puiseux-q)
    or the p-free parts of a's numerator and denominator (padic, D = 1)."""

    __slots__ = ("centre", "prime", "radius", "norm", "top", "bottom", "initial")

    def __init__(self, x: DiskPoint) -> None:
        r = x.radius
        a = self.centre = x.center if r.is_zero else short_centre(x)
        self.radius = self.norm = (r.n, r.d)
        self.prime = a.spec.p or 0
        if a.is_zero:
            return
        top, bottom = self.top, self.bottom = _num_den(a)
        if self.prime:
            v, alpha, beta = _padic_split(top[1][0][1], bottom[1][0][1], self.prime)
            self.initial = (v, 1, alpha, beta)
        else:
            (dn, tn), (dd, td) = top, bottom
            denom = math.lcm(dn, dd)
            self.initial = (tn[0][0] * (denom // dn) - td[0][0] * (denom // dd), denom, tn[0][1], td[0][1])
        # |a| = beta^(-v/D); a short centre keeps |a| when |a| > r, so
        # max(|a|, r) is |T| at x
        self.norm = _log_max(self.radius, (-self.initial[0], self.initial[1]))


def _term_abs(num: tuple, prime: int) -> tuple[int, int]:
    """|num| as an int pair, for an int term map (padic: a constant, over
    the prime p)."""
    if not num[1]:
        return _LOG_ZERO
    if prime:
        return -_padic_split(num[1][0][1], 1, prime)[0], 1
    return -num[1][0][0], num[0]


def _weights(nums: list[tuple[int, tuple]], step: int, denom: int, prime: int) -> tuple[list[int], int, list[int]]:
    """(weights, denom, leads) of a cleared list at valuation step/denom: the
    valuation of each term num T^n there as ints over one common denom, and
    the leading coefficient of each num (puiseux-q: its lowest coefficient;
    padic: its p-free part)."""
    if prime:
        splits = [_padic_split(num[1][0][1], 1, prime) for _, num in nums]
        return [v * denom + n * step for (n, _), (v, _, _) in zip(nums, splits)], denom, [u for _, u, _ in splits]
    common = math.lcm(denom, *[num[0] for _, num in nums])
    step *= common // denom
    weights = [num[1][0][0] * (common // num[0]) + n * step for n, num in nums]
    return weights, common, [num[1][0][1] for _, num in nums]


def _certificate(nums: list[tuple[int, tuple]], x: _Point) -> tuple[tuple[int, int], tuple[int, ...]] | None:
    """The certificate |P(a)| = |P|_{0,|a|} for a nonzero plain P, given as
    a cleared list, and the nonzero centre a of x.

    U = |P|_{0,|a|} = max_n |c_n| |a|^n needs no shift, and S lists the
    exponents n whose terms attain it.  Their leading parts sum to
    sigma = sum_{n in S} in(c_n) in(a)^n, in(x) being the lowest num
    coefficient over the lowest den coefficient for puiseux-q and the unit
    part of x mod p for padic.  When sigma != 0 the terms of S do not cancel,
    so |P(a)| = U, and the witness (U, S) is returned, U as an int pair;
    None when sigma = 0.  A single attaining term never cancels, so sigma is
    formed only for two or more.  Valuations are ints over one common
    denominator (puiseux-q) or p-adic valuations of the ints, and sigma is
    one int over the leading denominator of a, read mod p for padic.  The
    list's one denominator scales U by its magnitude and sigma by a unit, so
    the certificate of the nums holds for the coefficients too.
    """
    step, denom, alpha, beta = x.initial
    prime = x.prime
    weights, denom, leads = _weights(nums, step, denom, prime)
    best = min(weights)
    support = [i for i, w in enumerate(weights) if w == best]
    if len(support) > 1:
        # sigma times beta^d: an int, and for padic a residue of the same
        # class, since p does not divide beta
        d = nums[support[-1]][0]
        sigma = 0
        for i in support:
            n = nums[i][0]
            sigma += leads[i] * alpha**n * beta ** (d - n)
        if not (sigma % prime if prime else sigma):
            return None
    return (-best, denom), tuple([nums[i][0] for i in support])


def _seminorm(nums: list[tuple[int, tuple]], x: _Point) -> tuple[int, int]:
    """|P(x)| |L| as an int pair, for P given as a cleared list over one
    denominator L.

    For a plain polynomial this is max_i |c_i| r^i over the coefficients
    recentred at the short centre a: read off P itself when a = 0, certified
    by _certificate when a != 0, and otherwise found by evaluation.  At a
    rigid point that is P(a), one value-only pass over the present terms
    (_value_at); at a ball, passes of _SyntheticDivision give c_j = P_j(a)
    until _certificate holds for the nums of a quotient P_k over its one den,
    and the value is the max of |c_j| r^j over j < k and r^k |P_k(a)|.  A
    Laurent polynomial is written T^{-m} Q with Q plain and evaluated
    multiplicatively, as |Q(x)| / |T(x)|^m; this is exact at every point
    other than the rigid point 0, where T has seminorm zero.
    """
    if not nums:
        return _LOG_ZERO
    neg = -nums[0][0]
    if neg > 0:
        tn, td = x.norm
        if not td:
            raise PoleAtPoint("Laurent polynomial at the rigid point 0")
        return _log_div(_seminorm([(n + neg, num) for n, num in nums], x), (tn * neg, td))
    a, (rn, rd), prime = x.centre, x.radius, x.prime
    if a.is_zero:
        if not rd:
            n, num = nums[0]
            return _LOG_ZERO if n else _term_abs(num, prime)
        weights, denom, _ = _weights(nums, -rn, rd, prime)
        return -min(weights), denom
    certificate = _certificate(nums, x)
    if certificate is not None:
        return certificate[0]
    if not rd:  # sigma = 0 at a rigid point: P(a) itself
        num, den = _value_at(nums, _ONE_TERMS, x.top, x.bottom)
        return _log_div(_term_abs(num, prime), _term_abs(den, prime))
    # sigma = 0 at a ball: divide until a quotient is certified (a constant
    # one always is); r^k is the pair (k rn, rd)
    division, value, k = _SyntheticDivision(nums, _ONE_TERMS, x.top, x.bottom), _LOG_ZERO, 0
    while certificate is None:
        num, den = division.divide()
        value = _log_max(value, _log_mul(_log_div(_term_abs(num, prime), _term_abs(den, prime)), (k * rn, rd)))
        k += 1
        nums, den = division.quotient()
        certificate = _certificate(nums, x)
    return _log_max(value, _log_mul(_log_div(certificate[0], _term_abs(den, prime)), (k * rn, rd)))


def _disk_image(nums: list[tuple[int, tuple]], den: tuple, x: _Point) -> tuple[Scalar, tuple[int, int]]:
    """(c, R): the image of x = eta_{a,r} under a plain P, a cleared list
    over den, with a the short centre of x: R = r |Q|_{a,r} for
    P = P(a) + (T - a) Q, as an int pair, and c a centre of the image ball,
    P(a) itself or a value within R of it.  Only c is built as a Scalar.

    * A puiseux-q ball builds no quotient.  Every nonzero int k has |k| = 1
      there, so with b_k the Taylor coefficients of P at a,
      |P'|_{a,r} = max_{k>=1} |k b_k| r^(k-1) = R / r: R is r times the
      seminorm of P' (_derived, over the same den), the seminorm that
      fs_derivative takes.  c is P(a) cut at R (_truncated_value): one
      Horner pass that keeps only the terms that can reach above the image
      radius, so the centre may print shorter than P(a) and names the same
      ball.
    * A padic ball keeps one pass of _SyntheticDivision for P(a) and reads R
      off the quotient's nums over its one den, den B^(d-1) (for a = 0, P(0)
      and P's own shifted terms): there |k|_p < 1 can make r |P'|_{a,r}
      smaller than R.
    * A rigid point: c = P(a) alone (_value_at), and R = 0.
    """
    spec, r, prime = x.centre.spec, x.radius, x.prime
    if r[1] and not prime:
        radius = _log_div(_log_mul(r, _seminorm(_derived(nums), x)), _term_abs(den, 0))
        top, bottom = (_ZERO_TERMS, _ONE_TERMS) if x.centre.is_zero else (x.top, x.bottom)
        return _from_num_den(spec, *_truncated_value(nums, den, top, bottom, radius)), radius
    if x.centre.is_zero or not nums:
        c0 = nums[0][1] if nums and not nums[0][0] else _ZERO_TERMS
        value, quotient, qden = _from_num_den(spec, c0, den), [(n - 1, num) for n, num in nums if n], den
    elif not r[1]:
        return _from_num_den(spec, *_value_at(nums, den, x.top, x.bottom)), r
    else:
        division = _SyntheticDivision(nums, den, x.top, x.bottom)
        value = _from_num_den(spec, *division.divide())
        quotient, qden = division.quotient()
    return value, _log_div(_log_mul(r, _seminorm(quotient, x)), _term_abs(qden, prime))


def _truncated_value(
    nums: list[tuple[int, tuple]], lcm: tuple, top: tuple, bottom: tuple, radius: tuple[int, int]
) -> tuple[tuple, tuple]:
    """P(a) cut at the magnitude R (an int pair), as a num/den pair of term
    maps with den = lcm B^d: a value within R of P(a), for a plain puiseux-q
    P given as a cleared list over lcm and a = A/B (A = 0 allowed).  R = 0
    only for a constant P, whose value is returned whole.

    One Horner pass acc_n = A acc_(n+1) + N_n B^(d-n), n = d, ..., 0, ends
    in acc_0 = sum_n N_n A^n B^(d-n), the numerator of P(a) over den.  It
    runs on raw int rows over one exponent denominator q, the lcm of every
    map's (as _accumulate does), and builds term maps only for its result.
    With v the valuation of a map (its lowest exponent, in units of 1/q) and
    R = beta^rho, level n keeps only the terms of exponent below
    cut_n = v(lcm) + d v(B) - n v(A) - q rho.

    Proof that the result names the same closed ball of radius R: a term
    delta dropped at level n reaches acc_0 only as delta A^n, because every
    later level multiplies by A and adds; so its share of P(a) is
    delta A^n / den, of magnitude beta^(-(v(delta) + n v(A) - v(lcm) -
    d v(B)) / q) <= R, since v(delta) >= cut_n.  P(a) minus the result is
    the sum of those shares, so by the ultrametric inequality it is <= R.
    The products N_n B^(d-n) are cut at the same cut_n.  The powers of a
    non-constant B are cut too: B^j is exact below M + j v(B), with M the
    largest cut_n - v(N_n) - (d - n) v(B), which is all of B^(d-n) that
    N_n B^(d-n) reads below cut_n; B^j = B^(j-1) B is exact below that
    bound when B^(j-1) is exact below M + (j - 1) v(B).  With a constant
    den, every term of the result has magnitude > R."""
    if not radius[1]:
        return (nums[0][1] if nums else _ZERO_TERMS), lcm
    d = nums[-1][0]
    q = _denom([nums, [(0, top), (0, bottom), (0, lcm)]])
    rows = {n: _over(num, q) for n, num in nums}
    a_row, b_row = _over(top, q), _over(bottom, q)
    va, vb = a_row[0][0] if a_row else 0, b_row[0][0]
    # cut_n = base - n v(A); an int exponent k lies below the rational
    # cut base' - q rho iff it lies below base' - floor(q rho)
    base = _over(lcm, q)[0][0] + d * vb - q * radius[0] // radius[1]
    # B^(d-n) at level n, exact below low + (d - n) v(B); None for B = 1
    power: list | None = None
    if bottom != _ONE_TERMS:
        low = max([base - n * va - num[0][0] - (d - n) * vb for n, num in rows.items()])
        power = [(0, 1)]
    acc: dict[int, int] = {}
    for n in range(d, -1, -1):
        cut = base - n * va
        row: dict[int, int] = {}
        get = row.get
        for ka, ca in a_row:
            limit = cut - ka
            for k, c in acc.items():
                if k < limit:
                    e = k + ka
                    row[e] = get(e, 0) + ca * c
        if n in rows:
            if power is None:
                for k, c in rows[n]:
                    if k >= cut:
                        break
                    row[k] = get(k, 0) + c
            else:
                _cut_product(row, rows[n], power, cut)
        acc = row  # a cancelled int stays, as a 0, until the end
        if n and power is not None:
            row = {}
            _cut_product(row, power, b_row, low + (d - n + 1) * vb)
            power = sorted([kc for kc in row.items() if kc[1]])
    return _reduced(q, tuple(sorted([kc for kc in acc.items() if kc[1]]))), _times(lcm, _power(bottom, d))


def _cut_product(row: dict[int, int], x: Sequence, y: Sequence, cut: int) -> None:
    """Add into row the terms of exponent below cut of the product of the
    raw int terms x and y, each sorted by exponent."""
    get = row.get
    for kx, cx in x:
        limit = cut - kx
        for ky, cy in y:
            if ky >= limit:
                break
            e = kx + ky
            row[e] = get(e, 0) + cx * cy


def short_centre(x: DiskPoint) -> Scalar:
    """A centre of the ball x that is 0 or has no term inside the ball.

    For a puiseux-q polynomial centre (num over a constant den), the terms of
    magnitude <= r are dropped from num and den is kept: their sum lies in
    the closed ball of radius r around 0, so the rest names the same ball
    (ultrametric inequality).  Any other centre a is 0 when |a| <= r (the
    ball is then eta_{0,r}) and is returned as given otherwise.  A rigid
    point keeps its centre.
    """
    a, r = x.center, x.radius
    if r.is_zero:
        return a
    if type(a) is not PuiseuxScalar or len(a.den_terms[1]) > 1 or a.den_terms[1][0][0]:
        # a padic value or a rational function: |a| > r on the int pairs
        n, d = a.abs_pair()
        return a if r.n * d < n * r.d else a.spec.zero()
    denom, terms = a.num_terms
    # |c t^(k/D)| = beta^(-k/D) > r = beta^(n/d)  iff  k < -nD/d, iff k < ceil(-nD/d)
    # for an int k; terms are sorted by k
    bound = -(r.n * denom // r.d)
    keep = 0
    while keep < len(terms) and terms[keep][0] < bound:
        keep += 1
    if keep == len(terms):
        return a
    return PuiseuxScalar(a.spec, _reduced(denom, terms[:keep]), a.den_terms)


def diam_affine(coords: Sequence[DiskPoint] | DiskPoint) -> AbsValue:
    """diam_A of a coordinatewise product point: the max coordinate radius."""
    if isinstance(coords, DiskPoint):
        coords = [coords]
    return abs_max(x.radius for x in coords)


def diam_proj(coords: Sequence[DiskPoint] | DiskPoint) -> AbsValue:
    """Projective diameter diam_A(x) / max(1, max_i |x_i|)^2: the max radius
    and the max norm are int pairs (_log_norm), and the one AbsValue built
    is the result."""
    if isinstance(coords, DiskPoint):
        coords = [coords]
    radius, norm = _LOG_ZERO, (0, 1)
    for x in coords:
        radius = _log_max(radius, (x.radius.n, x.radius.d))
        norm = _log_max(norm, _log_norm(x))
    (rn, rd), (nn, nd) = radius, norm
    # a zero radius (rd = 0) leaves d = 0 and n < 0, the zero magnitude
    return _magnitude(rn * nd - 2 * nn * rd, rd * nd)


def diam_proj_point(x: ProjPoint) -> AbsValue:
    aff = x.to_affine()
    if aff is None:
        return ABS_ZERO
    return diam_proj(aff)


def join(x: DiskPoint, y: DiskPoint) -> DiskPoint:
    """The smallest ball containing both: center(x), radius the max of both
    radii and the center gap."""
    if x.spec != y.spec:
        raise BackendMismatch("join over different backends")
    gap = (x.center - y.center).abs()
    r = abs_max([x.radius, y.radius, gap])
    return DiskPoint(x.center, r)
