"""Exact arithmetic in two computable valued-field backends.

Two backends are provided:

``padic``
    Rational numbers with the p-adic absolute value |x| = p^(-v_p(x)).
    Residue characteristic p > 0.

``puiseux-q``
    The field generated by rational powers of a parameter t with rational
    coefficients, valued by the lowest exponent: |x| = beta^(-min supp x) for
    an abstract base beta > 1.  Residue characteristic 0, residue field Q.
    Elements are kept as canonical num/den pairs of finite-support term maps
    so that inversion stays exact; values produced by ring operations always
    have denominator 1.

Magnitudes are never floats.  An :class:`AbsValue` is either the zero
magnitude or beta^q for an exact rational q, with beta = p for padic and the
abstract base for puiseux-q.  All comparisons, products and quotients of
magnitudes are exact rational arithmetic on the exponents.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import BackendMismatch, DivisionByZero, NumericBaseRequired, RadiusNotInValueGroup

RationalInput = Union[int, str, Fraction]

PADIC = "padic"
PUISEUX = "puiseux-q"


def as_fraction(x: RationalInput) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 41.

    These bases decide primality exactly for n < 3317044064679887385961981;
    larger n raise ValueError rather than return a guess.
    """
    if n >= 3317044064679887385961981:
        raise ValueError("primality is decided only for p < 3317044064679887385961981 (about 3.3e24)")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Magnitudes


@dataclass(frozen=True)
class AbsValue:
    """An exact magnitude: zero, or beta^logval with logval rational.

    The total order puts zero below every finite magnitude and orders finite
    magnitudes by their exponents (beta > 1).  Multiplication adds exponents
    and zero absorbs.
    """

    logval: Fraction | None  # None encodes the zero magnitude

    @staticmethod
    def zero() -> "AbsValue":
        return AbsValue(None)

    @staticmethod
    def of(logval: RationalInput) -> "AbsValue":
        return AbsValue(as_fraction(logval))

    @property
    def is_zero(self) -> bool:
        return self.logval is None

    def __mul__(self, other: "AbsValue") -> "AbsValue":
        if self.logval is None or other.logval is None:
            return ABS_ZERO
        return AbsValue(self.logval + other.logval)

    def __truediv__(self, other: "AbsValue") -> "AbsValue":
        if other.logval is None:
            raise DivisionByZero("division by the zero magnitude")
        if self.logval is None:
            return ABS_ZERO
        return AbsValue(self.logval - other.logval)

    def __pow__(self, n: int) -> "AbsValue":
        if self.logval is None:
            if n <= 0:
                raise DivisionByZero("0 raised to a nonpositive power")
            return ABS_ZERO
        return AbsValue(self.logval * n)

    def _cmp(self, other: "AbsValue") -> int:
        if self.logval is None:
            return 0 if other.logval is None else -1
        if other.logval is None:
            return 1
        return (self.logval > other.logval) - (self.logval < other.logval)

    def __lt__(self, other: "AbsValue") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "AbsValue") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "AbsValue") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "AbsValue") -> bool:
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        if self.logval is None:
            return "AbsValue(0)"
        return f"AbsValue(beta^{self.logval})"


ABS_ZERO = AbsValue(None)
ABS_ONE = AbsValue(Fraction(0))


def unit_max(v: AbsValue) -> AbsValue:
    """max(1, v) as a magnitude."""
    return v if v > ABS_ONE else ABS_ONE


def abs_max(values: Iterable[AbsValue]) -> AbsValue:
    out = ABS_ZERO
    for v in values:
        if v > out:
            out = v
    return out


def _rational_power_le(base: Fraction, q: Fraction, bound: Fraction) -> bool:
    # base^q <= bound, decided exactly via integer cross powers.
    b = q.denominator
    return base ** q.numerator <= bound ** b


def magnitude_le_rational(v: AbsValue, bound: Fraction, base: Fraction) -> bool:
    """Decide beta^q <= bound exactly for a known rational base beta."""
    if base <= 1:
        raise NumericBaseRequired("numeric base must exceed 1")
    if v.logval is None:
        return bound >= 0
    if bound <= 0:
        return False
    return _rational_power_le(base, v.logval, bound)


def magnitude_ge_rational(v: AbsValue, bound: Fraction, base: Fraction) -> bool:
    """Decide beta^q >= bound exactly for a known rational base beta."""
    if base <= 1:
        raise NumericBaseRequired("numeric base must exceed 1")
    if v.logval is None:
        return bound <= 0
    if bound <= 0:
        return True
    b = v.logval.denominator
    return base ** v.logval.numerator >= bound ** b


def magnitude_as_rational(v: AbsValue, base: Fraction) -> Fraction:
    """The exact rational value of beta^q, when it is rational.

    Raises ValueError when q has a denominator d > 1 and the base is not a
    perfect d-th power of a rational.
    """
    if base <= 1:
        raise NumericBaseRequired("numeric base must exceed 1")
    if v.logval is None:
        return Fraction(0)
    q = v.logval
    d = q.denominator
    if d == 1:
        return base ** q.numerator
    num_root = _iroot_exact(base.numerator, d)
    den_root = _iroot_exact(base.denominator, d)
    if num_root is None or den_root is None:
        raise ValueError(f"beta^{q} is not rational for beta = {base}")
    return Fraction(num_root, den_root) ** q.numerator


def _iroot_exact(n: int, k: int) -> int | None:
    """The integer k-th root of n >= 0 when n is a perfect k-th power, else None."""
    if n < 2:
        return n
    if k >= n.bit_length():
        return None  # 1 < n^(1/k) < 2
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        # integer Newton step; decreases strictly until it reaches floor(n^(1/k))
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


# ---------------------------------------------------------------------------
# Field specification


@dataclass(frozen=True)
class FieldSpec:
    """Backend selector plus the declared value group.

    ``value_group`` is either the string "Q" (all rationals) or a positive
    integer d denoting the group (1/d)Z; it always contains the integers and
    is used only to classify type II versus type III radii.  ``numeric_base``
    optionally pins the abstract base beta of the puiseux-q backend to a
    rational > 1, which is needed whenever magnitudes must be compared with
    plain rationals; for padic the base is always p.
    """

    backend: str
    p: int | None = None
    value_group: int | str | None = None
    numeric_base: Fraction | None = None

    def __post_init__(self) -> None:
        if self.backend not in (PADIC, PUISEUX):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == PADIC:
            if self.p is None or not _is_prime(self.p):
                raise ValueError("padic backend needs a prime p")
        elif self.p is not None:
            raise ValueError("puiseux-q backend takes no prime")
        vg = self.value_group
        if vg is None:
            object.__setattr__(self, "value_group", 1 if self.backend == PADIC else "Q")
        elif vg != "Q" and (not isinstance(vg, int) or vg < 1):
            raise ValueError("value_group must be 'Q' or a positive integer d for (1/d)Z")
        if self.numeric_base is not None and self.numeric_base <= 1:
            raise ValueError("numeric_base must exceed 1")

    def group_contains(self, q: Fraction) -> bool:
        if self.value_group == "Q":
            return True
        return (q * self.value_group).denominator == 1

    def base(self) -> Fraction:
        """The numeric value of beta, when known."""
        if self.backend == PADIC:
            return Fraction(self.p)
        if self.numeric_base is not None:
            return self.numeric_base
        raise NumericBaseRequired(
            "puiseux-q magnitudes are powers of an abstract base; declare "
            "numeric_base on the FieldSpec to compare them with rationals"
        )

    # -- scalar constructors ------------------------------------------------

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def scalar(self, value: RationalInput) -> "Scalar":
        """Embed a rational constant into the field."""
        c = as_fraction(value)
        if self.backend == PADIC:
            return PadicScalar(self, c)
        if c == 0:
            return PuiseuxScalar(self, (), _ONE_TERMS)
        return PuiseuxScalar(self, ((Fraction(0), c),), _ONE_TERMS)

    def from_int(self, n: int) -> "Scalar":
        return self.scalar(n)

    def t_power(self, q: RationalInput, coeff: RationalInput = 1) -> "Scalar":
        """The monomial coeff * t^q (puiseux-q only)."""
        if self.backend != PUISEUX:
            raise BackendMismatch("t_power is a puiseux-q constructor")
        c = as_fraction(coeff)
        if c == 0:
            return self.zero()
        return PuiseuxScalar(self, ((as_fraction(q), c),), _ONE_TERMS)

    def from_terms(self, terms: Iterable[tuple[RationalInput, RationalInput]]) -> "Scalar":
        """A puiseux-q element from (exponent, coefficient) pairs."""
        if self.backend != PUISEUX:
            raise BackendMismatch("from_terms is a puiseux-q constructor")
        acc: dict[Fraction, Fraction] = {}
        for q, c in terms:
            qf, cf = as_fraction(q), as_fraction(c)
            acc[qf] = acc.get(qf, Fraction(0)) + cf
        return PuiseuxScalar(self, _terms_from_dict(acc), _ONE_TERMS)

    def uniformizer(self, logval: RationalInput) -> "Scalar":
        """The canonical scalar of magnitude beta^logval.

        padic: a power of p (raises RadiusNotInValueGroup when logval is not
        an integer); puiseux-q: a power of t.
        """
        q = as_fraction(logval)
        if self.backend == PADIC:
            if q.denominator != 1:
                raise RadiusNotInValueGroup(f"no rational has p-adic magnitude p^{q}")
            return PadicScalar(self, Fraction(self.p) ** (-q.numerator))
        return self.t_power(-q)


# ---------------------------------------------------------------------------
# Scalars


class Scalar:
    """Common interface of the two backend element types."""

    spec: FieldSpec

    def abs(self) -> AbsValue:
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        raise NotImplementedError

    def inv(self) -> "Scalar":
        raise NotImplementedError

    def _check(self, other: "Scalar") -> None:
        if self.spec != other.spec:
            raise BackendMismatch(f"mixed backends: {self.spec} vs {other.spec}")

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    # subclasses implement __add__, __neg__, __mul__, __eq__, __hash__


@dataclass(frozen=True)
class PadicScalar(Scalar):
    spec: FieldSpec
    value: Fraction

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: Scalar) -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.spec, self.value + other.value)  # type: ignore[attr-defined]

    def __neg__(self) -> "PadicScalar":
        return PadicScalar(self.spec, -self.value)

    def __mul__(self, other: Scalar) -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.spec, self.value * other.value)  # type: ignore[attr-defined]

    def inv(self) -> "PadicScalar":
        if self.value == 0:
            raise DivisionByZero("inverse of 0")
        return PadicScalar(self.spec, 1 / self.value)

    def abs(self) -> AbsValue:
        if self.value == 0:
            return ABS_ZERO
        p = self.spec.p
        assert p is not None
        v = _padic_valuation(self.value.numerator, p) - _padic_valuation(self.value.denominator, p)
        return AbsValue(Fraction(-v))

    def __repr__(self) -> str:
        return f"{self.value}"


def _padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- puiseux term algebra ----------------------------------------------------

Terms = tuple  # tuple[tuple[Fraction, Fraction], ...], sorted by exponent

_ONE_TERMS: Terms = ((Fraction(0), Fraction(1)),)


def _terms_from_dict(d: dict) -> Terms:
    return tuple(sorted((q, c) for q, c in d.items() if c != 0))


def _terms_add(a: Terms, b: Terms) -> Terms:
    # sorted merge; avoids hashing Fraction keys in the hot path
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        qa, ca = a[i]
        qb, cb = b[j]
        if qa < qb:
            out.append(a[i])
            i += 1
        elif qb < qa:
            out.append(b[j])
            j += 1
        else:
            s = ca + cb
            if s:
                out.append((qa, s))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _terms_neg(a: Terms) -> Terms:
    return tuple((q, -c) for q, c in a)


def _terms_mul(a: Terms, b: Terms) -> Terms:
    if len(a) == 1:
        (qa, ca) = a[0]
        # products of nonzero rational coefficients never vanish
        return tuple((qa + qb, ca * cb) for qb, cb in b)
    if len(b) == 1:
        (qb, cb) = b[0]
        return tuple((qa + qb, ca * cb) for qa, ca in a)
    out: Terms = ()
    for qa, ca in a:
        out = _terms_add(out, tuple((qa + qb, ca * cb) for qb, cb in b))
    return out


def _terms_min_exp(a: Terms) -> Fraction:
    return a[0][0]


# Dense integer polynomials: the one gcd stack of the library.
#
# A Z[u] polynomial is a list of ints, index = degree, with no trailing zeros
# (the empty list is 0).  Fraction reduction below, and poly_gcd and the
# coprimality certificate in points.py, all run the primitive pseudo-remainder
# sequence of _zgcd.  A Puiseux term map becomes a Z[u] polynomial through
# u = t^(1/denom), a shift of exponents and one integer scale.


def _terms_to_zpoly(a: Terms, denom: int, shift: Fraction, scale: int) -> list[int]:
    """scale * t^(-shift) * a as a Z[u] polynomial; scale clears every
    coefficient denominator of a."""
    out = [0] * (int((a[-1][0] - shift) * denom) + 1)
    for q, c in a:
        out[int((q - shift) * denom)] = c.numerator * (scale // c.denominator)
    return out


def _zpoly_to_terms(z: list[int], denom: int, shift: Fraction, scale: Fraction) -> Terms:
    return tuple((Fraction(i, denom) + shift, c * scale) for i, c in enumerate(z) if c)


def _zclear(a: list[Fraction]) -> list[int]:
    """A dense Q[u] polynomial times the lcm of its denominators."""
    scale = math.lcm(*(c.denominator for c in a))
    return [c.numerator * (scale // c.denominator) for c in a]


def _zprimitive(a: list[int]) -> tuple[int, list[int]]:
    """(content, primitive part); the content takes the sign of the leading
    coefficient, so the primitive part leads positively."""
    if not a:
        return 0, []
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return g, (a if g == 1 else [c // g for c in a])


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _zsub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, cb in enumerate(b):
        out[i] -= cb
    while out and not out[-1]:
        out.pop()
    return out


def _zdivexact(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b in Z[u] when b divides a there."""
    r = list(a)
    nb, lead = len(b), b[-1]
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1] // lead
        if c:
            q[k] = c
            for i, cb in enumerate(b):
                r[k + i] -= c * cb
    return q


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd in Z[u], leading positively, by a primitive pseudo-remainder
    sequence: each remainder is made primitive, so coefficients stay small."""
    ca, a = _zprimitive(a)
    cb, b = _zprimitive(b)
    content = math.gcd(ca, cb)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = list(a)
        lead, nb = b[-1], len(b)
        while len(r) >= nb:
            lr = r.pop()
            k = len(r) - nb + 1
            r = [c * lead for c in r]
            for i in range(nb - 1):
                r[k + i] -= lr * b[i]
            while r and not r[-1]:
                r.pop()
        a, b = b, _zprimitive(r)[1]
    return a if content == 1 else [content * c for c in a]


def _normalize_fraction(num: Terms, den: Terms) -> tuple[Terms, Terms]:
    if not num:
        return (), _ONE_TERMS
    if den == _ONE_TERMS:
        return num, den
    if not den:
        raise DivisionByZero("zero denominator")
    denom = math.lcm(*(q.denominator for q, _ in num + den))
    en, ed = _terms_min_exp(num), _terms_min_exp(den)
    sn = math.lcm(*(c.denominator for _, c in num))
    sd = math.lcm(*(c.denominator for _, c in den))
    zn = _terms_to_zpoly(num, denom, en, sn)
    zd = _terms_to_zpoly(den, denom, ed, sd)
    g = _zgcd(zn, zd)
    if len(g) > 1:
        zn, zd = _zdivexact(zn, g), _zdivexact(zd, g)
    # num/den = (sd/sn) * zn/zd; scale so the denominator's lowest term is 1
    return (
        _zpoly_to_terms(zn, denom, en - ed, Fraction(sd, sn * zd[0])),
        _zpoly_to_terms(zd, denom, Fraction(0), Fraction(1, zd[0])),
    )


_REDUCE_THRESHOLD = 48  # lazy fractions reduce once this many terms accumulate


def _fast_reduce(num: Terms, den: Terms) -> tuple[Terms, Terms]:
    """Cheap reductions that avoid the Q[u] gcd in the common cases."""
    if not num:
        return (), _ONE_TERMS
    if den == _ONE_TERMS:
        return num, den
    if len(den) == 1:
        (q, c) = den[0]
        return tuple((e - q, a / c) for e, a in num), _ONE_TERMS
    if len(num) + len(den) > _REDUCE_THRESHOLD:
        return _normalize_fraction(num, den)
    return num, den


@dataclass(frozen=True, eq=False)
class PuiseuxScalar(Scalar):
    """A quotient of finite Puiseux polynomials.

    The denominator of any value produced by +, -, * on polynomial inputs is
    the constant 1, so those values are plain finite exponent -> coefficient
    maps.  inv() introduces nontrivial denominators; fractions are kept lazy
    (equality by cross-multiplication, gcd reduction only when values grow or
    a canonical form is demanded), because the valuation of num/den never
    needs the reduced form.
    """

    spec: FieldSpec
    num: Terms
    den: Terms = _ONE_TERMS

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: Scalar) -> "PuiseuxScalar":
        self._check(other)
        o: PuiseuxScalar = other  # type: ignore[assignment]
        if self.den == _ONE_TERMS and o.den == _ONE_TERMS:
            return PuiseuxScalar(self.spec, _terms_add(self.num, o.num))
        num = _terms_add(_terms_mul(self.num, o.den), _terms_mul(o.num, self.den))
        return PuiseuxScalar(self.spec, *_fast_reduce(num, _terms_mul(self.den, o.den)))

    def __neg__(self) -> "PuiseuxScalar":
        return PuiseuxScalar(self.spec, _terms_neg(self.num), self.den)

    def __mul__(self, other: Scalar) -> "PuiseuxScalar":
        self._check(other)
        o: PuiseuxScalar = other  # type: ignore[assignment]
        if self.den == _ONE_TERMS and o.den == _ONE_TERMS:
            return PuiseuxScalar(self.spec, _terms_mul(self.num, o.num))
        return PuiseuxScalar(
            self.spec,
            *_fast_reduce(_terms_mul(self.num, o.num), _terms_mul(self.den, o.den)),
        )

    def inv(self) -> "PuiseuxScalar":
        if not self.num:
            raise DivisionByZero("inverse of 0")
        return PuiseuxScalar(self.spec, *_fast_reduce(self.den, self.num))

    def abs(self) -> AbsValue:
        # the valuation of num/den needs no gcd reduction
        if not self.num:
            return ABS_ZERO
        return AbsValue(-(_terms_min_exp(self.num) - _terms_min_exp(self.den)))

    def canonical(self) -> tuple[Terms, Terms]:
        """The gcd-reduced form with denominator lowest term 1."""
        return _normalize_fraction(self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PuiseuxScalar):
            return NotImplemented
        if self.spec != other.spec:
            return False
        if self.den == other.den:
            return self.num == other.num
        return _terms_mul(self.num, other.den) == _terms_mul(other.num, self.den)

    def __hash__(self) -> int:
        return hash((self.spec, *self.canonical()))

    def __repr__(self) -> str:
        def fmt(terms: Terms) -> str:
            if not terms:
                return "0"
            return " + ".join(
                f"{c}" if q == 0 else (f"t^{q}" if c == 1 else f"{c}*t^{q}") for q, c in terms
            )

        num, den = self.canonical()
        if den == _ONE_TERMS:
            return fmt(num)
        return f"({fmt(num)})/({fmt(den)})"
