"""Exact arithmetic in two computable valued-field backends.

Two backends are provided:

``padic``
    Rational numbers with the p-adic absolute value |x| = p^(-v_p(x)).
    Residue characteristic p > 0.

``puiseux-q``
    The field generated by rational powers of a parameter t with rational
    coefficients, valued by the lowest exponent: |x| = beta^(-min supp x) for
    an abstract base beta > 1.  Residue characteristic 0, residue field Q.
    Elements are kept as num/den pairs of finite-support term maps so that
    inversion stays exact.  A term map is (D, ((k, c), ...)): int exponents k
    that stand for k/D over one minimal denominator D, and nonzero int
    coefficients c, so the hot loops add and multiply ints only.  Rational
    coefficients live in the denominator: a polynomial with rational
    coefficients is num over the constant lcm of their denominators, and ring
    operations on integer polynomials give denominator 1.
    ``PuiseuxScalar.num``/``.den`` are views of the same maps as (Fraction
    exponent, Fraction coefficient) pairs.

Magnitudes are never floats.  An :class:`AbsValue` is either the zero
magnitude or beta^q for an exact rational q, with beta = p for padic and the
abstract base for puiseux-q.  q is held as a reduced pair of ints (the layout
of FLINT's fmpq: integer data in lowest terms), and all comparisons, products
and quotients of magnitudes are exact int arithmetic on reduced pairs.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import BackendMismatch, DivisionByZero, NumericBaseRequired, RadiusNotInValueGroup, ReductionTooLong

RationalInput = Union[int, str, Fraction]

PADIC = "padic"
PUISEUX = "puiseux-q"


_RATIONAL = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")


def rational_pair(x: RationalInput) -> tuple[int, int]:
    """The rational x as (n, d) in lowest terms, d > 0: the one parser of
    exact rationals.

    x is an int, a Fraction or a string: an optionally signed integer,
    optionally followed by "/" and a positive integer denominator, with
    surrounding whitespace allowed; any other string (decimals, exponents,
    digit separators, non-ASCII digits, a zero denominator) raises
    ValueError.  The regex, not int(), decides the grammar: int() alone
    accepts "1_0" and non-ASCII digits.  A bool is not a rational and raises
    TypeError, like any other type.
    """
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValueError(f"not an integer or 'num/den' rational: {x!r}")
        num, den = m.groups()
        if den is None:
            return int(num), 1
        n, d = int(num), int(den)
        if not d:
            raise ValueError(f"zero denominator in {x!r}")
        g = math.gcd(n, d)
        return (n // g, d // g) if g != 1 else (n, d)
    if isinstance(x, int) and type(x) is not bool:
        return int(x), 1
    # isinstance(x, Fraction) last: Fraction's metaclass is ABCMeta, so the
    # check is a slow ABC instance check
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"not an exact rational: {x!r}")


def as_fraction(x: RationalInput) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings (the grammar of
    rational_pair) to an exact Fraction."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    return Fraction(*rational_pair(x))


def as_integer(text: str) -> int:
    """An integer string in the grammar of rational_pair without the "/den":
    an optional sign and ASCII digits, surrounding whitespace allowed.
    Digit separators and non-ASCII digits, which int() accepts, raise
    ValueError."""
    if "/" not in text:
        try:
            return rational_pair(text)[0]
        except ValueError:
            pass
    raise ValueError(f"not an integer: {text!r}")


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


@dataclass(frozen=True, slots=True, init=False)
class AbsValue:
    """An exact magnitude: zero, or beta^(n/d) for a rational exponent n/d.

    The exponent is a reduced int pair, d > 0 and gcd(n, d) == 1; the zero
    magnitude is the pair (-1, 0), the exponent -1/0 = minus infinity.  Equal
    magnitudes are equal pairs, so the generated == and hash read the pair.
    Order is by exponent (beta > 1) and compares by cross-multiplication;
    multiplication adds exponents over a common d and zero absorbs.  The same
    formulas cover the zero pair: it orders below every other, and a sum of
    exponents with it reduces to it again.  All of it is exact int arithmetic
    on reduced pairs.  ``logval`` is a read-only view of the exponent as a
    Fraction, None for zero.  Build values with ``of``, ``zero`` or a
    scalar's ``abs``.
    """

    n: int
    d: int  # 0 only for the zero magnitude

    @staticmethod
    def zero() -> "AbsValue":
        return ABS_ZERO

    @staticmethod
    def of(logval: RationalInput) -> "AbsValue":
        q = as_fraction(logval)
        return _magnitude(q.numerator, q.denominator)

    @property
    def logval(self) -> Fraction | None:
        return Fraction(self.n, self.d) if self.d else None

    @property
    def is_zero(self) -> bool:
        return not self.d

    def __mul__(self, other: "AbsValue") -> "AbsValue":
        d, e = self.d, other.d
        if d == e:
            return _magnitude(self.n + other.n, d)
        return _magnitude(self.n * e + other.n * d, d * e)

    def __truediv__(self, other: "AbsValue") -> "AbsValue":
        d, e = self.d, other.d
        if not e:
            raise DivisionByZero("division by the zero magnitude")
        if d == e:
            return _magnitude(self.n - other.n, d)
        return _magnitude(self.n * e - other.n * d, d * e)

    def __pow__(self, k: int) -> "AbsValue":
        if not self.d and k <= 0:
            raise DivisionByZero("0 raised to a nonpositive power")
        return _magnitude(self.n * k, self.d)

    def __lt__(self, other: "AbsValue") -> bool:
        return self.n * other.d < other.n * self.d

    def __le__(self, other: "AbsValue") -> bool:
        return self.n * other.d <= other.n * self.d

    def __gt__(self, other: "AbsValue") -> bool:
        return self.n * other.d > other.n * self.d

    def __ge__(self, other: "AbsValue") -> bool:
        return self.n * other.d >= other.n * self.d

    def __repr__(self) -> str:
        if not self.d:
            return "AbsValue(0)"
        return f"AbsValue(beta^{self.logval})"


_set_n = AbsValue.n.__set__  # type: ignore[attr-defined]
_set_d = AbsValue.d.__set__  # type: ignore[attr-defined]


def _magnitude(n: int, d: int) -> AbsValue:
    """beta^(n/d) reduced to lowest terms, for d > 0, or the zero magnitude
    for d = 0 and n < 0; the one constructor of AbsValue (it writes the
    frozen slots directly, skipping __init__)."""
    g = math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    v = object.__new__(AbsValue)
    _set_n(v, n)
    _set_d(v, d)
    return v


ABS_ZERO = _magnitude(-1, 0)
ABS_ONE = _magnitude(0, 1)


def unit_max(v: AbsValue) -> AbsValue:
    """max(1, v) as a magnitude."""
    return v if v > ABS_ONE else ABS_ONE


def abs_max(values: Iterable[AbsValue]) -> AbsValue:
    out = ABS_ZERO
    for v in values:
        if v > out:
            out = v
    return out


def _cross_powers(v: AbsValue, bound: Fraction, base: Fraction) -> tuple[int, int]:
    """(l, r) with beta^(n/d) <= bound iff l <= r (and likewise for >=),
    for a nonzero v and bound > 0: beta^n against bound^d as ints."""
    n, d = v.n, v.d
    bn, bd = base.numerator, base.denominator
    if n < 0:
        bn, bd, n = bd, bn, -n
    return bn**n * bound.denominator**d, bound.numerator**d * bd**n


def magnitude_le_rational(v: AbsValue, bound: Fraction, base: Fraction) -> bool:
    """Decide beta^q <= bound exactly for a known rational base beta, via
    integer cross powers: beta^(n/d) <= bound iff beta^n <= bound^d."""
    if base.numerator <= base.denominator:
        raise NumericBaseRequired("numeric base must exceed 1")
    if not v.d:
        return bound.numerator >= 0
    if bound.numerator <= 0:
        return False
    left, right = _cross_powers(v, bound, base)
    return left <= right


def magnitude_ge_rational(v: AbsValue, bound: Fraction, base: Fraction) -> bool:
    """Decide beta^q >= bound exactly for a known rational base beta."""
    if base.numerator <= base.denominator:
        raise NumericBaseRequired("numeric base must exceed 1")
    if not v.d:
        return bound.numerator <= 0
    if bound.numerator <= 0:
        return True
    left, right = _cross_powers(v, bound, base)
    return left >= right


def magnitude_as_rational(v: AbsValue, base: Fraction) -> Fraction:
    """The exact rational value of beta^q, when it is rational.

    Raises ValueError when q has a denominator d > 1 and the base is not a
    perfect d-th power of a rational.
    """
    if base <= 1:
        raise NumericBaseRequired("numeric base must exceed 1")
    n, d = v.n, v.d
    if not d:
        return Fraction(0)
    if d == 1:
        return base**n
    num_root = _iroot_exact(base.numerator, d)
    den_root = _iroot_exact(base.denominator, d)
    if num_root is None or den_root is None:
        raise ValueError(f"beta^{v.logval} is not rational for beta = {base}")
    return Fraction(num_root, den_root) ** n


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
    plain rationals; for padic the base is always p, and a numeric_base is
    rejected.
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
            if self.numeric_base is not None:
                raise ValueError("padic backend takes no numeric_base (its base is p)")
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
            return PuiseuxScalar(self, _ZERO_TERMS)
        return PuiseuxScalar(self, (1, ((0, c.numerator),)), _constant(c.denominator))

    def t_power(self, q: RationalInput, coeff: RationalInput = 1) -> "Scalar":
        """The monomial coeff * t^q (puiseux-q only)."""
        if self.backend != PUISEUX:
            raise BackendMismatch("t_power is a puiseux-q constructor")
        c = as_fraction(coeff)
        if c == 0:
            return self.zero()
        e = as_fraction(q)
        return PuiseuxScalar(self, (e.denominator, ((e.numerator, c.numerator),)), _constant(c.denominator))

    def from_terms(self, terms: Iterable[tuple[RationalInput, RationalInput]]) -> "Scalar":
        """A puiseux-q element from (exponent, coefficient) pairs."""
        if self.backend != PUISEUX:
            raise BackendMismatch("from_terms is a puiseux-q constructor")
        acc: dict[Fraction, Fraction] = {}
        for q, c in terms:
            qf, cf = as_fraction(q), as_fraction(c)
            acc[qf] = acc.get(qf, Fraction(0)) + cf
        return PuiseuxScalar(self, *_terms_from_dict(acc))

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

    __slots__ = ()

    spec: FieldSpec

    def abs(self) -> AbsValue:
        """|self|: each backend reduces its abs_pair to an AbsValue."""
        raise NotImplementedError

    def abs_pair(self) -> tuple[int, int]:
        """|self| as an unreduced int pair (n, d) for beta^(n/d), d > 0, and
        (-1, 0) for zero: the convention of AbsValue, with no gcd and no
        object built.  Each backend's valuation formula lives here once."""
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        raise NotImplementedError

    def inv(self) -> "Scalar":
        raise NotImplementedError

    def dist(self, other: "Scalar") -> AbsValue:
        """|self - other|."""
        return (self - other).abs()

    def _check(self, other: "Scalar") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise BackendMismatch(f"mixed backends: {self.spec} vs {other.spec}")

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    # subclasses implement __add__, __neg__, __mul__, __eq__, __hash__


@dataclass(frozen=True, slots=True)
class PadicScalar(Scalar):
    spec: FieldSpec
    value: Fraction

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: Scalar) -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.spec, self.value + other.value)  # type: ignore[attr-defined]

    def __sub__(self, other: Scalar) -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.spec, self.value - other.value)  # type: ignore[attr-defined]

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
        return _magnitude(*self.abs_pair())

    def abs_pair(self) -> tuple[int, int]:
        x = self.value
        if not x:
            return -1, 0
        # |x| = p^(-v_p(x)); FieldSpec requires a prime for padic
        return -_padic_split(x.numerator, x.denominator, self.spec.p)[0], 1

    def dist(self, other: Scalar) -> AbsValue:
        """|self - other| = p^(v_p(xd) + v_p(yd) - v_p(xn yd - yn xd)) for
        self = xn/xd and other = yn/yd, read off the ints: no Fraction is built."""
        self._check(other)
        x, y = self.value, other.value  # type: ignore[attr-defined]
        xd, yd = x.denominator, y.denominator
        n = x.numerator * yd - y.numerator * xd
        if not n:
            return ABS_ZERO
        p = self.spec.p
        return _magnitude(_int_valuation(xd, p) + _int_valuation(yd, p) - _int_valuation(n, p), 1)

    def __repr__(self) -> str:
        return f"{self.value}"


def _int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero int n."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v


def _padic_split(n: int, d: int, p: int) -> tuple[int, int, int]:
    """(v, n', d') with a nonzero n/d = p^v n' / d' and p dividing neither
    n' nor d', read off the ints; n/d need not be in lowest terms."""
    if not n:
        raise ValueError("valuation of 0")
    v = 0
    while not n % p:
        n //= p
        v += 1
    while not d % p:
        d //= p
        v -= 1
    return v, n, d


# -- puiseux term algebra ----------------------------------------------------
#
# A term map is (D, ((k, c), ...)): the finite sum of c * t^(k/D) over its
# terms, sorted by the int k.  Every c is a nonzero int: a value's rational
# coefficients are cleared into its denominator.  D >= 1 is kept minimal,
# gcd(D, every k) == 1, so equal sums are equal tuples.  The zero map is
# (1, ()).  Sums and products work on int exponents and rescale to a common D
# only when the two operands' D differ (the layout of FLINT's fmpq_poly:
# integer data over one denominator).  Term tuples are built from lists, never
# from generators: tuple(genexpr) reallocates a guessed-size tuple, and the
# results, once freed, pile up in CPython's per-size tuple free lists until a
# full collection.

Terms = tuple  # tuple[int, tuple[tuple[int, int], ...]]

_ZERO_TERMS: Terms = (1, ())
_ONE_TERMS: Terms = (1, ((0, 1),))


def _terms_from_dict(d: dict[Fraction, Fraction]) -> tuple[Terms, Terms]:
    """The num/den pair of an exponent -> coefficient dict of Fractions: the
    coefficients times the lcm L of their denominators, over the constant L
    (coprime to the numerator's content, because L is the lcm)."""
    items = [(q, c) for q, c in d.items() if c]
    if not items:
        return _ZERO_TERMS, _ONE_TERMS
    denom = math.lcm(*[q.denominator for q, _ in items])
    scale = math.lcm(*[c.denominator for _, c in items])
    num = [(q.numerator * (denom // q.denominator), c.numerator * (scale // c.denominator)) for q, c in items]
    return (denom, tuple(sorted(num))), _constant(scale)


def _constant(c: int) -> Terms:
    """The term map of a positive int c, shared for c = 1."""
    return _ONE_TERMS if c == 1 else (1, ((0, c),))


def _terms_view(a: Terms) -> tuple[tuple[Fraction, Fraction], ...]:
    """The (exponent, coefficient) Fraction pairs of a term map."""
    denom, terms = a
    return tuple([(Fraction(k, denom), Fraction(c)) for k, c in terms])


def _reduced(denom: int, terms: tuple) -> Terms:
    """(denom, terms) with denom made minimal."""
    if not terms:
        return _ZERO_TERMS
    if denom > 1:
        g = math.gcd(denom, *[k for k, _ in terms])
        if g > 1:
            return denom // g, tuple([(k // g, c) for k, c in terms])
    return denom, terms


def _common(a: Terms, b: Terms) -> tuple[int, tuple, tuple]:
    """Both term lists over the lcm of the two denominators."""
    da, ta = a
    db, tb = b
    if da == db:
        return da, ta, tb
    d = math.lcm(da, db)
    if d != da:
        m = d // da
        ta = tuple([(k * m, c) for k, c in ta])
    if d != db:
        m = d // db
        tb = tuple([(k * m, c) for k, c in tb])
    return d, ta, tb


def _terms_add(a: Terms, b: Terms) -> Terms:
    if not a[1]:
        return b
    if not b[1]:
        return a
    denom, ta, tb = _common(a, b)
    # sorted merge on int exponents; without a cancellation the merged
    # exponents keep gcd(denom, k) == 1, so only a cancellation can shrink D
    out = []
    append = out.append
    cancelled = False
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        ka = ta[i][0]
        kb = tb[j][0]
        if ka < kb:
            append(ta[i])
            i += 1
        elif kb < ka:
            append(tb[j])
            j += 1
        else:
            s = ta[i][1] + tb[j][1]
            if s:
                append((ka, s))
            else:
                cancelled = True
            i += 1
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    if cancelled:
        return _reduced(denom, tuple(out))
    return denom, tuple(out)


def _terms_neg(a: Terms) -> Terms:
    return a[0], tuple([(k, -c) for k, c in a[1]])


def _terms_mul(a: Terms, b: Terms) -> Terms:
    if not a[1] or not b[1]:
        return _ZERO_TERMS
    denom, ta, tb = _common(a, b)
    if len(ta) == 1 or len(tb) == 1:
        if len(ta) != 1:
            ta, tb = tb, ta
        ((ka, ca),) = ta
        # products of nonzero coefficients never vanish
        out = tuple([(ka + kb, ca * cb) for kb, cb in tb])
    else:
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in ta:
            for kb, cb in tb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        out = tuple(sorted([kc for kc in acc.items() if kc[1]]))
    return _reduced(denom, out) if denom > 1 else (1, out)


def _terms_lowest(a: Terms, denom: int) -> int:
    """The lowest exponent of a nonzero term map, in units of 1/denom (a
    multiple of its D)."""
    return a[1][0][0] * (denom // a[0])


def _terms_at(a: Terms, denom: int, sigma: Fraction) -> Fraction:
    """The term map at u = sigma, u = t^(1/denom) (a multiple of its D)."""
    m = denom // a[0]
    return sum((c * sigma ** (k * m) for k, c in a[1]), Fraction(0))


# Integer polynomials: the one gcd stack of the library.
#
# A term map with no negative exponent is a polynomial of Z[u], u = t^(1/D)
# for a common D of the operands.  Fraction reduction below, the coprimality
# certificate, and gcd and exact division in Z[u][T] for both backends in
# points.py all run the primitive pseudo-remainder sequence of _terms_gcd on
# term maps, so memory grows with the number of terms, not the exponent span.


def _scaled(a: Terms, m: int) -> Terms:
    """The term map a times the nonzero int m (a one-term map, such as a
    padic value, without a list)."""
    terms = a[1]
    if m == 1:
        return a
    if len(terms) == 1:
        return a[0], ((terms[0][0], terms[0][1] * m),)
    return a[0], tuple([(k, c * m) for k, c in terms])


def _terms_shift(a: Terms, s: int, denom: int) -> Terms:
    """a times t^(s/denom), denom a multiple of a's D."""
    if not s:
        return a
    m = denom // a[0]
    return _reduced(denom, tuple([(k * m + s, c) for k, c in a[1]]))


def _terms_primitive(a: Terms) -> tuple[int, Terms]:
    """(content, primitive part); the content takes the sign of the top
    coefficient, so the primitive part leads positively (0 for the zero map)."""
    g = math.gcd(*[c for _, c in a[1]])
    if a[1] and a[1][-1][1] < 0:
        g = -g
    return g, (a if g == 1 else (a[0], tuple([(k, c // g) for k, c in a[1]])))


def _terms_divide(a: Terms, b: Terms, exact: bool) -> Terms:
    """Elimination of a by a nonzero b in Z[u], neither with a negative
    exponent: with ``exact``, the quotient a / b when b divides a there;
    otherwise the fraction-free pseudo-remainder over the common D (not made
    minimal), each step multiplying it by b's top coefficient.  Each step pops
    the remainder's top term and merges in the multiple of b's other terms
    that cancels it (Monagan-Pearce: sparse division), so a step costs the
    terms of both, not the exponent span."""
    denom, r, tb = _common(a, b)
    kb, lb = tb[-1]
    rest = [(k - kb, -v) for k, v in tb[:-1]]  # minus b's other terms, over u^kb
    r, q = list(r), []
    while r and r[-1][0] >= kb:
        kr, c = r[-1]
        r[-1] = (kr, 0)  # a sentinel above every exponent merged below
        m = 1 if exact else lb
        if exact:
            c //= lb
            q.append((kr - kb, c))
        # the sorted merge of m * r and c * u^kr * rest
        out, i = [], 0
        append = out.append
        for k, v in rest:
            e = k + kr
            ke, ve = r[i]
            while ke < e:
                append((ke, ve * m))
                i += 1
                ke, ve = r[i]
            if ke > e:
                append((e, c * v))
            else:
                i += 1
                x = ve * m + c * v
                if x:
                    append((e, x))
        out.extend([(k, v * m) for k, v in r[i:-1]])
        r = out
    return _reduced(denom, tuple(q[::-1])) if exact else (denom, tuple(r))


def _terms_gcd(a: Terms, b: Terms) -> Terms:
    """The gcd in Z[u] of two term maps with no negative exponent, leading
    positively, by a primitive pseudo-remainder sequence: each remainder is
    made primitive, so coefficients stay small.  A zero operand gives the
    other one."""
    ca, a = _terms_primitive(a)
    cb, b = _terms_primitive(b)
    if a[1] and b[1] and a[1][-1][0] * b[0] < b[1][-1][0] * a[0]:
        a, b = b, a
    while b[1]:
        a, b = b, _terms_primitive(_terms_divide(a, b, False))[1]
    return _reduced(*_scaled(a, math.gcd(ca, cb)))


def _normalize_fraction(num: Terms, den: Terms) -> tuple[Terms, Terms]:
    """The reduced form of num/den: coprime in Z[u], content included, with
    den's lowest term a positive int at exponent 0.  A one-term denominator
    c * t^(k/D) needs no gcd: num is shifted by -k/D over the constant |c|,
    and gcd(c, num's content) is divided out."""
    if not num[1]:
        return _ZERO_TERMS, _ONE_TERMS
    if den == _ONE_TERMS:
        return num, den
    if not den[1]:
        raise DivisionByZero("zero denominator")
    denom = math.lcm(num[0], den[0])
    ed = _terms_lowest(den, denom)
    if len(den[1]) == 1:
        c = den[1][0][1]
        g = math.gcd(c, *[a for _, a in num[1]])
        g = g if c > 0 else -g
        m = denom // num[0]
        return _reduced(denom, tuple([(k * m - ed, a // g) for k, a in num[1]])), _constant(c // g)
    en = _terms_lowest(num, denom)
    zn, zd = _terms_shift(num, -en, denom), _terms_shift(den, -ed, denom)
    g = _terms_gcd(zn, zd)
    if (zd[1][0][1] < 0) != (g[1][0][1] < 0):
        g = _terms_neg(g)
    if g != _ONE_TERMS:
        zn, zd = _terms_divide(zn, g, True), _terms_divide(zd, g, True)
    return _terms_shift(zn, en - ed, denom), zd


_REDUCE_THRESHOLD = 48  # lazy fractions reduce once this many terms accumulate
_DENSE_PER_TERM = 8  # ... and their exponent spans, in units of 1/lcm(D), are at most this many per term


def _short_span(num: Terms, den: Terms, terms: int) -> bool:
    """Whether the exponent spans of the nonzero num and den, in units of
    1/lcm(D), total at most _DENSE_PER_TERM per term for ``terms`` terms.
    The guard that bounds a gcd's time: an elimination can take a step per
    unit of span, and coprime exponent denominators can make spans huge."""
    (dn, tn), (dd, td) = num, den
    d = math.lcm(dn, dd)
    return (tn[-1][0] - tn[0][0]) * (d // dn) + (td[-1][0] - td[0][0]) * (d // dd) <= _DENSE_PER_TERM * terms


def _fast_reduce(num: Terms, den: Terms) -> tuple[Terms, Terms]:
    """num/den, reduced where that is cheap (a one-term denominator) or the
    terms have grown past _REDUCE_THRESHOLD over a short span (_short_span),
    and left lazy otherwise."""
    tn, td = num[1], den[1]
    if not tn:
        return _ZERO_TERMS, _ONE_TERMS
    if len(td) == 1:
        return _normalize_fraction(num, den)
    terms = len(tn) + len(td)
    if terms > _REDUCE_THRESHOLD and _short_span(num, den, terms):
        return _normalize_fraction(num, den)
    return num, den


_KEY_TERMS = 6  # expansion terms that a hash reads


def _expansion(num: Terms, den: Terms, radius: AbsValue = ABS_ZERO) -> tuple:
    """The lowest terms, at most _KEY_TERMS, of the Puiseux expansion of
    num/den as (exponent numerator, exponent denominator, coefficient
    numerator, coefficient denominator) reduced int quadruples, denominators
    positive; with ``radius``, only those of magnitude > radius.

    An invariant of the value, so every num/den pair of it, reduced or not,
    gives the same quadruples with no gcd of term maps.  Sparse long
    division: each step divides the remainder's lowest term by den's lowest
    term c0.  The remainder is kept as ints times c0^j after j steps, so the
    step's coefficient is its lowest int over c0^(j+1) and no Fraction is
    built.  The cap holds for polynomials too, so a polynomial and a fraction
    equal to it agree.
    """
    denom, rem, ((k0, c0), *rest) = _common(num, den)
    rem = dict(rem)
    out = []
    # |t^((k - k0)/denom)| <= beta^(n/d) iff (k0 - k) d <= n denom; never for
    # the zero pair (-1, 0)
    bound = radius.n * denom
    scale = c0  # c0^(j+1) at step j
    while rem and len(out) < _KEY_TERMS:
        k = min(rem)
        if (k0 - k) * radius.d <= bound:
            break
        x = rem.pop(k)
        g, h = math.gcd(k - k0, denom), math.gcd(x, scale)
        if scale < 0:
            h = -h
        out.append(((k - k0) // g, denom // g, x // h, scale // h))
        if c0 != 1:
            rem = {e: c * c0 for e, c in rem.items()}
            scale *= c0
        for kd, cd in rest:
            e = k - k0 + kd
            c = rem.pop(e, 0) - x * cd
            if c:
                rem[e] = c
    return tuple(out)


@dataclass(frozen=True, eq=False, slots=True)
class PuiseuxScalar(Scalar):
    """A quotient num/den of finite Puiseux polynomials.

    ``num_terms`` and ``den_terms`` are term maps (D, ((k, c), ...)): int
    exponents k standing for k/D over one minimal denominator D, and nonzero
    int coefficients c.  The properties ``num`` and ``den`` are read-only
    views of the same maps as (Fraction exponent, Fraction coefficient) pairs.

    ``den_terms`` is the value's only denominator.  A polynomial with rational
    coefficients is num over the positive constant lcm of their denominators,
    and +, -, * on integer polynomials give the denominator 1.  inv()
    introduces nontrivial denominators; fractions are kept lazy (equality by
    cross-multiplication, gcd reduction only when values grow), because the
    valuation of num/den never needs the reduced form.  The hash reads the
    value's Puiseux expansion, which every num/den pair of it shares.
    """

    spec: FieldSpec
    num_terms: Terms
    den_terms: Terms = _ONE_TERMS

    @property
    def num(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return _terms_view(self.num_terms)

    @property
    def den(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return _terms_view(self.den_terms)

    @property
    def is_zero(self) -> bool:
        return not self.num_terms[1]

    def __add__(self, other: Scalar) -> "PuiseuxScalar":
        self._check(other)
        o: PuiseuxScalar = other  # type: ignore[assignment]
        if self.den_terms == _ONE_TERMS and o.den_terms == _ONE_TERMS:
            return PuiseuxScalar(self.spec, _terms_add(self.num_terms, o.num_terms))
        num = _terms_add(_terms_mul(self.num_terms, o.den_terms), _terms_mul(o.num_terms, self.den_terms))
        return PuiseuxScalar(self.spec, *_fast_reduce(num, _terms_mul(self.den_terms, o.den_terms)))

    def __neg__(self) -> "PuiseuxScalar":
        return PuiseuxScalar(self.spec, _terms_neg(self.num_terms), self.den_terms)

    def __mul__(self, other: Scalar) -> "PuiseuxScalar":
        self._check(other)
        o: PuiseuxScalar = other  # type: ignore[assignment]
        if self.den_terms == _ONE_TERMS and o.den_terms == _ONE_TERMS:
            return PuiseuxScalar(self.spec, _terms_mul(self.num_terms, o.num_terms))
        return PuiseuxScalar(
            self.spec,
            *_fast_reduce(_terms_mul(self.num_terms, o.num_terms), _terms_mul(self.den_terms, o.den_terms)),
        )

    def inv(self) -> "PuiseuxScalar":
        if not self.num_terms[1]:
            raise DivisionByZero("inverse of 0")
        return PuiseuxScalar(self.spec, *_fast_reduce(self.den_terms, self.num_terms))

    def abs(self) -> AbsValue:
        return _magnitude(*self.abs_pair())

    def abs_pair(self) -> tuple[int, int]:
        # the valuation of num/den needs no gcd reduction
        (dn, tn), (dd, td) = self.num_terms, self.den_terms
        if not tn:
            return -1, 0
        return td[0][0] * dn - tn[0][0] * dd, dn * dd

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PuiseuxScalar):
            return NotImplemented
        if self.spec != other.spec:
            return False
        if self.den_terms == other.den_terms:
            return self.num_terms == other.num_terms
        return _terms_mul(self.num_terms, other.den_terms) == _terms_mul(other.num_terms, self.den_terms)

    def __hash__(self) -> int:
        return hash((self.spec, _expansion(self.num_terms, self.den_terms)))

    def __repr__(self) -> str:
        # the reduced form, printed with den's lowest term scaled to 1.  A
        # gcd runs only over a short span (_short_span, with at least
        # _REDUCE_THRESHOLD terms' worth of span); past it an unreduced pair
        # would print equal values differently, so ReductionTooLong is raised
        num, den = self.num_terms, self.den_terms
        terms = len(num[1]) + len(den[1])
        if num[1] and len(den[1]) > 1 and not _short_span(num, den, max(terms, _REDUCE_THRESHOLD)):
            raise ReductionTooLong(
                f"a fraction of {terms} terms spans too many exponent units to print in reduced form"
            )
        num, den = _normalize_fraction(num, den)
        scale = den[1][0][1]

        def fmt(terms: Terms) -> str:
            denom, pairs = terms
            out = []
            for k, c in pairs:
                c, e = Fraction(c, scale), Fraction(k, denom)
                out.append(f"{c}" if k == 0 else (f"t^{e}" if c == 1 else f"{c}*t^{e}"))
            return " + ".join(out) or "0"

        if len(den[1]) == 1:
            return fmt(num)
        return f"({fmt(num)})/({fmt(den)})"
