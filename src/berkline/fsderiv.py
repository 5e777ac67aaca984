"""The non-Archimedean Fubini-Study derivative and its exact calculus.

A map into projective space is given by homogeneous polynomial coordinates
with no common factor.  Its derivative magnitude at a point z is

    max(1, |z|^2) * max_{i<j} |(f_i' f_j - f_j' f_i)(z)| / max_i |f_i(z)|^2,

evaluated exactly through the seminorm of the point.

A map (SeriesMap) stores its coordinates cleared over one denominator L
(points._cleared), to f_i = C_i / L with C_i lists of int term maps, the
layout of FLINT's fmpq_poly; they are cleared once, when the map is made, and
the Polys of ``coords`` are a view built only when read.  The Wronskian
minors are exact polynomials: the derivative multiplies the int
coefficients of T^n by n, so the factor n keeps its backend magnitude and
residue characteristic p is fully visible.  Each minor is W_ij / L^2, W_ij
one difference of int products.  Seminorms multiply, so L cancels from the
quotient, max |W_ij| / max |C_i|^2: every seminorm of the derivative is taken
on the int numerators at one point context (points._seminorm), and no minor
is built as a Poly.  Each W_ij is one product pass over the pairs of terms
of C_i and C_j (points._wronskian): the coefficient of T^(n+m-1) gathers
(n - m) c_{i,n} c_{j,m}, so every pair is multiplied once and no derivative
is built.  A constant coordinate C_i = c is the exception: C_i' = 0, so
W_ij = -c C_j' and |W_ij| = |c| |C_j'|, and the derivative of a map [c : P]
reads |c| off c, takes P' and its one seminorm, and forms no product; two
constant coordinates give the zero minor.  The seminorms are unreduced int
pairs (n, d) for beta^(n/d), and the derivative is formed in log form,
2 max(0, log|z|) + log max |W_ij| - 2 log max |C_i|, by int sums and
cross-multiplied compares; one AbsValue is built, for the result.

Disk images of affine polynomial maps are exact.  With a the short centre of
eta_{a,r} and f = f(a) + (T - a) q, the image is the ball of radius
R = r |q|_{a,r} around f(a), because seminorms multiply and
|T - a|_{a,r} = r.  R equals max_{i>=1} |f_i| r^i over the coefficients f_i
of f recentred at a, the computational content of the diameter-transport
identity.  Over puiseux-q every nonzero int has magnitude 1, so R is also
r |f'|_{a,r}: the radius is read off the seminorm of f', and the centre is
f(a) cut at R (points._truncated_value), one Horner pass that drops only
terms whose sum stays within R, so it names the same ball and may print
shorter than f(a).  Over padic |k|_p < 1 breaks that identity, and one
synthetic division gives f(a) and q, whose seminorm is read off the
numerators of the cleared quotient.  Either seminorm is certified like any
other, and deflates further only when the certificate is inconclusive.  At
a rigid point the image is the value f(a) alone, one Horner pass over the
present terms on raw int rows, reduced once (points._value_at).  Each
radius stays an int pair until its one AbsValue; a [1 : P] map, whose chart
coordinate is cleared to the map's own denominator, has chart scalar 1, so
its images are not scaled.

Moebius words, composition and rescaling are one substitution
T -> num/den into the homogenized coordinates.  num and den never share a
zero, so a common zero of the results would be a common zero of the original
coordinates: reduced maps stay reduced and no gcd follows.  The
substitution, like the word's matrix, reads the map's cleared lists and
returns a map of cleared lists, with no Scalar built.  It is one
accumulation over one exponent denominator D: num, den and the coordinates
are read over D once, the powers and basis products stay raw rows of ints
(points._raw_product), and each output coordinate is accumulated in one
dict and collected once (points._collected).  The chart at infinity,
T -> 1/T, takes no product: each cleared list is reversed over the same
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BackendMismatch,
    DomainViolation,
    InvalidGenerator,
    PoleHit,
    PreconditionViolation,
    ZeroTuple,
)
from .field import (
    ABS_ONE,
    AbsValue,
    FieldSpec,
    Scalar,
    _ONE_TERMS,
    _ZERO_TERMS,
    _magnitude,
    _terms_add,
    abs_max,
)
from .points import (
    DiskPoint,
    Poly,
    ProjPoint,
    _LOG_ZERO,
    _Point,
    _accumulate,
    _clear,
    _cleared,
    _collected,
    _combine,
    _coprime_coords,
    _denom,
    _derived,
    _disk_image,
    _from_num_den,
    _log_div,
    _log_lt,
    _log_max,
    _log_mul,
    _log_norm,
    _num_den,
    _over,
    _raw_product,
    _seminorm,
    _term_abs,
    _times,
    _uncleared,
    _wronskian,
    rigid,
)

# ---------------------------------------------------------------------------
# Domains and maps


@dataclass(frozen=True)
class Domain:
    """A closed disk |T| <= outer or a closed annulus inner <= |T| <= outer."""

    outer: AbsValue
    inner: AbsValue | None = None  # None: a disk

    @staticmethod
    def disk(radius: AbsValue) -> "Domain":
        return Domain(radius)

    @staticmethod
    def annulus(inner: AbsValue, outer: AbsValue) -> "Domain":
        if not inner < outer:
            raise ValueError("annulus needs inner < outer")
        return Domain(outer, inner)

    def contains(self, x: DiskPoint) -> bool:
        # |T(x)| as an int pair (points._log_norm), compared by cross-multiplication
        n, d = _log_norm(x)
        outer, inner = self.outer, self.inner
        if outer.n * d < n * outer.d:
            return False
        return inner is None or not n * inner.d < inner.n * d


UNIT_DISK = Domain.disk(ABS_ONE)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SeriesMap:
    """Homogeneous coordinates of a map into projective space.

    A map stores its coordinates cleared over one denominator L, as in
    FLINT's fmpq_poly: ``den`` is L as an int term map, and ``cleared`` holds
    one cleared list [(n, num), ...] per coordinate, the coefficient of T^n
    being num / L (points._clear), each held as a tuple so that the frozen
    map cannot be changed through it.  ``spec`` and ``domain`` are kept
    beside them.  The cleared form is built once, when the map is made; the
    transforms, the derivative and disk images read it and build no Scalar.
    ``coords`` is a read-only view of the coordinates as Polys, one Scalar
    per coefficient over L (points._uncleared), built at its first read and
    kept; the Polys a map is made from are not kept.  ``==`` and ``hash``
    read the coordinates' values and the domain, not the denominator chosen.

    Construct through :func:`series_map`, which normalizes Laurent content
    and removes the common polynomial factor, so that vanishing of minors is
    detected canonically.  The transforms below keep coordinates coprime and
    build their results directly.  A SeriesMap built directly is checked as
    series_map's input is, and takes its coordinates as given otherwise.
    """

    spec: FieldSpec
    den: tuple
    cleared: tuple[tuple[tuple[int, tuple], ...], ...]
    domain: Domain | None

    def __init__(self, coords: Sequence[Poly], domain: Domain | None = None) -> None:
        coords = tuple(coords)
        if len(coords) < 2:
            raise ZeroTuple("a projective map needs at least two coordinates")
        if any(c.spec != coords[0].spec for c in coords):
            raise BackendMismatch("mixed backends in map coordinates")
        den, cleared = _clear(coords)
        if not any(cleared):
            raise ZeroTuple("all coordinates vanish identically")
        _fill(self, coords[0].spec, den, cleared, domain)

    @classmethod
    def _of(cls, spec: FieldSpec, den: tuple, cleared: list, domain: Domain | None) -> "SeriesMap":
        """The map of cleared lists over den, with no Poly built."""
        f = object.__new__(cls)
        _fill(f, spec, den, cleared, domain)
        return f

    @cached_property
    def coords(self) -> tuple[Poly, ...]:
        return tuple([_uncleared(self.spec, c, self.den) for c in self.cleared])

    @property
    def target_dim(self) -> int:
        return len(self.cleared) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesMap):
            return NotImplemented
        return self.coords == other.coords and self.domain == other.domain

    def __hash__(self) -> int:
        return hash((self.coords, self.domain))

    def __repr__(self) -> str:
        return f"SeriesMap(coords={self.coords!r}, domain={self.domain!r})"

    def proportional_to(self, other: "SeriesMap") -> bool:
        """Whether the two maps agree as maps into projective space: every
        minor a_i b_j - a_j b_i vanishes, which the numerators of the
        coordinates over each map's one denominator decide."""
        mine, theirs = self.cleared, other.cleared
        if len(mine) != len(theirs):
            return False
        if self.spec != other.spec:
            raise BackendMismatch("polynomials over different backends")
        for i in range(len(mine)):
            for j in range(i + 1, len(mine)):
                if _combine([(1, mine[i], theirs[j]), (-1, mine[j], theirs[i])]):
                    return False
        return True


def _fill(f: SeriesMap, spec: FieldSpec, den: tuple, cleared: list, domain: Domain | None) -> None:
    # the fields of a frozen instance, set once
    cleared = tuple([tuple(c) for c in cleared])
    for name, value in (("spec", spec), ("den", den), ("cleared", cleared), ("domain", domain)):
        object.__setattr__(f, name, value)


def series_map(coords: Sequence[Poly], domain: Domain | None = None) -> SeriesMap:
    """Build a reduced map from homogeneous (Laurent) polynomial coordinates:
    at least two (ZeroTuple), over one FieldSpec (BackendMismatch), not all
    zero (ZeroTuple).  They are cleared once, as a SeriesMap is made, and
    read as cleared lists from then on: Laurent content is an exponent
    offset, and unless a coordinate is constant the common factor is divided
    out in Z[u][T] (points._coprime_coords), leaving polynomial coefficients."""
    coords = tuple(coords)
    f = SeriesMap(coords, domain)
    den, cleared = f.den, f.cleared
    shift = min([c[0][0] for c in cleared if c])
    if shift:
        # common monomial content; removing it is a projective rescaling
        cleared = [[(n - shift, num) for n, num in c] for c in cleared]
    if not any(len(c) == 1 and not c[0][0] for c in cleared):
        den, cleared = _coprime_coords(coords, den, cleared)
    if cleared is f.cleared:  # no content and no common factor
        return f
    return SeriesMap._of(f.spec, den, cleared, domain)


def identity_map(spec: FieldSpec, domain: Domain | None = None) -> SeriesMap:
    return series_map([Poly.constant(spec, spec.one()), Poly.coordinate(spec)], domain)


# ---------------------------------------------------------------------------
# The derivative


def _require_in_domain(f: SeriesMap, z: DiskPoint) -> None:
    if f.domain is not None and not f.domain.contains(z):
        raise DomainViolation(f"{z!r} outside the declared domain")


def wronskian_minors(f: SeriesMap) -> list[Poly]:
    """The minors f_i' f_j - f_j' f_i, i < j.  The coordinates are cleared
    over one L, so both products of a minor are over L^2 and the minor is a
    difference of numerators (_minors), every one built, also those with a
    constant coordinate.  fs_derivative reads those numerators and builds no
    minor as a Poly; a minor with a constant coordinate c it reads as
    |c| |C_j'|, with no product."""
    den = _times(f.den, f.den)
    return [_uncleared(f.spec, minor, den) for minor in _minors(f.cleared)]


def _minors(coords: Sequence[list[tuple[int, tuple]]]) -> list[list[tuple[int, tuple]]]:
    """The cleared minors C_i' C_j - C_j' C_i, i < j, of cleared coordinates,
    each one product pass (points._wronskian)."""
    n = len(coords)
    return [_wronskian(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)]


def fs_derivative(f: SeriesMap, z: DiskPoint) -> AbsValue:
    """Exact Fubini-Study derivative magnitude at a point of the line.

    The map holds its coordinates as C_i / L, and the minors are the
    numerators W_ij of wronskian_minors, over L^2.  |f_i| = |C_i| / |L| and
    |W_ij / L^2| = |W_ij| / |L|^2, so L cancels: every seminorm is taken on
    the numerators at one point context, and no Scalar is built per
    coefficient.  A constant coordinate C_i = c has magnitude |c| at every
    point, and its minors are W_ij = -c C_j', so |W_ij| = |c| |C_j'|
    (_minor_seminorms): a map [c : P] takes one derivative and no Wronskian
    product.  The seminorms are int pairs (points._seminorm), and the
    derivative is formed in log form on ints,
    2 max(0, log|z|) + log max |W_ij| - 2 log max |C_i|, with |z| read off
    the point context; one AbsValue is built, for the result.  A point over
    another FieldSpec than f raises BackendMismatch."""
    _require_in_domain(f, z)
    if f.spec is not z.spec and f.spec != z.spec:
        raise BackendMismatch(f"mixed backends: {f.spec} vs {z.spec}")
    point = _Point(z)
    coords, prime = f.cleared, point.prime
    # |c| for each constant coordinate [(0, c)], None for the others
    consts = [_term_abs(c[0][1], prime) if len(c) == 1 and not c[0][0] else None for c in coords]
    den = _LOG_ZERO
    for c, m in zip(coords, consts):
        den = _log_max(den, _seminorm(c, point) if m is None else m)
    cn, cd = den
    if not cd:
        raise DomainViolation("all homogeneous coordinates vanish at the point")
    wn, wd = _minor_seminorms(coords, consts, point)
    zn, zd = point.norm
    if zn <= 0:  # |z| <= 1, the zero magnitude included: max(1, |z|^2) = 1
        zn, zd = 0, 1
    # a zero minor max (wd = 0) leaves d = 0 and n < 0, the zero magnitude
    return _magnitude(2 * zn * wd * cd + wn * zd * cd - 2 * cn * zd * wd, zd * wd * cd)


def _minor_seminorms(coords: Sequence[Sequence[tuple[int, tuple]]], consts: list, point: _Point) -> tuple[int, int]:
    """max |W_ij| at the point, as an int pair, over the pairs i < j whose
    minor may be nonzero.

    A pair with one constant coordinate c has W_ij = c C_i' or -c C_j', and
    seminorms multiply, so |W_ij| = |c| |C'| with C' the other coordinate's
    derivative; each C' and its seminorm are built once, for every constant
    that meets it.  Two constants give the zero minor, left out.  A pair with
    no constant takes one product pass (points._wronskian)."""
    derived: dict[int, tuple[int, int]] = {}
    out = _LOG_ZERO
    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = consts[i], consts[j]
            if ci is None and cj is None:
                out = _log_max(out, _seminorm(_wronskian(coords[i], coords[j]), point))
            elif ci is None or cj is None:
                c, k = (cj, i) if ci is None else (ci, j)
                if k not in derived:
                    derived[k] = _seminorm(_derived(coords[k]), point)
                out = _log_max(out, _log_mul(c, derived[k]))
    return out


def fs_derivative_proj(f: SeriesMap, z: ProjPoint) -> AbsValue:
    """The derivative at a projective point; at infinity it is computed in
    the reciprocal chart, where the formula is the same by chart invariance."""
    aff = z.to_affine()
    if aff is not None:
        return fs_derivative(f, aff)
    return fs_derivative(_at_infinity(f), rigid(f.spec.zero()))


def _at_infinity(f: SeriesMap) -> SeriesMap:
    """f in the reciprocal chart: the substitution T -> 1/T, with no product.

    Shifted to plain coordinates of degree at most d, the coefficient of
    T^j moves to T^(d-j): each cleared list is reversed, its exponent n
    going to d - (n + shift), and the denominator stays f.den."""
    shift, d = _plain_degree(f.cleared)
    top = d - shift
    return SeriesMap._of(f.spec, f.den, [[(top - n, num) for n, num in reversed(c)] for c in f.cleared], None)


# ---------------------------------------------------------------------------
# Composition


def _at_radius(num: tuple, n: int, outer: AbsValue, prime: int) -> tuple[int, int]:
    """|num| outer^n as an int pair, the term num T^n at the Shilov point
    eta_{0,outer} (outer^0 = 1)."""
    value = _term_abs(num, prime)
    return _log_mul(value, (outer.n * n, outer.d)) if n else value


def _zero_free_log_bound(g0: list[tuple[int, tuple]], outer: AbsValue, prime: int) -> bool:
    """Whether the plain cleared g0 has no zeros on the closed disk of the
    given radius, so that its magnitude there is |g0(0)|: its nonzero
    constant term strictly dominates every other term at the radius (a
    common denominator scales every term alike)."""
    if not g0 or g0[0][0]:
        return False
    c0 = _term_abs(g0[0][1], prime)
    return all(_log_lt(_at_radius(num, n, outer, prime), c0) for n, num in g0[1:])


def compose(f: SeriesMap, g: SeriesMap) -> SeriesMap:
    """Exact composition f(g) for g a map into the line.

    Requires the image of g's declared domain to land in f's declared domain
    (checked exactly when both annotations are present, on g's cleared
    coordinates shifted by one common power of T to plain polynomials; their
    one denominator cancels from every ratio); the composition is rejected
    with PoleHit when the chart denominator of g vanishes on g's domain,
    since the image would then not stay in one affine chart.  g's
    coordinates G0 / L and G1 / L give the substitution T -> G1 / G0 over L.
    """
    if g.target_dim != 1:
        raise DomainViolation("inner map must take values in the line")
    if f.spec != g.spec:
        raise BackendMismatch("composition over different backends")
    g0, g1 = g.cleared
    if f.domain is not None and g.domain is not None:
        prime, outer = f.spec.p or 0, g.domain.outer
        shift = _plain_shift(g.cleared)
        plain0, plain1 = [[(n + shift, num) for n, num in c] for c in g.cleared]
        if not _zero_free_log_bound(plain0, outer, prime):
            raise PoleHit("denominator coordinate vanishes on the inner domain")
        g0_mag = _term_abs(plain0[0][1], prime)
        # the seminorm at the Shilov point eta_{0,outer}: max |c_n| outer^n
        image_sup = _LOG_ZERO
        for n, num in plain1:
            image_sup = _log_max(image_sup, _at_radius(num, n, outer, prime))
        if _log_lt((f.domain.outer.n, f.domain.outer.d), _log_div(image_sup, g0_mag)):
            raise DomainViolation("image leaves the outer domain")
        if f.domain.inner is not None:
            if not _zero_free_log_bound(plain1, outer, prime):
                raise PoleHit("image meets the puncture of the outer domain")
            inner = f.domain.inner
            if _log_lt(_log_div(_term_abs(plain1[0][1], prime), g0_mag), (inner.n, inner.d)):
                raise DomainViolation("image dips below the inner radius")
    return _substitute_cleared(f, g1, g0, g.den, g.domain)


def _plain_shift(coords: Sequence[Sequence[tuple[int, tuple]]]) -> int:
    """The power of T, one for all cleared coordinates, that makes every
    entry a plain polynomial (a projective rescaling away from 0)."""
    return -min([min(0, c[0][0]) for c in coords if c], default=0)


def _plain_degree(coords: Sequence[Sequence[tuple[int, tuple]]]) -> tuple[int, int]:
    """(shift, d): the _plain_shift of the cleared coordinates and their
    largest degree after it."""
    shift = _plain_shift(coords)
    return shift, max([c[-1][0] for c in coords if c]) + shift


def _substitute_cleared(f: SeriesMap, top: list, bottom: list, den: tuple, domain: Domain | None) -> SeriesMap:
    """f composed with num/den, num = N / L' and den = M / L' given as the
    cleared lists N and M over one denominator L'.

    f's coordinates are shifted by one common power of T to plain ones (an
    exponent offset on the cleared lists), d the largest degree.  Each
    coordinate sum_j A_j T^j / L of f becomes sum_j a_j num^j den^(d-j) =
    sum_j A_j N^j M^(d-j) / (L L'^d): one sum of products over one
    denominator, with no Scalar built.  N, M and every A_j are read once,
    over the lcm D of all their exponent denominators (points._denom); the
    powers N^j, M^k and the basis products N^j M^(d-j) stay raw row lists
    over D (points._raw_product), the basis shared by every coordinate, and
    each output coordinate accumulates sum_j A_j N^j M^(d-j) into one dict
    that points._collected turns into its cleared list: one collection per
    output coordinate, and none for a power or a basis product.  num and
    den must have no common zero; then coprime coordinates stay coprime and
    need no gcd."""
    shift, d = _plain_degree(f.cleared)
    denom = _denom([top, bottom, *f.cleared])
    one = [(0, [(0, 1)])]
    top = [(n, _over(num, denom)) for n, num in top]
    bottom = [(n, _over(num, denom)) for n, num in bottom]
    pow_top, pow_bottom, common = [one, top], [one, bottom], f.den
    for _ in range(d - 1):
        pow_top.append(_raw_product(pow_top[-1], top))
        pow_bottom.append(_raw_product(pow_bottom[-1], bottom))
    for _ in range(d):
        common = _times(common, den)
    # j -> N^j M^(d-j), built once for every coordinate
    basis: dict[int, list] = {0: pow_bottom[d], d: pow_top[d]}
    coords = []
    for terms in f.cleared:
        acc: dict[int, dict[int, int]] = {}
        for j, a in terms:
            j += shift
            if j not in basis:
                basis[j] = _raw_product(pow_top[j], pow_bottom[d - j])
            _accumulate(acc, [(0, _over(a, denom))], basis[j])
        coords.append(_collected(acc, denom))
    return SeriesMap._of(f.spec, common, coords, domain)


def rescale_map(f: SeriesMap, scale: Scalar, offset: Scalar, domain: Domain | None) -> SeriesMap:
    """The reparametrized map z -> f(offset + scale*z); scale must be nonzero
    (PreconditionViolation otherwise), and a scale or offset over another
    FieldSpec than f raises BackendMismatch.  offset + scale*T is cleared to
    N / L straight from the two scalars' num/den pairs, and 1 is L / L."""
    for x in (scale, offset):
        if x.spec is not f.spec and x.spec != f.spec:
            raise BackendMismatch(f"mixed backends: {f.spec} vs {x.spec}")
    if scale.is_zero:
        raise PreconditionViolation("rescale_map needs a nonzero scale")
    nums, den = _cleared([_num_den(x) for x in (offset, scale) if not x.is_zero])
    top = list(enumerate(nums, 2 - len(nums)))  # [(0, N_0), (1, N_1)], or [(1, N_1)] for offset 0
    return _substitute_cleared(f, top, [(0, den)], den, domain)


# ---------------------------------------------------------------------------
# PGL(2, k°) words

Generator = tuple


def _validate_generator(gen: Generator, spec: FieldSpec) -> None:
    """A generator is ("scale", a) with |a| = 1, ("translate", b) with
    |b| <= 1, or ("invert",); anything else raises InvalidGenerator.  A
    Scalar over another FieldSpec than spec raises BackendMismatch where it
    is used."""
    kind = gen[0] if isinstance(gen, (tuple, list)) and gen else None
    if kind == "invert":
        if len(gen) != 1:
            raise InvalidGenerator("inversion takes no parameter")
        return
    if kind != "scale" and kind != "translate":
        raise InvalidGenerator(f"unknown generator {kind!r}")
    if len(gen) != 2 or not isinstance(gen[1], Scalar):
        raise InvalidGenerator(f"{kind} takes one Scalar parameter")
    # |x| = beta^(n/d): 1 iff n = 0 < d, and > 1 iff n > 0 (zero is (-1, 0))
    n, d = gen[1].abs_pair()
    if kind == "scale":
        if n or not d:
            raise InvalidGenerator("scaling parameter must have magnitude 1")
    elif n > 0:
        raise InvalidGenerator("translation parameter must have magnitude <= 1")


def _word_matrix(word: Iterable[Generator], spec: FieldSpec) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """(A, B, C, D, L): the word's matrix [[a, b], [c, d]] as int term maps
    over one denominator L.  A generator x = N/M multiplies L by M: scaling
    takes (A, B, C, D) to (A N, B M, C N, D M), translation to
    (A M, A N + B M, C M, C N + D M), and inversion swaps the columns."""
    a, b, c, d, den = _ONE_TERMS, _ZERO_TERMS, _ZERO_TERMS, _ONE_TERMS, _ONE_TERMS
    for gen in word:
        _validate_generator(gen, spec)
        if gen[0] == "invert":
            a, b, c, d = b, a, d, c
            continue
        x: Scalar = gen[1]
        if x.spec is not spec and x.spec != spec:
            raise BackendMismatch(f"mixed backends: {spec} vs {x.spec}")
        top, bottom = _num_den(x)
        if gen[0] == "scale":
            a, b, c, d = _times(a, top), _times(b, bottom), _times(c, top), _times(d, bottom)
        else:
            a, b, c, d = (
                _times(a, bottom),
                _terms_add(_times(a, top), _times(b, bottom)),
                _times(c, bottom),
                _terms_add(_times(c, top), _times(d, bottom)),
            )
        den = _times(den, bottom)
    return a, b, c, d, den


def pgl_apply(word: Sequence[Generator], f: SeriesMap) -> SeriesMap:
    """f composed with the unit Moebius map of the word (first generator is
    the outermost factor, so the last one acts on the variable first)."""
    a, b, c, d, common = _word_matrix(word, f.spec)
    num = [(n, e) for n, e in ((0, b), (1, a)) if e[1]]  # a*T + b
    den = [(n, e) for n, e in ((0, d), (1, c)) if e[1]]  # c*T + d
    return _substitute_cleared(f, num, den, common, f.domain)


def pgl_point(word: Sequence[Generator], x: DiskPoint | ProjPoint) -> ProjPoint:
    """The image of a point of the line under the Moebius map of the word.

    Inversion swaps the chart, so the image may be held in the chart at
    infinity; ProjPoint.to_affine inverts it at its first call and keeps
    the result, so each image is inverted at most once.  A scaling keeps
    the radius (|a| = 1), so scalings and translations build no
    AbsValue."""
    current: ProjPoint = x if isinstance(x, ProjPoint) else ProjPoint.affine(x)
    spec = current.point.spec
    for gen in reversed(list(word)):
        _validate_generator(gen, spec)
        if gen[0] == "invert":
            current = ProjPoint("infinity" if current.chart == "affine" else "affine", current.point)
            continue
        aff = current.to_affine()
        if aff is None:  # the rigid point at infinity is fixed by affine maps
            continue
        if gen[0] == "scale":
            # |a| = 1 (_validate_generator), so the radius is kept
            current = ProjPoint.affine(DiskPoint(gen[1] * aff.center, aff.radius))
        else:
            current = ProjPoint.affine(DiskPoint(aff.center + gen[1], aff.radius))
    return current


# ---------------------------------------------------------------------------
# Disk images


def image_disk_radius(f: Poly, r: AbsValue) -> AbsValue:
    """diam_A of the image of eta_{0,r} under a plain polynomial:
    max over i >= 1 of |a_i| r^i."""
    if not f.is_plain:
        raise DomainViolation("image radii are computed for plain polynomials")
    return abs_max(c.abs() * r ** n for n, c in f.terms if n >= 1)


def apply_map(f: SeriesMap, z: DiskPoint) -> list[DiskPoint]:
    """The image of a disk point under an affine polynomial map, one disk
    point per affine coordinate.

    The chart denominator (coordinate 0) must be a nonzero constant, so the
    map is polynomial on the whole chart and images of balls are balls with
    exactly computable center and radius.  Every coordinate is read off the
    map's cleared lists: |c_0| and 1/c_0 come from its cleared pair, and
    _disk_image takes each affine coordinate over the map's denominator: at
    a puiseux-q ball the radius r |P'|_{a,r} and the centre P(a) cut at that
    radius, at a padic ball P(a) and the radius from one synthetic division,
    at a rigid point the value P(a) alone.  A cut centre names the same ball
    (== and hash read the ball), but its repr may be shorter than P(a)'s.
    Each radius r |P'|_{a,r} / |L| / |c_0| (puiseux-q) or r |Q|_{a,r} / |qden|
    / |c_0| (padic) is formed on int pairs, one AbsValue per image; when c_0
    is the map's denominator the chart scalar is 1, and neither 1/c_0 nor
    |c_0| is applied.
    """
    _require_in_domain(f, z)
    if f.spec is not z.spec and f.spec != z.spec:
        raise BackendMismatch(f"mixed backends: {f.spec} vs {z.spec}")
    chart, *affine = f.cleared
    if len(chart) != 1 or chart[0][0]:
        raise PoleHit("chart denominator must be a nonzero constant")
    c0, point = chart[0][1], _Point(z)
    # c_0 = den (every [1 : P] map): the chart scalar is 1, and neither the
    # centre nor the radius is scaled
    unit = c0 == f.den
    if not unit:
        c_inv = _from_num_den(f.spec, f.den, c0)
        c_abs = _log_div(_term_abs(c0, point.prime), _term_abs(f.den, point.prime))
    out = []
    for p in affine:
        if p and p[0][0] < 0:
            raise DomainViolation("affine coordinates must be plain polynomials")
        value, radius = _disk_image(p, f.den, point)
        if unit:
            out.append(DiskPoint(value, _magnitude(*radius)))
        else:
            out.append(DiskPoint(value * c_inv, _magnitude(*_log_div(radius, c_abs))))
    return out
