"""Tropical analysis of Laurent polynomials on annuli.

The magnitude of F = sum a_n T^n along the points eta_{0, beta^r} is encoded
by the convex piecewise-linear function theta(r) = max_n (log|a_n| + n r) in
log-radius coordinates.  Everything here is exact rational arithmetic: term
data are (integer exponent, rational log-magnitude) pairs, breakpoints of the
upper envelope are exact rationals, and zero counting is by slope increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainViolation, OutOfDomain, PreconditionViolation, ZeroSeries
from .field import as_fraction
from .points import Poly

Bound = Fraction | None  # None encodes -inf on the left / +inf on the right


@dataclass(frozen=True)
class Interval:
    """An open interval (lo, hi) in log-radius coordinates; None means the
    corresponding infinite endpoint."""

    lo: Bound
    hi: Bound

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, r: Fraction) -> bool:
        return (self.lo is None or r > self.lo) and (self.hi is None or r < self.hi)

    def contains_closure(self, r: Fraction) -> bool:
        return (self.lo is None or r >= self.lo) and (self.hi is None or r <= self.hi)

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"({lo}, {hi})"


@dataclass(frozen=True)
class Segment:
    """A maximal subinterval on which one term dominates.

    Segments are half-open [left, right): at a breakpoint both neighbours
    attain the maximum and the larger slope owns the point.
    """

    left: Bound
    right: Bound
    slope: int
    intercept: Fraction

    def value(self, r: Fraction) -> Fraction:
        return self.intercept + self.slope * r


@dataclass(frozen=True)
class TropicalPolygon:
    """Finitely many (exponent, log-magnitude) terms with their envelope."""

    terms: tuple[tuple[int, Fraction], ...]
    domain: Interval

    def __post_init__(self) -> None:
        exps = [n for n, _ in self.terms]
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponents")
        if not self.terms:
            raise ZeroSeries("tropical polygon of the zero series")

    def theta(self, r: Fraction | int | str) -> Fraction:
        """Exact value of max_n (v + n r); r may lie in the closed domain."""
        rf = as_fraction(r)
        if not self.domain.contains_closure(rf):
            raise OutOfDomain(f"{rf} outside {self.domain}")
        return max(v + n * rf for n, v in self.terms)

    def segments(self) -> list[Segment]:
        """The upper envelope restricted to the domain, slopes increasing."""
        out = []
        for seg in _envelope(self.terms):
            clipped = _clip(seg, self.domain)
            if clipped is not None:
                out.append(clipped)
        return out

    def single_slope(self) -> int | None:
        segs = self.segments()
        if len(segs) == 1:
            return segs[0].slope
        return None


def _envelope(terms: Sequence[tuple[int, Fraction]]) -> list[Segment]:
    """Upper envelope of the lines r -> v + n r over the whole real line."""
    best: dict[int, Fraction] = {}
    for n, v in terms:
        if n not in best or v > best[n]:
            best[n] = v
    pts = sorted(best.items())
    if len(pts) == 1:
        n, v = pts[0]
        return [Segment(None, None, n, v)]
    # upper concave hull over (n, v); middle collinear points never dominate
    hull: list[tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    segs: list[Segment] = []
    breaks = [
        Fraction(hull[i - 1][1] - hull[i][1], 1) / (hull[i][0] - hull[i - 1][0])
        for i in range(1, len(hull))
    ]
    for i, (n, v) in enumerate(hull):
        left = breaks[i - 1] if i > 0 else None
        right = breaks[i] if i < len(breaks) else None
        segs.append(Segment(left, right, n, v))
    return segs


def _clip(s: Segment, dom: Interval) -> Segment | None:
    left = s.left if dom.lo is None else (dom.lo if s.left is None else max(s.left, dom.lo))
    right = s.right if dom.hi is None else (dom.hi if s.right is None else min(s.right, dom.hi))
    if left is not None and right is not None and left >= right:
        return None
    return Segment(left, right, s.slope, s.intercept)


def from_series(f: Poly, domain: Interval) -> TropicalPolygon:
    """Term data (n, log|a_n|) of a nonzero Laurent polynomial."""
    if f.is_zero:
        raise ZeroSeries("tropicalization of the zero series")
    terms = []
    for n, c in f.terms:
        v = c.abs().logval
        if v is not None:
            terms.append((n, v))
    return TropicalPolygon(tuple(terms), domain)


@dataclass(frozen=True)
class SlopeBoundResult:
    slope: int
    bound: Fraction
    slope_ok: bool
    half_annulus_ok: bool

    def __bool__(self) -> bool:
        return self.slope_ok and self.half_annulus_ok


def slope_bound_check(
    p: TropicalPolygon,
    log_r: Fraction | int | str,
    log_rho: Fraction | int | str,
) -> SlopeBoundResult:
    """For a single-slope theta on (log rho, 0) with theta(0-) = 0 that stays
    >= log R, certify the slope bound n0 <= log R / log rho and the derived
    half-annulus guarantee theta(r) > (log R)/2 for r > (log rho)/2."""
    lr, lrho = as_fraction(log_r), as_fraction(log_rho)
    if lr >= 0 or lrho >= 0:
        raise PreconditionViolation("log R and log rho must be negative")
    if p.domain != Interval(lrho, Fraction(0)):
        raise PreconditionViolation(f"domain {p.domain} is not ({lrho}, 0)")
    n0 = p.single_slope()
    if n0 is None:
        raise PreconditionViolation("theta has more than one slope")
    seg = p.segments()[0]
    if seg.intercept != 0:
        raise PreconditionViolation("theta(0-) must be 0 (unit boundary value)")
    # theta is linear, so the infimum over the open domain is an endpoint limit
    if min(seg.value(lrho), seg.value(Fraction(0))) < lr:
        raise PreconditionViolation(f"theta dips below log R = {lr} on {p.domain}")
    slope_ok = Fraction(n0) <= lr / lrho
    if n0 > 0:
        half_ok = n0 * (lrho / 2) >= lr / 2
    else:
        half_ok = Fraction(0) > lr / 2
    return SlopeBoundResult(n0, lr / lrho, slope_ok, half_ok)


def count_zeros_annulus(
    f: Poly,
    log_rho: Fraction | int | str | None,
    log_r: Fraction | int | str | None,
) -> int:
    """Zeros of F (with multiplicity) with log rho < log|z| < log R, counted
    as the total slope increase of theta across the open interval."""
    if f.is_zero:
        raise ZeroSeries("zero counting for the zero series")
    poly = from_series(f, Interval(None, None))
    segs = _envelope(poly.terms)
    lo = None if log_rho is None else as_fraction(log_rho)
    hi = None if log_r is None else as_fraction(log_r)
    count = 0
    for prev, cur in zip(segs, segs[1:]):
        b = cur.left  # finite: every segment after the first starts at a break
        if b is not None and (lo is None or b > lo) and (hi is None or b < hi):
            count += cur.slope - prev.slope
    return count


@dataclass(frozen=True)
class MonomialPiece:
    """On [left, right) the image diameter is beta^logcoeff * r^exponent."""

    left: Bound
    right: Bound
    logcoeff: Fraction | None
    exponent: int | None
    constant: bool = False


def monomial_pieces(f: Poly, radii: Interval) -> list[MonomialPiece]:
    """Subdivide a log-radius interval so that the image diameter of
    eta_{0, beta^r} under f is a single monomial in the radius on each piece.

    The input must map its domain into the unit disk: every term must have
    magnitude at most 1 on the relevant boundary radius.
    """
    # Poly keeps nonzero coefficients only, so every magnitude is finite
    terms = [(n, c.abs().logval) for n, c in f.terms if n != 0]
    if not terms:
        return [MonomialPiece(radii.lo, radii.hi, None, None, constant=True)]
    for n, v in terms:
        edge = radii.hi if n > 0 else radii.lo
        if edge is None:
            raise DomainViolation(f"term T^{n} unbounded on {radii}")
        if v + n * edge > 0:
            raise DomainViolation(f"term T^{n} leaves the unit disk on {radii}")
    const = f.coeff(0).abs()
    if not const.is_zero and const.logval > 0:  # type: ignore[operator]
        raise DomainViolation("constant term outside the unit disk")
    polygon = TropicalPolygon(tuple(terms), radii)
    return [
        MonomialPiece(s.left, s.right, s.intercept, s.slope) for s in polygon.segments()
    ]
