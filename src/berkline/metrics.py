"""Polydisk and projective (chordal) distances on rigid points, with the
continuity extension to type II/III points of the line.

The projective distance of two tuples of homogeneous coordinates is
max |x_i y_j - x_j y_i| / (max |x_i| * max |y_j|); it is at most 1 and is an
ultrametric on rigid points.  On the line it extends to non-rigid points by
max(|a-b|, r, s) over the same normalizing denominator, which agrees with the
rigid formula and whose self-distance is the projective diameter.
"""

from __future__ import annotations

from typing import Sequence

from .errors import LengthMismatch, ZeroTuple
from .field import ABS_ONE, ABS_ZERO, AbsValue, Scalar, abs_max, unit_max
from .points import DiskPoint, Poly, ProjPoint


def d_usual(z: Sequence[Scalar], w: Sequence[Scalar]) -> AbsValue:
    """The polydisk distance max_i |z_i - w_i|."""
    if len(z) != len(w):
        raise LengthMismatch(f"{len(z)} vs {len(w)} coordinates")
    return abs_max((a - b).abs() for a, b in zip(z, w))


def d_proj(x: Sequence[Scalar], y: Sequence[Scalar]) -> AbsValue:
    """The projective distance of two homogeneous coordinate tuples."""
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)} coordinates")
    nx = abs_max(c.abs() for c in x)
    ny = abs_max(c.abs() for c in y)
    if nx.is_zero or ny.is_zero:
        raise ZeroTuple("projective tuple with all coordinates zero")
    minors = ABS_ZERO
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            m = (x[i] * y[j] - x[j] * y[i]).abs()
            if m > minors:
                minors = m
    return minors / (nx * ny)


def d_proj_line(x: DiskPoint | ProjPoint, y: DiskPoint | ProjPoint) -> AbsValue:
    """The chordal distance on the line, extended to type II/III points.

    For affine eta_{a,r} and eta_{b,s} this is
    max(|a-b|, r, s) / (max(1,|x|) * max(1,|y|)); the rigid point at infinity
    contributes 1 / max(1, |other|).
    """
    xa = x.to_affine() if isinstance(x, ProjPoint) else x
    ya = y.to_affine() if isinstance(y, ProjPoint) else y
    if xa is None:
        return ABS_ZERO if ya is None else ABS_ONE / unit_max(ya.norm())
    if ya is None:
        return ABS_ONE / unit_max(xa.norm())
    gap = (xa.center - ya.center).abs()
    num = abs_max([gap, xa.radius, ya.radius])
    return num / (unit_max(xa.norm()) * unit_max(ya.norm()))


def tate_lipschitz_check(f: Poly, z: Scalar, w: Scalar) -> bool:
    """Whether |f(z) - f(w)| <= ||f|| * |z - w| for unit-disk arguments,
    where ||f|| is the Gauss norm.  True for every plain polynomial; exposed
    as a checkable oracle."""
    if not f.is_plain:
        raise ValueError("the Lipschitz bound is stated for plain polynomials")
    lhs = (f.evaluate(z) - f.evaluate(w)).abs()
    rhs = f.gauss_norm() * (z - w).abs()
    return lhs <= rhs


def fs_ratio(f_coords: Sequence[Poly], x: Scalar, y: Scalar) -> AbsValue:
    """The chordal difference quotient d_P(f(x), f(y)) / |x - y| on rigid
    points; its limit along shrinking pairs is the Fubini-Study derivative."""
    fx = [p.evaluate(x) for p in f_coords]
    fy = [p.evaluate(y) for p in f_coords]
    gap = (x - y).abs()
    return d_proj(fx, fy) / gap
