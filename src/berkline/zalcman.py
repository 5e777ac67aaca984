"""Executable selection lemma on finite rigid samples and the rescaling
construction for explicit map families.

The selection step takes a positive rational-valued function on a finite set
of rigid points and, given epsilon > 0 and tau > 1, finds a point b with

    (i)   |a - b| <= tau / (epsilon (tau - 1) phi(a)),
    (ii)  phi(b) >= phi(a),
    (iii) |x - b| <= 1 / (epsilon phi(b))  implies  phi(x) <= tau phi(b),

by jumping to a witness with phi > tau * phi(current) while condition (iii)
fails; phi grows geometrically so the iteration terminates on a finite
sample, and the ultrametric inequality yields (i).

The rescaling step turns a family with exploding derivative into maps
g_n(z) = f_n(z_n + rho_n z) with |g_n'(0)| = 1 exactly, |rho_n| the
reciprocal of the derivative magnitude at the selected point.  Magnitudes are
compared with rationals exactly through the numeric base of the backend, so
every inequality below is decided without floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import NoExplosion
from .field import (
    ABS_ONE,
    AbsValue,
    FieldSpec,
    Scalar,
    as_fraction,
    magnitude_as_rational,
    magnitude_ge_rational,
    magnitude_le_rational,
)
from .fsderiv import Domain, SeriesMap, fs_derivative, rescale_map
from .points import DiskPoint, rigid

# ---------------------------------------------------------------------------
# Sampled functions and the selection lemma


@dataclass(frozen=True)
class SampledFunction:
    """A strictly positive rational-valued function on finitely many rigid
    points of a disk."""

    points: tuple[Scalar, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("empty sample")
        if len(self.points) != len(self.values):
            raise ValueError("one value per sample point")
        if any(v.numerator <= 0 for v in self.values):  # a rational has its numerator's sign
            raise ValueError("sampled values must be positive rationals")
        spec = self.points[0].spec
        if any(p.spec != spec for p in self.points):
            raise ValueError("mixed backends in the sample")

    @property
    def spec(self) -> FieldSpec:
        return self.points[0].spec


def sampled_function(points: Sequence[Scalar], values: Sequence) -> SampledFunction:
    return SampledFunction(tuple(points), tuple([as_fraction(v) for v in values]))


def _check_index(s: SampledFunction, i: int) -> None:
    if not 0 <= i < len(s.points):
        raise ValueError(f"point index {i} is outside 0..{len(s.points) - 1}")


def _ball_test(center: Scalar, bound: Fraction, base: Fraction) -> Callable[[Scalar], bool]:
    """x -> |x - center| <= bound.  The answer depends only on the gap's
    magnitude, so magnitude_le_rational runs once per distinct magnitude."""
    decided: dict = {}

    def inside(x: Scalar) -> bool:
        gap = x.dist(center)
        answer = decided.get(gap)
        if answer is None:
            answer = decided[gap] = magnitude_le_rational(gap, bound, base)
        return answer

    return inside


def _selection_parameters(epsilon, tau) -> tuple[Fraction, Fraction]:
    """epsilon and tau as Fractions, checked: the lemma needs epsilon > 0
    and tau > 1 (condition (i) divides by epsilon (tau - 1))."""
    eps, t = as_fraction(epsilon), as_fraction(tau)
    if eps <= 0 or t <= 1:
        raise ValueError("need epsilon > 0 and tau > 1")
    return eps, t


def _pairs(values: Sequence[Fraction]) -> list[tuple[int, int]]:
    """The sampled values as (numerator, denominator) ints: phi is compared
    by cross-multiplication, each comparison on the two values' own
    denominators (one common denominator would grow with every coprime
    denominator of the sample)."""
    return [(v.numerator, v.denominator) for v in values]


def gromov_select(s: SampledFunction, a_index: int, epsilon, tau) -> int:
    """Index of a point satisfying the three selection conditions for the
    start index ``a_index``.  Always succeeds on a finite sample."""
    _check_index(s, a_index)
    eps, t = _selection_parameters(epsilon, tau)
    base = s.spec.base()
    phi = _pairs(s.values)
    tn, td = t.numerator, t.denominator
    b = a_index
    while True:
        # phi(x) > tau phi(b) iff xn (td bd) > (tn bn) xd
        bn, bd = phi[b]
        cn, cd = tn * bn, td * bd
        inside = _ball_test(s.points[b], 1 / (eps * s.values[b]), base)
        witness = None
        wn, wd = 0, 1  # phi(witness); every phi is positive
        for i, x in enumerate(s.points):
            xn, xd = phi[i]
            if xn * cd > cn * xd and xn * wd > wn * xd and inside(x):
                witness, wn, wd = i, xn, xd
        if witness is None:
            return b
        b = witness


def gromov_conditions(s: SampledFunction, a_index: int, b_index: int, epsilon, tau) -> tuple[bool, bool, bool]:
    """Exhaustive post-hoc check of the three selection conditions."""
    _check_index(s, a_index)
    _check_index(s, b_index)
    eps, t = _selection_parameters(epsilon, tau)
    base = s.spec.base()
    phi_a, phi_b = s.values[a_index], s.values[b_index]
    gap = s.points[a_index].dist(s.points[b_index])
    cond_i = magnitude_le_rational(gap, t / (eps * (t - 1) * phi_a), base)
    cond_ii = phi_b >= phi_a
    cn, cd = t.numerator * phi_b.numerator, t.denominator * phi_b.denominator  # tau phi(b)
    inside = _ball_test(s.points[b_index], 1 / (eps * phi_b), base)
    cond_iii = not any(xn * cd > cn * xd and inside(x) for x, (xn, xd) in zip(s.points, _pairs(s.values)))
    return cond_i, cond_ii, cond_iii


# ---------------------------------------------------------------------------
# Rescaling

MapFamily = Callable[[int], SeriesMap]


@dataclass(frozen=True)
class RescaleStep:
    """One rescaled map: g(z) = f(center + scale * z) on a disk of radius
    1/|scale|, with |g'(0)| = 1 exactly."""

    index: int
    witness: Scalar
    center: Scalar  # the selected point z_n
    scale: Scalar  # rho_n, with |rho_n| = 1 / |f_n'(z_n)|
    map: SeriesMap  # g_n
    derivative_at_center: AbsValue  # |f_n'(z_n)|


def _fs_at(f: SeriesMap, x: Scalar) -> AbsValue:
    return fs_derivative(f, rigid(x))


def zalcman_rescale(
    family: MapFamily,
    witnesses: Callable[[int], Scalar],
    n_max: int,
    samples: Callable[[int], Sequence[Scalar]] | None = None,
) -> list[RescaleStep]:
    """Rescale family members 1..n_max around selected points.

    ``witnesses(n)`` must be a rigid point with derivative magnitude at least
    n^3 (checked exactly; NoExplosion otherwise).  ``samples(n)`` optionally
    supplies the finite rigid sample for the selection step with
    epsilon = 1/n and tau = 1 + 1/n; the witness is always included.  The
    scale rho_n is the canonical backend scalar of the required magnitude
    (RadiusNotInValueGroup when none exists).
    """
    steps = []
    for n in range(1, n_max + 1):
        f = family(n)
        spec = f.spec
        a = witnesses(n)
        phi_a = _fs_at(f, a)
        if not magnitude_ge_rational(phi_a, Fraction(n**3), spec.base()):
            raise NoExplosion(f"witness derivative below {n}^3 at index {n}")
        kept, mags = [a], [phi_a]  # the witness first; mags nonzero only
        if samples is not None:
            for x in samples(n):
                if x != a:
                    v = _fs_at(f, x)
                    if not v.is_zero:  # a zero carries no information for the selection
                        kept.append(x)
                        mags.append(v)
        values = [magnitude_as_rational(v, spec.base()) for v in mags]
        sample = SampledFunction(tuple(kept), tuple(values))
        b_index = gromov_select(sample, 0, Fraction(1, n), 1 + Fraction(1, n))
        z = sample.points[b_index]
        dz = mags[b_index]
        rho = spec.uniformizer(-dz.logval)
        g = rescale_map(f, rho, z, Domain.disk(dz))
        if fs_derivative(g, rigid(spec.zero())) != ABS_ONE:
            raise AssertionError("rescaled derivative at 0 must be exactly 1")
        steps.append(RescaleStep(n, a, z, rho, g, dz))
    return steps


def rescaled_bound_holds(step: RescaleStep, radius: AbsValue, n: int) -> bool:
    """Exact check of the compactness bound |g'(z)| <= R^2 (1 + 1/n) at the
    maximally-evaluating point eta_{0,R} of a closed disk inside the
    certified region."""
    spec = step.map.spec
    value = fs_derivative(step.map, DiskPoint(spec.zero(), radius))
    scaled = value / (radius * radius)
    return magnitude_le_rational(scaled, 1 + Fraction(1, n), spec.base())
