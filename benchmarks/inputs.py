"""Seeded input generators for the benchmark.

The map, point, word, Laurent and tree generators are ports of the test
suite's generators (``tests/conftest.py``), kept here so that a change to the
tests cannot shift a workload.  They draw from the random stream in the same
order as the originals, so a workload built from them has the shape of the
acceptance criterion it names.

Every generator draws from a ``random.Random``, so the same seed always gives
the same inputs; those that build library objects also take the berkline
package as ``lib``.  The ``raw_*`` generators for CLI documents return plain
rationals, which the library only ever sees through the document file.
"""

from __future__ import annotations

import random
from fractions import Fraction


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"berkline-bench:{workload}:{seed}:{stream}")


# ---------------------------------------------------------------------------
# Library values (ports of tests/conftest.py)


def padic_scalar(rng: random.Random, spec, unit_ball: bool = False):
    return spec.scalar(raw_padic_scalar(rng, spec.p, unit_ball))


def puiseux_scalar(rng: random.Random, spec, unit_ball: bool = False):
    n_terms = rng.randint(0, 2)
    terms = []
    for _ in range(n_terms + 1):
        d = rng.choice([1, 1, 2, 3])
        lo = 0 if unit_ball else -2
        q = Fraction(rng.randint(lo * d, 3 * d), d)
        c = rng.choice([1, 2, 3, -1, -2, 5])
        terms.append((q, c))
    return spec.from_terms(terms)


def scalar(rng: random.Random, spec, unit_ball: bool = False):
    if spec.backend == "padic":
        return padic_scalar(rng, spec, unit_ball)
    return puiseux_scalar(rng, spec, unit_ball)


def radius(lib, rng: random.Random, allow_zero: bool = True):
    if allow_zero and rng.random() < 0.3:
        return lib.AbsValue.zero()
    d = rng.choice([1, 1, 2, 3])
    return lib.AbsValue.of(Fraction(rng.randint(-6 * d, 0), d))


def unit_disk_point(lib, rng: random.Random, spec):
    return lib.DiskPoint(scalar(rng, spec, unit_ball=True), radius(lib, rng))


def poly(lib, rng: random.Random, spec, max_deg: int, unit_ball: bool = False):
    coeffs = {}
    for n in range(max_deg + 1):
        if rng.random() < 0.6:
            coeffs[n] = scalar(rng, spec, unit_ball)
    p = lib.Poly.from_dict(spec, coeffs)
    if p.is_zero:
        return lib.Poly.from_dict(spec, {rng.randint(0, max_deg): spec.one()})
    return p


def poly_map(lib, rng: random.Random, spec, max_deg: int):
    """A map [1 : P] with P nonconstant, coefficients in the unit ball."""
    while True:
        p = poly(lib, rng, spec, max_deg, unit_ball=True)
        if not p.is_constant:
            return lib.series_map([lib.Poly.constant(spec, spec.one()), p])


def pgl_word(lib, rng: random.Random, spec, max_len: int = 4) -> list:
    word = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(["scale", "translate", "invert"])
        if kind == "scale":
            if spec.backend == "padic":
                a = spec.scalar(rng.choice([1, 2, -1, Fraction(4, 5), 7]))
            else:
                a = spec.from_terms([(0, rng.choice([1, 2, -1, 3])), (rng.randint(1, 3), 1)])
            word.append(("scale", a))
        elif kind == "translate":
            word.append(("translate", scalar(rng, spec, unit_ball=True)))
        else:
            word.append(("invert",))
    return word


# ---------------------------------------------------------------------------
# Raw document data (rationals as Fractions; ``to_json`` encodes them)


def raw_padic_scalar(rng: random.Random, p: int, unit_ball: bool = False) -> Fraction:
    num = rng.choice([1, 2, 4, 5, 7, 8, -1, -2, -5])
    den = rng.choice([1, 1, 2, 5, 7])
    while den % p == 0:
        den = rng.choice([1, 2, 5, 7, 11])
    k = rng.randint(0, 3) if unit_ball else rng.randint(-2, 3)
    return Fraction(num, den) * Fraction(p) ** k


def raw_laurent(rng: random.Random, p: int, span: int = 4) -> dict[int, Fraction]:
    """Port of random_laurent over padic coefficients: exponent -> rational."""
    coeffs = {}
    for n in range(-span, span + 1):
        if rng.random() < 0.4:
            coeffs[n] = raw_padic_scalar(rng, p)
    if not coeffs:
        return {rng.randint(-span, span): Fraction(1)}
    return coeffs


def raw_poly(rng: random.Random, p: int, max_deg: int) -> dict[int, Fraction]:
    """Port of random_poly over padic coefficients."""
    coeffs = {}
    for n in range(max_deg + 1):
        if rng.random() < 0.6:
            coeffs[n] = raw_padic_scalar(rng, p)
    if not coeffs:
        return {rng.randint(0, max_deg): Fraction(1)}
    return coeffs


def raw_tree_of_disks(rng: random.Random, n_disks: int, extra_edges: tuple[int, int] = (0, 2)):
    """Port of random_tree_of_disks: a connected tree of disks with
    ``extra_edges`` (a randint range) cycle edges and three marks.
    Coordinates are lists of (magnitude, coefficient) pairs; the empty list
    is the coordinate 0."""
    names = [f"d{i}" for i in range(n_disks)]
    mags = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)]

    def coord():
        k = rng.randint(0, 2)
        pairs = [(rng.choice(mags), rng.randint(-2, 2)) for _ in range(k)]
        return [(m, c) for m, c in pairs if c != 0]

    edges = []
    for i in range(1, n_disks):
        other = names[rng.randint(0, i - 1)]
        edges.append((names[i], coord(), other, coord()))
    for _ in range(rng.randint(*extra_edges)):
        a, b = rng.sample(names, 2)
        edges.append((a, coord(), b, coord()))
    marks = {m: (rng.choice(names), coord()) for m in ("x", "y", "z")}
    return names, edges, marks


def to_json(x):
    """JSON-ready copy of raw data: Fractions become 'num/den' strings."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    return x
