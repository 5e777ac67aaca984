"""Combinatorial curve models and tree-of-disks spaces.

A curve model is a finite metric graph (the skeleton) with genus marks,
declared extra non-discal directions, punctures, boundary vertices and
optional disk components hanging off attachment points.  The genus of a
projective model is the first Betti number of the skeleton plus the vertex
genera; nodes are the vertices with positive genus, at least three non-discal
directions, or on the boundary.

Tree-of-disks spaces are unit-disk components glued at rigid points.  The
in-disk coordinates are finite rational combinations of abstract unit-disk
elements carrying *declared positive rational magnitudes*; differences are
measured by the largest surviving magnitude, which is an ultrametric.  A
coordinate is held in one normal form of ints (the layout of FLINT's fmpq:
integer data in lowest terms): the least common denominator D of its
magnitudes, and its terms from the largest magnitude down as triples
(magnitude * D, coefficient numerator, coefficient denominator), every
coefficient nonzero and reduced.  So equal coordinates are equal int
tuples, document rationals go to that form without a Fraction, and a
difference is one merge of two top-down lists.  The two Kobayashi-type
semi-distances are computed over chains through the attachment graph:

    dck: minimize the sum of the in-disk step sizes,
    d:   minimize the largest in-disk step size.

The search runs over states: a state is the edge end through which a chain
entered its current disk, or the starting mark, so every continuation of a
chain depends on its state alone.  Chains are expanded in order of cost
(Dijkstra); neither the sum nor the max decreases along a chain, so the
first chain to arrive at y is optimal.  A chain that returns to a state can
be spliced at the repeat without increasing the sum or the max and with
fewer disk visits.  So a chain that reaches an already expanded state, at no
lower cost and with no fewer visits, is dominated: without a budget each
state is expanded once, and under a visit budget again only with strictly
fewer visits than at its last expansion.

Step costs are integers over one common denominator: before a search, the
lcm L of the coordinates' denominators D is taken over the tree and both
marks, each coordinate's top-down triples are rescaled by L/D (and used as
they are when D = L), and a step is the first term, from the top, that two
such lists do not share.  The search adds or compares ints only, and the
distance is cost/L.  Because the steps are summed, the distances are exact
nonnegative rationals (math.inf when no chain exists) rather than symbolic
magnitudes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    EmptySkeleton,
    InconsistentModel,
    NoNodes,
    NotHyperbolic,
    NotProjective,
    UnknownMark,
)
from .field import as_fraction, rational_pair

# ---------------------------------------------------------------------------
# Euler characteristic


def euler_characteristic(genus: int, punctures: int) -> int:
    """chi = 2 - 2g - (number of punctures)."""
    if genus < 0 or punctures < 0:
        raise ValueError("genus and puncture count must be nonnegative")
    return 2 - 2 * genus - punctures


# ---------------------------------------------------------------------------
# In-disk coordinates with declared rational magnitudes


_RATIONAL_TYPES = (int, Fraction)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class UltraScalar:
    """A finite rational combination of abstract unit-disk elements, each
    carrying a declared magnitude in (0, 1] cap Q.

    The magnitude of a combination is the largest magnitude with a nonzero
    coefficient; subtraction cancels termwise, so the induced distance
    |x - y| is an exact rational ultrametric.  Plain rationals embed with
    magnitude 1.

    Layout: ``den`` is the least common denominator of the magnitudes (1 for
    zero), and ``top`` holds the terms from the largest magnitude down as
    int triples (M, coefficient numerator, coefficient denominator): the
    magnitude is M/den, every coefficient is nonzero and in lowest terms
    with a positive denominator.  Equal values are equal (den, top) pairs,
    so the generated == and hash read them.  ``terms`` (sorted by increasing
    magnitude) and ``magnitude()`` are read-only Fraction views.

    ``UltraScalar(terms)`` takes (magnitude, coefficient) pairs, ints or
    Fractions (never floats or bools), in normal form: strictly increasing
    positive magnitudes and nonzero coefficients.  ``ultra`` builds values
    from any rationals.
    """

    den: int
    top: tuple[tuple[int, int, int], ...]

    def __init__(self, terms: Sequence[tuple[Fraction, Fraction]]) -> None:
        prev = 0  # one pass: each magnitude exceeds the last, the first exceeds 0
        for m, c in terms:
            if type(m) not in _RATIONAL_TYPES or type(c) not in _RATIONAL_TYPES:
                raise ValueError(f"magnitudes and coefficients must be ints or Fractions, not {m!r}, {c!r}")
            if m <= prev:
                if prev == 0:
                    raise ValueError("magnitudes must be positive rationals")
                raise ValueError("magnitudes must be strictly increasing")
            if not c:
                raise ValueError("zero coefficients are not stored")
            prev = m
        den = math.lcm(*[m.denominator for m, _ in terms])
        _set_den(self, den)
        _set_top(self, tuple([(m.numerator * (den // m.denominator), c.numerator, c.denominator) for m, c in reversed(terms)]))

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(magnitude, coefficient) pairs by increasing magnitude."""
        den = self.den
        return tuple([(Fraction(m, den), Fraction(n, d)) for m, n, d in reversed(self.top)])

    def __sub__(self, other: "UltraScalar") -> "UltraScalar":
        # one merge of the two top-down lists over their common denominator
        den = self.den if self.den == other.den else math.lcm(self.den, other.den)
        a, b = _top_down(self, den), _top_down(other, den)
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            s, t = a[i], b[j]
            if s[0] > t[0]:
                out.append(s)
                i += 1
            elif s[0] < t[0]:
                out.append((t[0], -t[1], t[2]))
                j += 1
            else:
                n, d = s[1] * t[2] - t[1] * s[2], s[2] * t[2]
                if n:
                    g = math.gcd(n, d)
                    out.append((s[0], n // g, d // g))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend([(m, -n, d) for m, n, d in b[j:]])
        # cancellation may leave magnitudes over a smaller common denominator
        g = math.gcd(den, *[m for m, _, _ in out])
        if g != 1:
            den //= g
            out = [(m // g, n, d) for m, n, d in out]
        return _ultra(den, tuple(out)) if out else ULTRA_ZERO

    def magnitude(self) -> Fraction:
        return Fraction(self.top[0][0], self.den) if self.top else Fraction(0)

    def __repr__(self) -> str:
        return f"UltraScalar(terms={self.terms!r})"


_set_den = UltraScalar.den.__set__  # type: ignore[attr-defined]
_set_top = UltraScalar.top.__set__  # type: ignore[attr-defined]


def _ultra(den: int, top: tuple) -> UltraScalar:
    """The UltraScalar with an already normal (den, top); it writes the
    frozen slots directly, skipping __init__'s checks."""
    u = object.__new__(UltraScalar)
    _set_den(u, den)
    _set_top(u, top)
    return u


ULTRA_ZERO = _ultra(1, ())


def ultra_from_pairs(pairs: Sequence[tuple[int, int, int, int]]) -> UltraScalar:
    """The in-disk coordinate with terms (m_num, m_den, c_num, c_den): the
    coefficient c_num/c_den on the element of magnitude m_num/m_den, each
    pair in lowest terms with a positive denominator (as
    field.rational_pair returns them).  Repeated magnitudes are merged, and
    terms whose coefficients cancel are dropped before the magnitudes are
    checked."""
    if len(pairs) == 1:  # most document coordinates: nothing to merge or sort
        mn, md, cn, cd = pairs[0]
        if not cn:
            return ULTRA_ZERO
        if mn <= 0:
            raise ValueError("magnitudes must be positive rationals")
        return _ultra(md, ((mn, cn, cd),))
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for mn, md, cn, cd in pairs:
        prev = acc.get((mn, md))
        if prev is not None:
            n, d = prev[0] * cd + cn * prev[1], prev[1] * cd
            g = math.gcd(n, d)
            cn, cd = n // g, d // g
        acc[mn, md] = (cn, cd)
    live = [(mn, md, cn, cd) for (mn, md), (cn, cd) in acc.items() if cn]
    if not live:
        return ULTRA_ZERO
    den = math.lcm(*[md for _, md, _, _ in live])
    top = sorted([(mn * (den // md), cn, cd) for mn, md, cn, cd in live], reverse=True)
    if top[-1][0] <= 0:
        raise ValueError("magnitudes must be positive rationals")
    return _ultra(den, tuple(top))


UltraLike = Union["UltraScalar", int, str, Fraction, Sequence]


def ultra(value: UltraLike) -> UltraScalar:
    """Coerce to an in-disk coordinate.

    Rationals embed as residue-field constants (magnitude 1 unless zero);
    a sequence of (magnitude, coefficient) pairs declares the terms, and
    repeated magnitudes are merged.
    """
    if isinstance(value, UltraScalar):
        return value
    if isinstance(value, (int, str, Fraction)):
        return ultra_from_pairs([(1, 1, *rational_pair(value))])
    return ultra_from_pairs([rational_pair(m) + rational_pair(c) for m, c in value])


def ultra_distance(x: UltraLike, y: UltraLike) -> Fraction:
    return (ultra(x) - ultra(y)).magnitude()


# ---------------------------------------------------------------------------
# Tree of disks


@dataclass(frozen=True)
class TreeOfDisks:
    """Unit disks glued at rigid attachment coordinates, with named marks."""

    disks: tuple[str, ...]
    edges: tuple[tuple[str, UltraScalar, str, UltraScalar], ...]
    marks: tuple[tuple[str, str, UltraScalar], ...]

    def __post_init__(self) -> None:
        names = set(self.disks)
        if len(names) != len(self.disks):
            raise ValueError("duplicate disk names")
        for a, ca, b, cb in self.edges:
            if a not in names or b not in names:
                raise ValueError(f"attachment between unknown disks {a!r}, {b!r}")
            if _beyond_unit(ca) or _beyond_unit(cb):
                raise ValueError("attachment coordinates must have magnitude <= 1")
        for mark, disk, coord in self.marks:
            if disk not in names:
                raise ValueError(f"mark {mark!r} on unknown disk {disk!r}")
            if _beyond_unit(coord):
                raise ValueError("marked coordinates must have magnitude <= 1")

    def mark(self, name: str) -> tuple[str, UltraScalar]:
        for mark, disk, coord in self.marks:
            if mark == name:
                return disk, coord
        raise UnknownMark(f"no marked point named {name!r}")


def tree_of_disks(
    disks: Iterable[str],
    edges: Iterable[tuple[str, UltraLike, str, UltraLike]],
    marks: Mapping[str, tuple[str, UltraLike]],
) -> TreeOfDisks:
    return TreeOfDisks(
        tuple(disks),
        tuple([(a, ultra(ca), b, ultra(cb)) for a, ca, b, cb in edges]),
        tuple([(name, disk, ultra(coord)) for name, (disk, coord) in marks.items()]),
    )


Cost = Union[Fraction, float]  # exact rational, or math.inf for "no chain"

INFINITE: float = math.inf


def _beyond_unit(c: UltraScalar) -> bool:
    """|c| > 1: the largest magnitude exceeds 1."""
    return bool(c.top) and c.top[0][0] > c.den


def _top_down(c: UltraScalar, scale: int) -> Sequence[tuple[int, int, int]]:
    """The terms of c from the largest magnitude down, as int triples
    (magnitude * scale, coefficient numerator, coefficient denominator);
    scale is a multiple of c.den."""
    k = scale // c.den
    if k == 1:
        return c.top
    return [(m * k, n, d) for m, n, d in c.top]


def _step(a: list, b: list) -> int:
    """The scaled magnitude of the difference of two top-down term lists:
    the first term, from the top, that the two do not share."""
    for s, t in zip(a, b):
        if s != t:
            return s[0] if s[0] > t[0] else t[0]
    if len(a) > len(b):
        return a[len(b)][0]
    if len(b) > len(a):
        return b[len(a)][0]
    return 0


def _chain_extremum(t: TreeOfDisks, x: str, y: str, budget: int | None, mode: str) -> Cost:
    if budget is not None and budget < 1:
        raise ValueError(f"a chain budget counts disk visits and must be at least 1, not {budget}")
    disk_x, coord_x = t.mark(x)
    disk_y, coord_y = t.mark(y)
    # every magnitude as an int over one common denominator, so costs are ints
    coords = [coord_x, coord_y]
    for _, ca, _, cb in t.edges:
        coords.append(ca)
        coords.append(cb)
    scale = math.lcm(*[c.den for c in coords])
    target = _top_down(coord_y, scale)
    # state 0 is the mark x; states 2k+1 and 2k+2 enter edge k's second and first disk
    entries = [(disk_x, _top_down(coord_x, scale))]
    exits: dict[str, list[tuple[list, int]]] = {d: [] for d in t.disks}
    for a, ca, b, cb in t.edges:
        here_a, here_b = _top_down(ca, scale), _top_down(cb, scale)
        exits[a].append((here_a, len(entries)))
        entries.append((b, here_b))
        exits[b].append((here_b, len(entries)))
        entries.append((a, here_a))
    add = mode == "sum"
    # Labels (cost, visits, state); state -1 means the chain has reached y.
    # Without a budget the visit count stays 1, so the first expansion settles a state.
    hop = 0 if budget is None else 1
    # visits at a state's last expansion; more visits than any label carries means never
    expanded = [(budget or 1) + 1] * len(entries)
    heap: list[tuple[int, int, int]] = [(0, 1, 0)]
    while heap:
        cost, visits, state = heapq.heappop(heap)
        if state < 0:
            return Fraction(cost, scale)
        if expanded[state] <= visits:
            continue
        expanded[state] = visits
        disk, coord = entries[state]
        if disk == disk_y:
            step = _step(coord, target)
            heapq.heappush(heap, (cost + step if add else max(cost, step), visits, -1))
        if budget is not None and visits >= budget:
            continue
        for here, nxt in exits[disk]:
            if expanded[nxt] > visits + hop:
                step = _step(coord, here)
                heapq.heappush(heap, (cost + step if add else max(cost, step), visits + hop, nxt))
    return INFINITE


def dck_tree(t: TreeOfDisks, x: str, y: str, budget: int | None = None) -> Cost:
    """The Kobayashi-type semi-distance: infimum over chains of the sum of
    in-disk step sizes.  Exact rational; math.inf when no chain joins the
    marked points.  ``budget`` optionally caps the number of disk visits
    (the start disk counts as one); a budget below 1 raises ValueError."""
    return _chain_extremum(t, x, y, budget, "sum")


def d_tree(t: TreeOfDisks, x: str, y: str, budget: int | None = None) -> Cost:
    """The ultrametric variant: infimum over chains of the largest step."""
    return _chain_extremum(t, x, y, budget, "max")


def chained_disk_family(n_max: int) -> tuple[TreeOfDisks, str, str]:
    """The two-marked-point space exhibiting non-equivalence of the two
    semi-distances: one direct gluing of step 1 plus, for every n = 3..n_max,
    a chain of n disks with steps of magnitude 1/n.

    dck(x, y) = 1 for every truncation, while d(x, y) = 1/n_max.
    """
    if n_max < 3:
        raise ValueError("the family starts at n = 3")
    disks = ["D", "X1", "Y"]
    edges: list[tuple[str, UltraLike, str, UltraLike]] = [
        ("D", 0, "X1", 0),  # the point x
        ("D", 1, "Y", 0),  # the point y
    ]
    for n in range(3, n_max + 1):
        step = [(Fraction(1, n), 1)]
        prev = "X1"
        prev_coord: UltraLike = step
        for l in range(2, n):
            name = f"X{n}_{l}"
            disks.append(name)
            edges.append((prev, prev_coord, name, 0))
            prev = name
            prev_coord = step
        edges.append((prev, prev_coord, "Y", step))
    marks = {"x": ("X1", 0), "y": ("Y", 0)}
    return tree_of_disks(disks, edges, marks), "x", "y"


# ---------------------------------------------------------------------------
# Curve models

Attachment = tuple  # ("vertex", name) | ("edge", index, offset)


@dataclass(frozen=True)
class VertexData:
    name: str
    genus: int = 0
    extra_directions: int = 0  # declared annular/puncture directions beyond the graph

    def __post_init__(self) -> None:
        if self.genus < 0 or self.extra_directions < 0:
            raise ValueError("genus and direction counts are nonnegative")


@dataclass(frozen=True)
class EdgeData:
    u: str
    v: str
    length: Fraction

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("edge lengths must be positive")


@dataclass(frozen=True)
class CurveModel:
    """A metric-graph skeleton with genus marks, punctures, boundary and
    hanging disk components."""

    vertices: tuple[VertexData, ...]
    edges: tuple[EdgeData, ...] = ()
    punctures: tuple[Attachment, ...] = ()
    boundary: frozenset = frozenset()
    disks: tuple[tuple[str, Attachment], ...] = ()

    def __post_init__(self) -> None:
        names = [v.name for v in self.vertices]
        if len(set(names)) != len(names):
            raise InconsistentModel("duplicate vertex names")
        known = set(names)
        for e in self.edges:
            if e.u not in known or e.v not in known:
                raise InconsistentModel(f"edge {e.u!r}-{e.v!r} touches unknown vertices")
        for att in self.punctures:
            self._check_attachment(att)
        for tag, att in self.disks:
            self._check_attachment(att)
        if not self.boundary <= known:
            raise InconsistentModel("boundary vertices must be vertices")

    def _check_attachment(self, att: Attachment) -> None:
        if att[0] == "vertex":
            if att[1] not in {v.name for v in self.vertices}:
                raise InconsistentModel(f"attachment at unknown vertex {att[1]!r}")
        elif att[0] == "edge":
            idx, offset = att[1], as_fraction(att[2])
            if not 0 <= idx < len(self.edges):
                raise InconsistentModel(f"attachment on unknown edge {idx}")
            if not 0 < offset < self.edges[idx].length:
                raise InconsistentModel("edge attachment offset outside the edge")
        else:
            raise InconsistentModel(f"unknown attachment kind {att[0]!r}")

    @property
    def is_projective(self) -> bool:
        return not self.punctures and not self.boundary

    def vertex(self, name: str) -> VertexData:
        for v in self.vertices:
            if v.name == name:
                return v
        raise UnknownMark(f"no vertex named {name!r}")

    def disk_attachment(self, tag: str) -> Attachment:
        for t, att in self.disks:
            if t == tag:
                return att
        raise UnknownMark(f"no disk component tagged {tag!r}")


def curve_model(
    vertices: Iterable[VertexData | tuple],
    edges: Iterable[EdgeData | tuple] = (),
    punctures: Iterable[Attachment] = (),
    boundary: Iterable[str] = (),
    disks: Iterable[tuple[str, Attachment]] = (),
) -> CurveModel:
    vs = tuple([v if isinstance(v, VertexData) else VertexData(*v) for v in vertices])
    es = tuple(
        [e if isinstance(e, EdgeData) else EdgeData(e[0], e[1], as_fraction(e[2])) for e in edges]
    )
    return CurveModel(vs, es, tuple(punctures), frozenset(boundary), tuple(disks))


@dataclass(frozen=True)
class _NormalizedGraph:
    """The skeleton with punctures subdivided onto synthetic vertices."""

    genus: dict
    extra: dict
    punctures_at: dict
    edges: list  # (u, v, length)


def _normalize(m: CurveModel) -> _NormalizedGraph:
    genus = {v.name: v.genus for v in m.vertices}
    extra = {v.name: v.extra_directions for v in m.vertices}
    punct = {v.name: 0 for v in m.vertices}
    by_edge: dict[int, list[Fraction]] = {}
    for att in m.punctures:
        if att[0] == "vertex":
            punct[att[1]] += 1
        else:
            by_edge.setdefault(att[1], []).append(as_fraction(att[2]))
    edges = []
    for idx, e in enumerate(m.edges):
        cuts = sorted(set(by_edge.get(idx, [])))
        prev, prev_off = e.u, Fraction(0)
        for off in cuts:
            name = f"{e.u}~{e.v}@{off}"
            genus[name] = 0
            extra[name] = 0
            punct[name] = sum(1 for o in by_edge.get(idx, []) if o == off)
            edges.append((prev, name, off - prev_off))
            prev, prev_off = name, off
        edges.append((prev, e.v, e.length - prev_off))
    return _NormalizedGraph(genus, extra, punct, edges)


def _classes(items: Iterable, pairs: Iterable[tuple]) -> dict:
    """Union-find: each item mapped to the representative of its class once
    every pair is merged."""
    parent = {i: i for i in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {i: find(i) for i in parent}


def _components(g: _NormalizedGraph) -> int:
    return len(set(_classes(g.genus, ((u, v) for u, v, _ in g.edges)).values()))


def _degrees(g: _NormalizedGraph) -> dict:
    degree = {n: 0 for n in g.genus}
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def _genus(g: _NormalizedGraph, components: int) -> int:
    return len(g.edges) - len(g.genus) + components + sum(g.genus.values())


def _nodes(g: _NormalizedGraph, degree: dict, boundary: frozenset) -> set:
    counts = {n: degree[n] + g.extra[n] + g.punctures_at[n] for n in g.genus}
    return {n for n in g.genus if g.genus[n] > 0 or counts[n] >= 3 or n in boundary}


def total_genus(m: CurveModel) -> int:
    """First Betti number of the skeleton plus the vertex genera."""
    if not m.is_projective:
        raise NotProjective("genus is computed for projective models")
    if not m.vertices:
        return 0
    g = _normalize(m)
    return _genus(g, _components(g))


def nodes(m: CurveModel) -> set:
    """Vertices with positive genus, >= 3 non-discal directions, or on the
    boundary (synthetic puncture vertices included)."""
    g = _normalize(m)
    return _nodes(g, _degrees(g), m.boundary)


@dataclass(frozen=True)
class Classification:
    kind: str  # projective-line | tate-curve | good-reduction | one-node-with-loops | multi-node
    genus: int

    def __str__(self) -> str:
        if self.kind in ("projective-line", "tate-curve"):
            return self.kind
        return f"{self.kind}({self.genus})"


def classify(m: CurveModel) -> Classification:
    """Place a projective model in the skeleton/node taxonomy, enforcing the
    structural consistency constraints."""
    if not m.is_projective:
        raise NotProjective("classification applies to projective models")
    if not m.vertices:
        return Classification("projective-line", 0)
    g = _normalize(m)
    if _components(g) != 1:
        raise InconsistentModel("the skeleton of an irreducible curve is connected")
    degree = _degrees(g)
    for name, deg in degree.items():
        if deg <= 1 and g.genus[name] == 0:
            raise InconsistentModel(
                f"skeleton endpoint {name!r} must carry positive genus"
            )
    node_set = _nodes(g, degree, m.boundary)
    genus = _genus(g, 1)  # one component, checked above
    if not node_set:
        if any(d != 2 for d in degree.values()) or genus != 1:
            raise InconsistentModel("a nodeless nonempty skeleton must be a circle")
        return Classification("tate-curve", 1)
    if genus < 1:
        raise InconsistentModel("a model with nodes must have positive genus")
    if len(g.genus) == 1 and not g.edges:
        return Classification("good-reduction", genus)
    if len(node_set) == 1:
        return Classification("one-node-with-loops", genus)
    return Classification("multi-node", genus)


@dataclass(frozen=True)
class SkeletonSegment:
    """A maximal open segment of skeleton minus nodes; its closure adds the
    listed node ends (a circle when both ends are the same node)."""

    length: Fraction
    ends: tuple
    is_circle: bool


@dataclass(frozen=True)
class Decomposition:
    node_set: frozenset
    segments: tuple[SkeletonSegment, ...]
    open_disk_family: bool = True  # marker: infinitely many open unit disks

    @property
    def annulus_log_moduli(self) -> tuple[Fraction, ...]:
        """Each segment of length L corresponds to an annulus A(1, R) with
        log R = L."""
        return tuple([s.length for s in self.segments])


def decompose(m: CurveModel) -> Decomposition:
    """Split the skeleton into nodes and open segments."""
    g = _normalize(m)
    node_set = _nodes(g, _degrees(g), m.boundary)
    if not node_set:
        raise NoNodes("decomposition needs at least one node")
    incident: dict[str, list[int]] = {}
    for i, (u, v, _) in enumerate(g.edges):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    # edges meeting at a vertex that is not a node lie on one segment
    joins = [(ids[0], i) for name, ids in incident.items() if name not in node_set for i in ids[1:]]
    root = _classes(range(len(g.edges)), joins)
    groups: dict[int, list[int]] = {}
    for i in range(len(g.edges)):
        groups.setdefault(root[i], []).append(i)
    segments = []
    for ids in groups.values():
        length = sum((g.edges[i][2] for i in ids), Fraction(0))
        ends = []
        for i in ids:
            u, v, _ = g.edges[i]
            for w in (u, v):
                if w in node_set:
                    ends.append(w)
        ends_t = tuple(sorted(ends))
        is_circle = len(ends_t) == 2 and ends_t[0] == ends_t[1]
        segments.append(SkeletonSegment(length, ends_t, is_circle))
    segments.sort(key=lambda s: (s.length, s.ends))
    return Decomposition(frozenset(node_set), tuple(segments))


SkeletonPoint = tuple  # ("vertex", name) | ("edge", index, offset)


def retract(m: CurveModel, x: tuple) -> SkeletonPoint:
    """The retraction to the skeleton: identity on skeleton points, the
    attachment point for hanging disk components."""
    if not m.vertices:
        raise EmptySkeleton("the model has no skeleton")
    kind = x[0]
    if kind == "vertex":
        m.vertex(x[1])
        return x
    if kind == "edge":
        m._check_attachment(x)
        return x
    if kind == "disk":
        return retract(m, m.disk_attachment(x[1]))
    raise UnknownMark(f"unknown point kind {kind!r}")


def dck_curve(m: CurveModel, x: tuple[str, UltraLike], y: tuple[str, UltraLike]) -> Cost:
    """The Kobayashi-type semi-distance between rigid points of disk
    components of a positive-genus model: the in-disk distance for points of
    the same component, infinite otherwise."""
    if not m.vertices:
        raise NotHyperbolic("empty skeleton: the semi-distance degenerates")
    tag_x, coord_x = x
    tag_y, coord_y = y
    m.disk_attachment(tag_x)
    m.disk_attachment(tag_y)
    if tag_x != tag_y:
        return INFINITE
    return ultra_distance(coord_x, coord_y)


# ---------------------------------------------------------------------------
# Star-shaped data


@dataclass(frozen=True)
class StarShapedData:
    """The combinatorial data of a one-node simply-connected domain: the
    genus of its residue curve and one annulus log-modulus per non-discal
    direction (all negative)."""

    genus: int
    log_moduli: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if any(r >= 0 for r in self.log_moduli):
            raise ValueError("annulus log-moduli must be negative")
        if self.genus == 0 and len(self.log_moduli) < 3:
            raise InconsistentModel(
                "the center must be a node: positive genus or >= 3 directions"
            )

    @property
    def direction_count(self) -> int:
        return len(self.log_moduli)
