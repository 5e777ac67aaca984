"""Curve models: genus and classification calculus, decomposition, retraction,
and the two chain semi-distances on trees of disks."""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berkline import (
    StarShapedData,
    UltraScalar,
    chained_disk_family,
    classify,
    curve_model,
    d_tree,
    dck_curve,
    dck_tree,
    decompose,
    euler_characteristic,
    nodes,
    retract,
    total_genus,
    tree_of_disks,
    ultra,
    ultra_distance,
)
from berkline.errors import (
    EmptySkeleton,
    InconsistentModel,
    NoNodes,
    NotHyperbolic,
    NotProjective,
    UnknownMark,
)

from conftest import random_tree_of_disks, rng_for, ultra_distance_oracle, ultra_oracle

INF = math.inf


# ---------------------------------------------------------------------------
# Euler characteristic and genus


def test_euler_characteristic_values():
    assert euler_characteristic(0, 3) == -1
    assert euler_characteristic(1, 0) == 0
    assert euler_characteristic(2, 0) == -2
    with pytest.raises(ValueError):
        euler_characteristic(-1, 0)


def circle_model_data():
    return [("a", 0), ("b", 0)], [("a", "b", 1), ("a", "b", 2)]


def circle_model():
    return curve_model(*circle_model_data())


def test_total_genus_circle_is_one():
    assert total_genus(circle_model()) == 1


def test_total_genus_single_marked_vertex():
    assert total_genus(curve_model([("v", 2)])) == 2


def test_total_genus_theta_graph_with_marked_vertex():
    # two vertices, three parallel edges: first Betti number 3 - 2 + 1 = 2
    m = curve_model([("a", 0), ("b", 1)], [("a", "b", 1), ("a", "b", 2), ("a", "b", 3)])
    assert total_genus(m) == 2 + 1


def test_total_genus_requires_projective():
    m = curve_model([("v", 1)], punctures=[("vertex", "v")])
    with pytest.raises(NotProjective):
        total_genus(m)


# ---------------------------------------------------------------------------
# nodes


def test_circle_has_no_nodes():
    assert nodes(circle_model()) == set()


def test_positive_genus_vertex_is_node():
    assert nodes(curve_model([("v", 2)])) == {"v"}


def test_branch_vertex_is_node():
    m = curve_model(
        [("c", 1), ("x", 1), ("y", 1), ("z", 1)],
        [("c", "x", 1), ("c", "y", 1), ("c", "z", 1)],
    )
    assert "c" in nodes(m)


def test_boundary_vertex_is_node():
    m = curve_model([("v", 0), ("w", 0)], [("v", "w", 1), ("v", "w", 1)], boundary=["v"])
    assert "v" in nodes(m)


def test_puncture_at_a_vertex_counts_toward_its_directions():
    # each circle vertex has two directions; a puncture at a makes three
    assert nodes(curve_model(*circle_model_data(), punctures=[("vertex", "a")])) == {"a"}
    assert nodes(curve_model(*circle_model_data())) == set()


def test_puncture_on_edge_creates_node():
    m = curve_model(
        [("a", 1), ("b", 1)],
        [("a", "b", 2)],
        punctures=[("edge", 0, Fraction(1, 2))],
    )
    node_names = nodes(m)
    assert any("@" in name for name in node_names)


# ---------------------------------------------------------------------------
# classification


def test_classify_projective_line():
    label = classify(curve_model([]))
    assert label.kind == "projective-line" and str(label) == "projective-line"


def test_classify_tate_curve():
    label = classify(circle_model())
    assert label.kind == "tate-curve" and label.genus == 1


def test_classify_good_reduction():
    label = classify(curve_model([("v", 2)]))
    assert str(label) == "good-reduction(2)"


def test_classify_one_node_with_loops():
    m = curve_model([("v", 1)], [("v", "v", 3)])
    label = classify(m)
    assert label.kind == "one-node-with-loops" and label.genus == 2


def test_classify_multi_node():
    m = curve_model([("a", 1), ("b", 1)], [("a", "b", 1), ("a", "b", 1)])
    label = classify(m)
    assert label.kind == "multi-node" and label.genus == 3


def test_classify_rejects_genus_zero_endpoint():
    dangling = curve_model([("v", 1), ("w", 0)], [("v", "w", 1)])
    with pytest.raises(InconsistentModel):
        classify(dangling)
    isolated = curve_model([("v", 0)])
    with pytest.raises(InconsistentModel):
        classify(isolated)


def test_classify_rejects_disconnected_skeleton():
    m = curve_model(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [("a", "b", 1), ("a", "b", 1), ("c", "d", 1), ("c", "d", 1)],
    )
    with pytest.raises(InconsistentModel):
        classify(m)


def test_classify_consistency_with_genus():
    for m in (circle_model(), curve_model([("v", 3)]), curve_model([("v", 1)], [("v", "v", 2)])):
        label = classify(m)
        assert label.genus == total_genus(m)
        if label.kind == "tate-curve":
            assert label.genus == 1
        if label.kind in ("one-node-with-loops", "multi-node", "good-reduction"):
            assert label.genus >= 1


# ---------------------------------------------------------------------------
# decomposition and retraction


def test_decompose_single_loop_is_circle():
    m = curve_model([("v", 1)], [("v", "v", Fraction(5, 2))])
    dec = decompose(m)
    assert dec.node_set == {"v"}
    assert len(dec.segments) == 1
    seg = dec.segments[0]
    assert seg.length == Fraction(5, 2) and seg.is_circle
    assert dec.annulus_log_moduli == (Fraction(5, 2),)
    assert dec.open_disk_family


def test_decompose_two_nodes_two_segments():
    m = curve_model([("a", 1), ("b", 1)], [("a", "b", 1), ("a", "b", 2)])
    dec = decompose(m)
    assert len(dec.segments) == 2
    assert sorted(s.length for s in dec.segments) == [1, 2]
    assert all(not s.is_circle for s in dec.segments)


def test_decompose_chain_through_plain_vertex():
    # a path a - m - b with m an ordinary degree-2 vertex joins into one segment
    m = curve_model(
        [("a", 1), ("m", 0), ("b", 1)],
        [("a", "m", 1), ("m", "b", Fraction(1, 2))],
    )
    dec = decompose(m)
    assert len(dec.segments) == 1
    assert dec.segments[0].length == Fraction(3, 2)
    assert dec.segments[0].ends == ("a", "b")


def test_decompose_good_reduction_has_no_segments():
    dec = decompose(curve_model([("v", 2)]))
    assert dec.segments == ()


def test_decompose_needs_nodes():
    with pytest.raises(NoNodes):
        decompose(circle_model())


def test_retract():
    m = curve_model(
        [("v", 1)],
        [("v", "v", 2)],
        disks=[("bubble", ("vertex", "v")), ("pendant", ("edge", 0, Fraction(1, 2)))],
    )
    assert retract(m, ("vertex", "v")) == ("vertex", "v")
    assert retract(m, ("edge", 0, Fraction(1, 3))) == ("edge", 0, Fraction(1, 3))
    assert retract(m, ("disk", "bubble")) == ("vertex", "v")
    assert retract(m, ("disk", "pendant")) == ("edge", 0, Fraction(1, 2))
    with pytest.raises(UnknownMark):
        retract(m, ("disk", "ghost"))
    with pytest.raises(EmptySkeleton):
        retract(curve_model([]), ("vertex", "v"))


def test_retract_idempotent():
    m = curve_model([("v", 1)], [("v", "v", 2)], disks=[("d", ("vertex", "v"))])
    once = retract(m, ("disk", "d"))
    assert retract(m, once) == once


# ---------------------------------------------------------------------------
# dck on curve models


def test_dck_curve_same_and_different_components():
    m = curve_model([("v", 1)], [("v", "v", 1)], disks=[("d1", ("vertex", "v")), ("d2", ("vertex", "v"))])
    c = Fraction(1, 2)
    assert dck_curve(m, ("d1", 0), ("d1", [(c, 1)])) == c
    assert dck_curve(m, ("d1", 0), ("d2", 0)) == INF
    assert dck_curve(m, ("d1", [(c, 1)]), ("d1", [(c, 1)])) == 0
    with pytest.raises(NotHyperbolic):
        dck_curve(curve_model([]), ("d1", 0), ("d1", 0))


# ---------------------------------------------------------------------------
# ultrametric coordinates


def test_ultra_scalar_distances():
    x = ultra([(Fraction(1, 2), 1)])
    y = ultra([(Fraction(1, 2), 1), (Fraction(1, 5), 3)])
    assert ultra_distance(x, y) == Fraction(1, 5)  # leading parts cancel
    assert ultra_distance(0, 1) == 1
    assert ultra_distance(x, x) == 0
    assert ultra(Fraction(0)).magnitude() == 0


def test_ultra_scalar_normal_form_equality_and_hash():
    half = Fraction(1, 2)
    x = ultra([(1, 1), (half, 1)])
    y = ultra([(half, 1), (1, 1)])
    assert x.terms == ((half, 1), (1, 1))
    assert x == y and hash(x) == hash(y)
    assert ultra([(half, 1), (half, 1)]) == ultra([(half, 2)])
    assert ultra([(half, 1), (half, -1), (1, 3)]) == ultra(3)
    # a difference is in normal form too
    assert x - ultra([(half, 1)]) == ultra(1) and hash(x - ultra([(half, 1)])) == hash(ultra(1))
    assert ultra_distance(x, y) == 0
    # out of order or repeated magnitudes are not a normal form
    for terms in (((1, 1), (half, 1)), ((half, 1), (half, 2))):
        with pytest.raises(ValueError):
            UltraScalar(terms)


@pytest.mark.parametrize(
    "terms",
    [
        ((Fraction(1, 2), 1.5),),
        ((0.5, 1),),
        ((True, 1),),
        ((Fraction(1, 2), True),),
        ((Fraction(1, 2), "1"),),
        ((Fraction(1, 2), 0),),
        ((Fraction(-1, 2), 1),),
    ],
)
def test_ultra_scalar_rejects_non_rationals_zero_coefficients_and_nonpositive_magnitudes(terms):
    with pytest.raises(ValueError):
        UltraScalar(terms)


PAIRS = st.lists(st.tuples(st.integers(1, 12).map(lambda b: Fraction(1, b)), st.integers(-2, 2)), max_size=5)


@settings(max_examples=100, deadline=None)
@given(PAIRS, PAIRS, st.randoms(use_true_random=False))
def test_ultra_matches_dict_oracle(u, v, rnd):
    x, y = ultra(u), ultra(v)
    acc = {}
    for m, c in u:
        acc[m] = acc.get(m, 0) + c
    assert x.terms == tuple(sorted([(m, c) for m, c in acc.items() if c != 0]))
    shuffled = list(u)
    rnd.shuffle(shuffled)
    assert ultra(shuffled) == x and hash(ultra(shuffled)) == hash(x)
    assert ultra_distance(x, y) == raw_step(x, y) == ultra_distance(y, x)


# Magnitudes that may be zero or negative, in every input spelling, and small
# coefficients so that repeated magnitudes cancel often.
ANY_MAGNITUDES = st.one_of(
    st.integers(-1, 2),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 2), "1/2", "2/4", " 1/3", "-1/6"]),
    st.integers(1, 30).flatmap(lambda b: st.integers(-1, b).map(lambda a: Fraction(a, b))),
)
ANY_COEFFS = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-1, 2), "3/6", "-1/3"]))
ANY_COORDS = st.one_of(
    st.lists(st.tuples(ANY_MAGNITUDES, ANY_COEFFS), max_size=5),
    st.integers(-3, 3),
    st.sampled_from(["1/2", "0/7", Fraction(-2, 3)]),
)


def _built(build, value):
    try:
        return build(value)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(ANY_COORDS, ANY_COORDS)
def test_ultra_matches_the_fraction_pair_oracle(u, v):
    x, ox = _built(ultra, u), _built(ultra_oracle, u)
    y, oy = _built(ultra, v), _built(ultra_oracle, v)
    if isinstance(ox, str):
        assert x == ox  # the same error message
        return
    assert x.terms == ox.terms and x.magnitude() == ox.magnitude()
    assert UltraScalar(ox.terms) == x and hash(UltraScalar(ox.terms)) == hash(x)
    if isinstance(oy, str):
        return
    diff = x - y
    assert diff.terms == (ox - oy).terms
    assert diff == ultra(diff.terms) and hash(diff) == hash(ultra(diff.terms))  # a difference is in normal form
    assert (x == y) == (ox == oy) and (x != y or hash(x) == hash(y))
    assert ultra_distance(u, v) == ultra_distance_oracle(u, v)


def test_cancelled_terms_are_dropped_before_the_magnitude_check():
    # as the oracle does: a non-positive magnitude whose coefficients cancel is no term
    for pairs in ([(-1, 1), (-1, -1)], [(0, 2), (0, -2), ("1/2", 1)], [("-1/2", "1/2"), (Fraction(-1, 2), Fraction(-1, 2))]):
        assert ultra(pairs).terms == ultra_oracle(pairs).terms
    for pairs in ([(0, 1)], [(-1, 1), ("1/2", 1)]):
        with pytest.raises(ValueError, match="magnitudes must be positive rationals"):
            ultra(pairs)


# ---------------------------------------------------------------------------
# trees of disks


def test_distance_within_one_disk():
    t = tree_of_disks(["d"], [], {"x": ("d", 0), "y": ("d", [(Fraction(1, 2), 1)])})
    assert dck_tree(t, "x", "y") == Fraction(1, 2)
    assert d_tree(t, "x", "y") == Fraction(1, 2)


def test_disconnected_components_are_infinitely_far():
    t = tree_of_disks(["a", "b"], [], {"x": ("a", 0), "y": ("b", 0)})
    assert dck_tree(t, "x", "y") == INF
    assert d_tree(t, "x", "y") == INF


def test_unknown_mark():
    t = tree_of_disks(["a"], [], {"x": ("a", 0)})
    with pytest.raises(UnknownMark):
        dck_tree(t, "x", "nope")


def test_chained_disk_family_distances():
    for n_max in (3, 5, 10):
        t, x, y = chained_disk_family(n_max)
        assert dck_tree(t, x, y) == 1
        assert d_tree(t, x, y) == Fraction(1, n_max)


def test_chain_budget_limits_paths():
    t, x, y = chained_disk_family(6)
    # three disk visits allow the direct route and the n = 3 chain only
    assert d_tree(t, x, y, budget=3) == Fraction(1, 3)
    assert d_tree(t, x, y, budget=4) == Fraction(1, 4)
    assert dck_tree(t, x, y, budget=3) == 1
    # both marked disks are separate, so two visits reach nothing
    assert d_tree(t, x, y, budget=2) == INF


def raw_step(u, v):
    """|u - v| from the raw (magnitude, coefficient) pairs: the largest
    magnitude whose coefficients differ, summed in a plain dict."""
    acc = {}
    for m, c in u.terms:
        acc[m] = acc.get(m, 0) + c
    for m, c in v.terms:
        acc[m] = acc.get(m, 0) - c
    return max([m for m, c in acc.items() if c != 0], default=Fraction(0))


def brute_force_walks(t, x, y, max_steps, mode):
    """Oracle: enumerate all walks (edge reuse allowed) up to a visit bound."""
    disk_x, coord_x = t.mark(x)
    disk_y, coord_y = t.mark(y)
    adj = {d: [] for d in t.disks}
    for a, ca, b, cb in t.edges:
        adj[a].append((ca, b, cb))
        adj[b].append((cb, a, ca))
    best = [INF]

    def combine(acc, step):
        return acc + step if mode == "sum" else max(acc, step)

    def walk(disk, entry, acc, steps):
        if disk == disk_y:
            total = combine(acc, raw_step(entry, coord_y))
            best[0] = min(best[0], total)
        if steps >= max_steps:
            return
        for here, other, there in adj[disk]:
            walk(other, there, combine(acc, raw_step(entry, here)), steps + 1)

    walk(disk_x, coord_x, Fraction(0), 1)
    return best[0]


def test_trail_enumeration_matches_walk_oracle():
    rng = rng_for("tree-oracle")
    for _ in range(25):
        t = random_tree_of_disks(rng, n_disks=4)
        for mode, fn in (("sum", dck_tree), ("max", d_tree)):
            got = fn(t, "x", "y")
            oracle = brute_force_walks(t, "x", "y", 7, mode)
            assert got == oracle


# A few shared magnitudes, so that leading terms cancel, and any a/b with
# b <= 100, so that the common denominator of a tree meets coprime ones.
MAGNITUDES = st.one_of(
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)]),
    st.integers(1, 100).flatmap(lambda b: st.integers(1, b).map(lambda a: Fraction(a, b))),
)
COEFFS = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=7))
# ultra() merges repeated magnitudes and drops zero coefficients
COORDS = st.lists(st.tuples(MAGNITUDES, COEFFS), max_size=2)


@st.composite
def small_trees(draw):
    """2-5 disks joined by a spanning tree plus up to 2 extra edges (loops
    and parallel edges allowed), marks x and y anywhere."""
    names = [f"d{i}" for i in range(draw(st.integers(2, 5)))]
    edges = [(names[i], draw(COORDS), names[draw(st.integers(0, i - 1))], draw(COORDS)) for i in range(1, len(names))]
    for _ in range(draw(st.integers(0, 2))):
        edges.append((draw(st.sampled_from(names)), draw(COORDS), draw(st.sampled_from(names)), draw(COORDS)))
    marks = {m: (draw(st.sampled_from(names)), draw(COORDS)) for m in ("x", "y")}
    return tree_of_disks(names, edges, marks)


@settings(max_examples=200, deadline=None)
@given(small_trees(), st.one_of(st.none(), st.integers(1, 6)))
def test_chain_search_matches_walk_oracle_under_budgets(t, budget):
    # with no budget, chains of at most |E| + 1 visits are enough (splicing)
    visits = len(t.edges) + 1 if budget is None else budget
    for mode, fn in (("sum", dck_tree), ("max", d_tree)):
        assert fn(t, "x", "y", budget) == brute_force_walks(t, "x", "y", visits, mode)


def test_chain_budget_below_one_is_rejected():
    t = tree_of_disks(["d"], [], {"x": ("d", 0), "y": ("d", [(Fraction(1, 2), 1)])})
    assert dck_tree(t, "x", "y", budget=1) == Fraction(1, 2)
    for budget in (0, -5):
        for fn in (dck_tree, d_tree):
            with pytest.raises(ValueError):
                fn(t, "x", "y", budget)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def complete_tree(n: int, y_disk: str):
    """Every pair of n disks glued, attachment magnitudes 1/(i+2) on disk i,
    and the disk "lone" glued to nothing."""
    names = [f"d{i}" for i in range(n)]
    edges = [
        (names[i], [(Fraction(1, i + 2), 1)], names[j], [(Fraction(1, j + 2), 1)])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return tree_of_disks(names + ["lone"], edges, {"x": ("d0", 0), "y": (y_disk, 0)})


def test_complete_graph_with_unreachable_mark_is_fast():
    t = complete_tree(7, "lone")
    with time_limit(2):
        assert dck_tree(t, "x", "y") == INF
        assert d_tree(t, "x", "y") == INF
        assert dck_tree(t, "x", "y", budget=10**9) == INF


def test_huge_budget_on_a_complete_graph():
    t = complete_tree(12, "d11")
    with time_limit(2):
        for fn in (dck_tree, d_tree):
            assert fn(t, "x", "y", budget=10**9) == fn(t, "x", "y")
        assert dck_tree(t, "x", "y", budget=10**9) == Fraction(1, 2) + Fraction(1, 13)
        assert d_tree(t, "x", "y", budget=10**9) == Fraction(1, 2)


def test_d_tree_ultrametric_and_dck_triangle():
    rng = rng_for("tree-ultra")
    for _ in range(40):
        t = random_tree_of_disks(rng, n_disks=5)
        dxy, dyz, dxz = d_tree(t, "x", "y"), d_tree(t, "y", "z"), d_tree(t, "x", "z")
        assert dxz <= max(dxy, dyz)
        sxy, syz, sxz = dck_tree(t, "x", "y"), dck_tree(t, "y", "z"), dck_tree(t, "x", "z")
        assert sxz <= sxy + syz
        assert dxy <= sxy


def test_semidistances_not_equivalent_on_family():
    # the gap witnesses non-equivalence: dck stays 1 while d shrinks
    gaps = []
    for n_max in (3, 10, 50):
        t, x, y = chained_disk_family(n_max)
        gaps.append(dck_tree(t, x, y) / d_tree(t, x, y))
    assert gaps == [3, 10, 50]


# ---------------------------------------------------------------------------
# star-shaped data


def test_star_shaped_validation():
    data = StarShapedData(0, (Fraction(-1), Fraction(-2), Fraction(-1, 2)))
    assert data.direction_count == 3
    StarShapedData(1, (Fraction(-1),))
    with pytest.raises(InconsistentModel):
        StarShapedData(0, (Fraction(-1),))
    with pytest.raises(ValueError):
        StarShapedData(1, (Fraction(1),))
