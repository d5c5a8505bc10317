"""Theorem checkers: retractions, evenness, transitivity, products."""

import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rcgame.engine import radius_capture_number
from rcgame.errors import InvalidParam, NotARetraction, NotConnected
from rcgame.generators import (
    basic_family,
    generalized_johnson,
    hypercube,
    random_connected_gnp,
)
from rcgame.graph import (
    all_pairs_distances,
    build_graph,
    eccentricities,
    induced_subgraph,
    is_connected,
)
from rcgame.verify import (
    EVEN,
    HARMONIC_EVEN,
    NOT_EVEN,
    Retraction,
    check_distance_expansion,
    check_product_theorems,
    check_radius_pair_condition,
    check_retract_monotonicity,
    classify_evenness,
    corner_fold_retraction,
    is_generously_transitive,
    layer_projection_retraction,
    unique_antipodes,
    verify_retraction,
)
from rcgame.verify import _Budget, _bfs_row, _swap_automorphism_exists

from conftest import graphs


def test_retraction_fold_leaf():
    p3 = basic_family("path", 3)
    verify_retraction(p3, Retraction(frozenset({0, 1}), (0, 1, 0)))


def test_retraction_layer_projection():
    c4 = basic_family("cycle", 4)
    k2 = basic_family("complete", 2)
    prod, retr = layer_projection_retraction(c4, k2)
    verify_retraction(prod, retr)


def test_retraction_c5_onto_edge_is_valid():
    # adjacent vertices may share an image, so this folds C_5 onto an edge
    c5 = basic_family("cycle", 5)
    verify_retraction(c5, Retraction(frozenset({0, 1}), (0, 1, 1, 0, 0)))


def test_retraction_violations():
    c5 = basic_family("cycle", 5)
    with pytest.raises(NotARetraction, match="empty"):
        verify_retraction(c5, Retraction(frozenset(), (0,) * 5))
    with pytest.raises(NotARetraction, match="moves target"):
        verify_retraction(c5, Retraction(frozenset({0, 1}), (1, 1, 1, 0, 0)))
    with pytest.raises(NotARetraction, match="not in the target"):
        verify_retraction(c5, Retraction(frozenset({0, 1}), (0, 1, 2, 0, 0)))
    # edge (3,4) maps to the non-adjacent distinct pair (2,0)
    with pytest.raises(NotARetraction, match="non-adjacent"):
        verify_retraction(c5, Retraction(frozenset({0, 1, 2}), (0, 1, 2, 2, 0)))


@st.composite
def accepted_retractions(draw):
    """A connected graph with a map verify_retraction accepts: a corner fold
    of a graph with an appended dominated vertex, the projection of a
    Cartesian product onto one of its layers, or a random map onto a
    random target that passes the check."""
    source = draw(st.sampled_from(("fold", "layer", "random")))
    connected = graphs(min_n=1, max_n=6).filter(is_connected)
    if source == "layer":
        g, h = draw(connected), draw(connected)
        return layer_projection_retraction(g, h, draw(st.integers(0, h.n - 1)))
    base = draw(connected)
    if source == "fold":
        v = draw(st.integers(0, base.n - 1))
        extra = draw(st.sets(st.sampled_from(base.adj[v]))) if base.adj[v] else set()
        edges = [*base.edges(), (base.n, v), *((base.n, u) for u in extra)]
        g = build_graph(base.n + 1, edges)
        return g, corner_fold_retraction(g)
    target = draw(st.sets(st.integers(0, base.n - 1), min_size=1))
    images = sorted(target)
    mapping = tuple(x if x in target else draw(st.sampled_from(images))
                    for x in range(base.n))
    retr = Retraction(frozenset(target), mapping)
    try:
        verify_retraction(base, retr)
    except NotARetraction:
        assume(False)
    return base, retr


@settings(max_examples=150, deadline=None)
@given(accepted_retractions())
def test_accepted_retraction_target_is_isometric(case):
    """Every map verify_retraction accepts leaves the induced target with
    the graph's own distances, which is why the check runs no BFS.

    Proof: let x, y be target vertices and x = v_0, ..., v_d = y a shortest
    path in g. The map fixes x and y, sends every v_i into the target, and
    sends each edge v_i v_(i+1) to an edge or to a single vertex. So the
    images form a walk from x to y of at most d edges, and each of its
    edges joins two target vertices, so it lies in the induced target H.
    Hence d_H(x, y) <= d_G(x, y); the reverse holds since H is a subgraph
    of g. In particular H is connected whenever g is.
    """
    g, retr = case
    sub, index = induced_subgraph(g, sorted(retr.target))
    dg, dh = all_pairs_distances(g), all_pairs_distances(sub)
    for x in retr.target:
        for y in retr.target:
            assert dh[index[x]][index[y]] == dg[x][y]


def test_retract_distance_nonexpansion_property():
    rng = random.Random(19)
    for _ in range(25):
        base = random_connected_gnp(rng.randint(2, 8), rng.uniform(0.3, 0.9),
                                    rng.getrandbits(32))
        v = rng.randrange(base.n)
        edges = list(base.edge_set()) + [(base.n, v)]
        g = build_graph(base.n + 1, edges)
        retr = corner_fold_retraction(g)
        assert retr is not None
        verify_retraction(g, retr)
        sub, index = induced_subgraph(g, sorted(retr.target))
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(sub)
        for x in range(g.n):
            for y in range(g.n):
                fx, fy = index[retr.mapping[x]], index[retr.mapping[y]]
                assert dg[x][y] >= dh[fx][fy]


def test_monotonicity_layer_projection_c6_k2():
    c6 = basic_family("cycle", 6)
    k2 = basic_family("complete", 2)
    prod, retr = layer_projection_retraction(c6, k2)
    report = check_retract_monotonicity(prod, retr)
    assert report.passed
    assert report.measured == {"rc_graph": 3, "rc_retract": 2}


def test_monotonicity_tree_fold():
    tree = basic_family("path", 5)
    retr = corner_fold_retraction(tree)
    report = check_retract_monotonicity(tree, retr)
    assert report.passed
    assert report.measured == {"rc_graph": 0, "rc_retract": 0}


def test_monotonicity_random_corner_folds():
    rng = random.Random(47)
    for _ in range(25):
        base = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.3, 0.9),
                                    rng.getrandbits(32))
        v = rng.randrange(base.n)
        extra = [u for u in base.adj[v] if rng.random() < 0.5]
        edges = list(base.edge_set()) + [(base.n, v)] + [(base.n, u) for u in extra]
        g = build_graph(base.n + 1, edges)
        assert check_retract_monotonicity(g, corner_fold_retraction(g)).passed


def test_corner_fold_finding():
    assert corner_fold_retraction(basic_family("cycle", 4)) is None
    assert corner_fold_retraction(basic_family("cycle", 5)) is None
    retr = corner_fold_retraction(basic_family("path", 3))
    assert retr is not None and 0 not in retr.target


def test_classify_evenness_examples(cubic_vt):
    assert classify_evenness(basic_family("path", 3)) == NOT_EVEN
    assert classify_evenness(basic_family("cycle", 5)) == NOT_EVEN
    assert classify_evenness(basic_family("cycle", 6)) == HARMONIC_EVEN
    assert classify_evenness(basic_family("complete", 2)) == HARMONIC_EVEN
    assert classify_evenness(hypercube(4)) == HARMONIC_EVEN
    # unique antipodes but rc = rad - 2, so the antipode map cannot preserve edges
    assert classify_evenness(cubic_vt) == EVEN


def test_even_antipode_distance_lemma(cubic_vt):
    for g in [basic_family("cycle", 6), hypercube(4), cubic_vt]:
        ant = unique_antipodes(g)
        assert ant is not None
        dm = all_pairs_distances(g)
        diam = max(eccentricities(g))
        assert all(ant[ant[v]] == v for v in range(g.n))
        for u, v in g.edges():
            assert dm[u][ant[v]] == diam - 1


def test_harmonic_even_implies_tight_capture():
    for g in [basic_family("cycle", 8), hypercube(2), hypercube(3), hypercube(4)]:
        assert classify_evenness(g) == HARMONIC_EVEN
        rad = min(eccentricities(g))
        assert radius_capture_number(g) == rad - 1


def test_classify_evenness_requires_connected():
    with pytest.raises(NotConnected):
        classify_evenness(build_graph(4, [(0, 1), (2, 3)]))


def test_distance_expansion_examples(cubic_vt):
    assert check_distance_expansion(cubic_vt, 3)
    assert not check_distance_expansion(basic_family("cycle", 6), 3)
    assert check_distance_expansion(hypercube(3), 2)
    with pytest.raises(InvalidParam):
        check_distance_expansion(basic_family("cycle", 6), 4)


def test_distance_expansion_q3_brute_force():
    # independent re-check of the hypercube case over all ordered pairs
    q3 = hypercube(3)
    dm = all_pairs_distances(q3)
    pairs = [(x, y) for x in range(8) for y in range(8) if dm[x][y] == 2]
    assert len(pairs) == 24
    for x, y in pairs:
        assert any(dm[x][y2] == 3 for y2 in q3.adj[y])


def test_distance_expansion_implies_capture_bound(cubic_vt):
    # expansion at i forces rc >= i
    assert radius_capture_number(cubic_vt) >= 3
    rng = random.Random(53)
    for _ in range(20):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.8),
                                 rng.getrandbits(32))
        rad = min(eccentricities(g))
        rc = radius_capture_number(g)
        for i in range(rad + 1):
            if check_distance_expansion(g, i):
                assert rc >= i


def test_radius_pair_condition_examples(cubic_vt):
    assert check_radius_pair_condition(basic_family("cycle", 8))
    assert check_radius_pair_condition(hypercube(3))
    assert not check_radius_pair_condition(cubic_vt)


def test_radius_pair_condition_implies_equality():
    rng = random.Random(61)
    hits = 0
    for _ in range(40):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.2, 0.8),
                                 rng.getrandbits(32))
        if check_radius_pair_condition(g):
            hits += 1
            rad = min(eccentricities(g))
            assert radius_capture_number(g) == rad - 1
    assert hits > 0


def test_generously_transitive_examples(petersen):
    for n in range(3, 9):
        assert is_generously_transitive(basic_family("cycle", n)) is True
    assert is_generously_transitive(basic_family("path", 3)) is False
    assert is_generously_transitive(petersen) is True
    assert is_generously_transitive(petersen, budget=1) is None


def test_swap_search_is_iterative_on_long_cycle():
    # deeper than the recursion limit if the search took a frame per vertex
    g = basic_family("cycle", 1100)
    dist = [_bfs_row(g.adj, g.n, s) for s in range(g.n)]
    signature = [tuple(sorted(row)) for row in dist]
    assert _swap_automorphism_exists(g, dist, signature, 0, 1, _Budget(10 ** 6)) is True


def test_generously_transitive_implies_tight_capture(petersen):
    instances = [basic_family("cycle", 6), basic_family("complete", 4),
                 generalized_johnson(4, 2, 1), petersen, hypercube(3)]
    for g in instances:
        assert is_generously_transitive(g) is True
        rad = min(eccentricities(g))
        assert radius_capture_number(g) == rad - 1


def test_product_theorem_examples():
    c4 = basic_family("cycle", 4)
    c6 = basic_family("cycle", 6)
    p3 = basic_family("path", 3)
    strong = {r.theorem: r for r in check_product_theorems(c4, c6)}
    assert strong["strong-product-value"].passed
    assert strong["strong-product-value"].measured["rc_strong"] == 2
    cart = {r.theorem: r for r in check_product_theorems(c4, c4)}
    assert cart["cartesian-product-coincidence"].passed
    assert cart["cartesian-product-bounds"].measured["rc_cartesian"] == 3
    lex = {r.theorem: r for r in check_product_theorems(p3, c6)}
    assert lex["lexicographic-product-value"].passed
    assert lex["lexicographic-product-value"].measured["rc_lexicographic"] == 1


def test_product_theorems_random_pairs():
    rng = random.Random(71)
    for _ in range(15):
        g = random_connected_gnp(rng.randint(2, 6), rng.uniform(0.3, 0.9),
                                 rng.getrandbits(32))
        h = random_connected_gnp(rng.randint(2, 6), rng.uniform(0.3, 0.9),
                                 rng.getrandbits(32))
        for report in check_product_theorems(g, h):
            assert report.passed, report.to_json()


def test_product_theorems_require_connected():
    with pytest.raises(NotConnected):
        check_product_theorems(build_graph(4, [(0, 1), (2, 3)]),
                               basic_family("cycle", 4))


def test_theorem_report_json():
    reports = check_product_theorems(basic_family("cycle", 4),
                                     basic_family("complete", 2))
    payload = json.loads(reports[0].to_json())
    assert payload["theorem"] == "cartesian-product-bounds"
    assert payload["passed"] is True
    assert payload["counterexample"] is None


def test_generalized_johnson_family_tightness():
    for n, k, i in [(5, 2, 0), (5, 2, 1), (6, 2, 0), (6, 3, 2), (6, 3, 1)]:
        g = generalized_johnson(n, k, i)
        rad = min(eccentricities(g))
        assert radius_capture_number(g) == rad - 1
