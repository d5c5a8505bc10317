"""Theorem checkers: retractions, evenness, distance conditions, products,
outerplanar faces."""

import json
import random
from itertools import combinations, product
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from rcgame import engine, graph, verify
from rcgame.engine import capture_radii, radius_capture_number
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
from rcgame.outerplanar import polygon_chords, rc_outerplanar_formula
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
    layer_projection_retraction,
    suite_bounds,
    suite_families,
    suite_transitive_sweep,
    unique_antipodes,
    verify_retraction,
)

from conftest import graphs


def test_retraction_fold_leaf():
    p3 = basic_family("path", 3)
    verify_retraction(p3, Retraction((0, 1, 0)))


def test_retraction_layer_projection():
    c4 = basic_family("cycle", 4)
    k2 = basic_family("complete", 2)
    prod, retr = layer_projection_retraction(c4, k2)
    verify_retraction(prod, retr)


def test_retraction_c5_onto_edge_is_valid():
    # adjacent vertices may share an image, so this folds C_5 onto an edge
    c5 = basic_family("cycle", 5)
    verify_retraction(c5, Retraction((0, 1, 1, 0, 0)))


def test_retraction_violations():
    c5 = basic_family("cycle", 5)
    with pytest.raises(NotARetraction, match=r"^mapping covers 4 of 5 vertices$"):
        verify_retraction(c5, Retraction((0,) * 4))
    with pytest.raises(NotARetraction, match=r"^image of 2 is 5, outside 0\.\.4$"):
        verify_retraction(c5, Retraction((0, 1, 5, 0, 0)))
    with pytest.raises(NotARetraction, match=r"^image of 2 is -1, outside 0\.\.4$"):
        verify_retraction(c5, Retraction((0, 1, -1, 0, 0)))
    # 1 is the image of 0, so a target vertex, but the map moves it to 0
    with pytest.raises(NotARetraction, match=r"^map moves target vertex 1 to 0$"):
        verify_retraction(c5, Retraction((1, 0, 1, 0, 0)))
    # edge (3,4) maps to the non-adjacent distinct pair (2,0)
    with pytest.raises(NotARetraction, match="non-adjacent"):
        verify_retraction(c5, Retraction((0, 1, 2, 2, 0)))
    # the empty graph's empty map is the identity, a retraction
    verify_retraction(build_graph(0, []), Retraction(()))
    assert Retraction((0, 1, 1, 0, 0)).target == frozenset({0, 1})


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
    retr = Retraction(mapping)
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


def test_retract_check_leaves_the_labels_unformatted():
    # the retract's labels are formatted on its own first read, so the
    # check, which never reads them, leaves the product's label function
    # unformatted; read, they equal the labels of an eagerly labelled copy
    prod, retr = layer_projection_retraction(basic_family("cycle", 4),
                                             basic_family("path", 3))
    assert check_retract_monotonicity(prod, retr).passed
    assert callable(prod._labels)
    keep = sorted(retr.target)
    sub, _ = induced_subgraph(prod, keep)
    assert callable(sub._labels) and callable(prod._labels)
    eager, _ = induced_subgraph(graph.Graph(prod.n, prod.adj, prod.labels), keep)
    assert eager.labels == sub.labels == tuple(prod.labels[v] for v in keep)


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


def test_retracts_suite_reads_fold_equality_off_its_reports(monkeypatch):
    # every corner-fold trial (the even ones) also records rc(G - u) =
    # rc(G), read off the monotonicity report: two rc searches per trial,
    # none more for the equality line
    real, searched = verify.radius_capture_number, []
    monkeypatch.setattr(verify, "radius_capture_number",
                        lambda g: searched.append(g) or real(g))
    tally = verify.suite_retracts(10, 3, 12)
    assert not tally.failures
    assert tally.totals == {"retract-monotonicity": 10, "corner-fold-equality": 5}
    assert len(searched) == 20


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


def test_retract_monotonicity_requires_connected(monkeypatch):
    # the search's own BFS is the one connectivity check
    real, bfs = graph.is_connected, []
    monkeypatch.setattr(graph, "is_connected", lambda g: bfs.append(g) or real(g))
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected, match="monotonicity check needs a connected graph"):
        check_retract_monotonicity(two_edges, Retraction((0, 1, 0, 1)))
    assert bfs == [two_edges]


def test_classify_evenness_requires_connected():
    with pytest.raises(NotConnected):
        classify_evenness(build_graph(4, [(0, 1), (2, 3)]))
    # the distance checks read rad and diam off the rows, and the empty
    # graph has none: InvalidParam, as from eccentricities
    empty = build_graph(0, [])
    for check in (classify_evenness, check_radius_pair_condition,
                  lambda g: check_distance_expansion(g, 0)):
        with pytest.raises(InvalidParam, match="empty graph has no radius"):
            check(empty)


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


def test_transitive_families_have_tight_capture(petersen):
    # generously transitive instances from the paper's vertex-transitive
    # section: rc = rad - 1
    instances = [basic_family("cycle", 6), basic_family("complete", 4),
                 generalized_johnson(4, 2, 1), petersen, hypercube(3)]
    for g in instances:
        rad, _, rc = capture_radii(g)
        assert rc == rad - 1


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


def test_product_theorems_census_connected_atlas():
    # every ordered pair of connected graphs on 1..5 vertices of networkx's
    # bundled atlas
    atlas = [build_graph(G.number_of_nodes(), list(G.edges()))
             for G in nx.graph_atlas_g()
             if 0 < G.number_of_nodes() <= 5 and nx.is_connected(G)]
    pairs = reports = 0
    for g, h in product(atlas, repeat=2):
        pairs += 1
        for report in check_product_theorems(g, h):
            reports += 1
            assert report.passed, report.to_json()
    assert (len(atlas), pairs, reports) == (31, 961, 3625)


def test_product_theorems_require_connected():
    with pytest.raises(NotConnected):
        check_product_theorems(build_graph(4, [(0, 1), (2, 3)]),
                               basic_family("cycle", 4))


def test_checks_sweep_each_graph_once(monkeypatch):
    # a check that needs rad and rc together reads both off one ball sweep,
    # engine.capture_radii's, and never sweeps a graph a second time; a
    # cycle it answers with no sweep: the families' C_4 = Q_2 (the cycle
    # line solves C_3..C_12 instead), the two-regular one-step circulants
    # and the factor C_4
    real, swept = graph._sweep, []

    def counted(g):
        swept.append(g)     # keeps g alive, so no two graphs share an id
        return real(g)

    monkeypatch.setattr(graph, "_sweep", counted)
    monkeypatch.setattr(engine, "_sweep", counted)
    runs = [
        (lambda: suite_bounds(12, 3, 14), 12),
        (lambda: suite_families(0, 1, 14), 16),
        (lambda: suite_transitive_sweep(0, 1, 14), 61),
        # the factor P_3, then the Cartesian, strong and lexicographic
        # products
        (lambda: check_product_theorems(basic_family("cycle", 4),
                                        basic_family("path", 3)), 4),
    ]
    for run, graphs in runs:
        swept.clear()
        run()
        assert len(swept) == len({id(g) for g in swept}) == graphs


def test_cycle_line_decides_rc_with_its_own_solves(monkeypatch):
    # capture_radii answers a cycle by the closed form this line checks, so
    # the line solves at n//2 - 1 and n//2 - 2 itself: a capture_radii one
    # off on every cycle leaves it 10/10, a solve one radius up fails it
    # from C_4 on
    real_radii, real_solve = verify.capture_radii, verify.solve_cwrc

    def cycle_line():
        return [line for line in suite_families(0, 1, 14).lines()
                if line.startswith("cycle-closed-form")]

    def off_by_one(g):
        rad, diam, rc = real_radii(g)
        return rad, diam, rc + all(len(row) == 2 for row in g.adj)

    monkeypatch.setattr(verify, "capture_radii", off_by_one)
    assert cycle_line() == ["cycle-closed-form: 10/10 pass"]
    monkeypatch.setattr(verify, "capture_radii", real_radii)
    monkeypatch.setattr(verify, "solve_cwrc", lambda g, k: real_solve(g, k + 1))
    assert cycle_line() == ["cycle-closed-form: 1/10 pass"]


def test_evenness_checks_read_one_table(monkeypatch, cubic_vt):
    # an even graph's checks read one distance table and one antipode scan,
    # diam from the table's row maxima; only the harmonic-even capture check
    # sweeps the balls, once, in capture_radii, which gives rad and rc
    # together, and not at all on a cycle, which capture_radii answers with
    # no sweep; a sweep through either module's name is counted
    swept = []
    for module in (graph, engine):
        real = module._sweep
        monkeypatch.setattr(module, "_sweep",
                            lambda g, real=real: swept.append(g) or real(g))
    real_apsp, tables = verify.all_pairs_distances, []
    monkeypatch.setattr(verify, "all_pairs_distances",
                        lambda g: tables.append(g) or real_apsp(g))
    for name, g, cls, sweeps, checks in (
            ("C_8", basic_family("cycle", 8), verify.HARMONIC_EVEN, 0, 3),
            ("Q_4", hypercube(4), verify.HARMONIC_EVEN, 1, 3),
            ("CubicVT24_6", cubic_vt, verify.EVEN, 0, 2)):
        swept.clear()
        tables.clear()
        tally = verify._Tally()
        verify._evenness_instance_checks(name, g, tally, cls)
        assert (swept, tables) == ([g] * sweeps, [g])
        assert not tally.failures and len(tally.passes) == checks


def test_bounds_suite_solves_the_radius_bound_itself(monkeypatch):
    # capture_radii starts below the radius bound, so its rc cannot exceed
    # it: the suite solves each graph at max(rad - 1, 0) itself, and a
    # solve that loses there fails the bound whatever the search says
    real, solved = verify.solve_cwrc, []

    def spy(g, k):
        solved.append(k == max(min(eccentricities(g)) - 1, 0))
        return real(g, k)

    monkeypatch.setattr(verify, "solve_cwrc", spy)
    tally = suite_bounds(12, 3, 14)
    assert tally.passes["radius-upper-bound"] == 12 and solved == [True] * 12
    monkeypatch.setattr(verify, "solve_cwrc",
                        lambda g, k: SimpleNamespace(is_cop_win=False))
    tally = suite_bounds(12, 3, 14)
    assert "radius-upper-bound" not in tally.passes
    assert tally.passes["girth-lower-bound"] == 12
    assert all(r.counterexample["cop_win_at_bound"] is False
               for r in tally.failures)


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


def _dissections(lo: int, hi: int):
    """Every non-crossing chord set inside the polygon lo, lo+1, ..., hi
    whose side (lo, hi) is already drawn: pick the corners between lo and
    hi of the face on that side, then dissect each pocket that two
    consecutive corners cut off."""
    inner = range(lo + 1, hi)
    for size in range(1, len(inner) + 1):
        for corners in combinations(inner, size):
            walk = (lo, *corners, hi)
            pockets = [(a, b) for a, b in zip(walk, walk[1:]) if b - a >= 2]
            for parts in product(*(_dissections(a, b) for a, b in pockets)):
                yield set(pockets).union(*parts)


def test_outerplanar_formula_census_all_dissections():
    # every dissection of the n-gon, n = 3..9 (1 + 3 + 11 + 45 + 197 + 903
    # + 4279 of them, the little Schroeder numbers)
    embeddings = 0
    for n in range(3, 10):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        for chords in _dissections(0, n - 1):
            g = build_graph(n, cycle + sorted(chords))
            assert polygon_chords(g) == sorted(chords)
            assert radius_capture_number(g) == rc_outerplanar_formula(g), chords
            embeddings += 1
    assert embeddings == 5439
