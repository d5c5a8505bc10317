"""Graph construction, distances, girth, and connectivity."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rcgame.engine import capture_radii
from rcgame.errors import InvalidParam, InvalidVertex, NotConnected, SelfLoop
from rcgame.generators import (
    basic_family,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    random_connected_gnp,
    sierpinski,
)
from rcgame.graph import (
    Graph,
    _bfs_row,
    _distance_planes,
    _sweep,
    all_pairs_distances,
    balls,
    build_graph,
    dilate,
    eccentricities,
    girth,
    induced_subgraph,
    is_connected,
)

from conftest import to_networkx


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.adj == ((1,), (0,))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_build_c4_degrees():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert [len(g.adj[v]) for v in range(4)] == [2, 2, 2, 2]
    assert g.edge_set() == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(InvalidVertex):
        build_graph(3, [(0, 3)])
    with pytest.raises(InvalidVertex):
        build_graph(3, [(-1, 0)])


def test_duplicate_edges_deduped():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_closed_neighborhoods_match_adjacency(n, p, seed):
    rng = random.Random(seed)
    g = build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                        if rng.random() < p])
    closed = [sorted((*g.adj[v], v)) for v in range(n)]
    for v in range(n):
        assert g.closed_bits[v] == sum(1 << y for y in closed[v])
        assert [g.has_edge(v, y) for y in range(n)] == [y in g.adj[v] for y in range(n)]


def test_label_validation():
    with pytest.raises(InvalidParam):
        build_graph(2, [(0, 1)], labels=["a"])
    with pytest.raises(InvalidParam):
        build_graph(2, [(0, 1)], labels=["a", "a"])
    g = build_graph(2, [(0, 1)], labels=["x", "y"])
    assert g.label(1) == "y"
    assert build_graph(1, []).label(0) == "0"


def test_distances_even_cycle():
    c6 = basic_family("cycle", 6)
    assert all_pairs_distances(c6)[0][3] == 3
    assert eccentricities(c6) == (3, 3, 3, 3, 3, 3)


def test_distances_path():
    p4 = basic_family("path", 4)
    assert all_pairs_distances(p4)[0][3] == 3
    assert eccentricities(p4)[1] == 2


def _counted_bfs_rows(monkeypatch):
    """Patch _bfs_row, rcgame.graph's name and the one rcgame.engine
    imports, to record its sources; returns the list it fills."""
    calls = []

    def counted(adj, n, source):
        calls.append(source)
        return _bfs_row(adj, n, source)

    monkeypatch.setattr("rcgame.graph._bfs_row", counted)
    monkeypatch.setattr("rcgame.engine._bfs_row", counted)
    return calls


def test_distances_one_bfs_per_row(monkeypatch):
    # connectivity is read off row 0, not from a BFS of its own; C_7
    # (6 ecc(0) > n) takes one BFS per row, K_6 its planes after row 0
    calls = _counted_bfs_rows(monkeypatch)
    for g in (basic_family("cycle", 7), basic_family("path", 1)):
        calls.clear()
        assert len(all_pairs_distances(g)) == g.n
        assert calls == list(range(g.n))
    calls.clear()
    assert all_pairs_distances(basic_family("complete", 6)) == [
        [int(u != v) for v in range(6)] for u in range(6)]
    assert calls == [0]
    calls.clear()
    assert all_pairs_distances(build_graph(0, [])) == [] and calls == []
    with pytest.raises(NotConnected, match="^the graph is disconnected; distances"):
        all_pairs_distances(build_graph(4, [(0, 1), (2, 3)]))
    assert calls == [0]


def _bfs_rows(g):
    return [_bfs_row(g.adj, g.n, s) for s in range(g.n)]


# the seven graphs of the benchmark's certify workload, P_256 (diameter
# 255, the largest a byte holds), P_8 (D + 1 a power of two, so a plane
# opens at level D) and K_1; C_64, CubicVT24_6 and the paths, which
# all_pairs_distances sends to BFS, are forced through the planes here
_PLANE_CASES = {
    "S(4,4)": lambda: sierpinski(4, 4),
    "S(5,3)": lambda: sierpinski(5, 3),
    "Q_7": lambda: hypercube(7),
    "H(3,5)": lambda: hamming(3, 5),
    "C_64": lambda: basic_family("cycle", 64),
    "CubicVT24_6": lambda: named_instance("CubicVT24_6"),
    "J(7,3)": lambda: generalized_johnson(7, 3, 2),
    "P_256": lambda: basic_family("path", 256),
    "P_8": lambda: basic_family("path", 8),
    "K_1": lambda: build_graph(1, []),
}


@pytest.mark.parametrize("name", _PLANE_CASES)
def test_distance_planes_equal_bfs_rows(name):
    g = _PLANE_CASES[name]()
    rows = _distance_planes(g)
    assert rows == _bfs_rows(g)
    assert all_pairs_distances(g) == rows


def _spider(legs, length, leaves=0):
    """Legs of the given length and then leaves, all hung from vertex 0."""
    edges = [(0 if i % length == 0 else i, i + 1) for i in range(legs * length)]
    edges += [(0, v) for v in range(legs * length + 1, legs * length + 1 + leaves)]
    return build_graph(legs * length + 1 + leaves, edges)


def test_distances_route_by_ecc0(monkeypatch):
    # the planes only when 6 ecc(0) <= n (so D <= n/3, where they beat BFS)
    # and ecc(0) < 128 (so D < 256 fits their one-byte lanes)
    planes = []

    def counted(g):
        planes.append(g.n)
        return _distance_planes(g)

    monkeypatch.setattr("rcgame.graph._distance_planes", counted)
    cases = [
        (basic_family("path", 300), False),    # ecc(0) = D = 299
        (_spider(4, 50), False),               # 4 ecc(0) < n, but D = n/2
        (_spider(2, 128, 511), False),         # 6 ecc(0) <= n, but D = 256
        (_spider(8, 30), True),                # D = 60 <= n/3
    ]
    for g, on_planes in cases:
        planes.clear()
        rows = all_pairs_distances(g)
        assert planes == ([g.n] if on_planes else [])
        assert rows == _bfs_rows(g)
    assert max(map(max, all_pairs_distances(_spider(2, 128, 511)))) == 256


def test_distance_rows_are_distinct_lists():
    # callers may keep or change one row without touching another
    for g in (basic_family("complete", 4), basic_family("cycle", 9), build_graph(1, [])):
        rows = all_pairs_distances(g)
        assert all(type(row) is list for row in rows)
        assert len({id(row) for row in rows}) == g.n


def test_distances_match_networkx_atlas(monkeypatch):
    # every connected graph on 1..7 vertices of networkx's atlas; the rule
    # 6 ecc(0) <= n sends some through the planes and the rest through BFS
    planes = []

    def counted(g):
        planes.append(g.n)
        return _distance_planes(g)

    monkeypatch.setattr("rcgame.graph._distance_planes", counted)
    connected = 0
    for G in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(G):
            continue
        connected += 1
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        lengths = dict(nx.all_pairs_shortest_path_length(G))
        assert all_pairs_distances(g) == [[lengths[u][v] for v in range(g.n)]
                                          for u in range(g.n)]
    assert 0 < len(planes) < connected


def test_distances_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        all_pairs_distances(g)
    assert eccentricities(g) is None


def _rad_diam(g):
    ecc = eccentricities(g)
    return min(ecc), max(ecc)


def test_radius_and_diameter_cycle_and_path():
    assert _rad_diam(basic_family("cycle", 7)) == (3, 3)
    assert _rad_diam(basic_family("path", 5)) == (2, 4)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_eccentricities_match_networkx(n, p, seed):
    rng = random.Random(seed)
    g = build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                        if rng.random() < p])
    G = to_networkx(g)
    ecc = eccentricities(g)
    if nx.is_connected(G):
        assert ecc == tuple(nx.eccentricity(G)[v] for v in range(n))
        assert ecc == tuple(map(max, all_pairs_distances(g)))
    else:
        assert ecc is None
        with pytest.raises(NotConnected):
            all_pairs_distances(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
def test_dilate_maps_each_ball_to_the_next(n, p, seed):
    # dilate(g, ball_k) is ball_{k+1}, against networkx distances; the last
    # ball, once the balls stop growing, is its own dilation
    rng = random.Random(seed)
    g = build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                        if rng.random() < p])
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    every = list(balls(g))
    for k, ball in enumerate(every):
        assert dilate(g, ball) == [sum(1 << c for c, d in dist[r].items() if d <= k + 1)
                                   for r in range(n)]
    assert dilate(g, every[-1]) == every[-1]


def test_dilate_fixes_the_last_ball_of_a_disconnected_graph():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4)])
    *_, last = balls(g)
    assert last == [0b111, 0b111, 0b111, 0b11000, 0b11000, 0b100000]
    assert dilate(g, last) == last


def test_second_ball_is_the_closed_neighbourhoods(dilate_calls):
    # balls opens on closed_bits: ball_1 is N[v] itself, equal to the dilate
    # of ball_0, and the walk to it makes no dilate call, on every graph of
    # networkx's atlas; an edgeless graph's balls end at ball_0. dilate here
    # is the name imported before the count began, so it is not counted
    for G in nx.graph_atlas_g():
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        first = list(itertools.islice(balls(g), 2))
        assert dilate_calls == []
        closed = list(g.closed_bits)
        assert first[1:] == ([closed] if g.m else [])
        assert dilate(g, first[0]) == closed


def _sweep_by_bfs(g):
    # (rad, diam, top) of _sweep, read off one BFS row per vertex: ball_k[r]
    # holds the c with d(r, c) <= k, listed for k = max(rad - 2, 0) .. rad - 1
    rows = [_bfs_row(g.adj, g.n, v) for v in range(g.n)]
    ecc = tuple(map(max, rows))
    rad = min(ecc)
    return rad, max(ecc), [[sum(1 << c for c, d in enumerate(row) if d <= k) for row in rows]
                           for k in range(max(rad - 2, 0), rad)]


def test_sweep_matches_per_vertex_bfs():
    # every connected atlas graph; P_40, whose balls fill two at a time at
    # each of 20 levels; C_400, whose balls all fill at level 200
    cases = [build_graph(G.number_of_nodes(), list(G.edges()))
             for G in nx.graph_atlas_g()
             if G.number_of_nodes() and nx.is_connected(G)]
    cases += [basic_family("path", 40), basic_family("cycle", 400)]
    for g in cases:
        assert _sweep(g) == _sweep_by_bfs(g)


def test_sweep_matches_networkx_atlas():
    # networkx's radius and diameter on every connected atlas graph and None
    # on every disconnected one; K_n less the edge (0, 1) is two edges short
    # of complete, so it still takes the sweep and reads rad 1 and diam 2
    for G in nx.graph_atlas_g()[1:]:
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        if nx.is_connected(G):
            assert _sweep(g)[:2] == (nx.radius(G), nx.diameter(G))
        else:
            assert _sweep(g) is None
    for n in range(3, 41):
        g = build_graph(n, list(itertools.combinations(range(n), 2))[1:])
        assert _sweep(g) == _sweep_by_bfs(g)
        assert _sweep(g)[:2] == (1, 2)
    with pytest.raises(InvalidParam, match="empty graph has no radius"):
        _sweep(build_graph(0, []))


def test_complete_graphs_are_answered_from_the_edge_count(monkeypatch):
    # 2m = n(n - 1) answers K_n (and the complete J(70,1,0), J(70,69,68))
    # before any BFS or sweep, so closed_bits is never built; capture_radii's
    # cycle test needs n > 3, so K_3 (m = n = 3) goes on to the sweep's
    # answer with no BFS either
    calls = _counted_bfs_rows(monkeypatch)
    cases = [basic_family("complete", n) for n in range(1, 71)]
    cases += [generalized_johnson(70, 1, 0), generalized_johnson(70, 69, 68)]
    for g in cases:
        assert capture_radii(g) == ((0, 0, 0) if g.n == 1 else (1, 1, 0))
        assert g._closed_bits is None
    assert calls == []


def test_eccentricities_empty_graph():
    with pytest.raises(InvalidParam, match="empty graph has no radius"):
        eccentricities(build_graph(0, []))
    assert eccentricities(build_graph(1, [])) == (0,)


def test_sierpinski_33_radius():
    # radius formula for base 3 at depth 3 gives 6; diameter 7 frozen from BFS
    assert _rad_diam(sierpinski(3, 3)) == (6, 7)
    G = to_networkx(sierpinski(3, 3))
    assert nx.radius(G) == 6 and nx.diameter(G) == 7


def _exhaustive_girth(g):
    """Oracle: scan all vertex subsets for induced cycles, smallest first."""
    best = 0
    for size in range(3, g.n + 1):
        if best:
            break
        for subset in itertools.combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, subset)
            if sub.m == size and all(len(sub.adj[v]) == 2 for v in range(size)) \
                    and is_connected(sub):
                best = size
                break
    return best


def test_girth_tree_zero():
    assert girth(basic_family("path", 6)) == 0
    assert girth(build_graph(1, [])) == 0
    # below three edges girth answers 0 without peeling
    assert girth(build_graph(0, [])) == girth(build_graph(9, [])) == 0
    assert girth(build_graph(4, [(0, 1), (2, 3)])) == 0
    assert girth(basic_family("cycle", 3)) == 3


def test_girth_cycle():
    assert girth(basic_family("cycle", 9)) == 9


def test_girth_petersen(petersen):
    assert _exhaustive_girth(petersen) == 5
    assert girth(petersen) == 5


def _nx_girth(g):
    """networkx's girth, whose inf on an acyclic graph is 0 here."""
    expected = nx.girth(to_networkx(g))
    return 0 if expected == float("inf") else expected


def test_girth_matches_networkx_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        assert girth(g) == _nx_girth(g)


def test_girth_matches_networkx_atlas():
    # the 1253 graphs on 0..7 vertices of networkx's bundled atlas, forests
    # and graphs with pendant trees included: peeling keeps girth exact.
    # The 80 acyclic ones are the forests on 0..7 vertices (1, 1, 2, 3, 6,
    # 10, 20, 37 by order)
    acyclic = 0
    for G in nx.graph_atlas_g():
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        found = girth(g)
        assert found == _nx_girth(g)
        acyclic += found == 0
    assert acyclic == 80


@st.composite
def _trees_on_cycles(draw):
    """A forest drawn as parent pointers (-1 starts a new tree), hung on a
    cycle through the first c vertices when c >= 3, plus up to two chords:
    trees, forests and cycles with pendant trees."""
    n = draw(st.integers(1, 30))
    c = draw(st.sampled_from([0, *range(3, n + 1)]))
    edges = [(i, (i + 1) % c) for i in range(c)]
    for v in range(max(c, 1), n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2))
    return build_graph(n, edges + [(u, v) for u, v in chords if u != v])


@settings(max_examples=150, deadline=None)
@given(_trees_on_cycles())
@example(basic_family("path", 5))
@example(build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]))
def test_girth_matches_networkx_on_trees_and_cycles(g):
    assert girth(g) == _nx_girth(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
def test_girth_matches_networkx_gnp(n, p, seed):
    g = build_graph(n, list(nx.gnp_random_graph(n, p, seed=seed).edges()))
    assert girth(g) == _nx_girth(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 16), st.floats(0.3, 0.9), st.integers(0, 2 ** 32 - 1))
def test_girth_on_graphs_with_triangles(n, p, seed):
    # girth leaves its source loop at the first triangle it finds
    G = nx.gnp_random_graph(n, p, seed=seed)
    assume(any(nx.triangles(G).values()))
    assert girth(build_graph(n, list(G.edges()))) == nx.girth(G) == 3


def test_girth_stops_at_its_first_triangle():
    # a candidate of length 3 ends girth at once: on K_70 it reads about two
    # adjacency rows, not all 2m = 4830 entries
    reads = []

    class Row(tuple):
        """An adjacency row that counts the entries iterated from it."""

        def __iter__(self):
            for w in super().__iter__():
                reads.append(w)
                yield w

    k70 = basic_family("complete", 70)
    assert girth(Graph(k70.n, tuple(map(Row, k70.adj)))) == 3
    assert 0 < len(reads) <= 3 * k70.n


def test_is_connected_counts_edges_before_a_bfs(monkeypatch):
    # fewer than n - 1 edges cannot connect n vertices: no BFS is run
    calls = _counted_bfs_rows(monkeypatch)
    assert not is_connected(build_graph(5, []))
    assert not is_connected(build_graph(5, [(0, 1), (1, 2), (3, 4)]))
    assert calls == []
    assert not is_connected(build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))
    assert is_connected(basic_family("path", 5))
    assert calls == [0, 0]


def test_is_connected_examples():
    assert is_connected(basic_family("cycle", 5))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, []))
    assert is_connected(build_graph(0, []))


def test_distance_matrix_properties_on_random_graphs():
    rng = random.Random(99)
    for trial in range(30):
        g = random_connected_gnp(rng.randint(2, 12), rng.uniform(0.2, 0.9),
                                 rng.getrandbits(32))
        dm = all_pairs_distances(g)
        n = g.n
        for u in range(n):
            assert dm[u][u] == 0
            for v in range(n):
                assert dm[u][v] == dm[v][u]
                assert (dm[u][v] == 1) == g.has_edge(u, v)
                for w in range(n):
                    assert dm[u][w] <= dm[u][v] + dm[v][w]
        G = to_networkx(g)
        lengths = dict(nx.all_pairs_shortest_path_length(G))
        for u in range(n):
            for v in range(n):
                assert dm[u][v] == lengths[u][v]


def test_girth_zero_iff_forest():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.25]
        g = build_graph(n, edges)
        components = nx.number_connected_components(to_networkx(g))
        assert (girth(g) == 0) == (g.m == n - components)


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=20))))
def test_build_graph_invariants(case):
    n, raw = case
    edges = [(u, v) for u, v in raw if u != v]
    g = build_graph(n, edges)
    for u in range(n):
        row = g.adj[u]
        assert list(row) == sorted(set(row))
        assert u not in row
        for v in row:
            assert u in g.adj[v]
            assert g.has_edge(u, v)
    assert g.edge_set() == {(min(u, v), max(u, v)) for u, v in edges}


def test_induced_subgraph():
    g = basic_family("cycle", 6)
    sub, index = induced_subgraph(g, [0, 1, 2, 4])
    assert sub.n == 4
    assert sub.edge_set() == {(index[0], index[1]), (index[1], index[2])}
    assert sub.label(index[4]) == "4"


def test_induced_subgraph_keeps_the_edges_inside():
    # each kept row against the graph's edges filtered to the kept set and
    # renumbered through build_graph, on seeded subsets of atlas graphs,
    # with labels (carried over) and without
    rng = random.Random(3)
    cases = [build_graph(G.number_of_nodes(), list(G.edges())) for G in nx.graph_atlas_g()[:400]]
    cases += [sierpinski(3, 3), generalized_johnson(6, 3, 1)]
    for g in cases:
        for _ in range(3):
            keep = [v for v in range(g.n) if rng.random() < 0.6]
            sub, index = induced_subgraph(g, keep)
            assert index == {v: i for i, v in enumerate(keep)}
            edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
            labels = None if g.labels is None else [g.labels[v] for v in keep]
            ref = build_graph(len(keep), edges, labels)
            assert (sub.n, sub.m, sub.adj, sub.labels) == (ref.n, ref.m, ref.adj, ref.labels)


def test_johnson_octahedron_distances():
    g = generalized_johnson(4, 2, 1)
    # the octahedron: four neighbours and one antipode per vertex
    assert [sorted(row) for row in all_pairs_distances(g)] == [[0, 1, 1, 1, 1, 2]] * 6
    assert _rad_diam(g) == (2, 2)
