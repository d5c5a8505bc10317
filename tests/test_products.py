"""Product constructions: edge rules, nesting, distance laws, projections."""

import random
from itertools import combinations

import networkx as nx
import pytest

from rcgame.errors import InvalidParam, SizeGuard
from rcgame.generators import basic_family, random_connected_gnp
from rcgame.graph import all_pairs_distances, build_graph, girth
from rcgame.products import PRODUCT_KINDS, product

# (a1, b1) ~ (a2, b2), for distinct pairs, read off the factors' edges
EDGE_RULES = {
    "cartesian": lambda g, h, a1, b1, a2, b2: (
        (a1 == a2 and h.has_edge(b1, b2)) or (b1 == b2 and g.has_edge(a1, a2))),
    "strong": lambda g, h, a1, b1, a2, b2: (
        (a1 == a2 or g.has_edge(a1, a2)) and (b1 == b2 or h.has_edge(b1, b2))),
    "lexicographic": lambda g, h, a1, b1, a2, b2: (
        g.has_edge(a1, a2) or (a1 == a2 and h.has_edge(b1, b2))),
}


def test_cartesian_k2_k2_is_c4():
    g = product("cartesian", basic_family("complete", 2), basic_family("complete", 2))
    assert g.n == 4 and g.m == 4 and girth(g) == 4
    assert all(len(g.adj[v]) == 2 for v in range(4))


def test_strong_k2_k2_is_k4():
    g = product("strong", basic_family("complete", 2), basic_family("complete", 2))
    assert g.edge_set() == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_lexicographic_one_point_fiber():
    c4 = basic_family("cycle", 4)
    g = product("lexicographic", c4, basic_family("complete", 1))
    assert g.edge_set() == c4.edge_set()


def test_product_labels_row_major():
    g = product("cartesian", basic_family("path", 2), basic_family("path", 3))
    # row major: vertex (a, b) has index a * |V(H)| + b
    for idx in range(g.n):
        a, b = divmod(idx, 3)
        assert g.label(idx) == f"({a},{b})"
    assert g.label(1 * 3 + 2) == "(1,2)"


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_product_rows_follow_the_edge_rule(kind):
    # each row against the kind's edge rule tested on every pair of
    # vertices, built through build_graph, on seeded pairs of atlas graphs
    atlas = [build_graph(G.number_of_nodes(), list(G.edges()), [f"v{v}" for v in G])
             for G in nx.graph_atlas_g()[1:]]
    rng = random.Random(kind)
    rule = EDGE_RULES[kind]
    for _ in range(120):
        g, h = rng.choice(atlas), rng.choice(atlas)
        n, hn = g.n * h.n, h.n
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rule(g, h, *divmod(u, hn), *divmod(v, hn))]
        ref = build_graph(n, edges, [f"({g.label(a)},{h.label(b)})"
                                     for a in range(g.n) for b in range(hn)])
        got = product(kind, g, h)
        assert (got.n, got.m, got.adj, got.labels) == (ref.n, ref.m, ref.adj, ref.labels)


def test_edge_set_nesting_and_projections():
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected_gnp(rng.randint(2, 5), rng.uniform(0.3, 0.9),
                                 rng.getrandbits(32))
        h = random_connected_gnp(rng.randint(2, 5), rng.uniform(0.3, 0.9),
                                 rng.getrandbits(32))
        cart = product("cartesian", g, h).edge_set()
        strong = product("strong", g, h).edge_set()
        lex = product("lexicographic", g, h).edge_set()
        assert cart <= strong <= lex
        for u, v in lex:
            a1, b1 = divmod(u, h.n)
            a2, b2 = divmod(v, h.n)
            assert a1 == a2 or g.has_edge(a1, a2)
        for u, v in strong:
            a1, b1 = divmod(u, h.n)
            a2, b2 = divmod(v, h.n)
            assert (a1 == a2 or g.has_edge(a1, a2)) and (b1 == b2 or h.has_edge(b1, b2))


def test_distance_laws():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_gnp(rng.randint(2, 5), rng.uniform(0.3, 0.9),
                                 rng.getrandbits(32))
        h = random_connected_gnp(rng.randint(2, 5), rng.uniform(0.3, 0.9),
                                 rng.getrandbits(32))
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        dcart = all_pairs_distances(product("cartesian", g, h))
        dstrong = all_pairs_distances(product("strong", g, h))
        for a1 in range(g.n):
            for b1 in range(h.n):
                for a2 in range(g.n):
                    for b2 in range(h.n):
                        u = a1 * h.n + b1
                        v = a2 * h.n + b2
                        assert dcart[u][v] == dg[a1][a2] + dh[b1][b2]
                        assert dstrong[u][v] == max(dg[a1][a2],
                                                         dh[b1][b2])


def test_product_errors():
    k2 = basic_family("complete", 2)
    with pytest.raises(InvalidParam):
        product("tensor", k2, k2)
    with pytest.raises(InvalidParam):
        product("cartesian", build_graph(0, []), k2)
    with pytest.raises(SizeGuard):
        # 90000 vertices, over the default cap of 65536
        product("cartesian", basic_family("cycle", 300), basic_family("cycle", 300))


def test_products_of_disconnected_factors_allowed():
    matching = build_graph(4, [(0, 1), (2, 3)])
    g = product("cartesian", matching, basic_family("complete", 2))
    assert g.n == 8 and g.m == 8
