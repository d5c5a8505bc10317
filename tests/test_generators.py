"""Family generators: structure, counts, labels, determinism, guards."""

import itertools
import math
import random
import time
from itertools import combinations

import pytest

from rcgame.cli import compute_record
from rcgame.errors import CouldNotConnect, InvalidParam, SizeGuard, UnknownInstance
from rcgame.generators import (
    FAMILIES,
    FamilySpec,
    basic_family,
    build_family,
    check_cap,
    circulant,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    predicted_rc,
    random_connected_gnp,
    sierpinski,
)
from rcgame.graph import (
    all_pairs_distances,
    build_graph,
    eccentricities,
    girth,
    induced_subgraph,
    is_connected,
)
from rcgame.ioformats import parse_edge_list, parse_graph6, write_graph6
from rcgame.outerplanar import random_outerplanar
from rcgame.products import PRODUCT_KINDS, product


def test_basic_families():
    c4 = basic_family("cycle", 4)
    assert c4.n == 4 and c4.m == 4 and girth(c4) == 4
    k5 = basic_family("complete", 5)
    assert k5.m == 10
    assert eccentricities(k5) == (1, 1, 1, 1, 1)
    p1 = basic_family("path", 1)
    assert p1.n == 1 and p1.m == 0


def test_basic_family_param_errors():
    with pytest.raises(InvalidParam):
        basic_family("cycle", 2)
    with pytest.raises(InvalidParam):
        basic_family("path", 0)
    with pytest.raises(InvalidParam):
        basic_family("wheel", 5)


def test_hypercube_small():
    assert hypercube(1).edge_set() == {(0, 1)}
    q3 = hypercube(3)
    assert q3.n == 8 and q3.m == 12
    assert min(eccentricities(q3)) == 3
    assert all(len(q3.adj[v]) == 3 for v in range(8))
    assert q3.label(5) == "101"


def test_hypercube_guard(monkeypatch):
    with pytest.raises(SizeGuard):
        hypercube(25)
    monkeypatch.setenv("RC_SIZE_GUARD", "16")
    with pytest.raises(SizeGuard):
        hypercube(5)
    with pytest.raises(InvalidParam):
        hypercube(0)


def test_hamming_is_complete_for_one_coordinate():
    assert hamming(1, 4).edge_set() == basic_family("complete", 4).edge_set()


def test_hamming_rook():
    g = hamming(2, 3)
    assert g.n == 9
    assert all(len(g.adj[v]) == 4 for v in range(9))


def test_hamming_equals_hypercube():
    assert hamming(3, 2).edge_set() == hypercube(3).edge_set()
    assert hamming(3, 2).labels == hypercube(3).labels


@pytest.mark.parametrize("d,q", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_hamming_matches_iterated_cartesian_power(d, q):
    kq = basic_family("complete", q)
    power = kq
    for _ in range(d - 1):
        power = product("cartesian", kq, power)
    assert hamming(d, q).edge_set() == power.edge_set()


def test_generalized_johnson_octahedron():
    g = generalized_johnson(4, 2, 1)
    assert g.n == 6 and all(len(g.adj[v]) == 4 for v in range(6))
    assert g.label(0) == "{1,2}"


def test_generalized_johnson_petersen(petersen):
    assert petersen.n == 10
    assert all(len(petersen.adj[v]) == 3 for v in range(10))
    assert is_connected(petersen)


def test_generalized_johnson_disconnected_matching():
    g = generalized_johnson(4, 2, 0)
    assert g.n == 6 and g.m == 3
    assert all(len(g.adj[v]) == 1 for v in range(6))
    assert not is_connected(g)


def test_generalized_johnson_matches_brute_force():
    """Every J(n, k, i) on at most 70 vertices, the sweep's 2575 triples:
    row a lists the b != a whose k-subset meets a's in exactly i points,
    on the edgeless (i < 2k - n), complete (J(n, 1, 0), J(n, n-1, n-2))
    and pair-testing branches alike, and each label is the subset written
    as "{1,2,...}"."""
    edgeless = complete = triples = 0
    for n in range(2, 71):
        for k in range(1, n):
            if math.comb(n, k) > 70:
                continue
            subsets = [frozenset(s) for s in combinations(range(1, n + 1), k)]
            rows = [[[] for _ in subsets] for _ in range(k)]     # rows[i][a]
            for a, sa in enumerate(subsets):
                for b, sb in enumerate(subsets):
                    if a != b:
                        rows[len(sa & sb)][a].append(b)
            labels = tuple("{" + ",".join(map(str, sorted(s))) + "}" for s in subsets)
            for i in range(k):
                g = generalized_johnson(n, k, i)
                assert g.adj == tuple(map(tuple, rows[i])), (n, k, i)
                assert g.labels == labels, (n, k, i)
                edgeless += g.m == 0
                complete += g.m == g.n * (g.n - 1) // 2
                triples += 1
    assert (triples, complete) == (2575, 137) and edgeless > 2000


def test_generalized_johnson_co_singletons():
    """(n-1)-subsets of an n-set meet in n - 2 points: J(n, n-1, n-2) is
    K_n, as J(n, 1, 0) is, row for row, and every other i gives no edge."""
    for n in range(2, 71):
        complete = basic_family("complete", n).adj
        assert generalized_johnson(n, n - 1, n - 2).adj == complete
        assert generalized_johnson(n, 1, 0).adj == complete
        for i in range(n - 2):
            assert generalized_johnson(n, n - 1, i).m == 0, (n, i)


def test_generalized_johnson_param_errors():
    for bad in [(3, 3, 1), (4, 2, 2), (4, 2, -1), (2, 3, 1)]:
        with pytest.raises(InvalidParam):
            generalized_johnson(*bad)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_johnson_regularity(n, k):
    g = generalized_johnson(n, k, k - 1)
    assert g.n == math.comb(n, k)
    assert all(len(g.adj[v]) == k * (n - k) for v in range(g.n))


def test_sierpinski_degenerate_and_base():
    assert sierpinski(0, 3).n == 1
    assert sierpinski(1, 3).edge_set() == {(0, 1), (0, 2), (1, 2)}
    assert sierpinski(2, 1).n == 1
    assert sierpinski(3, 2).n == 8


def test_sierpinski_one_letter_is_one_vertex():
    # S(n, 1) is built directly, not level by level: a million letters at once
    start = time.perf_counter()
    g = sierpinski(10 ** 6, 1)
    assert time.perf_counter() - start < 1.0
    assert (g.n, g.m, g.labels) == (1, 0, ("1" * 10 ** 6,))
    assert sierpinski(3, 1).labels == ("111",)
    assert sierpinski(0, 1).labels == ("",)


def test_sierpinski_s23_exact_edges():
    g = sierpinski(2, 3)
    by_label = {g.label(v): v for v in range(g.n)}
    expected = {("11", "12"), ("11", "13"), ("12", "13"),
                ("21", "22"), ("21", "23"), ("22", "23"),
                ("31", "32"), ("31", "33"), ("32", "33"),
                ("12", "21"), ("13", "31"), ("23", "32")}
    got = {tuple(sorted((g.label(u), g.label(v)))) for u, v in g.edges()}
    assert got == {tuple(sorted(e)) for e in expected}
    assert by_label["12"] != by_label["21"]


def _sierpinski_by_levels(n: int, k: int):
    """S(n, k) by its recursive definition, through build_graph: level by
    level, k copies of the level below, each prefixed by a letter, plus the
    connecting edges {i j^(level-1), j i^(level-1)} for letters i < j."""
    edges: list[tuple[int, int]] = []
    size = 1
    for level in range(1, n + 1):
        edges = [(i * size + a, i * size + b) for i in range(k) for a, b in edges]
        for i, j in combinations(range(k), 2):
            edges.append((i * size + sum(j * k ** t for t in range(level - 1)),
                          j * size + sum(i * k ** t for t in range(level - 1))))
        size *= k
    return build_graph(size, edges,
                       ["".join(map(str, w))
                        for w in itertools.product(range(1, k + 1), repeat=n)])


@pytest.mark.parametrize("k", range(1, 6))
def test_sierpinski_rows_match_the_recursive_definition(k):
    # the row rule (k - 1 last-letter siblings and at most one bridge per
    # word) against the level-by-level edge list, S(n, 1) included
    for n in range(6):
        g, ref = sierpinski(n, k), _sierpinski_by_levels(n, k)
        assert (g.n, g.m, g.adj, g.labels) == (ref.n, ref.m, ref.adj, ref.labels), (n, k)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)])
def test_sierpinski_counts(n, k):
    g = sierpinski(n, k)
    assert g.n == k ** n
    edges = 0
    for _ in range(n):
        edges = k * edges + k * (k - 1) // 2
    assert g.m == edges


def test_sierpinski_s33_structure():
    g = sierpinski(3, 3)
    assert g.n == 27 and g.m == 39
    by_label = {g.label(v): v for v in range(g.n)}
    # the three extreme vertices are the only ones of degree k - 1
    corners = [v for v in range(27) if len(g.adj[v]) == 2]
    assert sorted(g.label(v) for v in corners) == ["111", "222", "333"]
    # top-level connector edges
    for a, b in (("122", "211"), ("133", "311"), ("233", "322")):
        assert g.has_edge(by_label[a], by_label[b])


def test_circulant():
    assert circulant(8, {1}).edge_set() == basic_family("cycle", 8).edge_set()
    g = circulant(8, {1, 2})
    assert all(len(g.adj[v]) == 4 for v in range(8))
    matching = circulant(6, {3})
    assert matching.m == 3 and not is_connected(matching)
    with pytest.raises(InvalidParam):
        circulant(8, {5})
    with pytest.raises(InvalidParam):
        circulant(8, {0})


def test_circulant_distance_profile_identical_from_every_vertex():
    for n, steps in [(9, {1, 2}), (10, {1, 3}), (7, {2})]:
        g = circulant(n, steps)
        dm = all_pairs_distances(g)
        profiles = {tuple(sorted(dm[v])) for v in range(n)}
        assert len(profiles) == 1


def test_named_instance(cubic_vt):
    assert cubic_vt.n == 24 and cubic_vt.m == 36
    assert all(len(cubic_vt.adj[v]) == 3 for v in range(24))
    assert set(eccentricities(cubic_vt)) == {5}
    with pytest.raises(UnknownInstance):
        named_instance("CubicVT56_12")


def test_random_gnp():
    assert random_connected_gnp(1, 0.5, 3).n == 1
    k6 = random_connected_gnp(6, 1.0, 3)
    assert k6.m == 15
    a = random_connected_gnp(10, 0.3, 42)
    b = random_connected_gnp(10, 0.3, 42)
    assert a.edge_set() == b.edge_set()
    with pytest.raises(CouldNotConnect):
        random_connected_gnp(5, 0.0, 1)
    with pytest.raises(InvalidParam):
        random_connected_gnp(5, 1.5, 1)
    # the seed and the type of p are checked by the generator itself, not
    # only by build_family: no seed would draw a different graph per call,
    # and a string p would fail in the comparison with a TypeError
    with pytest.raises(InvalidParam, match="^random_gnp_connected requires a seed$"):
        random_connected_gnp(12, 0.3, None)
    with pytest.raises(InvalidParam, match="numeric edge probability, got '0.5'$"):
        random_connected_gnp(8, "0.5", 1)
    for params, seed in (((6, "0.5"), 1), ((6, 0.5), None)):
        with pytest.raises(InvalidParam) as via_spec:
            build_family(FamilySpec("random_gnp_connected", params, seed))
        with pytest.raises(InvalidParam) as direct:
            random_connected_gnp(*params, seed)
        assert str(via_spec.value) == str(direct.value)


def _gnp_by_edge_lists(n: int, p: float, seed: int):
    """G(n, p) drawn as an edge list per try, pairs (u, v), u < v, in
    order, each try built through build_graph until one is connected."""
    rng = random.Random(seed)
    for _ in range(200):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges, [str(v) for v in range(n)])
        if is_connected(g):
            return g
    raise CouldNotConnect(f"no connected sample in 200 tries (n={n}, p={p})")


def test_gnp_rows_match_the_edge_list_draw():
    # the same rng.random() order, so the same draws, retries and graph
    for n, p in [(1, 0.5), (2, 0.5), (7, 0.2), (12, 0.3), (20, 0.15), (30, 0.5), (9, 1.0)]:
        for seed in range(6):
            g, ref = random_connected_gnp(n, p, seed), _gnp_by_edge_lists(n, p, seed)
            assert (g.n, g.m, g.adj, g.labels) == (ref.n, ref.m, ref.adj, ref.labels)
    assert random_connected_gnp(9, 1.0, 0).adj == basic_family("complete", 9).adj
    assert random_connected_gnp(1, 0.0, 4).n == 1
    for n in (2, 5):
        for make in (random_connected_gnp, _gnp_by_edge_lists):
            with pytest.raises(CouldNotConnect):
                make(n, 0.0, 1)


def test_generators_deterministic():
    pairs = [
        (lambda: hypercube(4), lambda: hypercube(4)),
        (lambda: sierpinski(3, 3), lambda: sierpinski(3, 3)),
        (lambda: generalized_johnson(6, 3, 1), lambda: generalized_johnson(6, 3, 1)),
        (lambda: circulant(9, {1, 4}), lambda: circulant(9, {1, 4})),
    ]
    for make_a, make_b in pairs:
        a, b = make_a(), make_b()
        assert a.edge_set() == b.edge_set()
        assert a.labels == b.labels


_JOHNSON_35 = [(n, k, i) for n in range(2, 36) for k in range(1, n)
               if math.comb(n, k) <= 35 for i in range(k)]

FAMILY_CASES = {
    "cycle": [lambda n=n: basic_family("cycle", n) for n in range(3, 13)],
    "path": [lambda n=n: basic_family("path", n) for n in range(1, 13)],
    "complete": [lambda n=n: basic_family("complete", n) for n in range(1, 9)],
    "hypercube": [lambda d=d: hypercube(d) for d in range(1, 7)],
    "hamming": [lambda d=d, q=q: hamming(d, q)
                for d, q in [(1, 2), (1, 5), (2, 3), (3, 3), (2, 5), (4, 3), (2, 11), (3, 12)]],
    "generalized_johnson": [lambda p=p: generalized_johnson(*p) for p in _JOHNSON_35],
    "sierpinski": [lambda n=n, k=k: sierpinski(n, k)
                   for n, k in [(0, 1), (1, 1), (4, 1), (0, 3), (1, 3), (3, 3),
                                (2, 4), (3, 4), (2, 11), (3, 2)]],
    "circulant": [lambda n=n, s=s: circulant(n, s)
                  for n, s in [(3, {1}), (4, {2}), (6, {3}), (8, {1, 4}), (9, {1, 4}),
                               (10, {2, 5}), (12, {1, 2, 3, 4, 5, 6}), (13, {3, 5})]],
    "named_instance": [lambda: named_instance("CubicVT24_6")],
    "random_gnp_connected": [lambda s=s: random_connected_gnp(9, 0.4, s) for s in range(5)],
    "product": [lambda kind=kind, f=f: product(kind, *f())
                for kind in PRODUCT_KINDS
                for f in [lambda: (basic_family("complete", 1), basic_family("path", 3)),
                          lambda: (basic_family("complete", 2), basic_family("complete", 3)),
                          lambda: (basic_family("cycle", 5), basic_family("path", 4)),
                          lambda: (sierpinski(2, 3), generalized_johnson(5, 2, 0)),
                          lambda: (circulant(6, {3}), hypercube(2))]],
    "induced_subgraph": [lambda f=f, keep=keep: induced_subgraph(f(), keep)[0]
                         for f, keep in [(lambda: sierpinski(3, 3), range(0, 27, 2)),
                                         (lambda: sierpinski(3, 3), range(9, 27)),
                                         (lambda: hypercube(4), [0, 1, 3, 7, 15, 14]),
                                         (lambda: generalized_johnson(5, 2, 0), []),
                                         (lambda: basic_family("cycle", 9), range(9))]],
}


def test_family_cases_cover_the_edge_rules():
    """The J(n, k, i) cases include edgeless (n < 2k - i) and Kneser (i = 0)
    graphs; the literal lists above hold S(n, 1) and the step n/2 on even n,
    where j + n/2 and j - n/2 are one neighbour."""
    assert any(n < 2 * k - i for n, k, i in _JOHNSON_35)
    assert any(i == 0 and n >= 2 * k for n, k, i in _JOHNSON_35)
    assert len(_JOHNSON_35) == sum(k for n in range(2, 36) for k in range(1, n)
                                   if math.comb(n, k) <= 35)


@pytest.mark.parametrize("kind", sorted(FAMILY_CASES))
def test_family_matches_build_graph_rebuild(kind):
    """Every family equals its rebuild through build_graph, the checked path:
    same order, size, adjacency rows, labels and graph6, with the labels
    pairwise distinct. A direct row that listed a neighbour twice or out of
    order, or a label function that drifted, would differ here."""
    for make in FAMILY_CASES[kind]:
        g = make()
        again = build_graph(g.n, list(g.edges()), g.labels)
        assert (g.n, g.m, g.adj, g.labels) == (again.n, again.m, again.adj, again.labels)
        assert write_graph6(g) == write_graph6(again)
        assert len(set(g.labels)) == g.n
        assert [g.label(v) for v in range(g.n)] == list(g.labels)


def test_johnson_row_formats_no_label():
    """A J(n, k, i) that is only built and solved never formats a label; the
    first read formats them all, as the subsets written "{1,2,...}"."""
    for params in [(5, 2, 0), (7, 3, 2), (6, 4, 0), (8, 1, 0)]:
        g = generalized_johnson(*params)
        compute_record(g, "j")
        assert callable(g._labels), params
    assert g.label(7) == "{8}"
    assert g.labels == tuple(f"{{{x}}}" for x in range(1, 9))


def test_build_family_dispatch():
    assert build_family(FamilySpec("cycle", (5,))).n == 5
    assert build_family(FamilySpec("hamming", (2, 3))).n == 9
    assert build_family(FamilySpec("named_instance", ("CubicVT24_6",))).n == 24
    g = build_family(FamilySpec("random_gnp_connected", (6, 0.5), seed=9))
    assert is_connected(g)
    with pytest.raises(InvalidParam):
        build_family(FamilySpec("cycle", (5, 7)))
    # FAMILIES is the one kind list: any other kind is refused on one line
    # that names every kind
    with pytest.raises(InvalidParam) as refused:
        build_family(FamilySpec("mystery", (1,)))
    assert str(refused.value) == ("unknown family kind 'mystery'; the kinds are "
                                  + ", ".join(FAMILIES))
    assert len(FAMILIES) == 10
    with pytest.raises(InvalidParam):
        build_family(FamilySpec("random_gnp_connected", (6, 0.5)))
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("generalized_johnson", (30, 15, 1)))


@pytest.mark.parametrize("kind,make", [
    ("cycle", lambda: basic_family("cycle", 8.5)),
    ("circulant", lambda: circulant(8.0, [1])),
    ("circulant", lambda: circulant(8, [1, "2"])),
    ("random_gnp_connected", lambda: random_connected_gnp(8.5, 0.5, 1)),
    ("hamming", lambda: hamming(2.0, 3)),
    ("hypercube", lambda: hypercube(3.0)),
    ("sierpinski", lambda: sierpinski(2.0, 3)),
    ("generalized_johnson", lambda: generalized_johnson(5.0, 2, 1)),
])
def test_generators_refuse_non_integer_params(kind, make):
    # each generator checks its own integer params before the cap check or
    # its arithmetic reads them, so a direct call refuses them as the
    # command line does, not with a TypeError
    with pytest.raises(InvalidParam, match=rf"^{kind} takes integer parameters, got "):
        make()



def test_build_family_guards_every_kind(monkeypatch):
    # each generator, and product, checks the cap from its parameters,
    # before any label, row or edge is made, so none builds past it: the
    # generators build from rows through Graph, the named instance through
    # build_graph, and both refuse here
    k3 = basic_family("complete", 3)

    def refuse(*_args):
        raise AssertionError("built past the size guard")

    for name in ("generators.build_graph", "generators.Graph", "products.Graph"):
        monkeypatch.setattr(f"rcgame.{name}", refuse)
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    for kind, params in (("cycle", (6,)), ("path", (5,)), ("complete", (10 ** 9,)),
                         ("circulant", (7, 1, 2)), ("hypercube", (3,)), ("hamming", (2, 3)),
                         ("generalized_johnson", (5, 2, 0)), ("sierpinski", (2, 3)),
                         ("random_gnp_connected", (6, 0.5))):
        with pytest.raises(SizeGuard):
            build_family(FamilySpec(kind, params, seed=1))
    for kind in PRODUCT_KINDS:
        with pytest.raises(SizeGuard):
            product(kind, k3, k3)
    monkeypatch.setenv("RC_SIZE_GUARD", "23")
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("named_instance", ("CubicVT24_6",)))
    monkeypatch.undo()
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    assert build_family(FamilySpec("cycle", (4,))).n == 4
    assert build_family(FamilySpec("sierpinski", (1, 4))).n == 4
    assert build_family(FamilySpec("random_gnp_connected", (4, 0.5), seed=1)).n == 4
    assert product("strong", k3, basic_family("complete", 1)).n == 3
    monkeypatch.setenv("RC_SIZE_GUARD", "24")
    assert build_family(FamilySpec("named_instance", ("CubicVT24_6",))).n == 24


def test_one_cap_governs_every_construction(monkeypatch):
    # every graph source, with the order it builds: refused one below it
    k3, k2 = basic_family("complete", 3), basic_family("complete", 2)
    builds = ((6, lambda: product("cartesian", k3, k2)),
              (6, lambda: hamming(1, 6)),
              (6, lambda: parse_edge_list("n 6\n0 1\n")),
              (6, lambda: build_family(FamilySpec("circulant", (6, 1, 3)))),
              (6, lambda: basic_family("cycle", 6)),
              (6, lambda: basic_family("path", 6)),
              (6, lambda: basic_family("complete", 6)),
              (6, lambda: generalized_johnson(4, 2, 1)),
              (6, lambda: circulant(6, [1])),
              (6, lambda: random_connected_gnp(6, 0.9, 1)),
              (9, lambda: sierpinski(2, 3)),
              (24, lambda: named_instance("CubicVT24_6")),
              (12, lambda: random_outerplanar(12, 0.5, 1)),
              (6, lambda: parse_graph6("E???")))
    for n, build in builds:
        monkeypatch.setenv("RC_SIZE_GUARD", str(n - 1))
        with pytest.raises(SizeGuard, match=f"{n} vertices exceeds the cap {n - 1}$"):
            build()
        monkeypatch.setenv("RC_SIZE_GUARD", str(n))
        assert build().n == n
    for raw in ("frog", "0"):
        monkeypatch.setenv("RC_SIZE_GUARD", raw)
        with pytest.raises(InvalidParam, match="RC_SIZE_GUARD must be"):
            check_cap(1)


def test_cap_check_never_builds_the_order():
    # orders with millions of digits: refused from running products, fast,
    # and never formatted (past 4300 digits str() raises ValueError)
    start = time.perf_counter()
    for build in (lambda: sierpinski(10000, 3),
                  lambda: sierpinski(30000000, 3),
                  lambda: build_family(FamilySpec("sierpinski", (2000000, 3))),
                  lambda: build_family(FamilySpec("hamming", (10000, 3))),
                  lambda: build_family(FamilySpec("generalized_johnson", (20000, 10000, 1))),
                  lambda: build_family(FamilySpec("generalized_johnson",
                                                  (2000000, 1000000, 1)))):
        with pytest.raises(SizeGuard, match="exceeds the cap 65536"):
            build()
    assert time.perf_counter() - start < 1.0


def test_cap_on_running_products_is_exact(monkeypatch):
    # an order equal to the cap is admitted and one above it refused
    monkeypatch.setenv("RC_SIZE_GUARD", "20")
    assert build_family(FamilySpec("generalized_johnson", (6, 3, 1))).n == 20
    assert hamming(2, 4).n == 16
    assert sierpinski(0, 7).n == sierpinski(9, 1).n == 1
    monkeypatch.setenv("RC_SIZE_GUARD", "19")
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("generalized_johnson", (6, 3, 1)))
    with pytest.raises(SizeGuard):
        hamming(2, 5)
    with pytest.raises(InvalidParam):
        build_family(FamilySpec("generalized_johnson", (3, 5, 1)))
    with pytest.raises(InvalidParam, match="bad parameter count"):
        build_family(FamilySpec("circulant", ()))


def test_predicted_rc_table():
    assert predicted_rc("cycle", (9,))[0] == 3
    assert predicted_rc("hypercube", (6,))[0] == 5
    assert predicted_rc("hamming", (3, 4))[0] == 2
    assert predicted_rc("generalized_johnson", (5, 2, 0), rad=2)[0] == 1
    assert predicted_rc("generalized_johnson", (5, 2, 0)) is None
    assert predicted_rc("sierpinski", (4, 3))[0] == 11
    assert predicted_rc("sierpinski", (2, 3))[0] == 2
    assert predicted_rc("sierpinski", (3, 4))[0] == 5
    assert predicted_rc("sierpinski", (5, 4)) is None
    assert predicted_rc("path", (5,)) is None
