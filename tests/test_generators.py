"""Family generators: structure, counts, labels, determinism, guards."""

import math
from itertools import combinations

import pytest

from rcgame.errors import CouldNotConnect, InvalidParam, SizeGuard, UnknownInstance
from rcgame.generators import (
    FamilySpec,
    basic_family,
    build_family,
    circulant,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    predicted_rc,
    random_connected_gnp,
    sierpinski,
)
from rcgame.graph import all_pairs_distances, eccentricities, girth, is_connected
from rcgame.products import product


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
    assert all(q3.degree(v) == 3 for v in range(8))
    assert q3.label(5) == "101"


def test_hypercube_guard():
    with pytest.raises(SizeGuard):
        hypercube(25)
    with pytest.raises(SizeGuard):
        hypercube(5, size_guard=16)
    with pytest.raises(InvalidParam):
        hypercube(0)


def test_hamming_is_complete_for_one_coordinate():
    assert hamming(1, 4).edge_set() == basic_family("complete", 4).edge_set()


def test_hamming_rook():
    g = hamming(2, 3)
    assert g.n == 9
    assert all(g.degree(v) == 4 for v in range(9))


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
    assert g.n == 6 and all(g.degree(v) == 4 for v in range(6))
    assert g.label(0) == "{1,2}"


def test_generalized_johnson_petersen(petersen):
    assert petersen.n == 10
    assert all(petersen.degree(v) == 3 for v in range(10))
    assert is_connected(petersen)


def test_generalized_johnson_disconnected_matching():
    g = generalized_johnson(4, 2, 0)
    assert g.n == 6 and g.m == 3
    assert all(g.degree(v) == 1 for v in range(6))
    assert not is_connected(g)


def test_generalized_johnson_matches_brute_force():
    """Every J(n, k, i) on at most 35 vertices: the edges are the pairs of
    k-subsets meeting in exactly i points, the edgeless n < 2k - i ones
    included, and each label is the subset written as "{1,2,...}"."""
    params = [(n, k, i) for n in range(2, 36) for k in range(1, n)
              if math.comb(n, k) <= 35 for i in range(k)]
    assert sum(n < 2 * k - i for n, k, i in params) > 100
    for n, k, i in params:
        subsets = [set(s) for s in combinations(range(1, n + 1), k)]
        expected = {(a, b) for a, b in combinations(range(len(subsets)), 2)
                    if len(subsets[a] & subsets[b]) == i}
        g = generalized_johnson(n, k, i)
        assert g.edge_set() == expected, (n, k, i)
        assert g.labels == tuple("{" + ",".join(str(x) for x in sorted(s)) + "}"
                                 for s in subsets), (n, k, i)


def test_generalized_johnson_co_singletons():
    """(n-1)-subsets of an n-set meet in n - 2 points: J(n, n-1, n-2) is
    K_n and every other i gives no edge."""
    for n in range(2, 71):
        assert generalized_johnson(n, n - 1, n - 2).edge_set() == \
            basic_family("complete", n).edge_set()
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
    assert all(g.degree(v) == k * (n - k) for v in range(g.n))


def test_sierpinski_degenerate_and_base():
    assert sierpinski(0, 3).n == 1
    assert sierpinski(1, 3).edge_set() == {(0, 1), (0, 2), (1, 2)}
    assert sierpinski(2, 1).n == 1
    assert sierpinski(3, 2).n == 8


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
    corners = [v for v in range(27) if g.degree(v) == 2]
    assert sorted(g.label(v) for v in corners) == ["111", "222", "333"]
    # top-level connector edges
    for a, b in (("122", "211"), ("133", "311"), ("233", "322")):
        assert g.has_edge(by_label[a], by_label[b])


def test_circulant():
    assert circulant(8, {1}).edge_set() == basic_family("cycle", 8).edge_set()
    g = circulant(8, {1, 2})
    assert all(g.degree(v) == 4 for v in range(8))
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
    assert all(cubic_vt.degree(v) == 3 for v in range(24))
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


def test_build_family_dispatch():
    assert build_family(FamilySpec("cycle", (5,))).n == 5
    assert build_family(FamilySpec("hamming", (2, 3))).n == 9
    assert build_family(FamilySpec("named_instance", ("CubicVT24_6",))).n == 24
    g = build_family(FamilySpec("random_gnp_connected", (6, 0.5), seed=9))
    assert is_connected(g)
    with pytest.raises(InvalidParam):
        build_family(FamilySpec("cycle", (5, 7)))
    with pytest.raises(InvalidParam):
        build_family(FamilySpec("mystery", (1,)))
    with pytest.raises(InvalidParam):
        build_family(FamilySpec("random_gnp_connected", (6, 0.5)))
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("generalized_johnson", (30, 15, 1)))



def test_build_family_guards_every_kind(monkeypatch):
    # the cap is checked from the parameters, before any edge is built
    def refuse(*_args):
        raise AssertionError("built past the size guard")

    monkeypatch.setattr("rcgame.generators.basic_family", refuse)
    monkeypatch.setattr("rcgame.generators.circulant", refuse)
    for kind, params in (("cycle", (6,)), ("path", (5,)), ("complete", (10 ** 9,)),
                         ("circulant", (7, 1, 2))):
        with pytest.raises(SizeGuard):
            build_family(FamilySpec(kind, params), size_guard=4)
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("named_instance", ("CubicVT24_6",)), size_guard=23)
    monkeypatch.undo()
    assert build_family(FamilySpec("cycle", (4,)), size_guard=4).n == 4
    assert build_family(FamilySpec("named_instance", ("CubicVT24_6",)), size_guard=24).n == 24


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
