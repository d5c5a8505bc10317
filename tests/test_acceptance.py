"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one pass line on success; a failing criterion fails its
test. The heavy instances (S(5,3), S(4,4), Q_7) and their analyses are
shared across criteria through module-scoped fixtures.
"""

import itertools
import math
import random

import pytest

from rcgame.engine import (
    certify_cop_strategy,
    extract_cop_strategy,
    extract_robber_strategy,
    naive_rc_oracle,
    radius_capture_number,
    simulate,
    solve_cwrc,
)
from rcgame.generators import (
    basic_family,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    random_connected_gnp,
    sierpinski,
)
from rcgame.graph import all_pairs_distances, eccentricities, is_connected
from rcgame.verify import (
    HARMONIC_EVEN,
    NOT_EVEN,
    check_distance_expansion,
    check_radius_pair_condition,
    classify_evenness,
    suite_bounds,
    suite_evenness,
    suite_outerplanar,
    suite_products,
    suite_retracts,
)

SEED = 20250809


def _passed(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


@pytest.fixture(scope="module")
def cycles():
    return [(f"C_{n}", basic_family("cycle", n), n // 2 - 1) for n in range(3, 25)]


@pytest.fixture(scope="module")
def hypercubes():
    return [(f"Q_{d}", hypercube(d), d - 1) for d in range(1, 8)]


@pytest.fixture(scope="module")
def hammings():
    return [(f"H({d},{q})", hamming(d, q), d - 1)
            for d, q in ((2, 3), (2, 4), (3, 3), (2, 5))]


@pytest.fixture(scope="module")
def johnsons():
    return [(f"J({n},{k})", generalized_johnson(n, k, k - 1), k - 1)
            for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3))]


@pytest.fixture(scope="module")
def generalized_johnsons():
    """Every connected J(n, k, i) with at most 70 vertices, rc = rad - 1."""
    instances = []
    for n in range(2, 71):
        for k in range(1, n):
            if math.comb(n, k) > 70:
                continue
            for i in range(k):
                g = generalized_johnson(n, k, i)
                if is_connected(g):
                    rad = min(eccentricities(g))
                    instances.append((f"J({n},{k},{i})", g, rad - 1))
    return instances


@pytest.fixture(scope="module")
def sierpinskis():
    out = [(f"S({n},3)", sierpinski(n, 3), 2 ** n - 2) for n in (1, 2)]
    out += [(f"S({n},3)", sierpinski(n, 3), 3 * 2 ** (n - 2) - 1) for n in (3, 4, 5)]
    out += [("S(3,4)", sierpinski(3, 4), 5), ("S(4,4)", sierpinski(4, 4), 11)]
    return out


@pytest.fixture(scope="module")
def cubic():
    return [("CubicVT24_6", named_instance("CubicVT24_6"), 3)]


@pytest.fixture(scope="module")
def analysis_cache():
    cache = {}

    def get(name, g, k):
        key = (name, k)
        if key not in cache:
            cache[key] = solve_cwrc(g, k)
        return cache[key]

    return get


def _check_rc(instances, analysis_cache):
    for name, g, expected in instances:
        a = analysis_cache(name, g, expected)
        assert a.is_cop_win, f"{name}: cop should win at {expected}"
        if expected > 0:
            prev = analysis_cache(name, g, expected - 1)
            assert not prev.is_cop_win, f"{name}: cop should not win at {expected - 1}"


def test_criterion_01_cycles(cycles, analysis_cache):
    _check_rc(cycles, analysis_cache)
    _passed(1, f"rc(C_n) == n//2 - 1 for n in 3..24 ({len(cycles)} cycles)")


def test_criterion_02_hypercubes(hypercubes, analysis_cache):
    _check_rc(hypercubes, analysis_cache)
    _passed(2, "rc(Q_n) == n - 1 for n in 1..7")


def test_criterion_03_hamming(hammings, analysis_cache):
    _check_rc(hammings, analysis_cache)
    _passed(3, "rc(H(d,q)) == d - 1 for (2,3),(2,4),(3,3),(2,5)")


def test_criterion_04_johnson(johnsons, analysis_cache):
    _check_rc(johnsons, analysis_cache)
    _passed(4, "rc(J(n,k)) == k - 1 for the five Johnson instances")


def test_criterion_05_generalized_johnson(generalized_johnsons, analysis_cache):
    assert len(generalized_johnsons) > 100
    _check_rc(generalized_johnsons, analysis_cache)
    _passed(5, f"rc == rad - 1 on all {len(generalized_johnsons)} connected "
               "J(n,k,i) with C(n,k) <= 70")


def test_criterion_06_sierpinski_base3(sierpinskis, analysis_cache):
    base3 = [t for t in sierpinskis if t[0].endswith(",3)")]
    _check_rc(base3, analysis_cache)
    _passed(6, "rc(S(n,3)) matches the closed form for n in 1..5")


def test_criterion_07_sierpinski_base4(sierpinskis, analysis_cache):
    base4 = [t for t in sierpinskis if t[0].endswith(",4)")]
    for name, g, _ in base4:
        rad = min(eccentricities(g))
        assert rad == {"S(3,4)": 7, "S(4,4)": 14}[name]
    _check_rc(base4, analysis_cache)
    _passed(7, "rc(S(3,4)) == 5 with rad 7; rc(S(4,4)) == 11 with rad 14")


def test_criterion_08_figure_instance(cubic, analysis_cache):
    name, g, expected = cubic[0]
    rad = min(eccentricities(g))
    assert rad == 5
    _check_rc(cubic, analysis_cache)
    assert check_distance_expansion(g, 3)
    assert not check_radius_pair_condition(g)
    _passed(8, "CubicVT24_6: rad 5, rc 3, expansion at 3 holds, "
               "radius-pair condition fails")


def test_criterion_09_bound_sandwich():
    tally = suite_bounds(trials=200, seed=SEED, max_n=14)
    assert not tally.failures, tally.failures[0].to_json()
    assert tally.totals["radius-upper-bound"] == 200
    _passed(9, "girth//2 - 1 <= rc <= rad - 1 on 200 random connected graphs")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(SEED)
    for _ in range(100):
        g = random_connected_gnp(rng.randint(2, 10), rng.uniform(0.2, 0.8),
                                 rng.getrandbits(32))
        expected = naive_rc_oracle(g)
        dm = all_pairs_distances(g)
        scan = next(k for k in itertools.count() if solve_cwrc(g, k, dm).is_cop_win)
        assert scan == expected
        assert radius_capture_number(g) == expected
    _passed(10, "naive oracle == per-k scan == radius_capture_number "
                "on 100 random graphs")


def test_criterion_11_product_theorems():
    tally = suite_products(trials=50, seed=SEED, max_n=14)
    assert not tally.failures, tally.failures[0].to_json()
    assert tally.totals["strong-product-value"] == 50
    _passed(11, "Cartesian bounds, coincidence, strong and lexicographic "
                "formulas on 50 factor pairs")


def test_criterion_12_outerplanar():
    tally = suite_outerplanar(trials=200, seed=SEED, max_n=14)
    assert not tally.failures, tally.failures[0].to_json()
    assert tally.totals["outerplanar-face-formula"] == 200
    _passed(12, "rc == floor(max inner face / 2) - 1 on 200 polygon instances")


def test_criterion_13_retract_monotonicity():
    tally = suite_retracts(trials=100, seed=SEED, max_n=12)
    assert not tally.failures, tally.failures[0].to_json()
    assert tally.totals["retract-monotonicity"] == 100
    _passed(13, "rc(retract) <= rc(graph) on 100 corner-fold and "
                "layer-projection instances")


def test_criterion_14_evenness():
    assert classify_evenness(basic_family("path", 3)) == NOT_EVEN
    harmonic = [basic_family("cycle", n) for n in range(4, 17, 2)]
    harmonic += [hypercube(d) for d in range(1, 6)]
    for g in harmonic:
        assert classify_evenness(g) == HARMONIC_EVEN
        dm = all_pairs_distances(g)
        ecc = eccentricities(g)
        rad, diam = min(ecc), max(ecc)
        assert radius_capture_number(g) == rad - 1
        ant = []
        for v in range(g.n):
            far = [u for u in range(g.n) if dm[v][u] == diam]
            assert len(far) == 1
            ant.append(far[0])
        for u, v in g.edges():
            assert dm[u][ant[v]] == diam - 1
    tally = suite_evenness(trials=25, seed=SEED, max_n=12)
    assert not tally.failures, tally.failures[0].to_json()
    _passed(14, "even cycles and hypercubes harmonic even with rc == rad - 1 "
                "and d(u, v') == diam - 1; P_3 not even")


def test_criterion_15_strategy_certificates(cycles, hypercubes, hammings,
                                            johnsons, generalized_johnsons,
                                            sierpinskis, cubic, analysis_cache):
    instances = (cycles + hypercubes + hammings + johnsons
                 + generalized_johnsons + sierpinskis + cubic)
    robber_checked = 0
    for name, g, rc in instances:
        a = analysis_cache(name, g, rc)
        certify_cop_strategy(a)
        if rc < 1:
            continue
        robber_checked += 1
        prev = analysis_cache(name, g, rc - 1)
        robber = extract_robber_strategy(prev)
        cop = extract_cop_strategy(a)
        t = simulate(g, rc - 1, cop, robber, 4 * g.n * g.n)
        assert t.outcome == "survived", f"{name}: robber caught at k={rc - 1}"
        for step in t.steps:
            if step.mover == "robber":
                assert step.distance >= rc, f"{name}: robber too close"
            else:
                assert step.distance >= rc - 1, f"{name}: cop too close"
    _passed(15, f"cop capture certified within rank on {len(instances)} "
                f"instances; robber evasion with safe distances on "
                f"{robber_checked} of them")
