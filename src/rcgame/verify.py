"""Executable checks for the structural theorems behind the solver, and
the suites that drive them over generated graphs.

Covers retractions and capture monotonicity under them, even and harmonic
even graphs, the distance-expansion and radius-pair conditions, the three
product theorems, the girth/radius bounds and the outerplanar face
formula. Each check either returns a verdict or a TheoremReport carrying
a full counterexample, and one that needs a graph's rad and rc together
reads both from one engine.capture_radii call. The suites of `rcgame
verify` are the rows of SUITES, their one list; run_suite runs one by name
and returns its output lines and failing reports.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .engine import capture_radii, corner_folds, radius_capture_number, solve_cwrc
from .errors import InvalidParam, NotARetraction, NotConnected
from .generators import (
    FamilySpec,
    basic_family,
    build_family,
    circulant,
    generalized_johnson,
    hypercube,
    named_instance,
    predicted_rc,
    random_connected_gnp,
)
from .graph import (
    Graph,
    all_pairs_distances,
    build_graph,
    girth,
    induced_subgraph,
)
from .outerplanar import polygon_chords, random_outerplanar, rc_outerplanar_formula
from .products import product

NOT_EVEN = "not_even"
EVEN = "even"
HARMONIC_EVEN = "harmonic_even"


class Retraction(NamedTuple):
    """Total map of V(G) onto a vertex set it fixes pointwise.

    mapping[v] is the image of v; target, the retract's vertex set, is the
    image of the map.
    """

    mapping: tuple[int, ...]

    @property
    def target(self) -> frozenset[int]:
        return frozenset(self.mapping)


class TheoremReport(NamedTuple):
    """Outcome of one theorem check on concrete inputs.

    A failing report always carries a counterexample: the witness (what
    rebuilds the failing instance) followed by the measured values that
    contradict the predicted relation. A passing report carries None.
    """

    theorem: str
    inputs: dict
    predicted: str
    measured: dict
    passed: bool
    counterexample: dict | None = None

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def _report(theorem: str, inputs: dict, predicted: str, measured: dict,
            passed: bool, witness: dict) -> TheoremReport:
    """A report whose counterexample, when it fails, is the witness then
    the measured values."""
    return TheoremReport(theorem, inputs, predicted, measured, passed,
                         None if passed else {**witness, **measured})


def verify_retraction(g: Graph, r: Retraction) -> None:
    """Check the retraction clauses, raising NotARetraction with a witness.

    The map must send 0..n-1 into itself, fix its image, the target,
    pointwise (f(f(v)) = f(v)) and send every edge to an edge or to a
    single vertex (staying is a legal shadow move). Such a map already
    makes the induced target isometric in g: it sends a shortest path
    between two target vertices onto a walk inside the target that is no
    longer, so no distance check is needed.
    """
    n, f = g.n, r.mapping
    if len(f) != n:
        raise NotARetraction(f"mapping covers {len(f)} of {n} vertices")
    for v, fv in enumerate(f):
        if not (0 <= fv < n):
            raise NotARetraction(f"image of {v} is {fv}, outside 0..{n - 1}")
        if f[fv] != fv:
            raise NotARetraction(f"map moves target vertex {fv} to {f[fv]}")
    for u, v in g.edges():
        fu, fv = f[u], f[v]
        if fu != fv and not g.has_edge(fu, fv):
            raise NotARetraction(
                f"edge ({u},{v}) maps to non-adjacent distinct pair ({fu},{fv})")


def check_retract_monotonicity(g: Graph, r: Retraction) -> TheoremReport:
    """Capture number never grows when passing to a retract."""
    verify_retraction(g, r)
    rc_g = radius_capture_number(g)
    if rc_g is None:
        raise NotConnected("monotonicity check needs a connected graph")
    sub, _ = induced_subgraph(g, r.mapping)
    rc_h = radius_capture_number(sub)
    return _report("retract-monotonicity",
                   {"n": g.n, "m": g.m, "target_size": sub.n},
                   "rc(retract) <= rc(graph)",
                   {"rc_graph": rc_g, "rc_retract": rc_h}, rc_h <= rc_g,
                   {"edges": list(g.edges()), "target": sorted(r.target),
                    "mapping": list(r.mapping)})


def corner_fold_retraction(g: Graph) -> Retraction | None:
    """The first fold of engine.corner_folds: the lowest corner u (a vertex
    with N[u] inside some N[v]) onto its lowest dominating neighbour v, as
    the retraction u -> v of connected g; None when g has no corner."""
    folds = corner_folds(g)[1]
    if not folds:
        return None
    u, v = folds[0]
    return Retraction(tuple(v if x == u else x for x in range(g.n)))


def layer_projection_retraction(g: Graph, h: Graph,
                                layer: int = 0) -> tuple[Graph, Retraction]:
    """Cartesian product of g and h together with the projection onto the
    G-layer over the given h-vertex, which is always a retraction."""
    if not (0 <= layer < h.n):
        raise InvalidParam(f"layer {layer} outside 0..{h.n - 1}")
    prod = product("cartesian", g, h)
    hn = h.n
    return prod, Retraction(tuple((idx // hn) * hn + layer for idx in range(prod.n)))


def _distances(g: Graph) -> tuple[list[list[int]], tuple[int, ...]]:
    """(dm, ecc) of connected g: its distance rows and their maxima, the
    eccentricities, read with no ball sweep; InvalidParam when g is empty,
    NotConnected when it is disconnected."""
    if g.n == 0:
        raise InvalidParam("empty graph has no radius")
    dm = all_pairs_distances(g)
    return dm, tuple(map(max, dm))


def _evenness(g: Graph) -> tuple[list[list[int]], int, tuple[int, ...] | None, str]:
    """(dm, diam, ant, class) of g: its distance rows, its diameter, each
    vertex's unique diametral antipode (ant None when some vertex has zero
    or several) and the class of classify_evenness."""
    dm, ecc = _distances(g)
    diam = max(ecc)
    if any(row.count(diam) != 1 for row in dm):
        return dm, diam, None, NOT_EVEN
    ant = tuple(row.index(diam) for row in dm)
    harmonic = (all(ant[ant[v]] == v for v in range(g.n))
                and all(g.has_edge(ant[u], ant[v]) for u, v in g.edges()))
    return dm, diam, ant, HARMONIC_EVEN if harmonic else EVEN


def unique_antipodes(g: Graph) -> tuple[int, ...] | None:
    """Per-vertex unique diametral antipode, or None when some vertex has
    zero or several vertices at diametral distance."""
    return _evenness(g)[2]


def classify_evenness(g: Graph) -> str:
    """Classify as not_even, even, or harmonic_even.

    Even: every vertex has exactly one antipode at diametral distance.
    Harmonic: the antipode map is additionally an edge-preserving
    involution.
    """
    return _evenness(g)[3]


def check_distance_expansion(g: Graph, i: int) -> bool:
    """True iff every ordered pair at distance i admits a robber step that
    grows the distance to i + 1 (a neighbor of the second vertex at
    distance i + 1 from the first)."""
    dm, ecc = _distances(g)
    rad = min(ecc)
    if not (0 <= i <= rad):
        raise InvalidParam(f"distance {i} outside 0..rad={rad}")
    for x in range(g.n):
        row = dm[x]
        for y in range(g.n):
            if row[y] == i and all(row[y2] != i + 1 for y2 in g.adj[y]):
                return False
    return True


def check_radius_pair_condition(g: Graph) -> bool:
    """Sufficient condition for rc = rad - 1: for every pair x, y at
    radius distance, each closed neighbor of x still sees some closed
    neighbor of y at radius distance."""
    dm, ecc = _distances(g)
    rad = min(ecc)
    adj = g.adj
    for x in range(g.n):
        for y in range(g.n):
            if dm[x][y] != rad:
                continue
            for x2 in (x, *adj[x]):
                if all(dm[x2][y2] != rad for y2 in (y, *adj[y])):
                    return False
    return True


def check_product_theorems(g: Graph, h: Graph) -> list[TheoremReport]:
    """Check the Cartesian bounds (plus the coincidence equality), the
    strong-product equality, and the lexicographic formula on one factor
    pair. Cartesian and lexicographic checks need both factors on at
    least two vertices; the strong check applies to any connected pair.
    """
    radii_g, radii_h = capture_radii(g), capture_radii(h)
    if radii_g is None or radii_h is None:
        raise NotConnected("product theorems require connected factors")
    (rad_g, _, rc_g), (rad_h, _, rc_h) = radii_g, radii_h
    inputs = {"n_g": g.n, "m_g": g.m, "n_h": h.n, "m_h": h.m,
              "rc_g": rc_g, "rc_h": rc_h, "rad_g": rad_g, "rad_h": rad_h}
    witness = {"edges_g": list(g.edges()), "edges_h": list(h.edges())}
    nontrivial = g.n >= 2 and h.n >= 2
    checks = []
    if nontrivial:
        rc_cart = radius_capture_number(product("cartesian", g, h))
        lower = rc_g + rc_h + 1
        upper = min(rad_g + rc_h, rad_h + rc_g)
        checks.append(("cartesian-product-bounds", f"{lower} <= rc <= {upper}",
                       {"rc_cartesian": rc_cart}, lower <= rc_cart <= upper))
        if rc_g == rad_g - 1 or rc_h == rad_h - 1:
            checks.append(("cartesian-product-coincidence", f"rc == {lower}",
                           {"rc_cartesian": rc_cart}, rc_cart == lower))
    rc_strong = radius_capture_number(product("strong", g, h))
    checks.append(("strong-product-value", f"rc == max({rc_g},{rc_h})",
                   {"rc_strong": rc_strong}, rc_strong == max(rc_g, rc_h)))
    if nontrivial:
        rc_lex = radius_capture_number(product("lexicographic", g, h))
        expected = rc_g if rc_g >= 1 else min(1, rc_h)
        checks.append(("lexicographic-product-value", f"rc == {expected}",
                       {"rc_lexicographic": rc_lex}, rc_lex == expected))
    return [_report(theorem, inputs, predicted, measured, passed, witness)
            for theorem, predicted, measured, passed in checks]


# ---------------------------------------------------------------------------
# suites: each drives one group of checks over generated graphs


def _random_connected(rng: random.Random, max_n: int) -> Graph:
    n = rng.randint(2, max_n)
    p = rng.uniform(0.2, 0.8)
    return random_connected_gnp(n, p, rng.getrandbits(32))


class _Tally:
    """Pass counters plus counterexample reports, keyed by theorem id, and
    report-only rows printed before the pass lines."""

    def __init__(self):
        self.rows: list[str] = []
        self.passes: dict[str, int] = {}
        self.totals: dict[str, int] = {}
        self.failures: list[TheoremReport] = []

    def add(self, report: TheoremReport) -> None:
        self.totals[report.theorem] = self.totals.get(report.theorem, 0) + 1
        if report.passed:
            self.passes[report.theorem] = self.passes.get(report.theorem, 0) + 1
        else:
            self.failures.append(report)

    def record(self, theorem: str, passed: bool, inputs: dict, predicted: str,
               measured: dict) -> None:
        self.add(_report(theorem, inputs, predicted, measured, passed, inputs))

    def lines(self) -> list[str]:
        return self.rows + [f"{tid}: {self.passes.get(tid, 0)}/{self.totals[tid]} pass"
                            for tid in sorted(self.totals)]


def suite_bounds(trials: int, seed: int, max_n: int) -> _Tally:
    """Radius upper bound and girth lower bound on random connected graphs.

    capture_radii starts its search at the radius bound, so its rc cannot
    exceed it: the bound is checked by a solve of its own at
    max(rad - 1, 0), and the girth bound on the search's rc.
    """
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_connected(rng, max_n)
        rad, _, rc = capture_radii(g)
        gir = girth(g)
        inputs = {"n": g.n, "m": g.m, "rad": rad, "girth": gir,
                  "edges": list(g.edges())}
        won = solve_cwrc(g, max(rad - 1, 0)).is_cop_win
        tally.record("radius-upper-bound", won, inputs,
                     "rc <= rad - 1", {"cop_win_at_bound": won})
        tally.record("girth-lower-bound", rc >= max(0, gir // 2 - 1), inputs,
                     "rc >= girth//2 - 1", {"rc": rc})
    return tally


def suite_retracts(trials: int, seed: int, max_n: int) -> _Tally:
    """Capture monotonicity under corner folds and layer projections, and
    equality under corner folds.

    A corner fold u -> v (N[u] inside N[v]) keeps rc: rc(G - u) = rc(G).
    The monotonicity check gives <=, G - u being a retract. For >=, let H
    = G - u with the fold f as retraction; H is isometric in G. The cop
    plays a winning radius-k strategy of H against the robber's shadow
    f(r), which moves along H's edges or stays, since N(u) lies inside
    N[v]. When the shadow is caught, d(c, f(r)) <= k; if r != u the robber
    is caught. If r = u, then d(c, u) <= k + 1: with the cop to move it
    steps toward u and catches the robber; with the robber to move it goes
    to some w in N[u], inside N[v], so d(c, w) <= k + 1, and the cop's next
    step catches it. The equality line reads both rc off the monotonicity
    report, with no solve of its own.
    """
    rng = random.Random(seed)
    tally = _Tally()
    for t in range(trials):
        if t % 2 == 0:
            # append a vertex dominated by v so a corner fold always exists
            base = _random_connected(rng, max_n - 1)
            v = rng.randrange(base.n)
            extra = [u for u in base.adj[v] if rng.random() < 0.5]
            edges = list(base.edges()) + [(base.n, v)] + [(base.n, u) for u in extra]
            g = build_graph(base.n + 1, edges)
            retr = corner_fold_retraction(g)
            report = check_retract_monotonicity(g, retr)
            tally.add(report)
            rcs = report.measured
            tally.record("corner-fold-equality", rcs["rc_retract"] == rcs["rc_graph"],
                         {**report.inputs, "edges": list(g.edges()),
                          "mapping": list(retr.mapping)},
                         "rc(retract) == rc(graph)", rcs)
        else:
            f1 = _random_connected(rng, 5)
            f2 = _random_connected(rng, 5)
            prod, retr = layer_projection_retraction(f1, f2, rng.randrange(f2.n))
            tally.add(check_retract_monotonicity(prod, retr))
    return tally


def _evenness_instance_checks(name: str, g: Graph, tally: _Tally,
                              expected: str | None = None) -> None:
    """The evenness checks on g from one distance table and one antipode
    scan; only a harmonic-even g sweeps its balls, for rad and rc."""
    dm, diam, ant, cls = _evenness(g)
    if expected is not None:
        tally.record("evenness-classification", cls == expected,
                     {"instance": name}, f"class == {expected}", {"class": cls})
    if cls in (EVEN, HARMONIC_EVEN):
        ok = all(dm[u][ant[v]] == diam - 1 for u, v in g.edges())
        tally.record("even-antipode-distance", ok, {"instance": name},
                     "d(u, v') == diam - 1 for every edge uv", {"class": cls})
        if cls == HARMONIC_EVEN:
            rad, _, rc = capture_radii(g)
            tally.record("harmonic-even-capture", rc == rad - 1,
                         {"instance": name, "rad": rad}, "rc == rad - 1", {"rc": rc})


def suite_evenness(trials: int, seed: int, max_n: int) -> _Tally:
    """Evenness classification on known families plus random graphs."""
    tally = _Tally()
    _evenness_instance_checks("P_3", basic_family("path", 3), tally, "not_even")
    for n in range(4, 14, 2):
        _evenness_instance_checks(f"C_{n}", basic_family("cycle", n), tally,
                                  HARMONIC_EVEN)
    for n in range(5, 12, 2):
        _evenness_instance_checks(f"C_{n}", basic_family("cycle", n), tally,
                                  "not_even")
    for d in range(1, 5):
        _evenness_instance_checks(f"Q_{d}", hypercube(d), tally, HARMONIC_EVEN)
    rng = random.Random(seed)
    for t in range(trials):
        g = _random_connected(rng, max_n)
        _evenness_instance_checks(f"random-{t}", g, tally)
    return tally


def suite_products(trials: int, seed: int, max_n: int) -> _Tally:
    """The three product theorems on random connected factor pairs of at
    most 8 vertices each; max_n is not read."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_connected(rng, 8)
        h = _random_connected(rng, 8)
        for report in check_product_theorems(g, h):
            tally.add(report)
    return tally


def suite_outerplanar(trials: int, seed: int, max_n: int) -> _Tally:
    """Solver capture number against the largest-inner-face formula."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        n = rng.randint(3, max_n)
        prob = rng.uniform(0.0, 0.9)
        g = random_outerplanar(n, prob, rng.getrandbits(32))
        predicted = rc_outerplanar_formula(g)
        rc = radius_capture_number(g)
        tally.record("outerplanar-face-formula", rc == predicted,
                     {"n": n, "chords": polygon_chords(g)},
                     "rc == max_face//2 - 1",
                     {"rc": rc, "predicted": predicted})
    return tally


def suite_families(trials: int, seed: int, max_n: int) -> _Tally:
    """Closed-form capture numbers across the generated families, against
    generators.predicted_rc (the table `rcgame family` prints) except for
    the literal Johnson k - 1 line and the named instance. capture_radii
    answers a cycle by the closed form itself, so the cycle line decides
    rc with two solves instead: the cop wins at n//2 - 1 and, from C_4 on,
    loses at n//2 - 2. Nothing is drawn, so trials, seed and max_n are not
    read."""
    tally = _Tally()

    def expect(tid: str, name: str, rc: int, expected_rc: int) -> None:
        tally.record(tid, rc == expected_rc, {"instance": name},
                     f"rc == {expected_rc}", {"rc": rc})

    def expect_family(tid: str, name: str, kind: str, *params) -> None:
        radii = capture_radii(build_family(FamilySpec(kind, params)))
        if radii is not None:
            rad, _, rc = radii
            expect(tid, name, rc, predicted_rc(kind, params, rad)[0])

    for n in range(3, 13):
        g = build_family(FamilySpec("cycle", (n,)))
        rc = predicted_rc("cycle", (n,))[0]
        won = solve_cwrc(g, rc).is_cop_win
        lost = rc == 0 or not solve_cwrc(g, rc - 1).is_cop_win
        tally.record("cycle-closed-form", won and lost, {"instance": f"C_{n}"},
                     f"rc == {rc}", {"cop_wins_at_rc": won, "cop_loses_below": lost})
    for d in range(1, 5):
        expect_family("hypercube-closed-form", f"Q_{d}", "hypercube", d)
    for d, q in ((2, 3), (2, 4)):
        expect_family("hamming-closed-form", f"H({d},{q})", "hamming", d, q)
    for n, k in ((4, 2), (5, 2)):
        expect("johnson-closed-form", f"J({n},{k})",
               radius_capture_number(generalized_johnson(n, k, k - 1)), k - 1)
    for n, k, i in ((5, 2, 0), (6, 2, 0), (5, 3, 1), (6, 2, 1)):
        expect_family("generalized-johnson-radius", f"J({n},{k},{i})",
                      "generalized_johnson", n, k, i)
    for n in range(1, 4):
        expect_family("sierpinski3-closed-form", f"S({n},3)", "sierpinski", n, 3)
    expect_family("sierpinski4-reference", "S(3,4)", "sierpinski", 3, 4)
    rad, _, rc = capture_radii(named_instance("CubicVT24_6"))
    tally.record("named-instance-values", rad == 5,
                 {"instance": "CubicVT24_6"}, "rad == 5", {"rad": rad})
    expect("named-instance-values", "CubicVT24_6", rc, 3)
    return tally


def suite_transitive_sweep(trials: int, seed: int, max_n: int) -> _Tally:
    """Report capture number against rad/2 for small circulants and the
    hard-coded cubic instance: exploratory rows with no verdict. Nothing
    is drawn, so trials, seed and max_n are not read."""
    tally = _Tally()
    tally.rows.append("instance rad rc rad/2 rc>=rad/2")
    instances: list[tuple[str, Graph]] = []
    for n in range(5, 11):
        steps_pool = list(range(1, n // 2 + 1))
        for mask in range(1, 1 << len(steps_pool)):
            steps = [s for b, s in enumerate(steps_pool) if (mask >> b) & 1]
            instances.append((f"circulant-{n}-{'.'.join(map(str, steps))}",
                              circulant(n, steps)))
    instances.append(("CubicVT24_6", named_instance("CubicVT24_6")))
    for name, g in instances:
        radii = capture_radii(g)
        if radii is None:
            continue
        rad, _, rc = radii
        tally.rows.append(f"{name} {rad} {rc} {rad / 2:g} "
                          f"{'yes' if rc >= rad / 2 else 'no'}")
    return tally


# every suite of `rcgame verify`: name -> (runner, default trials, least
# max_n its draws accept, None where max_n is not read); a runner takes
# (trials, seed, max_n) and returns a _Tally
SUITES = {
    "bounds": (suite_bounds, 200, 2),
    "retracts": (suite_retracts, 100, 3),
    "evenness": (suite_evenness, 50, 2),
    "products": (suite_products, 50, None),
    "outerplanar": (suite_outerplanar, 200, 3),
    "families": (suite_families, 0, None),
    "transitive-sweep": (suite_transitive_sweep, 0, None),
}


def run_suite(name: str, trials: int | None, seed: int,
              max_n: int) -> tuple[list[str], list[TheoremReport]]:
    """Run the SUITES row of that name and return its output lines and
    failing reports; trials None takes the row's default. An unknown name
    (listing the suites), a negative trials or a max_n below the row's
    least raises InvalidParam."""
    if name not in SUITES:
        raise InvalidParam(f"unknown suite {name!r}; the suites are {', '.join(SUITES)}")
    runner, default_trials, least_n = SUITES[name]
    if trials is not None and trials < 0:
        raise InvalidParam(f"trials must be >= 0, got {trials}")
    if least_n is not None and max_n < least_n:
        raise InvalidParam(f"max_n must be >= {least_n} for the {name} suite, "
                           f"got {max_n}")
    tally = runner(default_trials if trials is None else trials, seed, max_n)
    return tally.lines(), tally.failures
