"""Executable checks for the structural theorems behind the solver, and
the suites that drive them over generated graphs.

Covers retractions and capture monotonicity under them, even and harmonic
even graphs, the distance-expansion and radius-pair conditions, generous
transitivity search, the three product theorems, the girth/radius bounds
and the outerplanar face formula. Each check either returns a verdict or a
TheoremReport carrying a full counterexample; run_suite runs one suite by
name and returns its pass lines and failing reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import InitVar, dataclass, field

from .engine import radius_capture_number
from .errors import InvalidParam, NotARetraction, NotConnected
from .generators import (
    basic_family,
    circulant,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    random_connected_gnp,
    sierpinski,
)
from .graph import (
    Graph,
    _bfs_row,
    all_pairs_distances,
    build_graph,
    eccentricities,
    girth,
    induced_subgraph,
    is_connected,
)
from .outerplanar import random_outerplanar, rc_outerplanar_formula, validate_embedding
from .products import product

NOT_EVEN = "not_even"
EVEN = "even"
HARMONIC_EVEN = "harmonic_even"


@dataclass(frozen=True)
class Retraction:
    """Total map of V(G) onto a vertex set it fixes pointwise.

    mapping[v] is the image of v; target is the retract's vertex set.
    """

    target: frozenset[int]
    mapping: tuple[int, ...]


@dataclass
class TheoremReport:
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
    witness: InitVar[dict]
    counterexample: dict | None = field(init=False, default=None)

    def __post_init__(self, witness: dict) -> None:
        if not self.passed:
            self.counterexample = {**witness, **self.measured}

    def to_json(self) -> str:
        return json.dumps({
            "theorem": self.theorem,
            "inputs": self.inputs,
            "predicted": self.predicted,
            "measured": self.measured,
            "passed": self.passed,
            "counterexample": self.counterexample,
        })


def verify_retraction(g: Graph, r: Retraction) -> None:
    """Check the retraction clauses, raising NotARetraction with a witness.

    The map must fix the target pointwise and send every edge to an edge
    or to a single vertex (staying is a legal shadow move). Such a map
    already makes the induced target isometric in g: it sends a shortest
    path between two target vertices onto a walk inside the target that is
    no longer, so no distance check is needed.
    """
    n = g.n
    if not r.target:
        raise NotARetraction("target set is empty")
    if len(r.mapping) != n:
        raise NotARetraction(f"mapping covers {len(r.mapping)} of {n} vertices")
    for v in r.target:
        if not (0 <= v < n):
            raise NotARetraction(f"target vertex {v} outside 0..{n - 1}")
        if r.mapping[v] != v:
            raise NotARetraction(f"map moves target vertex {v} to {r.mapping[v]}")
    for v in range(n):
        if r.mapping[v] not in r.target:
            raise NotARetraction(f"image of {v} is {r.mapping[v]}, not in the target")
    for u, v in g.edges():
        fu, fv = r.mapping[u], r.mapping[v]
        if fu != fv and not g.has_edge(fu, fv):
            raise NotARetraction(
                f"edge ({u},{v}) maps to non-adjacent distinct pair ({fu},{fv})")


def check_retract_monotonicity(g: Graph, r: Retraction) -> TheoremReport:
    """Capture number never grows when passing to a retract."""
    verify_retraction(g, r)
    if not is_connected(g):
        raise NotConnected("monotonicity check needs a connected graph")
    sub, _ = induced_subgraph(g, sorted(r.target))
    rc_g = radius_capture_number(g)
    rc_h = radius_capture_number(sub)
    return TheoremReport(
        theorem="retract-monotonicity",
        inputs={"n": g.n, "m": g.m, "target_size": len(r.target)},
        predicted="rc(retract) <= rc(graph)",
        measured={"rc_graph": rc_g, "rc_retract": rc_h},
        passed=rc_h <= rc_g,
        witness={"edges": sorted(g.edge_set()), "target": sorted(r.target),
                 "mapping": list(r.mapping)},
    )


def corner_fold_retraction(g: Graph) -> Retraction | None:
    """Fold the first corner u (a vertex with N[u] inside some N[v]) onto
    its dominating vertex; None when the graph has no corner."""
    n = g.n
    closed = g.closed_bits
    for u in range(n):
        for v in range(n):
            if v != u and closed[u] & ~closed[v] == 0:
                mapping = tuple(v if x == u else x for x in range(n))
                return Retraction(frozenset(range(n)) - {u}, mapping)
    return None


def layer_projection_retraction(g: Graph, h: Graph,
                                layer: int = 0) -> tuple[Graph, Retraction]:
    """Cartesian product of g and h together with the projection onto the
    G-layer over the given h-vertex, which is always a retraction."""
    if not (0 <= layer < h.n):
        raise InvalidParam(f"layer {layer} outside 0..{h.n - 1}")
    prod = product("cartesian", g, h)
    hn = h.n
    mapping = tuple((idx // hn) * hn + layer for idx in range(prod.n))
    target = frozenset(a * hn + layer for a in range(g.n))
    return prod, Retraction(target, mapping)


def _rad_diam(dm: list[list[int]]) -> tuple[int, int]:
    """rad and diam of a graph from its distance rows, whose maxima are the
    eccentricities."""
    if not dm:
        raise InvalidParam("empty graph has no radius")
    ecc = [max(row) for row in dm]
    return min(ecc), max(ecc)


def unique_antipodes(g: Graph,
                     dm: list[list[int]] | None = None) -> tuple[int, ...] | None:
    """Per-vertex unique diametral antipode, or None when some vertex has
    zero or several vertices at diametral distance. dm, when given, holds
    g's pair distances."""
    if dm is None:
        dm = all_pairs_distances(g)
    _, diam = _rad_diam(dm)
    ant = []
    for v in range(g.n):
        far = [u for u in range(g.n) if dm[v][u] == diam]
        if len(far) != 1:
            return None
        ant.append(far[0])
    return tuple(ant)


def classify_evenness(g: Graph, dm: list[list[int]] | None = None) -> str:
    """Classify as not_even, even, or harmonic_even.

    Even: every vertex has exactly one antipode at diametral distance.
    Harmonic: the antipode map is additionally an edge-preserving
    involution. dm, when given, holds g's pair distances.
    """
    if dm is None:
        dm = all_pairs_distances(g)
    ant = unique_antipodes(g, dm)
    if ant is None:
        return NOT_EVEN
    if any(ant[ant[v]] != v for v in range(g.n)):
        return EVEN
    if all(g.has_edge(ant[u], ant[v]) for u, v in g.edges()):
        return HARMONIC_EVEN
    return EVEN


def check_distance_expansion(g: Graph, i: int) -> bool:
    """True iff every ordered pair at distance i admits a robber step that
    grows the distance to i + 1 (a neighbor of the second vertex at
    distance i + 1 from the first)."""
    dm = all_pairs_distances(g)
    rad, _ = _rad_diam(dm)
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
    dm = all_pairs_distances(g)
    rad, _ = _rad_diam(dm)
    closed = g.closed
    for x in range(g.n):
        for y in range(g.n):
            if dm[x][y] != rad:
                continue
            for x2 in closed[x]:
                if all(dm[x2][y2] != rad for y2 in closed[y]):
                    return False
    return True


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left


def _swap_automorphism_exists(g: Graph, dist: list[list[int]],
                              signature: list, u: int, v: int,
                              budget: _Budget) -> bool | None:
    """Backtracking search for an automorphism exchanging u and v.

    Prunes on degree/distance-profile signatures and on distances to the
    two swapped vertices. Returns None when the expansion budget runs out.
    """
    n = g.n
    if signature[u] != signature[v]:
        return False
    mapping = [-1] * n
    used = [False] * n
    mapping[u], mapping[v] = v, u
    used[u] = used[v] = True
    order = [x for x in sorted(range(n), key=lambda x: (dist[u][x], x))
             if x not in (u, v)]
    bits = g.adj_bits
    # x can only map to a c with (d(c, u), d(c, v)) == (d(x, v), d(x, u));
    # each pool keeps its candidates in increasing vertex order
    by_key: dict[tuple[int, int], list[int]] = {}
    for c in range(n):
        by_key.setdefault((dist[c][u], dist[c][v]), []).append(c)
    pools = [by_key.get((dist[x][v], dist[x][u]), []) for x in order]
    # depth-first with an explicit stack: nxt[d] is the position in
    # pools[d] of the next candidate image to try for order[d]
    nxt = [0] * len(order)
    depth = 0
    while depth < len(order):
        x = order[depth]
        pool = pools[depth]
        for j in range(nxt[depth], len(pool)):
            cand = pool[j]
            if (not used[cand] and signature[cand] == signature[x]
                    and all(((bits[x] >> y) & 1) == ((bits[cand] >> mapping[y]) & 1)
                            for y in order[:depth])
                    and ((bits[x] >> u) & 1) == ((bits[cand] >> v) & 1)
                    and ((bits[x] >> v) & 1) == ((bits[cand] >> u) & 1)):
                break
        else:
            if depth == 0:
                return False
            depth -= 1
            y = order[depth]
            used[mapping[y]] = False
            mapping[y] = -1
            continue
        budget.left -= 1
        if budget.left < 0:
            return None
        mapping[x] = cand
        used[cand] = True
        nxt[depth] = j + 1
        depth += 1
        if depth < len(order):
            nxt[depth] = 0
    return True


def is_generously_transitive(g: Graph, budget: int = 500000) -> bool | None:
    """True when every vertex pair admits a swapping automorphism, False
    when some pair provably does not, None (unknown) when the budget of
    node expansions runs out first. Intended for small graphs."""
    n = g.n
    dist = [_bfs_row(g.adj, n, s) for s in range(n)]
    signature = [tuple(sorted(dist[v])) for v in range(n)]
    b = _Budget(budget)
    for u in range(n):
        for v in range(u + 1, n):
            found = _swap_automorphism_exists(g, dist, signature, u, v, b)
            if found is None:
                return None
            if not found:
                return False
    return True


def check_product_theorems(g: Graph, h: Graph) -> list[TheoremReport]:
    """Check the Cartesian bounds (plus the coincidence equality), the
    strong-product equality, and the lexicographic formula on one factor
    pair. Cartesian and lexicographic checks need both factors on at
    least two vertices; the strong check applies to any connected pair.
    """
    ecc_g, ecc_h = eccentricities(g), eccentricities(h)
    if ecc_g is None or ecc_h is None:
        raise NotConnected("product theorems require connected factors")
    rc_g, rc_h = radius_capture_number(g), radius_capture_number(h)
    rad_g, rad_h = min(ecc_g), min(ecc_h)
    inputs = {"n_g": g.n, "m_g": g.m, "n_h": h.n, "m_h": h.m,
              "rc_g": rc_g, "rc_h": rc_h, "rad_g": rad_g, "rad_h": rad_h}
    witness = {"edges_g": sorted(g.edge_set()), "edges_h": sorted(h.edge_set())}
    nontrivial = g.n >= 2 and h.n >= 2
    reports = []
    if nontrivial:
        rc_cart = radius_capture_number(product("cartesian", g, h))
        lower = rc_g + rc_h + 1
        upper = min(rad_g + rc_h, rad_h + rc_g)
        reports.append(TheoremReport(
            theorem="cartesian-product-bounds",
            inputs=inputs,
            predicted=f"{lower} <= rc <= {upper}",
            measured={"rc_cartesian": rc_cart},
            passed=lower <= rc_cart <= upper,
            witness=witness,
        ))
        if rc_g == rad_g - 1 or rc_h == rad_h - 1:
            reports.append(TheoremReport(
                theorem="cartesian-product-coincidence",
                inputs=inputs,
                predicted=f"rc == {lower}",
                measured={"rc_cartesian": rc_cart},
                passed=rc_cart == lower,
                witness=witness,
            ))
    rc_strong = radius_capture_number(product("strong", g, h))
    reports.append(TheoremReport(
        theorem="strong-product-value",
        inputs=inputs,
        predicted=f"rc == max({rc_g},{rc_h})",
        measured={"rc_strong": rc_strong},
        passed=rc_strong == max(rc_g, rc_h),
        witness=witness,
    ))
    if nontrivial:
        rc_lex = radius_capture_number(product("lexicographic", g, h))
        expected = rc_g if rc_g >= 1 else min(1, rc_h)
        reports.append(TheoremReport(
            theorem="lexicographic-product-value",
            inputs=inputs,
            predicted=f"rc == {expected}",
            measured={"rc_lexicographic": rc_lex},
            passed=rc_lex == expected,
            witness=witness,
        ))
    return reports


# ---------------------------------------------------------------------------
# suites: each drives one group of checks over generated graphs


def _random_connected(rng: random.Random, max_n: int) -> Graph:
    n = rng.randint(2, max_n)
    p = rng.uniform(0.2, 0.8)
    return random_connected_gnp(n, p, rng.getrandbits(32))


class _Tally:
    """Pass counters plus counterexample reports, keyed by theorem id."""

    def __init__(self):
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
        self.add(TheoremReport(theorem, inputs, predicted, measured, passed,
                               witness=inputs))

    def lines(self) -> list[str]:
        return [f"{tid}: {self.passes.get(tid, 0)}/{self.totals[tid]} pass"
                for tid in sorted(self.totals)]


def suite_bounds(trials: int, seed: int, max_n: int = 14) -> _Tally:
    """Radius upper bound and girth lower bound on random connected graphs."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_connected(rng, max_n)
        rad = min(eccentricities(g))
        gir = girth(g)
        rc = radius_capture_number(g)
        inputs = {"n": g.n, "m": g.m, "rad": rad, "girth": gir,
                  "edges": sorted(g.edge_set())}
        tally.record("radius-upper-bound", rc <= max(0, rad - 1), inputs,
                     "rc <= rad - 1", {"rc": rc})
        tally.record("girth-lower-bound", rc >= max(0, gir // 2 - 1), inputs,
                     "rc >= girth//2 - 1", {"rc": rc})
    return tally


def suite_retracts(trials: int, seed: int, max_n: int = 12) -> _Tally:
    """Capture monotonicity under corner folds and layer projections."""
    rng = random.Random(seed)
    tally = _Tally()
    for t in range(trials):
        if t % 2 == 0:
            # append a vertex dominated by v so a corner fold always exists
            base = _random_connected(rng, max_n - 1)
            v = rng.randrange(base.n)
            extra = [u for u in base.adj[v] if rng.random() < 0.5]
            edges = list(base.edge_set()) + [(base.n, v)] + [(base.n, u) for u in extra]
            g = build_graph(base.n + 1, edges)
            retr = corner_fold_retraction(g)
            tally.add(check_retract_monotonicity(g, retr))
        else:
            f1 = _random_connected(rng, 5)
            f2 = _random_connected(rng, 5)
            prod, retr = layer_projection_retraction(f1, f2, rng.randrange(f2.n))
            tally.add(check_retract_monotonicity(prod, retr))
    return tally


def _evenness_instance_checks(name: str, g: Graph, tally: _Tally,
                              expected: str | None = None) -> None:
    dm = all_pairs_distances(g)
    cls = classify_evenness(g, dm)
    if expected is not None:
        tally.record("evenness-classification", cls == expected,
                     {"instance": name}, f"class == {expected}", {"class": cls})
    if cls in (EVEN, HARMONIC_EVEN):
        rad, diam = _rad_diam(dm)
        ant = unique_antipodes(g, dm)
        ok = all(dm[u][ant[v]] == diam - 1 for u, v in g.edges())
        tally.record("even-antipode-distance", ok, {"instance": name},
                     "d(u, v') == diam - 1 for every edge uv", {"class": cls})
        if cls == HARMONIC_EVEN:
            rc = radius_capture_number(g)
            tally.record("harmonic-even-capture", rc == rad - 1,
                         {"instance": name, "rad": rad}, "rc == rad - 1", {"rc": rc})


def suite_evenness(trials: int, seed: int, max_n: int = 12) -> _Tally:
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


def suite_products(trials: int, seed: int) -> _Tally:
    """The three product theorems on random connected factor pairs."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_connected(rng, 8)
        h = _random_connected(rng, 8)
        for report in check_product_theorems(g, h):
            tally.add(report)
    return tally


def suite_outerplanar(trials: int, seed: int, max_n: int = 14) -> _Tally:
    """Solver capture number against the largest-inner-face formula."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        n = rng.randint(3, max_n)
        prob = rng.uniform(0.0, 0.9)
        g, emb = random_outerplanar(n, prob, rng.getrandbits(32))
        validate_embedding(g, emb)
        predicted = rc_outerplanar_formula(emb)
        rc = radius_capture_number(g)
        tally.record("outerplanar-face-formula", rc == predicted,
                     {"n": n, "chords": sorted(emb.chords)},
                     "rc == max_face//2 - 1",
                     {"rc": rc, "predicted": predicted})
    return tally


def suite_families() -> _Tally:
    """Closed-form capture numbers across the generated families."""
    tally = _Tally()

    def expect(tid: str, name: str, g: Graph, expected_rc: int) -> None:
        rc = radius_capture_number(g)
        tally.record(tid, rc == expected_rc, {"instance": name},
                     f"rc == {expected_rc}", {"rc": rc})

    for n in range(3, 13):
        expect("cycle-closed-form", f"C_{n}", basic_family("cycle", n), n // 2 - 1)
    for d in range(1, 5):
        expect("hypercube-closed-form", f"Q_{d}", hypercube(d), d - 1)
    for d, q in ((2, 3), (2, 4)):
        expect("hamming-closed-form", f"H({d},{q})", hamming(d, q), d - 1)
    for n, k in ((4, 2), (5, 2)):
        expect("johnson-closed-form", f"J({n},{k})",
               generalized_johnson(n, k, k - 1), k - 1)
    for n, k, i in ((5, 2, 0), (6, 2, 0), (5, 3, 1), (6, 2, 1)):
        g = generalized_johnson(n, k, i)
        ecc = eccentricities(g)
        if ecc is not None:
            expect("generalized-johnson-radius", f"J({n},{k},{i})", g, min(ecc) - 1)
    for n in range(1, 4):
        expected = 2 ** n - 2 if n < 3 else 3 * 2 ** (n - 2) - 1
        expect("sierpinski3-closed-form", f"S({n},3)", sierpinski(n, 3), expected)
    expect("sierpinski4-reference", "S(3,4)", sierpinski(3, 4), 5)
    cubic = named_instance("CubicVT24_6")
    rad = min(eccentricities(cubic))
    tally.record("named-instance-values", rad == 5,
                 {"instance": "CubicVT24_6"}, "rad == 5", {"rad": rad})
    expect("named-instance-values", "CubicVT24_6", cubic, 3)
    return tally


def transitive_sweep_lines() -> list[str]:
    """Report capture number against rad/2 for small circulants and the
    hard-coded cubic instance; exploratory output with no verdict."""
    lines = ["instance rad rc rad/2 rc>=rad/2"]
    instances: list[tuple[str, Graph]] = []
    for n in range(5, 11):
        steps_pool = list(range(1, n // 2 + 1))
        for mask in range(1, 1 << len(steps_pool)):
            steps = [s for b, s in enumerate(steps_pool) if (mask >> b) & 1]
            instances.append((f"circulant-{n}-{'.'.join(map(str, steps))}",
                              circulant(n, steps)))
    instances.append(("CubicVT24_6", named_instance("CubicVT24_6")))
    for name, g in instances:
        ecc = eccentricities(g)
        if ecc is None:
            continue
        rad = min(ecc)
        rc = radius_capture_number(g)
        lines.append(f"{name} {rad} {rc} {rad / 2:g} "
                     f"{'yes' if rc >= rad / 2 else 'no'}")
    return lines


# suites sized by max_n: (runner, default trials, least max_n its draws accept)
_SIZED_SUITES = {
    "bounds": (suite_bounds, 200, 2),
    "retracts": (suite_retracts, 100, 3),
    "evenness": (suite_evenness, 50, 2),
    "outerplanar": (suite_outerplanar, 200, 3),
}
SUITE_NAMES = ("bounds", "retracts", "evenness", "products", "outerplanar",
               "families", "transitive-sweep")


def run_suite(name: str, trials: int | None, seed: int,
              max_n: int) -> tuple[list[str], list[TheoremReport]]:
    """Run one suite by name and return its output lines and failing
    reports. trials None takes the suite's default; the products and
    families suites ignore max_n, and families and transitive-sweep also
    ignore trials and seed."""
    if trials is not None and trials < 0:
        raise InvalidParam(f"trials must be >= 0, got {trials}")
    if name == "transitive-sweep":
        return transitive_sweep_lines(), []
    if name == "families":
        tally = suite_families()
    elif name == "products":
        tally = suite_products(50 if trials is None else trials, seed)
    else:
        runner, default_trials, least_n = _SIZED_SUITES[name]
        if max_n < least_n:
            raise InvalidParam(f"max_n must be >= {least_n} for the {name} suite, "
                               f"got {max_n}")
        tally = runner(default_trials if trials is None else trials, seed, max_n)
    return tally.lines(), tally.failures
