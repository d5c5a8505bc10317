"""Executable checks for the structural theorems behind the solver.

Covers retractions and capture monotonicity under them, even and harmonic
even graphs, the distance-expansion and radius-pair conditions, generous
transitivity search, and the three product theorems. Each check either
returns a verdict or a TheoremReport carrying a full counterexample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import radius_capture_number
from .errors import InvalidParam, NotARetraction, NotConnected
from .generators import DEFAULT_SIZE_GUARD
from .graph import (
    Graph,
    _bfs_row,
    all_pairs_distances,
    induced_subgraph,
    is_connected,
    radius_diameter,
)
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

    A failing report always carries a counterexample with the measured
    values that contradict the predicted relation.
    """

    theorem: str
    inputs: dict
    predicted: str
    measured: dict
    passed: bool
    counterexample: dict | None = None

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
    or to a single vertex (staying is a legal shadow move). The induced
    target must also sit isometrically inside g.
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
    sub, index = induced_subgraph(g, sorted(r.target))
    for v in sorted(r.target):
        row_sub = _bfs_row(sub.adj, sub.n, index[v])
        row_g = _bfs_row(g.adj, n, v)
        for w in sorted(r.target):
            if row_sub[index[w]] != row_g[w]:
                raise NotARetraction(
                    f"target pair ({v},{w}) at distance {row_g[w]} in the graph "
                    f"but {row_sub[index[w]]} inside the target")


def check_retract_monotonicity(g: Graph, r: Retraction) -> TheoremReport:
    """Capture number never grows when passing to a retract."""
    verify_retraction(g, r)
    if not is_connected(g):
        raise NotConnected("monotonicity check needs a connected graph")
    sub, _ = induced_subgraph(g, sorted(r.target))
    rc_g = radius_capture_number(g)
    rc_h = radius_capture_number(sub)
    passed = rc_h <= rc_g
    report = TheoremReport(
        theorem="retract-monotonicity",
        inputs={"n": g.n, "m": g.m, "target_size": len(r.target)},
        predicted="rc(retract) <= rc(graph)",
        measured={"rc_graph": rc_g, "rc_retract": rc_h},
        passed=passed,
    )
    if not passed:
        report.counterexample = {
            "edges": sorted(g.edge_set()),
            "target": sorted(r.target),
            "mapping": list(r.mapping),
            "rc_graph": rc_g,
            "rc_retract": rc_h,
        }
    return report


def corner_fold_retraction(g: Graph) -> Retraction | None:
    """Fold the first corner u (a vertex with N[u] inside some N[v]) onto
    its dominating vertex; None when the graph has no corner."""
    n = g.n
    bits = g.adj_bits
    for u in range(n):
        closed_u = bits[u] | (1 << u)
        for v in range(n):
            if v == u:
                continue
            if closed_u & ~(bits[v] | (1 << v)) == 0:
                mapping = tuple(v if x == u else x for x in range(n))
                return Retraction(frozenset(range(n)) - {u}, mapping)
    return None


def layer_projection_retraction(g: Graph, h: Graph, kind: str = "cartesian",
                                layer: int = 0,
                                size_guard: int = DEFAULT_SIZE_GUARD) -> tuple[Graph, Retraction]:
    """Product of g and h together with the projection onto the G-layer
    over the given h-vertex, which is always a retraction."""
    if not (0 <= layer < h.n):
        raise InvalidParam(f"layer {layer} outside 0..{h.n - 1}")
    prod = product(kind, g, h, size_guard)
    hn = h.n
    mapping = tuple((idx // hn) * hn + layer for idx in range(prod.n))
    target = frozenset(a * hn + layer for a in range(g.n))
    return prod, Retraction(target, mapping)


def unique_antipodes(g: Graph) -> tuple[int, ...] | None:
    """Per-vertex unique diametral antipode, or None when some vertex has
    zero or several vertices at diametral distance."""
    dm = all_pairs_distances(g)
    if not dm.connected:
        raise NotConnected("antipodes need a connected graph")
    _, diam = radius_diameter(dm)
    ant = []
    for v in range(g.n):
        far = [u for u in range(g.n) if dm.rows[v][u] == diam]
        if len(far) != 1:
            return None
        ant.append(far[0])
    return tuple(ant)


def classify_evenness(g: Graph) -> str:
    """Classify as not_even, even, or harmonic_even.

    Even: every vertex has exactly one antipode at diametral distance.
    Harmonic: the antipode map is additionally an edge-preserving
    involution.
    """
    if not is_connected(g):
        raise NotConnected("evenness is defined on connected graphs")
    ant = unique_antipodes(g)
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
    if not dm.connected:
        raise NotConnected("distance expansion needs a connected graph")
    rad, _ = radius_diameter(dm)
    if not (0 <= i <= rad):
        raise InvalidParam(f"distance {i} outside 0..rad={rad}")
    rows = dm.rows
    for x in range(g.n):
        row = rows[x]
        for y in range(g.n):
            if row[y] == i and all(row[y2] != i + 1 for y2 in g.adj[y]):
                return False
    return True


def check_radius_pair_condition(g: Graph) -> bool:
    """Sufficient condition for rc = rad - 1: for every pair x, y at
    radius distance, each closed neighbor of x still sees some closed
    neighbor of y at radius distance."""
    dm = all_pairs_distances(g)
    if not dm.connected:
        raise NotConnected("radius pair condition needs a connected graph")
    rad, _ = radius_diameter(dm)
    rows = dm.rows
    closed = g.closed
    for x in range(g.n):
        for y in range(g.n):
            if rows[x][y] != rad:
                continue
            for x2 in closed[x]:
                if all(rows[x2][y2] != rad for y2 in closed[y]):
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


def check_product_theorems(g: Graph, h: Graph,
                           size_guard: int = DEFAULT_SIZE_GUARD) -> list[TheoremReport]:
    """Check the Cartesian bounds (plus the coincidence equality), the
    strong-product equality, and the lexicographic formula on one factor
    pair. Cartesian and lexicographic checks need both factors on at
    least two vertices; the strong check applies to any connected pair.
    """
    if not is_connected(g) or not is_connected(h):
        raise NotConnected("product theorems require connected factors")
    rc_g = radius_capture_number(g)
    rc_h = radius_capture_number(h)
    rad_g, _ = radius_diameter(all_pairs_distances(g))
    rad_h, _ = radius_diameter(all_pairs_distances(h))
    inputs = {"n_g": g.n, "m_g": g.m, "n_h": h.n, "m_h": h.m,
              "rc_g": rc_g, "rc_h": rc_h, "rad_g": rad_g, "rad_h": rad_h}
    nontrivial = g.n >= 2 and h.n >= 2

    def failing(report: TheoremReport) -> TheoremReport:
        report.counterexample = {
            "edges_g": sorted(g.edge_set()),
            "edges_h": sorted(h.edge_set()),
            **report.measured,
        }
        return report

    reports = []
    if nontrivial:
        rc_cart = radius_capture_number(product("cartesian", g, h, size_guard))
        lower = rc_g + rc_h + 1
        upper = min(rad_g + rc_h, rad_h + rc_g)
        rep = TheoremReport(
            theorem="cartesian-product-bounds",
            inputs=inputs,
            predicted=f"{lower} <= rc <= {upper}",
            measured={"rc_cartesian": rc_cart},
            passed=lower <= rc_cart <= upper,
        )
        reports.append(rep if rep.passed else failing(rep))
        if rc_g == rad_g - 1 or rc_h == rad_h - 1:
            rep = TheoremReport(
                theorem="cartesian-product-coincidence",
                inputs=inputs,
                predicted=f"rc == {lower}",
                measured={"rc_cartesian": rc_cart},
                passed=rc_cart == lower,
            )
            reports.append(rep if rep.passed else failing(rep))
    rc_strong = radius_capture_number(product("strong", g, h, size_guard))
    rep = TheoremReport(
        theorem="strong-product-value",
        inputs=inputs,
        predicted=f"rc == max({rc_g},{rc_h})",
        measured={"rc_strong": rc_strong},
        passed=rc_strong == max(rc_g, rc_h),
    )
    reports.append(rep if rep.passed else failing(rep))
    if nontrivial:
        rc_lex = radius_capture_number(product("lexicographic", g, h, size_guard))
        expected = rc_g if rc_g >= 1 else min(1, rc_h)
        rep = TheoremReport(
            theorem="lexicographic-product-value",
            inputs=inputs,
            predicted=f"rc == {expected}",
            measured={"rc_lexicographic": rc_lex},
            passed=rc_lex == expected,
        )
        reports.append(rep if rep.passed else failing(rep))
    return reports
