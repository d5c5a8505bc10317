"""Generators for every graph family used by the solver and its test
suites, and FAMILIES, the one table of family kinds: a kind's row holds its
generator, its parameter shape and its closed-form rc, and build_family and
predicted_rc each read that row.

All generators are deterministic: the same parameters (and seed, for the
random kinds) produce an identical Graph, with labels identical when read.
Each refuses a non-integer order or count with InvalidParam, then checks
its order against the vertex cap before it builds anything.
Each builds its sorted adjacency rows directly and hands Graph a function
that formats its labels on first read, so a graph that is only solved pays
for neither an edge list nor a label; only the named instances, whose
edges are fixed data, go through build_graph.
"""

from __future__ import annotations

import os
import random
from itertools import accumulate, combinations, product, repeat
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import CouldNotConnect, InvalidParam, SizeGuard, UnknownInstance
from .graph import Graph, build_graph, is_connected

DEFAULT_SIZE_GUARD = 65536

class FamilySpec(NamedTuple):
    """One family instance: a FAMILIES kind, its params and, for a seeded
    kind, its seed."""

    kind: str
    params: tuple
    seed: int | None = None


def check_cap(n_vertices) -> None:
    """Raise SizeGuard when a graph on n_vertices would exceed the vertex cap:
    RC_SIZE_GUARD, else DEFAULT_SIZE_GUARD, read here on each call and nowhere
    else. Every graph source (generator, product, parser, random outerplanar
    graph) calls it before it builds. A power or binomial order comes as its
    running products, which never fall, so the first past the cap refuses it
    and the order is never built."""
    raw = os.environ.get("RC_SIZE_GUARD", str(DEFAULT_SIZE_GUARD))
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidParam(f"RC_SIZE_GUARD must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InvalidParam(f"RC_SIZE_GUARD must be >= 1, got {cap}")
    exact = isinstance(n_vertices, int)
    for n in (n_vertices,) if exact else n_vertices:
        if n > cap:
            over = "" if exact else "at least "
            raise SizeGuard(f"{over}{n} vertices exceeds the cap {cap}")


def _check_ints(kind: str, *params) -> None:
    """Refuse a parameter that is not an int, before the cap check or the
    arithmetic meets it and raises a TypeError."""
    for p in params:
        if not isinstance(p, int):
            raise InvalidParam(f"{kind} takes integer parameters, got {p!r}")


def _binomials(n: int, k: int):
    """Running products C(n, 1), .., C(n, m) = C(n, k), m = min(k, n - k): rising,
    as m <= n / 2; none when k is outside 0..n, which the generator refuses."""
    c = 1
    for j in range(min(k, n - k)):
        c = c * (n - j) // (j + 1)
        yield c


def _index_labels(n: int):
    """Labels "0".."n-1", formatted on first read."""
    return lambda: map(str, range(n))


def _complete_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The adjacency rows of K_n, each sliced out of one tuple of 0..n-1."""
    r = tuple(range(n))
    return tuple(r[:v] + r[v + 1:] for v in range(n))


def basic_family(kind: str, n: int) -> Graph:
    """Cycle C_n (n >= 3), the circulant with step 1; path P_n or complete
    K_n (n >= 1)."""
    _check_ints(kind, n)
    check_cap(n)
    least = {"cycle": 3, "path": 1, "complete": 1}.get(kind)
    if least is None:
        raise InvalidParam(f"unknown basic family {kind!r}")
    if n < least:
        raise InvalidParam(f"{kind} needs n >= {least}, got {n}")
    if kind == "cycle":
        return circulant(n, (1,))
    adj = (_complete_rows(n) if kind == "complete" else
           tuple(tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n)))
    return Graph(n, adj, _index_labels(n))


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube on binary words, adjacency = one flipped bit:
    the Hamming graph H(d, 2)."""
    _check_ints("hypercube", d)
    if d < 1:
        raise InvalidParam(f"hypercube needs d >= 1, got {d}")
    return hamming(d, 2)


def _tuple_label(t: tuple[int, ...], alphabet_size: int) -> str:
    if alphabet_size <= 10:
        return "".join(str(x) for x in t)
    return ",".join(str(x) for x in t)


def hamming(d: int, q: int) -> Graph:
    """Hamming graph H(d, q): words of length d over 0..q-1, adjacency =
    differ in exactly one coordinate. Equals the d-fold Cartesian power of
    K_q under the same row-major word indexing."""
    _check_ints("hamming", d, q)
    if d < 1 or q < 2:
        raise InvalidParam(f"hamming needs d >= 1 and q >= 2, got ({d},{q})")
    check_cap(accumulate(repeat(q, d), mul))
    # word -> index is big-endian base q, matching iterated product order
    weights = [q ** t for t in range(d)]

    def row(v: int) -> tuple[int, ...]:
        digits = [v // w % q for w in weights]
        return tuple(sorted(v + (x - y) * w for w, y in zip(weights, digits)
                            for x in range(q) if x != y))
    return Graph(q ** d, tuple(map(row, range(q ** d))),
                 lambda: (_tuple_label(w, q) for w in product(range(q), repeat=d)))


def generalized_johnson(n: int, k: int, i: int) -> Graph:
    """J(n, k, i): k-subsets of {1..n}, adjacent when the intersection has
    size exactly i. May be disconnected; callers check.

    Two distinct k-subsets of an n-set share between max(0, 2k - n) and
    k - 1 points. Below that range (i < 2k - n) the graph is edgeless; when
    the range is the single value i (J(n, 1, 0) and J(n, n - 1, n - 2)) it
    is complete, and its rows are sliced as K_n's. Neither checks a pair;
    any other i tests each pair of subsets.
    """
    _check_ints("generalized_johnson", n, k, i)
    check_cap(_binomials(n, k))
    if not (n > k > i >= 0):
        raise InvalidParam(f"need n > k > i >= 0, got ({n},{k},{i})")
    if i < 2 * k - n:
        adj = ((),) * comb(n, k)
    elif max(0, 2 * k - n) == k - 1:
        adj = _complete_rows(comb(n, k))
    else:
        masks = list(map(sum, combinations([1 << x for x in range(n)], k)))
        adj = tuple(tuple([b for b, mb in enumerate(masks) if (ma & mb).bit_count() == i])
                    for ma in masks)
    return Graph(len(adj), adj, lambda: ("{" + ",".join(t) + "}"
                                         for t in combinations(map(str, range(1, n + 1)), k)))


def sierpinski(n: int, k: int) -> Graph:
    """Sierpinski graph S(n, k) on words of length n over {1..k}, indexed
    big-endian, by the local edge rule of Klavzar and Milutinovic (1997): a
    word's row holds the k - 1 words that differ from it in the last letter
    and at most one bridge u i j^m ~ u j i^m, where j^m is the word's final
    run and i != j the letter before it (an extreme word j^n has none).
    S(n, 1) and S(0, k) are one vertex, the word 1^n, built directly.
    """
    _check_ints("sierpinski", n, k)
    if n < 0 or k < 1:
        raise InvalidParam(f"sierpinski needs n >= 0 and k >= 1, got ({n},{k})")
    if k == 1 or n == 0:
        check_cap(1)
        return Graph(1, ((),), ("1" * n,))
    check_cap(accumulate(repeat(k, n), mul))

    def row(v: int) -> tuple[int, ...]:
        j = v % k
        sibs = [v - j + x for x in range(k) if x != j]
        w, m, p = v // k, 1, k          # p = k^m for the run j^m so far
        while m < n and w % k == j:
            w, m, p = w // k, m + 1, p * k
        if m == n:
            return tuple(sibs)
        i = w % k
        # i j^m -> j i^m: the letter before the run gains (j - i) k^m, and
        # the run, j (k^m - 1) / (k - 1), becomes i (k^m - 1) / (k - 1)
        bridge = v + (j - i) * (p - (p - 1) // (k - 1))
        return (*sibs, bridge) if j > i else (bridge, *sibs)
    return Graph(k ** n, tuple(map(row, range(k ** n))),
                 lambda: (_tuple_label(w, k) for w in product(range(1, k + 1), repeat=n)))


def circulant(n: int, steps) -> Graph:
    """Circulant graph: vertex j adjacent to j +- s (mod n) for each step s."""
    steps = tuple(steps)
    _check_ints("circulant", n, *steps)
    check_cap(n)
    if n < 3:
        raise InvalidParam(f"circulant needs n >= 3, got {n}")
    steps = sorted(set(steps))
    for s in steps:
        if not (1 <= s <= n // 2):
            raise InvalidParam(f"step {s} outside 1..{n // 2}")
    # a set per row, since j + n/2 and j - n/2 are one neighbour on even n
    adj = tuple(tuple(sorted({(j + t) % n for s in steps for t in (s, -s)}))
                for j in range(n))
    return Graph(n, adj, _index_labels(n))


# name -> edge list of each graph whose edges are fixed data, not generated:
# CubicVT24_6 is a 24-vertex cubic vertex-transitive graph with radius 5
NAMED_INSTANCES = {
    "CubicVT24_6": (
        (0, 1), (0, 2), (0, 3), (1, 20), (1, 21), (2, 18), (2, 22), (3, 19),
        (3, 23), (4, 5), (4, 16), (4, 17), (5, 8), (5, 9), (6, 12), (6, 13),
        (6, 15), (7, 10), (7, 11), (7, 14), (8, 11), (8, 13), (9, 10), (9, 12),
        (10, 21), (11, 20), (12, 23), (13, 22), (14, 22), (14, 23), (15, 18),
        (15, 19), (16, 19), (16, 21), (17, 18), (17, 20),
    ),
}


def named_instance(instance_id: str) -> Graph:
    """The NAMED_INSTANCES graph of that name, on vertices 0..n-1 labelled
    "0".."n-1", n one past its largest endpoint."""
    if instance_id not in NAMED_INSTANCES:
        raise UnknownInstance(f"unknown instance {instance_id!r}")
    edges = NAMED_INSTANCES[instance_id]
    n = 1 + max(map(max, edges))
    check_cap(n)
    return build_graph(n, edges, tuple(map(str, range(n))))


_GNP_DRAWS = 200


def random_connected_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected (at most 200 draws);
    deterministic per seed, so a seed of None, which would draw another
    graph on each call, is refused, as is a p that is not a number."""
    _check_ints("random_gnp_connected", n)
    if not isinstance(p, (int, float)):
        raise InvalidParam(f"random_gnp_connected takes a numeric edge probability, got {p!r}")
    if seed is None:
        raise InvalidParam("random_gnp_connected requires a seed")
    check_cap(n)
    if n < 1:
        raise InvalidParam(f"need n >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidParam(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    for _ in range(_GNP_DRAWS):
        # pairs drawn in (u, v) order, u < v, so every row fills sorted
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in combinations(range(n), 2):
            if rng.random() < p:
                rows[u].append(v)
                rows[v].append(u)
        g = Graph(n, tuple(map(tuple, rows)), _index_labels(n))
        if is_connected(g):
            return g
    raise CouldNotConnect(f"no connected sample in {_GNP_DRAWS} tries (n={n}, p={p})")


def _sierpinski_rc(params: tuple, rad):
    """rc(S(n, 3)) by the paper's closed form; reference values of S(3, 4), S(4, 4)."""
    n, k = params
    if k == 3:
        if n >= 3:
            return (3 * 2 ** (n - 2) - 1, "closed form 3*2^(n-2) - 1")
        return (max(0, 2 ** n - 2), "radius - 1 with radius 2^n - 1")
    ref = {3: 5, 4: 11}.get(n) if k == 4 else None
    return None if ref is None else (ref, f"reference value {ref}")


# every family kind of FamilySpec, `rcgame family` and `strategy --family`:
# kind -> (generator, which checks its own params' types; how many params it
# takes, 0 for one or more; whether the spec's seed follows the params; the
# closed-form rc, (params, rad) -> (value, note) or None, None where the kind
# has none)
FAMILIES = {
    "cycle": (lambda n: basic_family("cycle", n), 1, False,
              lambda p, rad: (p[0] // 2 - 1, "closed form n//2 - 1")),
    "path": (lambda n: basic_family("path", n), 1, False, None),
    "complete": (lambda n: basic_family("complete", n), 1, False, None),
    "hypercube": (hypercube, 1, False, lambda p, rad: (p[0] - 1, "closed form d - 1")),
    "hamming": (hamming, 2, False, lambda p, rad: (p[0] - 1, "closed form d - 1")),
    "generalized_johnson": (generalized_johnson, 3, False,
                            lambda p, rad: None if rad is None else
                            (rad - 1, "radius - 1 (generously transitive family)")),
    "sierpinski": (sierpinski, 2, False, _sierpinski_rc),
    "circulant": (lambda n, *steps: circulant(n, steps), 0, False, None),
    "named_instance": (named_instance, 1, False, None),
    "random_gnp_connected": (random_connected_gnp, 2, True, None),
}


def build_family(spec: FamilySpec) -> Graph:
    """Build a FamilySpec by its kind's FAMILIES row: the params counted
    against the row, then handed to its generator, which checks their
    types. An unknown kind raises InvalidParam naming every kind."""
    kind, params = spec.kind, spec.params
    if kind not in FAMILIES:
        raise InvalidParam(f"unknown family kind {kind!r}; the kinds are {', '.join(FAMILIES)}")
    make, count, seeded, _ = FAMILIES[kind]
    if len(params) != count if count else not params:
        raise InvalidParam(f"bad parameter count for {kind}: {params}")
    return make(*params, spec.seed) if seeded else make(*params)


def predicted_rc(kind: str, params: tuple, rad: int | None = None):
    """Closed-form radius capture number of a family kind, read off its
    FAMILIES row: (value, note), or None for a kind with no closed form
    or no value at these params. A generalized Johnson graph's is rad - 1,
    so it needs the measured radius."""
    rc = FAMILIES[kind][3] if kind in FAMILIES else None
    return None if rc is None else rc(params, rad)
