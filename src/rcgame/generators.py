"""Generators for every graph family used by the solver and its test suites.

All generators are deterministic: the same parameters (and seed, for the
random kinds) produce an identical Graph, with labels identical when read.
Each checks its order against the vertex cap before it builds anything.

Every generated family (cycles, paths, complete graphs, circulants,
Hamming, generalized Johnson and Sierpinski graphs, G(n, p)) builds its
sorted adjacency rows directly and hands Graph a function that formats its
labels on first read, so a graph that is only solved pays for neither an
edge list nor a label. A complete graph's rows, K_n's and those of the
complete J(n, k, i), are slices of one tuple of 0..n-1; a J(n, k, i) that
the intersection sizes force to be edgeless or complete tests no pair of
subsets. Only the named instance, whose edges are fixed data, goes through
build_graph.
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
    """Parameter container for one family instance."""

    kind: str
    params: tuple
    seed: int | None = None


def check_cap(n_vertices) -> None:
    """Raise SizeGuard when a graph on n_vertices would exceed the vertex cap:
    RC_SIZE_GUARD, else DEFAULT_SIZE_GUARD, read here on each call and nowhere
    else. A power or binomial order comes as its running products, which never
    fall, so the first past the cap refuses it and the order is never built."""
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
    check_cap(n)
    if kind == "cycle":
        if n < 3:
            raise InvalidParam(f"cycle needs n >= 3, got {n}")
        return circulant(n, (1,))
    if kind == "path":
        if n < 1:
            raise InvalidParam(f"path needs n >= 1, got {n}")
        adj = tuple(tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n))
    elif kind == "complete":
        if n < 1:
            raise InvalidParam(f"complete needs n >= 1, got {n}")
        adj = _complete_rows(n)
    else:
        raise InvalidParam(f"unknown basic family {kind!r}")
    return Graph(n, adj, _index_labels(n))


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube on binary words, adjacency = one flipped bit:
    the Hamming graph H(d, 2)."""
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


# 24-vertex cubic vertex-transitive graph with radius 5; the one solver
# instance whose edge list is hard-coded rather than generated.
_CUBIC_VT_24_6_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 20), (1, 21), (2, 18), (2, 22), (3, 19),
    (3, 23), (4, 5), (4, 16), (4, 17), (5, 8), (5, 9), (6, 12), (6, 13),
    (6, 15), (7, 10), (7, 11), (7, 14), (8, 11), (8, 13), (9, 10), (9, 12),
    (10, 21), (11, 20), (12, 23), (13, 22), (14, 22), (14, 23), (15, 18),
    (15, 19), (16, 19), (16, 21), (17, 18), (17, 20),
)

NAMED_INSTANCES = ("CubicVT24_6",)


def named_instance(instance_id: str) -> Graph:
    """Hard-coded named graphs; currently only "CubicVT24_6"."""
    if instance_id == "CubicVT24_6":
        check_cap(24)
        return build_graph(24, _CUBIC_VT_24_6_EDGES, tuple(str(i) for i in range(24)))
    raise UnknownInstance(f"unknown instance {instance_id!r}")


_GNP_DRAWS = 200


def random_connected_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected (at most 200 draws);
    deterministic per seed."""
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


def _params(kind: str, params: tuple, count: int, ints: int | None = None) -> tuple:
    """params, checked to hold count values (one or more when count is 0),
    the first ints of them (all by default) integers."""
    for p in params[:ints]:
        if not isinstance(p, int):
            raise InvalidParam(f"{kind} takes integer parameters, got {p!r}")
    if len(params) != count if count else not params:
        raise InvalidParam(f"bad parameter count for {kind}: {params}")
    return params


def build_family(spec: FamilySpec) -> Graph:
    """Dispatch a FamilySpec to its generator."""
    kind, params = spec.kind, spec.params
    if kind in ("cycle", "path", "complete"):
        (n,) = _params(kind, params, 1)
        return basic_family(kind, n)
    if kind == "hypercube":
        (d,) = _params(kind, params, 1)
        return hypercube(d)
    if kind == "hamming":
        d, q = _params(kind, params, 2)
        return hamming(d, q)
    if kind == "generalized_johnson":
        n, k, i = _params(kind, params, 3)
        return generalized_johnson(n, k, i)
    if kind == "sierpinski":
        n, k = _params(kind, params, 2)
        return sierpinski(n, k)
    if kind == "circulant":
        n, *steps = _params(kind, params, 0)
        return circulant(n, steps)
    if kind == "named_instance":
        (name,) = _params(kind, params, 1, ints=0)
        return named_instance(name)
    if kind == "random_gnp_connected":
        n, p = _params(kind, params, 2, ints=1)
        if not isinstance(p, (int, float)):
            raise InvalidParam(f"{kind} takes a numeric edge probability, got {p!r}")
        if spec.seed is None:
            raise InvalidParam("random_gnp_connected requires a seed")
        return random_connected_gnp(n, p, spec.seed)
    raise InvalidParam(f"unknown family kind {kind!r}")


_SIERPINSKI4_REFERENCE_RC = {3: 5, 4: 11}


def predicted_rc(kind: str, params: tuple, rad: int | None = None):
    """Closed-form radius capture number for families that have one.

    Returns (value, note) or None. For generalized Johnson graphs the
    prediction is rad - 1 and needs the measured radius. Sierpinski base 4
    has no closed form; two small instances have known reference values.
    """
    if kind == "cycle":
        (n,) = params
        return (n // 2 - 1, "closed form n//2 - 1")
    if kind == "hypercube":
        (d,) = params
        return (d - 1, "closed form d - 1")
    if kind == "hamming":
        d, _q = params
        return (d - 1, "closed form d - 1")
    if kind == "generalized_johnson":
        if rad is None:
            return None
        return (rad - 1, "radius - 1 (generously transitive family)")
    if kind == "sierpinski":
        n, k = params
        if k == 3:
            if n >= 3:
                return (3 * 2 ** (n - 2) - 1, "closed form 3*2^(n-2) - 1")
            return (max(0, 2 ** n - 2), "radius - 1 with radius 2^n - 1")
        if k == 4 and n in _SIERPINSKI4_REFERENCE_RC:
            return (_SIERPINSKI4_REFERENCE_RC[n], f"reference value {_SIERPINSKI4_REFERENCE_RC[n]}")
    return None
