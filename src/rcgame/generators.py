"""Generators for every graph family used by the solver and its test suites.

All generators are deterministic: the same parameters (and seed, for the
random kinds) produce an identical Graph, including labels.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .errors import CouldNotConnect, InvalidParam, SizeGuard, UnknownInstance
from .graph import Graph, build_graph, is_connected

DEFAULT_SIZE_GUARD = 65536

@dataclass(frozen=True)
class FamilySpec:
    """Parameter container for one family instance."""

    kind: str
    params: tuple
    seed: int | None = None


def check_cap(n_vertices: int, size_guard: int) -> None:
    """Raise SizeGuard when a graph on n_vertices would exceed the vertex cap."""
    if n_vertices > size_guard:
        raise SizeGuard(f"{n_vertices} vertices exceeds the cap {size_guard}")


def basic_family(kind: str, n: int) -> Graph:
    """Cycle C_n (n >= 3), path P_n or complete K_n (n >= 1)."""
    labels = tuple(str(i) for i in range(n))
    if kind == "cycle":
        if n < 3:
            raise InvalidParam(f"cycle needs n >= 3, got {n}")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)], labels)
    if kind == "path":
        if n < 1:
            raise InvalidParam(f"path needs n >= 1, got {n}")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)], labels)
    if kind == "complete":
        if n < 1:
            raise InvalidParam(f"complete needs n >= 1, got {n}")
        return build_graph(n, list(combinations(range(n), 2)), labels)
    raise InvalidParam(f"unknown basic family {kind!r}")


def hypercube(d: int, size_guard: int = DEFAULT_SIZE_GUARD) -> Graph:
    """d-dimensional hypercube on binary words, adjacency = one flipped bit:
    the Hamming graph H(d, 2)."""
    if d < 1:
        raise InvalidParam(f"hypercube needs d >= 1, got {d}")
    return hamming(d, 2, size_guard)


def _tuple_label(t: tuple[int, ...], alphabet_size: int) -> str:
    if alphabet_size <= 10:
        return "".join(str(x) for x in t)
    return ",".join(str(x) for x in t)


def hamming(d: int, q: int, size_guard: int = DEFAULT_SIZE_GUARD) -> Graph:
    """Hamming graph H(d, q): words of length d over 0..q-1, adjacency =
    differ in exactly one coordinate. Equals the d-fold Cartesian power of
    K_q under the same row-major word indexing."""
    if d < 1 or q < 2:
        raise InvalidParam(f"hamming needs d >= 1 and q >= 2, got ({d},{q})")
    n = q ** d
    check_cap(n, size_guard)
    # word -> index is big-endian base q, matching iterated product order
    edges = []
    for v in range(n):
        weight = 1
        for _ in range(d):
            digit = (v // weight) % q
            for other in range(digit + 1, q):
                edges.append((v, v + (other - digit) * weight))
            weight *= q
    def word(v: int) -> tuple[int, ...]:
        out = []
        for _ in range(d):
            out.append(v % q)
            v //= q
        return tuple(reversed(out))
    labels = tuple(_tuple_label(word(v), q) for v in range(n))
    return build_graph(n, edges, labels)


def generalized_johnson(n: int, k: int, i: int) -> Graph:
    """J(n, k, i): k-subsets of {1..n}, adjacent when the intersection has
    size exactly i. May be disconnected; callers check.

    Two k-subsets of an n-set share at least 2k - n points, so for
    n < 2k - i the graph is edgeless and no pair is checked.
    """
    if not (n > k > i >= 0):
        raise InvalidParam(f"need n > k > i >= 0, got ({n},{k},{i})")
    digits = [str(x) for x in range(1, n + 1)]
    labels = tuple("{" + ",".join(t) + "}" for t in combinations(digits, k))
    edges = []
    if n >= 2 * k - i:
        masks = [sum(1 << x for x in s) for s in combinations(range(1, n + 1), k)]
        edges = [(a, b) for a, ma in enumerate(masks)
                 for b in range(a + 1, len(masks)) if (ma & masks[b]).bit_count() == i]
    return build_graph(len(labels), edges, labels)


def sierpinski(n: int, k: int, size_guard: int = DEFAULT_SIZE_GUARD) -> Graph:
    """Sierpinski graph S(n, k) on words of length n over {1..k}.

    Edge set built by the recursive definition: k copies of S(n-1, k)
    prefixed by each letter, plus the connecting edges {i j^(n-1), j i^(n-1)}
    for every pair of distinct letters i, j.
    """
    if n < 0 or k < 1:
        raise InvalidParam(f"sierpinski needs n >= 0 and k >= 1, got ({n},{k})")
    check_cap(k ** n, size_guard)
    words: list[tuple[int, ...]] = [()]
    edges: list[tuple[int, int]] = []
    size = 1
    for level in range(1, n + 1):
        words = [(i,) + w for i in range(1, k + 1) for w in words]
        shifted = [(i * size + a, i * size + b) for i in range(k) for a, b in edges]
        connectors = []
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i < j:
                    # index of i j^(level-1) under the big-endian word order
                    u = (i - 1) * size + sum((j - 1) * k ** t for t in range(level - 1))
                    v = (j - 1) * size + sum((i - 1) * k ** t for t in range(level - 1))
                    connectors.append((u, v))
        edges = shifted + connectors
        size *= k
    labels = tuple(_tuple_label(w, k) for w in words)
    return build_graph(size, edges, labels)


def circulant(n: int, steps) -> Graph:
    """Circulant graph: vertex j adjacent to j +- s (mod n) for each step s."""
    if n < 3:
        raise InvalidParam(f"circulant needs n >= 3, got {n}")
    steps = sorted(set(steps))
    for s in steps:
        if not (1 <= s <= n // 2):
            raise InvalidParam(f"step {s} outside 1..{n // 2}")
    edges = [(j, (j + s) % n) for j in range(n) for s in steps]
    return build_graph(n, edges, tuple(str(i) for i in range(n)))


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
        return build_graph(24, _CUBIC_VT_24_6_EDGES, tuple(str(i) for i in range(24)))
    raise UnknownInstance(f"unknown instance {instance_id!r}")


_GNP_DRAWS = 200


def random_connected_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected (at most 200 draws);
    deterministic per seed."""
    if n < 1:
        raise InvalidParam(f"need n >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidParam(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    for _ in range(_GNP_DRAWS):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = build_graph(n, edges, tuple(str(i) for i in range(n)))
        if is_connected(g):
            return g
    raise CouldNotConnect(f"no connected sample in {_GNP_DRAWS} tries (n={n}, p={p})")


def _ints(kind: str, params: tuple) -> tuple:
    for p in params:
        if not isinstance(p, int):
            raise InvalidParam(f"{kind} takes integer parameters, got {p!r}")
    return params


def build_family(spec: FamilySpec, size_guard: int = DEFAULT_SIZE_GUARD) -> Graph:
    """Dispatch a FamilySpec to its generator."""
    kind, params = spec.kind, spec.params
    try:
        if kind in ("cycle", "path", "complete"):
            (n,) = _ints(kind, params)
            check_cap(n, size_guard)
            return basic_family(kind, n)
        if kind == "hypercube":
            (d,) = _ints(kind, params)
            return hypercube(d, size_guard)
        if kind == "hamming":
            d, q = _ints(kind, params)
            return hamming(d, q, size_guard)
        if kind == "generalized_johnson":
            n, k, i = _ints(kind, params)
            _guard_binomial(n, k, size_guard)
            return generalized_johnson(n, k, i)
        if kind == "sierpinski":
            n, k = _ints(kind, params)
            return sierpinski(n, k, size_guard)
        if kind == "circulant":
            n, *steps = _ints(kind, params)
            check_cap(n, size_guard)
            return circulant(n, steps)
        if kind == "named_instance":
            (name,) = params
            g = named_instance(name)   # hard-coded and small, so checked once built
            check_cap(g.n, size_guard)
            return g
        if kind == "random_gnp_connected":
            n, p = params
            _ints(kind, (n,))
            if not isinstance(p, (int, float)):
                raise InvalidParam(f"{kind} takes a numeric edge probability, got {p!r}")
            if spec.seed is None:
                raise InvalidParam("random_gnp_connected requires a seed")
            check_cap(n, size_guard)
            return random_connected_gnp(n, p, spec.seed)
    except ValueError as exc:
        raise InvalidParam(f"bad parameter count for {kind}: {params}") from exc
    raise InvalidParam(f"unknown family kind {kind!r}")


def _guard_binomial(n: int, k: int, size_guard: int) -> None:
    if 0 <= k <= n:
        check_cap(math.comb(n, k), size_guard)


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
