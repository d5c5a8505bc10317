"""Cartesian, strong, and lexicographic graph products.

Vertex (a, b) of a product gets index a * |V(H)| + b (row major), so the
G-layer over h is {a * |V(H)| + h} and the H-layer over g is the block
g * |V(H)| .. g * |V(H)| + |V(H)| - 1. Layer extraction is index
arithmetic.
"""

from __future__ import annotations

from .errors import InvalidParam
from .generators import DEFAULT_SIZE_GUARD, check_cap
from .graph import Graph, build_graph

PRODUCT_KINDS = ("cartesian", "strong", "lexicographic")


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Product graph of the requested kind on V(G) x V(H).

    Edge rules: cartesian moves in exactly one coordinate along an edge;
    strong additionally moves in both; lexicographic joins any two
    vertices whose first coordinates are adjacent. The edge sets nest:
    cartesian <= strong <= lexicographic. An order above the default
    vertex cap raises SizeGuard before any edge is built.
    """
    if kind not in PRODUCT_KINDS:
        raise InvalidParam(f"unknown product kind {kind!r}")
    if g.n == 0 or h.n == 0:
        raise InvalidParam("product factors must be nonempty")
    n = g.n * h.n
    check_cap(n, DEFAULT_SIZE_GUARD)
    hn = h.n
    edges: list[tuple[int, int]] = []
    for a1, a2 in g.edges():
        if kind == "lexicographic":
            for b1 in range(hn):
                for b2 in range(hn):
                    edges.append((a1 * hn + b1, a2 * hn + b2))
        else:
            for b in range(hn):
                edges.append((a1 * hn + b, a2 * hn + b))
            if kind == "strong":
                for b1, b2 in h.edges():
                    edges.append((a1 * hn + b1, a2 * hn + b2))
                    edges.append((a1 * hn + b2, a2 * hn + b1))
    for b1, b2 in h.edges():
        for a in range(g.n):
            edges.append((a * hn + b1, a * hn + b2))
    labels = tuple(f"({g.label(a)},{h.label(b)})"
                   for a in range(g.n) for b in range(hn))
    return build_graph(n, edges, labels)
