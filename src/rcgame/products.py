"""Cartesian, strong, and lexicographic graph products.

Vertex (a, b) of a product gets index a * |V(H)| + b (row major), so the
G-layer over h is {a * |V(H)| + h} and the H-layer over g is the block
g * |V(H)| .. g * |V(H)| + |V(H)| - 1. Layer extraction is index
arithmetic, and each product is built one vertex row at a time from its
factors' rows, with its labels formatted on first read.
"""

from __future__ import annotations

from .errors import InvalidParam
from .generators import check_cap
from .graph import Graph

PRODUCT_KINDS = ("cartesian", "strong", "lexicographic")


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Product graph of the requested kind on V(G) x V(H).

    The row of (a, b) takes two kinds of step. An H-step stays in its
    layer: (a, b') for b' ~ b in H. A G-step goes to the layer of each
    a' ~ a in G and lands on {b} (cartesian), on N_H[b] (strong) or on all
    of V(H) (lexicographic). The edge sets nest: cartesian <= strong <=
    lexicographic. An order above the vertex cap raises SizeGuard before
    any row is built.
    """
    if kind not in PRODUCT_KINDS:
        raise InvalidParam(f"unknown product kind {kind!r}")
    if g.n == 0 or h.n == 0:
        raise InvalidParam("product factors must be nonempty")
    n = g.n * h.n
    check_cap(n)
    hn = h.n
    if kind == "cartesian":
        lands = [(b,) for b in range(hn)]
    elif kind == "strong":
        lands = [(b, *h.adj[b]) for b in range(hn)]
    else:
        lands = [range(hn)] * hn

    def row(v: int) -> tuple[int, ...]:
        a, b = divmod(v, hn)
        return tuple(sorted([a * hn + y for y in h.adj[b]]
                            + [x * hn + y for x in g.adj[a] for y in lands[b]]))
    return Graph(n, tuple(map(row, range(n))),
                 lambda: (f"({g.label(a)},{h.label(b)})" for a in range(g.n) for b in range(hn)))
