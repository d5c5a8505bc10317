"""Two-connected outerplanar graphs as a polygon plus non-crossing chords.

Embeddings are inputs, never inferred: validate_embedding checks the
polygon-plus-chords invariants against a graph, inner_faces enumerates the
bounded faces, and the capture number of such a graph is determined by its
largest inner face.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import (
    EdgeSetMismatch,
    InvalidParam,
    NotOuterplanarEmbedding,
)
from .generators import check_cap
from .graph import Graph, build_graph


class OuterplanarEmbedding(NamedTuple):
    """Cyclic outer order of all vertices plus a set of chords (u < v)."""

    outer: tuple[int, ...]
    chords: frozenset[tuple[int, int]]


def validate_embedding(g: Graph, e: OuterplanarEmbedding) -> None:
    """Check the embedding invariants and that g's edges are exactly the
    outer cycle plus the chords.

    Raises NotOuterplanarEmbedding for a bad outer order, a degenerate,
    reversed (u > v) or crossing chord; EdgeSetMismatch when the edge sets differ.
    """
    n = g.n
    if sorted(e.outer) != list(range(n)):
        raise NotOuterplanarEmbedding("outer order is not a permutation of 0..n-1")
    if n < 3:
        raise NotOuterplanarEmbedding("polygon needs at least 3 vertices")
    pos = {v: i for i, v in enumerate(e.outer)}
    positions = []
    for u, v in e.chords:
        if u == v:
            raise NotOuterplanarEmbedding(f"chord ({u},{v}) is degenerate")
        if u > v:
            raise NotOuterplanarEmbedding(f"chord ({u},{v}) is not written u < v")
        if u not in pos or v not in pos:
            raise NotOuterplanarEmbedding(f"chord ({u},{v}) uses unknown vertices")
        pu, pv = pos[u], pos[v]
        lo, hi = min(pu, pv), max(pu, pv)
        if hi - lo == 1 or (lo == 0 and hi == n - 1):
            raise NotOuterplanarEmbedding(
                f"chord ({u},{v}) joins consecutive outer vertices")
        positions.append((lo, hi))
    positions.sort()
    for idx, (a, b) in enumerate(positions):
        for c, d in positions[idx + 1:]:
            if c >= b:
                break
            if a < c < b < d:
                raise NotOuterplanarEmbedding(
                    f"chords at outer positions ({a},{b}) and ({c},{d}) cross")
    expected = {(min(e.outer[i], e.outer[(i + 1) % n]),
                 max(e.outer[i], e.outer[(i + 1) % n])) for i in range(n)}
    expected.update(e.chords)
    actual = set(g.edge_set())
    if expected != actual:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        raise EdgeSetMismatch(
            f"graph edges differ from embedding (missing {missing}, extra {extra})")


def inner_faces(e: OuterplanarEmbedding) -> tuple[tuple[int, ...], ...]:
    """Enumerate the |chords| + 1 inner faces of a validated embedding.

    Walks the outer cycle keeping a stack of open positions; every chord
    closes the face above its far endpoint, and the wrap-around edge closes
    the last one. Faces are reported as vertex cycles in outer order, in
    discovery order along the polygon.
    """
    n = len(e.outer)
    pos = {v: i for i, v in enumerate(e.outer)}
    ending_at: dict[int, list[int]] = {}
    for u, v in e.chords:
        lo, hi = sorted((pos[u], pos[v]))
        ending_at.setdefault(hi, []).append(lo)
    faces = []
    stack = [0]
    for p in range(1, n):
        for q in sorted(ending_at.get(p, ()), reverse=True):
            at = stack.index(q)
            faces.append(tuple(e.outer[x] for x in stack[at:]) + (e.outer[p],))
            del stack[at + 1:]
        stack.append(p)
    faces.append(tuple(e.outer[x] for x in stack))
    return tuple(faces)


def rc_outerplanar_formula(e: OuterplanarEmbedding) -> int:
    """Predicted capture number: floor(largest inner face / 2) - 1."""
    return max(len(f) for f in inner_faces(e)) // 2 - 1


def random_outerplanar(n: int, chord_prob: float, seed: int) -> tuple[Graph, OuterplanarEmbedding]:
    """Random n-gon with non-crossing chords via recursive interval
    splitting; deterministic given the seed. Outer order is 0..n-1."""
    check_cap(n)
    if n < 3:
        raise InvalidParam(f"polygon needs n >= 3, got {n}")
    if not (0.0 <= chord_prob <= 1.0):
        raise InvalidParam(f"chord probability {chord_prob} outside [0, 1]")
    rng = random.Random(seed)
    chords: set[tuple[int, int]] = set()

    def split(lo: int, hi: int) -> None:
        if hi - lo < 2:
            return
        if not (lo == 0 and hi == n - 1) and rng.random() < chord_prob:
            chords.add((lo, hi))
        mid = rng.randint(lo + 1, hi - 1)
        split(lo, mid)
        split(mid, hi)

    split(0, n - 1)
    edges = [(i, (i + 1) % n) for i in range(n)] + sorted(chords)
    g = build_graph(n, edges, tuple(str(i) for i in range(n)))
    return g, OuterplanarEmbedding(tuple(range(n)), frozenset(chords))
