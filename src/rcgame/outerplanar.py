"""Two-connected outerplanar graphs as a polygon plus non-crossing chords.

The polygon of a graph g is its vertex order 0, 1, ..., n-1, closed by the
side (n-1, 0), and its chords are every edge that is not a side: the
vertex numbering fixes the embedding, which is never searched for.
polygon_chords checks it, inner_faces enumerates the bounded faces, and the
capture number of such a graph is determined by its largest inner face.
"""

from __future__ import annotations

import random

from .errors import InvalidParam, NotOuterplanarEmbedding
from .generators import check_cap
from .graph import Graph, build_graph


def polygon_chords(g: Graph) -> list[tuple[int, int]]:
    """The sorted chords (u, v), u < v, of g on the polygon 0..n-1.

    Raises NotOuterplanarEmbedding when n < 3, when a side (v, v+1 mod n)
    is missing, or when two chords cross.
    """
    n = g.n
    if n < 3:
        raise NotOuterplanarEmbedding("polygon needs at least 3 vertices")
    for v in range(n):
        if not g.has_edge(v, (v + 1) % n):
            raise NotOuterplanarEmbedding(
                f"polygon side ({v},{(v + 1) % n}) is not an edge")
    chords = [(u, v) for u, v in g.edges() if v - u not in (1, n - 1)]
    for idx, (a, b) in enumerate(chords):
        for c, d in chords[idx + 1:]:
            if c >= b:
                break
            if a < c < b < d:
                raise NotOuterplanarEmbedding(f"chords ({a},{b}) and ({c},{d}) cross")
    return chords


def inner_faces(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Enumerate the |chords| + 1 inner faces of g's polygon.

    Walks the polygon keeping a stack of open vertices; every chord closes
    the face above its far endpoint, and the side (n-1, 0) closes the last
    one. Faces are reported as vertex cycles in polygon order, in
    discovery order along the polygon.
    """
    ending_at: dict[int, list[int]] = {}
    for u, v in polygon_chords(g):
        ending_at.setdefault(v, []).append(u)
    faces = []
    stack = [0]
    for v in range(1, g.n):
        for u in sorted(ending_at.get(v, ()), reverse=True):
            at = stack.index(u)
            faces.append((*stack[at:], v))
            del stack[at + 1:]
        stack.append(v)
    faces.append(tuple(stack))
    return tuple(faces)


def rc_outerplanar_formula(g: Graph) -> int:
    """Predicted capture number: floor(largest inner face / 2) - 1."""
    return max(len(f) for f in inner_faces(g)) // 2 - 1


def random_outerplanar(n: int, chord_prob: float, seed: int) -> Graph:
    """Random n-gon 0..n-1 with non-crossing chords via recursive interval
    splitting; deterministic given the seed."""
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
    return build_graph(n, edges, tuple(str(i) for i in range(n)))
