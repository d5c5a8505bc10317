"""Immutable simple undirected graphs and their metric invariants.

Vertices are dense integers 0..n-1; family coordinates (words, subsets,
tuples) live only in the optional labels. Adjacency is stored both as
sorted tuples for iteration and as one bitmask per vertex for constant
time membership tests; closed neighbourhoods N[v] = adj[v] + {v} are
kept the same two ways.

Each distance fact has one source. is_connected, one BFS, answers
connectivity. The closed-ball sweep (balls) grows one bitset per vertex a
hop at a time, bit-parallel BFS in the style of Akiba, Iwata and Yoshida
(SIGMOD 2013). eccentricities reads every eccentricity (so rad, diam and
the centres) off it, and the rc pass of the engine reads the balls
directly. All-pairs distances (APSP) are bare BFS rows, built only for
callers that read pair distances, and only on connected graphs; such a
caller reads rad and diam off its rows, whose maxima are the
eccentricities.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from .errors import InvalidParam, InvalidVertex, NotConnected, SelfLoop


class Graph:
    """Simple undirected graph, immutable after construction.

    Use :func:`build_graph` rather than constructing directly; the
    constructor trusts its arguments.
    """

    __slots__ = ("n", "m", "adj", "adj_bits", "labels", "_closed", "_closed_bits")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...] | None = None):
        self.n = n
        self.adj = adj
        self.m = sum(len(row) for row in adj) // 2
        bits = []
        for row in adj:
            b = 0
            for v in row:
                b |= 1 << v
            bits.append(b)
        self.adj_bits = tuple(bits)
        self.labels = labels
        self._closed = None
        self._closed_bits = None

    @property
    def closed(self) -> tuple[tuple[int, ...], ...]:
        """Closed neighbourhoods N[v] = adj[v] plus v, as sorted tuples.

        Built on first use and then kept, as is closed_bits, so graphs that
        are only generated, stored or written never pay for them.
        """
        if self._closed is None:
            self._closed = tuple(tuple(sorted((*row, v))) for v, row in enumerate(self.adj))
        return self._closed

    @property
    def closed_bits(self) -> tuple[int, ...]:
        """N[v] as one bitmask per vertex."""
        if self._closed_bits is None:
            self._closed_bits = tuple(b | 1 << v for v, b in enumerate(self.adj_bits))
        return self._closed_bits

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj_bits[u] >> v) & 1 == 1

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Sequence[tuple[int, int]],
                labels: Sequence[str] | None = None) -> Graph:
    """Build a Graph from an edge list, deduplicating and symmetrizing.

    Rejects loops (SelfLoop) and out-of-range endpoints (InvalidVertex).
    """
    if n < 0:
        raise InvalidParam(f"vertex count must be >= 0, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise InvalidVertex(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"loop at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise InvalidParam(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise InvalidParam("labels must be pairwise distinct")
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs), labels)


def _bfs_row(adj: tuple[tuple[int, ...], ...], n: int, source: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                q.append(v)
    return dist


def balls(g: Graph) -> Iterator[list[int]]:
    """Yield ball_0, ball_1, ...: bit c of ball_k[r] is set iff d(c, r) <= k.

    ball_k[r] is the OR of ball_{k-1}[y] over y in N[r]. The generator
    ends once the balls stop growing.
    """
    closed = g.closed
    ball = [1 << v for v in range(g.n)]
    while True:
        yield ball
        grown = []
        for row in closed:
            acc = 0
            for y in row:
                acc |= ball[y]
            grown.append(acc)
        if grown == ball:
            return
        ball = grown


def eccentricities(g: Graph) -> tuple[int, ...] | None:
    """ecc(v) for every vertex, or None when g is disconnected.

    One BFS answers a disconnected g before any sweep. Otherwise ecc(v) is
    the first k at which ball_k[v] holds every vertex, counted as the
    levels at which it falls short; the sweep stops at the first level
    where every ball is full.
    """
    n = g.n
    if n == 0:
        raise InvalidParam("empty graph has no radius")
    if not is_connected(g):
        return None
    full = (1 << n) - 1
    ecc = [0] * n
    for ball in balls(g):
        short = [v for v, reach in enumerate(ball) if reach != full]
        if not short:
            break
        for v in short:
            ecc[v] += 1
    return tuple(ecc)


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """BFS rows of connected g, d(u, v) = rows[u][v]; raises NotConnected
    otherwise."""
    if not is_connected(g):
        raise NotConnected("the graph is disconnected; distances need a connected graph")
    return [_bfs_row(g.adj, g.n, s) for s in range(g.n)]


def girth(g: Graph) -> int:
    """Length of a shortest cycle, or 0 when the graph is acyclic.

    One BFS per start vertex; a non-tree edge (u, w) seen from start s
    witnesses a cycle of length at most dist(s, u) + dist(s, w) + 1, and
    the minimum over all starts and edges is exact. The search stops at the
    first triangle, since no simple graph has a shorter cycle.
    """
    n = g.n
    adj = g.adj
    best = 0
    for s in range(n):
        if best == 3:
            break
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            du = dist[u]
            if best and 2 * du >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    q.append(w)
                elif w != parent[u] and dist[w] >= du:
                    cand = du + dist[w] + 1
                    if best == 0 or cand < best:
                        best = cand
    return best


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex (true for n = 0)."""
    if g.n == 0:
        return True
    row = _bfs_row(g.adj, g.n, 0)
    return all(d >= 0 for d in row)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertex set.

    Returns the subgraph (vertices renumbered in sorted order) and the
    old-to-new index map. Labels carry over.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < g.n):
            raise InvalidVertex(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    labels = tuple(g.label(v) for v in keep) if g.labels is not None else None
    return build_graph(len(keep), edges, labels), index
