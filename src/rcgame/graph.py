"""Immutable simple undirected graphs and their metric invariants.

Vertices are dense integers 0..n-1; family coordinates (words, subsets,
tuples) live only in the optional labels, which a generator may hand over
as a function that formats them on first read. Adjacency is stored as
sorted tuples. The closed neighbourhood N[v] = adj[v] + {v} has one
stored form, closed_bits, one bitmask per vertex, built on first use;
has_edge, the ball sweep and the engine's kernel read it, and a walk
over N[v] goes over (v, *adj[v]).

_sweep answers a complete graph (2m = n(n - 1)) from its edge count,
with no closed_bits, no BFS and no sweep; otherwise is_connected, one BFS
(none below n - 1 edges), answers connectivity before any solve, sweep
and APSP.
The closed-ball sweep (balls) grows one bitset per vertex a hop at a
time, bit-parallel BFS in the style of Akiba, Iwata and Yoshida (SIGMOD
2013); ball_1 is closed_bits itself, and each later hop is dilate, which
starts each vertex's row from its own ball and ORs in its neighbours'
balls over adj, so a graph of diameter D costs D - 1 of them. _sweep
makes one pass of it to the diameter that reads every eccentricity (so
rad, diam and the centres), counting the full balls at each level and
looking at single vertices only at levels where that count rises.
eccentricities (exported for callers outside the package) and the
engine's capture_radii both read that one pass, so a compute row makes it
once, or not at all on a cycle, which capture_radii answers from one BFS
row; a theorem check that reads pair distances takes rad and diam from
the maxima of its distance rows instead, with no sweep. All-pairs
distances (APSP) are built only by the code that reads them, never by a
solve, and only on connected graphs. The BFS from
vertex 0 that answers connectivity also gives ecc(0), and ecc(0) <= D <=
2 ecc(0) for the diameter D. When 6 ecc(0) <= n and ecc(0) < 128 (so
D <= n/3 and D fits a byte) the rows are read off binary planes of one
ball sweep (_distance_planes); every other graph gets one BFS row per
vertex, which is faster when the diameter nears n/3 or more, as on long
cycles, paths and spiders. girth is 0 below three edges; otherwise it
peels the graph to its 2-core and runs one pruned BFS per remaining
start, deleting each after its BFS, and returns 3 at its first triangle.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidParam, InvalidVertex, NotConnected, SelfLoop


class Graph:
    """Simple undirected graph, immutable after construction.

    The constructor trusts its rows to be sorted, symmetric and loop-free;
    an edge list goes through :func:`build_graph`. labels is a tuple, None,
    or a function of no arguments that yields them, called on the first
    read of labels, so a graph whose labels are never read never formats
    them.
    """

    __slots__ = ("n", "m", "adj", "_labels", "_closed_bits")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...] | Callable[[], Iterable[str]] | None = None):
        self.n = n
        self.adj = adj
        self.m = sum(map(len, adj)) // 2
        self._labels = labels
        self._closed_bits = None

    @property
    def labels(self) -> tuple[str, ...] | None:
        if callable(self._labels):
            self._labels = tuple(self._labels())
        return self._labels

    @property
    def closed_bits(self) -> tuple[int, ...]:
        """N[v] as one bitmask per vertex, built on first use and then held,
        so graphs that are only generated or stored never pay for it."""
        if self._closed_bits is None:
            bits = []
            for v, row in enumerate(self.adj):
                b = 1 << v
                for w in row:
                    b |= 1 << w
                bits.append(b)
            self._closed_bits = tuple(bits)
        return self._closed_bits

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and self.closed_bits[u] >> v & 1 == 1

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
    """Build a Graph from an edge list, deduplicating and symmetrizing: the
    checked path, for edge lists from outside or from fixed data. Rejects
    loops (SelfLoop), out-of-range endpoints (InvalidVertex) and labels
    that are not n distinct strings (InvalidParam)."""
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


def dilate(g: Graph, ball: list[int]) -> list[int]:
    """One hop of the closed-ball sweep: entry r of the result is ball[r]
    ORed with ball[y] over y in adj[r], the OR over N[r], so dilate(g,
    ball_k) is ball_{k+1}."""
    grown = []
    for acc, row in zip(ball, g.adj):
        for y in row:
            acc |= ball[y]
        grown.append(acc)
    return grown


def balls(g: Graph) -> Iterator[list[int]]:
    """Yield ball_0, ball_1, ...: bit c of ball_k[r] is set iff d(c, r) <= k.

    ball_1 is the closed neighbourhoods, list(g.closed_bits); each later
    ball is the dilate of the one before. The generator ends once the
    balls stop growing.
    """
    ball = [1 << v for v in range(g.n)]
    yield ball
    grown = list(g.closed_bits)
    while grown != ball:
        ball = grown
        yield ball
        grown = dilate(g, ball)


def _sweep(g: Graph) -> tuple[tuple[int, ...], list[list[int]]] | None:
    """(ecc, top) from one closed-ball sweep, or None when g is disconnected.

    A complete g (2m = n(n - 1), its rows being simple) has every ball_1
    full, ecc 1 (0 on K_1), and is answered with no closed_bits, BFS or
    sweep. Else one BFS answers a disconnected g before any sweep, and
    ecc(v) is the first k at which ball_k[v] holds every vertex. Each
    level counts its full balls with one ball.count(full), and only at a
    level where that count rises are the still-short vertices compared
    with full, each one that filled there getting its ecc; the sweep stops
    at the first level where every ball is full, the diameter. rad is the
    first level where some ball is full, and top lists the balls at
    max(rad - 2, 0) .. rad - 1, the pair engine.capture_radii's first
    probe reads when rad >= 2.
    """
    n = g.n
    if n == 0:
        raise InvalidParam("empty graph has no radius")
    if 2 * g.m == n * (n - 1):  # complete: every ball_1 is full
        return (min(n - 1, 1),) * n, ([[1 << v for v in range(n)]] if n > 1 else [])
    if not is_connected(g):
        return None
    full = (1 << n) - 1
    ecc = [0] * n
    short = range(n)            # the vertices whose ball is not yet full
    filled = 0                  # how many balls are full
    top: list[list[int]] = []
    for level, ball in enumerate(balls(g)):
        count = ball.count(full)
        if not count:           # no ball is full yet: level < rad
            top = [*top[-1:], ball]
        elif count > filled:
            filled = count
            for v in short:
                if ball[v] == full:
                    ecc[v] = level
            if filled == n:
                break
            short = [v for v in short if ball[v] != full]
    return tuple(ecc), top


def eccentricities(g: Graph) -> tuple[int, ...] | None:
    """ecc(v) for every vertex, or None when g is disconnected; read off
    the one sweep of _sweep."""
    swept = _sweep(g)
    return None if swept is None else swept[0]


_BINARY = bytes.maketrans(b"01", b"\0\1")


def _distance_planes(g: Graph) -> list[list[int]]:
    """Distance rows of connected g of diameter D < 256, read off binary
    planes of its balls.

    One walk of balls(g) to D yields the J = D.bit_length() planes: bit c of
    plane_j[r] is bit j of d(r, c). Bit j is set exactly on the runs of
    distances [(2t+1) 2^j, (2t+2) 2^j - 1], and ball_b ^ ball_a holds the
    pairs with a < d <= b since the balls are nested, so the XOR of
    ball_{m 2^j - 1} over every level m 2^j - 1 <= D telescopes to plane_j,
    once ball_D closes the last run when the count of such levels is odd.
    Each plane is then written as one string of n^2 binary digits, pair
    (r, c) the (r n + c)-th from the right, and read as one integer with a
    byte per digit. The planes, shifted by j, add up to every distance at
    once, with no carry between bytes, and the sum's little-endian bytes
    are the distances in row-major order.
    """
    n = g.n
    full = (1 << n) - 1
    planes: list[list[int]] = []
    for level, ball in enumerate(balls(g)):
        step = level + 1
        for j in range((step & -step).bit_length()):   # the j with 2^j | step
            if j < len(planes):
                planes[j] = list(map(xor, planes[j], ball))
            else:                                       # step == 2^j: plane j opens
                planes.append(ball)
        if ball.count(full) == n:
            break
    diam = level
    digits = repeat(f"0{n}b")
    total = 0
    # a plane opened at level D (D + 1 a power of two) is all zeros: skipped
    for j, plane in enumerate(planes[:diam.bit_length()]):
        if (diam + 1) >> j & 1:     # an odd count of levels m 2^j - 1 <= D
            plane = [b ^ full for b in plane]
        bits = "".join(map(format, reversed(plane), digits))
        total += int.from_bytes(bits.encode("latin-1").translate(_BINARY), "big") << j
    lanes = total.to_bytes(n * n, "little")
    return [list(lanes[i:i + n]) for i in range(0, n * n, n)]


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """Distance rows of connected g, d(u, v) = rows[u][v]; a disconnected g
    raises NotConnected, read off the BFS row from vertex 0. That row gives
    ecc(0), and D <= 2 ecc(0), so when 6 ecc(0) <= n (D <= n/3) and
    ecc(0) < 128 (D < 256, one byte) the rows come from _distance_planes;
    otherwise from one BFS per vertex."""
    n, adj = g.n, g.adj
    if n == 0:
        return []
    row = _bfs_row(adj, n, 0)
    if -1 in row:
        raise NotConnected("the graph is disconnected; distances need a connected graph")
    ecc = max(row)
    if 6 * ecc <= n and ecc < 128:
        return _distance_planes(g)
    return [row, *(_bfs_row(adj, n, s) for s in range(1, n))]


def girth(g: Graph) -> int:
    """Length of a shortest cycle, or 0 when the graph is acyclic.

    A vertex of degree <= 1 is on no cycle, so girth first peels them off,
    again and again, leaving the 2-core. It then repeats: BFS from a live
    vertex s, delete s, peel again, until nothing is left. From s, a
    non-tree edge (u, w) with dist(s, w) >= dist(s, u) witnesses a closed
    walk, and so a cycle, of length at most dist(s, u) + dist(s, w) + 1;
    the parent edge of u is one level down and never counts. A BFS stops at
    the level where no such edge can beat the best found, and a candidate
    of length 3 returns at once, since no simple graph has a shorter cycle:
    on a complete graph that reads two adjacency rows, O(deg), not O(m).

    This is exact. Every candidate bounds the length of some cycle of g
    from above, so none is below the girth. Let C be a shortest cycle and s the first of its
    vertices deleted as a start: peeling never takes a vertex of a whole
    cycle, so C is whole when the BFS from s runs, and a BFS from a vertex
    of a shortest cycle finds its length (Itai and Rodeh, SIAM J. Comput.
    7(4), 1978). Each BFS starts from a copy of one dist row, -1 on live
    and -2 on deleted vertices, so deleted vertices are never entered.
    """
    if g.m < 3:                 # a cycle needs three edges
        return 0
    n, adj = g.n, g.adj
    deg = [len(row) for row in adj]
    fresh = [-1] * n

    def delete(stack: list[int]) -> None:
        while stack:
            v = stack.pop()
            if fresh[v] == -1:
                fresh[v] = -2
                for w in adj[v]:
                    if fresh[w] == -1:
                        deg[w] -= 1
                        if deg[w] <= 1:
                            stack.append(w)

    delete([v for v in range(n) if deg[v] <= 1])
    best = 0
    for s in range(n):
        if fresh[s] != -1:
            continue
        dist = fresh.copy()
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            du = dist[u]
            if best and 2 * du >= best:
                break
            for w in adj[u]:
                dw = dist[w]
                if dw == -1:
                    dist[w] = du + 1
                    q.append(w)
                elif dw >= du:
                    cand = du + dw + 1
                    if cand == 3:       # no simple graph has a shorter cycle
                        return 3
                    if best == 0 or cand < best:
                        best = cand
        delete([s])
    return best


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex (true for n = 0).

    A graph with fewer than n - 1 edges is answered without the BFS, since
    a connected graph on n vertices has a spanning tree.
    """
    if g.n == 0:
        return True
    if g.m < g.n - 1:
        return False
    row = _bfs_row(g.adj, g.n, 0)
    return all(d >= 0 for d in row)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertex set.

    Returns the subgraph (vertices renumbered in sorted order) and the
    old-to-new index map, which rises with the old index, so each kept row
    mapped through it stays sorted. Labels carry over, formatted on the
    subgraph's first read of them, so g's own stay unformatted until then.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < g.n):
            raise InvalidVertex(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(keep)}
    adj = tuple(tuple(index[w] for w in g.adj[v] if w in index) for v in keep)
    labels = None if g._labels is None else lambda: map(g.label, keep)
    return Graph(len(keep), adj, labels), index
