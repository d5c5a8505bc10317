"""Retrograde solver for the one-cop capture game at radius k.

Game protocol: the cop places first, the robber places anywhere knowing
the cop's vertex, then they alternate moves starting with the cop. A move
goes to any closed-neighborhood vertex (staying is legal). The cop wins
the radius-k game the first time the players are at distance <= k, checked
after the robber's placement and after every single move.

The solver computes the cop-win attractor over all 2n^2 game states by
counter-based backward propagation from the capture set, so each state is
settled in time proportional to the mover's degree. Ranks count single
moves (plies) to guaranteed capture: the cop minimizes, the robber
maximizes.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    IllegalMove,
    InvalidParam,
    InvariantViolation,
    NoEvasionStrategy,
    NotConnected,
    NoWinningStrategy,
)
from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    radius_diameter,
)

COP_TO_MOVE = 0
ROBBER_TO_MOVE = 1


class GameState(NamedTuple):
    cop: int
    robber: int
    turn: int


def _closed_lists(g: Graph) -> list[list[int]]:
    return [sorted((*g.adj[v], v)) for v in range(g.n)]


class WinAnalysis:
    """Per-state cop-win classification and capture rank at a fixed radius.

    States are indexed cop * n + robber with one plane per side to move.
    rank is -1 outside the cop-win region. initial_cop_choices lists the
    cop start vertices that beat every robber placement.
    """

    __slots__ = ("graph", "k", "dm", "win_cop_move", "win_robber_move",
                 "rank_cop_move", "rank_robber_move", "initial_cop_choices")

    def __init__(self, graph, k, dm, win_cop_move, win_robber_move,
                 rank_cop_move, rank_robber_move, initial_cop_choices):
        self.graph = graph
        self.k = k
        self.dm = dm
        self.win_cop_move = win_cop_move
        self.win_robber_move = win_robber_move
        self.rank_cop_move = rank_cop_move
        self.rank_robber_move = rank_robber_move
        self.initial_cop_choices = initial_cop_choices

    @property
    def is_cop_win(self) -> bool:
        return len(self.initial_cop_choices) > 0

    def cop_win(self, cop: int, robber: int, turn: int = COP_TO_MOVE) -> bool:
        plane = self.win_cop_move if turn == COP_TO_MOVE else self.win_robber_move
        return plane[cop * self.graph.n + robber] == 1

    def rank(self, cop: int, robber: int, turn: int = COP_TO_MOVE) -> int:
        plane = self.rank_cop_move if turn == COP_TO_MOVE else self.rank_robber_move
        return plane[cop * self.graph.n + robber]


def _attract(n: int, closed: list[list[int]], targets, win_c: bytearray,
             win_r: bytearray, rank_c: list[int], rank_r: list[int],
             countdown: list[int]) -> None:
    """Add capture targets to the cop-win region and propagate backwards.

    A state is one int: i = cop * n + robber with the cop to move, n^2 + i
    with the robber to move. Each target i not yet won is won with rank 0
    in both planes. Then the queue of newly won states is drained: a
    cop-to-move state is won as soon as one successor is, a robber-to-move
    state once countdown[i], its number of successors not yet won, reaches
    zero. Each newly won state gets rank 1 + the rank of the state that
    settled it. On fresh planes the FIFO order makes the ranks minimal for
    the cop and maximal for the robber; on planes left by an earlier call
    the flags are still exact, since the region only grows with the
    targets.
    """
    size = n * n
    queue: deque = deque()
    push = queue.append
    for i in targets:
        if not win_c[i]:
            win_c[i] = 1
            rank_c[i] = 0
            push(i)
        if not win_r[i]:
            win_r[i] = 1
            rank_r[i] = 0
            push(size + i)
    pop = queue.popleft
    while queue:
        s = pop()
        if s < size:
            # robber moves into (c, r): decrement (c, y) for y around r
            r = s % n
            base = s - r
            rho = rank_c[s] + 1
            for y in closed[r]:
                i = base + y
                if not win_r[i]:
                    left = countdown[i] - 1
                    countdown[i] = left
                    if left == 0:
                        win_r[i] = 1
                        rank_r[i] = rho
                        push(size + i)
        else:
            # cop moves into (c, r): classify (y, r) for y around c
            s -= size
            c, r = divmod(s, n)
            rho = rank_r[s] + 1
            for y in closed[c]:
                i = y * n + r
                if not win_c[i]:
                    win_c[i] = 1
                    rank_c[i] = rho
                    push(i)


def solve_cwrc(g: Graph, k: int, dm: DistanceMatrix | None = None) -> WinAnalysis:
    """Decide whether the cop wins the radius-k game on connected g.

    Backward induction from the capture set {d(c, r) <= k}: a cop-to-move
    state is cop-win as soon as one successor is, a robber-to-move state
    once all of its successors are (tracked with a countdown per state).
    """
    if k < 0:
        raise InvalidParam(f"capture radius must be >= 0, got {k}")
    if dm is None:
        dm = all_pairs_distances(g)
    if not dm.connected:
        raise NotConnected("the capture game is only decided on connected graphs")
    n = g.n
    closed = _closed_lists(g)
    size = n * n
    win_c = bytearray(size)   # cop to move
    win_r = bytearray(size)   # robber to move
    rank_c = [-1] * size
    rank_r = [-1] * size
    countdown = [len(row) for row in closed] * n
    captures = (c * n + r for c, drow in enumerate(dm.rows)
                for r, d in enumerate(drow) if d <= k)
    _attract(n, closed, captures, win_c, win_r, rank_c, rank_r, countdown)
    choices = tuple(c for c in range(n)
                    if win_c.find(0, c * n, (c + 1) * n) < 0)
    return WinAnalysis(g, k, dm, win_c, win_r, rank_c, rank_r, choices)


def radius_capture_number(g: Graph, dm: DistanceMatrix | None = None) -> int | None:
    """Least k at which the cop wins, or None when g is disconnected.

    One incremental attractor pass: the cop-win region only grows with k,
    so the pass raises k from 0, adds the states at distance exactly k as
    new capture targets and resumes propagation from the countdowns left
    at k - 1. Each state is settled at most once over the whole pass, so
    it costs about one solve at the answer. It stops at the first k where
    some cop start wins against every robber placement; rad - 1 always
    suffices. The ranks it computes along the way are discarded.
    """
    if dm is None:
        dm = all_pairs_distances(g)
    if not dm.connected:
        return None
    rad, _ = radius_diameter(dm)
    hi = max(0, rad - 1)
    n = g.n
    size = n * n
    closed = _closed_lists(g)
    by_dist = [array("q") for _ in range(hi + 1)]
    for c, drow in enumerate(dm.rows):
        base = c * n
        for r, d in enumerate(drow):
            if d <= hi:
                by_dist[d].append(base + r)
    win_c = bytearray(size)
    win_r = bytearray(size)
    rank_c = [-1] * size
    rank_r = [-1] * size
    countdown = [len(row) for row in closed] * n
    full_row = b"\x01" * n
    for k, targets in enumerate(by_dist):
        _attract(n, closed, targets, win_c, win_r, rank_c, rank_r, countdown)
        # a fully won cop row is a run of n won bytes starting at a row start
        pos = win_c.find(full_row)
        while pos >= 0:
            if pos % n == 0:
                return k
            pos = win_c.find(full_row, pos - pos % n + n)
    raise InvariantViolation(f"no cop win up to the radius bound {hi}")


@dataclass(frozen=True)
class Strategy:
    """Deterministic move rule for one role.

    For the cop, initial() gives the start vertex; for the robber,
    initial(cop_vertex) gives the reply placement. move(cop, robber)
    returns the mover's next vertex, always inside its closed neighborhood.
    """

    role: str
    k: int
    initial: Callable
    move: Callable[[int, int], int]
    name: str = ""


def extract_cop_strategy(a: WinAnalysis) -> Strategy:
    """Rank-greedy winning cop: start at the lowest winning vertex, always
    move to a closed-neighborhood successor of minimal rank (ties to the
    lowest vertex index)."""
    if not a.is_cop_win:
        raise NoWinningStrategy(f"cop does not win at radius {a.k}")
    g, n = a.graph, a.graph.n
    closed = _closed_lists(g)
    win_r, rank_r = a.win_robber_move, a.rank_robber_move
    start = a.initial_cop_choices[0]

    def move(cop: int, robber: int) -> int:
        best, best_rank = cop, None
        for y in closed[cop]:
            i = y * n + robber
            if win_r[i] and (best_rank is None or rank_r[i] < best_rank):
                best, best_rank = y, rank_r[i]
        return best

    return Strategy("cop", a.k, lambda: start, move, "rank-greedy cop")


def extract_robber_strategy(a: WinAnalysis) -> Strategy:
    """Evading robber: place and move so the game state stays outside the
    cop-win region; such a successor always exists at the attractor fixed
    point. Ties go to the lowest vertex index."""
    if a.is_cop_win:
        raise NoEvasionStrategy(f"cop wins at radius {a.k}; no evasion exists")
    g, n = a.graph, a.graph.n
    closed = _closed_lists(g)
    win_c = a.win_cop_move

    def initial(cop: int) -> int:
        for r in range(n):
            if not win_c[cop * n + r]:
                return r
        raise InvariantViolation(f"no safe placement against cop at {cop}")

    def move(cop: int, robber: int) -> int:
        base = cop * n
        for y in closed[robber]:
            if not win_c[base + y]:
                return y
        raise InvariantViolation(
            f"no safe move at state (cop={cop}, robber={robber})")

    return Strategy("robber", a.k, initial, move, "attractor-evading robber")


class Step(NamedTuple):
    mover: str
    origin: int
    target: int
    distance: int


@dataclass
class Transcript:
    """Full record of one play-out: placements, every move, the outcome."""

    k: int
    cop_start: int
    robber_start: int
    start_distance: int
    steps: list[Step]
    outcome: str          # "captured" or "survived"
    moves: int

    @property
    def captured(self) -> bool:
        return self.outcome == "captured"


def simulate(g: Graph, k: int, cop_strategy: Strategy, robber_strategy: Strategy,
             max_moves: int, dm: DistanceMatrix | None = None) -> Transcript:
    """Play the two strategies against each other for at most max_moves
    single moves, checking capture after the placements and after every
    move. Deterministic for deterministic strategies."""
    if cop_strategy.role != "cop" or robber_strategy.role != "robber":
        raise InvalidParam("simulate needs a cop strategy and a robber strategy")
    if dm is None:
        dm = all_pairs_distances(g)
    rows = dm.rows
    closed_bits = [g.adj_bits[v] | (1 << v) for v in range(g.n)]

    def check(v: int, origin: int, state: GameState) -> None:
        if not (0 <= v < g.n) or not (closed_bits[origin] >> v) & 1:
            raise IllegalMove(f"move {origin}->{v} at state {state}")

    cop_start = cop_strategy.initial()
    robber_start = robber_strategy.initial(cop_start)
    if not (0 <= cop_start < g.n) or not (0 <= robber_start < g.n):
        raise IllegalMove(f"placement outside 0..{g.n - 1}")
    cop, robber = cop_start, robber_start
    steps: list[Step] = []
    d0 = rows[cop][robber]
    if d0 <= k:
        return Transcript(k, cop_start, robber_start, d0, steps, "captured", 0)
    moves = 0
    while moves < max_moves:
        origin = cop
        nxt = cop_strategy.move(cop, robber)
        check(nxt, cop, GameState(cop, robber, COP_TO_MOVE))
        cop = nxt
        moves += 1
        d = rows[cop][robber]
        steps.append(Step("cop", origin, cop, d))
        if d <= k:
            return Transcript(k, cop_start, robber_start, d0, steps, "captured", moves)
        if moves >= max_moves:
            break
        origin = robber
        nxt = robber_strategy.move(cop, robber)
        check(nxt, robber, GameState(cop, robber, ROBBER_TO_MOVE))
        robber = nxt
        moves += 1
        d = rows[cop][robber]
        steps.append(Step("robber", origin, robber, d))
        if d <= k:
            return Transcript(k, cop_start, robber_start, d0, steps, "captured", moves)
    return Transcript(k, cop_start, robber_start, d0, steps, "survived", moves)


def naive_rc_oracle(g: Graph) -> int | None:
    """Independent slow oracle for the radius capture number.

    Recomputes distances with its own BFS and labels cop-win states by
    repeated full sweeps to a fixed point (no counters, no early exit),
    scanning k upward from 0. Intended for small graphs.
    """
    n = g.n
    if n == 0:
        return None
    dist = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    q.append(v)
        if any(d < 0 for d in row):
            return None
        dist.append(row)
    rad = min(max(row) for row in dist)
    closed = [sorted((*g.adj[v], v)) for v in range(n)]
    for k in range(0, max(1, rad)):
        win_c = [[dist[c][r] <= k for r in range(n)] for c in range(n)]
        win_r = [list(row) for row in win_c]
        changed = True
        while changed:
            changed = False
            for c in range(n):
                for r in range(n):
                    if not win_c[c][r] and any(win_r[y][r] for y in closed[c]):
                        win_c[c][r] = True
                        changed = True
                    if not win_r[c][r] and all(win_c[c][y] for y in closed[r]):
                        win_r[c][r] = True
                        changed = True
        if any(all(win_c[c]) for c in range(n)):
            return k
    raise InvariantViolation("oracle found no cop win at the radius bound")


def rank_max_robber_strategy(a: WinAnalysis) -> Strategy:
    """Longest-resisting robber inside a cop-win analysis: place and move
    to maximize the capture rank (ties to the lowest vertex index). Used
    as the adversary in cop transcripts."""
    g, n = a.graph, a.graph.n
    closed = _closed_lists(g)
    win_c, rank_c = a.win_cop_move, a.rank_cop_move

    def initial(cop: int) -> int:
        best, best_rank = 0, -2
        for r in range(n):
            i = cop * n + r
            rho = rank_c[i] if win_c[i] else -1
            score = rho if rho >= 0 else n * n * 4
            if score > best_rank:
                best, best_rank = r, score
        return best

    def move(cop: int, robber: int) -> int:
        base = cop * n
        best, best_rank = robber, -2
        for y in closed[robber]:
            i = base + y
            rho = rank_c[i] if win_c[i] else -1
            score = rho if rho >= 0 else n * n * 4
            if score > best_rank:
                best, best_rank = y, score
        return best

    return Strategy("robber", a.k, initial, move, "rank-max robber")


def greedy_chase_cop_strategy(g: Graph, k: int,
                              dm: DistanceMatrix | None = None) -> Strategy:
    """Distance-minimizing cop (no winning guarantee): start at a center
    vertex, always move to the closed neighbor nearest the robber."""
    if dm is None:
        dm = all_pairs_distances(g)
    if not dm.connected:
        raise NotConnected("greedy chase needs a connected graph")
    rows = dm.rows
    closed = _closed_lists(g)
    rad, _ = radius_diameter(dm)
    start = min(v for v in range(g.n) if dm.ecc[v] == rad)

    def move(cop: int, robber: int) -> int:
        row = rows[robber]
        return min(closed[cop], key=lambda y: (row[y], y))

    return Strategy("cop", k, lambda: start, move, "greedy-chase cop")


def random_cop_strategy(g: Graph, k: int, seed: int) -> Strategy:
    """Seeded uniformly random cop policy, for robustness play-outs."""
    rng = random.Random(seed)
    closed = _closed_lists(g)

    def initial() -> int:
        return rng.randrange(g.n)

    def move(cop: int, robber: int) -> int:
        return rng.choice(closed[cop])

    return Strategy("cop", k, initial, move, f"random cop seed={seed}")


def certify_cop_strategy(a: WinAnalysis) -> int:
    """Exhaustively play the rank-greedy cop against every robber reply.

    Walks the full reachable game tree (at most 2n^2 states), checking that
    the rank drops on every ply and that each line ends in capture. Returns
    the worst-case number of single moves to capture over all robber
    placements. Raises InvariantViolation on any escape or rank violation.
    """
    strat = extract_cop_strategy(a)
    g, k, n = a.graph, a.k, a.graph.n
    rows = a.dm.rows
    closed = _closed_lists(g)
    win_c, win_r = a.win_cop_move, a.win_robber_move
    rank_c, rank_r = a.rank_cop_move, a.rank_robber_move
    cop0 = strat.initial()
    seen_cop_states: set[int] = set()
    worst = 0
    for r0 in range(n):
        if rows[cop0][r0] <= k:
            continue
        i0 = cop0 * n + r0
        if not win_c[i0]:
            raise InvariantViolation(
                f"placement {r0} escapes the certified cop start {cop0}")
        worst = max(worst, rank_c[i0])
        stack = [i0]
        while stack:
            i = stack.pop()
            if i in seen_cop_states:
                continue
            seen_cop_states.add(i)
            c, r = divmod(i, n)
            c2 = strat.move(c, r)
            j = c2 * n + r
            if not win_r[j] or rank_r[j] != rank_c[i] - 1:
                raise InvariantViolation(
                    f"cop move {c}->{c2} does not reduce rank at robber {r}")
            if rows[c2][r] <= k:
                continue
            for r2 in closed[r]:
                if rows[c2][r2] <= k:
                    continue
                i2 = c2 * n + r2
                if not win_c[i2] or rank_c[i2] > rank_r[j] - 1:
                    raise InvariantViolation(
                        f"robber move {r}->{r2} escapes at cop {c2}")
                stack.append(i2)
    return worst
