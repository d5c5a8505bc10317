"""Retrograde solver for the one-cop capture game at radius k.

Game protocol: the cop places first, the robber places anywhere knowing
the cop's vertex, then they alternate moves starting with the cop. A move
goes to any closed-neighborhood vertex (staying is legal). The cop wins
the radius-k game the first time the players are at distance <= k, checked
after the robber's placement and after every single move.

The solver computes the cop-win attractor over all 2n^2 game states by
level-synchronous backward propagation over bitsets. Each plane (cop to
move, robber to move) is one Python int per robber vertex r whose bit c
marks state (c, r) as won, so a single bigint AND or OR settles a whole
column of states at once. Round t wins every state that round t - 1
decided, and a state first won in round t has rank t: the number of
single moves (plies) to guaranteed capture, with the cop minimizing and
the robber maximizing. A round costs a few bigint operations per column
that changed in the round before.

radius_capture_number runs the same kernel once over k = 0, 1, ... with
the closed balls of rcgame.graph as capture targets, once a BFS has ruled
out a disconnected graph. The pass reads no radius: on a connected graph
a centre's row is fully captured by k = rad, and the theorem rc <= rad - 1
is checked where rc is reported.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Callable, NamedTuple

from .errors import (
    IllegalMove,
    InvalidParam,
    InvariantViolation,
    NoEvasionStrategy,
    NoWinningStrategy,
)
from .graph import Graph, all_pairs_distances, balls, is_connected

COP_TO_MOVE = 0
ROBBER_TO_MOVE = 1


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


# identity equality as for any solve result, and no repr of the round layers
@dataclass(slots=True, eq=False, repr=False)
class WinAnalysis:
    """The cop-win region and capture ranks at a fixed radius, as the
    kernel leaves them.

    columns is the pair (cop to move, robber to move) of final planes: bit
    c of columns[turn][r] means state (c, r) is won. rounds[t] is the pair
    of dicts {r: bits} of the states first won in round t, so a state's
    rank is the round that holds it, and -1 outside the cop-win region.
    initial_cop_choices lists the cop start vertices that beat every robber
    placement.
    """

    graph: Graph
    k: int
    dm: list[list[int]]
    columns: tuple[list[int], list[int]]
    rounds: list[tuple[dict[int, int], dict[int, int]]]
    initial_cop_choices: tuple[int, ...]

    @property
    def is_cop_win(self) -> bool:
        return len(self.initial_cop_choices) > 0

    def cop_win(self, cop: int, robber: int, turn: int = COP_TO_MOVE) -> bool:
        return self.columns[turn][robber] >> cop & 1 == 1

    def rank(self, cop: int, robber: int, turn: int = COP_TO_MOVE) -> int:
        if not self.cop_win(cop, robber, turn):
            return -1
        return next(t for t, layer in enumerate(self.rounds)
                    if layer[turn].get(robber, 0) >> cop & 1)

    def _plane(self, turn: int) -> bytearray:
        n = self.graph.n
        plane = bytearray(n * n)
        for r, bits in enumerate(self.columns[turn]):
            plane[r::n] = f"{bits:0{n}b}"[::-1].encode().translate(_BIT_BYTES)
        return plane

    @property
    def win_cop_move(self) -> bytearray:
        """Cop-to-move flags as n^2 bytes of 0/1, indexed cop * n + robber."""
        return self._plane(COP_TO_MOVE)

    @property
    def win_robber_move(self) -> bytearray:
        """Robber-to-move flags as n^2 bytes of 0/1, indexed cop * n + robber."""
        return self._plane(ROBBER_TO_MOVE)


def _full_rows(win_c: list[int], n: int) -> int:
    """Bitset of the cops c whose whole row (c, *) is won with the cop to move."""
    full = (1 << n) - 1
    for column in win_c:
        full &= column
        if not full:
            break
    return full


def _attract(g: Graph, win_c: list[int], win_r: list[int], targets: list[int]):
    """Add capture targets to the cop-win region and propagate backwards,
    one level per round.

    win_c and win_r are the cop-to-move and robber-to-move planes: bit c
    of win_c[r] means state (c, r) is won. targets[r] is the bitset of
    cops that capture a robber at r; those not yet won are won in both
    planes in round 0. Round t reads the planes left by round t - 1:

    - cop step: (c, r) is won once the cop can move onto a robber-to-move
      state (y, r) won in round t - 1, i.e. c is in N[y];
    - robber step: (c, r) is won once (c, y) is won for every y in N[r];
      it can only change for columns next to one whose win_c changed.

    Then both steps are applied, and the round's newly won states are
    yielded as ({r: bits} cop to move, {r: bits} robber to move). A state
    first won in round t thus has rank t = 1 + the least (cop) or largest
    (robber) rank among its successors. The generator ends at the fixed
    point. On planes left by an earlier call the flags are still exact,
    since the region only grows with the targets.
    """
    closed, closed_bits = g.closed, g.closed_bits
    cop, robber = {}, {}
    for r, bits in enumerate(targets):
        fresh = bits & ~win_c[r]
        if fresh:
            cop[r] = fresh
            win_c[r] |= fresh
        fresh = bits & ~win_r[r]
        if fresh:
            robber[r] = fresh
            win_r[r] |= fresh
    while cop or robber:
        yield cop, robber
        new_c, new_r = cop, robber
        cop, robber = {}, {}
        for r, bits in new_r.items():
            reach = 0
            while bits:
                low = bits & -bits
                reach |= closed_bits[low.bit_length() - 1]
                bits ^= low
            reach &= ~win_c[r]
            if reach:
                cop[r] = reach
        for r in {x for y in new_c for x in closed[y]}:
            safe = ~win_r[r]
            for y in closed[r]:
                safe &= win_c[y]
            if safe:
                robber[r] = safe
        for r, bits in cop.items():
            win_c[r] |= bits
        for r, bits in robber.items():
            win_r[r] |= bits


def solve_cwrc(g: Graph, k: int, dm: list[list[int]] | None = None) -> WinAnalysis:
    """Decide whether the cop wins the radius-k game on connected g
    (NotConnected otherwise, from the pair distances; InvalidParam when g
    is empty).

    Backward induction from the capture set {d(c, r) <= k}: a cop-to-move
    state is cop-win as soon as one successor is, a robber-to-move state
    once all of its successors are. The analysis keeps the kernel's final
    columns and the list of rounds it yielded, whose dicts the kernel never
    mutates afterwards; a state's rank is the round that holds it.
    """
    if k < 0:
        raise InvalidParam(f"capture radius must be >= 0, got {k}")
    n = g.n
    if n == 0:
        raise InvalidParam("empty graph has no radius")
    if dm is None:
        dm = all_pairs_distances(g)
    for _, ball in zip(range(k + 1), balls(g)):   # ball_k, or all of g past diam
        pass
    win_c, win_r = [0] * n, [0] * n
    rounds = list(_attract(g, win_c, win_r, ball))
    full = _full_rows(win_c, n)
    choices = tuple(c for c in range(n) if full >> c & 1)
    return WinAnalysis(g, k, dm, (win_c, win_r), rounds, choices)


def radius_capture_number(g: Graph) -> int | None:
    """Least k at which the cop wins, or None when g is disconnected.

    A disconnected g is answered by one BFS before any attractor work.
    Otherwise one incremental attractor pass runs over the closed balls,
    and no pair distance is stored. The cop-win region only grows with k,
    so the pass raises k from 0, adds the distance-k states (ball_k) as
    new capture targets and resumes propagation from the planes left at
    k - 1. Each state is won at most once over the whole pass, so it costs
    about one solve at the answer. It stops at the first k where some cop
    start wins against every robber placement. On a connected graph that
    is k = rad at the latest: ball_rad of every vertex holds a centre, so
    the centre's whole row is captured at once. The bound rc <= rad - 1 is
    checked where rc is reported, not assumed here. Ranks are not recorded.
    """
    n = g.n
    if n == 0:
        raise InvalidParam("empty graph has no radius")
    if not is_connected(g):
        return None
    win_c, win_r = [0] * n, [0] * n
    for k, ball in enumerate(balls(g)):
        for _ in _attract(g, win_c, win_r, ball):
            pass
        if _full_rows(win_c, n):
            return k
    raise InvariantViolation("the balls stopped growing with no full cop row")


@dataclass(frozen=True)
class Strategy:
    """Deterministic move rule for one role.

    For the cop, initial() gives the start vertex; for the robber,
    initial(cop_vertex) gives the reply placement. move(cop, robber)
    returns the mover's next vertex, always inside its closed neighborhood.
    positional marks a move that depends on (cop, robber) alone, as for
    the strategies read off a fixed table here; simulate closes a play-out
    of two positional strategies at its first repeated state.
    """

    role: str
    initial: Callable
    move: Callable[[int, int], int]
    name: str = ""
    positional: bool = False


def extract_cop_strategy(a: WinAnalysis) -> Strategy:
    """Rank-greedy winning cop: start at the lowest winning vertex, always
    move to a closed-neighborhood successor of minimal rank (ties to the
    lowest vertex index): the lowest bit of N[cop] in the earliest
    robber-to-move round that meets it. Outside the cop-win region the cop
    stays."""
    if not a.is_cop_win:
        raise NoWinningStrategy(f"cop does not win at radius {a.k}")
    closed_bits, rounds = a.graph.closed_bits, a.rounds
    start = a.initial_cop_choices[0]

    def move(cop: int, robber: int) -> int:
        reach = closed_bits[cop]
        for _, layer in rounds:
            bits = reach & layer.get(robber, 0)
            if bits:
                return (bits & -bits).bit_length() - 1
        return cop

    return Strategy("cop", lambda: start, move, "rank-greedy cop", positional=True)


def extract_robber_strategy(a: WinAnalysis) -> Strategy:
    """Evading robber: place and move so the game state stays outside the
    cop-win region; such a successor always exists at the attractor fixed
    point. Ties go to the lowest vertex index."""
    if a.is_cop_win:
        raise NoEvasionStrategy(f"cop wins at radius {a.k}; no evasion exists")
    closed = a.graph.closed
    win_c = a.columns[COP_TO_MOVE]

    def initial(cop: int) -> int:
        for r, bits in enumerate(win_c):
            if not bits >> cop & 1:
                return r
        raise InvariantViolation(f"no safe placement against cop at {cop}")

    def move(cop: int, robber: int) -> int:
        for y in closed[robber]:
            if not win_c[y] >> cop & 1:
                return y
        raise InvariantViolation(
            f"no safe move at state (cop={cop}, robber={robber})")

    return Strategy("robber", initial, move, "attractor-evading robber", positional=True)


class Step(NamedTuple):
    mover: str
    origin: int
    target: int
    distance: int


@dataclass
class Transcript:
    """Full record of one play-out: placements, every move, the outcome."""

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
             max_moves: int, dm: list[list[int]] | None = None) -> Transcript:
    """Play the two strategies against each other for at most max_moves
    single moves, checking capture after the placements and after every
    move. Deterministic for deterministic strategies.

    One step serves both sides: the cop moves at even move counts, the
    robber at odd ones, and every move is checked for legality and then
    for capture. When both strategies are positional, the play-out is a
    walk on the n^2 cop-to-move states, each keyed cop * n + robber to its
    index in steps. At the first repeated state no capture has happened
    and every later move repeats the cycle since that state, so the
    remaining moves up to max_moves are filled in from it (the Step
    objects are shared) and the robber survives.
    """
    if cop_strategy.role != "cop" or robber_strategy.role != "robber":
        raise InvalidParam("simulate needs a cop strategy and a robber strategy")
    if dm is None:
        dm = all_pairs_distances(g)
    n, closed_bits = g.n, g.closed_bits
    cop_start = cop_strategy.initial()
    robber_start = robber_strategy.initial(cop_start)
    if not (0 <= cop_start < n) or not (0 <= robber_start < n):
        raise IllegalMove(f"placement outside 0..{n - 1}")
    players = (cop_strategy, robber_strategy)   # indexed by turn
    at = [cop_start, robber_start]              # vertices, indexed by turn
    steps: list[Step] = []
    d0 = d = dm[cop_start][robber_start]
    seen = {} if cop_strategy.positional and robber_strategy.positional else None
    moves = 0
    while d > k and moves < max_moves:
        turn = moves & 1
        if seen is not None and turn == COP_TO_MOVE:
            start = seen.setdefault(at[0] * n + at[1], moves)
            if start != moves:
                steps.extend(islice(cycle(steps[start:]), max_moves - moves))
                moves = max_moves
                break
        origin = at[turn]
        nxt = players[turn].move(*at)
        if not (0 <= nxt < n and closed_bits[origin] >> nxt & 1):
            raise IllegalMove(f"move {origin}->{nxt} at state "
                              f"(cop={at[0]}, robber={at[1]}, turn={turn})")
        at[turn] = nxt
        moves += 1
        d = dm[at[0]][at[1]]
        steps.append(Step(players[turn].role, origin, nxt, d))
    outcome = "captured" if d <= k else "survived"
    return Transcript(cop_start, robber_start, d0, steps, outcome, moves)


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
    n, closed = a.graph.n, a.graph.closed

    def score(cop: int, robber: int) -> int:
        rank = a.rank(cop, robber)
        return rank if rank >= 0 else n * n * 4   # an escape outranks every rank

    def initial(cop: int) -> int:
        return max(range(n), key=lambda r: score(cop, r))

    def move(cop: int, robber: int) -> int:
        return max(closed[robber], key=lambda y: score(cop, y))

    return Strategy("robber", initial, move, "rank-max robber", positional=True)


def greedy_chase_cop_strategy(g: Graph, k: int,
                              dm: list[list[int]] | None = None) -> Strategy:
    """Distance-minimizing cop (no winning guarantee): start at the lowest
    center vertex, always move to the closed neighbor nearest the robber.
    The centre is read off the distance rows, whose maxima are the
    eccentricities. The moves do not depend on the capture radius k."""
    if g.n == 0:
        raise InvalidParam("empty graph has no radius")
    if dm is None:
        dm = all_pairs_distances(g)
    closed = g.closed
    ecc = [max(row) for row in dm]
    start = ecc.index(min(ecc))

    def move(cop: int, robber: int) -> int:
        row = dm[robber]
        return min(closed[cop], key=lambda y: (row[y], y))

    return Strategy("cop", lambda: start, move, "greedy-chase cop", positional=True)


def random_cop_strategy(g: Graph, k: int, seed: int) -> Strategy:
    """Seeded uniformly random cop policy, for robustness play-outs; the
    moves do not depend on the capture radius k."""
    rng = random.Random(seed)
    closed = g.closed

    def initial() -> int:
        return rng.randrange(g.n)

    def move(cop: int, robber: int) -> int:
        return rng.choice(closed[cop])

    return Strategy("cop", initial, move, f"random cop seed={seed}")


def certify_cop_strategy(a: WinAnalysis) -> int:
    """Exhaustively play the rank-greedy cop against every robber reply.

    Walks the full reachable game tree (at most 2n^2 states), checking that
    the rank drops on every ply and that each line ends in capture: a cop
    move from a state of rank t must land in robber-to-move round t - 1,
    and every robber reply in a cop-to-move round below that, found by
    scanning down from t - 2. Returns the worst-case number of single moves
    to capture over all robber placements. Raises InvariantViolation on any
    escape or rank violation.
    """
    strat = extract_cop_strategy(a)
    g, k, n = a.graph, a.k, a.graph.n
    dm, closed, rounds = a.dm, g.closed, a.rounds
    cop0 = strat.initial()
    seen_cop_states: set[int] = set()
    worst = 0
    for r0 in range(n):
        if dm[cop0][r0] <= k:
            continue
        t0 = a.rank(cop0, r0)
        if t0 < 0:
            raise InvariantViolation(
                f"placement {r0} escapes the certified cop start {cop0}")
        worst = max(worst, t0)
        stack = [(cop0, r0, t0)]
        while stack:
            c, r, t = stack.pop()
            state = c * n + r
            if state in seen_cop_states:
                continue
            seen_cop_states.add(state)
            c2 = strat.move(c, r)
            if t < 1 or not rounds[t - 1][ROBBER_TO_MOVE].get(r, 0) >> c2 & 1:
                raise InvariantViolation(
                    f"cop move {c}->{c2} does not reduce rank at robber {r}")
            if dm[c2][r] <= k:
                continue
            for r2 in closed[r]:
                if dm[c2][r2] <= k:
                    continue
                t2 = next((s for s in range(t - 2, -1, -1)
                           if rounds[s][COP_TO_MOVE].get(r2, 0) >> c2 & 1), -1)
                if t2 < 0:
                    raise InvariantViolation(
                        f"robber move {r}->{r2} escapes at cop {c2}")
                stack.append((c2, r2, t2))
    return worst
