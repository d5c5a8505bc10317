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
the robber maximizing. solve_cwrc and capture_radii both hand the kernel
two closed balls of rcgame.graph: ball_k, the capture targets, and
ball_{k+1}, the cops that reach them in one move. capture_radii is the
one rc search: from one ball sweep it gives a graph's rad, diam and rc,
and it answers a cycle from one BFS and the paper's bounds, with no
sweep, corner pass or kernel; radius_capture_number, the
command line's rows and every theorem check that needs rad and rc
together go through it. On every other graph it starts at the paper's
bound rc <= rad - 1, which one cop move proves, so it never probes at
rad - 1 or above; verify's bounds suite checks that bound with a solve
of its own. Before its first probe, greedy corner elimination,
corner_folds, decides k = 0 with no kernel, so every probe runs the
kernel at k >= 1; the same routine gives rcgame.verify its corner folds.
The kernel computes no ball of its own, and no solve builds pair
distances: only simulate and the greedy chase read distance rows.

A round's cop step costs one bigint AND-NOT per column of ball_{k+1} in
round 1, and after that one OR of a closed neighbourhood mask per newly
won robber-to-move state in a column where the cop has some cop-to-move
state left to win; a column the cop has won whole takes no OR. Each
visited bit is cleared with a mask from one table of n single-bit ints
built once per kernel call (about 60 KB on S(6,3)), so the step
allocates no shifted int per bit. Its robber step visits each column whose cop-to-move states changed
and each of their neighbours, and costs one XOR and then one AND per
neighbour of each visited column that holds a cop-to-move state won but
not yet robber-to-move; a column with none takes no AND. The corner pass
tests a vertex with one AND chain over the closed neighbourhoods of its
live neighbours, which stops as soon as it empties. The kernel reads adj
and closed_bits, as the ball sweep does; a strategy walks N[v] as
(v, *adj[v]).

Strategy, Step and Transcript are named tuples, and WinAnalysis is a
slotted class that compares by identity: like every record in the
package, they load no module beyond typing to define them.
"""

from __future__ import annotations

from collections import deque
from itertools import cycle, islice
from typing import Callable, Iterator, NamedTuple

from .errors import (
    IllegalMove,
    InvalidParam,
    InvariantViolation,
    NoEvasionStrategy,
    NoWinningStrategy,
    NotConnected,
)
from .graph import (
    _BINARY,
    Graph,
    _bfs_row,
    _sweep,
    all_pairs_distances,
    balls,
    is_connected,
)

COP_TO_MOVE = 0
ROBBER_TO_MOVE = 1


# identity equality as for any solve result, and no repr of the round layers
class WinAnalysis:
    """The cop-win region and capture ranks at a fixed radius, as the
    kernel leaves them.

    columns is the pair (cop to move, robber to move) of final planes: bit
    c of columns[turn][r] means state (c, r) is won. rounds[t] is the pair
    of dicts {r: bits} of the states first won in round t, so a state's
    rank is the round that holds it, and -1 outside the cop-win region.
    Round 0 holds exactly the capture states, so rank 0 is capture.
    initial_cop_choices lists the cop start vertices that beat every
    robber placement. It holds no pair distances.
    """

    __slots__ = ("graph", "k", "columns", "rounds", "initial_cop_choices")

    def __init__(self, graph: Graph, k: int, columns: tuple[list[int], list[int]],
                 rounds: list[tuple[dict[int, int], dict[int, int]]],
                 initial_cop_choices: tuple[int, ...]) -> None:
        self.graph = graph
        self.k = k
        self.columns = columns
        self.rounds = rounds
        self.initial_cop_choices = initial_cop_choices

    @property
    def is_cop_win(self) -> bool:
        return len(self.initial_cop_choices) > 0

    def cop_win(self, cop: int, robber: int, turn: int = COP_TO_MOVE) -> bool:
        return self.columns[turn][robber] >> cop & 1 == 1

    def rank(self, cop: int, robber: int, turn: int = COP_TO_MOVE) -> int:
        """Capture rank of a state, -1 outside the cop-win region.

        Above 0 a cop-to-move rank is odd and a robber-to-move rank even,
        by induction: a cop rank is 1 + the least robber rank it can move
        to, each 0 or even; a robber rank is 1 + the largest cop rank it
        can move to, each 0 or odd, and staying put leads to an uncaptured
        state of odd rank. So only round 0 and the rounds of the turn's
        parity are scanned.
        """
        if self.cop_win(cop, robber, turn):
            rounds = self.rounds
            if rounds[0][turn].get(robber, 0) >> cop & 1:
                return 0
            for t in range(1 + turn, len(rounds), 2):
                if rounds[t][turn].get(robber, 0) >> cop & 1:
                    return t
        return -1

    def _plane(self, turn: int) -> bytearray:
        n = self.graph.n
        plane = bytearray(n * n)
        for r, bits in enumerate(self.columns[turn]):
            plane[r::n] = f"{bits:0{n}b}"[::-1].encode().translate(_BINARY)
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


def _attract(g: Graph, win_c: list[int], win_r: list[int], ball: list[int],
             grown: list[int]):
    """Add the capture states ball to the cop-win region and propagate
    backwards, one level per round.

    win_c and win_r are the cop-to-move and robber-to-move planes: bit c
    of win_c[r] means state (c, r) is won. ball[r] is the bitset of cops
    that capture a robber at r, ball_k of rcgame.graph.balls; those not yet
    won are won in both planes in round 0. grown is ball_{k+1}, which the
    caller walked with ball_k. Round t reads the planes left by round
    t - 1:

    - cop step: (c, r) is won once the cop can move onto a robber-to-move
      state (y, r) won in round t - 1, i.e. c is in N[y];
    - robber step: (c, r) is won once (c, y) is won for every y in N[r];
      it can only change for a column whose win_c changed or one next to
      it. Those columns are the changed ones and their adj rows, and the
      AND for column r starts from win_c[r] ^ win_r[r], the states won
      with the cop to move but not yet with the robber to move, and runs
      over adj[r], unless that start is already 0.

    Then both steps are applied, and the round's newly won states are
    yielded as ({r: bits} cop to move, {r: bits} robber to move). A state
    first won in round t thus has rank t = 1 + the least (cop) or largest
    (robber) rank among its successors. The generator ends at the fixed
    point.

    The input planes must be a fixed point: empty, or left by an earlier
    call at a smaller k. Their flags then stay exact, since the region only
    grows with k, and round 1's cop step is grown[r] & ~win_c[r]: ball_{k+1}
    [r] holds the cops next to ball_k[r], and a cop next to a robber-to-move
    state won before round 0 is already in win_c. The kernel drops ball
    after round 0 and grown after round 1, so past round 1 it holds no
    ball, and a caller that holds neither has none either. Later cop
    steps OR the closed neighbourhoods of the newly won states, taking the
    top set bit y each time and clearing it with bit[y], from one table of
    the n single-bit masks built per call, but skip a column r whose
    win_c[r] is already full: every cop there has won, so the OR would be
    masked to 0.

    The robber step's XOR equals win_c[r] & ~win_r[r] because win_r[r] is
    a subset of win_c[r] in every column, on entry and after every round.
    It holds for empty planes, and so for every fixed point an earlier
    call leaves, by the rest of this argument. Round 0 adds each capture
    state to both planes. No bit of either plane is ever cleared, and a
    robber-to-move bit is only won by the AND chain, which starts inside
    win_c[r], so every new robber-to-move state is already won with the
    cop to move.
    """
    adj, closed_bits = g.adj, g.closed_bits
    n = g.n
    full = (1 << n) - 1
    bit = [1 << y for y in range(n)]
    cop, robber = {}, {}
    for r, bits in enumerate(ball):
        fresh = bits & ~win_c[r]
        if fresh:
            cop[r] = fresh
            win_c[r] |= fresh
        fresh = bits & ~win_r[r]
        if fresh:
            robber[r] = fresh
            win_r[r] |= fresh
    del ball
    while cop or robber:
        yield cop, robber
        new_c, new_r = cop, robber
        cop, robber = {}, {}
        if grown is not None:
            for r, bits in enumerate(grown):
                reach = bits & ~win_c[r]
                if reach:
                    cop[r] = reach
            grown = None
        else:
            for r, bits in new_r.items():
                open_cops = full ^ win_c[r]
                if not open_cops:         # every cop already wins column r
                    continue
                reach = 0
                while bits:
                    y = bits.bit_length() - 1
                    reach |= closed_bits[y]
                    bits ^= bit[y]
                reach &= open_cops
                if reach:
                    cop[r] = reach
        for r in set(new_c).union(*map(adj.__getitem__, new_c)):
            safe = win_c[r] ^ win_r[r]
            if not safe:
                continue
            for y in adj[r]:
                safe &= win_c[y]
            if safe:
                robber[r] = safe
        for r, bits in cop.items():
            win_c[r] |= bits
        for r, bits in robber.items():
            win_r[r] |= bits


def solve_cwrc(g: Graph, k: int, dm: list[list[int]] | None = None) -> WinAnalysis:
    """Decide whether the cop wins the radius-k game on connected g
    (NotConnected otherwise, from one BFS of is_connected; InvalidParam
    when g is empty).

    The solve reads closed balls only and builds no pair distances; dm is
    not read, and stays only for callers that pass it positionally.

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
    if not is_connected(g):
        raise NotConnected("the graph is disconnected; the game needs a connected graph")
    for level, grown in enumerate(islice(balls(g), k + 2)):
        if level <= k:          # past the diameter both are the last ball
            ball = grown
    win_c, win_r = [0] * n, [0] * n
    solve = _attract(g, win_c, win_r, ball, grown)
    del ball, grown             # so the kernel's own drops free them
    rounds = list(solve)
    full = _full_rows(win_c, n)
    choices = tuple(c for c in range(n) if full >> c & 1)
    return WinAnalysis(g, k, (win_c, win_r), rounds, choices)


def corner_folds(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Greedy corner elimination on connected g: the corner-free core, a
    bitset of live vertices, and the folds (u, v) that took g down to it.

    A live vertex u is a corner when N[u] & alive lies inside N[v] for a
    live v in adj[u]; it is folded onto the lowest such v and removed.
    Each fold u -> v is a retraction, so the core is a retract of g.
    Since v is in N[w] exactly when w is in N[v], the live neighbours v
    that dominate u are one AND chain: N[u] & rest, rest the live vertices
    but u, ANDed with N[w] for each live w in adj[u], stopping as soon as
    it empties. u is a corner iff the chain ends nonzero, and its lowest
    bit is the lowest dominating neighbour.
    todo holds the live vertices still to test, lowest first: all of them
    at first, then the live neighbours of each removed vertex, the only
    ones whose test the removal can change. So the first fold is g's
    lowest corner onto its lowest dominating neighbour. The last vertex
    has no live neighbour, so alive never empties.
    """
    adj, closed_bits = g.adj, g.closed_bits
    alive = todo = (1 << g.n) - 1
    folds = []
    while todo:
        u = (todo & -todo).bit_length() - 1
        todo ^= 1 << u
        rest = alive ^ 1 << u
        dominators = closed_bits[u] & rest
        for w in adj[u]:
            if rest >> w & 1:
                dominators &= closed_bits[w]
                if not dominators:
                    break
        if dominators:
            alive = rest
            todo |= closed_bits[u] & rest
            folds.append((u, (dominators & -dominators).bit_length() - 1))
    return alive, folds


def radius_capture_number(g: Graph) -> int | None:
    """Least k at which the cop wins, or None when g is disconnected: the
    rc of capture_radii."""
    radii = capture_radii(g)
    return None if radii is None else radii[2]


def capture_radii(g: Graph) -> tuple[int, int, int] | None:
    """(rad, diam, rc) of g, or None when g is disconnected (InvalidParam
    when g is empty); rc is the least k at which the cop wins.

    A cycle C_n, n >= 4, is answered first, from the one BFS that finds
    g connected, with no closed_bits, ball sweep, corner pass or kernel.
    Only m = n > 3 can be one: every other g pays that one comparison, and
    an m = n g also scans degrees up to its first vertex whose degree is
    not 2. The test leaves out n = 0 and K_3, which _sweep answers as
    below. With m = n and every degree 2, g is a union of cycles, and
    connected it is C_n. Every vertex has ecc floor(n/2), so rad = diam =
    floor(n/2), and the radius bound below gives rc <= floor(n/2) - 1.
    The robber evades at k = floor(n/2) - 2, so that bound is rc, and
    meets the paper's girth bound rc >= floor(girth/2) - 1: the robber
    places at the cop's antipode, at distance floor(n/2); a cop move
    leaves at least floor(n/2) - 1 > k; the robber then steps away from
    the cop, which restores floor(n/2), since at distance d < floor(n/2)
    the other arc is n - d >= d + 2 long, or stays put when the cop did.
    So the distance never falls below floor(n/2) - 1.

    Every other g takes the one ball sweep of rcgame.graph._sweep. It
    answers a disconnected g before any attractor work, and otherwise
    gives rad, diam and top, the balls at max(rad - 2, 0) .. rad - 1; it
    reads a complete g off its edge count, with no closed_bits and no BFS.

    The cop wins at k = max(rad - 1, 0), the paper's bound rc <= rad - 1,
    by one move: a cop placed at a centre c (ecc(c) = rad >= 1) is within
    rad of any robber placement and steps toward it first, so they are
    within rad - 1 after its move; K_1 (rad 0) is captured at placement.
    So rad <= 1 runs no search at all.

    On rad >= 2, one corner_folds pass decides the radius-0 game, the
    classic cop-and-robber game, before any probe. If it leaves one
    vertex, g is dismantlable, so cop-win (Nowakowski and Winkler,
    Discrete Math. 43, 1983; Quilliot, 1978), and rc = 0 at any radius.
    Otherwise the corner-free core H, of more than one vertex, is a
    retract of g that is not cop-win; the paper's rc(H) <= rc(g) gives
    rc >= 1. The cop-win region only grows with k, so the search bisects
    on (lo, hi] = (0, rad - 1] with kernel probes alone, and a rad-2 row
    runs none. The first probe is at rad - 2, where the bound is tight on
    most graphs, and a losing probe there decides rc = rad - 1 alone;
    every later probe is at (lo + hi) // 2. So the bound is never
    computed here; verify's bounds suite checks it with a solve of its
    own. A probe solves from a copy of the planes of the last losing
    probe (empty at first), a fixed point below k, so the kernel's flags
    stay exact.

    A losing probe runs to its fixed point and sets lo. A winning probe
    is dropped at its verdict: the search stops consuming _attract after
    the first round with new cop bits that leaves a full cop row, which
    no later round can empty. On S(6,3) (rc 47, rad 48) the one probe, at
    46, loses in 65 rounds. A cop that already wins at rad - 2 takes about
    log2(rad) more probes: five in all on S(4,4) (rc 11, rad 14), at 12,
    6, 9, 10 and 11.

    A probe at k needs ball_k, the capture states, and ball_{k+1} for its
    first cop step. The first probe, at rad - 2, reads the sweep's pair,
    taking both balls out of top; every later probe is below it and walks
    both again with balls(g). A search whose only probe is the first so
    makes diam - 1 dilates, those of the sweep, and none on a complete
    graph. The search names neither ball of the pair, so the kernel's
    drops free them; it holds at most one pair of balls, never one per
    radius, and at most two pairs of planes.
    """
    n = g.n
    if g.m == n > 3 and all(len(row) == 2 for row in g.adj):
        if -1 in _bfs_row(g.adj, n, 0):
            return None
        return n // 2, n // 2, n // 2 - 1    # C_n
    swept = _sweep(g)
    if swept is None:
        return None
    rad, diam, top = swept
    lo, hi = -1, max(rad - 1, 0)
    if hi:                               # rad >= 2: decide k = 0 first
        core, _ = corner_folds(g)
        lo, hi = (0, hi) if core & core - 1 else (-1, 0)
    k = hi - 1                           # rad - 2, the level of top[0]
    lose_c, lose_r = [0] * n, [0] * n    # the last losing probe's planes
    while hi - lo > 1:
        win_c, win_r = lose_c.copy(), lose_r.copy()
        for cop, _ in _attract(g, win_c, win_r, *(
                (top.pop(0), top.pop(0)) if top
                else islice(balls(g), k, k + 2))):
            if cop and _full_rows(win_c, n):
                hi = k
                break
        else:
            lo, lose_c, lose_r = k, win_c, win_r
        k = (lo + hi) // 2
    return rad, diam, hi


class Strategy(NamedTuple):
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


def _greedy_cop_move(a: WinAnalysis, cop: int, robber: int, t: int) -> int:
    """The rank-greedy cop's move at a cop-to-move state of rank t: the
    lowest vertex of N[cop] in robber-to-move round max(t - 1, 0), or -1
    when that round misses N[cop], as it does outside the cop-win region."""
    layer = a.rounds[max(t - 1, 0)][ROBBER_TO_MOVE]
    bits = a.graph.closed_bits[cop] & layer.get(robber, 0)
    return (bits & -bits).bit_length() - 1


def extract_cop_strategy(a: WinAnalysis) -> Strategy:
    """Rank-greedy winning cop: start at the lowest winning vertex and move
    by _greedy_cop_move at the state's rank.

    On a connected graph a cop that wins from one start wins every
    cop-to-move state (walk to that start, then play it), so a state of
    rank -1, or one whose round below holds no closed neighbour, means a
    tampered analysis and raises InvariantViolation.
    """
    if not a.is_cop_win:
        raise NoWinningStrategy(f"cop does not win at radius {a.k}")
    start = a.initial_cop_choices[0]

    def move(cop: int, robber: int) -> int:
        t = a.rank(cop, robber)
        y = _greedy_cop_move(a, cop, robber, t) if t >= 0 else -1
        if y < 0:
            raise InvariantViolation(
                f"no rank-reducing cop move at state (cop={cop}, robber={robber})")
        return y

    return Strategy("cop", lambda: start, move, "rank-greedy cop", positional=True)


def extract_robber_strategy(a: WinAnalysis) -> Strategy:
    """Evading robber: place and move so the game state stays outside the
    cop-win region; such a successor always exists at the attractor fixed
    point. Ties go to the lowest vertex index."""
    if a.is_cop_win:
        raise NoEvasionStrategy(f"cop wins at radius {a.k}; no evasion exists")
    adj = a.graph.adj
    win_c = a.columns[COP_TO_MOVE]

    def initial(cop: int) -> int:
        for r, bits in enumerate(win_c):
            if not bits >> cop & 1:
                return r
        raise InvariantViolation(f"no safe placement against cop at {cop}")

    def move(cop: int, robber: int) -> int:
        safe = [y for y in (robber, *adj[robber]) if not win_c[y] >> cop & 1]
        if not safe:
            raise InvariantViolation(
                f"no safe move at state (cop={cop}, robber={robber})")
        return min(safe)

    return Strategy("robber", initial, move, "attractor-evading robber", positional=True)


class Step(NamedTuple):
    mover: str
    origin: int
    target: int
    distance: int


class Transcript(NamedTuple):
    """Full record of one play-out: placements, the steps played, the outcome.

    steps holds each step played. A play-out that closed on a cycle played
    fewer steps than moves; its cycle_start is the index in steps where the
    cycle starts, and every later move repeats steps[cycle_start:]. Any
    other play-out has cycle_start None and one step per move.
    all_steps() yields one Step per move in either case, repeating the
    cycle up to the move cap from one copy of it, never a list of every
    move."""

    cop_start: int
    robber_start: int
    start_distance: int
    steps: list[Step]
    outcome: str          # "captured" or "survived"
    moves: int
    cycle_start: int | None = None

    @property
    def captured(self) -> bool:
        return self.outcome == "captured"

    def all_steps(self) -> Iterator[Step]:
        yield from self.steps
        if self.cycle_start is not None:
            yield from islice(cycle(self.steps[self.cycle_start:]),
                              self.moves - len(self.steps))


def simulate(g: Graph, k: int, cop_strategy: Strategy, robber_strategy: Strategy,
             max_moves: int, dm: list[list[int]] | None = None) -> Transcript:
    """Play the two strategies against each other for at most max_moves
    single moves, checking capture after the placements and after every
    move; a negative max_moves is InvalidParam. Deterministic for
    deterministic strategies. Capture reads g's distance rows dm, built
    here when the caller hands none.

    One step serves both sides: the cop moves at even move counts, the
    robber at odd ones, and every move is checked for legality and then
    for capture. When both strategies are positional, the play-out is a
    walk on the n^2 cop-to-move states, each keyed cop * n + robber to its
    index in steps. At the first repeated state no capture has happened
    and every later move repeats the cycle since that state, so the play-out
    ends there and the robber survives with moves = max_moves: the
    transcript keeps the steps played and the index where the cycle starts,
    in memory of the order of the distinct states visited, not of max_moves.
    """
    if cop_strategy.role != "cop" or robber_strategy.role != "robber":
        raise InvalidParam("simulate needs a cop strategy and a robber strategy")
    if max_moves < 0:
        raise InvalidParam(f"max_moves must be >= 0, got {max_moves}")
    if dm is None:
        dm = all_pairs_distances(g)
    n, closed_bits = g.n, g.closed_bits
    cop_start = cop_strategy.initial()
    if not 0 <= cop_start < n:
        raise IllegalMove(f"placement outside 0..{n - 1}")
    robber_start = robber_strategy.initial(cop_start)
    if not 0 <= robber_start < n:
        raise IllegalMove(f"placement outside 0..{n - 1}")
    players = (cop_strategy, robber_strategy)   # indexed by turn
    at = [cop_start, robber_start]              # vertices, indexed by turn
    steps: list[Step] = []
    cycle_start = None
    d0 = d = dm[cop_start][robber_start]
    seen = {} if cop_strategy.positional and robber_strategy.positional else None
    moves = 0
    while d > k and moves < max_moves:
        turn = moves & 1
        if seen is not None and turn == COP_TO_MOVE:
            start = seen.setdefault(at[0] * n + at[1], moves)
            if start != moves:
                cycle_start, moves = start, max_moves
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
    return Transcript(cop_start, robber_start, d0, steps, outcome, moves, cycle_start)


def naive_rc_oracle(g: Graph) -> int | None:
    """Independent slow oracle for the radius capture number: None when g
    is disconnected, InvalidParam when g is empty, as radius_capture_number.

    Recomputes distances with its own BFS and labels cop-win states by
    repeated full sweeps to a fixed point (no counters, no early exit),
    scanning k upward from 0. Intended for small graphs.
    """
    n = g.n
    if n == 0:
        raise InvalidParam("empty graph has no radius")
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
    n, adj = a.graph.n, a.graph.adj

    def score(cop: int, robber: int) -> int:
        rank = a.rank(cop, robber)
        return rank if rank >= 0 else n * n * 4   # an escape outranks every rank

    def initial(cop: int) -> int:
        return max(range(n), key=lambda r: score(cop, r))

    def move(cop: int, robber: int) -> int:
        return max((robber, *adj[robber]), key=lambda y: (score(cop, y), -y))

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
    adj = g.adj
    ecc = [max(row) for row in dm]
    start = ecc.index(min(ecc))

    def move(cop: int, robber: int) -> int:
        row = dm[robber]
        return min((cop, *adj[cop]), key=lambda y: (row[y], y))

    return Strategy("cop", lambda: start, move, "greedy-chase cop", positional=True)


def certify_cop_strategy(a: WinAnalysis) -> int:
    """Exhaustively play the rank-greedy cop against every robber reply.

    Walks the reachable game tree (at most 2n^2 states) on the solved
    rounds alone, carrying each cop-to-move state's rank t; rank 0 is
    capture. The cop moves by _greedy_cop_move at t, which must find a
    vertex; every robber reply must lie in a cop-to-move round below t - 1:
    round 0, or an odd round (see WinAnalysis.rank), scanning down by 2
    from t - 2. Each reached state's rank is found once and kept in a dict
    keyed c * n + r: a reply met again is checked against t - 2 from the
    dict and not walked again. Returns the worst-case number of moves to
    capture; raises InvariantViolation on any escape or rank violation.
    """
    cop0 = extract_cop_strategy(a).initial()
    n, adj = a.graph.n, a.graph.adj
    cop_rounds = [layer[COP_TO_MOVE] for layer in a.rounds]
    ranks: dict[int, int] = {}        # cop-to-move state c * n + r -> rank
    worst = 0
    for r0 in range(n):
        t0 = a.rank(cop0, r0)
        if t0 == 0:
            continue
        if t0 < 0:
            raise InvariantViolation(
                f"placement {r0} escapes the certified cop start {cop0}")
        worst = max(worst, t0)
        state = cop0 * n + r0
        if state in ranks:
            continue
        ranks[state] = t0
        stack = [(cop0, r0, t0)]
        while stack:
            c, r, t = stack.pop()
            c2 = _greedy_cop_move(a, c, r, t)
            if c2 < 0:
                raise InvariantViolation(
                    f"cop move from {c} does not reduce rank at robber {r}")
            if t == 1:
                continue                  # c2 is in round 0: capture
            for r2 in (r, *adj[r]):
                state = c2 * n + r2
                t2 = ranks.get(state)
                if t2 is None:
                    t2 = t - 2
                    while t2 > 0 and not cop_rounds[t2].get(r2, 0) >> c2 & 1:
                        t2 -= 2
                    if t2 > 0:
                        stack.append((c2, r2, t2))
                    elif not cop_rounds[0].get(r2, 0) >> c2 & 1:
                        t2 = t            # in no round below t - 1
                    ranks[state] = t2
                if t2 > t - 2:
                    raise InvariantViolation(
                        f"robber move {r}->{r2} escapes at cop {c2}")
    return worst
