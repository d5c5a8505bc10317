"""Solver correctness: attractor, capture numbers, strategies, play-outs."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from rcgame.engine import (
    Strategy,
    certify_cop_strategy,
    extract_cop_strategy,
    extract_robber_strategy,
    greedy_chase_cop_strategy,
    naive_rc_oracle,
    radius_capture_number,
    random_cop_strategy,
    rank_max_robber_strategy,
    simulate,
    solve_cwrc,
)
from rcgame.errors import (
    IllegalMove,
    InvalidParam,
    InvariantViolation,
    NoEvasionStrategy,
    NotConnected,
    NoWinningStrategy,
)
from rcgame.generators import (
    basic_family,
    generalized_johnson,
    hypercube,
    random_connected_gnp,
    sierpinski,
)
from rcgame.graph import all_pairs_distances, build_graph, eccentricities, girth


def test_solve_c4():
    c4 = basic_family("cycle", 4)
    assert not solve_cwrc(c4, 0).is_cop_win
    assert solve_cwrc(c4, 1).is_cop_win


def test_solve_k5_every_start_wins():
    a = solve_cwrc(basic_family("complete", 5), 0)
    assert a.initial_cop_choices == tuple(range(5))


def test_solve_petersen_not_copwin(petersen):
    assert not solve_cwrc(petersen, 0).is_cop_win
    assert naive_rc_oracle(petersen) == 1


def test_solve_errors():
    with pytest.raises(NotConnected):
        solve_cwrc(build_graph(4, [(0, 1), (2, 3)]), 1)
    with pytest.raises(InvalidParam):
        solve_cwrc(basic_family("cycle", 4), -1)
    with pytest.raises(InvalidParam, match="empty graph has no radius"):
        solve_cwrc(build_graph(0, []), 0)


def test_capture_rank_semantics():
    # on C_4 at k=1 a cop-win state two apart resolves in one cop move
    a = solve_cwrc(basic_family("cycle", 4), 1)
    assert a.cop_win(0, 2) and a.rank(0, 2) == 1
    assert a.rank(0, 1) == 0


def test_radius_capture_number_examples():
    assert radius_capture_number(basic_family("cycle", 7)) == 2
    assert radius_capture_number(hypercube(4)) == 3
    assert radius_capture_number(build_graph(4, [(0, 1), (2, 3)])) is None
    assert radius_capture_number(basic_family("complete", 1)) == 0


def test_rc_beyond_one_machine_word():
    # the planes are one bigint per column; these need more than 64 bits
    assert radius_capture_number(generalized_johnson(70, 1, 0)) == 0
    j932 = generalized_johnson(9, 3, 2)
    assert j932.n == 84
    assert radius_capture_number(j932) == 2
    assert naive_rc_oracle(j932) == 2


def test_rc_disconnected_needs_no_attractor(monkeypatch):
    # a disconnected graph is answered by one BFS before any attractor round
    def no_attractor(*args):
        raise AssertionError("attractor ran on a disconnected graph")

    monkeypatch.setattr("rcgame.engine._attract", no_attractor)
    two_copies = build_graph(18, [(u + 9 * i, v + 9 * i) for i in range(2)
                                  for u, v in sierpinski(2, 3).edges()])
    assert radius_capture_number(two_copies) is None
    assert radius_capture_number(build_graph(3, [])) is None


def per_k_scan(g):
    """Reference for the incremental pass: the least k at which a fresh
    solve_cwrc is a cop win (some k <= diam always is)."""
    dm = all_pairs_distances(g)
    return next(k for k in itertools.count() if solve_cwrc(g, k, dm).is_cop_win)


def test_rc_matches_per_k_scan():
    for g in [basic_family("cycle", 9), basic_family("path", 6), hypercube(3),
              generalized_johnson(5, 2, 0), sierpinski(3, 3),
              basic_family("complete", 1)]:
        assert radius_capture_number(g) == per_k_scan(g)


def test_copwin_monotone_in_radius():
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.2, 0.8),
                                 rng.getrandbits(32))
        dm = all_pairs_distances(g)
        rad = min(eccentricities(g))
        wins = [solve_cwrc(g, k, dm).is_cop_win for k in range(rad + 1)]
        assert all(b or not a for a, b in zip(wins, wins[1:]))
        assert wins[-1]


def test_bound_sandwich_small():
    rng = random.Random(17)
    for _ in range(30):
        g = random_connected_gnp(rng.randint(2, 10), rng.uniform(0.2, 0.8),
                                 rng.getrandbits(32))
        rc = radius_capture_number(g)
        rad = min(eccentricities(g))
        assert max(0, girth(g) // 2 - 1) <= rc <= max(0, rad - 1)


def test_oracle_equivalence_small():
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.2, 0.8),
                                 rng.getrandbits(32))
        expected = naive_rc_oracle(g)
        assert per_k_scan(g) == expected
        assert radius_capture_number(g) == expected


def _gnp(n, p, seed):
    """G(n, p) as drawn, connected or not."""
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                           if rng.random() < p])


@settings(max_examples=60, deadline=None)
@given(st.builds(_gnp, st.integers(2, 10), st.floats(0.0, 0.8),
                 st.integers(0, 2 ** 32 - 1)))
@example(build_graph(3, []))
@example(build_graph(4, [(0, 1), (1, 2), (0, 2)]))
def test_rc_property_small_gnp(g):
    # the pass decides connectivity itself: a disconnected draw gives None
    rc = radius_capture_number(g)
    assert rc == naive_rc_oracle(g)
    ecc = eccentricities(g)
    if ecc is None:
        assert rc is None
    else:
        assert girth(g) // 2 - 1 <= rc <= min(ecc) - 1


def test_oracle_examples():
    assert naive_rc_oracle(basic_family("path", 5)) == 0
    assert naive_rc_oracle(basic_family("cycle", 5)) == 1
    assert naive_rc_oracle(generalized_johnson(4, 2, 1)) == 1
    assert naive_rc_oracle(build_graph(4, [(0, 1), (2, 3)])) is None


def test_circulant_attains_radius_bound():
    # Cayley graphs of cyclic groups keep rc == rad - 1
    from rcgame.generators import circulant
    for n, steps in [(8, {1, 2}), (9, {1, 3}), (11, {1, 2})]:
        g = circulant(n, steps)
        rad = min(eccentricities(g))
        assert radius_capture_number(g) == rad - 1


def test_cop_strategy_c4():
    a = solve_cwrc(basic_family("cycle", 4), 1)
    t = simulate(a.graph, 1, extract_cop_strategy(a), rank_max_robber_strategy(a), 100)
    assert t.captured and t.moves <= 1


def test_cop_strategy_complete_immediate():
    g = basic_family("complete", 6)
    a = solve_cwrc(g, 0)
    t = simulate(g, 0, extract_cop_strategy(a), rank_max_robber_strategy(a), 100)
    assert t.captured and t.moves <= 1


def test_cop_strategy_exhaustive_s23():
    assert certify_cop_strategy(solve_cwrc(sierpinski(2, 3), 2)) >= 1


def test_cop_strategy_exhaustive_random():
    rng = random.Random(41)
    for _ in range(15):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.2, 0.8),
                                 rng.getrandbits(32))
        rc = radius_capture_number(g)
        certify_cop_strategy(solve_cwrc(g, rc))


def test_strategy_extraction_preconditions():
    c6 = basic_family("cycle", 6)
    with pytest.raises(NoWinningStrategy):
        extract_cop_strategy(solve_cwrc(c6, 1))
    with pytest.raises(NoEvasionStrategy):
        extract_robber_strategy(solve_cwrc(c6, 2))


def _assert_far_enough(transcript, k):
    for step in transcript.steps:
        if step.mover == "robber":
            assert step.distance >= k + 1
        else:
            assert step.distance >= k


def test_robber_strategy_c6():
    c6 = basic_family("cycle", 6)
    a = solve_cwrc(c6, 1)
    robber = extract_robber_strategy(a)
    t = simulate(c6, 1, greedy_chase_cop_strategy(c6, 1), robber, 4 * 36)
    assert t.outcome == "survived" and t.moves == 4 * 36
    _assert_far_enough(t, 1)


def test_robber_strategy_q3():
    q3 = hypercube(3)
    a = solve_cwrc(q3, 1)
    t = simulate(q3, 1, greedy_chase_cop_strategy(q3, 1), extract_robber_strategy(a),
                 4 * 64)
    assert t.outcome == "survived"
    _assert_far_enough(t, 1)


def test_robber_strategy_cubic_vt(cubic_vt):
    a = solve_cwrc(cubic_vt, 2)
    assert not a.is_cop_win
    t = simulate(cubic_vt, 2, greedy_chase_cop_strategy(cubic_vt, 2),
                 extract_robber_strategy(a), 4 * 24 * 24)
    assert t.outcome == "survived"
    _assert_far_enough(t, 2)


def test_robber_survives_random_cop_policies():
    c7 = basic_family("cycle", 7)
    a = solve_cwrc(c7, 1)
    robber = extract_robber_strategy(a)
    for seed in range(100):
        t = simulate(c7, 1, random_cop_strategy(c7, 1, seed), robber, 4 * 49)
        assert t.outcome == "survived"
        _assert_far_enough(t, 1)


def test_simulate_c8_capture_on_cop_move():
    c8 = basic_family("cycle", 8)
    a = solve_cwrc(c8, 3)
    t = simulate(c8, 3, extract_cop_strategy(a), rank_max_robber_strategy(a), 1000)
    assert t.captured
    assert t.steps[-1].mover == "cop"


def test_simulate_survival_by_pigeonhole():
    c8 = basic_family("cycle", 8)
    a = solve_cwrc(c8, 2)
    t = simulate(c8, 2, greedy_chase_cop_strategy(c8, 2), extract_robber_strategy(a),
                 4 * 2 * 64)
    assert t.outcome == "survived" and t.moves == 512


def _play(t):
    return (t.cop_start, t.robber_start, t.start_distance, t.outcome, t.moves,
            tuple(t.steps))


@settings(max_examples=60, deadline=None)
@given(st.builds(random_connected_gnp, st.integers(2, 10), st.floats(0.15, 0.7),
                 st.integers(0, 2 ** 32 - 1)))
@example(basic_family("cycle", 8))
@example(hypercube(3))
@example(generalized_johnson(5, 2, 0))
@example(sierpinski(2, 3))
def test_cycle_closing_matches_move_by_move_play(g):
    # the package's strategies are positional, so simulate closes their
    # play-outs at the first repeated state; the same strategies marked
    # non-positional are played move by move and must give the same transcript
    dm = all_pairs_distances(g)
    rc = radius_capture_number(g)
    win = solve_cwrc(g, rc, dm)
    pairs = [(rc, extract_cop_strategy(win), rank_max_robber_strategy(win))]
    if rc >= 1:
        lose = solve_cwrc(g, rc - 1, dm)
        pairs.append((rc - 1, greedy_chase_cop_strategy(g, rc - 1, dm),
                      extract_robber_strategy(lose)))
    for k, cop, robber in pairs:
        assert cop.positional and robber.positional
        plain_cop = replace(cop, positional=False)
        plain_robber = replace(robber, positional=False)
        for max_moves in (0, 1, 2, 7, 4 * g.n * g.n + 1):
            fast = simulate(g, k, cop, robber, max_moves, dm)
            assert len(fast.steps) == fast.moves <= max_moves
            assert _play(fast) == _play(simulate(g, k, plain_cop, plain_robber,
                                                 max_moves, dm))


@pytest.mark.parametrize("g,k", [
    (basic_family("cycle", 8), 2),
    (hypercube(3), 1),
    (sierpinski(3, 3), 4),
    (generalized_johnson(7, 3, 2), 1),
])
def test_positional_play_out_moves_once_per_state(g, k):
    a = solve_cwrc(g, k)
    calls = {"cop": 0, "robber": 0}

    def counted(strategy):
        def move(cop, robber):
            calls[strategy.role] += 1
            return strategy.move(cop, robber)
        return replace(strategy, move=move)

    cop = counted(greedy_chase_cop_strategy(g, k, a.dm))
    robber = counted(extract_robber_strategy(a))
    budget = 4 * g.n * g.n
    t = simulate(g, k, cop, robber, budget, a.dm)
    assert t.outcome == "survived" and t.moves == len(t.steps) == budget
    # one cop and one robber move per distinct cop-to-move state visited
    assert calls["cop"] <= g.n * g.n and calls["robber"] <= g.n * g.n
    calls.update(cop=0, robber=0)
    t = simulate(g, k, replace(cop, positional=False),
                 replace(robber, positional=False), budget, a.dm)
    assert t.moves == budget and calls["cop"] + calls["robber"] == budget


def test_simulate_immediate_capture_at_placement():
    g = basic_family("cycle", 5)
    cop = Strategy("cop", lambda: 0, lambda c, r: c)
    robber = Strategy("robber", lambda c: 1, lambda c, r: r)
    t = simulate(g, 1, cop, robber, 0)
    assert t.captured and t.moves == 0 and t.steps == []


def test_simulate_illegal_move_detected():
    g = basic_family("cycle", 6)
    cop = Strategy("cop", lambda: 0, lambda c, r: 3)
    robber = Strategy("robber", lambda c: 3, lambda c, r: r)
    with pytest.raises(IllegalMove):
        simulate(g, 0, cop, robber, 10)
    with pytest.raises(InvalidParam):
        simulate(g, 0, robber, cop, 10)


def test_rank_strictly_decreases_along_cop_play():
    g = basic_family("cycle", 10)
    a = solve_cwrc(g, radius_capture_number(g))
    cop = extract_cop_strategy(a)
    robber = rank_max_robber_strategy(a)
    c = cop.initial()
    r = robber.initial(c)
    last = a.rank(c, r)
    guard = 0
    while a.dm[c][r] > a.k and guard < 1000:
        c = cop.move(c, r)
        guard += 1
        if a.dm[c][r] <= a.k:
            break
        r = robber.move(c, r)
        current = a.rank(c, r)
        assert current < last
        last = current
    assert a.dm[c][r] <= a.k


def _minimax_ranks(g, k):
    """Oracle: grounded value iteration for the rank equations.

    rank(cop-to-move) = 1 + min successor rank, rank(robber-to-move) =
    1 + max successor rank, 0 on capture states; values only defined for
    cop-win states and shrink monotonically to the least grounded fixpoint.
    """
    dm = all_pairs_distances(g)
    n = g.n
    closed = [sorted((*g.adj[v], v)) for v in range(n)]
    rank_c, rank_r = {}, {}
    for c in range(n):
        for r in range(n):
            if dm[c][r] <= k:
                rank_c[(c, r)] = rank_r[(c, r)] = 0
    changed = True
    while changed:
        changed = False
        for c in range(n):
            for r in range(n):
                if dm[c][r] <= k:
                    continue
                vals = [rank_r[(y, r)] for y in closed[c] if (y, r) in rank_r]
                if vals and rank_c.get((c, r), 1 << 30) > 1 + min(vals):
                    rank_c[(c, r)] = 1 + min(vals)
                    changed = True
                vals = [rank_c.get((c, y)) for y in closed[r]]
                if all(v is not None for v in vals):
                    cand = 1 + max(vals)
                    if rank_r.get((c, r), 1 << 30) > cand:
                        rank_r[(c, r)] = cand
                        changed = True
    return rank_c, rank_r


def _assert_ranks_match_oracle(g, k):
    a = solve_cwrc(g, k)
    rank_c, rank_r = _minimax_ranks(g, k)
    for c in range(g.n):
        for r in range(g.n):
            assert a.cop_win(c, r, 0) == ((c, r) in rank_c)
            assert a.cop_win(c, r, 1) == ((c, r) in rank_r)
            assert a.rank(c, r, 0) == rank_c.get((c, r), -1)
            assert a.rank(c, r, 1) == rank_r.get((c, r), -1)
    expected_choices = tuple(c for c in range(g.n)
                             if all((c, r) in rank_c for r in range(g.n)))
    assert a.initial_cop_choices == expected_choices


@pytest.mark.parametrize("make,k", [
    (lambda: basic_family("cycle", 5), 1),
    (lambda: basic_family("path", 4), 0),
    (lambda: generalized_johnson(5, 2, 0), 1),
    (lambda: sierpinski(2, 3), 2),
    (lambda: hypercube(3), 1),
])
def test_attractor_ranks_match_minimax_oracle(make, k):
    _assert_ranks_match_oracle(make(), k)


@settings(max_examples=60, deadline=None)
@given(st.builds(random_connected_gnp, st.integers(1, 10), st.floats(0.25, 0.8),
                 st.integers(0, 2 ** 32 - 1)))
@example(basic_family("cycle", 5))
@example(basic_family("path", 4))
@example(generalized_johnson(5, 2, 0))
@example(sierpinski(2, 3))
@example(hypercube(3))
def test_attractor_ranks_match_minimax_oracle_every_k(g):
    rad = min(eccentricities(g))
    for k in range(rad + 1):
        _assert_ranks_match_oracle(g, k)


@pytest.mark.parametrize("g,k", [
    (basic_family("cycle", 4), 0),
    (basic_family("cycle", 4), 1),
    (hypercube(3), 1),
    (hypercube(3), 2),
    (sierpinski(3, 3), 4),
    (sierpinski(3, 3), 5),
])
def test_ranks_meet_rank_equations(g, k):
    # capture states rank 0; otherwise a cop-to-move rank is 1 + the least
    # rank the cop can move to, a robber-to-move rank 1 + the largest rank
    # the robber can move to; -1 outside the cop-win region
    a = solve_cwrc(g, k)
    n = g.n
    closed = [sorted((*g.adj[v], v)) for v in range(n)]
    for c in range(n):
        for r in range(n):
            if a.dm[c][r] <= k:
                assert a.rank(c, r, 0) == a.rank(c, r, 1) == 0
                continue
            cop_moves = [a.rank(y, r, 1) for y in closed[c] if a.cop_win(y, r, 1)]
            assert a.rank(c, r, 0) == (1 + min(cop_moves) if cop_moves else -1)
            robber_moves = [a.rank(c, y, 0) for y in closed[r]]
            won = all(a.cop_win(c, y, 0) for y in closed[r])
            assert a.rank(c, r, 1) == (1 + max(robber_moves) if won else -1)

    # the table strategies read the same ranks: the rank-greedy cop moves to
    # the won successor of least rank, the rank-max robber to the successor
    # of highest score (an escape scores above every rank), ties to the
    # lowest index; the byte planes the benchmark's tracer counts agree
    # with cop_win
    def score(c, r):
        return a.rank(c, r) if a.cop_win(c, r) else 4 * n * n

    robber = rank_max_robber_strategy(a)
    cop = extract_cop_strategy(a) if a.is_cop_win else None
    for c in range(n):
        assert robber.initial(c) == max(range(n), key=lambda r: score(c, r))
        for r in range(n):
            assert robber.move(c, r) == max(closed[r], key=lambda y: score(c, y))
            if cop is not None:
                to = [y for y in closed[c] if a.cop_win(y, r, 1)]
                expected = min(to, key=lambda y: (a.rank(y, r, 1), y)) if to else c
                assert cop.move(c, r) == expected
    for turn, plane in enumerate((a.win_cop_move, a.win_robber_move)):
        assert len(plane) == n * n
        assert all(plane[c * n + r] == a.cop_win(c, r, turn)
                   for c in range(n) for r in range(n))
        assert bytes(plane).count(1) == sum(bin(col).count("1")
                                            for col in a.columns[turn])


def _reassign(a, turn, c, r, into):
    """Copy of a with state (c, r) taken out of its round: put into round
    `into`, or, when into is None, cleared from the columns as well."""
    t = a.rank(c, r, turn)
    rounds = [tuple(dict(layer) for layer in layers) for layers in a.rounds]
    columns = tuple(list(col) for col in a.columns)
    rounds[t][turn][r] &= ~(1 << c)
    if into is None:
        columns[turn][r] &= ~(1 << c)
    else:
        rounds[into][turn][r] = rounds[into][turn].get(r, 0) | 1 << c
    return replace(a, columns=columns, rounds=rounds)


def _certified_line(g):
    """Analysis at rc and the cop-to-move states of the rank-greedy cop's
    play-out against the rank-max robber, before capture."""
    a = solve_cwrc(g, radius_capture_number(g))
    cop, robber = extract_cop_strategy(a), rank_max_robber_strategy(a)
    c = cop.initial()
    r = robber.initial(c)
    line = []
    while a.dm[c][r] > a.k:
        line.append((c, r))
        c = cop.move(c, r)
        if a.dm[c][r] <= a.k:
            break
        r = robber.move(c, r)
    return a, line


@pytest.mark.parametrize("g", [basic_family("cycle", 9), sierpinski(2, 3),
                               sierpinski(3, 3)])
def test_certify_rejects_robber_state_in_later_round(g):
    # the first cop move of the play-out with a single successor of rank
    # t - 1 (on C_8 every such move has two, so moving either one's bit
    # leaves a valid certificate)
    a, line = _certified_line(g)
    for c, r in line:
        t = a.rank(c, r)
        ties = [x for x in g.closed[c] if a.rank(x, r, 1) == t - 1]
        if len(ties) == 1:
            break
    y = extract_cop_strategy(a).move(c, r)
    assert ties == [y]
    certify_cop_strategy(a)
    with pytest.raises(InvariantViolation, match="does not reduce rank"):
        certify_cop_strategy(_reassign(a, 1, y, r, t))


@pytest.mark.parametrize("g", [basic_family("cycle", 8), sierpinski(2, 3),
                               sierpinski(3, 3)])
def test_certify_rejects_cleared_cop_state(g):
    # the last cop-to-move state of the play-out is reached by the walk
    a, line = _certified_line(g)
    c, r = line[-1]
    certify_cop_strategy(a)
    with pytest.raises(InvariantViolation, match="escapes"):
        certify_cop_strategy(_reassign(a, 0, c, r, None))


def test_capture_within_rank_bound():
    for g in [basic_family("cycle", 9), hypercube(3), sierpinski(2, 3)]:
        rc = radius_capture_number(g)
        a = solve_cwrc(g, rc)
        bound = certify_cop_strategy(a)
        t = simulate(g, rc, extract_cop_strategy(a), rank_max_robber_strategy(a),
                     4 * g.n * g.n)
        assert t.captured and t.moves <= bound
