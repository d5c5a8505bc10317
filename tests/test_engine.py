"""Solver correctness: attractor, capture numbers, strategies, play-outs."""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from rcgame import engine, graph
from rcgame.engine import (
    Strategy,
    WinAnalysis,
    capture_radii,
    certify_cop_strategy,
    extract_cop_strategy,
    extract_robber_strategy,
    greedy_chase_cop_strategy,
    naive_rc_oracle,
    radius_capture_number,
    rank_max_robber_strategy,
    simulate,
    solve_cwrc,
)
from rcgame.errors import (
    IllegalMove,
    InvalidParam,
    InvariantViolation,
    NoEvasionStrategy,
    NotARetraction,
    NotConnected,
    NoWinningStrategy,
)
from rcgame.generators import (
    basic_family,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    random_connected_gnp,
    sierpinski,
)
from rcgame.graph import (
    _sweep,
    all_pairs_distances,
    balls,
    build_graph,
    eccentricities,
    girth,
    induced_subgraph,
    is_connected,
)
from rcgame.verify import Retraction, check_retract_monotonicity, corner_fold_retraction


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
    with pytest.raises(InvalidParam, match="empty graph has no radius"):
        capture_radii(build_graph(0, []))


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
    # the ball sweep answers a disconnected graph before any attractor round
    def no_attractor(*args):
        raise AssertionError("attractor ran on a disconnected graph")

    monkeypatch.setattr("rcgame.engine._attract", no_attractor)
    two_copies = build_graph(18, [(u + 9 * i, v + 9 * i) for i in range(2)
                                  for u, v in sierpinski(2, 3).edges()])
    assert radius_capture_number(two_copies) is None
    assert capture_radii(two_copies) is None
    assert radius_capture_number(build_graph(3, [])) is None


def _lollipop(cycle, path):
    """C_cycle with a path of `path` more vertices hung from vertex 0: rc
    stays near the cycle's while rad grows with the path."""
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(cycle + j - 1 if j else 0, cycle + j) for j in range(path)]
    return build_graph(cycle + path, edges)


def test_sweep_keeps_the_two_levels_below_rad():
    # top lists ball_{rad-2} and ball_{rad-1} (those >= 0): the search's
    # first probe is at rad - 2, and a probe at k reads ball_k and
    # ball_{k+1}; diam is the last level, where the balls stop growing:
    # on K_1, the lollipops and the connected atlas
    graphs = [basic_family("complete", 1)]
    graphs += [_lollipop(c, p) for c in (3, 4, 9) for p in (0, 1, 2, 5, 30)]
    graphs += [build_graph(G.number_of_nodes(), list(G.edges()))
               for G in nx.graph_atlas_g()
               if G.number_of_nodes() and nx.is_connected(G)]
    for g in graphs:
        rad, diam, top = _sweep(g)
        every = list(balls(g))
        assert diam == len(every) - 1
        assert top == every[max(rad - 2, 0):rad]


@pytest.mark.parametrize("g,dilates", [
    *((basic_family("complete", n), 0) for n in range(2, 9)),
    (generalized_johnson(70, 1, 0), 0),     # K_70
    (sierpinski(5, 3), 30),
    (hypercube(7), 6),
    (hamming(3, 5), 2),
], ids=lambda v: None if isinstance(v, int) else repr(v))
def test_search_walks_each_ball_level_once(dilate_calls, g, dilates):
    # ball_1 is closed_bits, a complete graph runs no probe, and each other
    # graph here runs one, at rad - 2, reading ball_k and ball_{k+1} from
    # the sweep's pair, so the search's only dilates are the sweep's,
    # diam - 1 of them: none on a complete graph
    rad, diam, rc = capture_radii(g)
    assert len(dilate_calls) == dilates == diam - 1


@pytest.mark.parametrize("g,dilates", [
    (sierpinski(4, 4), 50),     # 14 swept; probes 6, 9, 10, 11
    (named_instance("CubicVT24_6"), 7),     # 4 swept; probes 1, 2
    (_lollipop(9, 30), 46),     # 33 swept; probes 7, 3, 1, 2
    (basic_family("path", 300), 298),   # 298 swept; dismantlable, no probe
], ids=["S(4,4)", "CubicVT24_6", "lollipop(9,30)", "P_300"])
def test_search_walks_lower_probes_from_ball_0(dilate_calls, g, dilates):
    # a probe at k below rad - 2 walks balls again, whose ball_1 is
    # closed_bits, so it adds k dilates to the sweep's diam - 1
    capture_radii(g)
    assert len(dilate_calls) == dilates


def _is_cycle(g):
    """Whether connected g is a cycle: every degree 2."""
    return all(len(row) == 2 for row in g.adj)


@pytest.fixture
def shortcut_work(monkeypatch, dilate_calls):
    """Counts, by name, the work capture_radii makes: "bfs" per BFS row,
    "sweep", "corners" and "kernel" per call, "dilate" per hop."""
    work = Counter()

    def counted(name, real):
        def call(*args):
            work[name] += 1
            return real(*args)
        return call

    for name, attr in (("bfs", "_bfs_row"), ("sweep", "_sweep"),
                       ("corners", "corner_folds"), ("kernel", "_attract")):
        monkeypatch.setattr(engine, attr, counted(name, getattr(engine, attr)))
    monkeypatch.setattr(graph, "_bfs_row", counted("bfs", graph._bfs_row))

    def read():
        work["dilate"] = len(dilate_calls)
        return +work
    return read


@pytest.mark.parametrize("g,radii", [
    (basic_family("cycle", 400), (200, 200, 199)),
    (basic_family("cycle", 10), (5, 5, 4)),
    (basic_family("cycle", 7), (3, 3, 2)),
    (basic_family("cycle", 4), (2, 2, 1)),
], ids=["C_400", "C_10", "C_7", "C_4"])
def test_cycles_skip_the_sweep(shortcut_work, g, radii):
    # a cycle is answered from the connectivity BFS: no ball sweep, dilate,
    # corner pass or kernel call, and no closed_bits
    assert capture_radii(g) == radii
    assert shortcut_work() == {"bfs": 1}
    assert g._closed_bits is None


def test_cycle_test_leaves_the_rest_as_it_was(shortcut_work):
    # n = 0 is still InvalidParam, from the sweep, and K_3 is read off its
    # edge count; two disjoint triangles (2-regular) are None from one BFS
    # and no sweep; K_3 + K_1 and C_400 + K_1 (m = n - 1) are None from the
    # sweep; a triangle with a pendant vertex (m = n, a degree 3) takes the
    # sweep, and P_9 and C_6 with a chord the sweep and the corner pass,
    # each sweep with its one connectivity BFS; work counts add up
    with pytest.raises(InvalidParam, match="empty graph has no radius"):
        capture_radii(build_graph(0, []))
    assert capture_radii(basic_family("complete", 3)) == (1, 1, 0)
    assert shortcut_work() == {"sweep": 2}
    two_c3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert capture_radii(two_c3) is None
    assert shortcut_work() == {"sweep": 2, "bfs": 1}
    k3_k1 = build_graph(4, [(0, 1), (1, 2), (0, 2)])
    c400_k1 = build_graph(401, [(v, (v + 1) % 400) for v in range(400)])
    for g in (k3_k1, c400_k1):
        assert capture_radii(g) is None
    assert shortcut_work() == {"sweep": 4, "bfs": 3}
    assert capture_radii(_lollipop(3, 1)) == (1, 2, 0)
    assert shortcut_work() == {"sweep": 5, "bfs": 4, "dilate": 1}
    assert capture_radii(basic_family("path", 9)) == (4, 8, 0)
    assert shortcut_work() == {"sweep": 6, "bfs": 5, "corners": 1, "dilate": 8}
    chord = build_graph(6, [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)])
    assert capture_radii(chord) == (2, 3, 1)
    assert shortcut_work() == {"sweep": 7, "bfs": 6, "corners": 2, "dilate": 10}


def _cycle_census_graphs():
    # every atlas cycle, C_3..C_60 and C_400
    graphs = [build_graph(G.number_of_nodes(), list(G.edges()))
              for G in nx.graph_atlas_g()
              if G.number_of_nodes() and nx.is_connected(G)]
    graphs = [g for g in graphs if _is_cycle(g)]
    graphs += [basic_family("cycle", n) for n in range(3, 61)]
    graphs.append(basic_family("cycle", 400))
    return graphs


def _cycle_census_misses(radii_of, graphs):
    """The graphs on which radii_of(g) = (rad, diam, rc) misses the
    sweep's rad and diam, or an rc the kernel decides: the naive oracle's
    up to 8 vertices, else a solve that wins at rc and one that loses at
    rc - 1."""
    misses = []
    for g in graphs:
        rad, diam, rc = radii_of(g)
        swept = _sweep(g)[:2]
        if g.n <= 8:
            decided = rc == naive_rc_oracle(g)
        else:
            decided = solve_cwrc(g, rc).is_cop_win and (
                rc == 0 or not solve_cwrc(g, rc - 1).is_cop_win)
        if (rad, diam) != swept or not decided:
            misses.append(g)
    return misses


def test_cycles_match_the_sweep_and_the_kernel():
    # rad and diam are the sweep's, rc is the kernel's: the 5 atlas cycles,
    # C_3..C_60 and C_400
    graphs = _cycle_census_graphs()
    assert all(map(_is_cycle, graphs))
    assert len(graphs) == 64
    assert _cycle_census_misses(capture_radii, graphs) == []


def test_cycle_census_catches_a_planted_fault():
    # a cycle branch one below the radius bound, rc = rad - 2, fails the
    # census on every cycle of 4 or more vertices
    def planted(g):
        rad, diam, rc = capture_radii(g)
        return (rad, diam, rad - 2) if g.n >= 4 else (rad, diam, rc)

    graphs = _cycle_census_graphs()
    cycles = [g for g in graphs if g.n >= 4]
    assert len(cycles) == 62
    assert _cycle_census_misses(planted, graphs) == cycles


def _radii_census_graphs():
    """(g, connected) for the whole atlas but the empty graph, 200 seeded
    G(n, p) on 2..40 vertices, P_n and C_n for n <= 60 and six larger
    graphs, connected as networkx finds it."""
    pairs = [(build_graph(G.number_of_nodes(), list(G.edges())), nx.is_connected(G))
             for G in nx.graph_atlas_g()[1:]]
    rng = random.Random(1)
    for _ in range(200):
        n, p = rng.randint(2, 40), rng.uniform(0.02, 0.5)
        G = nx.gnp_random_graph(n, p, seed=rng.randrange(2 ** 32))
        pairs.append((build_graph(n, list(G.edges())), nx.is_connected(G)))
    graphs = [basic_family("path", n) for n in range(1, 61)]
    graphs += [basic_family("cycle", n) for n in range(3, 61)]
    graphs += [sierpinski(3, 3), sierpinski(4, 4), hypercube(5), hamming(3, 5),
               named_instance("CubicVT24_6"), generalized_johnson(7, 3, 2)]
    return pairs + [(g, True) for g in graphs]


def _radii_census_misses(pairs):
    """The graphs on which capture_radii's rad and diam miss the min and
    max of eccentricities, the maxima of the distance rows, or both are
    not None exactly when g is disconnected."""
    misses = []
    for g, connected in pairs:
        radii, ecc = capture_radii(g), eccentricities(g)
        got = None if radii is None else radii[:2]
        want = None if ecc is None else (min(ecc), max(ecc))
        if got != want or (want is None) == connected:
            misses.append(g)
    return misses


def test_sweep_and_distance_rows_agree():
    # the sweep's rad and diam, through capture_radii, against the distance
    # rows, which never call _sweep; n = 0 is InvalidParam from both
    pairs = _radii_census_graphs()
    # 996 connected atlas graphs, 128 of the G(n, p), the paths, cycles and
    # larger graphs
    assert sum(connected for _, connected in pairs) == 996 + 128 + 124
    assert _radii_census_misses(pairs) == []
    for radii_of in (capture_radii, eccentricities):
        with pytest.raises(InvalidParam, match="empty graph has no radius"):
            radii_of(build_graph(0, []))


@pytest.mark.parametrize("fault", [
    lambda rad, diam: (rad, diam - 1),
    lambda rad, diam: (rad + 1, diam),
], ids=["diam-1", "rad+1"])
def test_sweep_census_catches_a_planted_fault(monkeypatch, fault):
    # a _sweep one off in diam or in rad fails the census on every graph it
    # sweeps: each connected one but the cycles of 4 or more vertices,
    # which capture_radii answers with no sweep
    real, faulted = graph._sweep, []

    def planted(g):
        swept = real(g)
        if swept is None:
            return None
        faulted.append(g)
        return (*fault(*swept[:2]), swept[2])

    monkeypatch.setattr(graph, "_sweep", planted)
    monkeypatch.setattr(engine, "_sweep", planted)
    assert _radii_census_misses(_radii_census_graphs()) == faulted
    # the 63 cycles of 4 or more vertices: 4 atlas graphs, 2 G(n, p) and
    # C_4..C_60
    assert len(faulted) == 1248 - 63


def test_solve_walks_to_ball_k_plus_one(dilate_calls):
    # solve_cwrc at k < diam walks ball_0 .. ball_{k+1} once, k dilates past
    # ball_1, and the kernel takes ball_{k+1} from that walk
    for g in (sierpinski(4, 4), hypercube(5), basic_family("cycle", 9)):
        for k in range(max(eccentricities(g))):
            dilate_calls.clear()
            solve_cwrc(g, k)
            assert len(dilate_calls) == k


def test_solve_builds_no_pair_distances(monkeypatch):
    # the kernel reads closed balls only: solving at rc and rc - 1,
    # certifying the cop and reading every strategy off the analyses build
    # no distance rows, neither the engine's nor the ball planes'
    def refuse(g):
        raise AssertionError("pair distances built")

    monkeypatch.setattr(engine, "all_pairs_distances", refuse)
    monkeypatch.setattr(graph, "_distance_planes", refuse)
    for g in (sierpinski(4, 4), hypercube(5), basic_family("cycle", 9)):
        rc = radius_capture_number(g)
        win, lose = solve_cwrc(g, rc), solve_cwrc(g, rc - 1)
        assert win.is_cop_win and not lose.is_cop_win
        assert certify_cop_strategy(win) > 0
        cop, robber = extract_cop_strategy(win), extract_robber_strategy(lose)
        c = cop.initial()
        assert cop.move(c, robber.initial(c)) in range(g.n)
        assert rank_max_robber_strategy(win).initial(c) in range(g.n)


class _CountedRows(tuple):
    """A closed_bits tuple that counts its indexed reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("g,k,reads", [
    (hamming(3, 5), 2, 0),                  # 8000 ORs on settled columns before
    (sierpinski(4, 4), 11, 12744),          # 24744 before
    (sierpinski(4, 4), 10, 11436),          # 16092 before
    (basic_family("cycle", 64), 31, 0),     # 64 before
], ids=["H(3,5)", "S(4,4) k=11", "S(4,4) k=10", "C_64"])
def test_cop_step_skips_settled_columns(g, k, reads):
    # past round 1 the cop step ORs N[y] for each newly won robber-to-move
    # (y, r) only while column r still has a cop-to-move state to win; the
    # ball walk reads closed_bits whole, so every indexed read is one OR
    counted = g._closed_bits = _CountedRows(g.closed_bits)
    solve_cwrc(g, k)
    assert counted.reads == reads


# a row's id ends in its kernel probe count
@pytest.mark.parametrize("g,rc,probes", [
    (basic_family("complete", 1), 0, []),   # rad 0: no probe
    (_lollipop(10, 1), 4, [3]),             # rad 5: loses at 3, so rc 4
    (sierpinski(3, 3), 5, [4]),             # rad 6
    (basic_family("path", 9), 0, []),       # rad 4: dismantlable, no probe
    (sierpinski(4, 4), 11, [12, 6, 9, 10, 11]),  # rad 14: 6, 9, 10 lose
    (_lollipop(9, 30), 3, [15, 7, 3, 1, 2]),     # rad 17: 1, 2 lose
    (basic_family("complete", 5), 0, []),   # rad 1: no probe
    (generalized_johnson(5, 2, 0), 1, []),  # rad 2: the corner pass alone
], ids=lambda v: str(len(v)) if isinstance(v, list) else None)
def test_rc_probes_follow_the_radius_bound(monkeypatch, g, rc, probes):
    # the cop wins at max(rad - 1, 0), and the corner pass decides k = 0,
    # so the search bisects between them: one attractor call per probe, at
    # rad - 2 first; each call's k is the ball its targets equal, and its
    # second ball is the next one. A cycle runs no search, so the
    # one-probe row is C_10 with a pendant vertex
    real, calls = engine._attract, []
    every_ball = list(balls(g))

    def counted(g, win_c, win_r, targets, grown):
        k = every_ball.index(targets)
        assert grown == every_ball[min(k + 1, len(every_ball) - 1)]
        calls.append(k)
        return real(g, win_c, win_r, targets, grown)

    monkeypatch.setattr(engine, "_attract", counted)
    assert radius_capture_number(g) == rc
    assert calls == probes


@pytest.fixture
def probe_search(monkeypatch):
    """Runs the rc search on a graph and returns (rad, rc, log): the log
    holds "corners" for the corner pass and the k of each kernel probe, read
    off the ball its targets equal. It checks that rad <= 1 and a cycle
    run no kernel and no corner pass, and every other rad >= 2 runs the
    corner pass exactly once, before any kernel probe, with every kernel
    probe at k >= 1."""
    log = []
    attract, folds = engine._attract, engine.corner_folds

    def kernel(g, win_c, win_r, targets, grown):
        log.append(list(balls(g)).index(targets))
        return attract(g, win_c, win_r, targets, grown)

    def corner_pass(g):
        log.append("corners")
        return folds(g)

    monkeypatch.setattr(engine, "_attract", kernel)
    monkeypatch.setattr(engine, "corner_folds", corner_pass)

    def search(g):
        log.clear()
        rad, _, rc = capture_radii(g)
        passes = [i for i, probe in enumerate(log) if probe == "corners"]
        searched = rad > 1 and not _is_cycle(g)
        assert passes == ([0] if searched else []), (g, rad, log)
        assert searched or log == [], (g, rad, log)
        assert all(0 < k < rad - 1 for k in log[1:]), (g, rad, log)
        return rad, rc, list(log)

    return search


def test_rc_search_never_probes_at_the_radius_bound(probe_search):
    # one cop move proves the cop wins at max(rad - 1, 0), so no probe sits
    # there or above it, and the corner pass decides k = 0 before any kernel
    # probe; the rc agrees with the oracle. K_1..K_8, both complete
    # J(70, k, i), the star K_{1,6} and every connected atlas graph; more
    # than 500 of them run the corner pass, and the atlas cycles run none
    graphs = [basic_family("complete", n) for n in range(1, 9)]
    graphs += [generalized_johnson(70, 1, 0), generalized_johnson(70, 69, 68),
               build_graph(7, [(0, v) for v in range(1, 7)])]
    graphs += [build_graph(G.number_of_nodes(), list(G.edges()))
               for G in nx.graph_atlas_g()
               if G.number_of_nodes() and nx.is_connected(G)]
    passed = 0
    for g in graphs:
        rad, rc, _ = probe_search(g)
        assert rc == naive_rc_oracle(g)
        passed += rad > 1 and not _is_cycle(g)
    assert passed > 500


def test_rc_search_goes_on_past_the_corner_test(probe_search):
    # rad >= 4: on a graph that is not dismantlable the corner pass sets
    # lo = 0, and the bisection goes on down to a kernel probe at 1
    rng, rcs = random.Random(4), Counter()
    for _ in range(1000):
        g = random_connected_gnp(rng.randint(8, 14), rng.uniform(0.12, 0.3),
                                 rng.getrandbits(32))
        rad, rc, log = probe_search(g)
        if rad >= 4 and 1 in log:
            assert rc == naive_rc_oracle(g), (g, log)
            rcs[rc] += 1
    assert rcs[1] >= 25 and rcs[2] >= 8, rcs


def test_corner_elimination_decides_the_radius_0_game():
    # at k = 0 the cop wins exactly on a dismantlable graph: greedy corner
    # elimination agrees with the kernel's solve on both verdicts. Each
    # fold, replayed in order, is a live corner onto a live neighbour that
    # dominates it, and the core it leaves has no corner. Every connected
    # atlas graph, 300 seeded G(n, p), P_300, S(3,3), C_5 and the Petersen
    # graph J(5, 2, 0)
    graphs = [build_graph(G.number_of_nodes(), list(G.edges()))
              for G in nx.graph_atlas_g()
              if G.number_of_nodes() and nx.is_connected(G)]
    rng = random.Random(29)
    graphs += [random_connected_gnp(rng.randint(2, 16), rng.uniform(0.15, 0.6),
                                    rng.getrandbits(32)) for _ in range(300)]
    graphs += [basic_family("path", 300), sierpinski(3, 3),
               basic_family("cycle", 5), generalized_johnson(5, 2, 0)]
    verdicts = Counter()
    for g in graphs:
        core, folds = engine.corner_folds(g)
        closed, alive = g.closed_bits, (1 << g.n) - 1
        for u, v in folds:
            assert v in g.adj[u] and alive >> v & 1, (g, u, v)
            assert closed[u] & alive & ~closed[v] == 0, (g, u, v)
            alive ^= 1 << u
        assert alive == core
        assert not any(closed[u] & core & ~closed[v] == 0
                       for u in range(g.n) if core >> u & 1
                       for v in g.adj[u] if core >> v & 1), g
        won = core & core - 1 == 0
        assert won == solve_cwrc(g, 0).is_cop_win, g
        verdicts[won] += 1
    assert min(verdicts[True], verdicts[False]) > 600, verdicts


def _corner_folds_per_pair(g, order=tuple):
    """Reference corner pass: corner_folds with a subset test per live
    neighbour v in order(adj[u]), folding u onto the first v that passes."""
    adj, closed_bits = g.adj, g.closed_bits
    alive = todo = (1 << g.n) - 1
    folds = []
    while todo:
        u = (todo & -todo).bit_length() - 1
        todo ^= 1 << u
        mask = closed_bits[u] & alive
        for v in order(adj[u]):
            if mask >> v & 1 and mask & ~closed_bits[v] == 0:
                alive ^= 1 << u
                todo |= mask ^ 1 << u
                folds.append((u, v))
                break
    return alive, folds


def _corner_census_graphs():
    # every connected atlas graph, 300 seeded G(n, p) on 8..24 vertices,
    # every connected J(n, k, i) with C(n, k) <= 70 and the 7 large graphs
    graphs = [build_graph(G.number_of_nodes(), list(G.edges()))
              for G in nx.graph_atlas_g()
              if G.number_of_nodes() and nx.is_connected(G)]
    rng = random.Random(41)
    graphs += [random_connected_gnp(rng.randint(8, 24), rng.uniform(0.1, 0.5),
                                    rng.getrandbits(32)) for _ in range(300)]
    graphs += [g for n in range(2, 71) for k in range(1, n)
               if math.comb(n, k) <= 70 for i in range(k)
               for g in [generalized_johnson(n, k, i)] if is_connected(g)]
    graphs += [sierpinski(6, 3), sierpinski(5, 3), sierpinski(4, 4), hypercube(7),
               hamming(3, 5), basic_family("cycle", 400), named_instance("CubicVT24_6")]
    return graphs


def _corner_census_misses(folds_of, graphs):
    """The graphs on which folds_of(g) differs from the per-pair reference."""
    return [g for g in graphs if folds_of(g) != _corner_folds_per_pair(g)]


def test_corner_folds_match_per_pair_census():
    # the one AND chain per vertex gives the reference's core and folds,
    # each fold onto the lowest dominating neighbour, on every census graph
    graphs = _corner_census_graphs()
    assert len(graphs) == 996 + 300 + 187 + 7
    assert _corner_census_misses(engine.corner_folds, graphs) == []
    folds = sum(len(engine.corner_folds(g)[1]) for g in graphs)
    assert folds == 9651


def test_corner_census_catches_a_fold_onto_the_highest_dominator():
    # a planted fault: fold each corner onto its highest dominating
    # neighbour; the census must tell it apart from the lowest
    def highest(g):
        return _corner_folds_per_pair(g, order=lambda row: row[::-1])

    assert _corner_census_misses(highest, _corner_census_graphs())


def _random_tree(rng, n):
    """A seeded random recursive tree: vertex v hangs from a lower vertex."""
    return build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def test_rad_2_or_dismantlable_row_runs_no_kernel(monkeypatch):
    # the corner pass decides k = 0 before any probe: a dismantlable row has
    # rc = 0 at any radius, and a rad-2 row has rc 0 or 1, so neither runs
    # the kernel. Petersen, P_5, P_9, P_300, seeded G(n, p) of rad 2 and
    # seeded random trees of rad >= 3
    def no_attractor(*args):
        raise AssertionError("attractor ran on a rad-2 or dismantlable row")

    rng = random.Random(2)
    gnp = [random_connected_gnp(rng.randint(10, 30), rng.uniform(0.3, 0.5),
                                rng.getrandbits(32)) for _ in range(40)]
    gnp = [(g, naive_rc_oracle(g)) for g in gnp if min(eccentricities(g)) == 2]
    trees = [_random_tree(rng, rng.randint(10, 80)) for _ in range(60)]
    trees = [t for t in trees if min(eccentricities(t)) >= 3]
    monkeypatch.setattr(engine, "_attract", no_attractor)
    assert capture_radii(generalized_johnson(5, 2, 0)) == (2, 2, 1)
    assert capture_radii(basic_family("path", 5)) == (2, 4, 0)
    assert capture_radii(basic_family("path", 9)) == (4, 8, 0)
    assert capture_radii(basic_family("path", 300)) == (150, 299, 0)
    assert len(gnp) > 30 and len(trees) > 40
    for g, rc in gnp:
        assert capture_radii(g)[2] == rc
    for t in trees:
        assert capture_radii(t)[2] == 0


def test_rc_winning_probe_stops_at_its_verdict(monkeypatch):
    # S(4,4) (rc 11, rad 14): the first probe, at 12, wins with a full cop
    # row after round 7 of its 15 and is consumed no further; the losing
    # probes at 6, 9 and 10 run to their fixed points
    g = sierpinski(4, 4)
    real, consumed = engine._attract, []
    every_ball = list(balls(g))

    def counted(g, win_c, win_r, targets, grown):
        probe = [every_ball.index(targets), 0]
        consumed.append(probe)
        for new in real(g, win_c, win_r, targets, grown):
            probe[1] += 1
            yield new

    monkeypatch.setattr(engine, "_attract", counted)
    assert radius_capture_number(g) == 11
    monkeypatch.undo()
    assert consumed[0] == [12, 8]               # rounds 0..7
    assert len(solve_cwrc(g, 12).rounds) == 15
    assert [k for k, _ in consumed] == [12, 6, 9, 10, 11]
    assert consumed[1] == [6, len(solve_cwrc(g, 6).rounds)]


@pytest.mark.parametrize("g", [sierpinski(4, 4), _lollipop(9, 30)],
                         ids=["S(4,4)", "lollipop(9,30)"])
def test_rc_probes_resume_from_fixed_points(monkeypatch, g):
    # a losing probe runs to its fixed point: every probe starts from the
    # planes a full solve leaves at the largest k that lost before it, or
    # from empty planes. Both graphs resume after a losing probe below rc
    real, starts = engine._attract, []
    every_ball = list(balls(g))

    def counted(g, win_c, win_r, targets, grown):
        starts.append((every_ball.index(targets), win_c.copy(), win_r.copy()))
        return real(g, win_c, win_r, targets, grown)

    monkeypatch.setattr(engine, "_attract", counted)
    rc = radius_capture_number(g)
    monkeypatch.undo()
    lo, resumed = -1, 0
    for k, win_c, win_r in starts:
        if lo < 0:
            assert not any(win_c) and not any(win_r)
        else:
            assert (win_c, win_r) == solve_cwrc(g, lo).columns
            resumed += 1
        if k < rc:
            lo = k
    assert resumed


def per_k_scan(g):
    """Reference for the rc search: the least k at which a fresh
    solve_cwrc is a cop win (some k <= diam always is)."""
    dm = all_pairs_distances(g)
    return next(k for k in itertools.count() if solve_cwrc(g, k, dm).is_cop_win)


def test_rc_matches_per_k_scan():
    for g in [basic_family("cycle", 9), basic_family("path", 6), hypercube(3),
              generalized_johnson(5, 2, 0), sierpinski(3, 3),
              basic_family("complete", 1), _lollipop(8, 12), _lollipop(10, 16),
              _lollipop(9, 30)]:
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
    # the search decides connectivity itself: a disconnected draw gives None
    rc = radius_capture_number(g)
    assert rc == naive_rc_oracle(g)
    ecc = eccentricities(g)
    if ecc is None:
        assert rc is None
    else:
        assert girth(g) // 2 - 1 <= rc <= min(ecc) - 1


def test_rc_census_connected_atlas():
    # the 996 connected graphs on 1..7 vertices of networkx's bundled atlas.
    # rc = 0 exactly on the dismantlable ones (Nowakowski and Winkler), those
    # that corner folds take down to one vertex, and no fold raises rc.
    # split says whether the search's first probe, at rad - 2, wins: it does
    # on the 289 graphs with rc < rad - 1, and the search bisects below it;
    # on the other 707 it loses, or rad < 2 and there is no probe at rad - 2
    split = {"wins": 0, "loses or rad < 2": 0}
    slack, folded, dismantlable = Counter(), 0, 0
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() == 0 or not nx.is_connected(G):
            continue
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        rc = radius_capture_number(g)
        assert rc == naive_rc_oracle(g)
        ecc = eccentricities(g)
        rad = min(ecc)
        assert capture_radii(g) == (rad, max(ecc), rc)
        assert max(0, girth(g) // 2 - 1) <= rc <= max(0, rad - 1)
        split["wins" if rc < rad - 1 else "loses or rad < 2"] += 1
        slack[max(0, rad - 1) - rc] += 1
        fold, h = corner_fold_retraction(g), g
        if fold is not None:
            folded += 1
            assert check_retract_monotonicity(g, fold).passed
        while fold is not None:
            h, _ = induced_subgraph(h, sorted(fold.target))
            fold = corner_fold_retraction(h)
        assert (rc == 0) == (h.n == 1)
        dismantlable += h.n == 1
    assert split == {"wins": 289, "loses or rad < 2": 707}
    assert slack == {0: 707, 1: 280, 2: 9}
    assert (folded, dismantlable) == (937, 496)


def test_retract_monotonicity_census_connected_atlas():
    """Every corner fold of the 996 connected atlas graphs keeps rc: for
    each dominated pair u != v, N[u] inside N[v], the fold f of u onto v is
    a retraction, and rc(G - u) = rc(G), not just <=. A planted fault, the
    fold of a corner u onto a neighbour that does not dominate it, raises
    NotARetraction.

    Why equality holds. Let H = G - u and k = rc(H).
    - rc(H) <= rc(G): H is a retract of G, the paper's theorem.
    - rc(G) <= k: H is isometric in G. The cop plays a winning radius-k
      strategy of H against the robber's shadow f(r). The shadow moves
      along H's edges or stays, since N(u) lies inside N[v]. When the
      shadow is caught, d(c, f(r)) <= k. If r != u, the robber is caught.
      If r = u, then d(c, u) <= k + 1. With the cop to move, it steps
      toward u and catches the robber. With the robber to move, it goes to
      some w in N[u], inside N[v], so d(c, w) <= k + 1, and the cop's next
      step catches it.
    By induction, rc(G) is the rc of the corner-free core that greedy
    corner elimination leaves, and rc = 0 exactly when that core is one
    vertex.
    """
    folds = faults = 0
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() == 0 or not nx.is_connected(G):
            continue
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        n, closed = g.n, g.closed_bits
        for u, v in itertools.permutations(range(n), 2):
            fold = Retraction(tuple(v if x == u else x for x in range(n)))
            if closed[u] & ~closed[v] == 0:
                report = check_retract_monotonicity(g, fold)
                assert report.passed, report.to_json()
                assert report.measured["rc_retract"] == report.measured["rc_graph"]
                folds += 1
            elif v in g.adj[u] and any(closed[u] & ~closed[w] == 0 for w in g.adj[u]):
                with pytest.raises(NotARetraction):
                    check_retract_monotonicity(g, fold)
                faults += 1
    assert (folds, faults) == (5911, 4490)


def _attract_per_bit(g, win_c, win_r, targets):
    """Reference kernel: _attract with the per-bit cop step in every round,
    round 1 included, so it dilates no ball. Its robber step walks the
    columns in the kernel's order, a set built as the kernel builds it,
    since the rounds are compared as item lists."""
    closed_bits = g.closed_bits
    closed = [sorted((*g.adj[v], v)) for v in range(g.n)]
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
            for y in range(g.n):
                if bits >> y & 1:
                    reach |= closed_bits[y]
            reach &= ~win_c[r]
            if reach:
                cop[r] = reach
        for r in set(new_c).union(*(g.adj[y] for y in new_c)):
            safe = ~win_r[r]
            for y in closed[r]:
                safe &= win_c[y]
            if safe:
                robber[r] = safe
        for r, bits in cop.items():
            win_c[r] |= bits
        for r, bits in robber.items():
            win_r[r] |= bits


def _assert_attract_matches_per_bit(g):
    # from empty planes at every k up to diam, and from the fixed-point
    # planes at every j < k, as capture_radii resumes a probe from the last
    # losing one: the same rounds, in the same order, and the same final
    # planes; the kernel takes ball_k and ball_{k+1}, the second capped at
    # the last ball. After every round each robber-to-move column lies
    # inside its cop-to-move column, which the robber step's XOR relies on
    every = list(balls(g))
    last = len(every) - 1
    fixed = []                        # the fixed-point planes at each j < k
    for k in range(last + 1):
        for start_c, start_r in [([0] * g.n, [0] * g.n), *fixed]:
            want_c, want_r = start_c.copy(), start_r.copy()
            want = list(_attract_per_bit(g, want_c, want_r, every[k]))
            got_c, got_r = start_c.copy(), start_r.copy()
            got = []
            for layer in engine._attract(g, got_c, got_r, every[k],
                                         every[min(k + 1, last)]):
                assert all(r & ~c == 0 for c, r in zip(got_c, got_r))
                got.append(layer)
            assert [(list(c.items()), list(r.items())) for c, r in got] == \
                [(list(c.items()), list(r.items())) for c, r in want]
            assert (got_c, got_r) == (want_c, want_r)
        fixed.append((want_c, want_r))   # the planes at k, as resumed last


def test_attract_round_one_matches_per_bit_atlas():
    # every connected graph on 1..7 vertices of networkx's bundled atlas
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() and nx.is_connected(G):
            _assert_attract_matches_per_bit(
                build_graph(G.number_of_nodes(), list(G.edges())))


@settings(max_examples=60, deadline=None)
@given(st.builds(_gnp, st.integers(1, 14), st.floats(0.0, 0.8),
                 st.integers(0, 2 ** 32 - 1)))
@example(sierpinski(3, 3))
@example(_lollipop(6, 5))
@example(hamming(3, 5))
@example(sierpinski(4, 4))
def test_attract_round_one_matches_per_bit_gnp(g):
    # disconnected draws too: past the largest component's diameter the
    # balls stop growing, and the last ball is its own dilation
    _assert_attract_matches_per_bit(g)


def test_oracle_examples():
    assert naive_rc_oracle(basic_family("path", 5)) == 0
    assert naive_rc_oracle(basic_family("cycle", 5)) == 1
    assert naive_rc_oracle(generalized_johnson(4, 2, 1)) == 1
    assert naive_rc_oracle(build_graph(4, [(0, 1), (2, 3)])) is None


def test_oracle_refuses_the_empty_graph():
    # n = 0 has no radius, not the disconnected answer None, for the oracle
    # as for radius_capture_number
    for rc in (naive_rc_oracle, radius_capture_number):
        with pytest.raises(InvalidParam, match="empty graph has no radius"):
            rc(build_graph(0, []))


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


@pytest.mark.parametrize("g", [basic_family("cycle", 8), sierpinski(3, 3)])
def test_cop_move_raises_on_cleared_state(g):
    # a cop-win analysis has full cop-to-move planes, so a state of rank -1
    # comes from tampering: the cop raises instead of staying put
    a = solve_cwrc(g, radius_capture_number(g))
    c, r = next((c, r) for c in range(g.n) for r in range(g.n) if a.rank(c, r) > 0)
    cop = extract_cop_strategy(_reassign(a, 0, c, r, None))
    with pytest.raises(InvariantViolation, match="no rank-reducing cop move"):
        cop.move(c, r)


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


def random_cop_strategy(g, seed):
    """Seeded uniformly random cop policy, for robustness play-outs."""
    rng = random.Random(seed)
    closed = [sorted((*g.adj[v], v)) for v in range(g.n)]

    def initial():
        return rng.randrange(g.n)

    def move(cop, robber):
        return rng.choice(closed[cop])

    return Strategy("cop", initial, move, f"random cop seed={seed}")


def test_robber_survives_random_cop_policies():
    c7 = basic_family("cycle", 7)
    a = solve_cwrc(c7, 1)
    robber = extract_robber_strategy(a)
    for seed in range(100):
        t = simulate(c7, 1, random_cop_strategy(c7, seed), robber, 4 * 49)
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
            tuple(t.all_steps()))


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
        plain_cop = cop._replace(positional=False)
        plain_robber = robber._replace(positional=False)
        cap = 4 * g.n * g.n + 1
        capped = simulate(g, k, cop, robber, cap, dm)
        played = len(capped.steps)
        fasts = {}
        for max_moves in (0, 1, 2, 7, played, played + 1, cap):
            fast = fasts[max_moves] = simulate(g, k, cop, robber, max_moves, dm)
            slow = simulate(g, k, plain_cop, plain_robber, max_moves, dm)
            assert slow.cycle_start is None
            assert len(slow.steps) == fast.moves <= max_moves
            assert (fast.cycle_start is None) == (len(fast.steps) == fast.moves)
            assert _play(fast) == _play(slow)
            assert list(fast.all_steps()) == slow.steps
        if capped.cycle_start is not None:
            # a cap of the steps played stops before the repeated state; one
            # more move closes the play-out and repeats one step of its cycle
            assert fasts[played].cycle_start is None
            closed = fasts[played + 1]
            assert closed.cycle_start is not None and len(closed.steps) == played
            assert closed.moves == played + 1


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
        return strategy._replace(move=move)

    dm = all_pairs_distances(g)
    cop = counted(greedy_chase_cop_strategy(g, k, dm))
    robber = counted(extract_robber_strategy(a))
    budget = 4 * g.n * g.n
    t = simulate(g, k, cop, robber, budget, dm)
    assert t.outcome == "survived" and t.moves == sum(1 for _ in t.all_steps()) == budget
    # one cop and one robber move per distinct cop-to-move state visited
    assert calls["cop"] <= g.n * g.n and calls["robber"] <= g.n * g.n
    calls.update(cop=0, robber=0)
    t = simulate(g, k, cop._replace(positional=False),
                 robber._replace(positional=False), budget, dm)
    assert t.moves == budget and calls["cop"] + calls["robber"] == budget


def test_closed_play_out_holds_its_cycle_not_every_move():
    # S(4,4) at k = 10: the robber's 4n^2 = 262,144-move evasion closes on a
    # cycle of a few states; a list of every step would take over 2 MB
    g = sierpinski(4, 4)
    dm = all_pairs_distances(g)
    cop = greedy_chase_cop_strategy(g, 10, dm)
    robber = extract_robber_strategy(solve_cwrc(g, 10))
    tracemalloc.start()
    try:
        t = simulate(g, 10, cop, robber, 4 * g.n * g.n, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.outcome == "survived" and t.moves == 262144
    assert peak < 256 * 1024, peak
    assert len(t.steps) == 10 and t.cycle_start == 6
    assert sum(1 for _ in t.all_steps()) == 262144


def test_simulate_immediate_capture_at_placement():
    g = basic_family("cycle", 5)
    cop = Strategy("cop", lambda: 0, lambda c, r: c)
    robber = Strategy("robber", lambda c: 1, lambda c, r: r)
    t = simulate(g, 1, cop, robber, 0)
    assert t.captured and t.moves == 0 and t.steps == []


def test_simulate_refuses_a_negative_move_cap():
    # a negative cap allows no play at all, so it is refused rather than
    # read as a robber who survived 0 moves; a cap of 0 is a play of 0 moves
    c6 = basic_family("cycle", 6)
    a = solve_cwrc(c6, 1)
    cop, robber = greedy_chase_cop_strategy(c6, 1), extract_robber_strategy(a)
    with pytest.raises(InvalidParam, match="max_moves must be >= 0, got -3"):
        simulate(c6, 1, cop, robber, -3)
    t = simulate(c6, 1, cop, robber, 0)
    assert (t.outcome, t.moves, t.steps) == ("survived", 0, [])


def test_simulate_illegal_move_detected():
    g = basic_family("cycle", 6)
    cop = Strategy("cop", lambda: 0, lambda c, r: 3)
    robber = Strategy("robber", lambda c: 3, lambda c, r: r)
    with pytest.raises(IllegalMove):
        simulate(g, 0, cop, robber, 10)
    with pytest.raises(InvalidParam):
        simulate(g, 0, robber, cop, 10)


@pytest.mark.parametrize("k,robber_of", [
    (1, extract_robber_strategy),
    (1, rank_max_robber_strategy),
    (2, rank_max_robber_strategy),
])
@pytest.mark.parametrize("placement", [-1, 6])
def test_simulate_checks_cop_placement_before_robber_places(k, robber_of, placement):
    c6 = basic_family("cycle", 6)
    robber = robber_of(solve_cwrc(c6, k))
    asked = []

    def initial(cop):
        asked.append(cop)
        return robber.initial(cop)

    cop = Strategy("cop", lambda: placement, lambda c, r: c)
    with pytest.raises(IllegalMove, match=r"^placement outside 0\.\.5$"):
        simulate(c6, k, cop, robber._replace(initial=initial), 10)
    assert asked == []


def test_rank_strictly_decreases_along_cop_play():
    g = basic_family("cycle", 10)
    a = solve_cwrc(g, radius_capture_number(g))
    dm = all_pairs_distances(g)
    cop = extract_cop_strategy(a)
    robber = rank_max_robber_strategy(a)
    c = cop.initial()
    r = robber.initial(c)
    last = a.rank(c, r)
    guard = 0
    while dm[c][r] > a.k and guard < 1000:
        c = cop.move(c, r)
        guard += 1
        if dm[c][r] <= a.k:
            break
        r = robber.move(c, r)
        current = a.rank(c, r)
        assert current < last
        last = current
    assert dm[c][r] <= a.k


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
    dm = all_pairs_distances(g)
    n = g.n
    closed = [sorted((*g.adj[v], v)) for v in range(n)]
    for c in range(n):
        for r in range(n):
            if dm[c][r] <= k:
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
    # lowest index. At a losing radius the evading robber places and moves
    # to the lowest vertex not won, and the greedy chase to the least
    # (distance to the robber, index). The byte planes the benchmark's
    # tracer counts agree with cop_win
    def score(c, r):
        return a.rank(c, r) if a.cop_win(c, r) else 4 * n * n

    robber = rank_max_robber_strategy(a)
    cop = extract_cop_strategy(a) if a.is_cop_win else None
    if cop is None:
        evader = extract_robber_strategy(a)
        chase = greedy_chase_cop_strategy(g, k, dm)
    for c in range(n):
        assert robber.initial(c) == max(range(n), key=lambda r: score(c, r))
        if cop is None:
            assert evader.initial(c) == min(r for r in range(n) if not a.cop_win(c, r))
        for r in range(n):
            assert robber.move(c, r) == max(closed[r], key=lambda y: score(c, y))
            if cop is not None:
                to = [y for y in closed[c] if a.cop_win(y, r, 1)]
                expected = min(to, key=lambda y: (a.rank(y, r, 1), y)) if to else c
                assert cop.move(c, r) == expected
                continue
            if not a.cop_win(c, r, 1):
                safe = [y for y in closed[r] if not a.cop_win(c, y)]
                assert evader.move(c, r) == min(safe)
            assert chase.move(c, r) == min(closed[c], key=lambda y: (dm[r][y], y))
    for turn, plane in enumerate((a.win_cop_move, a.win_robber_move)):
        assert len(plane) == n * n
        assert all(plane[c * n + r] == a.cop_win(c, r, turn)
                   for c in range(n) for r in range(n))
        assert bytes(plane).count(1) == sum(bin(col).count("1")
                                            for col in a.columns[turn])


@settings(max_examples=60, deadline=None)
@given(st.builds(random_connected_gnp, st.integers(1, 12), st.floats(0.15, 0.7),
                 st.integers(0, 2 ** 32 - 1)))
@example(basic_family("cycle", 9))
@example(sierpinski(2, 3))
def test_rank_parity_gnp(g):
    # past round 0, odd rounds win only cop-to-move states and even rounds
    # only robber-to-move ones, which the rank scans rely on
    for k in range(min(eccentricities(g)) + 1):
        for t, (cop, robber) in enumerate(solve_cwrc(g, k).rounds[1:], 1):
            assert not (robber if t % 2 else cop)


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
    return WinAnalysis(a.graph, a.k, columns, rounds, a.initial_cop_choices)


def _certified_line(g):
    """Analysis at rc and the cop-to-move states of the rank-greedy cop's
    play-out against the rank-max robber, before capture."""
    a = solve_cwrc(g, radius_capture_number(g))
    dm = all_pairs_distances(g)
    cop, robber = extract_cop_strategy(a), rank_max_robber_strategy(a)
    c = cop.initial()
    r = robber.initial(c)
    line = []
    while dm[c][r] > a.k:
        line.append((c, r))
        c = cop.move(c, r)
        if dm[c][r] <= a.k:
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
        ties = [x for x in sorted((*g.adj[c], c)) if a.rank(x, r, 1) == t - 1]
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


def _certify_rescan(a):
    """Reference certificate walk: certify_cop_strategy as it stood with a
    set of seen states, scanning the rounds down from t - 2 on every push,
    a state met again included."""
    cop0 = extract_cop_strategy(a).initial()
    n, adj = a.graph.n, a.graph.adj
    cop_rounds = [layer[0] for layer in a.rounds]
    seen, worst = set(), 0
    for r0 in range(n):
        t0 = a.rank(cop0, r0)
        if t0 == 0:
            continue
        if t0 < 0:
            raise InvariantViolation(f"placement {r0} escapes")
        worst = max(worst, t0)
        stack = [(cop0, r0, t0)]
        while stack:
            c, r, t = stack.pop()
            if c * n + r in seen:
                continue
            seen.add(c * n + r)
            c2 = engine._greedy_cop_move(a, c, r, t)
            if c2 < 0:
                raise InvariantViolation("cop move does not reduce rank")
            if t == 1:
                continue
            for r2 in (r, *adj[r]):
                t2 = t - 2
                while t2 > 0 and not cop_rounds[t2].get(r2, 0) >> c2 & 1:
                    t2 -= 2
                if t2 > 0:
                    stack.append((c2, r2, t2))
                elif not cop_rounds[0].get(r2, 0) >> c2 & 1:
                    raise InvariantViolation(f"robber move {r}->{r2} escapes")
    return worst


def _certify_verdict(certify, a):
    """certify(a)'s worst case, or which InvariantViolation it raised."""
    try:
        return certify(a)
    except InvariantViolation as exc:
        return "escapes" if "escapes" in str(exc) else "does not reduce rank"


@pytest.mark.parametrize("g", [sierpinski(3, 3), basic_family("path", 9),
                               _lollipop(6, 5)], ids=["S(3,3)", "P_9", "lollipop(6,5)"])
def test_certify_matches_rescan_on_every_moved_rank(g):
    # each cop-to-move state moved two rounds up or down, one at a time: the
    # walk that checks a state met again against its kept rank gives the
    # rescanning walk's worst case, or raises where it raises
    a = solve_cwrc(g, radius_capture_number(g))
    verdicts = Counter()
    for c, r in itertools.product(range(g.n), repeat=2):
        t = a.rank(c, r)
        for into in (t - 2, t + 2):
            if t > 0 and 0 < into < len(a.rounds):
                moved = _reassign(a, 0, c, r, into)
                verdict = _certify_verdict(certify_cop_strategy, moved)
                assert verdict == _certify_verdict(_certify_rescan, moved), (c, r, into)
                verdicts[verdict if isinstance(verdict, str) else "certified"] += 1
    assert verdicts["escapes"] and verdicts["certified"], verdicts


def _assert_bound_attained(g):
    # the rank-max robber places at the worst rank and each ply lowers the
    # rank by exactly one, so the play-out takes the certified bound
    rc = radius_capture_number(g)
    a = solve_cwrc(g, rc)
    bound = certify_cop_strategy(a)
    t = simulate(g, rc, extract_cop_strategy(a), rank_max_robber_strategy(a),
                 4 * g.n * g.n)
    assert t.captured and t.moves == bound


def test_capture_within_rank_bound():
    for g in [basic_family("cycle", 9), hypercube(3), sierpinski(2, 3)]:
        _assert_bound_attained(g)


@settings(max_examples=60, deadline=None)
@given(st.builds(random_connected_gnp, st.integers(1, 12), st.floats(0.15, 0.7),
                 st.integers(0, 2 ** 32 - 1)))
def test_certified_bound_attained_gnp(g):
    _assert_bound_attained(g)


@pytest.mark.parametrize("g", [basic_family("cycle", 9), hypercube(3),
                               sierpinski(3, 3)])
def test_certify_reads_no_pair_distance(g):
    # round 0 holds the capture states, so the certificate reads the
    # solved rounds only: distance rows of zeros change nothing
    rc = radius_capture_number(g)
    zeros = [[0] * g.n for _ in range(g.n)]
    bound = certify_cop_strategy(solve_cwrc(g, rc))
    assert bound > 0
    assert certify_cop_strategy(solve_cwrc(g, rc, zeros)) == bound
