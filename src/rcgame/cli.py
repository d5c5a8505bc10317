"""Command-line interface: compute capture numbers, build families, run
theorem-verification suites, and print strategy transcripts.

Exit codes: 0 success, 1 counterexample or verification failure, 2 usage
or parse error. RC_SIZE_GUARD overrides the vertex cap.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .engine import (
    extract_cop_strategy,
    extract_robber_strategy,
    greedy_chase_cop_strategy,
    radius_capture_number,
    rank_max_robber_strategy,
    simulate,
    solve_cwrc,
)
from .errors import (
    CouldNotConnect,
    GraphGameError,
    InvalidParam,
    NotConnected,
    ParseError,
    RoleCannotWin,
    SizeGuard,
    UnknownInstance,
)
from .generators import (
    DEFAULT_SIZE_GUARD,
    FamilySpec,
    NAMED_INSTANCES,
    basic_family,
    build_family,
    circulant,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    predicted_rc,
    random_connected_gnp,
    sierpinski,
)
from .graph import (
    Graph,
    all_pairs_distances,
    build_graph,
    girth,
    is_connected,
    radius_diameter,
)
from .ioformats import ResultRecord, emit_results, parse_edge_list, parse_graph6
from .outerplanar import random_outerplanar, rc_outerplanar_formula, validate_embedding
from .verify import (
    EVEN,
    HARMONIC_EVEN,
    TheoremReport,
    check_product_theorems,
    check_retract_monotonicity,
    classify_evenness,
    corner_fold_retraction,
    layer_projection_retraction,
    unique_antipodes,
)


def _size_guard_from_env() -> int:
    raw = os.environ.get("RC_SIZE_GUARD")
    if raw is None:
        return DEFAULT_SIZE_GUARD
    try:
        guard = int(raw)
    except ValueError:
        raise InvalidParam(f"RC_SIZE_GUARD must be an integer, got {raw!r}") from None
    if guard < 1:
        raise InvalidParam(f"RC_SIZE_GUARD must be >= 1, got {guard}")
    return guard


def compute_record(g: Graph, instance_id: str,
                   with_timing: bool = False) -> ResultRecord:
    """Solve one graph and package the result row."""
    t0 = time.perf_counter()
    gir = girth(g)
    dm = all_pairs_distances(g)
    if dm.connected:
        rad, diam = radius_diameter(dm)
        rc = radius_capture_number(g, dm)
        ub = max(0, rad - 1)
    else:
        rad = diam = rc = ub = None
    ms = (time.perf_counter() - t0) * 1000.0 if with_timing else 0.0
    return ResultRecord(instance_id, g.n, g.m, rad, diam, gir, rc,
                        max(0, gir // 2 - 1), ub, round(ms, 3))


def _safe_id(text: str) -> str:
    return text.replace(",", "_")


def _read_graphs(args):
    """Yield (id, graph, error) from --instance or the input path, one
    record at a time so a batch never holds more than one graph. error is
    the parse message, and graph None, for a record that does not parse."""
    if args.instance:
        yield args.instance, named_instance(args.instance), None
        return
    if args.input is None:
        raise InvalidParam("need an input path or --instance")
    if args.input == "-":
        text = sys.stdin.read()
        stem = "stdin"
    else:
        with open(args.input, "r", encoding="ascii") as fh:
            text = fh.read()
        stem = _safe_id(os.path.splitext(os.path.basename(args.input))[0])
    if args.format == "edgelist":
        try:
            g = parse_edge_list(text)
        except (ParseError, GraphGameError) as exc:
            yield stem, None, str(exc)
        else:
            yield stem, g, None
        return
    for no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            g = parse_graph6(line)
        except ParseError as exc:
            yield f"{stem}:{no}", None, str(exc)
        else:
            yield f"{stem}:{no}", g, None


def cmd_compute(args) -> int:
    guard = _size_guard_from_env()
    records = []
    failed = False
    for gid, g, problem in _read_graphs(args):
        if problem is None and g.n > guard:
            problem = f"{g.n} vertices exceeds the cap {guard}"
        if problem is None:
            try:
                rec = compute_record(g, gid, args.timings)
            except GraphGameError as exc:
                problem = str(exc)
        if problem is not None:
            print(f"error: {gid}: {problem}", file=sys.stderr)
            failed = True
            continue
        if rec.rc is None:
            print(f"warning: {gid} is disconnected; the robber wins at every radius",
                  file=sys.stderr)
        records.append(rec)
    sys.stdout.write(emit_results(records, args.out))
    return 2 if failed else 0


def _parse_param(token: str):
    for conv in (int, float):
        try:
            return conv(token)
        except ValueError:
            continue
    return token


def cmd_family(args) -> int:
    guard = _size_guard_from_env()
    params = tuple(_parse_param(t) for t in args.params)
    spec = FamilySpec(args.kind, params, args.seed)
    g = build_family(spec, guard)
    gid = "-".join([args.kind, *(str(p) for p in params)])
    rec = compute_record(g, _safe_id(gid), args.timings)
    print(f"{gid}: n={rec.n} m={rec.m} girth={rec.girth} "
          f"rad={_show(rec.rad)} diam={_show(rec.diam)} rc={_show(rec.rc)}")
    if rec.rc is None:
        print(f"warning: {gid} is disconnected; the robber wins at every radius",
              file=sys.stderr)
    exit_code = 0
    prediction = predicted_rc(args.kind, params, rec.rad)
    if prediction is not None and rec.rc is not None:
        value, note = prediction
        verdict = "match" if value == rec.rc else "MISMATCH"
        print(f"predicted rc: {value} ({note}) measured: {rec.rc} -> {verdict}")
        if verdict == "MISMATCH":
            exit_code = 1
    if args.out:
        sys.stdout.write(emit_results([rec], args.out))
    return exit_code


def _show(value) -> str:
    return "none" if value is None else str(value)


def _graph_for_strategy(args) -> tuple[str, Graph]:
    guard = _size_guard_from_env()
    if args.instance:
        return args.instance, named_instance(args.instance)
    if args.family:
        kind, *raw = args.family
        params = tuple(_parse_param(t) for t in raw)
        g = build_family(FamilySpec(kind, params, args.seed), guard)
        return "-".join([kind, *(str(p) for p in params)]), g
    if args.input:
        fmt_args = argparse.Namespace(instance=None, input=args.input,
                                      format=args.format)
        graphs = list(_read_graphs(fmt_args))
        errors = [f"{gid}: {problem}" for gid, _, problem in graphs if problem]
        if errors:
            raise ParseError("; ".join(errors))
        if len(graphs) != 1:
            raise InvalidParam(f"strategy needs exactly one graph, got {len(graphs)}")
        gid, g, _ = graphs[0]
        return gid, g
    raise InvalidParam("need --instance, --family, or an input path")


def cmd_strategy(args) -> int:
    gid, g = _graph_for_strategy(args)
    k = args.radius
    analysis = solve_cwrc(g, k)
    n = g.n
    max_moves = args.max_moves if args.max_moves is not None else 4 * n * n
    if args.role == "cop":
        if not analysis.is_cop_win:
            raise RoleCannotWin(f"the cop does not win on {gid} at radius {k}")
        cop = extract_cop_strategy(analysis)
        robber = rank_max_robber_strategy(analysis)
    else:
        if analysis.is_cop_win:
            raise RoleCannotWin(f"the robber does not win on {gid} at radius {k}")
        cop = greedy_chase_cop_strategy(g, k, analysis.dm)
        robber = extract_robber_strategy(analysis)
    transcript = simulate(g, k, cop, robber, max_moves, analysis.dm)
    print(f"{gid}: n={n} m={g.m} k={k} role={args.role}")
    print(f"cop strategy: {cop.name}; robber strategy: {robber.name}")
    print(f"place cop at {g.label(transcript.cop_start)}")
    print(f"place robber at {g.label(transcript.robber_start)}"
          f"  d={transcript.start_distance}")
    for i, step in enumerate(transcript.steps, start=1):
        capture = "  capture" if (i == len(transcript.steps)
                                  and transcript.captured) else ""
        print(f"  {i:3d} {step.mover:6s} {g.label(step.origin)} -> "
              f"{g.label(step.target)}  d={step.distance}{capture}")
    print(f"outcome: {transcript.outcome} after {transcript.moves} move(s)")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _random_connected(rng, max_n: int, min_n: int = 2) -> Graph:
    n = rng.randint(min_n, max_n)
    p = rng.uniform(0.2, 0.8)
    return random_connected_gnp(n, p, rng.getrandbits(32))


class _Tally:
    """Pass counters plus counterexample reports, keyed by theorem id."""

    def __init__(self):
        self.passes: dict[str, int] = {}
        self.totals: dict[str, int] = {}
        self.failures: list[TheoremReport] = []

    def add(self, report: TheoremReport) -> None:
        self.totals[report.theorem] = self.totals.get(report.theorem, 0) + 1
        if report.passed:
            self.passes[report.theorem] = self.passes.get(report.theorem, 0) + 1
        else:
            self.failures.append(report)

    def record(self, theorem: str, passed: bool, inputs: dict, predicted: str,
               measured: dict) -> None:
        self.add(TheoremReport(theorem, inputs, predicted, measured, passed,
                               None if passed else {**inputs, **measured}))

    def lines(self) -> list[str]:
        return [f"{tid}: {self.passes.get(tid, 0)}/{self.totals[tid]} pass"
                for tid in sorted(self.totals)]


def suite_bounds(trials: int, seed: int, max_n: int = 14) -> _Tally:
    """Radius upper bound and girth lower bound on random connected graphs."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_connected(rng, max_n)
        dm = all_pairs_distances(g)
        rad, _ = radius_diameter(dm)
        gir = girth(g)
        rc = radius_capture_number(g, dm=dm)
        inputs = {"n": g.n, "m": g.m, "rad": rad, "girth": gir,
                  "edges": sorted(g.edge_set())}
        tally.record("radius-upper-bound", rc <= max(0, rad - 1), inputs,
                     "rc <= rad - 1", {"rc": rc})
        tally.record("girth-lower-bound", rc >= max(0, gir // 2 - 1), inputs,
                     "rc >= girth//2 - 1", {"rc": rc})
    return tally


def suite_retracts(trials: int, seed: int, max_n: int = 12) -> _Tally:
    """Capture monotonicity under corner folds and layer projections."""
    rng = random.Random(seed)
    tally = _Tally()
    for t in range(trials):
        if t % 2 == 0:
            # append a vertex dominated by v so a corner fold always exists
            base = _random_connected(rng, max_n - 1)
            v = rng.randrange(base.n)
            extra = [u for u in base.adj[v] if rng.random() < 0.5]
            edges = list(base.edge_set()) + [(base.n, v)] + [(base.n, u) for u in extra]
            g = build_graph(base.n + 1, edges)
            retr = corner_fold_retraction(g)
            tally.add(check_retract_monotonicity(g, retr))
        else:
            f1 = _random_connected(rng, 5)
            f2 = _random_connected(rng, 5)
            prod, retr = layer_projection_retraction(f1, f2, "cartesian",
                                                     rng.randrange(f2.n))
            tally.add(check_retract_monotonicity(prod, retr))
    return tally


def _evenness_instance_checks(name: str, g: Graph, tally: _Tally,
                              expected: str | None = None) -> None:
    cls = classify_evenness(g)
    if expected is not None:
        tally.record("evenness-classification", cls == expected,
                     {"instance": name}, f"class == {expected}", {"class": cls})
    if cls in (EVEN, HARMONIC_EVEN):
        dm = all_pairs_distances(g)
        _, diam = radius_diameter(dm)
        ant = unique_antipodes(g)
        ok = all(dm.rows[u][ant[v]] == diam - 1 for u, v in g.edges())
        tally.record("even-antipode-distance", ok, {"instance": name},
                     "d(u, v') == diam - 1 for every edge uv", {"class": cls})
    if cls == HARMONIC_EVEN:
        dm = all_pairs_distances(g)
        rad, _ = radius_diameter(dm)
        rc = radius_capture_number(g, dm=dm)
        tally.record("harmonic-even-capture", rc == rad - 1,
                     {"instance": name, "rad": rad}, "rc == rad - 1", {"rc": rc})


def suite_evenness(trials: int, seed: int, max_n: int = 12) -> _Tally:
    """Evenness classification on known families plus random graphs."""
    tally = _Tally()
    _evenness_instance_checks("P_3", basic_family("path", 3), tally, "not_even")
    for n in range(4, 14, 2):
        _evenness_instance_checks(f"C_{n}", basic_family("cycle", n), tally,
                                  HARMONIC_EVEN)
    for n in range(5, 12, 2):
        _evenness_instance_checks(f"C_{n}", basic_family("cycle", n), tally,
                                  "not_even")
    for d in range(1, 5):
        _evenness_instance_checks(f"Q_{d}", hypercube(d), tally, HARMONIC_EVEN)
    rng = random.Random(seed)
    for t in range(trials):
        g = _random_connected(rng, max_n)
        _evenness_instance_checks(f"random-{t}", g, tally)
    return tally


def suite_products(trials: int, seed: int, max_order: int = 100) -> _Tally:
    """The three product theorems on random connected factor pairs."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        g = _random_connected(rng, 8)
        h = _random_connected(rng, max(2, min(8, max_order // g.n)))
        for report in check_product_theorems(g, h):
            tally.add(report)
    return tally


def suite_outerplanar(trials: int, seed: int, max_n: int = 14) -> _Tally:
    """Solver capture number against the largest-inner-face formula."""
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        n = rng.randint(3, max_n)
        prob = rng.uniform(0.0, 0.9)
        g, emb = random_outerplanar(n, prob, rng.getrandbits(32))
        validate_embedding(g, emb)
        predicted = rc_outerplanar_formula(emb)
        rc = radius_capture_number(g)
        tally.record("outerplanar-face-formula", rc == predicted,
                     {"n": n, "chords": sorted(emb.chords)},
                     "rc == max_face//2 - 1",
                     {"rc": rc, "predicted": predicted})
    return tally


def suite_families(trials: int, seed: int) -> _Tally:
    """Closed-form capture numbers across the generated families."""
    tally = _Tally()

    def expect(tid: str, name: str, g: Graph, expected_rc: int) -> None:
        rc = radius_capture_number(g)
        tally.record(tid, rc == expected_rc, {"instance": name},
                     f"rc == {expected_rc}", {"rc": rc})

    for n in range(3, 13):
        expect("cycle-closed-form", f"C_{n}", basic_family("cycle", n), n // 2 - 1)
    for d in range(1, 5):
        expect("hypercube-closed-form", f"Q_{d}", hypercube(d), d - 1)
    for d, q in ((2, 3), (2, 4)):
        expect("hamming-closed-form", f"H({d},{q})", hamming(d, q), d - 1)
    for n, k in ((4, 2), (5, 2)):
        expect("johnson-closed-form", f"J({n},{k})",
               generalized_johnson(n, k, k - 1), k - 1)
    for n, k, i in ((5, 2, 0), (6, 2, 0), (5, 3, 1), (6, 2, 1)):
        g = generalized_johnson(n, k, i)
        if not is_connected(g):
            continue
        rad, _ = radius_diameter(all_pairs_distances(g))
        expect("generalized-johnson-radius", f"J({n},{k},{i})", g, rad - 1)
    for n in range(1, 4):
        expected = 2 ** n - 2 if n < 3 else 3 * 2 ** (n - 2) - 1
        expect("sierpinski3-closed-form", f"S({n},3)", sierpinski(n, 3), expected)
    expect("sierpinski4-reference", "S(3,4)", sierpinski(3, 4), 5)
    cubic = named_instance("CubicVT24_6")
    rad, _ = radius_diameter(all_pairs_distances(cubic))
    tally.record("named-instance-values", rad == 5,
                 {"instance": "CubicVT24_6"}, "rad == 5", {"rad": rad})
    expect("named-instance-values", "CubicVT24_6", cubic, 3)
    return tally


def transitive_sweep_lines(seed: int) -> list[str]:
    """Report capture number against rad/2 for small circulants and the
    hard-coded cubic instance; exploratory output with no verdict."""
    lines = ["instance rad rc rad/2 rc>=rad/2"]
    instances: list[tuple[str, Graph]] = []
    for n in range(5, 11):
        steps_pool = list(range(1, n // 2 + 1))
        for mask in range(1, 1 << len(steps_pool)):
            steps = [s for b, s in enumerate(steps_pool) if (mask >> b) & 1]
            g = circulant(n, steps)
            if is_connected(g):
                instances.append((f"circulant-{n}-{'.'.join(map(str, steps))}", g))
    instances.append(("CubicVT24_6", named_instance("CubicVT24_6")))
    for name, g in instances:
        dm = all_pairs_distances(g)
        rad, _ = radius_diameter(dm)
        rc = radius_capture_number(g, dm=dm)
        lines.append(f"{name} {rad} {rc} {rad / 2:g} "
                     f"{'yes' if rc >= rad / 2 else 'no'}")
    return lines


_SUITES = {
    "bounds": (suite_bounds, 200),
    "retracts": (suite_retracts, 100),
    "evenness": (suite_evenness, 50),
    "products": (suite_products, 50),
    "outerplanar": (suite_outerplanar, 200),
    "families": (suite_families, 0),
}


def cmd_verify(args) -> int:
    if args.suite == "transitive-sweep":
        for line in transitive_sweep_lines(args.seed):
            print(line)
        return 0
    suite_fn, default_trials = _SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    if args.suite in ("bounds", "outerplanar", "evenness", "retracts"):
        tally = suite_fn(trials, args.seed, args.max_n)
    else:
        tally = suite_fn(trials, args.seed)
    for line in tally.lines():
        print(line)
    for report in tally.failures:
        print(report.to_json(), file=sys.stderr)
    return 1 if tally.failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcgame",
        description="Exact solver for the cop and robber game with radius of capture")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="capture numbers for graphs from a file")
    p.add_argument("input", nargs="?", help="input path or - for stdin")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--instance", choices=NAMED_INSTANCES)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--timings", action="store_true",
                   help="emit wall-clock ms (breaks byte-identical reruns)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("family", help="build a graph family instance and solve it")
    p.add_argument("kind")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", choices=("csv", "json"))
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", choices=(*_SUITES, "transitive-sweep"))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-n", type=int, default=14)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("strategy", help="print a certified strategy transcript")
    p.add_argument("input", nargs="?", help="input path or - for stdin")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--instance", choices=NAMED_INSTANCES)
    p.add_argument("--family", nargs="+", metavar="KIND_OR_PARAM")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-k", "--radius", type=int, required=True)
    p.add_argument("--role", choices=("cop", "robber"), required=True)
    p.add_argument("--max-moves", type=int)
    p.set_defaults(func=cmd_strategy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, InvalidParam, UnknownInstance, SizeGuard,
            CouldNotConnect, NotConnected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
