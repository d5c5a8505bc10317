"""Command-line interface: compute capture numbers, build families, run
the theorem-verification suites of rcgame.verify, and print strategy
transcripts.

Exit codes: 0 success, 1 counterexample or verification failure, 2 usage,
parse or parameter error. RC_SIZE_GUARD overrides the vertex cap.
"""

from __future__ import annotations

import argparse
import os
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
    build_family,
    check_cap,
    named_instance,
    predicted_rc,
)
from .graph import Graph, eccentricities, girth
from .ioformats import ResultRecord, emit_results, parse_edge_list, parse_graph6
from .verify import SUITE_NAMES, run_suite


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
    ecc = eccentricities(g)
    if ecc is None:
        rad = diam = rc = ub = None
    else:
        rad, diam = min(ecc), max(ecc)
        rc = radius_capture_number(g)
        ub = max(0, rad - 1)
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
        except GraphGameError as exc:
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
        if problem is None:
            try:
                check_cap(g.n, guard)
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


def _family_graph(kind: str, tokens, seed: int, guard: int) -> tuple[str, tuple, Graph]:
    """Build a family member from its command-line parameters; returns its
    id, the parsed parameters and the graph."""
    params = tuple(_parse_param(t) for t in tokens)
    g = build_family(FamilySpec(kind, params, seed), guard)
    return "-".join([kind, *(str(p) for p in params)]), params, g


def cmd_family(args) -> int:
    gid, params, g = _family_graph(args.kind, args.params, args.seed,
                                   _size_guard_from_env())
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
        gid, g = args.instance, named_instance(args.instance)
    elif args.family:
        kind, *raw = args.family
        gid, _, g = _family_graph(kind, raw, args.seed, guard)
    elif args.input:
        graphs = list(_read_graphs(args))
        errors = [f"{gid}: {problem}" for gid, _, problem in graphs if problem]
        if errors:
            raise ParseError("; ".join(errors))
        if len(graphs) != 1:
            raise InvalidParam(f"strategy needs exactly one graph, got {len(graphs)}")
        gid, g, _ = graphs[0]
    else:
        raise InvalidParam("need --instance, --family, or an input path")
    check_cap(g.n, guard)
    return gid, g


def cmd_strategy(args) -> int:
    if args.max_moves is not None and args.max_moves < 0:
        raise InvalidParam(f"--max-moves must be >= 0, got {args.max_moves}")
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
    outcome = transcript.outcome
    if args.role == "cop" and not transcript.captured:
        outcome = "cut off"   # the certified cop captures unless the move cap comes first
    print(f"outcome: {outcome} after {transcript.moves} move(s)")
    return 0


def cmd_verify(args) -> int:
    lines, failures = run_suite(args.suite, args.trials, args.seed, args.max_n)
    for line in lines:
        print(line)
    for report in failures:
        print(report.to_json(), file=sys.stderr)
    return 1 if failures else 0


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
    p.add_argument("suite", choices=SUITE_NAMES)
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
