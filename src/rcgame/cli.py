"""Command-line interface: compute capture numbers, build families, run
the theorem-verification suites of rcgame.verify, and print strategy
transcripts. A result row's rad, diam and rc come from
engine.capture_radii. The suite names are rcgame.verify's alone: only
cmd_verify imports it, and its run_suite refuses an unknown name. The
family kinds are generators.FAMILIES's alone, and build_family refuses an
unknown one. Each command takes one graph source: a path, --instance or
(for strategy) --family; none, or two, is a usage error.

Exit codes: 0 success, 1 counterexample or verification failure, 2 usage,
parse or parameter error. A stdout closed before the output is written
(a command piped into head) ends the command with exit code 1 and nothing
on stderr: main points stdout at os.devnull, so the flush at exit writes
nowhere. RC_SIZE_GUARD overrides the vertex cap; each graph source
(parser, generator, named instance) checks it before it builds. Input is
read as bytes and handed to the parsers undecoded, so the ASCII check is
theirs alone.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time

from .engine import (
    capture_radii,
    extract_cop_strategy,
    extract_robber_strategy,
    greedy_chase_cop_strategy,
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
    FamilySpec,
    NAMED_INSTANCES,
    build_family,
    named_instance,
    predicted_rc,
)
from .graph import Graph, all_pairs_distances, girth
from .ioformats import ResultRecord, emit_results, parse_edge_list, parse_graph6

def compute_record(g: Graph, instance_id: str,
                   with_timing: bool = False) -> ResultRecord:
    """Solve one graph and package the result row: girth, then rad, diam
    and rc from one engine.capture_radii call."""
    t0 = time.perf_counter()
    gir = girth(g)
    rad, diam, rc = capture_radii(g) or (None, None, None)
    ms = (time.perf_counter() - t0) * 1000.0 if with_timing else 0.0
    return ResultRecord(instance_id, g.n, g.m, rad, diam, gir, rc, round(ms, 3))


def _safe_id(text: str) -> str:
    return text.replace(",", "_")


def _read_text(path: str) -> bytes:
    """The bytes at path, or on stdin for "-", undecoded: the parsers refuse
    a record that holds a non-ASCII byte, and no other. A stdin without a
    byte buffer (io.StringIO) gives its text as a str, encoded here as
    UTF-8, so its records split where the same bytes would; an unreadable
    path raises InvalidParam."""
    if path == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
        return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidParam(f"cannot read {path}: {exc.strerror}") from None


def _read_graphs(args):
    """Yield (id, graph, error) from --instance or the input path, one
    record at a time so a batch never holds more than one graph. A graph6
    record is one line, ended by LF, CR LF or CR, and is copied out of the
    input only when it is read; a blank line is skipped but keeps its
    number in the ids. error is the message, and graph None, for a record
    its source refuses: one that does not parse, holds a non-ASCII byte or
    whose order exceeds the vertex cap."""
    if args.instance:
        records = [(args.instance, named_instance, args.instance)]
    else:
        text = _read_text(args.input)
        stem = ("stdin" if args.input == "-"
                else _safe_id(os.path.splitext(os.path.basename(args.input))[0]))
        if args.format == "edgelist":
            records = [(stem, parse_edge_list, text)]
        else:
            # io.BytesIO reads text in place, one LF-ended piece at a time, and
            # splitlines splits a piece at CR too: the lines of text.splitlines().
            # An input whose lines all end in CR alone is one piece, copied whole
            lines = (line for piece in io.BytesIO(text) for line in piece.splitlines())
            records = ((f"{stem}:{no}", parse_graph6, line)
                       for no, line in enumerate(lines, start=1) if line.strip())
    for gid, parse, data in records:
        try:
            g, problem = parse(data), None
        except GraphGameError as exc:
            g, problem = None, str(exc)
        yield gid, g, problem


def cmd_compute(args) -> int:
    records = []
    failed = False
    for gid, g, problem in _read_graphs(args):
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


def _family_graph(kind: str, tokens, seed: int) -> tuple[str, tuple, Graph]:
    """Build a family member from its command-line parameters; returns its
    id, the parsed parameters and the graph."""
    params = tuple(_parse_param(t) for t in tokens)
    g = build_family(FamilySpec(kind, params, seed))
    return "-".join([kind, *(str(p) for p in params)]), params, g


def cmd_family(args) -> int:
    gid, params, g = _family_graph(args.kind, args.params, args.seed)
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
    if args.family:
        kind, *raw = args.family
        gid, _, g = _family_graph(kind, raw, args.seed)
        return gid, g
    graphs = list(_read_graphs(args))
    errors = [f"{gid}: {problem}" for gid, _, problem in graphs if problem]
    if errors:
        raise ParseError("; ".join(errors))
    if len(graphs) != 1:
        raise InvalidParam(f"strategy needs exactly one graph, got {len(graphs)}")
    return graphs[0][:2]


def cmd_strategy(args) -> int:
    if args.max_moves is not None and args.max_moves < 0:
        raise InvalidParam(f"--max-moves must be >= 0, got {args.max_moves}")
    gid, g = _graph_for_strategy(args)
    k = args.radius
    analysis = solve_cwrc(g, k)
    n = g.n
    max_moves = args.max_moves if args.max_moves is not None else 4 * n * n
    if analysis.is_cop_win != (args.role == "cop"):
        raise RoleCannotWin(f"the {args.role} does not win on {gid} at radius {k}")
    dm = all_pairs_distances(g)     # one table for the chase and the play-out
    if args.role == "cop":
        cop = extract_cop_strategy(analysis)
        robber = rank_max_robber_strategy(analysis)
    else:
        cop = greedy_chase_cop_strategy(g, k, dm)
        robber = extract_robber_strategy(analysis)
    transcript = simulate(g, k, cop, robber, max_moves, dm)
    print(f"{gid}: n={n} m={g.m} k={k} role={args.role}")
    print(f"cop strategy: {cop.name}; robber strategy: {robber.name}")
    print(f"place cop at {g.label(transcript.cop_start)}")
    print(f"place robber at {g.label(transcript.robber_start)}"
          f"  d={transcript.start_distance}")
    capture_at = transcript.moves if transcript.captured else 0
    for i, step in enumerate(transcript.all_steps(), start=1):
        capture = "  capture" if i == capture_at else ""
        print(f"  {i:3d} {step.mover:6s} {g.label(step.origin)} -> "
              f"{g.label(step.target)}  d={step.distance}{capture}")
    outcome = transcript.outcome
    if args.role == "cop" and not transcript.captured:
        outcome = "cut off"   # the certified cop captures unless the move cap comes first
    print(f"outcome: {outcome} after {transcript.moves} move(s)")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="input path or - for stdin")
    source.add_argument("--instance", choices=NAMED_INSTANCES)
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--timings", action="store_true",
                   help="emit wall-clock ms (breaks byte-identical reruns)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("family", help="build a graph family instance and solve it")
    p.add_argument("kind", help="family kind; an unknown one lists the kinds")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", choices=("csv", "json"))
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", help="suite name; an unknown one lists the suites")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-n", type=int, default=14)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("strategy", help="print a certified strategy transcript")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="input path or - for stdin")
    source.add_argument("--instance", choices=NAMED_INSTANCES)
    source.add_argument("--family", nargs="+", metavar="KIND_OR_PARAM")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
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
        code = args.func(args)
        sys.stdout.flush()        # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, InvalidParam, UnknownInstance, SizeGuard,
            CouldNotConnect, NotConnected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
