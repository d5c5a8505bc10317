"""CLI behavior: commands, exit codes, determinism, environment overrides."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from rcgame import engine, graph
from rcgame.cli import compute_record, main
from rcgame.errors import ParseError
from rcgame.generators import basic_family, named_instance, sierpinski
from rcgame.graph import build_graph
from rcgame.ioformats import emit_results, parse_graph6, write_graph6

from conftest import graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_graph6_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,n,m,rad,diam,girth,rc,lb,ub,ms"
    assert lines[1] == "graphs:1,3,3,1,1,3,0,0,0,0"


def test_compute_named_instance(capsys):
    code, out, _ = run(capsys, "compute", "--instance", "CubicVT24_6")
    assert code == 0
    assert out.splitlines()[1] == "CubicVT24_6,24,36,5,5,6,3,2,4,0"


def test_compute_disconnected_warns(tmp_path, capsys):
    path = tmp_path / "m.el"
    path.write_text("n 4\n0 1\n2 3\n")
    code, out, err = run(capsys, "compute", str(path), "--format", "edgelist")
    assert code == 0
    assert "disconnected" in err
    assert out.splitlines()[1] == "m,4,2,,,0,,0,,0"


def test_compute_parse_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nBwww\nA_\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "bad:2" in err
    assert len(out.splitlines()) == 3  # header plus the two good graphs


def test_compute_json_output(tmp_path, capsys):
    path = tmp_path / "one.g6"
    path.write_text("A_\n")
    code, out, _ = run(capsys, "compute", str(path), "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["rc"] == 0 and payload[0]["n"] == 2


def test_compute_deterministic_output(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nA_\nDqo\n")
    _, first, _ = run(capsys, "compute", str(path))
    _, second, _ = run(capsys, "compute", str(path))
    assert first == second


def test_family_sierpinski_prediction(capsys):
    code, out, _ = run(capsys, "family", "sierpinski", "4", "3")
    assert code == 0
    assert "rc=11" in out
    assert "predicted rc: 11" in out and "match" in out


def test_family_sierpinski_depth_zero(capsys):
    # S(0, 3) is K_1: radius 0, so the radius - 1 prediction clamps to 0
    code, out, _ = run(capsys, "family", "sierpinski", "0", "3")
    assert code == 0
    assert out.splitlines()[-1].endswith("measured: 0 -> match")


def test_family_reference_value(capsys):
    code, out, _ = run(capsys, "family", "sierpinski", "3", "4")
    assert code == 0
    assert "predicted rc: 5 (reference value 5) measured: 5 -> match" in out


def test_family_disconnected_warning(capsys):
    code, out, err = run(capsys, "family", "generalized_johnson", "4", "2", "0")
    assert code == 0
    assert "rc=none" in out
    assert "disconnected" in err


def test_family_bad_params(capsys):
    code, _, err = run(capsys, "family", "cycle", "2")
    assert code == 2 and "error" in err


def test_verify_bounds_suite(capsys):
    code, out, err = run(capsys, "verify", "bounds", "--trials", "5", "--seed", "9")
    assert code == 0
    assert "radius-upper-bound: 5/5 pass" in out
    assert "girth-lower-bound: 5/5 pass" in out
    assert err == ""


def test_verify_families_suite(capsys):
    code, out, _ = run(capsys, "verify", "families")
    assert code == 0
    assert "cycle-closed-form: 10/10 pass" in out


def test_verify_transitive_sweep(capsys):
    code, out, _ = run(capsys, "verify", "transitive-sweep")
    assert code == 0
    assert out.splitlines()[0] == "instance rad rc rad/2 rc>=rad/2"
    assert any(line.startswith("CubicVT24_6 5 3") for line in out.splitlines())


def test_strategy_cop_capture(capsys):
    code, out, _ = run(capsys, "strategy", "--family", "cycle", "8",
                       "-k", "3", "--role", "cop")
    assert code == 0
    assert "outcome: captured after 1 move(s)" in out
    assert "capture" in out


def test_strategy_robber_survival(capsys):
    code, out, _ = run(capsys, "strategy", "--family", "cycle", "8",
                       "-k", "2", "--role", "robber", "--max-moves", "40")
    assert code == 0
    assert "outcome: survived after 40 move(s)" in out


def test_strategy_cop_cut_off_by_move_cap(capsys):
    argv = ("strategy", "--family", "sierpinski", "3", "3", "-k", "5", "--role", "cop")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "outcome: captured after 7 move(s)" in out
    code, out, _ = run(capsys, *argv, "--max-moves", "1")
    assert code == 0
    assert out.splitlines()[-1] == "outcome: cut off after 1 move(s)"


def test_strategy_readme_transcripts(capsys):
    # the three README strategy commands, stdout pinned byte for byte
    code, out, err = run(capsys, "strategy", "--family", "cycle", "8",
                         "-k", "3", "--role", "cop")
    assert (code, err) == (0, "")
    assert out == ("cycle-8: n=8 m=8 k=3 role=cop\n"
                   "cop strategy: rank-greedy cop; robber strategy: rank-max robber\n"
                   "place cop at 0\n"
                   "place robber at 4  d=4\n"
                   "    1 cop    0 -> 1  d=3  capture\n"
                   "outcome: captured after 1 move(s)\n")

    code, out, err = run(capsys, "strategy", "--family", "cycle", "8",
                         "-k", "2", "--role", "robber")
    assert (code, err) == (0, "")
    # the greedy chase and the evasion repeat one 4-move cycle for all 4n^2 moves
    cycle = ("cop    0 -> 1  d=3", "robber 4 -> 5  d=4",
             "cop    1 -> 0  d=3", "robber 5 -> 4  d=4")
    assert out == ("cycle-8: n=8 m=8 k=2 role=robber\n"
                   "cop strategy: greedy-chase cop; robber strategy: attractor-evading robber\n"
                   "place cop at 0\n"
                   "place robber at 4  d=4\n"
                   + "".join(f"  {i:3d} {cycle[(i - 1) % 4]}\n" for i in range(1, 257))
                   + "outcome: survived after 256 move(s)\n")

    code, out, err = run(capsys, "strategy", "--family", "sierpinski", "3", "3",
                         "-k", "5", "--role", "cop", "--max-moves", "1")
    assert (code, err) == (0, "")
    assert out == ("sierpinski-3-3: n=27 m=39 k=5 role=cop\n"
                   "cop strategy: rank-greedy cop; robber strategy: rank-max robber\n"
                   "place cop at 111\n"
                   "place robber at 233  d=7\n"
                   "    1 cop    111 -> 112  d=6\n"
                   "outcome: cut off after 1 move(s)\n")


def test_strategy_size_guard_every_input(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.g6"
    path.write_text("EhEG\n")
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    for source in ([str(path)], ["--instance", "CubicVT24_6"], ["--family", "cycle", "6"]):
        code, out, err = run(capsys, "strategy", *source, "-k", "1", "--role", "robber")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "exceeds" in err and "cap 4" in err
    monkeypatch.setenv("RC_SIZE_GUARD", "6")
    code, out, _ = run(capsys, "strategy", str(path), "-k", "1", "--role", "robber",
                       "--max-moves", "4")
    assert code == 0 and "outcome: survived after 4 move(s)" in out



def test_family_size_guard_every_kind(capsys, monkeypatch):
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    for argv in (["cycle", "6"], ["path", "5"], ["complete", "5"], ["circulant", "7", "1", "2"],
                 ["named_instance", "CubicVT24_6"], ["hypercube", "3"]):
        code, out, err = run(capsys, "family", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap 4" in err


def test_strategy_disconnected_input(tmp_path, capsys):
    path = tmp_path / "split.el"
    path.write_text("n 3\n0 1\n")
    code, out, err = run(capsys, "strategy", str(path), "--format", "edgelist",
                         "-k", "0", "--role", "robber")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "disconnected" in err and "Traceback" not in err


def test_strategy_empty_graph_either_role(tmp_path, capsys):
    path = tmp_path / "z.el"
    path.write_text("n 0\n")
    for role in ("cop", "robber"):
        code, out, err = run(capsys, "strategy", str(path), "--format", "edgelist",
                             "-k", "0", "--role", role)
        assert code == 2 and out == ""
        assert err == "error: empty graph has no radius\n"


def test_strategy_role_cannot_win(capsys):
    code, _, err = run(capsys, "strategy", "--family", "cycle", "8",
                       "-k", "2", "--role", "cop")
    assert code == 1
    assert "does not win" in err


def test_strategy_from_graph6_file(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    code, out, _ = run(capsys, "strategy", str(path), "-k", "0", "--role", "cop")
    assert code == 0
    assert "captured" in out


def test_compute_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\nBw\n"))
    code, out, _ = run(capsys, "compute", "-")
    assert code == 0
    assert out.splitlines()[1].startswith("stdin:1,2,1,")
    assert out.splitlines()[2].startswith("stdin:2,3,3,")


def test_compute_batch_keeps_rows_around_failed_graph(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n?\nBw\n"))
    code, out, err = run(capsys, "compute", "-")
    assert code == 2
    assert err == "error: stdin:2: empty graph has no radius\n"
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("stdin:1,2,1,")
    assert lines[2].startswith("stdin:3,3,3,")


def test_size_guard_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RC_SIZE_GUARD", "10")
    code, _, err = run(capsys, "compute", "--instance", "CubicVT24_6")
    assert code == 2
    assert "exceeds the cap 10" in err
    monkeypatch.setenv("RC_SIZE_GUARD", "frog")
    code, _, err = run(capsys, "compute", "--instance", "CubicVT24_6")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["compute", "--format", "dot"]) == 2
    assert main(["verify", "imaginary-suite"]) == 2
    capsys.readouterr()


def test_compute_record_matches_known_values():
    rec = compute_record(named_instance("CubicVT24_6"), "cubic")
    assert (rec.rad, rec.rc, rec.lb, rec.ub) == (5, 3, 2, 4)
    rec = compute_record(basic_family("cycle", 6), "c6")
    assert (rec.rad, rec.diam, rec.girth, rec.rc, rec.lb, rec.ub) == (3, 3, 6, 2, 2, 2)


def test_compute_record_timing_flag():
    rec = compute_record(basic_family("cycle", 6), "c6", with_timing=True)
    assert rec.ms > 0
    rec = compute_record(basic_family("cycle", 6), "c6")
    assert rec.ms == 0.0


def test_verify_products_stdout_pinned(capsys):
    code, out, err = run(capsys, "verify", "products")
    assert code == 0 and err == ""
    assert out == ("cartesian-product-bounds: 50/50 pass\n"
                   "cartesian-product-coincidence: 48/48 pass\n"
                   "lexicographic-product-value: 50/50 pass\n"
                   "strong-product-value: 50/50 pass\n")


def test_verify_evenness_stdout_pinned(capsys):
    code, out, err = run(capsys, "verify", "evenness")
    assert code == 0 and err == ""
    assert out == ("even-antipode-distance: 12/12 pass\n"
                   "evenness-classification: 14/14 pass\n"
                   "harmonic-even-capture: 12/12 pass\n")


def test_verify_rejects_out_of_range_sizes(capsys):
    for argv in (("bounds", "--max-n", "1"), ("evenness", "--max-n", "1"),
                 ("outerplanar", "--max-n", "2"), ("retracts", "--max-n", "2"),
                 ("bounds", "--trials", "-3"), ("products", "--trials", "-1")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    code, out, _ = run(capsys, "verify", "retracts", "--max-n", "3", "--trials", "2")
    assert code == 0 and out == "retract-monotonicity: 2/2 pass\n"
    code, out, _ = run(capsys, "verify", "bounds", "--max-n", "2", "--trials", "0")
    assert code == 0 and out == ""


def test_family_non_integer_params(capsys):
    for argv in (("family", "cycle", "abc"), ("family", "cycle", "3.5"),
                 ("family", "hypercube", "x"),
                 ("strategy", "--family", "cycle", "abc", "-k", "1", "--role", "cop")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "integer" in err
    code, _, err = run(capsys, "family", "random_gnp_connected", "6", "abc")
    assert code == 2 and err.startswith("error: ") and "probability" in err
    code, out, _ = run(capsys, "family", "random_gnp_connected", "6", "0.5")
    assert code == 0 and out.startswith("random_gnp_connected-6-0.5: n=6 ")


def test_strategy_rejects_negative_max_moves(capsys):
    code, out, err = run(capsys, "strategy", "--family", "cycle", "8",
                         "-k", "3", "--role", "cop", "--max-moves", "-2")
    assert code == 2
    assert out == "" and "--max-moves" in err
    code, out, _ = run(capsys, "strategy", "--family", "cycle", "8",
                       "-k", "3", "--role", "cop", "--max-moves", "0")
    assert code == 0 and "after 0 move(s)" in out


def test_failing_theorems_carry_counterexamples(capsys, monkeypatch):
    import rcgame.verify as verify

    # a negative capture number breaks the girth lower bound on every graph,
    # rc(retract) <= rc(graph) on every proper retract, and the strong
    # product value on every pair of factors with at least two vertices
    monkeypatch.setattr(verify, "radius_capture_number", lambda g, dm=None: -g.n)
    code, out, err = run(capsys, "verify", "bounds", "--trials", "3")
    assert code == 1
    assert "girth-lower-bound: 0/3 pass" in out
    payloads = [json.loads(line) for line in err.splitlines()]
    assert len(payloads) == 3
    for payload in payloads:
        assert payload["passed"] is False
        assert list(payload["counterexample"]) == ["n", "m", "rad", "girth",
                                                   "edges", "rc"]
        assert payload["counterexample"]["edges"]

    g = basic_family("cycle", 4)
    fold = verify.Retraction(frozenset({0, 1}), (0, 1, 0, 1))
    report = verify.check_retract_monotonicity(g, fold)
    assert not report.passed
    assert report.counterexample == {
        "edges": [(0, 1), (0, 3), (1, 2), (2, 3)],
        "target": [0, 1], "mapping": [0, 1, 0, 1],
        "rc_graph": -4, "rc_retract": -2}
    assert list(report.counterexample) == ["edges", "target", "mapping",
                                           "rc_graph", "rc_retract"]

    reports = verify.check_product_theorems(basic_family("cycle", 4),
                                            basic_family("path", 3))
    failing = [r for r in reports if not r.passed]
    assert "strong-product-value" in [r.theorem for r in failing]
    for r in failing:
        assert list(r.counterexample) == ["edges_g", "edges_h", *r.measured]
        assert r.counterexample["edges_h"] == [(0, 1), (1, 2)]
    for r in reports:
        assert (r.counterexample is None) == r.passed


def test_compute_record_ball_sweeps(monkeypatch):
    # eccentricities gives the row's rad and diam, and the rc pass reads its
    # own balls: two sweeps on a connected graph, none on a disconnected one,
    # which a BFS answers first
    real, started = graph.balls, []

    def counted(g):
        started.append(g)
        return real(g)

    monkeypatch.setattr(graph, "balls", counted)
    monkeypatch.setattr(engine, "balls", counted)
    compute_record(sierpinski(3, 3), "s33")
    assert len(started) == 2
    started.clear()
    compute_record(build_graph(4, [(0, 1), (2, 3)]), "split")
    assert len(started) == 0


def _malformed(record: str, how: str, byte: int, at: int) -> str:
    """Break a graph6 record on at most 62 vertices: a data byte outside the
    range, a set padding bit, one data byte short, or one too many. A way
    the record has no room for (no data bytes, no padding) adds a byte."""
    n, data = ord(record[0]) - 63, record[1:]
    if how == "byte" and data:
        j = at % len(data)
        return record[:1 + j] + chr(byte) + record[2 + j:]
    if how == "padding" and n * (n - 1) // 2 % 6:
        return record[:-1] + chr(63 + ((ord(record[-1]) - 63) | 1))
    if how == "short" and data:
        return record[:-1]
    return record + "?"


@given(st.lists(st.tuples(graphs(min_n=1, max_n=8),
                          st.sampled_from(["good", "byte", "padding", "short", "long"]),
                          st.integers(33, 62) | st.just(127),
                          st.integers(0, 10)),
                min_size=1, max_size=6))
def test_compute_batch_mixed_records(batch):
    """One CSV row per good line and one error line per bad line, each in
    input order; the exit code is 2 when any line is bad."""
    lines, rows, errors = [], [], []
    for no, (g, how, byte, at) in enumerate(batch, start=1):
        gid = f"stdin:{no}"
        line = write_graph6(g)
        if how == "good":
            rows.append(emit_results([compute_record(g, gid)]).splitlines()[1])
        else:
            line = _malformed(line, how, byte, at)
            with pytest.raises(ParseError) as err:
                parse_graph6(line)
            errors.append(f"error: {gid}: {err.value}")
        lines.append(line)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("\n".join(lines) + "\n")), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(["compute", "-"])
    assert code == (2 if errors else 0)
    assert out.getvalue().splitlines()[1:] == rows
    err_lines = err.getvalue().splitlines()
    assert [e for e in err_lines if not e.startswith("warning: ")] == errors
