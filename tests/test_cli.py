"""CLI behavior: commands, exit codes, determinism, environment overrides."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from rcgame import cli, engine, graph, verify
from rcgame.cli import _read_graphs, compute_record, main
from rcgame.errors import ParseError
from rcgame.generators import basic_family, named_instance, sierpinski
from rcgame.graph import build_graph
from rcgame.ioformats import emit_results, parse_graph6, write_graph6

from conftest import graphs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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


def test_family_appends_its_record_in_the_out_format(capsys):
    head = ("cycle-6: n=6 m=6 girth=6 rad=3 diam=3 rc=2\n"
            "predicted rc: 2 (closed form n//2 - 1) measured: 2 -> match\n")
    code, out, err = run(capsys, "family", "cycle", "6", "--out", "csv")
    assert (code, err) == (0, "")
    assert out == head + "id,n,m,rad,diam,girth,rc,lb,ub,ms\ncycle-6,6,6,3,3,6,2,2,2,0\n"
    code, out, err = run(capsys, "family", "cycle", "6", "--out", "json")
    assert (code, err) == (0, "") and out.startswith(head)
    assert json.loads(out[len(head):]) == [
        {"id": "cycle-6", "n": 6, "m": 6, "rad": 3, "diam": 3, "girth": 6,
         "rc": 2, "lb": 2, "ub": 2, "ms": 0.0}]


def test_family_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "predicted_rc", lambda kind, params, rad: (3, "planted"))
    code, out, err = run(capsys, "family", "cycle", "6")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "predicted rc: 3 (planted) measured: 2 -> MISMATCH"


def test_family_generalized_johnson_readme_output(capsys):
    # the README command; its prediction note names the family's property
    code, out, err = run(capsys, "family", "generalized_johnson", "5", "2", "0")
    assert code == 0 and err == ""
    assert out == (
        "generalized_johnson-5-2-0: n=10 m=15 girth=5 rad=2 diam=2 rc=1\n"
        "predicted rc: 1 (radius - 1 (generously transitive family)) "
        "measured: 1 -> match\n")


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


EMPTY = hashlib.sha256(b"").hexdigest()

# The output contract: each command CI reruns under two string hash seeds,
# with its exit code and the sha256 of its stdout and of its stderr. A
# deliberate output change edits its row.
PINNED = [
    ("verify retracts --seed 1", 0,
     "af7dbbbadd8b5784c7dfe1c64d30eafa59e5009d14c4a32995ee64db6597a5ce", EMPTY),
    ("verify bounds --seed 1", 0,
     "0f24baee9b4fe6d1b909fcd07d78b3818971b6e473ce90ec8c8d3ff6ca22bcea", EMPTY),
    ("verify evenness --seed 1", 0,
     "71bfb99013d13ea13eaf41f9fad871a355c55acdcbf67613a0294f1f9b0c0af2", EMPTY),
    ("verify outerplanar --seed 1 --trials 50", 0,
     "5230ec466edc8dfbb8b92468c086dc80bec2ddc3e47fb9cb583f0f27745b1e0c", EMPTY),
    ("verify products --seed 1", 0,
     "91104ec564a567b7e724d059aa568daa7a70a8d9351c36822f769fe932dcccf2", EMPTY),
    ("verify families", 0,
     "17452dbd3e416e01d193e505d436e80c4c7abb64e85f7228aff427e1b74db1fc", EMPTY),
    ("verify transitive-sweep", 0,
     "8d7e5208d40016d9bb63de2580376c870cfa8e9bd1cd77003f0b7fe2af7fe0cd", EMPTY),
    ("strategy --family sierpinski 3 3 -k 5 --role cop", 0,
     "2c4673986d2e599136dfdc8783225945821b948163e4e05c87ca3062e715b850", EMPTY),
    ("strategy --family sierpinski 3 3 -k 4 --role robber", 0,
     "b8e682c7d1d94f5a30095be455273caacbbd51d778a44bee9b352f37c129ce53", EMPTY),
    # a solve whose kernel skips settled columns: about half its ORs
    ("strategy --family sierpinski 4 4 -k 11 --role cop", 0,
     "b66d8b7cd8d3bd61bfd96e0966e3ac2c71d4776c224457af6d8dd954d7704bd6", EMPTY),
    ("strategy --family generalized_johnson 5 2 0 -k 1 --role cop", 0,
     "d6c222c7e6737e0e3211d757399c289995998b53ffea055d07bf47748f7680c0", EMPTY),
    ("compute --instance CubicVT24_6 --out json", 0,
     "5c964c20eeba500f916eb10ffa9457f71cbc2fd6ed203fb3235d45163314d10c", EMPTY),
    ("family sierpinski 5 3", 0,
     "f7bb1ca54c8220453a7e019ba3316c5a2f4fe552e468b91d08e62fe48c8bf81f", EMPTY),
    ("family sierpinski 4 4", 0,
     "53f63c08c617b613796835c0251d38d868758da88cfef712397dc53eed0f8720", EMPTY),
    ("family sierpinski 6 3", 0,
     "bdff845849c1306538ce32939e1f8b2b39f8a5dbc074ee927e4b831b0252ca8f", EMPTY),
    ("family generalized_johnson 7 3 2", 0,
     "6a183658249a034cecd4e725e73dd75c2e82d854bcc3cc70a57c51201e48d450", EMPTY),
    ("family generalized_johnson 70 1 0", 0,
     "3d7c3b9ef37b9ca3410cd2167d49d7a080681430c5329436c6b726c738b24793", EMPTY),
    # K_1 and K_2 are answered from their edge counts, with no sweep
    ("family complete 1", 0,
     "806288090ab672e0c4c005e402b8fff9a1a76668d604842578261e31bc929c2b", EMPTY),
    ("family complete 2", 0,
     "08c43e3923f1110f2432fbc50002fcb7c692eb8fe9f8b368898b142e64de82a7", EMPTY),
    # the README's summary-line commands; their --trials are the defaults,
    # so the two verify rows print what the --seed 1 rows above print
    ("verify bounds --trials 200", 0,
     "0f24baee9b4fe6d1b909fcd07d78b3818971b6e473ce90ec8c8d3ff6ca22bcea", EMPTY),
    ("verify products --trials 50", 0,
     "91104ec564a567b7e724d059aa568daa7a70a8d9351c36822f769fe932dcccf2", EMPTY),
    ("family sierpinski 4 3", 0,
     "61d5163c0b6643f2099697854511b14152332058c68cd1adc70ad4fcaaeb5d76", EMPTY),
    # k = 0 decided by the corner pass before any probe: Petersen is
    # corner-free (rc 1); P_5, P_9 and P_300 (rad 150) are dismantlable, so
    # rc 0 with no kernel probe
    ("family generalized_johnson 5 2 0", 0,
     "475190c0a22a95cf3056f332ce4776e627ede90d58e120bf6d2a65399cd56931", EMPTY),
    ("family path 5", 0,
     "9d2e7b52d396c39df3ead091ada9b6970e4c9168506d70b85cdf9674e341dd7a", EMPTY),
    ("family path 9", 0,
     "f754d8f0df416fca145303039d62622a673f44ebd1a079e9e8e5eefb3bf55631", EMPTY),
    ("family path 300", 0,
     "a3267bab6a23444bfe364bfeefacb19b4dfde9037807783088d4dc4c9bb4b47a", EMPTY),
    # G(n, p) and S(n, k) with k > 3 built straight from their rows
    ("family random_gnp_connected 12 0.3 --seed 7", 0,
     "50eff7765d94a699023a85dcb75ed862ff16fb0848107142e3112711bad34147", EMPTY),
    ("family sierpinski 3 4", 0,
     "54e7fadee7df1a58c1a30a642791298d5b42e966e0aad963a5f7351f87fe27ff", EMPTY),
]


@pytest.mark.parametrize("argv,code,out_sha,err_sha", PINNED,
                         ids=[row[0] for row in PINNED])
def test_command_outputs_pinned(capsys, argv, code, out_sha, err_sha):
    got, out, err = run(capsys, *argv.split())
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (got, *digests) == (code, out_sha, err_sha), (
        f"exit {got}\n--- stdout ---\n{out}--- stderr ---\n{err}")


def test_strategy_transcripts_on_distance_planes(capsys):
    # Q_5 and J(6,2,0) have 6 ecc(0) <= n, so their d= columns read rows
    # from the ball planes, not from one BFS per vertex; stdout pinned
    code, out, err = run(capsys, "strategy", "--family", "hypercube", "5",
                         "-k", "2", "--role", "robber", "--max-moves", "12")
    assert (code, err) == (0, "")
    cycle = ("cop    00000 -> 00001  d=3", "robber 01111 -> 01110  d=4",
             "cop    00001 -> 00000  d=3", "robber 01110 -> 01111  d=4")
    assert out == ("hypercube-5: n=32 m=80 k=2 role=robber\n"
                   "cop strategy: greedy-chase cop; robber strategy: attractor-evading robber\n"
                   "place cop at 00000\n"
                   "place robber at 01111  d=4\n"
                   + "".join(f"  {i:3d} {cycle[(i - 1) % 4]}\n" for i in range(1, 13))
                   + "outcome: survived after 12 move(s)\n")

    code, out, err = run(capsys, "strategy", "--family", "generalized_johnson",
                         "6", "2", "0", "-k", "1", "--role", "cop")
    assert (code, err) == (0, "")
    assert out == ("generalized_johnson-6-2-0: n=15 m=45 k=1 role=cop\n"
                   "cop strategy: rank-greedy cop; robber strategy: rank-max robber\n"
                   "place cop at {1,2}\n"
                   "place robber at {1,3}  d=2\n"
                   "    1 cop    {1,2} -> {4,5}  d=1  capture\n"
                   "outcome: captured after 1 move(s)\n")


def test_one_graph_source_per_command(tmp_path, capsys):
    # a file, --instance and (for strategy) --family exclude each other, and
    # one of them is required: a second source is a usage error, never
    # dropped for the first
    path = tmp_path / "k2.g6"
    path.write_text("A_\n")
    game = ("-k", "1", "--role", "robber")
    for argv, problem in [
            (("compute", str(path), "--instance", "CubicVT24_6"), "not allowed with"),
            (("compute", "--instance", "CubicVT24_6", str(path)), "not allowed with"),
            (("strategy", str(path), "--family", "cycle", "5", *game), "not allowed with"),
            (("strategy", str(path), "--instance", "CubicVT24_6", *game), "not allowed with"),
            (("strategy", "--instance", "CubicVT24_6", "--family", "cycle", "5", *game),
             "not allowed with"),
            (("compute",), "is required"),
            (("strategy", *game), "is required")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert problem in err, argv


def test_strategy_size_guard_every_input(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.g6"
    path.write_text("EhEG\n")
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    # a record read from a file or named carries its id, as in compute
    for source, err_line in [([str(path)], "error: c6:1: 6 vertices exceeds the cap 4\n"),
                             (["--instance", "CubicVT24_6"],
                              "error: CubicVT24_6: 24 vertices exceeds the cap 4\n"),
                             (["--family", "cycle", "6"],
                              "error: 6 vertices exceeds the cap 4\n")]:
        code, out, err = run(capsys, "strategy", *source, "-k", "1", "--role", "robber")
        assert (code, out, err) == (2, "", err_line)
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


def test_family_orders_past_the_cap_fail_fast(capsys):
    # these orders have millions of digits; the check refuses them unbuilt
    start = time.perf_counter()
    for argv in (["sierpinski", "30000000", "3"], ["sierpinski", "2000000", "3"],
                 ["generalized_johnson", "2000000", "1000000", "1"]):
        code, out, err = run(capsys, "family", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "exceeds the cap 65536" in err
    assert time.perf_counter() - start < 1.0


def test_verify_obeys_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    code, out, err = run(capsys, "verify", "products", "--trials", "1")
    assert code == 2 and "exceeds the cap 4" in err


@pytest.mark.parametrize("k,role", [("3", "cop"), ("2", "robber")])
def test_strategy_builds_the_rows_once(capsys, monkeypatch, k, role):
    # the solve builds no distance rows; the command builds them once and
    # hands them to the greedy chase and the play-out
    built = []

    def counted(real):
        return lambda g: built.append(g) or real(g)

    monkeypatch.setattr(cli, "all_pairs_distances", counted(cli.all_pairs_distances))
    monkeypatch.setattr(engine, "all_pairs_distances", counted(engine.all_pairs_distances))
    code, out, _ = run(capsys, "strategy", "--family", "cycle", "8", "-k", k, "--role", role)
    assert code == 0 and out.startswith(f"cycle-8: n=8 m=8 k={k} role={role}\n")
    assert len(built) == 1


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


def test_strategy_refuses_a_file_of_two_graphs(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("Bw\nA_\n")
    code, out, err = run(capsys, "strategy", str(path), "-k", "0", "--role", "cop")
    assert (code, out) == (2, "")
    assert err == "error: strategy needs exactly one graph, got 2\n"


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


def test_compute_batch_refuses_an_over_cap_record_alone(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\nE???\nA_\n"))
    monkeypatch.setenv("RC_SIZE_GUARD", "4")
    code, out, err = run(capsys, "compute", "-")
    assert code == 2
    assert err == "error: stdin:2: 6 vertices exceeds the cap 4\n"
    assert out.splitlines()[1:] == ["stdin:1,2,1,1,1,0,0,0,0,0",
                                    "stdin:3,2,1,1,1,0,0,0,0,0"]


def test_compute_edge_list_with_a_non_ascii_byte(tmp_path, capsys):
    path = tmp_path / "k2.el"
    path.write_bytes(b"n 2\n0 1\n\xc3\xa9\n")
    code, out, err = run(capsys, "compute", "--format", "edgelist", str(path))
    assert (code, out) == (2, "id,n,m,rad,diam,girth,rc,lb,ub,ms\n")
    assert err == "error: k2: non-ASCII character in edge-list input\n"


def test_compute_file_with_a_non_ascii_byte_keeps_the_other_rows(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"A_\n\xc3\xa9\nBw\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert err == "error: graphs:2: non-ASCII character in graph6 record\n"
    assert out.splitlines()[1:] == ["graphs:1,2,1,1,1,0,0,0,0,0",
                                    "graphs:3,3,3,1,1,3,0,0,0,0"]


def _byte_stdin(data):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_compute_stdin_bytes_with_non_ascii_record(capsys, monkeypatch):
    # a real stdin is read through its byte buffer, undecoded
    monkeypatch.setattr("sys.stdin", _byte_stdin(b"A_\n\xc3\xa9\nA_\n"))
    code, out, err = run(capsys, "compute", "-")
    assert code == 2
    assert err == "error: stdin:2: non-ASCII character in graph6 record\n"
    assert out.splitlines()[1:] == ["stdin:1,2,1,1,1,0,0,0,0,0",
                                    "stdin:3,2,1,1,1,0,0,0,0,0"]


def test_compute_stdin_records_end_at_lf_crlf_and_cr(capsys, monkeypatch):
    # line 3 is blank: skipped, and its number is not reused
    monkeypatch.setattr("sys.stdin", _byte_stdin(b"A_\r\nBw\r\n\r\nA_\rBw\n"))
    code, out, err = run(capsys, "compute", "-")
    assert (code, err) == (0, "")
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [
        "stdin:1", "stdin:2", "stdin:4", "stdin:5"]


def test_compute_stdin_form_feed_and_separators_stay_in_their_record(capsys, monkeypatch):
    # only LF, CR LF and CR end a record: a form feed and the ASCII
    # separators are bytes of the record that holds them
    monkeypatch.setattr("sys.stdin", _byte_stdin(b"A_\x0cBw\nA_\n\x1c\x1f\n"))
    code, out, err = run(capsys, "compute", "-")
    assert code == 2
    assert err == ("error: stdin:1: expected 1 data bytes for n=2, got 4\n"
                   "error: stdin:3: size byte 28 outside graph6 range\n")
    assert out.splitlines()[1:] == ["stdin:2,2,1,1,1,0,0,0,0,0"]


def test_graph6_batch_is_held_once_while_its_records_are_read(tmp_path):
    # 150 records of the edgeless order-400 graph, about 2 MB: each record is
    # copied out of the input only when it is read, so the batch is not held
    # a second time as a list of its lines
    record = write_graph6(build_graph(400, [])) + "\n"
    path = tmp_path / "batch.g6"
    path.write_text(record * 150)
    size = path.stat().st_size
    args = argparse.Namespace(instance=None, input=str(path), format="graph6")
    tracemalloc.start()
    try:
        ids = [gid for gid, g, problem in _read_graphs(args) if g.n == 400]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids == [f"batch:{no}" for no in range(1, 151)]
    assert peak < 1.5 * size, (peak, size)


@pytest.mark.parametrize("text", ["A_\x0cA_\n", "A_\x85A_\n", "A_\u2028A_\n"])
def test_compute_str_stdin_splits_records_as_bytes_do(capsys, monkeypatch, text):
    # str.splitlines would also split at a form feed, NEL or line separator;
    # a stdin without a byte buffer gives the rows, errors and exit code of
    # the same text read as bytes
    results = []
    for stdin in (io.StringIO(text), _byte_stdin(text.encode())):
        monkeypatch.setattr("sys.stdin", stdin)
        results.append(run(capsys, "compute", "-"))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (2, "id,n,m,rad,diam,girth,rc,lb,ub,ms\n")
    assert err.startswith("error: stdin:1: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["compute"], ["strategy", "-k", "0", "--role", "cop"]])
def test_unreadable_path_is_a_usage_error(tmp_path, capsys, argv):
    for path, reason in [(tmp_path / "missing.g6", "No such file or directory"),
                         (tmp_path, "Is a directory")]:
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}: {reason}\n"


def test_size_guard_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RC_SIZE_GUARD", "10")
    code, _, err = run(capsys, "compute", "--instance", "CubicVT24_6")
    assert code == 2
    assert "exceeds the cap 10" in err
    monkeypatch.setenv("RC_SIZE_GUARD", "frog")
    code, _, err = run(capsys, "compute", "--instance", "CubicVT24_6")
    assert code == 2


def test_edge_list_cap_before_building(capsys, monkeypatch):
    # the header alone is checked, so a huge count allocates nothing
    def no_build(*args):
        raise AssertionError("built a graph over the vertex cap")

    monkeypatch.setattr("rcgame.ioformats.build_graph", no_build)
    for argv in (["compute"], ["strategy", "-k", "0", "--role", "cop"]):
        monkeypatch.setattr("sys.stdin", io.StringIO("n 70000\n0 1\n"))
        code, _, err = run(capsys, *argv, "--format", "edgelist", "-")
        assert code == 2
        assert "70000 vertices exceeds the cap 65536" in err


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
    assert code == 0 and out == ("corner-fold-equality: 1/1 pass\n"
                                 "retract-monotonicity: 2/2 pass\n")
    code, out, _ = run(capsys, "verify", "bounds", "--max-n", "2", "--trials", "0")
    assert code == 0 and out == ""


def test_verify_runs_every_suite_in_the_table(capsys):
    # verify.SUITES is the one suite list: each row runs from the command
    # line, and any other name is refused by run_suite, not by argparse,
    # with every suite named on one error line
    for name in verify.SUITES:
        code, _, err = run(capsys, "verify", name, "--trials", "0")
        assert (code, err) == (0, ""), name
    code, out, err = run(capsys, "verify", "nosuch")
    assert (code, out) == (2, "")
    assert err == ("error: unknown suite 'nosuch'; the suites are bounds, retracts, "
                   "evenness, products, outerplanar, families, transitive-sweep\n")


def test_unknown_family_kind_lists_the_kinds(capsys):
    # generators.FAMILIES is the one kind list, read by `family` and by
    # `strategy --family` alike: any other kind gets one error line
    kinds = ("cycle, path, complete, hypercube, hamming, generalized_johnson, "
             "sierpinski, circulant, named_instance, random_gnp_connected")
    for argv in (("family", "nosuch", "1"),
                 ("strategy", "--family", "nosuch", "-k", "1", "--role", "cop")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: unknown family kind 'nosuch'; the kinds are {kinds}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "--instance", "CubicVT24_6"],
    ["family", "cycle", "5"],
    ["verify", "transitive-sweep"],
    ["strategy", "--family", "sierpinski", "3", "3", "-k", "4", "--role", "robber"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_1_quietly(argv):
    # a stdout whose reader has gone, as in `rcgame ... | head -1`: the
    # command ends with exit code 1 and no traceback, neither from its
    # own write nor from the interpreter's flush at exit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rcgame.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_family_non_integer_params(capsys):
    for argv in (("family", "cycle", "abc"), ("family", "cycle", "3.5"),
                 ("family", "hypercube", "x"),
                 ("strategy", "--family", "cycle", "abc", "-k", "1", "--role", "cop")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "takes integer parameters" in err
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


def test_cli_import_leaves_theorem_checks_unloaded():
    # a compute process imports the compute path only: the theorem checks,
    # products, the outerplanar checks and json load when a command needs
    # them, and no record in the package is a dataclass, so neither
    # dataclasses nor the modules it imports load, not even once verify has
    # run; each import runs in its own interpreter
    lazy = ("rcgame.verify", "rcgame.outerplanar", "rcgame.products", "json",
            "dataclasses", "inspect", "ast", "dis", "tokenize")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for module in ("rcgame", "rcgame.cli"):
        script = textwrap.dedent(f"""
            import sys
            before = set(sys.modules)
            import {module}
            loaded = set(sys.modules) - before
            print(*[name for name in {lazy!r} if name in loaded])
            import rcgame.cli
            code = rcgame.cli.main(["verify", "families"])
            print(code, "rcgame.verify" in sys.modules, "dataclasses" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "", f"loaded by import {module}: {lines[0]}"
        assert lines[-1] == "0 True False"
        assert "cycle-closed-form: 10/10 pass" in lines


def test_failing_theorems_carry_counterexamples(capsys, monkeypatch):
    import rcgame.verify as verify

    # a negative capture number breaks the girth lower bound on every graph,
    # rc(retract) <= rc(graph) on every proper retract, and the strong
    # product value on every pair of factors with at least two vertices;
    # the bounds suite and the factors read rc from capture_radii
    real = verify.capture_radii
    monkeypatch.setattr(verify, "radius_capture_number", lambda g: -g.n)
    monkeypatch.setattr(verify, "capture_radii", lambda g: real(g)[:2] + (-g.n,))
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
    fold = verify.Retraction((0, 1, 0, 1))
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
    # one sweep gives the row's rad and diam and the balls the rc search
    # reads: one sweep on a connected graph whose rc is rad - 1, none on a
    # disconnected one, which a BFS answers first
    real, started = graph.balls, []

    def counted(g):
        started.append(g)
        return real(g)

    monkeypatch.setattr(graph, "balls", counted)
    monkeypatch.setattr(engine, "balls", counted)
    compute_record(sierpinski(3, 3), "s33")
    assert len(started) == 1
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
