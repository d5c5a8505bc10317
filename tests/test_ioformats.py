"""graph6 and edge-list codecs, result records and their emission."""

import json
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st

from rcgame.errors import InvalidParam, InvariantViolation, ParseError, SizeGuard
from rcgame.generators import basic_family
from rcgame.graph import build_graph
from rcgame.ioformats import (
    ResultRecord,
    emit_results,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)

from conftest import graphs, to_networkx


def test_parse_small_records():
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.edge_set() == {(0, 1)}
    empty = parse_graph6("A?")
    assert empty.n == 2 and empty.m == 0
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and k3.m == 3


def test_parse_header_and_bytes():
    assert parse_graph6(">>graph6<<Bw").m == 3
    assert parse_graph6(b"Bw\n").m == 3


def test_write_small_records():
    assert write_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert write_graph6(build_graph(2, [])) == "A?"
    assert write_graph6(basic_family("complete", 3)) == "Bw"


def test_round_trip_random_graphs():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(0, 20)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        g = build_graph(n, edges)
        encoded = write_graph6(g)
        again = parse_graph6(encoded)
        assert again.n == g.n and again.edge_set() == g.edge_set()
        assert write_graph6(again) == encoded


def test_graph6_agrees_with_networkx():
    # n = 0..47 meets every residue of n(n - 1)/2 mod 24, the writer's
    # padding to whole base64 quanta; 63 is the first '~' size field and
    # 729 the order of S(6,3)
    rng = random.Random(25)
    for n in [*range(48), 62, 63, 100, 729]:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.2]
        g = build_graph(n, edges)
        ours = write_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        back = parse_graph6(theirs)
        assert back.edge_set() == g.edge_set()


def test_multibyte_size_field():
    g = build_graph(63, [(0, 1), (61, 62)])
    encoded = write_graph6(g)
    assert encoded.startswith("~")
    assert parse_graph6(encoded).edge_set() == g.edge_set()


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_graph6("B" + chr(30))  # control byte below the graph6 range
    assert err.value.offset == 1
    with pytest.raises(ParseError):
        parse_graph6("Bww")  # extra data byte
    with pytest.raises(ParseError):
        parse_graph6("A@")  # nonzero padding bits for n=2
    with pytest.raises(ParseError):
        parse_graph6("~~A???")  # 36-bit sizes unsupported
    with pytest.raises(InvalidParam):
        write_graph6(build_graph(1 << 18, []))


# n = 7: a size byte "F", 21 adjacency bits in 4 data bytes, 3 padding bits
@pytest.mark.parametrize("record, message, offset", [
    ("F>???", "data byte 62 outside graph6 range", 1),
    ("F?" + chr(127) + "??", "data byte 127 outside graph6 range", 2),
    ("F???!", "data byte 33 outside graph6 range", 4),
    ("F?!?>", "data byte 33 outside graph6 range", 2),    # the first of two
    ("F>??@", "data byte 62 outside graph6 range", 1),    # before the padding
    ("F???@", "nonzero padding bits", 4),                  # the last padding bit
    ("F???C", "nonzero padding bits", 4),                  # the first padding bit
    ("F???", "expected 4 data bytes for n=7, got 3", 1),
    ("F?????", "expected 4 data bytes for n=7, got 5", 1),
    ("~?@@" + "?" * 346 + "@", "nonzero padding bits", 350),
    ("~?@@" + "?" * 200 + "!" + "?" * 146, "data byte 33 outside graph6 range", 204),
    ("~?@@" + "?" * 346, "expected 347 data bytes for n=65, got 346", 4),
    ("~", "truncated graph6 size field", 1),
    ("~?@", "truncated graph6 size field", 3),
    ("~>@@", "size byte 62 outside graph6 range", 1),
    ("~?!@", "size byte 33 outside graph6 range", 2),
    ("~?@" + chr(127), "size byte 127 outside graph6 range", 3),
])
def test_parse_error_messages_and_offsets(record, message, offset):
    with pytest.raises(ParseError) as err:
        parse_graph6(record)
    assert str(err.value) == message
    assert err.value.offset == offset


def test_parse_non_ascii_str_is_a_parse_error():
    for record, offset in [("Aé", 1), ("é", 0), ("F??" + chr(0xdcc3) + "?", 3)]:
        with pytest.raises(ParseError) as err:
            parse_graph6(record)
        assert str(err.value) == "non-ASCII character in graph6 record"
        assert err.value.offset == offset


def test_parse_edge_list_refuses_non_ascii_str():
    # Arabic-Indic digits pass int(); the parser must not read them as 0 and 1
    for text, offset in [("n 2\n\u0660 \u0661\n", 4), ("n \u0662\n", 2),
                         ("n 2\n0 1\n" + chr(0xdcc3) + "\n", 8)]:
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == "non-ASCII character in edge-list input"
        assert err.value.offset == offset


def _outcome(parse, data):
    try:
        g = parse(data)
    except ParseError as exc:
        return str(exc), exc.offset, exc.line
    return g.n, g.edge_set()


_G6_NON_ASCII = "non-ASCII character in graph6 record"
_EL_NON_ASCII = "non-ASCII character in edge-list input"


# (parser, content as str, the same content as bytes, outcome); a lone
# surrogate stands for the undecodable byte it escapes
@pytest.mark.parametrize("parse, text, raw, expected", [
    (parse_graph6, "Bw", b"Bw", (3, {(0, 1), (0, 2), (1, 2)})),
    (parse_graph6, ">>graph6<<A_\r\n", b">>graph6<<A_\r\n", (2, {(0, 1)})),
    (parse_graph6, "é", "é".encode(), (_G6_NON_ASCII, 0, None)),
    (parse_graph6, "Aé", "Aé".encode(), (_G6_NON_ASCII, 1, None)),
    (parse_graph6, "F??é?", "F??é?".encode(), (_G6_NON_ASCII, 3, None)),
    (parse_graph6, "F??" + chr(0xdcc3) + "?", b"F??\xc3?", (_G6_NON_ASCII, 3, None)),
    (parse_graph6, "F>???", b"F>???", ("data byte 62 outside graph6 range", 1, None)),
    (parse_edge_list, "n 3\r\n0 1\r1 2\n", b"n 3\r\n0 1\r1 2\n",
     (3, {(0, 1), (1, 2)})),
    (parse_edge_list, "é", "é".encode(), (_EL_NON_ASCII, 0, None)),
    (parse_edge_list, "né 2", "né 2".encode(), (_EL_NON_ASCII, 1, None)),
    (parse_edge_list, "n 2\n0 é\n", "n 2\n0 é\n".encode(), (_EL_NON_ASCII, 6, None)),
    (parse_edge_list, "n 2\n0 1\n" + chr(0xdcc3), b"n 2\n0 1\n\xc3",
     (_EL_NON_ASCII, 8, None)),
    (parse_edge_list, "n 2\n0 2\n", b"n 2\n0 2\n",
     ("vertex outside 0..1 on line 2", None, 2)),
])
def test_parsers_read_str_and_bytes_alike(parse, text, raw, expected):
    for data in (text, raw, bytearray(raw)):
        assert _outcome(parse, data) == expected


@pytest.mark.parametrize("text, message", [
    ("n 1_0\n0 9\n", "bad vertex count '1_0'"),
    ("n +3\n0 2\n", "bad vertex count '+3'"),
    ("n 0x3\n", "bad vertex count '0x3'"),
    ("n -1\n", "negative vertex count -1"),
    ("n 3\n+0 +2\n", "non-integer endpoint on line 2"),
    ("n 20\n0 1_0\n", "non-integer endpoint on line 2"),
    ("n 3\n0 2.0\n", "non-integer endpoint on line 2"),
    ("n 3\n0 1\n-1 2\n", "vertex outside 0..2 on line 3"),
])
def test_parse_edge_list_reads_only_plain_integers(text, message):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def test_parse_graph6_refuses_over_cap_before_building(monkeypatch):
    # n = 6 and n = 70 records under a cap of 5: refused from the size field,
    # before the parser constructs its Graph, which it does under the cap
    def refuse(*_args):
        raise AssertionError("built past the size guard")

    records = [("E???", 6), (write_graph6(basic_family("path", 70)), 70)]
    monkeypatch.setattr("rcgame.ioformats.Graph", refuse)
    with pytest.raises(AssertionError, match="built past the size guard"):
        parse_graph6("E???")
    monkeypatch.setenv("RC_SIZE_GUARD", "5")
    for record, n in records:
        with pytest.raises(SizeGuard, match=f"^{n} vertices exceeds the cap 5$"):
            parse_graph6(record)


def test_parse_graph6_reads_sorted_rows_without_build_graph(monkeypatch):
    # column order gives each row sorted, so the parser builds the Graph
    # itself: on every atlas graph and on seeded G(n, p), n = 60..70, across
    # the '~' size field, its adj is the build_graph rebuild's and it
    # round-trips through the writer
    rng = random.Random(60)
    cases = [(G.number_of_nodes(), list(G.edges())) for G in nx.graph_atlas_g()]
    cases += [(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                   if rng.random() < p])
              for n in range(60, 71) for p in (0.05, 0.3, 0.9)]
    built = [build_graph(n, edges) for n, edges in cases]

    def no_build(*_args):
        raise AssertionError("parse_graph6 called build_graph")

    monkeypatch.setattr("rcgame.ioformats.build_graph", no_build)
    for g in built:
        record = write_graph6(g)
        back = parse_graph6(record)
        assert (back.n, back.m, back.adj) == (g.n, g.m, g.adj)
        assert write_graph6(back) == record


def test_parse_graph6_peak_memory_is_a_few_records():
    # C_2000's record is 333 KB; the reader holds it as bytes, once as base64
    # digits and once packed eight bits a byte, never a character per bit
    record = write_graph6(basic_family("cycle", 2000))
    tracemalloc.start()
    try:
        g = parse_graph6(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 2000 and g.adj[0] == (1, 1999)
    assert peak < 2_000_000, peak


@given(graphs())
@example(build_graph(62, [(0, 61)]))
@example(build_graph(63, [(61, 62)]))
@example(basic_family("complete", 70))
def test_round_trip_property(g):
    """Up to n = 70, on both sides of the '~' size field: the writer agrees
    with networkx and the parser restores the graph."""
    encoded = write_graph6(g)
    assert encoded == nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
    back = parse_graph6(encoded)
    assert back.n == g.n and back.adj == g.adj


def test_parse_edge_list():
    assert parse_edge_list("n 2\n0 1").edge_set() == {(0, 1)}
    assert parse_edge_list("n 3\n0 1\n1 2\n2 0").m == 3
    assert parse_edge_list("n 3\n\n0 1\n").m == 1


def test_parse_edge_list_errors():
    with pytest.raises(ParseError) as err:
        parse_edge_list("n 2\n0 2")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_edge_list("vertices 2\n0 1")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_edge_list("n 2\n0 0")
    with pytest.raises(ParseError):
        parse_edge_list("n 2\n0 1 2")
    with pytest.raises(ParseError):
        parse_edge_list("")


def _c6_record(ms=0.0):
    return ResultRecord("c6", 6, 6, 3, 3, 6, 2, ms)


def test_emit_csv_row():
    out = emit_results([_c6_record()])
    lines = out.splitlines()
    assert lines[0] == "id,n,m,rad,diam,girth,rc,lb,ub,ms"
    assert lines[1] == "c6,6,6,3,3,6,2,2,2,0"


def test_emit_empty():
    assert emit_results([]) == "id,n,m,rad,diam,girth,rc,lb,ub,ms\n"
    assert json.loads(emit_results([], "json")) == []


def test_emit_disconnected_record():
    rec = ResultRecord("matching", 4, 2, None, None, 0, None)
    csv_line = emit_results([rec]).splitlines()[1]
    assert csv_line == "matching,4,2,,,0,,0,,0"
    payload = json.loads(emit_results([rec], "json"))
    assert payload[0]["rc"] is None and payload[0]["rad"] is None
    assert payload[0]["id"] == "matching"


def test_record_invariants_enforced():
    with pytest.raises(InvalidParam):
        ResultRecord("a,b", 2, 1, 1, 1, 0, 0)
    with pytest.raises(InvariantViolation):
        ResultRecord("c6", 6, 6, 3, 3, 6, 3)   # rc above rad - 1
    with pytest.raises(InvariantViolation):
        ResultRecord("c6", 6, 6, 3, 3, 6, 1)   # rc below girth bound
    with pytest.raises(InvariantViolation):
        ResultRecord("p3", 3, 2, None, None, 0, 0)   # rc without a radius
    with pytest.raises(InvalidParam):
        emit_results([_c6_record()], "xml")


def test_k1_record_allowed():
    ResultRecord("k1", 1, 0, 0, 0, 0, 0)
