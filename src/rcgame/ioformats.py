"""Graph codecs (graph6, edge-list text) and result-table emission.

graph6 encoding: a size field (chr(63 + n) for n <= 62, '~' plus three
6-bit groups for larger n up to 2^18 - 1) followed by the upper-triangle
adjacency bits in column order x(0,1), x(0,2), x(1,2), x(0,3), ...,
packed six bits per byte, each byte offset by 63. Padding bits are zero.
A data byte is so a base64 digit in another alphabet, and both codecs
pack and unpack the bits through binascii's base64.

A result row is a ResultRecord, a named tuple that checks its id, and its
rc against the row's bounds, when it is built; like every record in the
package, it loads no module beyond typing to define it.
"""

from __future__ import annotations

import re
from binascii import a2b_base64, b2a_base64
from typing import NamedTuple

from .errors import InvalidParam, InvariantViolation, ParseError
from .generators import check_cap
from .graph import Graph, build_graph

_G6_HEADER = b">>graph6<<"
_G6_MAX_N = 1 << 18
# base64 digit of the six bits v <-> graph6 data byte 63 + v
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_DIGITS, bytes(range(63, 127)))
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64_DIGITS)
_G6_BAD_BYTE = re.compile(rb"[^?-~]")
_NON_ASCII = re.compile(rb"[^\x00-\x7f]")
_INTEGER = re.compile(rb"-?[0-9]+")


def _as_bytes(data, what: str):
    """data as bytes, or a bytes or bytearray as it is; a non-ASCII byte or
    character is a ParseError at its offset, naming what data holds."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    if not raw.isascii():
        # every byte before the first non-ASCII one is one ASCII character
        raise ParseError(f"non-ASCII character in {what}",
                         offset=_NON_ASCII.search(raw).start())
    return raw


def parse_graph6(line) -> Graph:
    """Decode one graph6 record (str or bytes; optional header stripped); an
    order above the vertex cap raises SizeGuard before any data byte is read.

    The data bits come in column order, x(0, v) .. x(v - 1, v) for v = 1,
    2, ..., each column read as one integer off its own slice of the bytes
    that base64 decodes, never a character per bit, and each edge (u, v) is
    appended to rows[v] and rows[u] as it is read. Row v so gets its lower
    neighbours in column v and its higher ones in the later columns, each
    in increasing order: every row comes out sorted and free of repeats,
    and the Graph is built from the rows as they are, with no build_graph."""
    raw = _as_bytes(line, "graph6 record").strip()
    if raw.startswith(_G6_HEADER):
        raw = raw[len(_G6_HEADER):]
    if not raw:
        raise ParseError("empty graph6 record", offset=0)
    pos = 0
    if raw[0] == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise ParseError("graph6 records beyond 2^18 vertices unsupported",
                             offset=1)
        if len(raw) < 4:
            raise ParseError("truncated graph6 size field", offset=len(raw))
        n = 0
        for pos in range(1, 4):
            b = raw[pos]
            if not (63 <= b <= 126):
                raise ParseError(f"size byte {b} outside graph6 range", offset=pos)
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        b = raw[0]
        if not (63 <= b <= 125):
            raise ParseError(f"size byte {b} outside graph6 range", offset=0)
        n = b - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - pos != nbytes:
        raise ParseError(
            f"expected {nbytes} data bytes for n={n}, got {len(raw) - pos}",
            offset=pos)
    check_cap(n)
    bad = _G6_BAD_BYTE.search(raw, pos)
    if bad:
        raise ParseError(f"data byte {bad[0][0]} outside graph6 range",
                         offset=bad.start())
    if (raw[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise ParseError("nonzero padding bits", offset=pos + nbytes - 1)
    # the data bytes as base64 digits, zero digits ('A') filling the last
    # quantum, decode to the bit string packed eight bits a byte
    packed = a2b_base64(raw[pos:].translate(_G6_TO_B64) + b"A" * (-nbytes % 4))
    rows: list[list[int]] = [[] for _ in range(n)]
    start = 0
    for v in range(1, n):
        end = start + v
        # column v is bits start .. end - 1, x(0, v) the highest of them
        col = int.from_bytes(packed[start >> 3:(end + 7) >> 3], "big") >> (-end % 8)
        col &= (1 << v) - 1
        row = rows[v]
        while col:
            u = v - col.bit_length()
            row.append(u)
            rows[u].append(v)
            col ^= 1 << (v - 1 - u)
        start = end
    return Graph(n, tuple(map(tuple, rows)))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; round-trips through parse_graph6."""
    n = g.n
    if n >= _G6_MAX_N:
        raise InvalidParam(f"graph6 writer supports n < {_G6_MAX_N}, got {n}")
    out = bytearray()
    if n <= 62:
        out.append(63 + n)
    else:
        out.append(126)
        out.extend(63 + ((n >> s) & 63) for s in (12, 6, 0))
    # column v lists x(0,v) .. x(v-1,v): N[v] below bit v, lowest first
    closed_bits = g.closed_bits
    cols = "".join(format(closed_bits[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                   for v in range(1, n))
    # base64 turns each 24 bits into four digits of six bits each, in
    # order; zero-padded to whole quanta it emits no '=', and the digits
    # past the last data byte are dropped
    nbytes = (len(cols) + 5) // 6
    cols += "0" * (-len(cols) % 24)
    packed = int(cols or "0", 2).to_bytes(len(cols) // 8, "big")
    out += b2a_base64(packed, newline=False).translate(_B64_TO_G6)[:nbytes]
    return out.decode("ascii")


def parse_edge_list(text) -> Graph:
    """Edge-list text (str or bytes): first line "n <count>", then one "u v"
    per line, each number -?[0-9]+. A non-ASCII character is a ParseError at
    its offset, and a count above the vertex cap raises SizeGuard before
    anything is built."""
    lines = _as_bytes(text, "edge-list input").splitlines()
    if not lines:
        raise ParseError("empty edge-list input", line=1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != b"n":
        raise ParseError('first line must be "n <count>"', line=1)
    try:
        n = _integer(head[1])
    except ValueError:
        raise ParseError(f"bad vertex count {head[1].decode()!r}", line=1) from None
    if n < 0:
        raise ParseError(f"negative vertex count {n}", line=1)
    check_cap(n)
    edges = []
    for no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(f'expected "u v" on line {no}', line=no)
        try:
            u, v = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint on line {no}", line=no) from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"vertex outside 0..{n - 1} on line {no}", line=no)
        if u == v:
            raise ParseError(f"loop at vertex {u} on line {no}", line=no)
        edges.append((u, v))
    return build_graph(n, edges)


def _integer(token: bytes) -> int:
    """token as an int if it is -?[0-9]+; ValueError otherwise, as from int
    on a string past its digit limit."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


class _ResultFields(NamedTuple):
    instance_id: str
    n: int
    m: int
    rad: int | None
    diam: int | None
    girth: int
    rc: int | None
    ms: float = 0.0


class ResultRecord(_ResultFields):
    """One solver result row; lb and ub are the girth and radius bounds,
    and construction checks rc against them and the id for a comma.

    A named tuple, so immutable and equal field by field; building one,
    by _replace and _make too, runs the checks."""

    __slots__ = ()

    def __new__(cls, instance_id: str, n: int, m: int, rad: int | None,
                diam: int | None, girth: int, rc: int | None, ms: float = 0.0):
        self = tuple.__new__(cls, (instance_id, n, m, rad, diam, girth, rc, ms))
        if "," in instance_id:
            raise InvalidParam(f"record id {instance_id!r} contains a comma")
        if rc is not None and (self.ub is None or not self.lb <= rc <= self.ub):
            raise InvariantViolation(
                f"rc {rc} outside [{self.lb}, {self.ub}] for {instance_id}")
        return self

    @classmethod
    def _make(cls, iterable) -> ResultRecord:
        return cls(*iterable)

    @property
    def lb(self) -> int:
        return max(0, self.girth // 2 - 1)

    @property
    def ub(self) -> int | None:
        return None if self.rad is None else max(0, self.rad - 1)


_COLUMNS = ("id", "n", "m", "rad", "diam", "girth", "rc", "lb", "ub", "ms")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def emit_results(records, fmt: str = "csv") -> str:
    """Render records as CSV (fixed header, empty cells for missing) or as
    a JSON array with nulls; record order is preserved. A row is a record's
    seven leading fields, its bounds and its time, in _COLUMNS order."""
    rows = ((*rec[:7], rec.lb, rec.ub, rec.ms) for rec in records)
    if fmt == "csv":
        lines = [",".join(_COLUMNS)]
        lines += [",".join(map(_cell, row)) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json   # here, so a CSV-only process never loads it

        return json.dumps([dict(zip(_COLUMNS, row)) for row in rows], indent=2) + "\n"
    raise InvalidParam(f"unknown output format {fmt!r}")
