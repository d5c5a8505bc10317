"""The benchmark's three workloads: set-up, one timed pass, and the gate.

Each workload object is built by its set-up (timed as ``setup_s``), runs
one pass over all of its inputs in a closed loop with :meth:`run`, and
checks a pass's outputs with :meth:`check`, which returns
``{input_id: reason}`` for every input that failed. The package is only
reached through public functions of ``rcgame.cli``, ``rcgame.engine``,
``rcgame.generators``, ``rcgame.graph`` and ``rcgame.ioformats``, always
looked up on the module at call time so that a traced pass sees them
wrapped.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import math
import os
import random
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from types import SimpleNamespace

# sha256 of the exact CSV text the seed commit prints for each input set.
# Byte-identical output is part of the package's contract, so a change
# that alters any cell, column or row order fails the gate.
DIGESTS = {
    ("large", False): "6e9f79af17990dcc7a14f595f4227c3e93815139db167f03b8dbeb2c939c51b3",
    ("large", True): "3ea3f31f51bdbfad45b167065988c28ddb4cd73c5196b6c99f142503377c665a",
    # only the generalized-Johnson table; the G(n, p) batch depends on --seed
    ("sweep", False): "f824a57f0f0ce27f2edf998dd03d2ff42099a45589e695ad58b8396f152f2311",
    ("sweep", True): "502c65b4ce6e68305defcff1b7b1c3bf929c9fa56676e2cad575a8216ee4029f",
}

# (name, family kind, params, rc). The rc values are the closed forms the
# package's acceptance criteria state: C_n n//2 - 1; Q_d and H(d, q) d - 1;
# S(n, 3) 3 * 2^(n-2) - 1; J(n, k) = J(n, k, k-1) k - 1; S(4, 4) and
# CubicVT24_6 reference values 11 and 3.
INSTANCES = {
    "S(6,3)": ("sierpinski", (6, 3), 47),
    "S(5,3)": ("sierpinski", (5, 3), 23),
    "S(4,4)": ("sierpinski", (4, 4), 11),
    "Q_7": ("hypercube", (7,), 6),
    "H(3,5)": ("hamming", (3, 5), 2),
    "C_400": ("cycle", (400,), 199),
    "C_64": ("cycle", (64,), 31),
    "CubicVT24_6": ("named_instance", ("CubicVT24_6",), 3),
    "J(7,3)": ("generalized_johnson", (7, 3, 2), 2),
}

LARGE = ("S(6,3)", "S(5,3)", "S(4,4)", "Q_7", "H(3,5)", "C_400", "CubicVT24_6")
LARGE_SMOKE = ("H(3,5)", "C_64", "CubicVT24_6")
CERTIFY = ("S(4,4)", "S(5,3)", "Q_7", "H(3,5)", "C_64", "CubicVT24_6", "J(7,3)")
CERTIFY_SMOKE = ("C_64", "CubicVT24_6", "J(7,3)")

GJ_MAX_VERTICES = 70     # the acceptance criterion-5 set: 2575 graphs
GJ_MAX_VERTICES_SMOKE = 10
GNP_GRAPHS = 500
GNP_GRAPHS_SMOKE = 20
GNP_MIN_N, GNP_MAX_N = 8, 24


class MissingSource(Exception):
    """The checkout has no package source to benchmark."""


def load_package(root: str) -> SimpleNamespace:
    """Import the package from ``<root>/src`` (never an installed copy)."""
    src = os.path.join(root, "src")
    init = os.path.join(src, "rcgame", "__init__.py")
    if not os.path.isfile(init):
        raise MissingSource(f"no package source: {init} does not exist")
    sys.path.insert(0, src)
    names = ("cli", "engine", "generators", "graph", "ioformats")
    pkg = SimpleNamespace(**{n: importlib.import_module(f"rcgame.{n}") for n in names})
    loaded = os.path.dirname(os.path.abspath(pkg.cli.__file__))
    if not os.path.samefile(loaded, os.path.dirname(init)):
        raise MissingSource(f"rcgame was imported from {loaded}, not from {src}")
    return pkg


def source_digest(root: str) -> str:
    """sha256 over the package's Python sources; keys stored counters."""
    h = hashlib.sha256()
    base = os.path.join(root, "src", "rcgame")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_csv(text: str, expected: dict[str, str], digest: str | None) -> dict[str, str]:
    """Gate one CSV result table.

    ``expected`` maps each input id to the rc cell it must show (``""``
    for a disconnected graph). A digest mismatch fails every input of the
    table, since byte-identical output is the contract.
    """
    rows = {row["id"]: row for row in csv.DictReader(io.StringIO(text))}
    failures = {}
    for gid, rc in expected.items():
        row = rows.get(gid)
        if row is None:
            failures[gid] = "no output row"
        elif row["rc"] != rc:
            failures[gid] = f"rc {row['rc']!r}, expected {rc!r}"
    if len(rows) != len(expected):
        failures.setdefault("<table>", f"{len(rows)} rows for {len(expected)} inputs")
    if digest is not None and sha256(text) != digest:
        for gid in expected:
            failures.setdefault(gid, "CSV digest differs from the recorded one")
    return failures


def _within(tracer, input_id: str):
    return tracer.input(input_id) if tracer is not None else nullcontext()


def _build(pkg, name: str):
    kind, params, _ = INSTANCES[name]
    return pkg.generators.build_family(pkg.generators.FamilySpec(kind, params))


def _write_graph6(pkg, path: str, graphs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(pkg.ioformats.write_graph6(g) + "\n")


def _compute(pkg, tracer, path: str):
    """``rcgame compute <path>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), _within(tracer, os.path.basename(path)):
        try:
            code = pkg.cli.main(["compute", path])
        except Exception as exc:  # counted as failed inputs by the gate
            code = -1
            print(f"raised {exc!r}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def _compute_failures(ids, code: int, err: str) -> dict[str, str]:
    if code == 0:
        return {}
    reason = f"rcgame compute exited {code}: {err.strip()[:200]}"
    return dict.fromkeys(ids, reason)


class Large:
    """``rcgame compute`` over one graph6 file of large instances."""

    name = "large"

    def __init__(self, pkg, seed: int, workdir: str, smoke: bool):
        self.pkg = pkg
        self.names = LARGE_SMOKE if smoke else LARGE
        self.path = os.path.join(workdir, "large.g6")
        _write_graph6(pkg, self.path, [_build(pkg, n) for n in self.names])
        self.inputs = len(self.names)
        self.expected = {f"large:{i}": str(INSTANCES[n][2])
                         for i, n in enumerate(self.names, start=1)}
        self.digest = DIGESTS[("large", smoke)]

    def run(self, tracer):
        return _compute(self.pkg, tracer, self.path)

    def check(self, output) -> dict[str, str]:
        code, text, err = output
        return (_compute_failures(self.expected, code, err)
                or check_csv(text, self.expected, self.digest))


class Sweep:
    """Every J(n, k, i) up to a vertex cap through ``build_family`` and
    ``compute_record`` (the ``rcgame family`` path), then a seeded batch of
    random connected G(n, p) through ``rcgame compute``."""

    name = "sweep"

    def __init__(self, pkg, seed: int, workdir: str, smoke: bool):
        self.pkg = pkg
        cap = GJ_MAX_VERTICES_SMOKE if smoke else GJ_MAX_VERTICES
        self.gj = [(n, k, i) for n in range(2, cap + 1) for k in range(1, n)
                   if math.comb(n, k) <= cap for i in range(k)]
        rng = random.Random(seed)
        self.gnp = []
        for _ in range(GNP_GRAPHS_SMOKE if smoke else GNP_GRAPHS):
            n = rng.randint(GNP_MIN_N, GNP_MAX_N)
            # above the connectivity threshold ln(n)/n, so resampling ends fast
            p = rng.uniform(1.2 * math.log(n) / n, 0.5)
            self.gnp.append(pkg.generators.random_connected_gnp(n, p, rng.getrandbits(32)))
        self.path = os.path.join(workdir, "gnp.g6")
        _write_graph6(pkg, self.path, self.gnp)
        self.inputs = len(self.gj) + len(self.gnp)
        self.gnp_ids = [f"gnp:{i}" for i in range(1, len(self.gnp) + 1)]
        self.digest = DIGESTS[("sweep", smoke)]
        self.gnp_expected = None   # oracle rc cells, filled by the first good pass
        self.gnp_first_csv = None

    def run(self, tracer):
        pkg = self.pkg
        records, errors = [], {}
        for n, k, i in self.gj:
            gid = f"generalized_johnson-{n}-{k}-{i}"
            with _within(tracer, gid):
                try:
                    spec = pkg.generators.FamilySpec("generalized_johnson", (n, k, i))
                    g = pkg.generators.build_family(spec)
                    records.append(pkg.cli.compute_record(g, gid))
                except Exception as exc:  # counted as a failed input by the gate
                    errors[gid] = f"raised {exc!r}"
        gj_csv = pkg.ioformats.emit_results(records)
        return errors, gj_csv, _compute(pkg, tracer, self.path)

    def check(self, output) -> dict[str, str]:
        errors, gj_csv, (code, gnp_csv, err) = output
        # J(n, k, i) is generously transitive, so rc = rad - 1 when connected
        expected = {row["id"]: (str(int(row["rad"]) - 1) if row["rad"] else "")
                    for row in csv.DictReader(io.StringIO(gj_csv))}
        for n, k, i in self.gj:
            expected.setdefault(f"generalized_johnson-{n}-{k}-{i}", "")
        failures = dict(errors)
        for gid, why in check_csv(gj_csv, expected, self.digest).items():
            failures.setdefault(gid, why)
        failures.update(_compute_failures(self.gnp_ids, code, err))
        if code == 0:
            failures.update(self._check_gnp(gnp_csv))
        return failures

    def _check_gnp(self, text: str) -> dict[str, str]:
        """rc against the package's independent slow oracle (once per run),
        n and m against the generated graph, and byte-identical reruns."""
        if self.gnp_expected is None:
            oracle = self.pkg.engine.naive_rc_oracle
            self.gnp_expected = {gid: str(oracle(g)) for gid, g in zip(self.gnp_ids, self.gnp)}
            self.gnp_first_csv = text
        failures = check_csv(text, self.gnp_expected, None)
        rows = {row["id"]: row for row in csv.DictReader(io.StringIO(text))}
        for gid, g in zip(self.gnp_ids, self.gnp):
            row = rows.get(gid)
            if row is not None and (row["n"], row["m"]) != (str(g.n), str(g.m)):
                failures.setdefault(gid, f"n, m = {row['n']}, {row['m']}; expected {g.n}, {g.m}")
        if text != self.gnp_first_csv:
            for gid in self.gnp_ids:
                failures.setdefault(gid, "output differs from the run's first pass")
        return failures


class Certify:
    """Fixed-radius solves plus the strategy layer on closed-form instances:
    at rc a certified cop and its play-out against the rank-max robber; at
    rc - 1 a robber evasion of 4n^2 moves against the greedy-chase cop."""

    name = "certify"

    def __init__(self, pkg, seed: int, workdir: str, smoke: bool):
        self.pkg = pkg
        self.instances = [(n, _build(pkg, n), INSTANCES[n][2])
                          for n in (CERTIFY_SMOKE if smoke else CERTIFY)]
        self.inputs = len(self.instances)

    def run(self, tracer):
        results = {}
        for name, g, rc in self.instances:
            with _within(tracer, name):
                try:
                    results[name] = self._play(g, rc)
                except Exception as exc:  # counted as a failed input by the gate
                    results[name] = exc
        return results

    def _play(self, g, rc: int) -> dict:
        engine = self.pkg.engine
        dm = self.pkg.graph.all_pairs_distances(g)
        budget = 4 * g.n * g.n
        win = engine.solve_cwrc(g, rc, dm)
        worst = engine.certify_cop_strategy(win)
        chase = engine.simulate(g, rc, engine.extract_cop_strategy(win),
                                engine.rank_max_robber_strategy(win), budget, dm)
        lose = engine.solve_cwrc(g, rc - 1, dm)
        evade = engine.simulate(g, rc - 1, engine.greedy_chase_cop_strategy(g, rc - 1, dm),
                                engine.extract_robber_strategy(lose), budget, dm)
        return {"cop_win": win.is_cop_win, "worst": worst, "chase": chase.outcome,
                "chase_moves": chase.moves, "cop_win_below": lose.is_cop_win,
                "evade": evade.outcome, "evade_moves": evade.moves, "budget": budget}

    def check(self, output) -> dict[str, str]:
        failures = {}
        for name, r in output.items():
            if isinstance(r, Exception):
                failures[name] = f"raised {r!r}"
            elif not r["cop_win"] or r["cop_win_below"]:
                failures[name] = "cop-win flags at rc and rc - 1 contradict the closed form"
            elif r["chase"] != "captured" or r["chase_moves"] > r["worst"]:
                failures[name] = (f"cop play-out {r['chase']} after {r['chase_moves']} "
                                  f"moves; certified bound {r['worst']}")
            elif r["evade"] != "survived" or r["evade_moves"] != r["budget"]:
                failures[name] = f"robber evasion {r['evade']} after {r['evade_moves']} moves"
        return failures


WORKLOADS = {w.name: w for w in (Large, Sweep, Certify)}
