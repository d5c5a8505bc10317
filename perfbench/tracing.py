"""Span tracing for the benchmark's traced passes.

The package is not edited. Instead, for the duration of a traced pass,
each traced public function is replaced by a wrapper under every module
name it is looked up through (``rcgame.cli.girth`` and
``rcgame.engine.girth`` are the same function bound in two namespaces, and
wrapping only ``rcgame.graph.girth`` would miss both call sites). A wrapper
records one span per call -- name, input id, parent span, start, end -- and
bumps exact work counters. Strategy ``move`` callbacks are deliberately
left unwrapped, so tracing costs no per-move overhead.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (home module, function name) -> span name
TRACED = {
    ("cli", "compute_record"): "cli.compute_record",
    ("engine", "radius_capture_number"): "engine.search",
    ("engine", "solve_cwrc"): "engine.solve",
    ("engine", "certify_cop_strategy"): "engine.certify",
    ("engine", "simulate"): "engine.simulate",
    ("generators", "build_family"): "generators.build",
    ("graph", "girth"): "graph.girth",
    ("graph", "all_pairs_distances"): "graph.apsp",
    ("ioformats", "parse_graph6"): "ioformats.parse",
    ("ioformats", "emit_results"): "ioformats.emit",
}

COUNTERS = ("engine.searches", "engine.solve_calls", "engine.states",
            "engine.won_states", "engine.moves", "generators.graphs",
            "graph.vertices", "graph.edges", "ioformats.graphs_parsed")


def _won(plane) -> int:
    return bytes(plane).count(1)


def _count(counters: dict, span: str, args: tuple, result) -> None:
    if span == "engine.search":
        counters["engine.searches"] += 1
    elif span == "engine.solve":
        n = args[0].n
        counters["engine.solve_calls"] += 1
        counters["engine.states"] += 2 * n * n
        counters["engine.won_states"] += (_won(result.win_cop_move)
                                          + _won(result.win_robber_move))
    elif span == "engine.simulate":
        counters["engine.moves"] += result.moves
    elif span == "generators.build":
        counters["generators.graphs"] += 1
    elif span == "graph.apsp":
        counters["graph.vertices"] += args[0].n
        counters["graph.edges"] += args[0].m
    elif span == "ioformats.parse":
        counters["ioformats.graphs_parsed"] += 1


class Tracer:
    """In-memory span log plus exact counters for one traced pass.

    A span is ``[name, input_id, parent_index, start, end]``; parent_index
    is -1 for spans opened directly by the benchmark. ``input_id`` is the
    record id inside ``compute_record`` and otherwise whatever the
    benchmark set through :meth:`input`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._input = ""

    @contextmanager
    def input(self, input_id: str):
        prev, self._input = self._input, input_id
        try:
            yield
        finally:
            self._input = prev

    def _wrap(self, span: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        record = span == "cli.compute_record"

        def traced(*args, **kwargs):
            prev = self._input
            if record:
                self._input = args[1] if len(args) > 1 else kwargs["instance_id"]
            index = len(spans)
            entry = [span, self._input, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(entry)
            stack.append(index)
            entry[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[4] = clock()
                stack.pop()
                self._input = prev
            _count(counters, span, args, result)
            return result

        return traced

    @contextmanager
    def patched(self, pkg):
        """Replace every binding of each traced function in the loaded
        ``rcgame`` modules, restoring the originals on exit."""
        saved = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "rcgame" or name.startswith("rcgame.")) and m]
        try:
            for (home, fname), span in TRACED.items():
                original = getattr(getattr(pkg, home), fname)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, original in reversed(saved):
                setattr(mod, fname, original)


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer times (total and self) and ratios derived from one pass's
    spans; a layer's self time is its span time minus its direct children."""
    total: dict[str, float] = {}
    child: list[float] = [0.0] * len(spans)
    for name, _input, parent, start, end in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        if parent >= 0:
            child[parent] += dur
    self_time: dict[str, float] = {}
    solves_in_search = 0
    for i, (name, _input, parent, start, end) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        if name == "engine.solve" and parent >= 0 and spans[parent][0] == "engine.search":
            solves_in_search += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = counters
    solve_s = total.get("engine.solve", 0.0)
    simulate_s = total.get("engine.simulate", 0.0)
    return {
        "engine.search_s": total.get("engine.search", 0.0),
        "engine.search_self_s": self_time.get("engine.search", 0.0),
        "engine.searches": c["engine.searches"],
        "engine.solve_calls": c["engine.solve_calls"],
        "engine.solves_per_search": ratio(solves_in_search, c["engine.searches"]),
        "engine.solve_s": solve_s,
        "engine.states": c["engine.states"],
        "engine.states_per_s": ratio(c["engine.states"], solve_s),
        "engine.won_states": c["engine.won_states"],
        "engine.certify_s": total.get("engine.certify", 0.0),
        "engine.simulate_s": simulate_s,
        "engine.moves": c["engine.moves"],
        "engine.moves_per_s": ratio(c["engine.moves"], simulate_s),
        "generators.build_s": total.get("generators.build", 0.0),
        "generators.graphs": c["generators.graphs"],
        "graph.girth_s": total.get("graph.girth", 0.0),
        "graph.apsp_s": total.get("graph.apsp", 0.0),
        "graph.vertices": c["graph.vertices"],
        "graph.edges": c["graph.edges"],
        "ioformats.parse_s": total.get("ioformats.parse", 0.0),
        "ioformats.emit_s": total.get("ioformats.emit", 0.0),
        "ioformats.graphs_parsed": c["ioformats.graphs_parsed"],
        "cli.record_self_s": self_time.get("cli.compute_record", 0.0),
    }
