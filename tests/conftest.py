"""Shared test helpers: conversion to networkx for independent oracles, a
hypothesis strategy for arbitrary small graphs, and a dilate call counter."""

from itertools import combinations

import networkx as nx
import pytest
from hypothesis import strategies as st

from rcgame import engine, graph
from rcgame.generators import generalized_johnson, named_instance
from rcgame.graph import Graph, build_graph


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


@st.composite
def graphs(draw, min_n=0, max_n=70):
    """Any graph on min_n..max_n vertices, its edge set drawn as one mask."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return build_graph(n, [p for j, p in enumerate(pairs) if mask >> j & 1])


@pytest.fixture
def dilate_calls(monkeypatch) -> list[Graph]:
    """The graphs of every dilate call made while the test runs, in call
    order, through rcgame.graph.dilate or a name of it that rcgame.engine
    imports."""
    real, calls = graph.dilate, []

    def counted(g, ball):
        calls.append(g)
        return real(g, ball)

    monkeypatch.setattr(graph, "dilate", counted)
    monkeypatch.setattr(engine, "dilate", counted, raising=False)
    return calls


@pytest.fixture(scope="session")
def petersen() -> Graph:
    return generalized_johnson(5, 2, 0)


@pytest.fixture(scope="session")
def cubic_vt() -> Graph:
    return named_instance("CubicVT24_6")
