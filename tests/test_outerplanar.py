"""Polygon-plus-chords graphs: the chord check, faces, capture formula."""

import random

import pytest

from rcgame.engine import radius_capture_number
from rcgame.errors import InvalidParam, NotOuterplanarEmbedding
from rcgame.generators import basic_family
from rcgame.graph import build_graph
from rcgame.outerplanar import (
    inner_faces,
    polygon_chords,
    random_outerplanar,
    rc_outerplanar_formula,
)


def _polygon_with_chords(n, chords):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))


def test_validate_plain_hexagon():
    assert polygon_chords(_polygon_with_chords(6, [])) == []


def test_validate_crossing_chords_rejected():
    g = _polygon_with_chords(6, [(0, 3), (1, 4)])
    with pytest.raises(NotOuterplanarEmbedding, match=r"^chords \(0,3\) and \(1,4\) cross$"):
        polygon_chords(g)


def test_validate_fan_ok():
    # a chord given high end first is read off the graph as (u, v), u < v
    g = _polygon_with_chords(6, [(2, 0), (0, 3), (4, 0)])
    assert polygon_chords(g) == [(0, 2), (0, 3), (0, 4)]


def test_polygon_side_missing_rejected():
    # the path 0-1-2-3-4-5 plus the chord (0, 3): the side (5, 0) is absent
    g = build_graph(6, [(i, i + 1) for i in range(5)] + [(0, 3)])
    with pytest.raises(NotOuterplanarEmbedding, match=r"^polygon side \(5,0\) is not an edge$"):
        polygon_chords(g)
    with pytest.raises(NotOuterplanarEmbedding, match=r"side \(2,3\)"):
        rc_outerplanar_formula(build_graph(4, [(0, 1), (1, 2), (3, 0), (0, 2)]))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_polygon_below_three_vertices_rejected(n):
    g = build_graph(n, [(0, 1)] if n == 2 else [])
    with pytest.raises(NotOuterplanarEmbedding, match="at least 3 vertices"):
        polygon_chords(g)
    with pytest.raises(NotOuterplanarEmbedding, match="at least 3 vertices"):
        inner_faces(g)


def test_inner_faces_single_chord():
    faces = inner_faces(_polygon_with_chords(6, [(0, 3)]))
    assert sorted(len(f) for f in faces) == [4, 4]
    assert set(faces) == {(0, 1, 2, 3), (0, 3, 4, 5)}


def test_inner_faces_fan_triangles():
    faces = inner_faces(_polygon_with_chords(6, [(0, 2), (0, 3), (0, 4)]))
    assert tuple(len(f) for f in faces) == (3, 3, 3, 3)


def test_inner_faces_plain_polygon():
    assert inner_faces(_polygon_with_chords(7, [])) == (tuple(range(7)),)


def test_face_accounting_property():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 14)
        g = random_outerplanar(n, rng.uniform(0, 0.9), rng.getrandbits(32))
        chords = polygon_chords(g)
        assert len(chords) == g.m - n
        faces = inner_faces(g)
        assert len(faces) == len(chords) + 1
        assert sum(len(f) for f in faces) == n + 2 * len(chords)


def test_formula_examples():
    assert rc_outerplanar_formula(_polygon_with_chords(6, [])) == 2
    assert rc_outerplanar_formula(_polygon_with_chords(6, [(0, 2), (0, 3), (0, 4)])) == 0
    g = _polygon_with_chords(6, [(0, 3)])
    assert rc_outerplanar_formula(g) == 1
    assert radius_capture_number(g) == 1


def test_random_outerplanar_basics():
    g = random_outerplanar(3, 1.0, 5)
    assert g.edge_set() == basic_family("cycle", 3).edge_set()
    assert polygon_chords(g) == []
    g = random_outerplanar(9, 0.0, 5)
    assert polygon_chords(g) == [] and g.m == 9
    a = random_outerplanar(12, 0.5, 7)
    b = random_outerplanar(12, 0.5, 7)
    assert a.edge_set() == b.edge_set()
    with pytest.raises(InvalidParam):
        random_outerplanar(2, 0.5, 1)


def test_formula_matches_solver_on_random_instances():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(3, 12)
        g = random_outerplanar(n, rng.uniform(0, 0.9), rng.getrandbits(32))
        assert radius_capture_number(g) == rc_outerplanar_formula(g)
