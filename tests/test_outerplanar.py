"""Polygon-plus-chords embeddings: validation, faces, capture formula."""

import random

import pytest

from rcgame.engine import radius_capture_number
from rcgame.errors import (
    EdgeSetMismatch,
    InvalidParam,
    NotOuterplanarEmbedding,
)
from rcgame.generators import basic_family
from rcgame.graph import build_graph
from rcgame.outerplanar import (
    OuterplanarEmbedding,
    inner_faces,
    random_outerplanar,
    rc_outerplanar_formula,
    validate_embedding,
)


def _polygon_with_chords(n, chords):
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    g = build_graph(n, edges)
    emb = OuterplanarEmbedding(tuple(range(n)),
                               frozenset(tuple(sorted(c)) for c in chords))
    return g, emb


def test_validate_plain_hexagon():
    g, emb = _polygon_with_chords(6, [])
    validate_embedding(g, emb)


def test_validate_crossing_chords_rejected():
    g, emb = _polygon_with_chords(6, [(0, 3), (1, 4)])
    with pytest.raises(NotOuterplanarEmbedding):
        validate_embedding(g, emb)


def test_validate_fan_ok():
    g, emb = _polygon_with_chords(6, [(0, 2), (0, 3), (0, 4)])
    validate_embedding(g, emb)


def test_validate_consecutive_chord_rejected():
    g, emb = _polygon_with_chords(6, [(2, 3)])
    with pytest.raises(NotOuterplanarEmbedding):
        validate_embedding(g, emb)
    g, emb = _polygon_with_chords(6, [(0, 5)])
    with pytest.raises(NotOuterplanarEmbedding):
        validate_embedding(g, emb)


def test_validate_edge_mismatch():
    g, _ = _polygon_with_chords(6, [])
    emb = OuterplanarEmbedding(tuple(range(6)), frozenset({(0, 3)}))
    with pytest.raises(EdgeSetMismatch):
        validate_embedding(g, emb)
    g2, _ = _polygon_with_chords(6, [(0, 3)])
    with pytest.raises(EdgeSetMismatch):
        validate_embedding(g2, OuterplanarEmbedding(tuple(range(6)), frozenset()))


def test_validate_reversed_chord_rejected():
    # (2, 0) would otherwise pass as a second copy of (0, 2) and add a face
    g, _ = _polygon_with_chords(4, [(0, 2)])
    for chords in ({(2, 0)}, {(0, 2), (2, 0)}):
        emb = OuterplanarEmbedding(tuple(range(4)), frozenset(chords))
        with pytest.raises(NotOuterplanarEmbedding, match=r"^chord \(2,0\) is not written u < v$"):
            validate_embedding(g, emb)


def test_validate_non_permutation_outer():
    g, _ = _polygon_with_chords(4, [])
    with pytest.raises(NotOuterplanarEmbedding):
        validate_embedding(g, OuterplanarEmbedding((0, 1, 2, 2), frozenset()))


def test_inner_faces_single_chord():
    _, emb = _polygon_with_chords(6, [(0, 3)])
    faces = inner_faces(emb)
    assert sorted(len(f) for f in faces) == [4, 4]
    assert set(faces) == {(0, 1, 2, 3), (0, 3, 4, 5)}


def test_inner_faces_fan_triangles():
    _, emb = _polygon_with_chords(6, [(0, 2), (0, 3), (0, 4)])
    faces = inner_faces(emb)
    assert tuple(len(f) for f in faces) == (3, 3, 3, 3)


def test_inner_faces_plain_polygon():
    _, emb = _polygon_with_chords(7, [])
    assert inner_faces(emb) == (tuple(range(7)),)


def test_face_accounting_property():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 14)
        g, emb = random_outerplanar(n, rng.uniform(0, 0.9), rng.getrandbits(32))
        validate_embedding(g, emb)
        faces = inner_faces(emb)
        assert len(faces) == len(emb.chords) + 1
        assert sum(len(f) for f in faces) == n + 2 * len(emb.chords)


def test_formula_examples():
    _, plain = _polygon_with_chords(6, [])
    assert rc_outerplanar_formula(plain) == 2
    _, fan = _polygon_with_chords(6, [(0, 2), (0, 3), (0, 4)])
    assert rc_outerplanar_formula(fan) == 0
    g, emb = _polygon_with_chords(6, [(0, 3)])
    assert rc_outerplanar_formula(emb) == 1
    assert radius_capture_number(g) == 1


def test_random_outerplanar_basics():
    g, emb = random_outerplanar(3, 1.0, 5)
    assert g.edge_set() == basic_family("cycle", 3).edge_set()
    assert emb.chords == frozenset()
    g, emb = random_outerplanar(9, 0.0, 5)
    assert emb.chords == frozenset() and g.m == 9
    a = random_outerplanar(12, 0.5, 7)
    b = random_outerplanar(12, 0.5, 7)
    assert a[0].edge_set() == b[0].edge_set() and a[1] == b[1]
    with pytest.raises(InvalidParam):
        random_outerplanar(2, 0.5, 1)


def test_formula_matches_solver_on_random_instances():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(3, 12)
        g, emb = random_outerplanar(n, rng.uniform(0, 0.9), rng.getrandbits(32))
        assert radius_capture_number(g) == rc_outerplanar_formula(emb)
