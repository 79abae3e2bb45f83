"""Permutation tables and tetrahedron conventions."""

import itertools

import pytest

from linkcensus.perms import (
    EDGE_INDEX,
    EDGE_PAIRS,
    FACE_EDGES,
    FACE_OPPOSITE,
    FACE_VERTICES,
    FACES_AT_VERTEX,
    GLUING_PERMS,
    LINK_ALONG,
    LINK_EDGE_POS,
    PERM3_IMAGES,
    PERM4_IMAGES,
    PERM4_INDEX,
    PERM4_INV,
    PERM4_MUL,
    PERM4_SIGN,
    extend_face_perm,
)
from oracles import FACE_OF_VERTICES


def test_perm4_images_lexicographic():
    assert len(PERM4_IMAGES) == 24
    assert list(PERM4_IMAGES) == sorted(PERM4_IMAGES)
    assert PERM4_IMAGES[0] == (0, 1, 2, 3)
    assert PERM4_IMAGES[1] == (0, 1, 3, 2)
    assert all(PERM4_INDEX[im] == i for i, im in enumerate(PERM4_IMAGES))


def test_perm3_images_lexicographic():
    assert PERM3_IMAGES == tuple(itertools.permutations(range(3)))


def test_sign_matches_inversion_parity():
    for i, im in enumerate(PERM4_IMAGES):
        inversions = sum(1 for a, b in itertools.combinations(im, 2) if a > b)
        assert PERM4_SIGN[i] == (1 if inversions % 2 == 0 else -1)


def test_sign_is_multiplicative():
    for p in range(24):
        for q in range(24):
            assert PERM4_SIGN[PERM4_MUL[p][q]] == PERM4_SIGN[p] * PERM4_SIGN[q]


def test_mul_is_apply_q_then_p():
    for p in range(24):
        for q in range(24):
            want = tuple(PERM4_IMAGES[p][PERM4_IMAGES[q][v]] for v in range(4))
            assert PERM4_IMAGES[PERM4_MUL[p][q]] == want


def test_mul_group_laws():
    for p in range(24):
        assert PERM4_MUL[0][p] == p
        assert PERM4_MUL[p][0] == p
        assert PERM4_MUL[p][PERM4_INV[p]] == 0
        assert PERM4_MUL[PERM4_INV[p]][p] == 0
    # associativity on a deterministic sample
    for p, q, r in itertools.product((0, 1, 7, 17, 23), repeat=3):
        assert (PERM4_MUL[PERM4_MUL[p][q]][r]
                == PERM4_MUL[p][PERM4_MUL[q][r]])


def test_face_numbering():
    assert FACE_VERTICES == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert FACE_OPPOSITE == (3, 2, 1, 0)
    for f in range(4):
        assert FACE_OPPOSITE[FACE_OPPOSITE[f]] == f
        assert FACE_OPPOSITE[f] not in FACE_VERTICES[f]
        assert FACE_OF_VERTICES[FACE_VERTICES[f]] == f


def test_edge_numbering():
    assert EDGE_PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert all(EDGE_INDEX[pair] == e for e, pair in enumerate(EDGE_PAIRS))
    for f in range(4):
        want = tuple(EDGE_INDEX[p]
                     for p in itertools.combinations(FACE_VERTICES[f], 2))
        assert FACE_EDGES[f] == want


def test_vertex_face_incidence():
    for v in range(4):
        faces = FACES_AT_VERTEX[v]
        assert len(faces) == 3 and list(faces) == sorted(faces)
        assert all(v in FACE_VERTICES[f] for f in faces)
        assert LINK_EDGE_POS[v] == {f: i for i, f in enumerate(faces)}


def test_link_along_orientations():
    assert LINK_ALONG == ((1, -1, 1, 0), (1, -1, 0, 1),
                          (1, 0, -1, 1), (0, 1, -1, 1))
    for v in range(4):
        for f in range(4):
            if v in FACE_VERTICES[f]:
                assert LINK_ALONG[v][f] in (1, -1)
            else:
                assert LINK_ALONG[v][f] == 0


def test_extend_face_perm_carries_faces():
    for f1 in range(4):
        for f2 in range(4):
            for images in itertools.permutations(FACE_VERTICES[f2]):
                im = PERM4_IMAGES[extend_face_perm(f1, f2, images)]
                assert tuple(im[v] for v in FACE_VERTICES[f1]) == images
                assert im[FACE_OPPOSITE[f1]] == FACE_OPPOSITE[f2]


def test_extend_face_perm_rejects_bad_triples():
    with pytest.raises(ValueError):
        extend_face_perm(0, 0, (0, 1, 1))
    with pytest.raises(ValueError):
        extend_face_perm(0, 0, (0, 1, 3))  # not face 0's vertices


def test_gluing_perm_branches():
    assert GLUING_PERMS[0][0] == (0, 2, 6, 8, 12, 14)
    for f1 in range(4):
        for f2 in range(4):
            branch = GLUING_PERMS[f1][f2]
            assert len(set(branch)) == 6
            for pi in branch:
                im = PERM4_IMAGES[pi]
                assert sorted(im[v] for v in FACE_VERTICES[f1]) == list(FACE_VERTICES[f2])
                assert im[FACE_OPPOSITE[f1]] == FACE_OPPOSITE[f2]
