"""Permutations of 3 and 4 elements plus tetrahedron face conventions.

A permutation is a plain integer: its index into the image tables below.
A gluing slot is the integer 4t + f, face f of tetrahedron t, and a gluing
is the three integers (slot, partner slot, Perm4 index) everywhere: in the
search, both kernels, the signatures and every text format.

Conventions fixed here and relied on everywhere else:

  * Perm4 index = lexicographic rank of its image tuple, so index 0 is the
    identity and index 1 is (0,1,3,2).
  * Faces of a tetrahedron are numbered by their sorted vertex triples in
    lexicographic order: face 0 = 012, 1 = 013, 2 = 023, 3 = 123.  Face f
    is opposite vertex 3-f.
  * Edges of a tetrahedron are numbered by sorted vertex pairs in
    lexicographic order: 01, 02, 03, 12, 13, 23.
"""

from __future__ import annotations

import itertools

PERM3_IMAGES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.permutations(range(3))
)

PERM4_IMAGES: tuple[tuple[int, int, int, int], ...] = tuple(
    itertools.permutations(range(4))
)

PERM4_INDEX: dict[tuple[int, int, int, int], int] = {
    images: i for i, images in enumerate(PERM4_IMAGES)
}


def _parity(images) -> int:
    inv = sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )
    return inv & 1


# PERM4_SIGN[p] is +1 for even permutations, -1 for odd ones.
PERM4_SIGN: tuple[int, ...] = tuple(
    1 if _parity(im) == 0 else -1 for im in PERM4_IMAGES
)

# PERM4_MUL[p][q] = index of the composition "apply q, then p".
PERM4_MUL: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        PERM4_INDEX[tuple(PERM4_IMAGES[p][PERM4_IMAGES[q][v]] for v in range(4))]
        for q in range(24)
    )
    for p in range(24)
)

PERM4_INV: tuple[int, ...] = tuple(
    next(q for q in range(24) if PERM4_MUL[p][q] == 0) for p in range(24)
)

FACE_VERTICES: tuple[tuple[int, int, int], ...] = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
FACE_OPPOSITE: tuple[int, ...] = (3, 2, 1, 0)

EDGE_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX: dict[tuple[int, int], int] = {pair: e for e, pair in enumerate(EDGE_PAIRS)}

# The three edges lying inside each face, as indices into EDGE_PAIRS.
FACE_EDGES: tuple[tuple[int, int, int], ...] = tuple(
    tuple(
        EDGE_INDEX[pair]
        for pair in itertools.combinations(FACE_VERTICES[f], 2)
    )
    for f in range(4)
)

# The three faces containing each vertex, in increasing face order.
FACES_AT_VERTEX: tuple[tuple[int, int, int], ...] = tuple(
    tuple(f for f in range(4) if v in FACE_VERTICES[f]) for v in range(4)
)

# Link-edge slot within a corner triangle: vertex v's triangle has one edge
# per face at v, numbered by that face's position in FACES_AT_VERTEX[v].
LINK_EDGE_POS: tuple[dict[int, int], ...] = tuple(
    {f: i for i, f in enumerate(FACES_AT_VERTEX[v])} for v in range(4)
)


def link_edge_id(t: int, v: int, f: int) -> int:
    """The edge of corner triangle 4t + v in face f, numbered 3(4t + v) + k."""
    return 12 * t + 3 * v + LINK_EDGE_POS[v][f]


def _along(v: int, f: int) -> int:
    # The corner triangle at v is traversed X -> Y -> Z over the corners on
    # the tet edges toward the other three vertices in increasing order; the
    # edge in face f runs low-to-high between the two corners it joins, so
    # the traversal opposes it exactly when f omits the middle vertex.
    others = [u for u in range(4) if u != v]
    return -1 if FACE_OPPOSITE[f] == others[1] else 1


# LINK_ALONG[v][f]: +1 when the canonical traversal of v's corner triangle
# runs along the arrow of its edge in face f, -1 against (0 for f not at v).
LINK_ALONG: tuple[tuple[int, ...], ...] = tuple(
    tuple(_along(v, f) if v in FACE_VERTICES[f] else 0 for f in range(4))
    for v in range(4)
)


def extend_face_perm(f1: int, f2: int, images) -> int:
    """Perm4 index gluing face f1 to face f2.

    `images` gives, in order, the destination vertices of the three sorted
    vertices of face f1; they must be exactly the vertices of face f2 in
    some order.  The omitted vertex maps to the omitted vertex.
    """
    images = tuple(images)
    if sorted(images) != list(FACE_VERTICES[f2]):
        raise ValueError(
            f"image vertices {images} are not the vertices of face {f2}"
        )
    full = [0] * 4
    for v, w in zip(FACE_VERTICES[f1], images):
        full[v] = w
    full[FACE_OPPOSITE[f1]] = FACE_OPPOSITE[f2]
    return PERM4_INDEX[tuple(full)]


# GLUING_PERMS[f1][f2][k] = Perm4 index gluing face f1 to face f2 by the
# k-th permutation of PERM3_IMAGES applied to face f2's sorted vertices:
# the six search branches in canonical order.
GLUING_PERMS: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
    tuple(
        tuple(
            extend_face_perm(f1, f2, (FACE_VERTICES[f2][i] for i in images))
            for images in PERM3_IMAGES
        )
        for f2 in range(4)
    )
    for f1 in range(4)
)
