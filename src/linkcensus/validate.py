"""Naive from-scratch validators used as test oracles and leaf checks.

Everything here is written directly against the gluing table with the
plain closures of `core`; none of the incremental machinery (signed
union-find, cyclic skip lists, link tracking) is used.  The point is
independence: when the fast path and this module agree on thousands of
randomized cases, a shared systematic bug is unlikely.
`core.UnionFind` joins the corners of the link triangles and the
boundary cycles, and one signed closure, `core.sign_classes`, answers
every sign question: edge direction (`check_edges`, through
`edge_classes`), tetrahedron orientability (`core.is_orientable`) and
the link pieces with their orientability (`build_links`).  `defects`
yields the reasons a complete table is not a 3-manifold, cheapest first,
and `is_3manifold` stops at the first.  Only the numbering conventions
of `perms` (faces, edges, link edges and their arrows) and the gluing
walk `core._gluings` are shared: a copy of a convention would agree with
it by construction, so it adds no check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Triangulation,
    UnionFind,
    _gluings,
    edge_classes,
    sign_classes,
)
from .perms import (
    FACE_VERTICES,
    FACES_AT_VERTEX,
    LINK_ALONG,
    link_edge_id,
)

# Other two vertices of face f besides v, ascending.
_EDGE_ENDS = {
    (v, f): tuple(w for w in FACE_VERTICES[f] if w != v)
    for v in range(4)
    for f in FACES_AT_VERTEX[v]
}


def _corner_id(t: int, v: int, w: int) -> int:
    others = tuple(x for x in range(4) if x != v)
    return 12 * t + 3 * v + others.index(w)


@dataclass
class LinkSurfaceReport:
    """Shape of the link surface of one vertex class."""

    triangles: int
    boundary_edges: int
    boundary_cycles: int
    euler: int
    orientable: bool
    closed: bool
    genus: int | None  # closed orientable links only

    @property
    def is_sphere(self) -> bool:
        return self.closed and self.euler == 2

    @property
    def is_punctured_sphere(self) -> bool:
        """Sphere with >= 0 holes; covers the closed case too."""
        return self.orientable and self.euler + self.boundary_cycles == 2


def build_links(tri: Triangulation) -> list[LinkSurfaceReport]:
    """Build every vertex link from scratch and report its shape.

    Works on partial triangulations too: unglued link edges count as
    boundary.  One report per vertex class, in vertex-class order.
    """
    n = tri.n
    corners = UnionFind(12 * n)
    glued: set[int] = set()  # link edge ids
    relations = []  # (triangle, triangle, sign) for `sign_classes`

    for s, d, images in _gluings(tri):
        t1, f1, t2, f2 = s // 4, s % 4, d // 4, d % 4
        # each glued face pair identifies three link edges, one per vertex
        for v1 in FACE_VERTICES[f1]:
            v2 = images[v1]
            a, b = _EDGE_ENDS[(v1, f1)]
            ia, ib = images[a], images[b]
            corners.union(_corner_id(t1, v1, a), _corner_id(t2, v2, ia))
            corners.union(_corner_id(t1, v1, b), _corner_id(t2, v2, ib))
            glued.update((link_edge_id(t1, v1, f1), link_edge_id(t2, v2, f2)))
            # A link edge's arrow runs from its lower other-vertex to the
            # higher; the gluing keeps arrows iff the images stay ordered.
            dirsign = 1 if ia < ib else -1
            relations.append((4 * t1 + v1, 4 * t2 + v2,
                              -LINK_ALONG[v1][f1] * LINK_ALONG[v2][f2] * dirsign))

    # boundary cycles: the unglued link edges, joined at shared corners
    ends_at: dict[int, list[int]] = {}
    for e in range(12 * n):
        if e not in glued:
            t, v, k = e // 12, e % 12 // 3, e % 3
            for w in _EDGE_ENDS[(v, FACES_AT_VERTEX[v][k])]:
                ends_at.setdefault(corners.find(_corner_id(t, v, w)), []).append(e)
    assert all(len(v) == 2 for v in ends_at.values()), "pinched boundary corner"
    boundary_uf = UnionFind(12 * n)
    for e1, e2 in ends_at.values():
        boundary_uf.union(e1, e2)

    # link pieces and their orientability: one key per triangle 4t + v,
    # which holds link edges 3(4t + v) + k and corners with the same ids
    members: dict[tuple[int, int], list[int]] = {}
    for tv, key in enumerate(sign_classes(4 * n, relations)):
        members.setdefault(key, []).append(tv)
    reports = []
    for (r0, r1), tvs in members.items():
        ids = [3 * tv + k for tv in tvs for k in range(3)]
        boundary = [e for e in ids if e not in glued]
        v_count = len({corners.find(c) for c in ids})
        e_count = len(boundary) + (len(ids) - len(boundary)) // 2
        euler = v_count - e_count + len(tvs)
        closed = not boundary
        orientable = r0 != r1
        reports.append(
            LinkSurfaceReport(
                triangles=len(tvs),
                boundary_edges=len(boundary),
                boundary_cycles=len({boundary_uf.find(e) for e in boundary}),
                euler=euler,
                orientable=orientable,
                closed=closed,
                genus=(2 - euler) // 2 if closed and orientable else None,
            )
        )
    return reports


def check_edges(tri: Triangulation) -> list[list[tuple[int, int]]]:
    """Edge classes identified with themselves in reverse.

    Returns the offending classes as sorted (tet, edge index) lists; empty
    means condition (ii) holds.  These are the classes `edge_classes` finds
    not directable.
    """
    return [members for members, directable in edge_classes(tri) if not directable]


def defects(tri: Triangulation):
    """Why a complete triangulation is not a 3-manifold, cheapest first:
    edge classes identified with themselves reversed, then vertex links
    that are not 2-spheres.  Yields nothing for a 3-manifold."""
    if not tri.is_complete():
        raise ValueError("is_3manifold needs a complete triangulation")
    bad_edges = check_edges(tri)
    if bad_edges:
        yield f"{len(bad_edges)} reversed edge class(es)"
    nonsphere = sum(1 for r in build_links(tri) if not r.is_sphere)
    if nonsphere:
        yield f"{nonsphere} non-sphere link(s)"


def is_3manifold(tri: Triangulation) -> bool:
    """Complete triangulation test: every vertex link a 2-sphere and no
    edge identified with itself reversed.  Stops at the first defect."""
    return next(defects(tri), None) is None
