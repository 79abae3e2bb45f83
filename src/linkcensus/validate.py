"""Naive from-scratch validators used as test oracles and leaf checks.

Everything here is written directly against the gluing table with the
plain closures of `core` (its union-find, which also finds the link
pieces and their boundary cycles, and `edge_classes`) and
`fpg.is_connected`; none of the incremental machinery (signed union-find,
cyclic skip lists, link tracking) is used.  The point is independence:
when the fast path and this module agree on thousands of randomized
cases, a shared systematic bug is unlikely.  `check_edges` is derived
from `edge_classes`, the one directed-edge closure.  Only the numbering
conventions of `perms` are shared (faces, edges, link edges and their
arrows): a copy of a convention would agree with it by construction, so
it adds no check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Triangulation,
    UnionFind,
    edge_classes,
    is_orientable,
    relabel,
    serialize,
)
from .fpg import is_connected
from .perms import (
    FACE_VERTICES,
    FACES_AT_VERTEX,
    GLUING_PERMS,
    LINK_ALONG,
    PERM4_IMAGES,
)

# Other two vertices of face f besides v, ascending.
_EDGE_ENDS = {
    (v, f): tuple(w for w in FACE_VERTICES[f] if w != v)
    for v in range(4)
    for f in FACES_AT_VERTEX[v]
}


def _link_edge_id(t: int, v: int, f: int) -> int:
    return 12 * t + 3 * v + FACES_AT_VERTEX[v].index(f)


def _corner_id(t: int, v: int, w: int) -> int:
    others = tuple(x for x in range(4) if x != v)
    return 12 * t + 3 * v + others.index(w)


@dataclass
class LinkSurfaceReport:
    """Shape of the link surface of one vertex class."""

    vertex_class: tuple[tuple[int, int], ...]
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


def _link_gluings(tri: Triangulation):
    """Yield identified link-edge pairs ((t1,v1,f1),(t2,v2,f2), preserves)."""
    for s in range(4 * tri.n):
        d = tri.adj[s]
        if d == -1 or d < s:
            continue
        t1, f1 = s // 4, s % 4
        t2, f2 = d // 4, d % 4
        images = PERM4_IMAGES[tri.perm[s]]
        for v in FACE_VERTICES[f1]:
            yield (t1, v, f1), (t2, images[v], f2), images


def build_links(tri: Triangulation) -> list[LinkSurfaceReport]:
    """Build every vertex link from scratch and report its shape.

    Works on partial triangulations too: unglued link edges count as
    boundary.  One report per vertex class, in vertex-class order.
    """
    n = tri.n
    corners = UnionFind(12 * n)
    tris = UnionFind(4 * n)
    glued: dict[int, tuple[int, int]] = {}  # link edge id -> (other id, rel sign)

    for (t1, v1, f1), (t2, v2, f2), images in _link_gluings(tri):
        a, b = _EDGE_ENDS[(v1, f1)]
        ia, ib = images[a], images[b]
        corners.union(_corner_id(t1, v1, a), _corner_id(t2, v2, ia))
        corners.union(_corner_id(t1, v1, b), _corner_id(t2, v2, ib))
        tris.union(4 * t1 + v1, 4 * t2 + v2)
        e1 = _link_edge_id(t1, v1, f1)
        e2 = _link_edge_id(t2, v2, f2)
        # The arrow of a link edge runs from the lower other-vertex to the
        # higher; the gluing preserves arrows iff the images stay ordered.
        dirsign = 1 if ia < ib else -1
        rel = -LINK_ALONG[v1][f1] * LINK_ALONG[v2][f2] * dirsign
        glued[e1] = (e2, rel)
        glued[e2] = (e1, rel)

    # orientation flags per link triangle via BFS over glued edges
    orient = [0] * (4 * n)
    comp_orientable: dict[int, bool] = {}
    for start in range(4 * n):
        if orient[start] != 0:
            continue
        orient[start] = 1
        stack = [start]
        ok = True
        while stack:
            tv = stack.pop()
            t, v = tv // 4, tv % 4
            for f in FACES_AT_VERTEX[v]:
                pair = glued.get(_link_edge_id(t, v, f))
                if pair is None:
                    continue
                other, rel = pair
                ot = other // 12
                ov = (other % 12) // 3
                want = orient[4 * t + v] * rel
                cur = orient[4 * ot + ov]
                if cur == 0:
                    orient[4 * ot + ov] = want
                    stack.append(4 * ot + ov)
                elif cur != want:
                    ok = False
        comp_orientable[tris.find(start)] = ok

    by_root: dict[int, list[int]] = {}
    for tv in range(4 * n):
        by_root.setdefault(tris.find(tv), []).append(tv)

    # boundary cycles: the unglued link edges, joined at shared corners
    ends_at: dict[int, list[int]] = {}
    for t in range(n):
        for v in range(4):
            for f in FACES_AT_VERTEX[v]:
                e = _link_edge_id(t, v, f)
                if e in glued:
                    continue
                for w in _EDGE_ENDS[(v, f)]:
                    c = corners.find(_corner_id(t, v, w))
                    ends_at.setdefault(c, []).append(e)
    assert all(len(v) == 2 for v in ends_at.values()), "pinched boundary corner"
    boundary_uf = UnionFind(12 * n)
    for e1, e2 in ends_at.values():
        boundary_uf.union(e1, e2)
    cycles_of: dict[int, int] = {}  # piece root -> boundary cycle count
    for e in {boundary_uf.find(e) for ends in ends_at.values() for e in ends}:
        piece = tris.find(e // 3)  # link edge 12t + 3v + k lies in triangle 4t + v
        cycles_of[piece] = cycles_of.get(piece, 0) + 1

    reports = []
    for root, members in sorted(by_root.items(), key=lambda kv: min(kv[1])):
        f_count = len(members)
        edge_ids = [
            _link_edge_id(tv // 4, tv % 4, f)
            for tv in members
            for f in FACES_AT_VERTEX[tv % 4]
        ]
        boundary = sum(1 for e in edge_ids if e not in glued)
        interior_pairs = (len(edge_ids) - boundary) // 2
        e_count = boundary + interior_pairs
        corner_roots = {
            corners.find(_corner_id(tv // 4, tv % 4, w))
            for tv in members
            for w in range(4)
            if w != tv % 4
        }
        v_count = len(corner_roots)
        euler = v_count - e_count + f_count
        closed = boundary == 0
        orientable = comp_orientable[root]
        genus = (2 - euler) // 2 if closed and orientable else None
        reports.append(
            LinkSurfaceReport(
                vertex_class=tuple((tv // 4, tv % 4) for tv in sorted(members)),
                triangles=f_count,
                boundary_edges=boundary,
                boundary_cycles=cycles_of.get(root, 0),
                euler=euler,
                orientable=orientable,
                closed=closed,
                genus=genus,
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


def is_3manifold(tri: Triangulation) -> bool:
    """Complete triangulation test: every vertex link a 2-sphere and no
    edge identified with itself reversed."""
    if not tri.is_complete():
        raise ValueError("is_3manifold needs a complete triangulation")
    if check_edges(tri):
        return False
    return all(r.is_sphere for r in build_links(tri))


def _all_pairings(n: int):
    """All slot pairings of 4n slots (connected ones only)."""
    adj = [-1] * (4 * n)

    def helper(pairs):
        free = [s for s in range(4 * n) if adj[s] == -1]
        if not free:
            if is_connected(adj):
                yield list(pairs)
            return
        s = free[0]
        for d in free[1:]:
            adj[s], adj[d] = d, s
            pairs.append((s, d))
            yield from helper(pairs)
            pairs.pop()
            adj[s], adj[d] = -1, -1

    yield from helper([])


def brute_census(n: int):
    """Exhaustive census by validation of every complete gluing.

    Only sensible for n <= 2.  Returns (class_reps, orientable_count):
    one representative Triangulation per isomorphism class, where classes
    are computed by expanding full relabelling orbits, never by signature.
    """
    if n > 2:
        raise ValueError("brute_census is a small-n oracle; use the search instead")
    reps: list[Triangulation] = []
    seen: set[str] = set()
    tet_maps = list(itertools.permutations(range(n)))
    vertex_maps = list(itertools.product(range(24), repeat=n))
    for pairing in _all_pairings(n):
        for choice in itertools.product(range(6), repeat=len(pairing)):
            tri = Triangulation(n)
            for (s, d), k in zip(pairing, choice):
                tri.glue(s, d, GLUING_PERMS[s % 4][d % 4][k])
            if not is_3manifold(tri):
                continue
            key = serialize(tri)
            if key in seen:
                continue
            reps.append(tri)
            for tm in tet_maps:
                for vm in vertex_maps:
                    seen.add(serialize(relabel(tri, list(tm), list(vm))))
    orientable = sum(1 for r in reps if is_orientable(r))
    return reps, orientable
