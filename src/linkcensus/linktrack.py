"""Incremental vertex-link bookkeeping for partial gluings.

Tracks three structures as faces are glued and unglued in LIFO order:

  * a signed class structure on the 6n tetrahedron edges, whose sign
    records direction consistency; a conflict means some edge would be
    identified with itself reversed,
  * a signed class structure on the 4n corner triangles of the vertex
    links, whose sign records orientation; a conflict means some link
    surface would become nonorientable,
  * at check level 2, the boundary cycles of the partial link surfaces in
    a cyclic skip list with one element per link edge slot.

Gluing a face pair identifies three tetrahedron edge pairs and three link
edge pairs.  Each link edge gluing either splits a boundary cycle (the two
edges lie on the same cycle), closes pieces off, or merges two cycles.
Merging two distinct cycles that bound the same connected surface piece
would add genus to that piece, and a punctured sphere can never shed
genus, so such gluings are rejected; splits and cross-piece merges keep
every piece a punctured sphere.

The state is these three structures and nothing else: no tally of
boundary edges or cycles is kept, since the skip list's cycles answer
both.  All updates are journaled.  A gluing hands back the journal mark
it took beforehand, one checkpoint per structure, and ungluing to that
mark rolls every later gluing back, restoring the earlier state exactly:
the mark-and-rollback idiom of `SignedDsu` and `CyclicSkipList`.
"""

from __future__ import annotations

from enum import Enum

from .dsu import Outcome, SignedDsu
from .perms import (
    EDGE_INDEX,
    EDGE_PAIRS,
    FACE_EDGES,
    FACE_VERTICES,
    LINK_ALONG,
    PERM4_IMAGES,
    link_edge_id,
)
from .skiplist import CyclicSkipList


class GlueOutcome(Enum):
    OK = "ok"
    BAD_EDGE = "bad-edge"          # an edge glued to itself reversed
    BAD_ORIENT = "bad-orient"      # a link surface loses orientability
    BAD_GENUS = "bad-genus"        # a link surface would gain genus


class LinkState:
    """Link invariants of a partial gluing on n tetrahedra.

    `level` 1 maintains the two class structures only; level 2 adds the
    boundary cycles, `cycles`, which is None at level 1.  Rejected
    gluings leave the state untouched; accepted ones return the mark
    that the matching unglue call restores.
    """

    def __init__(self, n: int, level: int = 2, seed: int = 0):
        if level not in (1, 2):
            raise ValueError("level must be 1 or 2")
        self.n = n
        self.edge_cls = SignedDsu(6 * n)
        self.tri_cls = SignedDsu(4 * n)
        self.cycles = None
        if level >= 2:
            self.cycles = CyclicSkipList(12 * n, seed=seed)
            for t in range(n):
                for v in range(4):
                    e0, e1, e2 = (12 * t + 3 * v + k for k in range(3))
                    # corner traversal: along e0, along e2, against e1
                    self.cycles.make_cycle([(e0, 1), (e2, 1), (e1, 0)])

    # -- queries ------------------------------------------------------------

    def closed_complex_is_manifold(self) -> bool:
        """For a complete gluing: every vertex link is a 2-sphere.

        With all faces glued the links are closed surfaces, orientable
        because every gluing passed the orientation check.  The complex
        has V = link pieces, E = edge classes, F = 2n, T = n, and its
        Euler characteristic equals the total link genus, so chi = 0 pins
        every link to a sphere.
        """
        return self.tri_cls.components == self.edge_cls.components - self.n

    # -- gluing -------------------------------------------------------------

    def _mark(self) -> tuple:
        return (
            self.edge_cls.checkpoint(),
            self.tri_cls.checkpoint(),
            self.cycles.checkpoint() if self.cycles is not None else 0,
        )

    def _link_glue(self, t1: int, v1: int, f1: int, t2: int, v2: int, f2: int,
                   dirsign: int) -> GlueOutcome:
        """One link-edge gluing; assumes a caller-held mark covers rollback."""
        rel = -LINK_ALONG[v1][f1] * LINK_ALONG[v2][f2] * dirsign
        out = self.tri_cls.union(4 * t1 + v1, 4 * t2 + v2, rel)
        if out is Outcome.CONFLICT:
            return GlueOutcome.BAD_ORIENT
        if self.cycles is not None:
            x = link_edge_id(t1, v1, f1)
            y = link_edge_id(t2, v2, f2)
            if out is Outcome.REDUNDANT and not self.cycles.same_cycle(x, y):
                # the corners already share a piece, so only now do the
                # cycles matter: distinct boundary cycles of one piece would
                # raise its genus, which can never come back down
                return GlueOutcome.BAD_GENUS
            self.cycles.excise_pair(x, y, dirsign == 1)
        return GlueOutcome.OK

    def glue_faces(self, t1: int, f1: int, t2: int, f2: int,
                   perm: int) -> tuple[GlueOutcome, tuple | None]:
        """Apply the face gluing (t1, f1) -> (t2, f2) by Perm4 index `perm`.

        The permutation must carry face f1 onto face f2; gluing tables are
        built that way.  Checks run cheapest first: the three tetrahedron
        edge identifications, then per vertex the orientation and cycle
        steps.  Any failure rolls the whole call back; success returns
        the mark taken before the call.
        """
        images = PERM4_IMAGES[perm]
        mark = self._mark()

        for e in FACE_EDGES[f1]:
            a, b = EDGE_PAIRS[e]
            ia, ib = images[a], images[b]
            rel = 1 if ia < ib else -1
            if ia > ib:
                ia, ib = ib, ia
            out = self.edge_cls.union(6 * t1 + e, 6 * t2 + EDGE_INDEX[(ia, ib)], rel)
            if out is Outcome.CONFLICT:
                self.unglue_faces(mark)
                return GlueOutcome.BAD_EDGE, None

        for v in FACE_VERTICES[f1]:
            w = images[v]
            a, b = (u for u in FACE_VERTICES[f1] if u != v)
            dirsign = 1 if images[a] < images[b] else -1
            out = self._link_glue(t1, v, f1, t2, w, f2, dirsign)
            if out is not GlueOutcome.OK:
                self.unglue_faces(mark)
                return out, None

        return GlueOutcome.OK, mark

    def unglue_faces(self, mark: tuple) -> None:
        """Restore the state at `mark`, as glue_faces returned it: that
        gluing and every later one are undone."""
        e_mark, t_mark, c_mark = mark
        self.edge_cls.rollback(e_mark)
        self.tri_cls.rollback(t_mark)
        if self.cycles is not None:
            self.cycles.rollback(c_mark)
