"""Combinatorial triangulations: gluing tables, text formats, invariants.

A triangulation of size n is n abstract tetrahedra with some of their 4n
faces glued in pairs.  Face f of tetrahedron t is slot 4t + f.  A gluing
(s, d, pi) rebrands slot s as slot d via the Perm4 index pi carrying the
vertices of s's tetrahedron to those of d's; the stored table keeps both
directions consistent (the reverse slot holds the inverse permutation).

The serialized form is one line:

    n ; t0f0 t0f1 t0f2 t0f3 ; t1f0 ... ; ...

where each token is `-` (unglued) or `T:P` with T the destination
tetrahedron and P the Perm4 index.  `serialize_human` renders the same
data in the letter/digit-triple style used for worked examples
(`C:013` means "to tetrahedron C, sorted face vertices land on 0,1,3").

The readers of the three text forms (`parse_table`, `from_human_rows`,
`decode_signature`) only tokenize: each turns its text into two ints per
slot, partner tetrahedron and Perm4 index, and `_table` alone checks that
every gluing is in range and glues back.  The two writers of the table
line share one renderer, `_table_line`: `serialize` renders a table, and
`signature_table` renders a signature's digits straight into the line
that `serialize(decode_signature(sig))` writes, with no table built.

The invariants are closures of one plain `UnionFind`.  `vertex_classes`
uses it directly; every sign question goes through `sign_classes`, which
joins two copies of each element, one per sign.  That one signed closure
answers edge direction (`edge_classes`), tetrahedron orientability
(`is_orientable`) and, in `validate`, link orientability.
"""

from __future__ import annotations

import re

from . import fpg
from .perms import (
    EDGE_INDEX,
    EDGE_PAIRS,
    FACE_EDGES,
    FACE_OF_VERTICES,
    FACE_OPPOSITE,
    FACE_VERTICES,
    PERM4_IMAGES,
    PERM4_INV,
    PERM4_MUL,
    PERM4_SIGN,
    extend_face_perm,
)


class ParseError(ValueError):
    pass


#: _PARTNER_FACE[f][pi]: the face that Perm4 pi carries face f onto
_PARTNER_FACE = [[FACE_OPPOSITE.index(PERM4_IMAGES[pi][FACE_OPPOSITE[f]])
                  for pi in range(24)] for f in range(4)]


class Triangulation:
    """Mutable gluing table over n tetrahedra.

    `adj[s]` is the partner slot index of slot s (or -1) and `perm[s]` the
    Perm4 index mapping vertices of s's tetrahedron to the partner's.
    """

    __slots__ = ("n", "adj", "perm")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one tetrahedron")
        self.n = n
        self.adj = [-1] * (4 * n)
        self.perm = [-1] * (4 * n)

    def copy(self) -> "Triangulation":
        t = Triangulation.__new__(Triangulation)
        t.n = self.n
        t.adj = list(self.adj)
        t.perm = list(self.perm)
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.n == other.n
            and self.adj == other.adj
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.n, tuple(self.adj), tuple(self.perm)))

    def is_complete(self) -> bool:
        return -1 not in self.adj

    def glue(self, s: int, d: int, pi: int) -> None:
        """Glue slot s to slot d by the Perm4 index pi.

        Both slots must be in range, distinct and unglued, pi must be in
        range and carry face s % 4 onto face d % 4; anything else raises
        ValueError and leaves the table as it was.
        """
        if not (0 <= s < 4 * self.n and 0 <= d < 4 * self.n):
            raise ValueError(f"slots {s}, {d}: out of range 0..{4 * self.n - 1}")
        if not 0 <= pi < 24:
            raise ValueError(f"permutation index {pi} out of range 0..23")
        if s == d:
            raise ValueError(f"cannot glue slot {s} to itself")
        if self.adj[s] != -1 or self.adj[d] != -1:
            raise ValueError(f"slot already glued: {s if self.adj[s] != -1 else d}")
        if _PARTNER_FACE[s % 4][pi] != d % 4:
            raise ValueError(f"permutation {pi} does not carry face {s % 4} "
                             f"to face {d % 4}")
        self.adj[s] = d
        self.perm[s] = pi
        self.adj[d] = s
        self.perm[d] = PERM4_INV[pi]

    def unglue(self, s: int) -> None:
        """Undo the gluing at slot s, from either of its two slots."""
        if not (0 <= s < 4 * self.n and self.adj[s] != -1):
            raise ValueError(f"slot {s} is not glued")
        d = self.adj[s]
        self.adj[s] = self.adj[d] = -1
        self.perm[s] = self.perm[d] = -1


def _table(n: int, digits: list[int] | bytes) -> Triangulation:
    """The table read from text: slot s glued to tetrahedron digits[2s] by
    the Perm4 index digits[2s + 1], or unglued where both are -1.

    The one consistency check of every reader: each glued slot's partner
    is in range, is another slot, and glues back to it by the inverse
    permutation.  Anything else raises ParseError.
    """
    tri = Triangulation(n)
    adj, perm = tri.adj, tri.perm
    partner_face, perm_inv = _PARTNER_FACE, PERM4_INV
    tets, perms = digits[::2], digits[1::2]
    for s, (dt, pi) in enumerate(zip(tets, perms)):
        if dt == -1:
            continue
        if dt >= n or pi >= 24:
            raise ParseError(f"slot {s // 4}:{s % 4}: gluing {dt}:{pi} out of range")
        d = 4 * dt + partner_face[s & 3][pi]
        if d == s:
            raise ParseError(f"slot {s // 4}:{s % 4}: glued to itself")
        if tets[d] != s >> 2 or perms[d] != perm_inv[pi]:
            raise ParseError(f"slot {s // 4}:{s % 4}: partner {dt}:{d % 4} "
                             "does not glue back")
        adj[s] = d
        perm[s] = pi
    return tri


def _table_line(n: int, toks: list[str]) -> str:
    """The text line of a table of n tetrahedra from its 4n slot tokens:
    the one renderer of `serialize` and `signature_table`."""
    return f"{n} ; " + " ; ".join([" ".join(toks[i:i + 4])
                                   for i in range(0, 4 * n, 4)])


def serialize(tri: Triangulation) -> str:
    return _table_line(tri.n, ["-" if d == -1 else f"{d // 4}:{p}"
                               for d, p in zip(tri.adj, tri.perm)])


_TOKEN_RE = re.compile(r"^([0-9]+):([0-9]+)$")


def parse_table(text: str) -> Triangulation:
    """Parse the `.tri` line format; raises ParseError with the offending slot."""
    parts = [p.strip() for p in text.strip().split(";")]
    if not (parts[0].isascii() and parts[0].isdigit()):
        raise ParseError("first field must be the tetrahedron count")
    n = int(parts[0])
    if n < 1:
        raise ParseError("tetrahedron count must be positive")
    if len(parts) != n + 1:
        raise ParseError(f"expected {n} tetrahedron groups, found {len(parts) - 1}")
    digits: list[int] = []
    for t in range(n):
        toks = parts[t + 1].split()
        if len(toks) != 4:
            raise ParseError(f"tetrahedron {t}: expected 4 tokens, found {len(toks)}")
        for f, tok in enumerate(toks):
            if tok == "-":
                digits += (-1, -1)
                continue
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ParseError(f"slot {t}:{f}: bad token {tok!r}")
            digits += (int(m.group(1)), int(m.group(2)))
    return _table(n, digits)


_TET_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def serialize_human(tri: Triangulation) -> str:
    """Letter/triple rendering, one row per tetrahedron, for small examples."""
    rows = []
    for t in range(tri.n):
        cells = []
        for f in range(4):
            s = 4 * t + f
            if tri.adj[s] == -1:
                cells.append("-")
                continue
            dt = tri.adj[s] // 4
            images = PERM4_IMAGES[tri.perm[s]]
            digits = "".join(str(images[v]) for v in FACE_VERTICES[f])
            name = _TET_NAMES[dt] if dt < 26 else str(dt)
            cells.append(f"{name}:{digits}")
        rows.append(f"{_TET_NAMES[t] if t < 26 else t} | " + " | ".join(cells))
    return "\n".join(rows)


_CELL_RE = re.compile(r"^([A-Za-z]|\d+)\s*:\s*(\d)(\d)(\d)$")


def from_human_rows(rows: list[list[str]]) -> Triangulation:
    """Build a triangulation from `C:013`-style cells, one 4-cell row per tet.

    The digit triple lists, in order, where the sorted vertices of the row's
    face land in the destination tetrahedron.  Both cells of every gluing
    are given, and `_table` checks that they agree.
    """
    n = len(rows)
    digits: list[int] = []
    for t, row in enumerate(rows):
        if len(row) != 4:
            raise ParseError(f"row {t}: expected 4 cells")
        for f, cell in enumerate(row):
            cell = cell.strip()
            if cell == "-":
                digits += (-1, -1)
                continue
            m = _CELL_RE.match(cell)
            if not m:
                raise ParseError(f"row {t} face {f}: bad cell {cell!r}")
            who = m.group(1)
            dt = _TET_NAMES.index(who.upper()) if who.isalpha() else int(who)
            images = tuple(int(m.group(i)) for i in (2, 3, 4))
            dst_face = FACE_OF_VERTICES.get(tuple(sorted(images)))
            if dst_face is None:
                raise ParseError(f"row {t} face {f}: bad cell {cell!r}")
            digits += (dt, extend_face_perm(f, dst_face, images))
    return _table(n, digits)


class UnionFind:
    """Plain union-find: the one closure of the from-scratch invariants."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _gluings(tri: Triangulation):
    """Yield each gluing once, as (slot, partner slot, vertex images)."""
    for s, d in enumerate(tri.adj):
        if d > s:
            yield s, d, PERM4_IMAGES[tri.perm[s]]


def vertex_classes(tri: Triangulation) -> list[list[tuple[int, int]]]:
    """Identification classes of the 4n tetrahedron vertices, sorted."""
    uf = UnionFind(4 * tri.n)
    for s, d, images in _gluings(tri):
        for v in FACE_VERTICES[s % 4]:
            uf.union(4 * (s // 4) + v, 4 * (d // 4) + images[v])
    groups: dict[int, list[tuple[int, int]]] = {}
    for i in range(4 * tri.n):
        groups.setdefault(uf.find(i), []).append((i // 4, i % 4))
    return sorted(sorted(g) for g in groups.values())


def sign_classes(count: int, relations) -> list[tuple[int, int]]:
    """Class keys of `count` elements joined by signed relations.

    A relation (x, y, sign) says that y carries x's sign times `sign`
    (+1 or -1).  Element x has two copies, 2x for sign +1 and 2x + 1 for
    sign -1, and each relation joins the copies it carries onto each
    other.  The key of x is its sorted pair of roots {find(2x),
    find(2x + 1)}: elements share a key exactly when relations join them,
    and the two roots differ exactly when the class has a consistent
    sign, that is when no chain of relations carries an element onto
    itself with sign -1.
    """
    uf = UnionFind(2 * count)
    for x, y, sign in relations:
        y2 = 2 * y + (sign < 0)
        uf.union(2 * x, y2)
        uf.union(2 * x + 1, y2 ^ 1)
    keys = []
    for x in range(count):
        r0, r1 = uf.find(2 * x), uf.find(2 * x + 1)
        keys.append((min(r0, r1), max(r0, r1)))
    return keys


def edge_classes(tri: Triangulation) -> list[tuple[list[tuple[int, int]], bool]]:
    """Identification classes of the 6n tetrahedron edges, sorted.

    The sign of edge 6t + e is its direction, +1 from its lower vertex to
    its higher one, and a gluing relates the edges it carries onto each
    other by +1 when it keeps that direction.  Each class comes with a
    flag from `sign_classes`: True when it is directable (a consistent
    direction can be chosen along the whole class), False when some
    identification chain maps an edge onto itself reversed.
    """
    relations = []
    for s, d, images in _gluings(tri):
        for e in FACE_EDGES[s % 4]:
            a, b = EDGE_PAIRS[e]
            ia, ib = images[a], images[b]
            relations.append((6 * (s // 4) + e,
                              6 * (d // 4) + EDGE_INDEX[(min(ia, ib), max(ia, ib))],
                              -1 if ia > ib else 1))
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, key in enumerate(sign_classes(6 * tri.n, relations)):
        groups.setdefault(key, []).append((i // 6, i % 6))
    return sorted(((g, r0 != r1) for (r0, r1), g in groups.items()),
                  key=lambda item: item[0])


def is_orientable(tri: Triangulation) -> bool:
    """Whether consistent tetrahedron signs exist.

    Convention: a gluing with odd permutation keeps the sign, an even one
    flips it.  Complete and connected triangulations only, so the answer
    is the sign of tetrahedron 0's class in `sign_classes`.
    """
    if not tri.is_complete():
        raise ValueError("orientability needs a complete triangulation")
    if not fpg.is_connected(tri.adj):
        raise ValueError("orientability needs a connected triangulation")
    r0, r1 = sign_classes(tri.n, [(s // 4, d // 4, -PERM4_SIGN[tri.perm[s]])
                                  for s, d, _ in _gluings(tri)])[0]
    return r0 != r1


def relabel(tri: Triangulation, tet_map: list[int], vertex_maps: list[int]) -> Triangulation:
    """Rebuild with tetrahedron t renamed tet_map[t] and its vertices permuted
    by the Perm4 index vertex_maps[t]."""
    out = Triangulation(tri.n)
    for s, d, _ in _gluings(tri):
        t1, f1 = s // 4, s % 4
        t2, f2 = d // 4, d % 4
        r1, r2 = vertex_maps[t1], vertex_maps[t2]
        # new gluing permutation: r2 . old . r1^-1
        p = PERM4_MUL[PERM4_MUL[r2][tri.perm[s]]][PERM4_INV[r1]]
        out.glue(4 * tet_map[t1] + _PARTNER_FACE[f1][r1],
                 4 * tet_map[t2] + _PARTNER_FACE[f2][r2], p)
    return out


def canonical_sequence(n: int, adj: list[int], perm: list[int]) -> list[int]:
    """Least relabelled serialization of a complete connected gluing table.

    Tries every (start tetrahedron, start vertex labelling) pair; labels the
    remaining tetrahedra in breadth-first discovery order, where a
    tetrahedron discovered through gluing permutation sigma inherits vertex
    map rho_src . sigma^-1 (so first-discovery gluings serialize as the
    identity).  Returns the lexicographically least of the <= 24n candidate
    serializations, two entries (partner tetrahedron, Perm4 index) per slot.
    """
    best: list[int] | None = None
    for start in range(n):
        for rho0 in range(24):
            new_of_old = [-1] * n
            old_of_new = [0] * n
            rho = [0] * n  # vertex map per old tet, Perm4 index
            new_of_old[start] = 0
            old_of_new[0] = start
            rho[start] = rho0
            found = 1
            cur: list[int] = []
            worse = False
            for ns in range(4 * n):
                nt, nf = ns // 4, ns % 4
                ot = old_of_new[nt]
                r = rho[ot]
                # face nf of the relabelled tet is face of of the original
                of = _PARTNER_FACE[nf][PERM4_INV[r]]
                s = 4 * ot + of
                d = adj[s]
                dt = d // 4
                if new_of_old[dt] == -1:
                    new_of_old[dt] = found
                    old_of_new[found] = dt
                    rho[dt] = PERM4_MUL[r][PERM4_INV[perm[s]]]
                    found += 1
                q = PERM4_MUL[PERM4_MUL[rho[dt]][perm[s]]][PERM4_INV[r]]
                a, b = new_of_old[dt], q
                if best is not None:
                    i = 2 * ns
                    ba, bb = best[i], best[i + 1]
                    if (a, b) > (ba, bb):
                        worse = True
                        break
                    if (a, b) < (ba, bb):
                        best = None  # strictly better: keep building cur
                cur.append(a)
                cur.append(b)
            if worse:
                continue
            if best is None:
                best = cur
    assert best is not None
    return best


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def sequence_signature(n: int, seq: list[int]) -> str:
    """Render a canonical sequence as the `n;digits` signature string."""
    return f"{n};" + "".join(_DIGITS[v] for v in seq)


def iso_signature(tri: Triangulation) -> str:
    """Canonical label of the isomorphism class.

    Rendered as `n;` followed by two base-36 digits per slot (partner
    tetrahedron, then gluing Perm4 index), so any two isomorphic complete
    triangulations produce the identical string.  Sizes beyond 35
    tetrahedra would need a wider digit and are rejected.
    """
    if not tri.is_complete():
        raise ValueError("signature needs a complete triangulation")
    if not fpg.is_connected(tri.adj):
        raise ValueError("signature needs a connected triangulation")
    if tri.n >= 36:
        raise ValueError("signature digits cover at most 35 tetrahedra")
    return sequence_signature(tri.n, canonical_sequence(tri.n, tri.adj, tri.perm))


#: byte of a base-36 digit -> its value, 255 for any other byte
_DIGIT_VALUE = bytes(_DIGITS.find(chr(b)) % 256 for b in range(256))
#: value of a base-36 digit -> its decimal text
_VALUE_TEXT = tuple(map(str, range(36)))


def _signature_digits(sig: str) -> tuple[int, bytes]:
    """The size of an iso_signature and its two digits per slot, as the
    table `_table` reads; a malformed signature raises ParseError."""
    head, _, body = sig.partition(";")
    if not (head.isascii() and head.isdigit()) or int(head) < 1:
        raise ParseError("signature must start with a positive tetrahedron count")
    n = int(head)
    if len(body) != 8 * n:
        raise ParseError(f"signature body must have {8 * n} digits")
    digits = body.encode().translate(_DIGIT_VALUE) if body.isascii() else b"\xff"
    if 255 in digits:
        bad = next(c for c in body if c not in _DIGITS)
        raise ParseError(f"bad signature digit {bad!r}")
    return n, digits


def decode_signature(sig: str) -> Triangulation:
    """Rebuild the canonical triangulation an iso_signature encodes.

    The digits are the table `_table` reads, so an inconsistent one
    raises ParseError.
    """
    return _table(*_signature_digits(sig))


def signature_table(sig: str) -> str:
    """`serialize(decode_signature(sig))` for a signature that
    `decode_signature` accepts, rendered straight from its digits.  Only
    their syntax is checked: a digit outside the alphabet raises
    ParseError, but not a gluing that does not glue back."""
    n, digits = _signature_digits(sig)
    text = _VALUE_TEXT
    return _table_line(n, [f"{text[t]}:{text[p]}"
                           for t, p in zip(digits[::2], digits[1::2])])
