"""Face pairings and their canonical representatives.

A pairing on n tetrahedra is a perfect matching on the 4n face slots,
stored as a tuple `fp` with `fp[s]` the partner slot of s (never s
itself).  Relabelling the tetrahedra and permuting the four slots inside
each tetrahedron act on pairings; the canonical representative of a class
is the pairing whose partner sequence (fp[0], fp[1], ...) is
lexicographically least over that action.

Enumeration extends the matching one slot at a time, always pairing the
lowest unpaired slot.  In a canonical pairing new tetrahedra appear in
increasing order and a partner entering a tetrahedron takes its lowest
unpaired slot, so only such extensions are generated.  The generation is
orderly (McKay, "Isomorph-free exhaustive generation", 1998): with s the
lowest unpaired slot, the prefix fp[:s] is final, so a subtree is dropped
as soon as some relabelling makes that prefix smaller, or once every slot
of the tetrahedra reached so far is paired before all n have appeared (no
completion is connected).  A matching that survives to completion is
therefore connected, and it passes the same canonicity test.

One relabelling scan, `_advance`, serves every test.  It is resumable:
each node of the enumeration hands its children the relabellings still
tied with its prefix or waiting on an unpaired slot, so no child rescans
its parent's prefix.  At a completed canonical matching the relabellings
still tied are its automorphisms, the relabellings that map it to
itself; the enumeration yields them with each pairing, and
`automorphisms` scans a single pairing from the root.  The census uses
them to search one gluing per symmetry orbit.  A branch keeps its
relabelling as a slot map, old slot to new slot, so a tied branch at a
completed matching already holds the automorphism it stands for.  That
form changes what a step costs, not what the scan returns: the same
verdicts, and the same automorphisms in the same order.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

Pairing = tuple[int, ...]
Relabelling = tuple[int, ...]  # old slot -> new slot


def pairs_of(fp: Pairing) -> list[tuple[int, int]]:
    """The matching as (s, fp[s]) pairs with s < fp[s]."""
    return [(s, p) for s, p in enumerate(fp) if s < p]


def graph_of(fp: Pairing) -> tuple[tuple[int, int], ...]:
    """Multigraph edge list on tetrahedra, each pair once, loops allowed."""
    edges = sorted(tuple(sorted((s // 4, p // 4))) for s, p in pairs_of(fp))
    return tuple(edges)


def graph_summary(fp: Pairing) -> str:
    """Loop and multi-edge counts, e.g. `loops 0=1 ; edges 1-2=3`."""
    loops: dict[int, int] = {}
    multi: dict[tuple[int, int], int] = {}
    for u, v in graph_of(fp):
        if u == v:
            loops[u] = loops.get(u, 0) + 1
        else:
            multi[(u, v)] = multi.get((u, v), 0) + 1
    ltxt = " ".join(f"{t}={k}" for t, k in sorted(loops.items())) or "none"
    etxt = " ".join(f"{u}-{v}={k}" for (u, v), k in sorted(multi.items())) or "none"
    return f"loops {ltxt} ; edges {etxt}"


def is_connected(fp: Sequence[int]) -> bool:
    """Whether the matching reaches every tetrahedron from tetrahedron 0.

    fp may be a partial matching: its -1 slots join nothing.
    """
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for p in fp[4 * t:4 * t + 4]:
            if p >= 0 and p // 4 not in seen:
                seen.add(p // 4)
                stack.append(p // 4)
    return len(seen) == len(fp) // 4


def _roots(n: int) -> list[tuple[int, ...]]:
    """The scan's first branches: one per tetrahedron taking index 0."""
    return [(0, 1, *(0 if t == start else -1 for t in range(n)), start,
             *[-1] * (8 * n)) for start in range(n)]


def _advance(fp: Sequence[int], limit: int,
             branches: list[tuple[int, ...]]) -> list[tuple[int, ...]] | None:
    """Resume the relabelling scan's branches up to output position `limit`.

    Returns None when some relabelling makes the prefix fp[:limit]
    smaller, and otherwise the branches suspended again, for a later call
    with a larger limit once more of fp is set.

    A branch is one relabelling under construction, scanned output
    position by position: a partner in a fresh tetrahedron forces the next
    index, an unplaced partner slot forces the lowest free slot of its
    tetrahedron, and only the old slot placed at the scanned position can
    branch.  A branch whose value exceeds fp's is dropped, and one whose
    value dips below it ends the scan.  A branch is suspended either tied
    with fp[:limit] or at an unpaired slot (-1 in a partial matching),
    with that slot already placed, so that resuming it takes the slot as
    the forced option once it is paired.  Resuming never rereads a value,
    so the values read stay valid as long as fp only gains pairs.  At
    limit 4n the tied branches are the relabellings that fix fp.

    Each branch is one flat tuple: the position q, the number k of
    tetrahedra indexed, then old tet -> new index, the k old tets in index
    order, old slot -> new slot and new slot -> old slot (-1 where unset).
    """
    n = len(fp) // 4
    tetmap: list[int] = []
    inv: list[int] = []
    smap: list[int] = []
    sinv: list[int] = []
    suspended: list[tuple[int, ...]] = []

    def suspend(q: int) -> None:
        suspended.append((q, len(inv), *tetmap, *inv, *smap, *sinv))

    def scan(q: int) -> bool:
        """True if some completion of the current relabelling beats fp."""
        if q == limit:
            suspend(q)
            return False
        u = q >> 2
        if u == len(inv):
            for tau in range(n):
                if tetmap[tau] == -1:
                    tetmap[tau] = u
                    inv.append(tau)
                    beaten = scan(q)
                    tetmap[tau] = -1
                    inv.pop()
                    if beaten:
                        return True
            return False
        forced = sinv[q]
        free = forced == -1
        if free:
            first = 4 * inv[u]
            options = [s for s in range(first, first + 4) if smap[s] == -1]
        else:
            options = [forced]
        want = fp[q]
        for s_old in options:
            if free:
                smap[s_old] = q
                sinv[q] = s_old
            p_old = fp[s_old]
            if p_old < 0:
                suspend(q)
                beaten = False
            else:
                pt = p_old >> 2
                undo_tet = tetmap[pt] == -1
                if undo_tet:
                    tetmap[pt] = len(inv)
                    inv.append(pt)
                value = smap[p_old]
                undo_partner = value == -1
                if undo_partner:
                    value = sinv.index(-1, 4 * tetmap[pt], 4 * tetmap[pt] + 4)
                    smap[p_old] = value
                    sinv[value] = p_old
                beaten = value < want or (value == want and scan(q + 1))
                if undo_partner:
                    smap[p_old] = -1
                    sinv[value] = -1
                if undo_tet:
                    tetmap[pt] = -1
                    inv.pop()
            if free:
                smap[s_old] = -1
                sinv[q] = -1
            if beaten:
                return True
        return False

    for b in branches:
        k = b[1]
        tetmap[:] = b[2:2 + n]
        inv[:] = b[2 + n:2 + n + k]
        smap[:] = b[2 + n + k:2 + 5 * n + k]
        sinv[:] = b[2 + 5 * n + k:]
        if scan(b[0]):
            return None
    return suspended


def _moved(ties: list[tuple[int, ...]], n: int) -> list[Relabelling]:
    """The complete relabellings among `ties` other than the identity, as
    maps from old slot to new slot: a complete branch has indexed all n
    tetrahedra, so its slot map starts at 2 + 2n."""
    identity = tuple(range(4 * n))
    return [m for m in [b[2 + 2 * n:2 + 6 * n] for b in ties] if m != identity]


def is_canonical(fp: Pairing) -> bool:
    """True when no relabelling yields a smaller partner sequence."""
    return _advance(fp, len(fp), _roots(len(fp) // 4)) is not None


def automorphisms(fp: Pairing) -> list[Relabelling]:
    """The relabellings other than the identity that fix the canonical
    connected pairing fp, as maps `a` from old slot to new slot with
    fp[a[s]] == a[fp[s]], as `enumerate_pairings` yields them.  The scan
    follows relabellings into canonical form only, so a pairing that is
    not canonical, or not connected, raises ValueError."""
    if not is_connected(fp):
        raise ValueError("pairing is not connected")
    ties = _advance(fp, len(fp), _roots(len(fp) // 4))
    if ties is None:
        raise ValueError("pairing is not canonical")
    return _moved(ties, len(fp) // 4)


def enumerate_pairings(n: int) -> Iterator[tuple[Pairing, list[Relabelling]]]:
    """Canonical connected pairings on n tetrahedra in ascending order,
    each with its automorphisms as `automorphisms` gives them.

    Depth-first order is ascending: the first slot in which two matchings
    differ is paired at the same node of the search in both, and that
    node tries partners in increasing order, so each pairing is yielded
    as soon as the search completes it.  Each node hands its
    children the relabelling scan's suspended branches, and the tied
    branches of a completed matching are its automorphisms.
    """
    if n < 1:
        return
    total = 4 * n
    fp = [-1] * total

    def extend(s: int, reached: int, branches: list[tuple[int, ...]]):
        """Pair the lowest unpaired slot at or after s; tetrahedra
        0..reached-1 are the ones the matching has reached, and
        `branches` the scan's branches suspended at fp's last node."""
        while s < total and fp[s] >= 0:
            s += 1
        if s == total:
            done = tuple(fp)
            ties = _advance(done, total, branches)
            if ties is not None:
                yield done, _moved(ties, n)
            return
        # the reached tetrahedra are closed off, or fp[:s] is not minimal
        if s == 4 * reached:
            return
        branches = _advance(fp, s, branches)
        if branches is None:
            return
        for u in range(s // 4, min(reached, n - 1) + 1):
            c = next((4 * u + k for k in range(4)
                      if fp[4 * u + k] < 0 and 4 * u + k != s), -1)
            if c < 0:
                continue
            fp[s], fp[c] = c, s
            yield from extend(s + 1, max(reached, u + 1), branches)
            fp[s], fp[c] = -1, -1

    yield from extend(0, 1, _roots(n))


def format_pairing(fp: Pairing) -> str:
    """Text form `n ; T.F T.F ...`, one partner token per slot in order."""
    toks = " ".join(f"{p // 4}.{p % 4}" for p in fp)
    return f"{len(fp) // 4} ; {toks}"


_PARTNER_RE = re.compile(r"([0-9]+)\.([0-3])")


def parse_pairing(line: str) -> tuple[int, Pairing]:
    """Inverse of `format_pairing`; any other text raises ValueError."""
    head, _, body = line.partition(";")
    head = head.strip()
    if not (head.isascii() and head.isdigit()):
        raise ValueError("pairing must start with its tetrahedron count")
    n = int(head)
    toks = body.split()
    if len(toks) != 4 * n:
        raise ValueError(f"expected {4 * n} partner tokens, got {len(toks)}")
    fp = []
    for tok in toks:
        m = _PARTNER_RE.fullmatch(tok)
        if not m or int(m.group(1)) >= n:
            raise ValueError(f"bad partner token {tok!r}")
        fp.append(4 * int(m.group(1)) + int(m.group(2)))
    for s, p in enumerate(fp):
        if p == s or fp[p] != s:
            raise ValueError(f"slot {s} is not consistently paired")
    return n, tuple(fp)
