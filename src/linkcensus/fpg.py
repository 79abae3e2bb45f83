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
completion is connected).  Completed matchings still pass `is_connected`
and `is_canonical`.

The same relabelling scan, run to the end on a canonical pairing, finds
its automorphisms (`automorphisms`): the relabellings that map it to
itself.  The census uses them to search one gluing per symmetry orbit.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

Pairing = tuple[int, ...]


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


def _relabelling_beats(fp: Sequence[int], limit: int,
                       autos: list[tuple[int, ...]] | None = None) -> bool:
    """True when some relabelling makes the prefix fp[:limit] smaller.

    Tetrahedron indices and slot labels are assigned lazily while scanning
    output positions in order: a partner in a fresh tetrahedron forces the
    next index, an unlabelled partner slot forces the lowest free label,
    and only the old slot placed at the scanned position can branch.  A
    branch exceeding fp's prefix is dropped, one dipping below it proves
    the claim and aborts the whole search, and one that stays equal up to
    `limit` has no effect.  fp may be a partial matching with -1 for the
    unpaired slots, as long as its first `limit` entries are set: a branch
    that reads an unpaired slot is undecided and dropped, so a True
    verdict holds for every completion of fp.

    With `autos` given, each equality branch that reaches `limit` is
    appended to it as an old-slot -> new-slot map: at limit 4n, when fp
    is canonical, every relabelling that fixes fp, the identity included.
    """
    n = len(fp) // 4
    tetmap = [-1] * n         # old tet -> new index
    inv: list[int] = []       # new index -> old tet
    labels = [-1] * (4 * n)   # old slot -> label
    lab_inv = [-1] * (4 * n)  # 4 * old tet + label -> old slot

    def scan(q: int) -> bool:
        """True if some completion of the current relabelling beats fp."""
        if q == limit:
            if autos is not None:
                autos.append(tuple(4 * tetmap[s // 4] + labels[s]
                                   for s in range(4 * n)))
            return False
        u, g = divmod(q, 4)
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
        tau = inv[u]
        forced = lab_inv[4 * tau + g]
        options = ([forced] if forced != -1 else
                   [4 * tau + f for f in range(4) if labels[4 * tau + f] == -1])
        for s_old in options:
            p_old = fp[s_old]
            if p_old < 0:
                continue
            undo_label = labels[s_old] == -1
            if undo_label:
                labels[s_old] = g
                lab_inv[4 * tau + g] = s_old
            pt = p_old // 4
            undo_tet = tetmap[pt] == -1
            if undo_tet:
                tetmap[pt] = len(inv)
                inv.append(pt)
            plab = labels[p_old]
            undo_plab = plab == -1
            if undo_plab:
                plab = next(k for k in range(4) if lab_inv[4 * pt + k] == -1)
                labels[p_old] = plab
                lab_inv[4 * pt + plab] = p_old
            value = 4 * tetmap[pt] + plab
            beaten = value < fp[q] or (value == fp[q] and scan(q + 1))
            if undo_plab:
                labels[p_old] = -1
                lab_inv[4 * pt + plab] = -1
            if undo_tet:
                tetmap[pt] = -1
                inv.pop()
            if undo_label:
                labels[s_old] = -1
                lab_inv[4 * tau + g] = -1
            if beaten:
                return True
        return False

    for start in range(n):
        tetmap[start] = 0
        inv.append(start)
        beaten = scan(0)
        tetmap[start] = -1
        inv.pop()
        if beaten:
            return True
    return False


def is_canonical(fp: Pairing) -> bool:
    """True when no relabelling yields a smaller partner sequence.

    Equality branches of the scan are automorphisms and run to completion
    without effect.
    """
    return not _relabelling_beats(fp, len(fp))


def automorphisms(fp: Pairing) -> list[tuple[int, ...]]:
    """The relabellings that fix the canonical pairing fp, other than the
    identity, as maps `a` from old slot to new slot: fp[a[s]] == a[fp[s]]
    for every s.  They are the equality branches of `is_canonical`'s
    scan, which only follows relabellings into canonical form, so a
    pairing that is not canonical raises ValueError."""
    autos: list[tuple[int, ...]] = []
    if _relabelling_beats(fp, len(fp), autos):
        raise ValueError("pairing is not canonical")
    identity = tuple(range(len(fp)))
    return [a for a in autos if a != identity]


def enumerate_pairings(n: int) -> Iterator[Pairing]:
    """Canonical connected pairings on n tetrahedra in ascending order.

    Depth-first order is ascending: the first slot in which two matchings
    differ is paired at the same node of the search in both, and that
    node tries partners in increasing order.
    """
    if n < 1:
        return
    total = 4 * n
    fp = [-1] * total
    found: list[Pairing] = []

    def extend(s: int, reached: int) -> None:
        """Pair the lowest unpaired slot at or after s; tetrahedra
        0..reached-1 are the ones the matching has reached."""
        while s < total and fp[s] >= 0:
            s += 1
        if s == total:
            done = tuple(fp)
            if is_connected(done) and is_canonical(done):
                found.append(done)
            return
        # the reached tetrahedra are closed off, or fp[:s] is not minimal
        if s == 4 * reached or _relabelling_beats(fp, s):
            return
        for u in range(s // 4, min(reached, n - 1) + 1):
            c = next((4 * u + k for k in range(4)
                      if fp[4 * u + k] < 0 and 4 * u + k != s), -1)
            if c < 0:
                continue
            fp[s], fp[c] = c, s
            extend(s + 1, max(reached, u + 1))
            fp[s], fp[c] = -1, -1

    extend(0, 1)
    yield from found


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
