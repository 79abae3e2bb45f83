"""Independent reference implementations the tests check against.

Each oracle favours obviousness over speed: explicit relation graphs,
endpoint matchings, and from-scratch rebuilds.  The acceptance suite
reruns the same fuzz drivers at larger case counts, so the drivers here
take their trial counts as arguments and return how many individual
checks they performed.
"""

from __future__ import annotations

import itertools
import random

from linkcensus.core import _TET_NAMES, Triangulation
from linkcensus.dsu import Outcome, SignedDsu
from linkcensus.fpg import is_canonical, is_connected, pairs_of
from linkcensus.linktrack import GlueOutcome, LinkState
from linkcensus.perms import FACE_VERTICES, GLUING_PERMS, PERM4_IMAGES
from linkcensus.search import _branch_maps, _ties
from linkcensus.skiplist import CyclicSkipList
from linkcensus.validate import build_links, check_edges, is_3manifold


# Three-tetrahedron table whose single vertex has a torus link: every
# gluing is edge- and orientation-clean, so only the genus check can
# reject it.  Used across the validator and replay tests.
TORUS_LINK_ROWS = [
    ["C:013", "B:012", "A:312", "A:230"],
    ["A:013", "C:120", "C:231", "C:302"],
    ["B:301", "A:012", "B:231", "B:302"],
]


def serialize_human(tri: Triangulation) -> str:
    """Letter/triple rendering, one row per tetrahedron, the form that
    `from_human_rows` reads (its cells split on `|`, after the name)."""
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


# -- signed relations ----------------------------------------------------------

class RelationOracle:
    """Signed identifications as an explicit graph; queries walk it."""

    def __init__(self, count: int):
        self.count = count
        self.edges: list[dict[int, int]] = [dict() for _ in range(count)]

    def copy_state(self):
        return [dict(e) for e in self.edges]

    def restore(self, state) -> None:
        self.edges = [dict(e) for e in state]

    def relation(self, x: int, y: int) -> int | None:
        """Implied sign between x and y, or None when unrelated."""
        sign = {x: 1}
        frontier = [x]
        while frontier:
            u = frontier.pop()
            for v, rel in self.edges[u].items():
                if v not in sign:
                    sign[v] = sign[u] * rel
                    frontier.append(v)
        return sign.get(y)

    def union(self, x: int, y: int, rel: int) -> Outcome:
        known = self.relation(x, y)
        if known is not None:
            return Outcome.REDUNDANT if known == rel else Outcome.CONFLICT
        self.edges[x][y] = rel
        self.edges[y][x] = rel
        return Outcome.MERGED

    def components(self) -> int:
        seen: set[int] = set()
        out = 0
        for start in range(self.count):
            if start in seen:
                continue
            out += 1
            frontier = [start]
            seen.add(start)
            while frontier:
                u = frontier.pop()
                for v in self.edges[u]:
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return out


def dsu_fuzz_trial(trial: int, ops: int = 60) -> int:
    """One randomized battle of SignedDsu against RelationOracle.

    Returns the number of individual checked operations.
    """
    rng = random.Random(trial)
    count = rng.randint(2, 30)
    dsu = SignedDsu(count)
    oracle = RelationOracle(count)
    stack = []  # (mark, oracle state, dsu snapshot)
    checks = 0

    def snapshot():
        return (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank),
                dsu.components)

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.2 and stack:
            mark, state, snap = stack.pop()
            dsu.rollback(mark)
            oracle.restore(state)
            assert snapshot() == snap, "rollback must restore exactly"
        else:
            if rng.random() < 0.4:
                stack.append((dsu.checkpoint(), oracle.copy_state(), snapshot()))
            x = rng.randrange(count)
            y = rng.randrange(count)
            if x == y:
                continue
            rel = rng.choice((1, -1))
            before = snapshot()
            got = dsu.union(x, y, rel)
            want = oracle.union(x, y, rel)
            assert got == want, (trial, x, y, rel, got, want)
            if got is Outcome.CONFLICT:
                assert snapshot() == before, "conflict must not mutate"
        checks += 1
        # spot-check implied relations and component count
        x = rng.randrange(count)
        y = rng.randrange(count)
        rx, sx = dsu.find(x)
        ry, sy = dsu.find(y)
        want_rel = oracle.relation(x, y)
        if want_rel is None:
            assert rx != ry
        else:
            assert rx == ry and sx * sy == want_rel
        assert dsu.components == oracle.components()
        checks += 1
    return checks


# -- boundary cycles -------------------------------------------------------------

class CycleOracle:
    """Cycles as a perfect matching on element endpoints (node, side)."""

    def __init__(self):
        self.bond = {}

    def _tie(self, e, f):
        self.bond[e] = f
        self.bond[f] = e

    def make_cycle(self, chain):
        m = len(chain)
        for j, (a, sa) in enumerate(chain):
            b, sb = chain[(j + 1) % m]
            self._tie((a, sa), (b, 1 - sb))

    def excise_pair(self, x, y, aligned):
        y0, y1 = (0, 1) if aligned else (1, 0)
        partner = {(x, 0): (y, y0), (y, y0): (x, 0),
                   (x, 1): (y, y1), (y, y1): (x, 1)}
        old = dict(self.bond)
        for e in partner:
            self.bond.pop(e, None)
        for e, f in old.items():
            if e in partner or f not in partner:
                continue
            g = f
            while g in partner:
                g = old[partner[g]]
            self._tie(e, g)

    def live(self):
        return {n for n, _ in self.bond}

    def cycles(self):
        out = []
        seen = set()
        for start in sorted(self.bond):
            if start in seen:
                continue
            walk = []
            e = start
            while e not in seen:
                seen.add(e)
                node, side = e
                walk.append(node)
                other = (node, 1 - side)
                seen.add(other)
                e = self.bond[other]
            out.append(frozenset(walk))
        return set(out)

    def same_cycle(self, x, y):
        for cyc in self.cycles():
            if x in cyc:
                return y in cyc
        raise KeyError(x)


def skiplist_element_bonds(sl: CyclicSkipList) -> dict:
    """Level-0 matching on live elements, reading through sentinels."""
    bonds = {}
    for x in range(sl.count):
        if not sl.in_cycle(x):
            continue
        for side in (0, 1):
            n, s = sl.neighbors(x)[side]
            while sl.is_sentinel(n):
                n, s = sl.neighbors(n)[1 - s]
            bonds[(x, side)] = (n, s)
    return bonds


def _skiplist_cycles(sl: CyclicSkipList) -> set:
    return {frozenset(n for n, _ in walk) for walk in sl.cycles()}


def _check_against_oracle(rng, sl, oracle) -> int:
    assert skiplist_element_bonds(sl) == oracle.bond
    assert _skiplist_cycles(sl) == oracle.cycles()
    live = sorted(oracle.live())
    for x in live:
        assert sl.in_cycle(x)
        assert sl.is_sentinel(sl.find_last(x))
    for cyc in oracle.cycles():
        sentinels = {sl.find_last(m) for m in cyc}
        assert len(sentinels) == 1, "one sentinel per cycle"
    checks = 3
    for _ in range(10):
        if len(live) >= 2:
            a, b = rng.sample(live, 2)
            assert sl.same_cycle(a, b) == oracle.same_cycle(a, b)
            checks += 1
    return checks


def _chase_alignment(rng, oracle, x, y):
    """Pick an alignment compatible with any existing x-y adjacency."""
    for side in (0, 1):
        tgt = oracle.bond.get((x, side))
        if tgt is not None and tgt[0] == y:
            return side == tgt[1]
    return rng.random() < 0.5


def _enter_side(oracle, cyc_member, target):
    """Side on which a canonical traversal of the cycle enters target."""
    start = (cyc_member, 0)
    e = start
    while True:
        node, side = e
        if node == target:
            return side
        e = oracle.bond[(node, 1 - side)]
        if e == start:
            raise KeyError(target)


def _is_parallel(oracle, x, y, aligned):
    """True when identifying x with y runs along the cycle direction,
    a twist that excise_pair's precondition rules out."""
    ei = _enter_side(oracle, x, x)
    try:
        ej = _enter_side(oracle, x, y)
    except KeyError:
        return False  # different cycles: no twist possible
    phi = ei if aligned else 1 - ei
    return phi == ej


def skiplist_fuzz_trial(trial: int, ops: int = 200) -> int:
    """One randomized battle of CyclicSkipList against CycleOracle."""
    rng = random.Random(trial)
    count = rng.randint(4, 40)
    sl = CyclicSkipList(count, seed=trial)
    oracle = CycleOracle()
    free = list(range(count))
    rng.shuffle(free)
    while free:
        k = min(len(free), rng.randint(1, 6))
        chunk, free = free[:k], free[k:]
        chain = [(n, rng.randint(0, 1)) for n in chunk]
        sl.make_cycle(chain)
        oracle.make_cycle(chain)
    checks = _check_against_oracle(rng, sl, oracle)

    stack = []  # (mark, oracle bond snapshot, structure dump)
    for _ in range(ops):
        live = sorted(oracle.live())
        if rng.random() < 0.25 and stack:
            mark, bond, dump = stack.pop()
            sl.rollback(mark)
            oracle.bond = dict(bond)
            assert sl.structure_dump() == dump, "rollback must restore exactly"
            checks += _check_against_oracle(rng, sl, oracle) + 1
        elif len(live) >= 2:
            if rng.random() < 0.5:
                stack.append((sl.checkpoint(), dict(oracle.bond),
                              sl.structure_dump()))
            x, y = rng.sample(live, 2)
            aligned = _chase_alignment(rng, oracle, x, y)
            if _is_parallel(oracle, x, y, aligned):
                # only non-adjacent same-cycle pairs can be parallel, so the
                # flipped identification is always antiparallel and legal
                aligned = not aligned
            sl.excise_pair(x, y, aligned)
            oracle.excise_pair(x, y, aligned)
            checks += _check_against_oracle(rng, sl, oracle) + 1
        else:
            break
    while stack:
        mark, bond, dump = stack.pop()
        sl.rollback(mark)
        oracle.bond = dict(bond)
        assert sl.structure_dump() == dump
        checks += _check_against_oracle(rng, sl, oracle) + 1
    return checks


# -- incremental link state -------------------------------------------------------

def linktrack_verdict(tri: Triangulation, s1: int, s2: int, perm: int):
    """Expected glue outcomes (level2 set, level1 set) for this gluing,
    derived by briefly applying it and rebuilding every link."""
    tri.glue(s1, s2, perm)
    try:
        edge_ok = not check_edges(tri)
        reports = build_links(tri)
        orient_ok = all(r.orientable for r in reports)
        genus_ok = all(r.is_punctured_sphere for r in reports if r.orientable)
    finally:
        tri.unglue(s1)
    if not edge_ok:
        return {GlueOutcome.BAD_EDGE}, {GlueOutcome.BAD_EDGE}
    l1 = {GlueOutcome.BAD_ORIENT} if not orient_ok else {GlueOutcome.OK}
    if orient_ok and genus_ok:
        return {GlueOutcome.OK}, l1
    if orient_ok:
        return {GlueOutcome.BAD_GENUS}, l1
    # A nonorientable end state may be caught as genus first: the vertex
    # steps interleave, and a same-piece cycle merge can precede the
    # orientation conflict of a later vertex of the same face gluing.
    return {GlueOutcome.BAD_ORIENT, GlueOutcome.BAD_GENUS}, l1


def linkstate_fingerprint(ls: LinkState):
    """Every array of both union-finds, and the skip list's structure."""
    fp = tuple((tuple(d.parent), tuple(d.sign), tuple(d.rank), d.components)
               for d in (ls.edge_cls, ls.tri_cls))
    if ls.cycles is not None:
        fp += (ls.cycles.structure_dump(),)
    return fp


def apply_relabel(fp, rho, pis):
    """Relabel tets by rho and slots of old tet t by pis[t]."""
    n = len(fp) // 4
    out = [-1] * (4 * n)
    for s, p in enumerate(fp):
        ns = 4 * rho[s // 4] + pis[s // 4][s % 4]
        np_ = 4 * rho[p // 4] + pis[p // 4][p % 4]
        out[ns] = np_
    return tuple(out)


def brute_minimum(fp):
    """Lexicographic minimum of a pairing over its whole relabelling orbit."""
    n = len(fp) // 4
    best = None
    for rho in itertools.permutations(range(n)):
        for pis in itertools.product(list(itertools.permutations(range(4))),
                                     repeat=n):
            cand = apply_relabel(fp, rho, pis)
            if best is None or cand < best:
                best = cand
    return best


def brute_automorphisms(fp):
    """Every relabelling other than the identity that fixes the pairing,
    as a map from old slot to new slot, from the whole relabelling orbit."""
    n = len(fp) // 4
    found = set()
    for rho in itertools.permutations(range(n)):
        for pis in itertools.product(list(itertools.permutations(range(4))),
                                     repeat=n):
            if apply_relabel(fp, rho, pis) == fp:
                found.add(tuple(4 * rho[s // 4] + pis[s // 4][s % 4]
                                for s in range(4 * n)))
    found.discard(tuple(range(4 * n)))
    return found


def filtered_pairings(n):
    """Canonical connected pairings by generate-then-filter, ascending.

    Extends the matching at its lowest unpaired slot with new tetrahedra in
    increasing order and partners at their tetrahedron's lowest unpaired
    slot, and tests connectivity and canonicity only on completed
    matchings.
    """
    fp = [-1] * (4 * n)
    found = []

    def extend(maxtet):
        s = next((i for i, p in enumerate(fp) if p < 0), -1)
        if s < 0:
            done = tuple(fp)
            if is_connected(done) and is_canonical(done):
                found.append(done)
            return
        t = s // 4
        cap = min(max(maxtet, t) + 1, n - 1)
        for u in range(t, cap + 1):
            c = next((4 * u + k for k in range(4)
                      if fp[4 * u + k] < 0 and 4 * u + k != s), -1)
            if c < 0:
                continue
            fp[s], fp[c] = c, s
            extend(max(maxtet, u))
            fp[s], fp[c] = -1, -1

    extend(-1)
    return sorted(found)


def least_gluings(eng, n: int, pairing: tuple[int, ...],
                  autos) -> tuple[int, list[str], list[str]]:
    """One pairing's level-2 census, every prefix down to the complete
    gluings filtered by the pairing's automorphisms.

    Drives the kernel `eng` through its prefix and depth_cap contract,
    one depth at a time, with `search`'s maps cut at full depth.  The
    last pair is glued by replay: the kernel counts a leaf before it
    would write a frontier there, and refuses a prefix that fails its
    checks.  Returns the leaves and the orientable and nonorientable
    signatures, each as often as a leaf gave it: with an exact filter
    every leaf is a class of its own.
    """
    pairs = pairs_of(pairing)
    maps = _branch_maps(pairing, autos, len(pairs))
    level = [()]
    for d in range(len(pairs) - 1):
        level = [child for p in level for child in eng.search_pairing(
            n, "all", 2, 0, pairing, prefix=p, depth_cap=d + 1)["frontier"]
            if _ties(child, [(m, 0) for m in maps]) is not None]
    leaves, orient, nonor = 0, [], []
    s1, s2 = pairs[-1]
    for p in level:
        for pi in GLUING_PERMS[s1 % 4][s2 % 4]:
            if _ties((*p, pi), [(m, 0) for m in maps]) is None:
                continue
            try:
                raw = eng.search_pairing(n, "all", 2, 0, pairing, prefix=(*p, pi))
            except ValueError:  # the kernel prunes it
                continue
            leaves += raw["leaves"]
            orient += raw["orient_sigs"]
            nonor += raw["nonor_sigs"]
    return leaves, orient, nonor


def random_pairing(n, rng):
    slots = list(range(4 * n))
    rng.shuffle(slots)
    fp = [-1] * (4 * n)
    for i in range(0, 4 * n, 2):
        a, b = slots[i], slots[i + 1]
        fp[a] = b
        fp[b] = a
    return tuple(fp)


def linktrack_fuzz_trial(trial: int, ops: int = 60) -> int:
    """Random glue/unglue walk comparing LinkState to from-scratch links."""
    rng = random.Random(trial)
    n = rng.randint(1, 4)
    tri = Triangulation(n)
    l2 = LinkState(n, level=2, seed=trial)
    l1 = LinkState(n, level=1)
    history = []  # (slot, marks and fingerprints to restore)
    checks = 0

    for _ in range(ops):
        unglued = [s for s in range(4 * n) if tri.adj[s] == -1]
        if len(unglued) < 2 or (history and rng.random() < 0.3):
            if not history:
                break
            s1, mark2, mark1, fp2, fp1 = history.pop()
            tri.unglue(s1)
            l2.unglue_faces(mark2)
            l1.unglue_faces(mark1)
            assert linkstate_fingerprint(l2) == fp2, "unglue must be exact"
            assert linkstate_fingerprint(l1) == fp1, "unglue must be exact"
            checks += 1
            continue

        s1 = rng.choice(unglued)
        s2 = rng.choice([s for s in unglued if s != s1])
        if s2 < s1:
            s1, s2 = s2, s1
        t1, f1 = s1 // 4, s1 % 4
        t2, f2 = s2 // 4, s2 % 4
        perm = GLUING_PERMS[f1][f2][rng.randrange(6)]

        want2, want1 = linktrack_verdict(tri, s1, s2, perm)
        fp2 = linkstate_fingerprint(l2)
        fp1 = linkstate_fingerprint(l1)
        got2, mark2 = l2.glue_faces(t1, f1, t2, f2, perm)
        got1, mark1 = l1.glue_faces(t1, f1, t2, f2, perm)
        assert got2 in want2, (trial, s1, s2, perm, got2, want2)
        assert got1 in want1, (trial, s1, s2, perm, got1, want1)
        if got2 is GlueOutcome.BAD_GENUS:
            assert got1 in (GlueOutcome.OK, GlueOutcome.BAD_ORIENT)
        else:
            assert got1 is got2
        assert (mark2 is None) == (got2 is not GlueOutcome.OK)
        assert (mark1 is None) == (got1 is not GlueOutcome.OK)
        checks += 1

        if got2 is not GlueOutcome.OK:
            assert linkstate_fingerprint(l2) == fp2, "reject must not mutate"
            if got1 is GlueOutcome.OK:
                l1.unglue_faces(mark1)
            else:
                assert linkstate_fingerprint(l1) == fp1
            continue
        assert got1 is GlueOutcome.OK
        tri.glue(s1, s2, perm)
        history.append((s1, mark2, mark1, fp2, fp1))

        reports = build_links(tri)
        glued = sum(1 for s in tri.adj if s != -1)
        cycles = _skiplist_cycles(l2.cycles)
        assert len(cycles) == sum(r.boundary_cycles for r in reports)
        assert (sum(map(len, cycles)) == 3 * (4 * n - glued)
                == sum(r.boundary_edges for r in reports))
        assert l2.tri_cls.components == len(reports)
        assert l1.tri_cls.components == len(reports)
        checks += 1
        if all(s != -1 for s in tri.adj):
            assert l2.closed_complex_is_manifold() == is_3manifold(tri)
            assert l1.closed_complex_is_manifold() == is_3manifold(tri)
            # a fully glued level-2 state passed every incremental check,
            # so it must be a manifold outright
            assert is_3manifold(tri)
            checks += 1
    return checks
