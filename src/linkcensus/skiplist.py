"""Cyclic skip lists over fixed towers, with exact undo.

Maintains a partition of element handles into cyclic sequences.  Every
node keeps two side-tagged links per tower level; sides 0 and 1 of an
element are its two endpoints in the caller's sense, so a cycle carries
no global direction: a traversal enters a node on one side and leaves by
the other.  One sentinel per cycle, taller than every element, marks the
arbitrary endpoint; `find_last` climbs towers toward it in expected
logarithmic steps and `same_cycle` compares endpoints.  A cycle that
vanishes or is merged away leaves its sentinel deleted, and a split
allocates a fresh one: sentinels are never reused, and rollback drops
the ones allocated after the mark.

Element towers are drawn once from a seeded generator (promotion
probability 1/2, capped at ceil(log2(count)) + 2) and never redrawn; a
removed element keeps its frozen tower so re-linking it on undo is exact.
`splice` cross-joins two gaps, merging or splitting cycles; `insert`
splices in a one-node cycle.  One write-log takes every mutation, so
rollback(mark) restores the precise earlier structure.
"""

from __future__ import annotations

import math
import random


class CyclicSkipList:
    def __init__(self, count: int, seed: int = 0):
        if count < 1:
            raise ValueError("need at least one element handle")
        self.count = count
        self.maxh = math.ceil(math.log2(max(count, 2))) + 2
        rng = random.Random(seed)
        self._h = []
        for _ in range(count):
            h = 1
            while h < self.maxh and rng.random() < 0.5:
                h += 1
            self._h.append(h)
        # _lnk[node][level][side] = (other_node, other_side) or None
        self._lnk = [[[None, None] for _ in range(self._h[x])] for x in range(count)]
        self._live = [False] * count
        self._journal: list[tuple] = []

    # -- basic queries ----------------------------------------------------

    def is_sentinel(self, node: int) -> bool:
        return node >= self.count

    def in_cycle(self, node: int) -> bool:
        return self._live[node]

    def neighbors(self, x: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Level-0 links of x: (side-0 target, side-1 target)."""
        lk = self._lnk[x][0]
        return lk[0], lk[1]

    def find_last(self, x: int, _count_steps: bool = False):
        """The sentinel of x's cycle, reached by climbing towers."""
        if not self._live[x]:
            raise ValueError(f"node {x} is not in a cycle")
        node, level, exit_side = x, self._h[x] - 1, 1
        steps = 0
        while not self.is_sentinel(node):
            nxt, enter = self._lnk[node][level][exit_side]
            node = nxt
            level = self._h[node] - 1
            exit_side = 1 - enter
            steps += 1
            if steps > 4 * len(self._h) + 8:
                raise AssertionError("find_last walk failed to terminate")
        return (node, steps) if _count_steps else node

    def same_cycle(self, x: int, y: int) -> bool:
        return self.find_last(x) == self.find_last(y)

    # -- journal ----------------------------------------------------------

    def checkpoint(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        if mark > len(self._journal):
            raise ValueError("rollback past the end of the journal")
        j = self._journal
        while len(j) > mark:
            entry = j.pop()
            op = entry[0]
            if op == "p":
                _, node, level, side, old = entry
                self._lnk[node][level][side] = old
            elif op == "l":
                _, node, old = entry
                self._live[node] = old
            else:
                assert op == "sent-new" and len(self._h) - 1 == entry[1]
                self._h.pop()
                self._lnk.pop()
                self._live.pop()

    def _set(self, node: int, level: int, side: int, target) -> None:
        self._journal.append(("p", node, level, side, self._lnk[node][level][side]))
        self._lnk[node][level][side] = target

    def _link(self, a: int, sa: int, b: int, sb: int, level: int) -> None:
        self._set(a, level, sa, (b, sb))
        self._set(b, level, sb, (a, sa))

    def _set_live(self, node: int, value: bool) -> None:
        self._journal.append(("l", node, self._live[node]))
        self._live[node] = value

    # -- construction -----------------------------------------------------

    def make_cycle(self, chain: list[tuple[int, int]]) -> int:
        """Create a cycle from free elements and return its new sentinel.

        `chain` lists (element, side_toward_next); consecutive entries are
        linked, last to first through the sentinel appended at the end.
        Each level links, in the same cyclic order, the entries whose
        towers reach it; an entry alone at a level links to itself.
        """
        for node, _ in chain:
            if self._live[node] or self.is_sentinel(node):
                raise ValueError(f"element {node} unavailable for a new cycle")
        sent = self._alloc_sentinel()
        full = list(chain) + [(sent, 1)]
        top = max(self._h[n] for n, _ in full)
        for level in range(top):
            sub = [(n, s) for n, s in full if self._h[n] > level]
            for (a, sa), (b, sb) in zip(sub, sub[1:] + sub[:1]):
                self._link(a, sa, b, 1 - sb, level)
        for node, _ in full:
            self._set_live(node, True)
        return sent

    def _alloc_sentinel(self) -> int:
        sid = len(self._h)
        self._h.append(self.maxh + 1)
        self._lnk.append([[None, None] for _ in range(self.maxh + 1)])
        self._live.append(False)
        self._journal.append(("sent-new", sid))
        return sid

    # -- surgery primitives -----------------------------------------------

    def delete(self, x: int) -> None:
        """Unlink x from every level; the gap closes.  x keeps its frozen
        tower pointers so a rollback can stitch it back exactly."""
        if not self._live[x]:
            raise ValueError(f"node {x} is not in a cycle")
        for level in range(self._h[x]):
            (a, sa), (b, sb) = self._lnk[x][level]
            if a == x:
                continue  # alone at this level
            self._link(a, sa, b, sb, level)
        self._set_live(x, False)

    def _gap_plugs(self, w: int, ws: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Per level, the link crossing the gap just beyond (w, ws):
        ((near_node, near_side), (far_node, far_side)), near on w's side.
        Stops at the last level where the cycle still has such a link."""
        plugs = []
        node, gap_side = w, ws
        seen = {(w, ws)}
        level = 0
        while True:
            while self._h[node] <= level:
                # step away from the gap at this node's top level
                nxt, enter = self._lnk[node][self._h[node] - 1][1 - gap_side]
                node, gap_side = nxt, enter
                if (node, gap_side) in seen:
                    return plugs  # no taller node anywhere in this cycle
                seen.add((node, gap_side))
            far = self._lnk[node][level][gap_side]
            plugs.append(((node, gap_side), far))
            level += 1

    def insert(self, x: int, w: int, ws: int) -> None:
        """Insert free node x into the gap beyond (w, ws), its side 0
        toward w: x becomes a one-node cycle, spliced into w's."""
        if self._live[x]:
            raise ValueError(f"node {x} is already in a cycle")
        if not self._live[w]:
            raise ValueError(f"anchor {w} is not in a cycle")
        for level in range(self._h[x]):
            self._link(x, 0, x, 1, level)
        self.splice(w, ws, x, 0)
        self._set_live(x, True)

    def splice(self, u: int, us: int, v: int, vs: int) -> None:
        """Cut the gaps beyond (u,us) and (v,vs) and cross-join them:
        near ends together, far ends together.  Merges two cycles or
        splits one, depending on whether the gaps share a cycle."""
        pa = self._gap_plugs(u, us)
        pb = self._gap_plugs(v, vs)
        for level in range(min(len(pa), len(pb))):
            (a1, s1), (a2, s2) = pa[level]
            (b1, t1), (b2, t2) = pb[level]
            if {(a1, s1), (a2, s2)} == {(b1, t1), (b2, t2)}:
                # one link spans both gaps: every node of this height sits
                # on a single segment, so the link survives the surgery
                continue
            self._link(a1, s1, b1, t1, level)
            self._link(a2, s2, b2, t2, level)
        # levels present in only one gap's cycle need no rewiring either:
        # the spliced-in segment has no nodes there and the old link spans it

    # -- composite boundary surgery ----------------------------------------

    def excise_pair(self, x: int, y: int, aligned: bool) -> None:
        """Remove x and y and reconnect their neighbourhoods crosswise.

        `aligned` means side 0 of x is identified with side 0 of y (and 1
        with 1); otherwise sides cross.  Handles every degeneracy: the two
        nodes adjacent (one junction seals), a two-node cycle (both seal,
        the cycle vanishes), and single-node cycles.  The sentinels of the
        affected cycles are deleted first.  Each resulting cycle gets one
        of them back, and the second cycle of a split a fresh one; the
        sentinel of a cycle that vanished or was merged away stays deleted.

        Precondition: when x and y share a cycle, the identification must
        run against the traversal direction.  A parallel identification
        would twist the cycle into one (the caller's orientation test
        rejects such gluings before any surgery happens), and this routine
        would mis-home the sentinels for it.
        """
        if x == y or self.is_sentinel(x) or self.is_sentinel(y):
            raise ValueError("excise_pair needs two distinct elements")
        sx = self.find_last(x)
        sy = self.find_last(y)
        same = sx == sy
        self.delete(sx)
        if not same:
            self.delete(sy)

        (p, ps), (q, qs) = self._lnk[x][0]
        y0, y1 = (0, 1) if aligned else (1, 0)
        r, rs = self._lnk[y][0][y0]
        selfx = p == x
        selfy = r == y
        sealed0 = (p, ps) == (y, y0)
        sealed1 = (q, qs) == (y, y1)
        # A misaligned adjacency would mean gluing an orientation-reversing
        # pair, which the caller's orientation test rejects before surgery.
        assert sealed0 or p != y or selfx, "misaligned adjacent gluing reached surgery"
        assert sealed1 or q != y or selfx, "misaligned adjacent gluing reached surgery"

        self.delete(x)
        self.delete(y)

        if (selfx and selfy) or (sealed0 and sealed1):
            return  # the cycles vanished, and their sentinels stay deleted
        if selfx:
            self.insert(sy, r, rs)
        elif selfy:
            self.insert(sx, p, ps)
        elif sealed0:
            self.insert(sx, q, qs)
        elif sealed1:
            self.insert(sx, p, ps)
        else:
            self.splice(p, ps, r, rs)
            self.insert(sx, p, ps)
            if same:
                self.insert(self._alloc_sentinel(), q, qs)

    # -- debug / test support ----------------------------------------------

    def cycles(self) -> list[list[tuple[int, int]]]:
        """Level-0 dump: one list per cycle of (node, side_entered),
        starting just past the sentinel."""
        out = []
        for sent in range(self.count, len(self._h)):
            if not self._live[sent]:
                continue
            walk = []
            node, side = self._lnk[sent][0][1]
            while node != sent:
                walk.append((node, side))
                node, side = self._lnk[node][0][1 - side]
            out.append(walk)
        out.sort()
        return out

    def structure_dump(self) -> tuple:
        """Full structural state, frozen pointers included."""
        return (
            tuple(tuple(tuple(lv) for lv in node) for node in self._lnk),
            tuple(self._live),
            tuple(self._h),
        )
