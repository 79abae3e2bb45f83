"""Signed union-find with exact rollback.

Elements carry an orientation sign (+1/-1) relative to their parent; the
sign composed along the path to the root orients each element relative to
its component.  Union by rank only, never path compression: finds stay
O(log n) and, crucially, the only state mutated by a union is the child
root's parent/sign and possibly the winner's rank, so a small journal can
undo everything exactly.
"""

from __future__ import annotations

import enum


class Outcome(enum.Enum):
    MERGED = "merged"
    REDUNDANT = "redundant"
    CONFLICT = "conflict"


class SignedDsu:
    __slots__ = ("parent", "sign", "rank", "components", "_journal")

    def __init__(self, count: int):
        if count < 0:
            raise ValueError("negative element count")
        self.parent = list(range(count))
        self.sign = [1] * count
        self.rank = [0] * count
        self.components = count
        # journal entries: (child_root, rank_bumped)
        self._journal: list[tuple[int, bool]] = []

    def find(self, x: int) -> tuple[int, int]:
        """Root of x's component and the sign of x relative to that root."""
        s = 1
        while self.parent[x] != x:
            s *= self.sign[x]
            x = self.parent[x]
        return x, s

    def union(self, x: int, y: int, rel: int) -> Outcome:
        """Record that x and y are identified with relative sign `rel`.

        MERGED joined two components; REDUNDANT was already known and
        consistent; CONFLICT contradicts the recorded signs and mutates
        nothing.
        """
        if rel not in (1, -1):
            raise ValueError(f"relative sign must be +1 or -1, got {rel}")
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            return Outcome.REDUNDANT if sx * sy == rel else Outcome.CONFLICT
        # sign of ry relative to rx implied by x ~rel~ y
        link = sx * rel * sy
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        bump = self.rank[rx] == self.rank[ry]
        if bump:
            self.rank[rx] += 1
        self.parent[ry] = rx
        self.sign[ry] = link
        self.components -= 1
        self._journal.append((ry, bump))
        return Outcome.MERGED

    def checkpoint(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        """Undo all merges after `mark`, restoring the exact prior state."""
        if mark > len(self._journal):
            raise ValueError("rollback past the end of the journal")
        while len(self._journal) > mark:
            child, bump = self._journal.pop()
            root = self.parent[child]
            if bump:
                self.rank[root] -= 1
            self.parent[child] = child
            self.sign[child] = 1
            self.components += 1
