"""Pure-Python search kernel: depth-first gluing search over one pairing.

The compiled kernel in `_engine` implements the same contract; callers go
through `search` which picks a backend.  Keeping the per-pairing searches
independent makes job splitting and parallel execution trivial.
"""

from __future__ import annotations

from .core import Triangulation, canonical_sequence, sequence_signature
from .dsu import Outcome, SignedDsu
from .linktrack import GlueOutcome, LinkState
from .perms import GLUING_PERMS, PERM4_INV, PERM4_SIGN
from .validate import is_3manifold

BACKEND_NAME = "py"


def _orientable(n: int, adj: list[int], gl: list[int]) -> bool:
    # complete connected gluing: odd permutation parity keeps the sign
    sign = [0] * n
    sign[0] = 1
    stack = [0]
    while stack:
        t = stack.pop()
        for f in range(4):
            s = 4 * t + f
            u = adj[s] // 4
            want = sign[t] * -PERM4_SIGN[gl[s]]
            if sign[u] == 0:
                sign[u] = want
                stack.append(u)
            elif sign[u] != want:
                return False
    return True


def _leaf_ok_level0(n: int, adj: list[int], gl: list[int]) -> bool:
    tri = Triangulation.__new__(Triangulation)
    tri.n = n
    tri.adj = list(adj)
    tri.perm = list(gl)
    return is_3manifold(tri)


def search_pairing(n: int, mode: str, level: int, seed: int,
                   pairing: tuple[int, ...], prefix: tuple[int, ...] = (),
                   depth_cap: int | None = None) -> dict:
    """Search one pairing's gluing tree below an optional replayed prefix.

    `prefix` holds the Perm4 index chosen for each of the first k slot
    pairs (pairs ordered by lower slot).  Replay failing any pruning check
    means the descriptor does not come from this search and raises
    ValueError.  With `depth_cap` set, recursion stops at that depth and
    the surviving prefixes are returned as `frontier` instead of being
    searched; attempts above the cap are still counted.

    Returns a dict of counters plus per-pairing deduplicated signature
    lists (`orient_sigs`, `nonor_sigs`) and optionally `frontier`.
    """
    pairs = [(s, p) for s, p in enumerate(pairing) if s < p]
    total = len(pairs)
    branches = [GLUING_PERMS[s1 % 4][s2 % 4] for s1, s2 in pairs]
    adj = [-1] * (4 * n)
    gl = [-1] * (4 * n)
    ls = LinkState(n, level=level, seed=seed) if level >= 1 else None
    signs = SignedDsu(n) if mode == "orientable" else None
    chosen = [0] * total

    nodes = prune_orient = prune_edge = prune_genus = leaves = 0
    orient_sigs: set[str] = set()
    nonor_sigs: set[str] = set()
    frontier: list[tuple[int, ...]] | None = [] if depth_cap is not None else None

    def apply(k: int, pi: int):
        """Run all checks for choice pi at pair k; None when pruned."""
        nonlocal prune_orient, prune_edge, prune_genus
        s1, s2 = pairs[k]
        smark = signs.checkpoint() if signs is not None else None
        if signs is not None:
            if signs.union(s1 // 4, s2 // 4, -PERM4_SIGN[pi]) is Outcome.CONFLICT:
                prune_orient += 1
                return None
        tok = None
        if ls is not None:
            out, tok = ls.glue_faces(s1 // 4, s1 % 4, s2 // 4, s2 % 4, pi)
            if out is not GlueOutcome.OK:
                if out is GlueOutcome.BAD_EDGE:
                    prune_edge += 1
                elif out is GlueOutcome.BAD_ORIENT:
                    prune_orient += 1
                else:
                    prune_genus += 1
                if signs is not None:
                    signs.rollback(smark)
                return None
        adj[s1], adj[s2] = s2, s1
        gl[s1], gl[s2] = pi, PERM4_INV[pi]
        chosen[k] = pi
        return smark, tok

    def undo(k: int, applied) -> None:
        smark, tok = applied
        s1, s2 = pairs[k]
        adj[s1] = adj[s2] = -1
        gl[s1] = gl[s2] = -1
        if tok is not None:
            ls.unglue_faces(tok)
        if smark is not None:
            signs.rollback(smark)

    def leaf() -> None:
        nonlocal leaves
        leaves += 1
        if level == 0:
            if not _leaf_ok_level0(n, adj, gl):
                return
        elif level == 1:
            if not ls.closed_complex_is_manifold():
                return
        if mode == "orientable":
            orient = True
        else:
            orient = _orientable(n, adj, gl)
            if mode == "nonorientable" and orient:
                return
        sig = sequence_signature(n, canonical_sequence(n, adj, gl))
        (orient_sigs if orient else nonor_sigs).add(sig)

    def dfs(k: int) -> None:
        nonlocal nodes
        if k == total:
            leaf()
            return
        if frontier is not None and k == depth_cap:
            frontier.append(tuple(chosen[:k]))
            return
        for pi in branches[k]:
            nodes += 1
            applied = apply(k, pi)
            if applied is None:
                continue
            dfs(k + 1)
            undo(k, applied)

    if len(prefix) > total:
        raise ValueError("corrupt job: prefix longer than the pairing")
    for k, pi in enumerate(prefix):
        if pi not in branches[k]:
            raise ValueError(f"corrupt job: pair {k} permutation {pi} invalid")
        if apply(k, pi) is None:
            raise ValueError(f"corrupt job: prefix fails its own checks at pair {k}")
    dfs(len(prefix))

    return {
        "nodes": nodes,
        "prune_orient": prune_orient,
        "prune_edge": prune_edge,
        "prune_genus": prune_genus,
        "leaves": leaves,
        "orient_sigs": sorted(orient_sigs),
        "nonor_sigs": sorted(nonor_sigs),
        "frontier": frontier,
    }
