"""Census orchestration: configuration, job splitting, merging, backends.

The per-pairing depth-first search lives in an engine module; `_engine`
is the compiled kernel and `_engine_py` the pure-Python twin with the
same contract.  Everything here is bookkeeping around those searches:
iterating canonical pairings, collecting per-pairing rows, splitting the
tree into replayable jobs, and merging partial results exactly.
`merge(results, jobs)` is the one place that checks the split was run
exactly once: every job of the list covered by one result, nothing else.
Signatures are opaque here: sorted, unioned and counted, never read; the
`merge` command decodes each class once, after the union.

Above both kernels sits one piece of search: isomorph rejection by the
pairing's automorphisms (Burton, "Enumeration of non-orientable
3-manifolds using face-pairing graphs and union-find", 2007).  Two
gluings of one canonical pairing are isomorphic exactly when an
automorphism of the pairing maps one to the other, so a gluing prefix is
kept only while no automorphism maps it to a lexicographically smaller
prefix.  The prefixes are grown one pair at a time by the kernel, depth
first, and filtered as far as the maps reach: the maps alone set the
filter's depth, and only `_maps`, which cuts them, knows it.  The kernel
searches everything below, and the copies it still finds there merge by
signature.  Each prefix carries the automorphisms still tied with it,
each parked at the first position it has not decided, so a child only
compares the positions its new pair decides, and a prefix with none
left, as every prefix is where the maps end, goes to the kernel whole.
The `prune_auto` counter counts the children the filter drops; the
kernels count the rest.  The automorphisms come from the enumeration in
`split_jobs` or a scan in `run_job`.

`COUNTERS` names the per-pairing search counters once: the row fields,
merge's sums, the stats CSV columns and the JSON row columns all follow
it, so a new counter is one entry there, one `PairingRow` field and
the code that counts it.

The four value classes (`SearchConfig`, `PairingRow`, `CensusResult`,
`JobDescriptor`) are plain named tuples: immutable, hashable and
picklable for worker processes, with `_fields` naming their fields.
`SearchConfig` and `JobDescriptor` check their arguments when built,
and a `CensusResult` compares and hashes without its `jobs`.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import islice
from typing import NamedTuple

from .fpg import (
    automorphisms,
    enumerate_pairings,
    format_pairing,
    pairs_of,
    parse_pairing,
)
from .perms import GLUING_PERMS, PERM4_INDEX, PERM4_INV, PERM4_MUL

MODES = ("all", "orientable", "nonorientable")

#: size cap for pruning level 0; the unpruned tree is only an oracle tier
LEVEL0_SIZE_CAP = 4


def load_backend(name: str | None = None):
    """Resolve an engine module: 'py', 'fast', or 'auto' (the default).

    `auto` prefers the compiled kernel and falls back to pure Python,
    saying so once per process; the LINKCENSUS_BACKEND environment
    variable supplies the default name.
    """
    if name is None:
        name = os.environ.get("LINKCENSUS_BACKEND", "auto")
    if name not in ("auto", "py", "fast"):
        raise ValueError(f"unknown backend {name!r}")
    if name in ("auto", "fast"):
        try:
            from . import _engine
            return _engine
        except ImportError as exc:
            if name == "fast":
                raise RuntimeError(
                    "compiled engine requested but not built") from exc
            _report_fallback()
    from . import _engine_py
    return _engine_py


@functools.cache
def _report_fallback() -> None:
    print("linkcensus: the compiled kernel cannot be imported; running the "
          "pure-Python one, about 1000x slower (LINKCENSUS_BACKEND=py chooses "
          "it explicitly)", file=sys.stderr)


class _Config(NamedTuple):
    n: int
    mode: str
    level: int


class SearchConfig(_Config):
    """What to enumerate: size, orientability mode and pruning level.
    Nothing else changes a census, so the kernels' positional `seed` is
    always passed 0.  Level 0, the unpruned tree, is refused above
    LEVEL0_SIZE_CAP."""

    __slots__ = ()

    def __new__(cls, n: int, mode: str = "all", level: int = 2):
        if n < 1:
            raise ValueError("size must be at least 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if level not in (0, 1, 2):
            raise ValueError("pruning level must be 0, 1 or 2")
        if level == 0 and n > LEVEL0_SIZE_CAP:
            raise ValueError(
                f"pruning level 0 is limited to n <= {LEVEL0_SIZE_CAP}")
        return super().__new__(cls, n, mode, level)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its result too
        return cls(*fields)


CONFIG_KEYS = set(SearchConfig._fields)
#: header keys of a job line, in the order format_job writes them
JOB_KEYS = ("n", "mode", "level", "index")


#: per-pairing search counters, in PairingRow, CSV and JSON column order
COUNTERS = ("nodes", "prune_orient", "prune_edge", "prune_genus",
            "prune_auto", "leaves")

#: the COUNTERS both kernels return; `_search` counts prune_auto itself
_KERNEL_COUNTERS = tuple(c for c in COUNTERS if c != "prune_auto")

#: glued pairs at which `_maps` cuts every map, and so the depth down to
#: which prefixes are filtered; only `_maps` reads it.  A constant, so
#: that the counters depend on neither the split depth nor the backend
AUTO_DEPTH = 5


class PairingRow(NamedTuple):
    """Counts and deduplicated signatures for one canonical pairing; the
    fields between `index` and the signatures are the COUNTERS."""

    index: int
    nodes: int
    prune_orient: int
    prune_edge: int
    prune_genus: int
    prune_auto: int
    leaves: int
    orient_sigs: tuple[str, ...]
    nonor_sigs: tuple[str, ...]

    @property
    def kept(self) -> int:
        return len(self.orient_sigs) + len(self.nonor_sigs)

    def counts(self) -> dict[str, int]:
        return {c: getattr(self, c) for c in COUNTERS}


def _totals(rows) -> dict[str, int]:
    """Each of the COUNTERS summed over `rows`."""
    return {c: sum(getattr(r, c) for r in rows) for c in COUNTERS}


#: a split job's id: its pairing index and gluing prefix
JobId = tuple[int, tuple[int, ...]]
#: a symmetry map of `_branch_maps`: one (source pair, image table) step
#: per position
Map = tuple[tuple[int, bytes], ...]


class CensusResult(NamedTuple):
    """Per-pairing rows of a census or part of one.  `jobs` holds the ids
    of the split jobs the result covers; it takes no part in equality, so
    censuses split at different depths compare equal."""

    config: SearchConfig
    rows: tuple[PairingRow, ...]
    jobs: tuple[JobId, ...] = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, CensusResult) and self[:2] == other[:2]

    def __ne__(self, other) -> bool:  # tuple's own != would compare jobs
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    @property
    def total(self) -> int:
        return sum(r.kept for r in self.rows)

    @property
    def orientable(self) -> int:
        return sum(len(r.orient_sigs) for r in self.rows)

    @property
    def nonorientable(self) -> int:
        return sum(len(r.nonor_sigs) for r in self.rows)

    @property
    def nodes(self) -> int:
        return sum(r.nodes for r in self.rows)

    def counts(self) -> dict[str, int]:
        return _totals(self.rows)

    def signatures(self) -> list[str]:
        out: list[str] = []
        for r in self.rows:
            out.extend(r.orient_sigs)
            out.extend(r.nonor_sigs)
        out.sort()
        return out


class _Job(NamedTuple):
    config: SearchConfig
    pairing_index: int
    pairing: tuple[int, ...]
    prefix: tuple[int, ...]


class JobDescriptor(_Job):
    """A replayable slice of the search: pairing plus gluing prefix.  Its
    index, pairing size, prefix length and gluings are checked when built."""

    __slots__ = ()

    def __new__(cls, config: SearchConfig, pairing_index: int, pairing, prefix):
        pairing, prefix = tuple(pairing), tuple(prefix)
        if pairing_index < 0:
            raise ValueError(f"job index {pairing_index} is negative")
        if len(pairing) != 4 * config.n:
            raise ValueError("pairing size disagrees with config")
        pairs = pairs_of(pairing)
        if len(prefix) >= len(pairs):
            raise ValueError(f"corrupt job: a prefix of {len(prefix)} gluings "
                             f"leaves none of the pairing's {len(pairs)} pairs open")
        for k, ((s, p), pi) in enumerate(zip(pairs, prefix)):
            if pi not in GLUING_PERMS[s % 4][p % 4]:
                raise ValueError(f"corrupt job: pair {k} permutation {pi} invalid")
        return super().__new__(cls, config, pairing_index, pairing, prefix)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its result too
        return cls(*fields)

    @property
    def id(self) -> JobId:
        return self.pairing_index, self.prefix


def _branch_maps(pairing: tuple[int, ...], autos: list[tuple[int, ...]],
                 depth: int) -> tuple[Map, ...]:
    """The pairing's automorphisms `autos` acting on gluing prefixes, cut
    to their first `depth` positions, each as one step per position.

    Map m sends gluing g to g' with g'[k] = table[g[src]] for the step
    (src, table) = m[k]: src is the pair whose image lands at position k,
    and table the image of each Perm4 index.  An automorphism a sends pair
    (s1, s2) to the pair with lower slot min(a(s1), a(s2)) and gluing pi
    to rho_T2 . pi . rho_T1^-1, inverted when a swaps the two slots, where
    rho_t(v) = 3 - a(4t + 3 - v) % 4 relabels the vertices of tetrahedron
    t (face f is opposite vertex 3 - f).  A map ends before the first
    position whose pair lands from `depth` or beyond, since no prefix
    that the maps compare decides it there.  Equal maps are kept once,
    and one that fixes every position it has is dropped.
    """
    pairs = pairs_of(pairing)
    depth = min(depth, len(pairs))
    pair_of = {s: k for k, pair in enumerate(pairs) for s in pair}
    fixed = bytes(range(24))
    maps = set()
    for a in autos:
        # rho_t of every tetrahedron t = s // 4; ~x & 3 is 3 - x % 4
        rho = [PERM4_INDEX[(~a[s + 3] & 3, ~a[s + 2] & 3, ~a[s + 1] & 3, ~a[s] & 3)]
               for s in range(0, len(a), 4)]
        m = []
        for low, _ in pairs[:depth]:
            k = pair_of[a.index(low)]  # the pair a carries onto this position
            if k >= depth:
                break
            s1, s2 = pairs[k]
            m.append((k, _image_table(rho[s1 >> 2], rho[s2 >> 2], a[s1] > a[s2])))
        if any(step != (k, fixed) for k, step in enumerate(m)):
            maps.add(tuple(m))
    return tuple(sorted(maps))


@functools.cache
def _image_table(rho1: int, rho2: int, swapped: bool) -> bytes:
    """Image of each Perm4 index pi under relabellings rho1 and rho2 of
    its two tetrahedra: rho2 . pi . rho1^-1, inverted when swapped."""
    back, ahead = PERM4_INV[rho1], PERM4_MUL[rho2]
    images = [ahead[PERM4_MUL[pi][back]] for pi in range(24)]
    return bytes([PERM4_INV[x] for x in images] if swapped else images)


def _ties(prefix: tuple[int, ...], ties: list) -> list | None:
    """Advance the maps still tied with a shorter prefix over `prefix`.

    A tie is a map and the first position it has not yet compared; the
    root ties are every map at position 0.  Positions are compared in
    order: a smaller image drops the prefix (None), a larger one or the
    end of the map discards the tie, and the tie stays parked where the
    position or its source pair lies beyond the prefix.  So a None
    verdict holds for every extension of the prefix, and a child of the
    prefix only advances the returned ties."""
    d = len(prefix)
    kept = []
    for m, at in ties:
        for at in range(at, len(m)):
            src, table = m[at]
            if at >= d or src >= d:
                kept.append((m, at))
                break
            image, own = table[prefix[src]], prefix[at]
            if image != own:
                if image < own:
                    return None
                break
    return kept


#: each pairing's maps from `_maps`, built once per process
_MAPS: dict[tuple[int, ...], tuple[Map, ...]] = {}


def _maps(pairing: tuple[int, ...], autos=None) -> tuple[Map, ...]:
    """The pairing's maps cut at AUTO_DEPTH, built on first use from its
    automorphisms `autos`, or from `automorphisms(pairing)` when None."""
    if pairing not in _MAPS:
        _MAPS[pairing] = _branch_maps(
            pairing, automorphisms(pairing) if autos is None else autos,
            AUTO_DEPTH)
    return _MAPS[pairing]


def _search(eng, config: SearchConfig, index: int, pairing: tuple[int, ...],
            prefix: tuple[int, ...], maps: tuple[Map, ...],
            cap: int) -> tuple[PairingRow, list]:
    """Search the tree of pairing `index` below `prefix`, filtered by the
    pairing's `maps`, down to `cap` glued pairs.  A prefix that a map
    sends to a smaller one raises ValueError.

    While an automorphism is tied with a prefix, its children come from a
    `depth_cap = d + 1` kernel call and only the least under the
    pairing's automorphisms go on, depth first; `prune_auto` counts the
    rest.  A tie ends with its map, so the maps alone set how deep the
    filter goes.  The whole subtree of a prefix that no automorphism is
    tied with goes to the kernel in one call.  Returns the row of
    counters and signatures, and the prefixes at `cap`.
    """
    ties = _ties(prefix, [(m, 0) for m in maps])
    if ties is None:
        raise ValueError("corrupt job: an automorphism of the pairing maps "
                         "the prefix to a smaller one")
    count = dict.fromkeys(COUNTERS, 0)
    orient: set[str] = set()
    nonor: set[str] = set()
    frontier: list[tuple[int, ...]] = []

    def expand(p: tuple[int, ...], ties: list) -> None:
        if len(p) == cap:
            frontier.append(p)
            return
        raw = eng.search_pairing(config.n, config.mode, config.level, 0, pairing,
                                 prefix=p, depth_cap=len(p) + 1 if ties else cap)
        for c in _KERNEL_COUNTERS:
            count[c] += raw[c]
        orient.update(raw["orient_sigs"])
        nonor.update(raw["nonor_sigs"])
        if not ties:  # the filter drops nothing below p
            frontier.extend(raw["frontier"])
            return
        for child in raw["frontier"]:
            child_ties = _ties(child, ties)
            if child_ties is None:
                count["prune_auto"] += 1
            else:
                expand(child, child_ties)

    expand(prefix, ties)
    return PairingRow(index, **count, orient_sigs=tuple(sorted(orient)),
                      nonor_sigs=tuple(sorted(nonor))), frontier


def enumerate_census(config: SearchConfig, backend: str | None = None) -> CensusResult:
    """Full census at the configured size: split at depth 0 (one job per
    canonical pairing), run every job, merge."""
    jobs, partial = split_jobs(config, 0, backend)
    return merge([partial, *(run_job(job, backend) for job in jobs)], jobs)


def split_jobs(config: SearchConfig, depth: int,
               backend: str | None = None) -> tuple[list[JobDescriptor], CensusResult]:
    """Cut the search at `depth` glued pairs.

    Returns the surviving frontier as job descriptors plus a partial
    result holding everything decided above the frontier (attempt counts,
    the automorphism filter's drops, and leaves in case depth exceeds the
    tree height).  Merging the
    partial with all job results reproduces the census exactly, at
    any depth; the jobs alone already carry every emitted triangulation.
    """
    if depth < 0:
        raise ValueError("split depth must be nonnegative")
    eng = load_backend(backend)
    jobs: list[JobDescriptor] = []
    rows = []
    for index, (pairing, autos) in enumerate(enumerate_pairings(config.n)):
        row, frontier = _search(eng, config, index, pairing, (),
                                _maps(pairing, autos), depth)
        rows.append(row)
        jobs.extend(JobDescriptor(config, index, pairing, prefix)
                    for prefix in frontier)
    return jobs, CensusResult(config, tuple(rows))


def run_job(job: JobDescriptor, backend: str | None = None) -> CensusResult:
    """Replay the job's prefix and search its subtree.

    Counts cover only the subtree below the prefix, filtered as far as
    the pairing's maps reach.  A pairing that is not canonical or not
    connected, a prefix that fails its own pruning checks, and one that
    an automorphism maps to a smaller prefix raise ValueError.
    """
    eng = load_backend(backend)
    row, _ = _search(eng, job.config, job.pairing_index, job.pairing, job.prefix,
                     _maps(job.pairing), len(pairs_of(job.pairing)))
    return CensusResult(job.config, (row,), (job.id,))


def _name_jobs(ids: list[JobId], limit: int = 5) -> str:
    names = [f"pairing {index} prefix {','.join(map(str, prefix)) or '-'}"
             for index, prefix in ids[:limit]]
    more = f" and {len(ids) - limit} more" if len(ids) > limit else ""
    return "; ".join(names) + more


def merge(results: list[CensusResult], jobs: list[JobDescriptor]) -> CensusResult:
    """Exact union of the results of `jobs` and their split's partial
    result: counts add, signature sets union.

    Raises ValueError unless every job is covered by exactly one result,
    no result covers anything else, and at most one result, the split's
    partial, covers no job: a job list with one job inside another's
    subtree (parts of splits at two depths), a job covered twice, a job
    with no result, a result for a job not in the list, a second result
    with no job (the partial given twice) and a result's row for a
    pairing none of its jobs is in would each make the counts wrong.  A
    class held twice also raises: a triangulation fixes its face pairing
    and its orientability.  Signatures are compared as strings only.
    """
    if not results:
        raise ValueError("nothing to merge")
    config = results[0].config
    if any(x.config != config for x in (*results, *jobs)):
        raise ValueError("cannot merge results from different configurations")
    bare = sum(not res.jobs for res in results)
    if bare > 1:
        raise ValueError(f"{bare} results cover no job; only the split's "
                         "partial may")
    want = {job.id for job in jobs}
    nested = [(index, prefix) for index, prefix in want
              if any((index, prefix[:k]) in want for k in range(len(prefix)))]
    if nested:
        raise ValueError(f"job lies inside another job: {_name_jobs(sorted(nested))}")
    got: set[JobId] = set()
    for job in (job for res in results for job in res.jobs):
        if job in got:
            raise ValueError(f"job covered twice: {_name_jobs([job])}")
        got.add(job)
    missing = sorted(want - got)
    if missing:
        raise ValueError(f"{len(missing)} of {len(want)} jobs have no result: "
                         + _name_jobs(missing))
    extra = sorted(got - want)
    if extra:
        raise ValueError(f"{len(extra)} results cover jobs not in the jobs "
                         "file: " + _name_jobs(extra))
    by_index: dict[int, list[PairingRow]] = {}
    for res in results:
        covered = {index for index, _ in res.jobs}
        for row in res.rows:
            if covered and row.index not in covered:
                raise ValueError(f"a result holds a row for pairing {row.index},"
                                 " which none of its jobs is in")
            by_index.setdefault(row.index, []).append(row)
    rows = []
    for index in sorted(by_index):
        group = by_index[index]
        orient: set[str] = set()
        nonor: set[str] = set()
        for row in group:
            orient.update(row.orient_sigs)
            nonor.update(row.nonor_sigs)
        rows.append(PairingRow(index, **_totals(group),
                               orient_sigs=tuple(sorted(orient)),
                               nonor_sigs=tuple(sorted(nonor))))
    merged = CensusResult(config, tuple(rows), tuple(sorted(got)))
    # neighbours in the sorted classes: a list costs less than a set per class
    sigs = merged.signatures()
    twice = next((a for a, b in zip(sigs, islice(sigs, 1, None)) if a == b), None)
    if twice is not None:
        held = [r.index for r in rows for part in (r.orient_sigs, r.nonor_sigs)
                if twice in part]
        raise ValueError(f"class {twice} is held twice, by pairings "
                         f"{held[0]} and {held[1]}")
    return merged


def summary_line(result: CensusResult) -> str:
    c = result.config
    return (f"n={c.n} mode={c.mode} total={result.total} "
            f"orientable={result.orientable} "
            f"nonorientable={result.nonorientable} nodes={result.nodes}")


def stats_csv(result: CensusResult) -> str:
    lines = [",".join(("pairing_index", *COUNTERS, "kept"))]
    for r in result.rows:
        lines.append(",".join(map(str, (r.index, *r.counts().values(), r.kept))))
    return "\n".join(lines) + "\n"


def result_to_dict(result: CensusResult) -> dict:
    """JSON-friendly form, exact inverse of result_from_dict."""
    return {
        "config": result.config._asdict(),
        "rows": [[r.index, *r.counts().values(), list(r.orient_sigs),
                  list(r.nonor_sigs)] for r in result.rows],
        "jobs": [[index, list(prefix)] for index, prefix in result.jobs],
    }


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _is_list_of(xs, ok) -> bool:
    return type(xs) is list and all(map(ok, xs))


def _is_row(row) -> bool:
    """[index, *COUNTERS, orientable sigs, non-orientable sigs]"""
    return (type(row) is list and len(row) == len(COUNTERS) + 3
            and all(map(_is_count, row[:-2]))
            and all(_is_list_of(col, lambda sig: type(sig) is str)
                    for col in row[-2:]))


def _is_job(job) -> bool:
    """[pairing index, gluing prefix]"""
    return (type(job) is list and len(job) == 2 and _is_count(job[0])
            and _is_list_of(job[1], _is_count))


def result_from_dict(data: dict) -> CensusResult:
    """Inverse of result_to_dict.  A shape it could not have written
    raises ValueError before any of it is used; signatures are only
    checked to be strings."""
    if not isinstance(data, dict) or set(data) != {"config", "rows", "jobs"}:
        got = f"keys {sorted(data)}" if isinstance(data, dict) else type(data).__name__
        raise ValueError("a result must be an object with keys ['config', "
                         f"'jobs', 'rows'], not {got}")
    config = data["config"]
    keys = set(config) if isinstance(config, dict) else set()
    if keys != CONFIG_KEYS:
        raise ValueError(f"result config has keys {sorted(keys)}, "
                         f"expected {sorted(CONFIG_KEYS)}")
    if not (_is_count(config["n"]) and _is_count(config["level"])
            and type(config["mode"]) is str):
        raise ValueError(f"malformed result: config {config}")
    if not _is_list_of(data["rows"], _is_row):
        raise ValueError(f"malformed result: rows must have {len(COUNTERS) + 3}"
                         f" columns, {len(COUNTERS) + 1} non-negative integers"
                         " and two lists of signatures")
    indexes = [row[0] for row in data["rows"]]
    if indexes != sorted(set(indexes)):
        raise ValueError("malformed result: row indexes must increase strictly")
    if not _is_list_of(data["jobs"], _is_job):
        raise ValueError("malformed result: jobs must be [index, prefix] "
                         "pairs of non-negative integers")
    rows = tuple(PairingRow(*ints, tuple(orient), tuple(nonor))
                 for *ints, orient, nonor in data["rows"])
    jobs = tuple((index, tuple(prefix)) for index, prefix in data["jobs"])
    return CensusResult(SearchConfig(**config), rows, jobs)


def format_job(job: JobDescriptor) -> str:
    c = job.config
    head = f"n={c.n} mode={c.mode} level={c.level} index={job.pairing_index}"
    toks = " ".join(f"{s}={p // 4}:{pi}"
                    for (s, p), pi in zip(pairs_of(job.pairing), job.prefix))
    return f"{head} | {format_pairing(job.pairing)} | {toks}"


def parse_job(line: str) -> JobDescriptor:
    """Inverse of `format_job`; the job refuses what no split writes."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise ValueError("job line must have config | pairing | prefix")
    head: dict[str, str] = {}
    for key, _, value in (tok.partition("=") for tok in parts[0].split()):
        if key in head:
            raise ValueError(f"job line repeats {key}=")
        head[key] = value
    for key in JOB_KEYS:
        if key not in head:
            raise ValueError(f"job line lacks {key}=")
    for key in head:
        if key not in JOB_KEYS:
            raise ValueError(f"job line has unknown key {key!r}")
    config = SearchConfig(int(head["n"]), head["mode"], int(head["level"]))
    _, pairing = parse_pairing(parts[1])
    toks = parts[2].split()
    for (s, p), tok in zip(pairs_of(pairing), toks):
        if tok.partition(":")[0] != f"{s}={p // 4}":
            raise ValueError(f"prefix token {tok!r} does not match the pairing")
    return JobDescriptor(config, int(head["index"]), pairing,
                         tuple(int(tok.partition(":")[2]) for tok in toks))
