"""Census orchestration: configuration, job splitting, merging, backends.

The per-pairing depth-first search lives in an engine module; `_engine`
is the compiled kernel and `_engine_py` the pure-Python twin with the
same contract.  Everything here is bookkeeping around those searches:
iterating canonical pairings, collecting per-pairing rows, splitting the
tree into replayable jobs, and merging partial results exactly.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields

from . import _engine_py
from .fpg import enumerate_pairings, format_pairing, parse_pairing
from .perms import GLUING_PERMS

MODES = ("all", "orientable", "nonorientable")

#: size cap for pruning level 0; the unpruned tree is only an oracle tier
LEVEL0_SIZE_CAP = 4


def load_backend(name: str | None = None):
    """Resolve an engine module: 'py', 'fast', or 'auto' (the default).

    `auto` prefers the compiled kernel and falls back to pure Python; the
    LINKCENSUS_BACKEND environment variable supplies the default name.
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
    return _engine_py


@dataclass(frozen=True)
class SearchConfig:
    """What to enumerate: size, orientability mode and pruning level;
    `force_level0` lifts the size gate on level 0.  Nothing else changes
    a census, so the kernels' positional `seed` is always passed 0."""

    n: int
    mode: str = "all"
    level: int = 2
    force_level0: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("size must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.level not in (0, 1, 2):
            raise ValueError("pruning level must be 0, 1 or 2")
        if self.level == 0 and self.n > LEVEL0_SIZE_CAP and not self.force_level0:
            raise ValueError(
                f"pruning level 0 is gated to n <= {LEVEL0_SIZE_CAP}; "
                "set force_level0 to override"
            )


CONFIG_KEYS = {f.name for f in fields(SearchConfig)}
#: header keys of a job line, in the order format_job writes them
JOB_KEYS = ("n", "mode", "level", "force_level0", "index")


@dataclass(frozen=True)
class PairingRow:
    """Counts and deduplicated signatures for one canonical pairing."""

    index: int
    nodes: int
    prune_orient: int
    prune_edge: int
    prune_genus: int
    leaves: int
    orient_sigs: tuple[str, ...]
    nonor_sigs: tuple[str, ...]

    @property
    def kept(self) -> int:
        return len(self.orient_sigs) + len(self.nonor_sigs)


@dataclass(frozen=True)
class CensusResult:
    config: SearchConfig
    rows: tuple[PairingRow, ...]

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

    @property
    def prune_orient(self) -> int:
        return sum(r.prune_orient for r in self.rows)

    @property
    def prune_edge(self) -> int:
        return sum(r.prune_edge for r in self.rows)

    @property
    def prune_genus(self) -> int:
        return sum(r.prune_genus for r in self.rows)

    @property
    def leaves(self) -> int:
        return sum(r.leaves for r in self.rows)

    def signatures(self) -> list[str]:
        out: list[str] = []
        for r in self.rows:
            out.extend(r.orient_sigs)
            out.extend(r.nonor_sigs)
        out.sort()
        return out


@dataclass(frozen=True)
class JobDescriptor:
    """A replayable slice of the search: pairing plus gluing prefix."""

    config: SearchConfig
    pairing_index: int
    pairing: tuple[int, ...]
    prefix: tuple[int, ...]


def _row_from_raw(index: int, raw: dict) -> PairingRow:
    return PairingRow(
        index=index,
        nodes=raw["nodes"],
        prune_orient=raw["prune_orient"],
        prune_edge=raw["prune_edge"],
        prune_genus=raw["prune_genus"],
        leaves=raw["leaves"],
        orient_sigs=tuple(raw["orient_sigs"]),
        nonor_sigs=tuple(raw["nonor_sigs"]),
    )


def enumerate_census(config: SearchConfig, backend: str | None = None) -> CensusResult:
    """Full census at the configured size: every canonical pairing in order."""
    eng = load_backend(backend)
    rows = []
    for index, pairing in enumerate(enumerate_pairings(config.n)):
        raw = eng.search_pairing(config.n, config.mode, config.level,
                                 0, pairing)
        rows.append(_row_from_raw(index, raw))
    return CensusResult(config, tuple(rows))


def split_jobs(config: SearchConfig, depth: int,
               backend: str | None = None) -> tuple[list[JobDescriptor], CensusResult]:
    """Cut the search at `depth` glued pairs.

    Returns the surviving frontier as job descriptors plus a partial
    result holding everything decided above the frontier (attempt counts,
    and leaves in case depth exceeds the tree height).  Merging the
    partial with all job results reproduces the monolithic census
    exactly; the jobs alone already carry every emitted triangulation.
    """
    if depth < 0:
        raise ValueError("split depth must be nonnegative")
    eng = load_backend(backend)
    jobs: list[JobDescriptor] = []
    rows = []
    for index, pairing in enumerate(enumerate_pairings(config.n)):
        raw = eng.search_pairing(config.n, config.mode, config.level,
                                 0, pairing, depth_cap=depth)
        rows.append(_row_from_raw(index, raw))
        jobs.extend(JobDescriptor(config, index, pairing, prefix)
                    for prefix in raw["frontier"])
    return jobs, CensusResult(config, tuple(rows))


def run_job(job: JobDescriptor, backend: str | None = None) -> CensusResult:
    """Replay the job's prefix and search its subtree.

    Counts cover only the subtree below the prefix; a prefix that fails
    its own pruning checks did not come from split_jobs and raises
    ValueError.
    """
    eng = load_backend(backend)
    raw = eng.search_pairing(job.config.n, job.config.mode, job.config.level,
                             0, job.pairing, prefix=job.prefix)
    return CensusResult(job.config, (_row_from_raw(job.pairing_index, raw),))


def merge(results: list[CensusResult]) -> CensusResult:
    """Exact union of partial results: counts add, signature sets union."""
    if not results:
        raise ValueError("nothing to merge")
    config = results[0].config
    if any(r.config != config for r in results):
        raise ValueError("cannot merge results from different configurations")
    by_index: dict[int, list[PairingRow]] = {}
    for res in results:
        for row in res.rows:
            by_index.setdefault(row.index, []).append(row)
    rows = []
    for index in sorted(by_index):
        group = by_index[index]
        orient: set[str] = set()
        nonor: set[str] = set()
        for row in group:
            orient.update(row.orient_sigs)
            nonor.update(row.nonor_sigs)
        rows.append(PairingRow(
            index=index,
            nodes=sum(r.nodes for r in group),
            prune_orient=sum(r.prune_orient for r in group),
            prune_edge=sum(r.prune_edge for r in group),
            prune_genus=sum(r.prune_genus for r in group),
            leaves=sum(r.leaves for r in group),
            orient_sigs=tuple(sorted(orient)),
            nonor_sigs=tuple(sorted(nonor)),
        ))
    return CensusResult(config, tuple(rows))


def summary_line(result: CensusResult) -> str:
    c = result.config
    return (f"n={c.n} mode={c.mode} total={result.total} "
            f"orientable={result.orientable} "
            f"nonorientable={result.nonorientable} nodes={result.nodes}")


def stats_csv(result: CensusResult) -> str:
    lines = ["pairing_index,nodes,prune_orient,prune_edge,prune_genus,leaves,kept"]
    for r in result.rows:
        lines.append(f"{r.index},{r.nodes},{r.prune_orient},{r.prune_edge},"
                     f"{r.prune_genus},{r.leaves},{r.kept}")
    return "\n".join(lines) + "\n"


def result_to_dict(result: CensusResult) -> dict:
    """JSON-friendly form, exact inverse of result_from_dict."""
    return {
        "config": asdict(result.config),
        "rows": [
            [r.index, r.nodes, r.prune_orient, r.prune_edge, r.prune_genus,
             r.leaves, list(r.orient_sigs), list(r.nonor_sigs)]
            for r in result.rows
        ],
    }


def result_from_dict(data: dict) -> CensusResult:
    if not isinstance(data, dict) or set(data) != {"config", "rows"}:
        raise ValueError("a result must be an object with config and rows")
    keys = set(data["config"])
    if keys != CONFIG_KEYS:
        raise ValueError(f"result config has keys {sorted(keys)}, "
                         f"expected {sorted(CONFIG_KEYS)}")
    if any(len(row) != 8 for row in data["rows"]):
        raise ValueError("result rows must have 8 columns")
    rows = tuple(PairingRow(*row[:6], tuple(row[6]), tuple(row[7]))
                 for row in data["rows"])
    return CensusResult(SearchConfig(**data["config"]), rows)


def format_job(job: JobDescriptor) -> str:
    c = job.config
    head = (f"n={c.n} mode={c.mode} level={c.level} "
            f"force_level0={int(c.force_level0)} index={job.pairing_index}")
    pairs = [(s, p) for s, p in enumerate(job.pairing) if s < p]
    toks = " ".join(f"{pairs[k][0]}={job.pairing[pairs[k][0]] // 4}:{pi}"
                    for k, pi in enumerate(job.prefix))
    return f"{head} | {format_pairing(job.pairing)} | {toks}"


def parse_job(line: str) -> JobDescriptor:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise ValueError("job line must have config | pairing | prefix")
    head = dict(tok.partition("=")[::2] for tok in parts[0].split())
    for key in JOB_KEYS:
        if key not in head:
            raise ValueError(f"job line lacks {key}=")
    for key in head:
        if key not in JOB_KEYS:
            raise ValueError(f"job line has unknown key {key!r}")
    if head["force_level0"] not in ("0", "1"):
        raise ValueError("job line force_level0 must be 0 or 1")
    config = SearchConfig(n=int(head["n"]), mode=head["mode"],
                          level=int(head["level"]),
                          force_level0=head["force_level0"] == "1")
    index = int(head["index"])
    pn, pairing = parse_pairing(parts[1])
    if pn != config.n:
        raise ValueError("pairing size disagrees with config")
    pairs = [(s, p) for s, p in enumerate(pairing) if s < p]
    prefix = []
    for k, tok in enumerate(parts[2].split()):
        slot, _, rest = tok.partition("=")
        tet, _, pi = rest.partition(":")
        s1, pi = int(slot), int(pi)
        if s1 != pairs[k][0] or int(tet) != pairing[s1] // 4:
            raise ValueError(f"prefix token {tok!r} does not match the pairing")
        if pi not in GLUING_PERMS[s1 % 4][pairing[s1] % 4]:
            raise ValueError(f"prefix token {tok!r} is not a face gluing")
        prefix.append(pi)
    return JobDescriptor(config, index, pairing, tuple(prefix))
