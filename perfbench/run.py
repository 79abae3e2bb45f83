"""Census benchmark for linkcensus: workloads against the compiled kernel.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-n5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run builds the kernel from the checked-out `src/linkcensus/_engine.c`
(after checking that its embedded source lines match `_engine.pyx`),
then repeats the workload for `--seconds` seconds (default: `run_seconds`
in BENCHMARK.json), checks every repetition's output against the
published census counts and a recorded digest, and prints medians.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced repetitions with repetitions under `tracer.py` and
reports per-layer metrics taken from the spans.  The last line of
standard output is one JSON object.  `--smoke` runs the three workload
shapes at small sizes, traced and untraced, and checks the spans and the
metric names; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

TRACER = Path(__file__).resolve().parent / "tracer.py"
SRC = Path("src") / "linkcensus"
ENGINE_C = SRC / "_engine.c"
ENGINE_PYX = SRC / "_engine.pyx"
BUILD = Path(".bench_build") / "perfbench"

#: published census (total, orientable) per size, from the paper's table
PUBLISHED = {1: (4, 4), 2: (17, 16), 3: (81, 76), 4: (577, 532),
             5: (5184, 4807), 6: (57753, 52946), 7: (722765, 658474)}
#: canonical connected face pairings per size
PAIRINGS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 28, 6: 97, 7: 359}

SETUP_REPS = 3
TIMED_MIN_REPS = 3
#: concurrent run-job processes in the jobs workload (the box has 2 cores)
JOB_PROCS = 2
#: every child is killed once the run has taken this long
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # census | jobs | pairings
    size: int
    depth: int
    digest: str  # sha256 of the main output file


WORKLOADS = {w.name: w for w in (
    Workload("census-n5", "census", 5, 0,
             "1d5f3533787553f6850739f36c103d5d802128f5f2b6598e1f7defa486858210"),
    Workload("jobs-n5", "jobs", 5, 2,
             "c3c42e1c7ac6e089d4b6f657cb02b8236033242d6bd122f7a05d25371f19a828"),
    Workload("pairings-n6", "pairings", 6, 0,
             "719cfb52f6526cfc28c12a728c7e1349ab9033473c72f145800b6b9785ae9fd5"),
)}

SMOKE = (
    Workload("census-n4", "census", 4, 0,
             "6cffe81f6dc48fdb2bfdd18909194e68aa50e45b245f77cdcd143635b9b13f98"),
    Workload("jobs-n4", "jobs", 4, 1,
             "fa7df2ebd70ed7c7d81b50afdcdfcbb4a6b57f83388b0b974eece6c70a7353da"),
    Workload("pairings-n5", "pairings", 5, 0,
             "0ec7526a94329312b15b552670645242e1cc995d0e49eb10758b5dd4c7f7d215"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked; reported without a result."""


# ---------------------------------------------------------------- set-up

_LINE_TAG = re.compile(r'^\s*/\* "linkcensus/_engine\.pyx":(\d+)$')
_MARK = "# <<<<<<<<<<<<<<"


def check_provenance() -> int:
    """Check every `"linkcensus/_engine.pyx":N` block of _engine.c against the .pyx.

    Cython quotes a few source lines around line N in a comment and marks
    line N; a block whose lines differ from the .pyx means the C file is
    stale.  Returns the number of blocks checked.
    """
    c_lines = ENGINE_C.read_text().splitlines()
    pyx = ENGINE_PYX.read_text().splitlines()
    blocks = 0
    for i, line in enumerate(c_lines):
        m = _LINE_TAG.match(line)
        if not m:
            continue
        blocks += 1
        n = int(m.group(1))
        quoted = []
        for body in c_lines[i + 1:]:
            if body.strip().startswith("*/"):
                break
            quoted.append(body[3:] if body.startswith(" * ") else body[2:])
        marked = [k for k, q in enumerate(quoted) if q.endswith(_MARK)]
        if len(marked) != 1:
            raise BenchError(f"{ENGINE_C}:{i + 1}: no single marked line for "
                             f"_engine.pyx:{n}")
        for k, q in enumerate(quoted):
            if k == marked[0]:
                q = q[:-len(_MARK)]
            src_no = n - marked[0] + k
            if not 1 <= src_no <= len(pyx) or q.rstrip() != pyx[src_no - 1].rstrip():
                raise BenchError(f"{ENGINE_C} is stale: its copy of _engine.pyx:"
                                 f"{src_no} differs from {ENGINE_PYX}")
    if blocks == 0:
        raise BenchError(f"{ENGINE_C} embeds no _engine.pyx source lines")
    return blocks


def compile_commands(dest: Path) -> list[list[str]]:
    """Compile and link _engine.c with the interpreter's own extension flags."""
    cfg = sysconfig.get_config_var
    obj = dest / "_engine.o"
    lib = dest / "linkcensus" / f"_engine{cfg('EXT_SUFFIX')}"
    return [
        [*shlex.split(cfg("CC")), *shlex.split(cfg("CFLAGS")),
         *shlex.split(cfg("CCSHARED")), f"-I{cfg('INCLUDEPY')}",
         "-c", str(ENGINE_C), "-o", str(obj)],
        [*shlex.split(cfg("LDSHARED")), str(obj), "-o", str(lib)],
    ]


def program_env(install: Path) -> dict:
    """Environment of every process started on a build in `install`.

    TMPDIR keeps the compiler's and the program's temporary files inside
    the checkout.
    """
    return dict(os.environ, PYTHONPATH=str(install.resolve()),
                TMPDIR=str((install / "tmp").resolve()),
                LINKCENSUS_BACKEND="fast")


def set_up(dest: Path) -> float:
    """Build an installable copy of the package in `dest`; return seconds.

    Copies the Python modules, compiles the kernel and imports the
    package with it in a fresh interpreter, which must report the
    compiled backend loaded from `dest`.
    """
    if dest.exists():
        shutil.rmtree(dest)
    t0 = time.perf_counter()
    shutil.copytree(SRC, dest / "linkcensus",
                    ignore=lambda _d, names: [n for n in names
                                              if not n.endswith(".py")])
    (dest / "tmp").mkdir()
    env = program_env(dest)
    for cmd in compile_commands(dest):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise BenchError(f"kernel build failed: {shlex.join(cmd)}\n"
                             f"{proc.stderr}")
    probe = ("import linkcensus, linkcensus.search as s; e = s.load_backend(); "
             "print(e.BACKEND_NAME, e.__file__, linkcensus.__file__)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"importing the built package failed:\n{proc.stderr}")
    backend, *files = proc.stdout.split()
    if backend != "fast":
        raise BenchError(f"backend is {backend!r}, not 'fast'")
    root = str(dest.resolve())
    if not all(f.startswith(root) for f in files):
        raise BenchError(f"linkcensus was not imported from the build: {files}")
    return elapsed


# ------------------------------------------------------------ processes

@dataclass
class Proc:
    args: list[str]
    code: int = -1
    cpu_s: float = 0.0
    rss_kb: int = 0
    stdout: str = ""
    stderr: str = ""


def run_phase(procs: list[Proc], first: int, install: Path, workdir: Path,
              deadline: float, trace: tuple[str, str] | None) -> float:
    """Start every process of one phase together, wait for all; return wall.

    Per-process CPU time and peak RSS come from wait4.  Process files are
    numbered from `first` within the repetition.  Under `trace` (trace id,
    root span id) each process runs under tracer.py and writes its spans
    to `spans-<number>.json`.
    """
    env = program_env(install)
    if trace:
        env["PERFBENCH_TRACE"] = f"{trace[0]}:{trace[1]}"
    popens = []
    t0 = time.perf_counter()
    try:
        for k, p in enumerate(procs, first):
            if trace:
                argv = [sys.executable, str(TRACER), f"spans-{k}.json", *p.args]
            else:
                argv = [sys.executable, "-m", "linkcensus.cli", *p.args]
            with open(workdir / f"out-{k}.txt", "w") as out, \
                    open(workdir / f"err-{k}.txt", "w") as err:
                popens.append(subprocess.Popen(argv, env=env, stdout=out,
                                               stderr=err, cwd=workdir))
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                 lambda: [q.kill() for q in popens])
        killer.start()
        try:
            for q, p in zip(popens, procs):
                _, status, usage = os.wait4(q.pid, 0)
                q.returncode = p.code = os.waitstatus_to_exitcode(status)
                p.cpu_s = usage.ru_utime + usage.ru_stime
                p.rss_kb = usage.ru_maxrss
        finally:
            killer.cancel()
    finally:
        for q in popens:
            if q.returncode is None:
                q.kill()
                q.wait()
    wall = time.perf_counter() - t0
    for k, p in enumerate(procs, first):
        p.stdout = (workdir / f"out-{k}.txt").read_text()
        p.stderr = (workdir / f"err-{k}.txt").read_text()
    return wall


# ----------------------------------------------------------- repetitions

@dataclass
class Rep:
    wall_s: float = 0.0
    parallel_s: float = 0.0
    procs: list[Proc] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    job_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_kb for p in self.procs) / 1024


def parse_summary(line: str) -> dict:
    return {k: int(v) for k, v in (t.split("=", 1) for t in line.split())
            if v.isdigit()}


def deal_jobs(jobs_file: Path, seed: int, parts: int) -> list[list[str]]:
    """Shuffle the job lines by `seed` and deal them round robin."""
    lines = [ln for ln in jobs_file.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    random.Random(seed).shuffle(lines)
    return [lines[k::parts] for k in range(parts)]


def run_rep(w: Workload, install: Path, workdir: Path, seed: int,
            deadline: float, trace_id: str | None = None) -> Rep:
    """Run one repetition of the workload and check its output."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rep = Rep()
    trace = (trace_id, "root") if trace_id else None
    start_ns = time.monotonic_ns()

    def phase(*arg_lists: list[str]) -> list[Proc]:
        procs = [Proc(list(a)) for a in arg_lists]
        wall = run_phase(procs, len(rep.procs), install, workdir, deadline, trace)
        rep.wall_s += wall
        rep.procs.extend(procs)
        return procs

    size = str(w.size)
    if w.kind == "census":
        (last,) = phase(["census", "--size", size, "--sigs", "--out", "out.txt"])
    elif w.kind == "pairings":
        (last,) = phase(["fpg", "--size", size, "--out", "out.txt"])
    else:
        phase(["jobs", "--size", size, "--depth", str(w.depth), "--out", "jobs.txt"])
        results = []
        if (workdir / "jobs.txt").exists():
            for k, part in enumerate(deal_jobs(workdir / "jobs.txt", seed, JOB_PROCS)):
                (workdir / f"part-{k}.txt").write_text("".join(ln + "\n" for ln in part))
                results.append(f"result-{k}.json")
        before = rep.wall_s
        phase(*(["run-job", "--in", f"part-{k}.txt", "--out", r]
                for k, r in enumerate(results)))
        rep.parallel_s = rep.wall_s - before
        (last,) = phase(["merge", *results, "--jobs", "jobs.txt", "--out", "out.txt"])
        rep.job_bytes = sum(f.stat().st_size for f in
                            [workdir / "jobs.txt", *(workdir / r for r in results)]
                            if f.exists())
    end_ns = time.monotonic_ns()

    for p in rep.procs:
        if p.code != 0:
            rep.problems.append(f"{p.args[0]} exited {p.code}")
        if any(ln.startswith("error:") for ln in p.stderr.splitlines()):
            rep.problems.append(f"{p.args[0]}: {p.stderr.strip()}")
    out = workdir / "out.txt"
    data = out.read_bytes() if out.exists() else b""
    if w.kind == "pairings":
        count = data.count(b"\n")
        if count != PAIRINGS[w.size]:
            rep.problems.append(f"{count} pairings, expected {PAIRINGS[w.size]}")
    else:
        lines = last.stdout.splitlines()
        rep.summary = parse_summary(lines[-1]) if lines else {}
        total, orientable = PUBLISHED[w.size]
        want = {"total": total, "orientable": orientable,
                "nonorientable": total - orientable}
        got = {k: rep.summary.get(k) for k in want}
        if got != want:
            rep.problems.append(f"census counts {got}, published {want}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != w.digest:
        rep.problems.append(f"output digest {digest}, recorded {w.digest}")

    if trace_id:
        rep.spans = [{"trace": trace_id, "id": "root", "parent": None,
                      "name": "bench.workload", "start": start_ns,
                      "end": end_ns, "attrs": {}}]
        for f in sorted(workdir.glob("spans-*.json")):
            rep.spans.extend(json.loads(f.read_text()))
    return rep


# ---------------------------------------------------------------- spans

def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def check_spans(spans: list[dict], sequential: bool) -> list[str]:
    """Nesting, non-negative self times, and self times adding up.

    Within one process calls are sequential, so the self times of a
    `cli.main` subtree add up to its duration; when the workload runs
    one process at a time, all self times add up to the traced wall.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or len(by_id) != len(spans):
        return [f"{len(roots)} root spans, {len(spans) - len(by_id)} duplicate ids"]
    if len({s["trace"] for s in spans}) != 1:
        problems.append("spans carry more than one trace id")
    selfs = self_times(spans)
    subtree_self: dict[str, int] = {}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id.get(s["parent"])
            if parent is None:
                problems.append(f"{s['name']} has unknown parent {s['parent']}")
                continue
            if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
                problems.append(f"{s['name']} is not inside {parent['name']}")
        if selfs[s["id"]] < 0:
            problems.append(f"{s['name']} has negative self time")
        top = s
        while top["name"] != "cli.main" and top["parent"] in by_id:
            top = by_id[top["parent"]]
        if top["name"] == "cli.main":
            subtree_self[top["id"]] = subtree_self.get(top["id"], 0) + selfs[s["id"]]
    for sid, total in subtree_self.items():
        main = by_id[sid]
        if total != main["end"] - main["start"]:
            problems.append(f"self times of process span {sid} add up to {total}"
                            f" ns, not {main['end'] - main['start']} ns")
    if sequential:
        wall = roots[0]["end"] - roots[0]["start"]
        if sum(selfs.values()) != wall:
            problems.append(f"self times add up to {sum(selfs.values())} ns, "
                            f"traced wall is {wall} ns")
    return problems


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer counts and self times of one traced repetition."""
    spans = rep.spans
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def self_s(*names):
        return sum(selfs[s["id"]] for s in named(*names)) / 1e9

    def dur_s(s):
        return (s["end"] - s["start"]) / 1e9

    fpg_names = ("fpg.enumerate_pairings", "fpg.is_canonical", "fpg.is_connected")
    pairings = sum(s["attrs"]["items"] for s in named("fpg.enumerate_pairings"))
    checks = len(named("fpg.is_canonical"))
    calls = named("engine.search_pairing")
    engine = {k: sum(s["attrs"].get(k, 0) for s in calls) for k in
              ("nodes", "leaves", "kept", "prune_orient", "prune_edge",
               "prune_genus")}
    engine_busy = self_s("engine.search_pairing")
    jobs = named("search.run_job")
    return {
        "fpg.busy_s": self_s(*fpg_names),
        "fpg.pairings": pairings,
        "fpg.canonical_checks": checks,
        "fpg.accept_ratio": pairings / checks if checks else 0.0,
        "engine.calls": len(calls),
        "engine.busy_s": engine_busy,
        "engine.max_call_s": max(map(dur_s, calls), default=0.0),
        **{f"engine.{k}": v for k, v in engine.items()},
        "engine.nodes_per_s": engine["nodes"] / engine_busy if engine_busy else 0.0,
        "engine.kept_per_leaf": (engine["kept"] / engine["leaves"]
                                 if engine["leaves"] else 0.0),
        "search.split_s": self_s("search.split_jobs"),
        "search.jobs": len(jobs),
        "search.job_max_s": max(map(dur_s, jobs), default=0.0),
        "search.parallel_eff": (sum(map(dur_s, jobs)) / (JOB_PROCS * rep.parallel_s)
                                if rep.parallel_s else 0.0),
        "search.parse_s": self_s("search.parse_job", "search.result_from_dict"),
        "search.format_s": self_s("search.format_job", "search.result_to_dict"),
        "search.merge_s": self_s("search.merge"),
        "search.bytes": rep.job_bytes,
        "core.tables": len(named("core.serialize")),
        "core.output_s": self_s("core.decode_signature", "core.serialize"),
        "cli.self_s": self_s("cli.main"),
    }


# -------------------------------------------------------------- running

def measure(w: Workload, install: Path, work: Path, seed: int, seconds: float,
            traced: bool, min_reps: int, deadline: float) -> tuple[list[Rep], list[Rep]]:
    """Repeat the workload until `seconds` have passed and `min_reps` ran.

    A traced run alternates untraced and traced repetitions, so both see
    the same machine conditions.  Returns (untraced, traced) repetitions.
    """
    plain: list[Rep] = []
    spanned: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        trace_next = traced and len(spanned) < len(plain)
        k = len(plain) + len(spanned)
        trace_id = f"{w.name}-{seed}-{k}" if trace_next else None
        rep = run_rep(w, install, work / f"rep-{k}", seed, deadline, trace_id)
        (spanned if trace_next else plain).append(rep)
        if time.monotonic() >= deadline:
            break
        enough = len(plain) >= min_reps and (not traced or len(spanned) >= min_reps)
        if enough and time.perf_counter() - t0 >= seconds:
            break
    return plain, spanned


def check_accounting(w: Workload, install: Path, work: Path, seed: int,
                     deadline: float, spanned: list[Rep]) -> list[Rep]:
    """Exact-accounting cross-checks of a traced run.

    Each traced repetition's engine spans must add up to its own summary
    line's nodes.  The jobs workload's merged counts and nodes must equal
    a monolithic census of the same size run in the same invocation; that
    census is returned as an extra repetition.  Problems are added to the
    repetitions they concern.
    """
    if w.kind == "pairings":
        return []
    for rep in spanned:
        nodes = sum(s["attrs"].get("nodes", 0) for s in rep.spans
                    if s["name"] == "engine.search_pairing")
        if nodes != rep.summary.get("nodes"):
            rep.problems.append(f"engine spans add up to {nodes} nodes, summary "
                                f"says {rep.summary.get('nodes')}")
    if w.kind != "jobs":
        return []
    ref = next(c for c in (*WORKLOADS.values(), *SMOKE)
               if c.kind == "census" and c.size == w.size)
    census = run_rep(ref, install, work / "census", seed, deadline)
    keys = ("total", "orientable", "nonorientable", "nodes")
    mono = {k: census.summary.get(k) for k in keys}
    for rep in spanned:
        merged = {k: rep.summary.get(k) for k in keys}
        if merged != mono:
            rep.problems.append(f"merged jobs {merged} differ from census {mono}")
    return [census]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def first_line(cmd: list[str]) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return "unavailable"
    lines = proc.stdout.splitlines()
    return lines[0].strip() if proc.returncode == 0 and lines else "unavailable"


def environment(install: Path, load_start: float, setups: list[float]) -> dict:
    return {
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "engine_c_sha256": hashlib.sha256(ENGINE_C.read_bytes()).hexdigest(),
        "engine_pyx_sha256": hashlib.sha256(ENGINE_PYX.read_bytes()).hexdigest(),
        "compile": [shlex.join(c) for c in compile_commands(install)],
        "backend": "fast",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "gcc": first_line([shlex.split(sysconfig.get_config_var("CC"))[0],
                           "--version"]),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "setup_s_samples": setups,
    }


def load_spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def end_to_end(plain: list[Rep], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": median([r.wall_s for r in plain]),
        "cpu_s": median([r.cpu_s for r in plain]),
        "peak_rss_mb": median([r.peak_rss_mb for r in plain]),
        "setup_s": median(setups),
    }


def per_layer(plain: list[Rep], spanned: list[Rep]) -> dict[str, float]:
    per_rep = [layer_metrics(r) for r in spanned]
    values = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
    untraced = median([r.wall_s for r in plain])
    values["trace.overhead"] = median([r.wall_s for r in spanned]) / untraced - 1
    return values


def report(names: list[dict], values: dict[str, float], samples: int) -> dict:
    metrics = {}
    for m in names:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<22} {v:>16.6g} {m['unit']:<6} (median of {samples})")
    return metrics


def print_samples(plain: list[Rep]) -> None:
    for name in ("wall_s", "cpu_s"):
        values = " ".join(f"{getattr(r, name):.4f}" for r in plain)
        print(f"  samples {name}: {values}")


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 work: Path) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    load_start = os.getloadavg()[0]
    blocks = check_provenance()
    setups = [set_up(work / f"setup-{k}") for k in range(1 if traced else SETUP_REPS)]
    install = work / f"setup-{len(setups) - 1}"
    print(f"{w.name}: kernel built from {ENGINE_C} ({blocks} embedded "
          f"_engine.pyx lines match); set-up {len(setups)}x")
    plain, spanned = measure(w, install, work, seed, seconds, traced,
                             TIMED_MIN_REPS, deadline)
    reps = plain + spanned
    if traced:
        reps += check_accounting(w, install, work, seed, deadline, spanned)
    failed = sum(1 for r in reps if r.problems)
    spec = load_spec()
    print(f"{w.name}: seed {seed}, {len(reps)} repetitions, {failed} failed, "
          f"fail_ratio {failed / len(reps):.6g} (ratio)")
    if traced:
        metrics = report(spec["per_layer"], per_layer(plain, spanned), len(spanned))
    else:
        metrics = report(spec["end_to_end"], end_to_end(plain, setups), len(plain))
        print_samples(plain)
    for p in dict.fromkeys(p for r in reps for p in r.problems):
        print(f"  problem: {p}")
    print("env " + json.dumps(environment(install, load_start, setups)))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_smoke(work: Path) -> int:
    """Small sizes of all three workload shapes, traced and untraced."""
    deadline = time.monotonic() + RUN_BUDGET_S
    check_provenance()
    setups = [set_up(work / "setup")]
    spec = load_spec()
    names = spec["end_to_end"] + spec["per_layer"]
    problems = []
    for w in SMOKE:
        plain, spanned = measure(w, work / "setup", work / w.name, 1, 0.0, True,
                                 1, deadline)
        reps = plain + spanned + check_accounting(w, work / "setup", work / w.name,
                                                  1, deadline, spanned)
        problems += [f"{w.name}: {p}" for r in reps for p in r.problems]
        for rep in spanned:
            problems += [f"{w.name}: {p}"
                         for p in check_spans(rep.spans, w.kind != "jobs")]
        print(f"{w.name}:")
        values = {**end_to_end(plain, setups), **per_layer(plain, spanned)}
        missing = [m["name"] for m in names if m["name"] not in values]
        problems += [f"{w.name}: metric {name} not emitted" for name in missing]
        report([m for m in names if m["name"] in values], values, 1)
    for p in problems:
        print(f"problem: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself at small sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    for path in (ENGINE_C, ENGINE_PYX, Path("BENCHMARK.json")):
        if not path.is_file():
            print(f"error: {path} not found; run from the root of a linkcensus "
                  "checkout", file=sys.stderr)
            return 2
    work = BUILD / f"run-{os.getpid()}"
    # exit through the finally clauses, which stop and reap every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.smoke:
            return run_smoke(work)
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        return run_workload(WORKLOADS[args.workload], args.seed, seconds,
                            bool(args.trace), work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
