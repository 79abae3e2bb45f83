"""Command-line surface.

Subcommands: census, fpg, jobs, run-job, merge, bench, validate, bound.
Every census runs as jobs: `census` runs one job per canonical pairing,
in process (or in a pool of `--threads` workers), and merges them;
`jobs`, `run-job` and `merge` do the same across separate processes, at
any split depth.  Each merge is given the jobs it covers (`merge` reads
them from the jobs file), so it counts every job exactly once.  Flag
conventions are shared across subcommands; `LINKCENSUS_BACKEND` picks
the engine, for `bench` too.  Exit codes: 0 success, 1 internal
contract violation (with a diagnostic on stderr), 2 usage error, 130
interrupted by Ctrl-C, 141 (silently) when the reader of stdout closes
it early, as a process killed by SIGPIPE would.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from math import factorial
from typing import TYPE_CHECKING

# serialize stays bound here for perfbench/tracer.py, which patches it
# by name (ROADMAP items 14 and 16)
from .core import ParseError, decode_signature, parse_table, serialize, signature_table
from .fpg import enumerate_pairings, format_pairing, graph_summary
from .search import (
    COUNTERS,
    LEVEL0_SIZE_CAP,
    MODES,
    CensusResult,
    SearchConfig,
    enumerate_census,
    format_job,
    load_backend,
    merge,
    parse_job,
    result_from_dict,
    result_to_dict,
    run_job,
    split_jobs,
    stats_csv,
    summary_line,
)

if TYPE_CHECKING:  # loading fractions slows every other command
    from fractions import Fraction


def _add_census_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--mode", choices=MODES, default="all")
    p.add_argument("--pruning", type=int, choices=(0, 1, 2), default=2)


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return integer


def _config(args) -> SearchConfig:
    return SearchConfig(n=args.size, mode=args.mode, level=args.pruning)


def _destination(path: str | None) -> str:
    """Where `_output` writes `path`: 'stdout' for None or '-', else the
    file's real path."""
    return "stdout" if path is None or path == "-" else os.path.realpath(path)


def _output(path: str | None):
    """Stdout, left open, or the file opened for writing: see `_destination`."""
    if _destination(path) == "stdout":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


@contextlib.contextmanager
def _result_files(args):
    """Yield the `--out` file and the `--stats` one (or None), both opened
    before either is written: a bad path fails before any output."""
    with _output(args.out) as out, (_output(args.stats) if args.stats
                                    else contextlib.nullcontext()) as stats:
        yield out, stats


def _emit_result(result: CensusResult, args, out, stats) -> None:
    sigs = result.signatures()
    out.writelines(f"{line}\n" for line in
                   (sigs if args.sigs else map(signature_table, sigs)))
    if stats is not None:
        stats.write(stats_csv(result))
    print(summary_line(result))


def _run_census(config: SearchConfig, threads: int) -> CensusResult:
    jobs, partial = split_jobs(config, 0)
    if threads > 1:
        # imported here: loading multiprocessing slows every other command
        from concurrent.futures import ProcessPoolExecutor

        # workers leave Ctrl-C to the parent, which cancels the queued
        # jobs; they start with it blocked, so none dies of one in between
        pool = ProcessPoolExecutor(max_workers=threads,
                                   initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pending = pool.map(run_job, jobs)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            results = list(pending)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = [run_job(job) for job in jobs]
    return merge([partial, *results], jobs)


def _cmd_census(args) -> int:
    config = _config(args)
    # opened before the search: a bad path must not cost a whole census
    with _result_files(args) as (out, stats):
        _emit_result(_run_census(config, args.threads), args, out, stats)
    return 0


def _cmd_fpg(args) -> int:
    if args.size < 1:
        raise ValueError("size must be at least 1")
    with _output(args.out) as out:
        for fp, _ in enumerate_pairings(args.size):
            line = format_pairing(fp)
            if args.graphs:
                line += f" | {graph_summary(fp)}"
            out.write(line + "\n")
    return 0


def _cmd_jobs(args) -> int:
    config = _config(args)
    # opened before the split: a bad path must not cost the split
    with _output(args.out) as out:
        jobs, partial = split_jobs(config, args.depth)
        out.write("# partial " + json.dumps(result_to_dict(partial),
                                            separators=(",", ":")) + "\n")
        for job in jobs:
            out.write(format_job(job) + "\n")
        out.write(f"# jobs {len(jobs)}\n")
    return 0


def _read_lines(path: str | None) -> list[str]:
    if path is None or path == "-":
        return sys.stdin.read().splitlines()
    with open(path) as fh:
        return fh.read().splitlines()


def _cmd_run_job(args) -> int:
    jobs = [parse_job(line)
            for line in _job_lines(_read_lines(getattr(args, "in")))]
    if not jobs:
        raise ValueError("no job lines found")
    # opened before any job runs: a bad path must not cost the jobs
    with _output(args.out) as out:
        merged = merge([run_job(job) for job in jobs], jobs)
        json.dump(result_to_dict(merged), out, separators=(",", ":"))
        out.write("\n")
    return 0


def _job_lines(lines: list[str]) -> list[str]:
    return [line for line in map(str.strip, lines)
            if line and not line.startswith("#")]


def _cmd_merge(args) -> int:
    head, *lines = _read_lines(args.jobs) or [""]
    if not head.startswith("# partial "):
        raise ValueError(f"{args.jobs} has no partial-result header")
    texts = _job_lines(lines)
    trailer = lines[-1] if lines else ""
    if not trailer.startswith("# jobs "):
        raise ValueError(f"{args.jobs} holds {len(texts)} job lines and no "
                         "'# jobs N' trailer: it was cut short, or written "
                         "before jobs files had one; split the census again")
    if trailer != f"# jobs {len(texts)}":
        raise ValueError(f"{args.jobs} holds {len(texts)} job lines, but its "
                         f"trailer counts {trailer[len('# jobs '):]}")
    results = [result_from_dict(json.loads(head[len("# partial "):]))]
    jobs = [parse_job(line) for line in texts]
    for path in args.results:
        with open(path) as fh:
            results += (result_from_dict(json.loads(ln)) for ln in fh if ln.strip())
    result = merge(results, jobs)
    # each class once, after the union, and before any output is opened
    for row in result.rows:
        for sig in row.orient_sigs + row.nonor_sigs:
            try:
                if decode_signature(sig).n != result.config.n:
                    raise ParseError(f"size is not n={result.config.n}")
            except ParseError as e:
                raise ValueError(f"malformed result: signature {sig!r}: {e}") from None
    with _result_files(args) as (out, stats):
        _emit_result(result, args, out, stats)
    return 0


def _cmd_bench(args) -> int:
    levels = ([0] if args.size <= LEVEL0_SIZE_CAP else []) + [1, 2]
    configs = [SearchConfig(n=args.size, mode=args.mode, level=level)
               for level in levels]
    print(f"backend={load_backend().BACKEND_NAME}")
    print(",".join(("level", *COUNTERS, "kept", "seconds")))
    timed: dict[int, tuple[CensusResult, float]] = {}
    for config in configs:
        t0 = time.perf_counter()
        result = enumerate_census(config)
        wall = time.perf_counter() - t0
        timed[config.level] = (result, wall)
        print(",".join(map(str, (config.level, *result.counts().values(),
                                 result.total, f"{wall:.3f}"))))
    if len({tuple(sorted(res.signatures())) for res, _ in timed.values()}) != 1:
        raise AssertionError("pruning levels disagree on the census output")
    r1, w1 = timed[1]
    r2, w2 = timed[2]
    print(f"speedup level2-vs-level1: nodes {r1.nodes / r2.nodes:.2f}x "
          f"time {w1 / max(w2, 1e-9):.2f}x")
    return 0


def _cmd_validate(args) -> int:
    from .validate import defects

    bad_parse = False
    for k, line in enumerate(_read_lines(getattr(args, "in"))):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tri = parse_table(line)
        except ParseError as e:
            print(f"{k}: parse error: {e}")
            bad_parse = True
            continue
        if not tri.is_complete():
            open_faces = sum(1 for d in tri.adj if d == -1)
            print(f"{k}: incomplete ({open_faces} unglued faces)")
            continue
        reasons = "; ".join(defects(tri))
        print(f"{k}: not a 3-manifold: {reasons}" if reasons else f"{k}: manifold")
    return 1 if bad_parse else 0


def _sci(fr: Fraction) -> str:
    """Scientific notation from exact arithmetic, 5 significant digits."""
    scaled = fr.numerator * 10 ** 30 // fr.denominator
    digits = str(scaled)
    exponent = len(digits) - 1 - 30
    mantissa = digits[0] + "." + digits[1:5]
    return f"{mantissa}e{exponent:+03d}"


def lower_bound(n: int) -> Fraction:
    """Labelled-triangulation count bound (2n+1)! 6^(2n) / (2 n! 24^n)."""
    from fractions import Fraction

    if n < 1:
        raise ValueError("size must be at least 1")
    return Fraction(factorial(2 * n + 1) * 6 ** (2 * n),
                    2 * factorial(n) * 24 ** n)


def _cmd_bound(args) -> int:
    value = lower_bound(args.size)
    print(f"bound({args.size}) = {value} ~= {_sci(value)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkcensus",
        description="Census of closed 3-manifold triangulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate triangulations")
    _add_census_flags(p)
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--threads", type=_at_least(1), default=1, metavar="T")
    p.add_argument("--sigs", action="store_true",
                   help="emit signatures instead of gluing tables")
    p.add_argument("--stats", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("fpg", help="enumerate canonical face pairings")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--graphs", action="store_true",
                   help="append loop/multi-edge summaries")
    p.set_defaults(func=_cmd_fpg)

    p = sub.add_parser("jobs", help="split a census into replayable jobs")
    _add_census_flags(p)
    p.add_argument("--depth", type=_at_least(0), required=True, metavar="D")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser("run-job", help="run job lines and emit a result")
    p.add_argument("--in", metavar="PATH", default=None,
                   help="job lines (default stdin)")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_run_job)

    p = sub.add_parser("merge", help="merge results into a census output")
    p.add_argument("results", nargs="*", metavar="RESULT.json")
    p.add_argument("--jobs", metavar="PATH", required=True,
                   help="the jobs file: its partial-result header is merged "
                   "in and each of its jobs must have exactly one result")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--sigs", action="store_true")
    p.add_argument("--stats", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("bench", help="compare pruning levels")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--mode", choices=MODES, default="all")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", help="check serialized triangulations")
    p.add_argument("--in", metavar="PATH", default=None,
                   help="gluing-table lines (default stdin)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bound", help="labelled-triangulation lower bound")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # refused before any work: one output would overwrite the other
    stats = getattr(args, "stats", None)
    if stats and _destination(args.out) == (where := _destination(stats)):
        parser.error(f"--out and --stats both write to {where}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can be written; the interpreter's final flush of
        # stdout goes to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (AssertionError, OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
