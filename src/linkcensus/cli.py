"""Command-line surface.

Subcommands: census, fpg, jobs, run-job, merge, bench, validate, bound.
Flag conventions are shared across subcommands; `LINKCENSUS_BACKEND`
picks the engine.  Exit codes: 0 success, 1 internal contract violation
(with a diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import factorial

from .core import ParseError, decode_signature, parse_table, serialize
from .fpg import enumerate_pairings, format_pairing, graph_summary
from .search import (
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
from .validate import build_links, check_edges


def _add_census_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--mode", choices=("all", "orientable", "nonorientable"),
                   default="all")
    p.add_argument("--pruning", type=int, choices=(0, 1, 2), default=2)
    p.add_argument("--force-level0", action="store_true",
                   help="lift the size gate on pruning level 0")


def _config(args) -> SearchConfig:
    return SearchConfig(n=args.size, mode=args.mode, level=args.pruning,
                        force_level0=args.force_level0)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _emit_result(result: CensusResult, args) -> None:
    out, close = _open_out(args.out)
    try:
        for sig in result.signatures():
            out.write(sig if args.sigs else serialize(decode_signature(sig)))
            out.write("\n")
    finally:
        if close:
            out.close()
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write(stats_csv(result))
    print(summary_line(result))


def _cmd_census(args) -> int:
    config = _config(args)
    if args.threads > 1 or args.depth is not None:
        depth = args.depth if args.depth is not None else 0
        jobs, partial = split_jobs(config, depth)
        if args.threads > 1:
            with ProcessPoolExecutor(max_workers=args.threads) as pool:
                results = list(pool.map(run_job, jobs))
        else:
            results = [run_job(job) for job in jobs]
        result = merge([partial] + results)
    else:
        result = enumerate_census(config)
    _emit_result(result, args)
    return 0


def _cmd_fpg(args) -> int:
    out, close = _open_out(args.out)
    try:
        for fp in enumerate_pairings(args.size):
            line = format_pairing(fp)
            if args.graphs:
                line += f" | {graph_summary(fp)}"
            out.write(line + "\n")
    finally:
        if close:
            out.close()
    return 0


def _cmd_jobs(args) -> int:
    config = _config(args)
    jobs, partial = split_jobs(config, args.depth)
    out, close = _open_out(args.out)
    try:
        out.write("# partial " + json.dumps(result_to_dict(partial),
                                            separators=(",", ":")) + "\n")
        for job in jobs:
            out.write(format_job(job) + "\n")
    finally:
        if close:
            out.close()
    return 0


def _read_lines(path: str | None) -> list[str]:
    if path is None or path == "-":
        return sys.stdin.read().splitlines()
    with open(path) as fh:
        return fh.read().splitlines()


def _cmd_run_job(args) -> int:
    results = []
    for line in _read_lines(getattr(args, "in")):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        results.append(run_job(parse_job(line)))
    if not results:
        raise ValueError("no job lines found")
    merged = merge(results)
    out, close = _open_out(args.out)
    try:
        json.dump(result_to_dict(merged), out, separators=(",", ":"))
        out.write("\n")
    finally:
        if close:
            out.close()
    return 0


def _cmd_merge(args) -> int:
    results = []
    if args.jobs:
        with open(args.jobs) as fh:
            head = fh.readline()
        if not head.startswith("# partial "):
            raise ValueError(f"{args.jobs} has no partial-result header")
        results.append(result_from_dict(json.loads(head[len("# partial "):])))
    for path in args.results:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    results.append(result_from_dict(json.loads(line)))
    merged = merge(results)
    _emit_result(merged, args)
    return 0


def _cmd_bench(args) -> int:
    levels = ([0] if args.size <= 4 else []) + [1, 2]
    print(f"backend={load_backend().BACKEND_NAME}")
    print("level,nodes,prune_orient,prune_edge,prune_genus,leaves,kept,seconds")
    timed: dict[int, tuple[CensusResult, float]] = {}
    for level in levels:
        config = SearchConfig(n=args.size, mode=args.mode, level=level)
        t0 = time.perf_counter()
        result = enumerate_census(config)
        wall = time.perf_counter() - t0
        timed[level] = (result, wall)
        print(f"{level},{result.nodes},{result.prune_orient},{result.prune_edge},"
              f"{result.prune_genus},{result.leaves},{result.total},{wall:.3f}")
    kept = {lvl: sorted(res.signatures()) for lvl, (res, _) in timed.items()}
    if len(set(map(tuple, kept.values()))) != 1:
        raise AssertionError("pruning levels disagree on the census output")
    r1, w1 = timed[1]
    r2, w2 = timed[2]
    print(f"speedup level2-vs-level1: nodes {r1.nodes / r2.nodes:.2f}x "
          f"time {w1 / max(w2, 1e-9):.2f}x")
    if args.backends:
        line = []
        for backend in ("py", "fast"):
            try:
                eng = load_backend(backend)
            except RuntimeError:
                continue
            config = SearchConfig(n=args.size, mode=args.mode)
            t0 = time.perf_counter()
            res = enumerate_census(config, backend=backend)
            wall = time.perf_counter() - t0
            if res.signatures() != kept[2]:
                raise AssertionError(f"backend {backend} disagrees on the census")
            line.append((eng.BACKEND_NAME, wall))
        print("backend-walls: " + " ".join(f"{b}={w:.3f}s" for b, w in line))
        if len(line) == 2:
            print(f"backend-speedup: {line[0][1] / max(line[1][1], 1e-9):.2f}x")
    return 0


def _cmd_validate(args) -> int:
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
        reasons = []
        bad_edges = check_edges(tri)
        if bad_edges:
            reasons.append(f"{len(bad_edges)} reversed edge class(es)")
        links = build_links(tri)
        nonsphere = sum(1 for r in links if not r.is_sphere)
        if nonsphere:
            reasons.append(f"{nonsphere} non-sphere link(s)")
        if reasons:
            print(f"{k}: not a 3-manifold: " + "; ".join(reasons))
        else:
            print(f"{k}: manifold")
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
    if n < 1:
        raise ValueError("size must be at least 1")
    return Fraction(factorial(2 * n + 1) * 6 ** (2 * n),
                    2 * factorial(n) * 24 ** n)


def _cmd_bound(args) -> int:
    value = lower_bound(args.size)
    exact = str(value.numerator) if value.denominator == 1 else (
        f"{value.numerator}/{value.denominator}")
    print(f"bound({args.size}) = {exact} ~= {_sci(value)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkcensus",
        description="Census of closed 3-manifold triangulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate triangulations")
    _add_census_flags(p)
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--depth", type=int, default=None, metavar="D",
                   help="split/replay depth (implied 0 with --threads)")
    p.add_argument("--threads", type=int, default=1, metavar="T")
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
    p.add_argument("--depth", type=int, required=True, metavar="D")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser("run-job", help="run job lines and emit a result")
    p.add_argument("--in", metavar="PATH", default=None,
                   help="job lines (default stdin)")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_run_job)

    p = sub.add_parser("merge", help="merge results into a census output")
    p.add_argument("results", nargs="*", metavar="RESULT.json")
    p.add_argument("--jobs", metavar="PATH", default=None,
                   help="jobs file whose partial-result header to include")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--sigs", action="store_true")
    p.add_argument("--stats", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("bench", help="compare pruning levels")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--mode", choices=("all", "orientable", "nonorientable"),
                   default="all")
    p.add_argument("--backends", action="store_true",
                   help="also compare the compiled and pure-Python engines")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AssertionError, OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
