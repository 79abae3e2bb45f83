"""Command-line subcommands, exercised through main() directly."""

import collections
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import linkcensus
from conftest import census, needs_fast
from linkcensus import cli, core
from linkcensus.cli import lower_bound, main
from linkcensus.core import (
    Triangulation,
    decode_signature,
    from_human_rows,
    parse_table,
    serialize,
)
from linkcensus.fpg import enumerate_pairings, format_pairing
from linkcensus.perms import GLUING_PERMS
from linkcensus.search import (
    COUNTERS,
    JobDescriptor,
    SearchConfig,
    format_job,
    load_backend,
    result_from_dict,
    result_to_dict,
    split_jobs,
    stats_csv,
    summary_line,
)
from linkcensus.validate import check_edges
from oracles import TORUS_LINK_ROWS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_census_sigs_to_stdout(capsys):
    rc, out, err = run_cli(capsys, "census", "--size", "1", "--sigs")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1].startswith("n=1 mode=all total=4 orientable=4 ")
    assert lines[:-1] == census(1).signatures()


def test_census_tables_parse_back(capsys):
    rc, out, _ = run_cli(capsys, "census", "--size", "1")
    assert rc == 0
    tables = out.splitlines()[:-1]
    assert len(tables) == 4
    for line in tables:
        tri = parse_table(line)
        assert tri.is_complete()


def test_census_out_and_stats_files(tmp_path, capsys):
    out_path = tmp_path / "sigs.txt"
    stats_path = tmp_path / "stats.csv"
    rc, out, _ = run_cli(capsys, "census", "--size", "2", "--sigs",
                         "--out", str(out_path), "--stats", str(stats_path))
    assert rc == 0
    assert out.splitlines() == [
        f"n=2 mode=all total=17 orientable=16 nonorientable=1 nodes={census(2).nodes}"
    ]
    assert out_path.read_text().splitlines() == census(2).signatures()
    stats = stats_path.read_text().splitlines()
    assert stats[0].startswith("pairing_index,nodes,")
    assert len(stats) == 1 + len(census(2).rows)


# The ids are those the cases had when the list also held census --depth cases.
@pytest.mark.parametrize("extra", [pytest.param([], id="extra0"),
                                   pytest.param(["--threads", "2"], id="extra2")])
def test_census_split_paths_match(tmp_path, capsys, extra):
    out_path = tmp_path / "out.txt"
    stats_path = tmp_path / "stats.csv"
    rc, out, err = run_cli(capsys, "census", "--size", "3", "--sigs",
                           "--out", str(out_path), "--stats", str(stats_path),
                           *extra)
    assert rc == 0 and err == ""
    assert out == summary_line(census(3)) + "\n"
    assert out_path.read_text().splitlines() == census(3).signatures()
    assert stats_path.read_text() == stats_csv(census(3))


def test_bad_output_path_fails_before_any_output(tmp_path, capsys, monkeypatch):
    bad = str(tmp_path / "missing" / "x.txt")

    def no_search(*args):
        raise AssertionError("searched before opening --out")

    monkeypatch.setattr("linkcensus.cli.split_jobs", no_search)
    rc, out, err = run_cli(capsys, "census", "--size", "3", "--out", bad)
    assert (rc, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory")
    monkeypatch.undo()
    # a bad --stats path must not let --out receive the signatures first
    ok = tmp_path / "ok.sigs"
    jobs, _, full = _n3_split(tmp_path, capsys)
    for argv in (["census", "--size", "3"], ["merge", full, "--jobs", jobs]):
        rc, out, err = run_cli(capsys, *argv, "--sigs", "--out", str(ok),
                               "--stats", bad)
        assert (rc, out) == (1, ""), argv
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert ok.read_text() == "", argv


def test_jobs_run_job_merge_pipeline(tmp_path, capsys):
    jobs_path = tmp_path / "jobs.txt"
    rc, _, _ = run_cli(capsys, "jobs", "--size", "2", "--depth", "2",
                       "--out", str(jobs_path))
    assert rc == 0
    lines = jobs_path.read_text().splitlines()
    assert lines[0].startswith("# partial ")
    assert len(lines) > 2 and lines[-1] == f"# jobs {len(lines) - 2}"

    result_path = tmp_path / "result.json"
    rc, _, _ = run_cli(capsys, "run-job", "--in", str(jobs_path),
                       "--out", str(result_path))
    assert rc == 0
    partial = result_from_dict(json.loads(lines[0][len("# partial "):]))
    ran = result_from_dict(json.loads(result_path.read_text()))
    assert partial.config == ran.config

    merged_path = tmp_path / "merged.txt"
    rc, out, _ = run_cli(capsys, "merge", str(result_path),
                         "--jobs", str(jobs_path),
                         "--out", str(merged_path), "--sigs")
    assert rc == 0
    assert out.splitlines()[-1] == (
        f"n=2 mode=all total=17 orientable=16 nonorientable=1 nodes={census(2).nodes}"
    )

    direct_path = tmp_path / "direct.txt"
    rc, _, _ = run_cli(capsys, "census", "--size", "2", "--sigs",
                       "--out", str(direct_path))
    assert rc == 0
    assert merged_path.read_bytes() == direct_path.read_bytes()


def _n3_split(tmp_path, capsys):
    """n=3 split at depth 2 (17 jobs), a part with 3 of them, and all."""
    jobs_path = tmp_path / "jobs.txt"
    rc, _, _ = run_cli(capsys, "jobs", "--size", "3", "--depth", "2",
                       "--out", str(jobs_path))
    assert rc == 0
    head, *lines, trailer = jobs_path.read_text().splitlines()
    assert len(lines) == 17 and trailer == "# jobs 17"
    three = tmp_path / "three.txt"
    three.write_text("\n".join(lines[:3]) + "\n")
    paths = []
    for name, jobs in (("p3.json", three), ("all.json", jobs_path)):
        rc, _, _ = run_cli(capsys, "run-job", "--in", str(jobs),
                           "--out", str(tmp_path / name))
        assert rc == 0
        paths.append(str(tmp_path / name))
    return str(jobs_path), *paths


def test_merge_writes_the_census_tables(tmp_path, capsys):
    jobs, _, full = _n3_split(tmp_path, capsys)
    merged, direct = tmp_path / "merged.txt", tmp_path / "direct.txt"
    assert run_cli(capsys, "merge", full, "--jobs", jobs, "--out", str(merged))[0] == 0
    assert run_cli(capsys, "census", "--size", "3", "--out", str(direct))[0] == 0
    assert merged.read_bytes() == direct.read_bytes()
    assert merged.read_text().splitlines() == [
        serialize(decode_signature(sig)) for sig in census(3).signatures()]


def test_merge_decodes_each_signature_once(tmp_path, capsys, monkeypatch):
    """An n=3 split at depth 1 (8 jobs) dealt alternately to two results,
    which share 12 classes: merge decodes each of the 81 classes once,
    after the union, not once per result that holds it."""
    jobs = tmp_path / "jobs.txt"
    assert run_cli(capsys, "jobs", "--size", "3", "--depth", "1",
                   "--out", str(jobs))[0] == 0
    lines = jobs.read_text().splitlines()[1:-1]
    assert len(lines) == 8
    parts = []
    for k in range(2):
        part, result = tmp_path / f"part{k}.txt", tmp_path / f"result{k}.json"
        part.write_text("".join(f"{line}\n" for line in lines[k::2]))
        assert run_cli(capsys, "run-job", "--in", str(part),
                       "--out", str(result))[0] == 0
        parts.append(result_from_dict(json.loads(result.read_text())))
    shared = set.intersection(*({s for r in part.rows
                                 for s in r.orient_sigs + r.nonor_sigs}
                                for part in parts))
    assert len(shared) == 12
    decoded = collections.Counter()

    def counted(sig):
        decoded[sig] += 1
        return decode_signature(sig)

    for module in (core, cli):
        monkeypatch.setattr(module, "decode_signature", counted)
    rc, out, _ = run_cli(capsys, "merge", str(tmp_path / "result0.json"),
                         str(tmp_path / "result1.json"), "--jobs", str(jobs))
    assert rc == 0 and len(out.splitlines()) == 82
    assert decoded == dict.fromkeys(census(3).signatures(), 1)


def test_merge_rejects_headerless_jobs_file(tmp_path, capsys):
    jobs, _, full = _n3_split(tmp_path, capsys)
    bad = tmp_path / "noheader.txt"
    bad.write_text("just a line\n")
    rc, out, err = run_cli(capsys, "merge", full, "--jobs", str(bad))
    assert rc == 1 and out == ""
    assert "no partial-result header" in err
    # the previous result format carried a seed and a ninth row column
    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "config": {"n": 3, "mode": "all", "level": 2, "seed": 0},
        "rows": [[0, 3, 0, 0, 0, 1, 12, ["sig"], []]],
    }) + "\n")
    rc, out, err = run_cli(capsys, "merge", str(old), "--jobs", jobs)
    assert rc == 1 and out == ""
    assert err.startswith("error: result config has keys")


def test_merge_refuses_a_cut_or_edited_jobs_file(tmp_path, capsys):
    """A jobs file ends with a `# jobs N` trailer; one cut after k lines,
    cut mid-line or missing a line would merge into a silently partial
    census, so merge refuses it with one diagnostic and no output."""
    jobs, _, full = _n3_split(tmp_path, capsys)
    head, *lines, trailer = Path(jobs).read_text().splitlines()
    for name, kept, error in (
            ("cut", [head, *lines[:9]],
             "holds 9 job lines and no '# jobs N' trailer"),
            ("mid-line", [head, *lines[:9], lines[9][:len(lines[9]) // 2]],
             "holds 10 job lines and no '# jobs N' trailer"),
            ("edited", [head, *lines[:8], *lines[9:], trailer],
             "holds 16 job lines, but its trailer counts 17")):
        bad = tmp_path / f"{name}.txt"
        bad.write_text("".join(f"{line}\n" for line in kept))
        rc, out, err = run_cli(capsys, "merge", full, "--jobs", str(bad), "--sigs")
        assert (rc, out) == (1, ""), name
        assert len(err.splitlines()) == 1, name
        assert err.startswith(f"error: {bad} {error}"), name
    # what run-job makes of the first 9 jobs is refused too
    part = tmp_path / "part.json"
    assert run_cli(capsys, "run-job", "--in", str(tmp_path / "cut.txt"),
                   "--out", str(part))[0] == 0
    rc, out, err = run_cli(capsys, "merge", str(part), "--jobs",
                           str(tmp_path / "cut.txt"), "--sigs")
    assert (rc, out) == (1, "") and len(err.splitlines()) == 1


def test_merge_refuses_a_partial_census(tmp_path, capsys):
    jobs, part, _ = _n3_split(tmp_path, capsys)
    rc, out, err = run_cli(capsys, "merge", part, "--jobs", jobs)
    assert rc == 1 and out == ""
    assert err.startswith("error: 14 of 17 jobs have no result: pairing ")
    assert "and 9 more" in err


def test_merge_refuses_a_part_given_twice(tmp_path, capsys):
    jobs, part, full = _n3_split(tmp_path, capsys)
    rc, out, _ = run_cli(capsys, "merge", full, "--jobs", jobs, "--sigs")
    assert rc == 0
    assert out.splitlines()[-1] == (
        f"n=3 mode=all total=81 orientable=76 nonorientable=5 nodes={census(3).nodes}")
    for argv in ([full, full], [part, full]):
        rc, out, err = run_cli(capsys, "merge", *argv, "--jobs", jobs)
        assert rc == 1 and out == ""
        assert err.startswith("error: job covered twice: pairing ")
    # only the jobs file's `# partial` header may cover no job
    partial = tmp_path / "partial.json"
    partial.write_text(Path(jobs).read_text().splitlines()[0]
                       .removeprefix("# partial ") + "\n")
    rc, out, err = run_cli(capsys, "merge", full, str(partial), "--jobs", jobs)
    assert rc == 1 and out == ""
    assert err.splitlines() == [
        "error: 2 results cover no job; only the split's partial may"]


def _tampered(path: str, col: int, value) -> str:
    """Write a copy of the result at `path` whose last row has `value`
    at column `col`."""
    data = json.loads(Path(path).read_text())
    data["rows"][-1][col] = value
    bad = Path(path).with_name("tampered.json")
    bad.write_text(json.dumps(data) + "\n")
    return str(bad)


def test_merge_refuses_rows_no_job_could_have_written(tmp_path, capsys):
    """With one diagnostic line and no output: a row renumbered to a
    pairing none of the result's jobs is in (n=3 has four pairings), and
    a class copied into a second pairing's row, since a triangulation
    fixes its face pairing."""
    jobs, _, full = _n3_split(tmp_path, capsys)
    col = 1 + len(COUNTERS)  # a row's orientable signatures
    rows = json.loads(Path(full).read_text())["rows"]
    a, sig = next((row[0], row[col][0]) for row in rows if row[col])
    stats = tmp_path / "stats.csv"
    for at, value, error in (
            (0, 9, "a result holds a row for pairing 9, which none of its "
                   "jobs is in"),
            (col, rows[-1][col] + [sig],
             f"class {sig} is held twice, by pairings {a} and {rows[-1][0]}")):
        rc, out, err = run_cli(capsys, "merge", _tampered(full, at, value),
                               "--jobs", jobs, "--sigs", "--stats", str(stats))
        assert (rc, out, err) == (1, "", f"error: {error}\n")
    assert not stats.exists()


def test_merge_rejects_an_inconsistent_signature(tmp_path, capsys):
    jobs, _, full = _n3_split(tmp_path, capsys)
    col = 1 + len(COUNTERS)  # a row's orientable signatures
    *keep, sig = json.loads(Path(full).read_text())["rows"][-1][col]
    # the last slot of the last signature no longer glues back to its
    # partner; then a valid signature of the wrong size in its place
    for bad_sig in (sig[:-1] + ("2" if sig[-1] == "1" else "1"),
                    census(1).signatures()[0]):
        bad = _tampered(full, col, [*keep, bad_sig])
        for sigs in ([], ["--sigs"]):
            rc, out, err = run_cli(capsys, "merge", bad, "--jobs", jobs, *sigs)
            assert (rc, out) == (1, ""), (bad_sig, sigs)
            assert err.startswith(f"error: malformed result: signature '{bad_sig}'")


def test_merge_rejects_a_malformed_result(tmp_path, capsys):
    jobs, _, full = _n3_split(tmp_path, capsys)
    rc, out, _ = run_cli(capsys, "merge", full, "--jobs", jobs, "--sigs")
    assert rc == 0 and out.splitlines()[:-1] == census(3).signatures()
    for col, value in ((1, "5"), (1 + len(COUNTERS), "abc"), (2, -7)):
        bad = _tampered(full, col, value)
        rc, out, err = run_cli(capsys, "merge", bad, "--jobs", jobs)
        assert (rc, out) == (1, ""), (col, value)
        assert err.startswith("error: malformed result: ")
    # a repeated row would count its pairing twice
    data = json.loads(Path(full).read_text())
    data["rows"].append(data["rows"][0])
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(data) + "\n")
    rc, out, err = run_cli(capsys, "merge", str(bad), "--jobs", jobs)
    assert (rc, out) == (1, "")
    assert err.startswith("error: malformed result: ")


def test_cli_import_leaves_heavy_modules_unloaded():
    code = ("import sys, linkcensus.cli; print(' '.join(m for m in ("
            "'concurrent.futures.process', 'multiprocessing', "
            "'linkcensus._engine_py', 'linkcensus.validate', "
            "'linkcensus.linktrack', 'linkcensus.skiplist', 'linkcensus.dsu', "
            "'dataclasses', 'inspect', 'fractions', 'decimal') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    assert proc.stdout.strip() == ""


@needs_fast
def test_fast_backend_commands_never_load_the_reference_stack(tmp_path):
    """`census`, `jobs`, `run-job` and `merge` on the compiled kernel, run
    as the benchmark runs them, import none of the pure-Python kernel's
    modules: a change there cannot move a fast-backend measurement."""
    reference = {"linkcensus._engine_py", "linkcensus.validate",
                 "linkcensus.linktrack", "linkcensus.skiplist", "linkcensus.dsu"}
    env = {**_src_env(), "LINKCENSUS_BACKEND": "fast"}
    for argv in (["census", "--size", "3", "--sigs", "--out", "sigs.txt"],
                 ["jobs", "--size", "3", "--depth", "2", "--out", "jobs.txt"],
                 ["run-job", "--in", "jobs.txt", "--out", "result.json"],
                 ["merge", "result.json", "--jobs", "jobs.txt", "--out", "out.txt"]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "linkcensus.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "linkcensus.search" in loaded and not loaded & reference, argv
    assert (tmp_path / "out.txt").read_text().count("\n") == 81


def _reversed_edge_table() -> str:
    tri = Triangulation(1)
    tri.glue(0, 1, GLUING_PERMS[0][1][2])
    tri.glue(2, 3, GLUING_PERMS[2][3][0])
    assert tri.is_complete() and check_edges(tri)
    return serialize(tri)


def test_validate_verdicts(tmp_path, capsys):
    good = serialize(decode_signature(census(1).signatures()[0]))
    torus = serialize(from_human_rows(TORUS_LINK_ROWS))
    tables = tmp_path / "tables.txt"
    tables.write_text("\n".join([
        good,
        torus,
        _reversed_edge_table(),
        "1 ; - - - -",
        "# a comment",
        "",
    ]) + "\n")
    rc, out, _ = run_cli(capsys, "validate", "--in", str(tables))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "0: manifold"
    assert lines[1] == "1: not a 3-manifold: 1 non-sphere link(s)"
    # both defects are named, though the verdict alone stops at the first
    assert lines[2] == ("2: not a 3-manifold: 1 reversed edge class(es); "
                        "1 non-sphere link(s)")
    assert lines[3] == "3: incomplete (4 unglued faces)"
    assert len(lines) == 4


def test_validate_reads_stdin_and_flags_parse_errors(capsys, monkeypatch):
    good = serialize(decode_signature(census(1).signatures()[0]))
    # a superscript two passes isdigit() but not int(): still a parse
    # error, and the lines after it are still checked
    monkeypatch.setattr("sys.stdin", io.StringIO(
        f"not a table\n\u00b2 ; - - - -\n{good}\n"))
    rc, out, _ = run_cli(capsys, "validate")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith("0: parse error:")
    assert lines[1] == "1: parse error: first field must be the tetrahedron count"
    assert lines[2:] == ["2: manifold"]


def test_fpg_listing(capsys):
    rc, out, _ = run_cli(capsys, "fpg", "--size", "2")
    assert rc == 0
    assert out.splitlines() == [format_pairing(fp)
                                for fp, _ in enumerate_pairings(2)]
    rc, out, _ = run_cli(capsys, "fpg", "--size", "2", "--graphs")
    assert rc == 0
    assert all(" | loops " in line for line in out.splitlines())


def test_bench_smoke(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--size", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("backend=")
    assert lines[1] == ("level,nodes,prune_orient,prune_edge,prune_genus,"
                        "prune_auto,leaves,kept,seconds")
    assert lines[1] == ",".join(("level", *COUNTERS, "kept", "seconds"))
    level_rows = [ln for ln in lines if ln[:2] in ("0,", "1,", "2,")]
    assert len(level_rows) == 3
    for level, row in enumerate(level_rows):
        res = census(2, level=level)
        assert row.split(",")[:-1] == [str(level), *map(
            str, res.counts().values()), str(res.total)]
    assert lines[-1].startswith("speedup level2-vs-level1:")


def test_bound_output(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--size", "9")
    assert rc == 0
    assert out == "bound(9) = 12887032383225/2 ~= 6.4435e+12\n"
    rc, out, _ = run_cli(capsys, "bound", "--size", "1")
    assert rc == 0
    assert out == "bound(1) = 9/2 ~= 4.5000e+00\n"


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        lower_bound(0)


def test_contract_violations_exit_one(tmp_path, capsys):
    for argv in (["census", "--size", "0"], ["bench", "--size", "0"],
                 ["fpg", "--size", "0"], ["fpg", "--size", "-2"],
                 ["fpg", "--size", "0", "--out", str(tmp_path / "none.txt")]):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err == "error: size must be at least 1\n", argv
    assert not (tmp_path / "none.txt").exists()
    rc, _, err = run_cli(capsys, "census", "--size", "5", "--pruning", "0")
    assert rc == 1
    assert err == "error: pruning level 0 is limited to n <= 4\n"
    jobs = tmp_path / "jobs.txt"
    rc, _, _ = run_cli(capsys, "jobs", "--size", "1", "--depth", "1",
                       "--out", str(jobs))
    assert rc == 0
    head, line = jobs.read_text().splitlines()[:2]
    # n=1 has two pairs, so a third prefix token is one too many
    longer = tmp_path / "longer.txt"
    longer.write_text(f"{head}\n{line} 2=0:6 2=0:6\n# jobs 1\n")
    for argv in (["run-job", "--in", str(longer)], ["merge", "--jobs", str(longer)]):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err == "error: prefix has 3 tokens but the pairing has only 2 pairs\n"
    jobs.write_text(line.replace(" level=2", "") + "\n")
    rc, _, err = run_cli(capsys, "run-job", "--in", str(jobs))
    assert rc == 1
    assert err == "error: job line lacks level=\n"
    jobs.write_text(line.replace(" index=0 ", " index=-1 ") + "\n")
    rc, out, err = run_cli(capsys, "run-job", "--in", str(jobs))
    assert (rc, out) == (1, "")
    assert err == "error: job index -1 is negative\n"
    # canonical, but two tetrahedra each glued to itself: refused before
    # the kernel searches it
    jobs.write_text("n=2 mode=all level=2 index=0 | "
                    "2 ; 0.1 0.0 0.3 0.2 1.1 1.0 1.3 1.2 |\n")
    rc, out, err = run_cli(capsys, "run-job", "--in", str(jobs))
    assert (rc, out, err) == (1, "", "error: pairing is not connected\n")
    # a complete gluing that passes every check, but no job of a split
    jobs.write_text("n=2 mode=all level=2 index=0 | 2 ; 0.1 0.0 1.0 1.1 "
                    "0.2 0.3 1.3 1.2 | 0=0:1 2=1:4 3=1:12 6=1:6\n")
    rc, out, err = run_cli(capsys, "run-job", "--in", str(jobs))
    assert (rc, out) == (1, "")
    assert err.splitlines() == ["error: corrupt job: the prefix glues every pair"]
    # a pairing of the wrong size, a Perm4 index that does not carry the
    # face, and a file holding only the partial header
    pairing = "1 ; 0.1 0.0 0.3 0.2"  # slot 0 (face 0) glued to face 1
    off_face = next(pi for pi in range(24) if pi not in GLUING_PERMS[0][1])
    assert head.startswith("# partial ")
    for text, message in (
            (f"n=2 mode=all level=2 index=0 | {pairing} |",
             "pairing size disagrees with config"),
            (f"n=1 mode=all level=2 index=0 | {pairing} | 0=0:{off_face}",
             f"prefix token '0=0:{off_face}' is not a face gluing"),
            (head, "no job lines found")):
        jobs.write_text(text + "\n")
        rc, out, err = run_cli(capsys, "run-job", "--in", str(jobs))
        assert (rc, out, err) == (1, "", f"error: {message}\n"), text


def test_run_job_refuses_a_symmetric_copy(tmp_path, capsys):
    """A job whose prefix an automorphism of its pairing maps to a smaller
    one cannot come from `jobs`."""
    config = SearchConfig(n=2)
    survivors = {job.id for job in split_jobs(config, 1)[0]}
    eng = load_backend()
    index, fp, prefix = next(
        (index, fp, prefix) for index, (fp, _) in enumerate(enumerate_pairings(2))
        for prefix in eng.search_pairing(2, "all", 2, 0, fp,
                                         depth_cap=1)["frontier"]
        if (index, prefix) not in survivors)
    jobs = tmp_path / "jobs.txt"
    jobs.write_text(format_job(JobDescriptor(config, index, fp, prefix)) + "\n")
    rc, out, err = run_cli(capsys, "run-job", "--in", str(jobs))
    assert (rc, out) == (1, "")
    assert err == ("error: corrupt job: an automorphism of the pairing maps "
                   "the prefix to a smaller one\n")


def _src_env() -> dict:
    src = str(Path(linkcensus.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to see the worker pool start")
def test_ctrl_c_stops_a_threaded_census():
    """Ctrl-C, sent to the whole process group once the worker pool is up,
    ends the census with exit 130 and one diagnostic line, and leaves no
    worker behind."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "linkcensus.cli", "census", "--size", "6",
         "--threads", "2"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_src_env(),
        start_new_session=True)
    try:
        # the pool's manager thread is the parent's second thread
        deadline = time.monotonic() + 60
        while (len(os.listdir(f"/proc/{proc.pid}/task")) < 2
               and proc.poll() is None and time.monotonic() < deadline):
            time.sleep(0.05)
        time.sleep(0.5)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert (out, err) == ("", "error: interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # --size is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    for argv in (["census", "--size", "1", "--seed", "1"],
                 ["jobs", "--size", "1", "--depth", "1", "--seed", "1"],
                 ["bench", "--size", "1", "--seed", "1"],
                 ["census", "--size", "1", "--depth", "0"],
                 ["bench", "--size", "1", "--backends"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)  # the seed, split depth and backends options are gone
        assert exc.value.code == 2, argv
    for argv in (["census", "--size", "1", "--force-level0"],
                 ["jobs", "--size", "1", "--depth", "1", "--force-level0"],
                 ["census", "--size", "1", "--threads", "0"],
                 ["census", "--size", "1", "--threads", "-3"],
                 ["jobs", "--size", "1", "--depth", "-1"],
                 ["merge", "result.json"]):  # --jobs is required
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
