"""Command-line subcommands, exercised through main() directly."""

import io
import json

import pytest

from conftest import census
from linkcensus.cli import lower_bound, main
from linkcensus.core import (
    Triangulation,
    decode_signature,
    from_human_rows,
    parse_table,
    serialize,
)
from linkcensus.fpg import enumerate_pairings, format_pairing
from linkcensus.perms import GLUING_PERMS, FaceSlot
from linkcensus.search import result_from_dict
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


@pytest.mark.parametrize("extra", [[], ["--depth", "1"], ["--threads", "2"]])
def test_census_split_paths_match(tmp_path, capsys, extra):
    out_path = tmp_path / "out.txt"
    rc, out, _ = run_cli(capsys, "census", "--size", "1", "--sigs",
                         "--out", str(out_path), *extra)
    assert rc == 0
    assert out_path.read_text().splitlines() == census(1).signatures()


def test_jobs_run_job_merge_pipeline(tmp_path, capsys):
    jobs_path = tmp_path / "jobs.txt"
    rc, _, _ = run_cli(capsys, "jobs", "--size", "2", "--depth", "2",
                       "--out", str(jobs_path))
    assert rc == 0
    lines = jobs_path.read_text().splitlines()
    assert lines[0].startswith("# partial ")
    assert len(lines) > 1

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


def test_merge_rejects_headerless_jobs_file(tmp_path, capsys):
    bad = tmp_path / "noheader.txt"
    bad.write_text("just a line\n")
    rc, _, err = run_cli(capsys, "merge", "--jobs", str(bad))
    assert rc == 1
    assert "no partial-result header" in err
    # the previous result format carried a seed and a ninth row column
    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "config": {"n": 1, "mode": "all", "level": 2, "seed": 0,
                   "force_level0": False},
        "rows": [[0, 3, 0, 0, 0, 1, 12, ["sig"], []]],
    }) + "\n")
    rc, _, err = run_cli(capsys, "merge", str(old))
    assert rc == 1
    assert err.startswith("error: result config has keys")


def _reversed_edge_table() -> str:
    tri = Triangulation(1)
    tri.glue(FaceSlot(0, 0), FaceSlot(0, 1), GLUING_PERMS[0][1][2])
    tri.glue(FaceSlot(0, 2), FaceSlot(0, 3), GLUING_PERMS[2][3][0])
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
    assert lines[2].startswith("2: not a 3-manifold:")
    assert "reversed edge class(es)" in lines[2]
    assert lines[3] == "3: incomplete (4 unglued faces)"
    assert len(lines) == 4


def test_validate_reads_stdin_and_flags_parse_errors(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not a table\n"))
    rc, out, _ = run_cli(capsys, "validate")
    assert rc == 1
    assert out.splitlines()[0].startswith("0: parse error:")


def test_fpg_listing(capsys):
    rc, out, _ = run_cli(capsys, "fpg", "--size", "2")
    assert rc == 0
    assert out.splitlines() == [format_pairing(fp) for fp in enumerate_pairings(2)]
    rc, out, _ = run_cli(capsys, "fpg", "--size", "2", "--graphs")
    assert rc == 0
    assert all(" | loops " in line for line in out.splitlines())


def test_bench_smoke(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--size", "2", "--backends")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("backend=")
    assert lines[1] == "level,nodes,prune_orient,prune_edge,prune_genus,leaves,kept,seconds"
    level_rows = [ln for ln in lines if ln[:2] in ("0,", "1,", "2,")]
    assert len(level_rows) == 3
    assert any(ln.startswith("speedup level2-vs-level1:") for ln in lines)
    assert any(ln.startswith("backend-walls:") for ln in lines)


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
    rc, _, err = run_cli(capsys, "census", "--size", "0")
    assert rc == 1
    assert err.startswith("error: size must be at least 1")
    rc, _, err = run_cli(capsys, "census", "--size", "5", "--pruning", "0")
    assert rc == 1
    assert "force_level0" in err
    jobs = tmp_path / "jobs.txt"
    rc, _, _ = run_cli(capsys, "jobs", "--size", "1", "--depth", "1",
                       "--out", str(jobs))
    assert rc == 0
    line = jobs.read_text().splitlines()[1]
    jobs.write_text(line.replace(" level=2", "") + "\n")
    rc, _, err = run_cli(capsys, "run-job", "--in", str(jobs))
    assert rc == 1
    assert err == "error: job line lacks level=\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # --size is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    for argv in (["census", "--size", "1", "--seed", "1"],
                 ["jobs", "--size", "1", "--depth", "1", "--seed", "1"],
                 ["bench", "--size", "1", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)  # the seed option is gone
        assert exc.value.code == 2
