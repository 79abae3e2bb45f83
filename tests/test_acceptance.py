"""Acceptance gate: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py`; the verbose PASSED/FAILED
line of each test is the verdict for its criterion.  Details (counts,
walls, ratios) print with -s.

The size-6 criteria compare pruning levels on a 5-billion-node tree, so
they insist on the compiled engine: the pure-Python engine is a reference
implementation three orders of magnitude slower, and walls measured on it
would say nothing about the stated budgets.
"""

import functools
import math
import os
import random
import statistics
import time

import pytest

from conftest import ENGINE_BUILD_LOG
from linkcensus.cli import lower_bound, main
from linkcensus.core import decode_signature, edge_classes, iso_signature
from linkcensus.linktrack import GlueOutcome, LinkState
from linkcensus.search import SearchConfig, enumerate_census, load_backend
from linkcensus.skiplist import CyclicSkipList
from linkcensus.validate import build_links, is_3manifold
from oracles import (
    TORUS_LINK_ROWS,
    brute_census,
    dsu_fuzz_trial,
    from_human_rows,
    linktrack_fuzz_trial,
    relabel,
    skiplist_fuzz_trial,
    vertex_classes,
)

EXPECTED = {
    1: (4, 4, 0),
    2: (17, 16, 1),
    3: (81, 76, 5),
    4: (577, 532, 45),
    5: (5184, 4807, 377),
    6: (57753, 52946, 4807),
    7: (722765, 658474, 64291),
}


@functools.lru_cache(maxsize=None)
def timed_census(n: int, mode: str = "all", level: int = 2):
    config = SearchConfig(n=n, mode=mode, level=level)
    t0 = time.perf_counter()
    result = enumerate_census(config)
    return result, time.perf_counter() - t0


def require_fast_engine():
    if load_backend().BACKEND_NAME == "fast":
        return
    try:
        load_backend("fast")
        why = "LINKCENSUS_BACKEND selects another backend"
    except RuntimeError as exc:
        why = f"{exc}: {exc.__cause__!r}"
    if ENGINE_BUILD_LOG:
        why += f"\nin-place build of the kernel:\n{ENGINE_BUILD_LOG}"
    pytest.fail(
        "criterion needs the compiled engine: the stated wall budgets "
        f"are out of reach for the pure-Python reference backend\n{why}"
    )


def test_criterion_01_exact_counts_through_size_6():
    """Census totals for n = 1..6 match the published values, with n <= 5
    finishing in seconds and n = 6 in minutes."""
    for n in (1, 2, 3):
        result, wall = timed_census(n)
        assert (result.total, result.orientable,
                result.nonorientable) == EXPECTED[n], f"n={n}"
    require_fast_engine()
    for n in (4, 5):
        result, wall = timed_census(n)
        assert (result.total, result.orientable,
                result.nonorientable) == EXPECTED[n], f"n={n}"
        assert wall < 60.0, f"n={n} took {wall:.1f}s, expected seconds"
        print(f"criterion 1: n={n} {EXPECTED[n]} in {wall:.1f}s")
    result, wall = timed_census(6)
    assert (result.total, result.orientable,
            result.nonorientable) == EXPECTED[6]
    assert wall < 600.0, f"n=6 took {wall:.1f}s, expected minutes"
    print(f"criterion 1: n=6 {EXPECTED[6]} in {wall:.1f}s")


def test_criterion_01b_cli_command_agrees(tmp_path, capsys):
    """The `census --size N --mode all` command reports the same totals."""
    for n in (1, 2, 3):
        rc = main(["census", "--size", str(n), "--mode", "all",
                   "--sigs", "--out", str(tmp_path / f"n{n}.txt")])
        out = capsys.readouterr().out
        assert rc == 0
        total, orientable, nonorientable = EXPECTED[n]
        assert out.strip().endswith(
            f"total={total} orientable={orientable} "
            f"nonorientable={nonorientable} nodes={timed_census(n)[0].nodes}")
        lines = (tmp_path / f"n{n}.txt").read_text().splitlines()
        assert len(lines) == total


@pytest.mark.skipif(os.environ.get("LINKCENSUS_NIGHTLY") != "1",
                    reason="size-7 census takes ~3 minutes; set LINKCENSUS_NIGHTLY=1")
def test_criterion_02_nightly_size_7():
    require_fast_engine()
    result, wall = timed_census(7)
    assert (result.total, result.orientable,
            result.nonorientable) == EXPECTED[7]
    print(f"criterion 2: n=7 {EXPECTED[7]} in {wall:.1f}s")


def test_criterion_03_pruning_levels_agree():
    """Signature multisets are identical across pruning levels:
    {0,1,2} for n <= 4 and {1,2} for n = 5."""
    for n in (1, 2, 3):
        base = timed_census(n, level=2)[0].signatures()
        assert timed_census(n, level=1)[0].signatures() == base
        assert timed_census(n, level=0)[0].signatures() == base
    require_fast_engine()
    base = timed_census(4, level=2)[0].signatures()
    assert timed_census(4, level=1)[0].signatures() == base
    assert timed_census(4, level=0)[0].signatures() == base
    base5 = timed_census(5, level=2)[0].signatures()
    assert timed_census(5, level=1)[0].signatures() == base5
    print("criterion 3: levels agree (n<=4 all three, n=5 levels 1 and 2)")


def test_criterion_04_genus_pruning_pays_at_size_6():
    """At n = 6 the cycle tracker visits < 10% of the level-1 nodes and
    wins the wall clock by at least 5x."""
    require_fast_engine()
    r2, w2 = timed_census(6, level=2)
    r1, w1 = timed_census(6, level=1)
    assert r1.signatures() == r2.signatures()
    ratio = r2.nodes / r1.nodes
    speedup = w1 / w2
    print(f"criterion 4: nodes {r2.nodes}/{r1.nodes} = {ratio:.1%}, "
          f"wall {w1:.1f}s/{w2:.1f}s = {speedup:.1f}x")
    assert ratio < 0.10
    assert speedup >= 5.0


def test_criterion_05_lower_bound_value(capsys):
    """bound(9) evaluates to 6.4435e12 within 0.005%."""
    value = float(lower_bound(9))
    assert math.isclose(value, 6.4435e12, rel_tol=5e-5)
    rc = main(["bound", "--size", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "bound(9) = 12887032383225/2 ~= 6.4435e+12\n"


def test_criterion_06_torus_link_example():
    """The three-tetrahedron example: one vertex whose link is a torus,
    rejected by the genus check during replay."""
    tri = from_human_rows(TORUS_LINK_ROWS)
    assert len(vertex_classes(tri)) == 1
    assert len(edge_classes(tri)) == 3
    reports = build_links(tri)
    assert len(reports) == 1
    link = reports[0]
    assert link.closed and link.orientable and link.genus == 1
    assert not is_3manifold(tri)

    # replay the table's own gluings; the cycle tracker must refuse one
    pairs = [(s, d) for s, d in enumerate(tri.adj) if s < d]
    ls = LinkState(tri.n, level=2)
    outcome = None
    for k, (s1, s2) in enumerate(pairs):
        outcome, _ = ls.glue_faces(s1 // 4, s1 % 4, s2 // 4, s2 % 4,
                                   tri.perm[s1])
        if outcome is not GlueOutcome.OK:
            break
    assert outcome is GlueOutcome.BAD_GENUS, outcome
    print(f"criterion 6: replay rejects gluing {k} of {len(pairs)} "
          f"with {outcome}")

    # the search engine agrees: this prefix cannot come from its own tree
    prefix = tuple(tri.perm[s1] for s1, _ in pairs)
    eng = load_backend()
    with pytest.raises(ValueError, match="fails its own checks"):
        eng.search_pairing(tri.n, "all", 2, 0, tuple(tri.adj), prefix=prefix)


@functools.lru_cache(maxsize=None)
def brute(n: int):
    return brute_census(n)


def test_criterion_07_brute_force_cross_check():
    """Exhaustive gluing enumeration and the pruned search produce the
    same signature sets for n = 1 and 2, inside a minute."""
    t0 = time.perf_counter()
    for n in (1, 2):
        reps, _ = brute(n)
        brute_sigs = sorted(iso_signature(t) for t in reps)
        assert brute_sigs == timed_census(n)[0].signatures(), f"n={n}"
    wall = time.perf_counter() - t0
    print(f"criterion 7: brute force agrees for n=1,2 in {wall:.1f}s")
    assert wall < 60.0


def test_criterion_08_property_fuzz_campaigns():
    """Each randomized battle runs >= 10^4 checked cases: union-find vs
    relation graph, cycle surgery and undo vs endpoint matching, link
    tracker vs from-scratch builder, and the find_last cost fit."""
    checks = 0
    trial = 0
    while checks < 10_000:
        checks += dsu_fuzz_trial(trial)
        trial += 1
    print(f"criterion 8: dsu {checks} checks over {trial} trials")

    checks = 0
    trial = 0
    while checks < 10_000:
        checks += skiplist_fuzz_trial(trial)
        trial += 1
    print(f"criterion 8: skiplist {checks} checks over {trial} trials")

    checks = 0
    trial = 0
    while checks < 10_000:
        checks += linktrack_fuzz_trial(trial)
        trial += 1
    print(f"criterion 8: linktrack {checks} checks over {trial} trials")

    # find_last cost: logarithmic fit, emphatically not linear, up to 2^14
    rng = random.Random(14)
    means = {}
    for m in (2**6, 2**10, 2**14):
        sl = CyclicSkipList(m, seed=m)
        sl.make_cycle([(k, 0) for k in range(m)])
        costs = [sl.find_last(rng.randrange(m), _count_steps=True)[1]
                 for _ in range(200)]
        means[m] = statistics.fmean(costs)
        assert means[m] <= 6.0 * math.log2(m), (m, means[m])
    assert means[2**14] < 0.01 * 2**14, "walk cost looks linear"
    assert means[2**14] - means[2**6] <= 4.0 * math.log2(2**14 / 2**6)
    print(f"criterion 8: find_last means {means}")


def test_criterion_09_signature_invariance():
    """10^3 random relabellings per census member (n <= 3) never change
    the signature, and for n <= 2 the signature classes are exactly the
    relabelling-orbit classes of the brute census."""
    rng = random.Random(9)
    for n in (1, 2, 3):
        sigs = timed_census(n)[0].signatures()
        for sig in sigs:
            tri = decode_signature(sig)
            for _ in range(1000):
                tet_map = list(range(n))
                rng.shuffle(tet_map)
                vertex_maps = [rng.randrange(24) for _ in range(n)]
                assert iso_signature(relabel(tri, tet_map, vertex_maps)) == sig
        print(f"criterion 9: n={n}: {len(sigs)} triangulations x 1000 relabellings")
    for n in (1, 2):
        reps, _ = brute(n)
        assert len(reps) == len(timed_census(n)[0].signatures())
