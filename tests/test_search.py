"""Census search: totals, levels, backends, job splitting, formats."""

import collections
import functools
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import census, fast_backend_available, imported_modules, needs_fast
from linkcensus import search
from linkcensus.core import Triangulation, decode_signature, is_orientable, iso_signature
from linkcensus.fpg import automorphisms, enumerate_pairings, pairs_of
from linkcensus.perms import GLUING_PERMS
from linkcensus.search import (
    AUTO_DEPTH,
    COUNTERS,
    JobDescriptor,
    PairingRow,
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
from linkcensus.search import _KERNEL_COUNTERS, _branch_maps, _ties
from linkcensus.validate import is_3manifold
from oracles import least_gluings

# manifold triangulation counts by size: (total, orientable, nonorientable)
CENSUS_COUNTS = {
    1: (4, 4, 0),
    2: (17, 16, 1),
    3: (81, 76, 5),
    4: (577, 532, 45),
    5: (5184, 4807, 377),
}

BACKENDS = ["py"] + (["fast"] if fast_backend_available() else [])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_counts(n):
    res = census(n)
    total, orientable, nonorientable = CENSUS_COUNTS[n]
    assert res.total == total
    assert res.orientable == orientable
    assert res.nonorientable == nonorientable
    sigs = res.signatures()
    assert len(sigs) == total == len(set(sigs))


@needs_fast
def test_census_counts_size_four():
    assert (census(4).total, census(4).orientable,
            census(4).nonorientable) == CENSUS_COUNTS[4]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_levels_agree(n):
    baseline = census(n, level=2).signatures()
    assert census(n, level=1).signatures() == baseline
    assert census(n, level=0).signatures() == baseline


@pytest.mark.parametrize("mode", ["orientable", "nonorientable"])
def test_modes_partition_the_census(mode):
    for n in (1, 2, 3):
        full = census(n)
        part = census(n, mode=mode)
        want = (full.orientable if mode == "orientable"
                else full.nonorientable)
        assert part.total == want
        assert set(part.signatures()) <= set(full.signatures())
    both = set(census(3, mode="orientable").signatures()) | set(
        census(3, mode="nonorientable").signatures())
    assert both == set(census(3).signatures())


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_counters_and_rows(backend):
    """Both engines report identical rows, counters included."""
    for n in (1, 2, 3):
        for mode in ("all", "orientable", "nonorientable"):
            for level in (1, 2):
                cfg = SearchConfig(n=n, mode=mode, level=level)
                assert enumerate_census(cfg, backend=backend) == census(
                    n, mode=mode, level=level)
    cfg = SearchConfig(n=2, mode="all", level=0)
    assert enumerate_census(cfg, backend=backend) == census(2, level=0)


def test_leaves_decode_to_manifolds():
    for n in (1, 2):
        for row in census(n).rows:
            for sig, orient in ([(s, True) for s in row.orient_sigs]
                                + [(s, False) for s in row.nonor_sigs]):
                tri = decode_signature(sig)
                assert tri.n == n
                assert is_3manifold(tri)
                assert is_orientable(tri) == orient


def test_signatures_unique_across_pairings():
    """No isomorphism class is double-counted between pairings."""
    for n in (1, 2, 3):
        sigs = census(n).signatures()
        dupes = [s for s, k in collections.Counter(sigs).items() if k > 1]
        assert dupes == []


def test_search_is_deterministic_and_seed_free():
    a = enumerate_census(SearchConfig(n=2))
    b = enumerate_census(SearchConfig(n=2))
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=0)
    with pytest.raises(ValueError):
        SearchConfig(n=1, mode="both")
    with pytest.raises(ValueError):
        SearchConfig(n=1, level=3)
    SearchConfig(n=4, level=0)
    with pytest.raises(ValueError, match="level 0 is limited to n <= 4"):
        SearchConfig(n=5, level=0)  # no override
    with pytest.raises(ValueError, match="size must be at least 1"):
        SearchConfig(n=2)._replace(n=0)
    assert list(SearchConfig._fields) == ["n", "mode", "level"]


def test_value_classes_compare_hash_and_pickle():
    """Worker processes pickle jobs and results; a result's equality and
    hash ignore the jobs it covers."""
    jobs, partial = split_jobs(SearchConfig(n=2), 1)
    result = merge([partial, *map(run_job, jobs)], jobs)
    other = result._replace(jobs=result.jobs[:1])
    assert result == other and not result != other and hash(result) == hash(other)
    assert result != result._replace(rows=result.rows[:1])
    for value in (SearchConfig(n=2), jobs[0], result.rows[0], result):
        assert pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(AttributeError):
            value.config = None


def test_load_backend(monkeypatch):
    assert load_backend("py").BACKEND_NAME == "py"
    assert load_backend("auto").BACKEND_NAME in ("py", "fast")
    with pytest.raises(ValueError):
        load_backend("turbo")
    monkeypatch.setenv("LINKCENSUS_BACKEND", "py")
    assert load_backend().BACKEND_NAME == "py"
    monkeypatch.setenv("LINKCENSUS_BACKEND", "nope")
    with pytest.raises(ValueError):
        load_backend()


@pytest.mark.parametrize("depth", [0, 1, 2, 99])
def test_split_run_merge_reproduces_census(depth):
    config = SearchConfig(n=2)
    jobs, partial = split_jobs(config, depth)
    results = [run_job(job) for job in jobs]
    assert merge(results + [partial], jobs) == census(2)
    if depth == 0:
        # one job per pairing, replaying from the root
        assert [j.prefix for j in jobs] == [()] * len(list(enumerate_pairings(2)))
    if depth == 99:
        # cap beyond the tree: nothing left to do
        assert jobs == []
        assert merge([partial], jobs) == census(2)


def _split_run_merge(n: int, depth: int, backend: str):
    jobs, partial = split_jobs(SearchConfig(n=n), depth, backend)
    return merge([partial, *(run_job(job, backend) for job in jobs)], jobs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", [0, 3, 4, 5, 99])
def test_split_counters_across_auto_depth(backend, depth):
    """n=3 has six pairs, so the automorphism filter stops one pair short
    of the leaves, at 5: its splits fall above, at and beyond that depth;
    every counter matches."""
    merged = _split_run_merge(3, depth, backend)
    assert merged == census(3)
    assert merged.counts()["prune_auto"] > 0


@needs_fast
@pytest.mark.parametrize("depth", [0, AUTO_DEPTH - 1, AUTO_DEPTH,
                                   AUTO_DEPTH + 1, 99])
def test_split_counters_below_auto_depth(depth):
    """n=4 has eight pairs, so the filter stops at AUTO_DEPTH and some
    splits fall below it; every counter matches."""
    merged = _split_run_merge(4, depth, "fast")
    assert merged == census(4)
    assert merged.counts()["prune_auto"] > 0


#: level-2 counters of census(n) on the compiled kernel, in COUNTERS
#: order; a change to the search's shape changes these
SEARCH_SHAPE = {
    3: (1_944, 412, 501, 412, 178, 121),
    4: (33_840, 9_059, 7_497, 9_483, 815, 1_356),
    5: (775_206, 243_159, 141_196, 239_306, 3_493, 18_879),
}


@needs_fast
@pytest.mark.parametrize("n", sorted(SEARCH_SHAPE))
def test_search_shape_is_pinned(n):
    assert tuple(census(n, backend="fast").counts().values()) == SEARCH_SHAPE[n]


#: kernel calls of the census by size, split at depth 0 or 2 and its
#: jobs run; n=5 at depths 0 and 2 are the census-n5 and jobs-n5 workloads
KERNEL_CALLS = {4: 1_095, 5: 3_743}

#: `_ties` calls of the same runs by (size, split depth): the filter's work
TIES_CALLS = {(4, 0): 1_920, (4, 2): 1_969, (5, 0): 7_264, (5, 2): 7_405}


def _kernel_caps(monkeypatch) -> list:
    """The `depth_cap` of every compiled-kernel call from now on."""
    eng = load_backend("fast")
    search_pairing, caps = eng.search_pairing, []

    def counted(*args, **kwargs):
        caps.append(kwargs.get("depth_cap"))
        return search_pairing(*args, **kwargs)

    monkeypatch.setattr(eng, "search_pairing", counted)
    return caps


@needs_fast
@pytest.mark.parametrize("n", sorted(KERNEL_CALLS))
@pytest.mark.parametrize("depth", [0, 2])
def test_every_kernel_call_has_a_depth_cap(monkeypatch, n, depth):
    """Splits and jobs alike pass the kernel an integer `depth_cap`; a job
    caps at the leaves, where both kernels count a leaf before they would
    write a frontier, so the calls and counters are those of a search
    with no cap.  The `_ties` calls pin the filter's work."""
    caps = _kernel_caps(monkeypatch)
    prefixes = []

    def counted_ties(prefix, tied):
        prefixes.append(prefix)
        return _ties(prefix, tied)

    monkeypatch.setattr(search, "_ties", counted_ties)
    merged = _split_run_merge(n, depth, "fast")
    assert tuple(merged.counts().values()) == SEARCH_SHAPE[n]
    assert len(caps) == KERNEL_CALLS[n]
    assert all(type(cap) is int for cap in caps)
    assert len(prefixes) == TIES_CALLS[n, depth]


@needs_fast
@pytest.mark.parametrize("depth", [0, 2])
def test_the_maps_alone_set_the_filter_depth(monkeypatch, depth):
    """Maps cut at 6 rather than AUTO_DEPTH filter the n=5 splits and jobs
    down to 6 glued pairs, with no other depth in the way: fewer nodes,
    more kernel calls, the same classes."""
    sigs = census(5, backend="fast").signatures()
    monkeypatch.setattr(search, "_MAPS", {
        fp: _branch_maps(fp, autos, 6) for fp, autos in enumerate_pairings(5)})
    caps = _kernel_caps(monkeypatch)
    merged = _split_run_merge(5, depth, "fast")
    assert tuple(merged.counts().values()) == (
        524_034, 165_667, 91_033, 161_097, 6_583, 12_343)
    assert len(caps) == 7_428
    assert merged.signatures() == sigs


@needs_fast
def test_kernels_return_the_same_counters():
    """Each kernel returns its own five counters, not prune_auto; only the
    compiled kernel's boundary_peak is extra."""
    fp, _ = next(enumerate_pairings(2))
    raws = [load_backend(b).search_pairing(2, "all", 2, 0, fp)
            for b in ("py", "fast")]
    keys = [set(raw) - {"orient_sigs", "nonor_sigs", "frontier"}
            for raw in raws]
    assert keys[0] == keys[1] - {"boundary_peak"} == set(_KERNEL_COUNTERS)
    assert [raws[0][c] for c in _KERNEL_COUNTERS] == [
        raws[1][c] for c in _KERNEL_COUNTERS]


@functools.cache
def _full_depth_maps() -> list[tuple[tuple[int, ...], tuple[search.Map, ...]]]:
    return [(fp, _branch_maps(fp, autos, 2 * n)) for n in (1, 2, 3, 4)
            for fp, autos in enumerate_pairings(n)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tie_cursor_matches_the_root_ties(data):
    """Ties advanced one pair at a time keep and drop the same prefixes as
    the root ties advanced over the whole prefix, and a drop is final."""
    fp, maps = data.draw(st.sampled_from(_full_depth_maps()))
    pairs = pairs_of(fp)
    ties, prefix = [(m, 0) for m in maps], ()
    for s, p in pairs[:data.draw(st.integers(0, len(pairs)))]:
        prefix += (data.draw(st.sampled_from(GLUING_PERMS[s % 4][p % 4])),)
        if ties is not None:
            ties = _ties(prefix, ties)
        least = _ties(prefix, [(m, 0) for m in maps]) is not None
        assert (ties is not None) == least, prefix


def test_a_map_step_sends_a_gluing_to_an_isomorphic_one():
    """Each map at full depth sends a complete gluing g to the gluing h
    with h[k] = table[g[src]] for the step (src, table) at k: every h[k]
    glues pair k, and h is the same triangulation as g up to relabelling.
    The check reads only the map's steps, not how they were built."""
    rng = random.Random(5)
    for fp, maps in _full_depth_maps():
        pairs = pairs_of(fp)
        if len(pairs) > 6:
            continue
        for _ in range(5):
            g = [rng.choice(GLUING_PERMS[s1 % 4][s2 % 4]) for s1, s2 in pairs]
            for m in maps:
                assert len(m) == len(pairs)
                h = [table[g[src]] for src, table in m]
                for (s1, s2), pi in zip(pairs, h):
                    assert pi in GLUING_PERMS[s1 % 4][s2 % 4]
                assert _gluing_signature(fp, g) == _gluing_signature(fp, h)


def _gluing_signature(fp: tuple[int, ...], gluing: list[int]) -> str:
    tri = Triangulation(len(fp) // 4)
    for (s1, s2), pi in zip(pairs_of(fp), gluing):
        tri.glue(s1, s2, pi)
    return iso_signature(tri)


@pytest.mark.parametrize("backend,n", [("py", n) for n in (1, 2, 3)] + [
    pytest.param("fast", n, marks=needs_fast) for n in (1, 2, 3, 4, 5)])
def test_full_depth_filter_keeps_one_gluing_per_class(backend, n):
    """Filtered at every depth, each isomorphism class is reached once:
    per pairing, every leaf is kept and gives a signature no other leaf
    gives, and together the pairings give the census."""
    eng = load_backend(backend)
    orient, nonor = [], []
    for fp, autos in enumerate_pairings(n):
        leaves, o, no = least_gluings(eng, n, fp, autos)
        assert leaves == len(o) + len(no) == len(set(o + no)), fp
        orient += o
        nonor += no
    assert (len(orient) + len(nonor), len(orient), len(nonor)) == CENSUS_COUNTS[n]
    assert sorted(orient + nonor) == census(n).signatures()


@needs_fast
def test_jobs_transfer_between_backends():
    """Jobs split by one engine replay exactly on the other."""
    config = SearchConfig(n=2)
    jobs, partial = split_jobs(config, 2, backend="py")
    results = [run_job(job, backend="fast") for job in jobs]
    assert merge(results + [partial], jobs) == census(2)
    jobs, partial = split_jobs(config, 2, backend="fast")
    results = [run_job(job, backend="py") for job in jobs]
    assert merge(results + [partial], jobs) == census(2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_corrupt_jobs_rejected(backend):
    config = SearchConfig(n=2)
    jobs, _ = split_jobs(config, 1)
    job = jobs[0]
    too_long = JobDescriptor(config, job.pairing_index, job.pairing,
                             (0,) * 20)
    with pytest.raises(ValueError, match="prefix longer"):
        run_job(too_long, backend=backend)
    # nor a prefix that glues every pair, even one that passes its checks
    with pytest.raises(ValueError, match="^corrupt job: the prefix glues every pair$"):
        run_job(parse_job(FULL_PREFIX_JOB), backend=backend)
    bad_perm = JobDescriptor(config, job.pairing_index, job.pairing, (23,))
    with pytest.raises(ValueError, match="permutation 23 invalid"):
        run_job(bad_perm, backend=backend)
    # a branch the kernel pruned cannot come from split_jobs
    eng = load_backend(backend)
    kept = eng.search_pairing(2, "all", 2, 0, job.pairing, depth_cap=1)["frontier"]
    s1, s2 = pairs_of(job.pairing)[0]
    pruned = [
        (pi,) for pi in GLUING_PERMS[s1 % 4][s2 % 4] if (pi,) not in kept
    ]
    assert pruned, "expected at least one pruned first gluing"
    with pytest.raises(ValueError, match="fails its own checks at pair 0"):
        run_job(JobDescriptor(config, job.pairing_index, job.pairing,
                              pruned[0]), backend=backend)
    # nor can one the kernel keeps but the automorphism filter drops
    survivors = {j.id for j in jobs}
    dropped = [(index, fp, prefix)
               for index, (fp, _) in enumerate(enumerate_pairings(2))
               for prefix in eng.search_pairing(2, "all", 2, 0, fp,
                                                depth_cap=1)["frontier"]
               if (index, prefix) not in survivors]
    assert dropped, "expected a first gluing the filter drops"
    for index, fp, prefix in dropped:
        with pytest.raises(ValueError, match="maps the prefix to a smaller one"):
            run_job(JobDescriptor(config, index, fp, prefix), backend=backend)


#: a job whose prefix is a complete gluing that passes every check
FULL_PREFIX_JOB = ("n=2 mode=all level=2 index=0 | 2 ; 0.1 0.0 1.0 1.1 "
                   "0.2 0.3 1.3 1.2 | 0=0:1 2=1:4 3=1:12 6=1:6")

#: a canonical pairing of two tetrahedra each glued to itself
DISCONNECTED_JOB = ("n=2 mode=all level=2 index=0 | "
                    "2 ; 0.1 0.0 0.3 0.2 1.1 1.0 1.3 1.2 |")


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_job_refuses_a_disconnected_pairing(backend):
    """No census enumerates a disconnected pairing, so neither kernel
    searches one."""
    with pytest.raises(ValueError, match="^pairing is not connected$"):
        run_job(parse_job(DISCONNECTED_JOB), backend=backend)


def test_each_pairing_maps_are_built_once(monkeypatch):
    """Two splits and all their jobs in one process build each pairing's
    maps once, from the automorphisms the enumeration yields; a process
    that only runs the jobs scans each pairing once."""
    builds, scans = collections.Counter(), []

    def build(pairing, autos, depth):
        builds[pairing] += 1
        return _branch_maps(pairing, autos, depth)

    def scan(pairing):
        scans.append(pairing)
        return automorphisms(pairing)

    monkeypatch.setattr(search, "_MAPS", {})
    monkeypatch.setattr(search, "_branch_maps", build)
    monkeypatch.setattr(search, "automorphisms", scan)
    pairings = [fp for fp, _ in enumerate_pairings(4)]
    jobs = [job for depth in (0, 2)
            for job in split_jobs(SearchConfig(n=4), depth)[0]]
    for job in jobs:
        run_job(job)
    assert sorted(builds) == pairings and sum(builds.values()) == 10
    assert scans == []
    monkeypatch.setattr(search, "_MAPS", {})
    for job in jobs:
        run_job(job)
    assert sorted(scans) == pairings and sum(builds.values()) == 20


def test_summary_and_stats_formats():
    res = census(1)
    assert summary_line(res) == (
        f"n=1 mode=all total=4 orientable=4 nonorientable=0 nodes={res.nodes}"
    )
    lines = stats_csv(res).splitlines()
    assert lines[0] == ("pairing_index,nodes,prune_orient,prune_edge,"
                        "prune_genus,prune_auto,leaves,kept")
    assert len(lines) == 1 + len(res.rows)
    first = res.rows[0]
    assert lines[1] == (f"{first.index},{first.nodes},{first.prune_orient},"
                        f"{first.prune_edge},{first.prune_genus},"
                        f"{first.prune_auto},{first.leaves},{first.kept}")


def test_counters_are_the_one_list():
    """Row fields, CSV columns, JSON rows and totals all follow COUNTERS."""
    assert list(PairingRow._fields) == ["index", *COUNTERS, "orient_sigs", "nonor_sigs"]
    res = census(3)
    assert stats_csv(res).splitlines()[0] == ",".join(
        ("pairing_index", *COUNTERS, "kept"))
    rows = result_to_dict(res)["rows"]
    assert {len(row) for row in rows} == {len(COUNTERS) + 3}
    assert [row[1:-2] for row in rows] == [
        [getattr(r, c) for c in COUNTERS] for r in res.rows]
    assert res.counts() == {c: sum(getattr(r, c) for r in res.rows)
                            for c in COUNTERS}
    assert list(res.counts()) == list(COUNTERS)
    assert res.counts()["nodes"] == res.nodes


def _set_row(data, col, value):
    row = list(data["rows"][0])
    row[col] = value
    return {**data, "rows": [row, *data["rows"][1:]]}


#: row columns of the orientable and the non-orientable signatures
ORIENT_COL, NONOR_COL = len(COUNTERS) + 1, len(COUNTERS) + 2

#: results that are well shaped but not what result_to_dict writes
MALFORMED_RESULTS = (
    lambda d: _set_row(d, 1, str(d["rows"][0][1])),  # a string count
    lambda d: _set_row(d, 2, -7),                    # a negative count
    lambda d: _set_row(d, 5, True),                  # a bool count
    lambda d: _set_row(d, 0, 1.0),                   # a float index
    lambda d: _set_row(d, ORIENT_COL, "abc"),        # a string, not a list
    lambda d: _set_row(d, NONOR_COL, [3]),           # a non-string signature
    lambda d: {**d, "rows": {}},
    lambda d: {**d, "rows": [*d["rows"], d["rows"][0]]},  # a row repeated
    lambda d: {**d, "jobs": [["0", []]]},
    lambda d: {**d, "jobs": [[0, [-1]]]},
    lambda d: {**d, "jobs": [[0, "12"]]},
    lambda d: {**d, "jobs": 5},
    lambda d: {**d, "config": {**d["config"], "n": "2"}},
    lambda d: {**d, "config": {**d["config"], "level": None}},
)


def test_result_dict_roundtrip():
    res = census(2)
    assert result_from_dict(result_to_dict(res)) == res
    data = result_to_dict(res)
    for bad in ([data], {"config": data["config"]}):
        with pytest.raises(ValueError, match="config and rows"):
            result_from_dict(bad)
    with pytest.raises(ValueError, match="config has keys"):
        result_from_dict({**data, "config": {**data["config"], "seed": 0}})
    with pytest.raises(ValueError, match=f"{len(COUNTERS) + 3} columns"):
        result_from_dict({**data, "rows": [row[:-2] + [24] + row[-2:]
                                           for row in data["rows"]]})
    # a result without job ids cannot be checked for exactly-once merging
    with pytest.raises(ValueError, match="expected \\['config', 'jobs', 'rows'\\]"):
        result_from_dict({"config": data["config"], "rows": data["rows"]})
    for rows, jobs in (([5], []), ([], [[0]]), ([], [[0, 5]])):
        with pytest.raises(ValueError, match="malformed result"):
            result_from_dict({**data, "rows": rows, "jobs": jobs})
    for bad in MALFORMED_RESULTS:
        with pytest.raises(ValueError, match="malformed result"):
            result_from_dict(bad(data))
    # signatures are strings here: a size-1 one, and one that does not
    # glue back, are left to the merge command
    for col, sig in ((ORIENT_COL, "1;01010606"), (NONOR_COL, "2;0101101011110001")):
        assert result_from_dict(_set_row(data, col, [sig])).rows[0][col] == (sig,)
    jobs, _ = split_jobs(SearchConfig(n=2), 1)
    part = merge([run_job(job) for job in jobs], jobs)
    back = result_from_dict(result_to_dict(part))
    assert back == part and back.jobs == part.jobs == tuple(j.id for j in jobs)


def test_job_line_roundtrip():
    """Every SearchConfig field survives the job line."""
    for config in (SearchConfig(n=2), SearchConfig(n=2, mode="orientable"),
                   SearchConfig(n=2, mode="nonorientable", level=1),
                   SearchConfig(n=2, level=0)):
        jobs, _ = split_jobs(config, 2)
        assert jobs, "depth-2 split of n=2 must leave work"
        for job in jobs:
            assert parse_job(format_job(job)) == job


def test_job_line_rejects_tampering():
    jobs, _ = split_jobs(SearchConfig(n=2), 1)
    line = format_job(jobs[0])
    with pytest.raises(ValueError):
        parse_job(line.replace("|", "/"))
    head, pairing, prefix = (p.strip() for p in line.split("|"))
    slot, _, rest = prefix.split()[0].partition("=")
    tet, _, pi = rest.partition(":")
    forged = f"{head} | {pairing} | {slot}={int(tet) + 1}:{pi}"
    with pytest.raises(ValueError, match="does not match the pairing"):
        parse_job(forged)
    with pytest.raises(ValueError, match="lacks level="):
        parse_job(line.replace(" level=2", ""))
    # face digits stop at 3: slot 0.4 must not read as slot 1.0
    assert " 1.0 " in pairing
    with pytest.raises(ValueError, match="bad partner token '0.4'"):
        parse_job(line.replace(" 1.0 ", " 0.4 ", 1))
    # the previous format carried a seed= key
    with pytest.raises(ValueError, match="unknown key 'seed'"):
        parse_job(line.replace(" index=", " seed=0 index="))
    with pytest.raises(ValueError, match="unknown key 'x'"):
        parse_job("x " + line)
    with pytest.raises(ValueError, match="job index -1 is negative"):
        parse_job(line.replace(" index=0 ", " index=-1 "))
    # a repeated key is refused, not read as its last value
    with pytest.raises(ValueError, match="job line repeats index="):
        parse_job(line.replace(" index=0 ", " index=0 index=1 "))
    with pytest.raises(ValueError, match="job line repeats mode="):
        parse_job(line.replace(" mode=all ", " mode=all mode=orientable "))
    # the previous format carried a force_level0= key
    with pytest.raises(ValueError, match="unknown key 'force_level0'"):
        parse_job(line.replace(" index=", " force_level0=0 index="))
    # n=1 has two pairs: a third token must not index past them
    with pytest.raises(ValueError, match="3 tokens but the pairing has only 2"):
        parse_job("n=1 mode=all level=2 index=0 | 1 ; 0.1 0.0 0.3 0.2 "
                  "| 0=0:1 2=0:6 2=0:6")


def test_search_never_reads_a_signature():
    """`search` sorts, unions and counts signatures but imports nothing
    that could decode one."""
    assert "core" not in imported_modules(Path(search.__file__))


def test_split_jobs_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="split depth must be nonnegative"):
        split_jobs(SearchConfig(n=2), -1)


@functools.lru_cache(maxsize=None)
def _n2_job_lines() -> list[str]:
    return [format_job(job) for job in split_jobs(SearchConfig(n=2), 2)[0]]


def _prefix_tokens(pairing: tuple[int, ...]) -> list[str]:
    """Every well-formed prefix token of the pairing, in pair order."""
    return [f"{s}={p // 4}:{pi}" for s, p in pairs_of(pairing)
            for pi in GLUING_PERMS[s % 4][p % 4]]


#: (operation, position, second position or pool entry)
EDITS = st.tuples(st.sampled_from(("drop", "duplicate", "swap", "append")),
                  st.integers(0, 99), st.integers(0, 99))


@given(st.integers(0, 99), st.lists(EDITS, max_size=8))
# extend a depth-2 prefix with tokens for pairs 2 and 3, then one more
@example(0, [("append", 0, 12), ("append", 0, 18), ("append", 0, 0)])
@settings(max_examples=200, deadline=None)
def test_parse_job_raises_only_value_error(which, edits):
    """A job line whose prefix tokens were dropped, duplicated, swapped
    or appended parses to a job or raises ValueError, nothing else."""
    lines = _n2_job_lines()
    line = lines[which % len(lines)]
    head, pairing, prefix = line.split(" | ")
    toks = prefix.split()
    pool = _prefix_tokens(parse_job(line).pairing)
    for op, i, j in edits:
        if op == "append":
            toks.append(pool[j % len(pool)])
        elif not toks:
            continue
        elif op == "drop":
            del toks[i % len(toks)]
        elif op == "duplicate":
            toks.insert(i % len(toks), toks[i % len(toks)])
        else:
            i, j = i % len(toks), j % len(toks)
            toks[i], toks[j] = toks[j], toks[i]
    try:
        job = parse_job(f"{head} | {pairing} | {' '.join(toks)}")
    except ValueError:
        return
    assert isinstance(job, JobDescriptor) and len(job.prefix) == len(toks)


@functools.lru_cache(maxsize=None)
def _n3_jobs():
    jobs, partial = split_jobs(SearchConfig(n=3), 2)
    return jobs, partial, [run_job(job) for job in jobs]


@given(st.lists(st.frozensets(st.integers(0, 2), max_size=2),
                min_size=17, max_size=17))
@example([frozenset({k % 3}) for k in range(17)])  # every job once
@settings(max_examples=80, deadline=None)
def test_merge_counts_every_job_exactly_once(homes):
    """Jobs dealt to up to three parts: some to none, some to two.  Each
    part is merged with the jobs dealt to it."""
    jobs, partial, results = _n3_jobs()
    assert len(jobs) == 17
    dealt = [[k for k, home in enumerate(homes) if part in home]
             for part in range(3)]
    parts = [merge([results[k] for k in ks], [jobs[k] for k in ks])
             for ks in dealt if ks]
    if any(len(home) > 1 for home in homes):
        with pytest.raises(ValueError, match="covered twice"):
            merge([partial] + parts, jobs)
        return
    covered = [job for job, home in zip(jobs, homes) if home]
    merged = merge([partial] + parts, covered)
    assert merged.jobs == tuple(sorted(job.id for job in covered))
    if all(homes):
        assert merged == census(3)
    else:
        with pytest.raises(ValueError, match="have no result"):
            merge([partial] + parts, jobs)
    if covered:
        with pytest.raises(ValueError, match="not in the jobs file"):
            merge([partial] + parts, covered[1:])


def test_merge_refuses_rows_no_job_could_have_written():
    """A result that covers jobs holds rows for their pairings only (the
    split's partial covers none and holds them all), and no class is held
    twice, since a triangulation fixes its face pairing and its
    orientability."""
    jobs, partial, results = _n3_jobs()
    k = next(k for k, res in enumerate(results) if res.rows[0].index == 3)
    row = results[k].rows[0]
    sig1, sig3 = (census(3).rows[index].orient_sigs[0] for index in (1, 3))
    outside = "a result holds a row for pairing {}, which none of its jobs is in"
    twice = "class {} is held twice, by pairings {} and 3"
    for bad, error in ((row._replace(index=2), outside.format(2)),
                       (row._replace(index=9), outside.format(9)),
                       (row._replace(orient_sigs=row.orient_sigs + (sig1,)),
                        twice.format(sig1, 1)),
                       (row._replace(nonor_sigs=row.nonor_sigs + (sig3,)),
                        twice.format(sig3, 3))):
        tampered = results[k]._replace(rows=(bad,))
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            merge([partial, *results[:k], tampered, *results[k + 1:]], jobs)


def test_merge_validation():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge([], [])
    # only the split's partial covers no job: a second copy would add its
    # nodes again (2,016 at n=3 instead of 1,944)
    jobs, partial, results = _n3_jobs()
    with pytest.raises(ValueError, match="^2 results cover no job; only the "
                                         "split's partial may$"):
        merge([partial, partial, *results], jobs)
    # parts of splits at depths 1 and 2 would count depth-2 subtrees twice
    config = SearchConfig(n=2)
    shallow, deep = (split_jobs(config, depth)[0] for depth in (1, 2))
    parts = [merge([run_job(job) for job in jobs], jobs)
             for jobs in (shallow, deep)]
    with pytest.raises(ValueError, match="inside another job"):
        merge(parts, shallow + deep)
    with pytest.raises(ValueError, match="different configurations"):
        merge([census(1), census(2)], [])
    # the jobs belong to the census as much as the results do
    orientable, _ = split_jobs(SearchConfig(n=2, mode="orientable"), 0)
    with pytest.raises(ValueError, match="different configurations"):
        merge([census(2)], orientable)
