"""Census search: totals, levels, backends, job splitting, formats."""

import collections

import pytest

from conftest import census, fast_backend_available, needs_fast
from linkcensus.core import decode_signature, is_orientable
from linkcensus.fpg import enumerate_pairings
from linkcensus.perms import GLUING_PERMS
from linkcensus.search import (
    JobDescriptor,
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
from linkcensus.validate import is_3manifold

# manifold triangulation counts by size: (total, orientable, nonorientable)
CENSUS_COUNTS = {
    1: (4, 4, 0),
    2: (17, 16, 1),
    3: (81, 76, 5),
    4: (577, 532, 45),
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
    with pytest.raises(ValueError, match="force_level0"):
        SearchConfig(n=5, level=0)
    SearchConfig(n=5, level=0, force_level0=True)  # explicit override


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
    assert merge(results + [partial]) == census(2)
    if depth == 0:
        # one job per pairing, replaying from the root
        assert [j.prefix for j in jobs] == [()] * len(list(enumerate_pairings(2)))
    if depth == 99:
        # cap beyond the tree: nothing left to do
        assert jobs == []
        assert merge([partial]) == census(2)


@needs_fast
def test_jobs_transfer_between_backends():
    """Jobs split by one engine replay exactly on the other."""
    config = SearchConfig(n=2)
    jobs, partial = split_jobs(config, 2, backend="py")
    results = [run_job(job, backend="fast") for job in jobs]
    assert merge(results + [partial]) == census(2)
    jobs, partial = split_jobs(config, 2, backend="fast")
    results = [run_job(job, backend="py") for job in jobs]
    assert merge(results + [partial]) == census(2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_corrupt_jobs_rejected(backend):
    config = SearchConfig(n=2)
    jobs, _ = split_jobs(config, 1)
    job = jobs[0]
    too_long = JobDescriptor(config, job.pairing_index, job.pairing,
                             (0,) * 20)
    with pytest.raises(ValueError, match="prefix longer"):
        run_job(too_long, backend=backend)
    bad_perm = JobDescriptor(config, job.pairing_index, job.pairing, (23,))
    with pytest.raises(ValueError, match="permutation 23 invalid"):
        run_job(bad_perm, backend=backend)
    # a branch the search pruned cannot come from split_jobs
    survivors = {j.prefix for j in jobs if j.pairing_index == job.pairing_index}
    s1 = next(s for s, p in enumerate(job.pairing) if s < p)
    s2 = job.pairing[s1]
    pruned = [
        (pi,) for pi in GLUING_PERMS[s1 % 4][s2 % 4] if (pi,) not in survivors
    ]
    assert pruned, "expected at least one pruned first gluing"
    with pytest.raises(ValueError, match="fails its own checks at pair 0"):
        run_job(JobDescriptor(config, job.pairing_index, job.pairing,
                              pruned[0]), backend=backend)


def test_summary_and_stats_formats():
    res = census(1)
    assert summary_line(res) == (
        f"n=1 mode=all total=4 orientable=4 nonorientable=0 nodes={res.nodes}"
    )
    lines = stats_csv(res).splitlines()
    assert lines[0] == "pairing_index,nodes,prune_orient,prune_edge,prune_genus,leaves,kept"
    assert len(lines) == 1 + len(res.rows)
    first = res.rows[0]
    assert lines[1] == (f"{first.index},{first.nodes},{first.prune_orient},"
                        f"{first.prune_edge},{first.prune_genus},"
                        f"{first.leaves},{first.kept}")


def test_result_dict_roundtrip():
    res = census(2)
    assert result_from_dict(result_to_dict(res)) == res
    data = result_to_dict(res)
    for bad in ([data], {"config": data["config"]}):
        with pytest.raises(ValueError, match="config and rows"):
            result_from_dict(bad)
    with pytest.raises(ValueError, match="config has keys"):
        result_from_dict({**data, "config": {**data["config"], "seed": 0}})
    with pytest.raises(ValueError, match="8 columns"):
        result_from_dict({**data, "rows": [row[:6] + [24] + row[6:]
                                           for row in data["rows"]]})


def test_job_line_roundtrip():
    """Every SearchConfig field survives the job line."""
    for config in (SearchConfig(n=2), SearchConfig(n=2, mode="orientable"),
                   SearchConfig(n=2, mode="nonorientable", level=1),
                   SearchConfig(n=2, level=0, force_level0=True)):
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
    # the previous format carried a seed= key
    with pytest.raises(ValueError, match="unknown key 'seed'"):
        parse_job(line.replace(" index=", " seed=0 index="))
    with pytest.raises(ValueError, match="unknown key 'x'"):
        parse_job("x " + line)
    with pytest.raises(ValueError, match="force_level0 must be 0 or 1"):
        parse_job(line.replace("force_level0=0", "force_level0=yes"))


def test_merge_validation():
    with pytest.raises(ValueError):
        merge([])
    with pytest.raises(ValueError, match="different configurations"):
        merge([census(1), census(2)])
