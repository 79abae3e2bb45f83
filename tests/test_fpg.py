"""Face pairing enumeration and canonicity against orbit brute force."""

import itertools
import random

import pytest

from linkcensus.core import UnionFind
from linkcensus.fpg import (
    automorphisms,
    enumerate_pairings,
    format_pairing,
    graph_of,
    graph_summary,
    is_canonical,
    is_connected,
    pairs_of,
    parse_pairing,
)
from oracles import (
    brute_automorphisms,
    brute_minimum,
    filtered_pairings,
    random_pairing,
)

# connected pairing classes by size, pinned by the brute orbit scan below
PAIRING_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 28, 6: 97, 7: 359}


def test_is_canonical_matches_orbit_minimum():
    rng = random.Random(0)
    for trial in range(162):
        fp = random_pairing(rng.choice([1, 2]) if trial < 150 else 3, rng)
        least = brute_minimum(fp)
        assert is_canonical(fp) == (fp == least), (trial, fp)
        assert is_canonical(least), (trial, fp)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_enumeration_is_sorted_canonical_connected(n):
    seen = [fp for fp, _ in enumerate_pairings(n)]
    assert len(seen) == PAIRING_COUNTS[n]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    for fp in seen:
        assert is_canonical(fp)
        assert is_connected(fp)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_automorphisms_fix_their_pairing(n):
    for fp, autos in enumerate_pairings(n):
        assert len(set(autos)) == len(autos)
        for a in autos:
            assert sorted(a) == list(range(4 * n)) and a != tuple(range(4 * n))
            assert all(a[s] // 4 == a[s - s % 4] // 4 for s in range(4 * n))
            assert all(fp[a[s]] == a[fp[s]] for s in range(4 * n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphisms_match_brute_force(n):
    """The automorphisms the enumeration yields are those a scan from the
    root finds and those of the whole relabelling orbit."""
    for fp, autos in enumerate_pairings(n):
        assert set(autos) == set(automorphisms(fp)) == brute_automorphisms(fp)
    # the scan follows relabellings into canonical form only
    with pytest.raises(ValueError, match="not canonical"):
        automorphisms((5, 6, 7, 4, 3, 0, 1, 2))


@pytest.mark.parametrize("n", [4, 5])
def test_collected_automorphisms_match_a_scan_from_the_root(n):
    for fp, autos in enumerate_pairings(n):
        assert set(autos) == set(automorphisms(fp))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orderly_enumeration_matches_filtered(n):
    assert [fp for fp, _ in enumerate_pairings(n)] == filtered_pairings(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_matches_exhaustive_scan(n):
    def all_pairings():
        def rec(fp, out):
            try:
                s = fp.index(-1)
            except ValueError:
                if is_connected(fp) and is_canonical(tuple(fp)):
                    out.add(tuple(fp))
                return
            for c in range(s + 1, 4 * n):
                if fp[c] == -1:
                    fp[s], fp[c] = c, s
                    rec(fp, out)
                    fp[s], fp[c] = -1, -1
        out = set()
        rec([-1] * (4 * n), out)
        return out

    assert {fp for fp, _ in enumerate_pairings(n)} == all_pairings()


def test_format_roundtrip():
    for fp, _ in enumerate_pairings(3):
        n, back = parse_pairing(format_pairing(fp))
        assert n == 3 and back == fp


@pytest.mark.parametrize("line,message", [
    ("x ; 0.1 0.0 0.3 0.2", "tetrahedron count"),
    ("1 ; 0.1 0.0 0.3", "expected 4 partner tokens"),
    ("1 ; 0.1 0.0 0.3 0.4", "bad partner token '0.4'"),  # not slot 1.0
    ("2 ; 0.1 0.0 0.3 0.2 2.1 1.0 1.3 1.2", "bad partner token '2.1'"),
    ("1 ; 0.1 0.0 0.3 0.\u0662", "bad partner token"),  # Arabic-Indic 2
    ("1 ; 0.1 0.0 0.3 0:2", "bad partner token"),
    ("1 ; 0.1 0.0 0.2 0.3", "slot 2 is not consistently paired"),
    ("1 ; 0.1 0.2 0.3 0.0", "slot 0 is not consistently paired"),
])
def test_parse_pairing_errors(line, message):
    with pytest.raises(ValueError, match=message):
        parse_pairing(line)


def test_is_connected_matches_union_find_on_partial_matchings():
    rng = random.Random(10)
    for _ in range(2000):
        n = rng.randint(1, 6)
        fp = list(random_pairing(n, rng))
        for s, p in pairs_of(tuple(fp)):
            if rng.random() < 0.3:
                fp[s] = fp[p] = -1
        uf = UnionFind(n)
        for s, p in pairs_of(tuple(fp)):
            uf.union(s // 4, p // 4)
        want = len({uf.find(t) for t in range(n)}) == 1
        assert is_connected(fp) == want, fp


def test_pairs_and_graph_helpers():
    fp, _ = next(enumerate_pairings(2))
    pairs = pairs_of(fp)
    assert len(pairs) == 4
    assert all(fp[a] == b and fp[b] == a for a, b in pairs)
    assert len(graph_of(fp)) == 4
    assert isinstance(graph_summary(fp), str)


def test_size_two_graphs():
    two = sorted(graph_of(fp) for fp, _ in enumerate_pairings(2))
    assert two == [
        ((0, 0), (0, 1), (0, 1), (1, 1)),
        ((0, 1), (0, 1), (0, 1), (0, 1)),
    ]


def test_size_three_contains_loop_plus_triple_edge():
    target = sorted([(0, 0), (0, 1), (0, 2), (1, 2), (1, 2), (1, 2)])
    found = False
    for fp, _ in enumerate_pairings(3):
        for rho in itertools.permutations(range(3)):
            relab = sorted(tuple(sorted((rho[u], rho[v])))
                           for u, v in graph_of(fp))
            if relab == target:
                found = True
    assert found


def test_disconnected_pairing_rejected():
    # two tets glued only to themselves: 0-1, 2-3 within each
    fp = (1, 0, 3, 2, 5, 4, 7, 6)
    assert not is_connected(fp)
    assert fp not in {fp for fp, _ in enumerate_pairings(2)}
    # canonical, but no census pairing: its automorphisms are refused
    assert is_canonical(fp)
    with pytest.raises(ValueError, match="pairing is not connected"):
        automorphisms(fp)
