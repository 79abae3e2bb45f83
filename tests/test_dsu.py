"""Signed union-find against an explicit relation graph."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcensus.dsu import Outcome, SignedDsu
from oracles import RelationOracle, dsu_fuzz_trial


def test_fresh_state():
    dsu = SignedDsu(5)
    assert dsu.components == 5
    for x in range(5):
        assert dsu.find(x) == (x, 1)
    assert dsu.find(0)[0] != dsu.find(1)[0]


def test_union_outcomes():
    dsu = SignedDsu(4)
    assert dsu.union(0, 1, -1) is Outcome.MERGED
    assert dsu.union(1, 2, -1) is Outcome.MERGED
    assert dsu.components == 2
    # 0 ~ 2 with sign (-1)(-1) = +1 is now implied
    assert dsu.union(0, 2, 1) is Outcome.REDUNDANT
    assert dsu.union(0, 2, -1) is Outcome.CONFLICT
    assert dsu.find(0)[0] == dsu.find(2)[0] != dsu.find(3)[0]


def test_conflict_does_not_mutate():
    dsu = SignedDsu(3)
    dsu.union(0, 1, 1)
    mark = dsu.checkpoint()
    snap = (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank), dsu.components)
    assert dsu.union(0, 1, -1) is Outcome.CONFLICT
    assert dsu.checkpoint() == mark
    assert snap == (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank),
                    dsu.components)


def test_rollback_restores_exactly():
    dsu = SignedDsu(6)
    dsu.union(0, 1, -1)
    mark = dsu.checkpoint()
    snap = (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank), dsu.components)
    dsu.union(2, 3, 1)
    dsu.union(0, 3, -1)
    dsu.union(4, 5, -1)
    dsu.rollback(mark)
    assert snap == (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank),
                    dsu.components)
    # rolled-back merges can be redone
    assert dsu.union(2, 3, 1) is Outcome.MERGED


def test_validation_errors():
    with pytest.raises(ValueError):
        SignedDsu(-1)
    dsu = SignedDsu(3)
    with pytest.raises(ValueError):
        dsu.union(0, 1, 2)
    with pytest.raises(ValueError):
        dsu.rollback(1)


def test_max_find_steps_bound():
    """Union by rank keeps every find within log2(count) + 1 steps."""
    rng = random.Random(9)
    dsu = SignedDsu(512)
    for _ in range(2000):
        dsu.union(rng.randrange(512), rng.randrange(512), rng.choice((1, -1)))
    bound = int(math.log2(512)) + 1
    for x in range(512):
        steps = 0
        while dsu.parent[x] != x:
            x = dsu.parent[x]
            steps += 1
        assert steps <= bound


def test_fuzz_against_relation_oracle():
    total = 0
    for trial in range(120):
        total += dsu_fuzz_trial(trial)
    assert total >= 10_000


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.sampled_from((1, -1))), max_size=40))
@settings(max_examples=200, deadline=None)
def test_property_matches_oracle(ops):
    dsu = SignedDsu(12)
    oracle = RelationOracle(12)
    for x, y, rel in ops:
        if x == y:
            continue
        assert dsu.union(x, y, rel) == oracle.union(x, y, rel)
        assert dsu.components == oracle.components()


@given(st.integers(0, 2**31), st.integers(2, 20), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_property_rollback_roundtrip(seed, count, extra):
    rng = random.Random(seed)
    dsu = SignedDsu(count)
    for _ in range(count):
        dsu.union(rng.randrange(count), rng.randrange(count), rng.choice((1, -1)))
    mark = dsu.checkpoint()
    snap = (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank), dsu.components)
    for _ in range(extra):
        dsu.union(rng.randrange(count), rng.randrange(count), rng.choice((1, -1)))
    dsu.rollback(mark)
    assert snap == (tuple(dsu.parent), tuple(dsu.sign), tuple(dsu.rank),
                    dsu.components)
