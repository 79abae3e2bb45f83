"""Cyclic skip list surgery against the endpoint-matching oracle."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcensus.skiplist import CyclicSkipList
from oracles import (
    CycleOracle,
    _chase_alignment,
    _is_parallel,
    skiplist_element_bonds,
    skiplist_fuzz_trial,
)


def test_make_cycle_and_walk():
    sl = CyclicSkipList(5, seed=1)
    sl.make_cycle([(0, 0), (3, 1), (1, 0)])
    assert sl.in_cycle(0) and sl.in_cycle(3) and not sl.in_cycle(2)
    walks = sl.cycles()
    assert len(walks) == 1
    assert {n for n, _ in walks[0]} == {0, 1, 3}
    assert sl.same_cycle(0, 3)
    sent = sl.find_last(0)
    assert sl.is_sentinel(sent)
    assert sl.find_last(3) == sent and sl.find_last(1) == sent


def test_separate_cycles():
    sl = CyclicSkipList(6, seed=2)
    sl.make_cycle([(0, 0), (1, 0)])
    sl.make_cycle([(2, 1), (3, 0), (4, 0)])
    assert not sl.same_cycle(0, 2)
    assert sl.same_cycle(3, 4)
    assert len(sl.cycles()) == 2


def test_excise_merges_distinct_cycles():
    sl = CyclicSkipList(6, seed=3)
    sl.make_cycle([(0, 0), (1, 0), (2, 0)])
    sl.make_cycle([(3, 0), (4, 0), (5, 0)])
    mark, dump, walks = sl.checkpoint(), sl.structure_dump(), sl.cycles()
    sl.excise_pair(0, 3, _pick_legal_alignment(sl, 0, 3))
    assert sl.same_cycle(1, 4)
    assert not sl.in_cycle(0) and not sl.in_cycle(3)
    assert len(sl.cycles()) == 1
    # then split the merged 4-cycle at two opposite nodes
    (walk,) = sl.cycles()
    x, y = walk[0][0], walk[2][0]
    sl.excise_pair(x, y, _pick_legal_alignment(sl, x, y))
    assert len(sl.cycles()) == 2
    assert not sl.same_cycle(walk[1][0], walk[3][0])
    sl.rollback(mark)
    assert sl.structure_dump() == dump
    assert sl.cycles() == walks


def test_excise_splits_one_cycle():
    sl = CyclicSkipList(6, seed=4)
    sl.make_cycle([(k, 0) for k in range(6)])
    sl.excise_pair(1, 4, _pick_legal_alignment(sl, 1, 4))
    assert len(sl.cycles()) == 2
    assert sl.same_cycle(2, 3)
    assert sl.same_cycle(5, 0)
    assert not sl.same_cycle(0, 2)


def test_excise_two_node_cycle_vanishes():
    sl = CyclicSkipList(4, seed=5)
    sl.make_cycle([(0, 0), (1, 0)])
    sl.make_cycle([(2, 0), (3, 0)])
    sl.excise_pair(0, 1, _pick_legal_alignment(sl, 0, 1))
    assert len(sl.cycles()) == 1
    assert not sl.in_cycle(0) and not sl.in_cycle(1)


def test_validation_errors():
    with pytest.raises(ValueError):
        CyclicSkipList(0)
    sl = CyclicSkipList(4, seed=6)
    sl.make_cycle([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        sl.find_last(2)  # not in a cycle
    with pytest.raises(ValueError):
        sl.make_cycle([(0, 1), (2, 0)])  # 0 already used
    with pytest.raises(ValueError):
        sl.insert(0, 1, 0)  # already in a cycle
    with pytest.raises(ValueError):
        sl.excise_pair(0, 0, True)
    with pytest.raises(ValueError):
        sl.rollback(sl.checkpoint() + 1)


def test_twist_precondition_asserts():
    """Identifying both elements of a 2-cycle the parallel way is the
    orientation-reversing case the caller filters out; the surgery's
    safety net must catch it."""
    oracle = CycleOracle()
    oracle.make_cycle([(0, 0), (1, 0)])
    bad = [al for al in (False, True) if _is_parallel(oracle, 0, 1, al)]
    assert len(bad) == 1
    sl = CyclicSkipList(2, seed=7)
    sl.make_cycle([(0, 0), (1, 0)])
    with pytest.raises(AssertionError):
        sl.excise_pair(0, 1, bad[0])


def test_rollback_restores_structure_dump():
    sl = CyclicSkipList(8, seed=8)
    sl.make_cycle([(k, 0) for k in range(8)])
    mark = sl.checkpoint()
    dump = sl.structure_dump()
    sl.excise_pair(2, 6, _pick_legal_alignment(sl, 2, 6))
    assert sl.structure_dump() != dump
    sl.rollback(mark)
    assert sl.structure_dump() == dump


def _pick_legal_alignment(sl: CyclicSkipList, x: int, y: int) -> bool:
    oracle = CycleOracle()
    oracle.bond = dict(skiplist_element_bonds(sl))
    rng = random.Random(0)
    aligned = _chase_alignment(rng, oracle, x, y)
    if _is_parallel(oracle, x, y, aligned):
        aligned = not aligned
    return aligned


def test_fuzz_against_cycle_oracle():
    total = 0
    for trial in range(60):
        total += skiplist_fuzz_trial(trial)
    assert total >= 10_000


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_property_fuzz(seed):
    skiplist_fuzz_trial(seed, ops=40)


def _mean_find_steps(m: int, probes: int = 200) -> float:
    rng = random.Random(m)
    sl = CyclicSkipList(m, seed=m)
    sl.make_cycle([(k, 0) for k in range(m)])
    steps = []
    for _ in range(probes):
        _, cost = sl.find_last(rng.randrange(m), _count_steps=True)
        steps.append(cost)
    return statistics.fmean(steps)


def test_find_last_cost_is_logarithmic():
    """Mean tower-walk length grows like log2(m), nowhere near linearly."""
    sizes = (2**6, 2**10, 2**14)
    means = {m: _mean_find_steps(m) for m in sizes}
    for m, mean in means.items():
        assert mean <= 6.0 * math.log2(m), (m, mean)
    # linear growth would multiply the mean by ~16 per step; logarithmic
    # growth adds a constant
    assert means[2**10] - means[2**6] <= 4.0 * math.log2(2**10 / 2**6)
    assert means[2**14] - means[2**10] <= 4.0 * math.log2(2**14 / 2**10)
    assert means[2**14] < 0.01 * 2**14
