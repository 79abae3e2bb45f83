"""Incremental link tracking against the from-scratch link builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcensus.linktrack import GlueOutcome, LinkState
from linkcensus.perms import GLUING_PERMS, LINK_EDGE_POS, link_edge_id
from linkcensus.search import SearchConfig, enumerate_census
from linkcensus.skiplist import CyclicSkipList
from oracles import linkstate_fingerprint, linktrack_fuzz_trial


def test_link_edge_id_layout():
    seen = set()
    for t in range(2):
        for v in range(4):
            for f, pos in LINK_EDGE_POS[v].items():
                e = link_edge_id(t, v, f)
                assert e == 12 * t + 3 * v + pos
                seen.add(e)
    assert seen == set(range(24))


def test_fresh_state_counts():
    ls = LinkState(3, level=2, seed=0)
    assert ls.edge_cls.components == 18
    assert ls.tri_cls.components == 12
    # each corner triangle starts as its own 3-cycle: 36 boundary edges
    walks = ls.cycles.cycles()
    assert len(walks) == 12
    assert all(len(walk) == 3 for walk in walks)
    assert sorted(node for walk in walks for node, _ in walk) == list(range(36))


def test_level_1_skips_cycle_tracking():
    ls = LinkState(2, level=1)
    assert ls.cycles is None
    fresh = linkstate_fingerprint(ls)
    out, mark = ls.glue_faces(0, 0, 1, 0, GLUING_PERMS[0][0][0])
    assert out is GlueOutcome.OK and mark is not None
    # three edge pairs and three corner-triangle pairs identified
    assert (ls.edge_cls.components, ls.tri_cls.components) == (9, 5)
    ls.unglue_faces(mark)
    assert linkstate_fingerprint(ls) == fresh


def test_level_validation():
    with pytest.raises(ValueError):
        LinkState(2, level=0)
    with pytest.raises(ValueError):
        LinkState(2, level=3)


def test_rejected_glue_leaves_state_untouched():
    """Branch 2 of the 0-to-1 gluing maps edge 01 onto itself reversed."""
    ls = LinkState(1, level=2, seed=1)
    before = linkstate_fingerprint(ls)
    out, mark = ls.glue_faces(0, 0, 0, 1, GLUING_PERMS[0][1][2])
    assert mark is None
    assert out is GlueOutcome.BAD_EDGE
    assert linkstate_fingerprint(ls) == before


def test_token_discipline():
    """The mark a gluing returns is the token that undoes it, and every
    gluing after it: ungluing the first of two marks restores the fresh
    state."""
    ls = LinkState(2, level=2, seed=7)
    fresh = linkstate_fingerprint(ls)
    out1, mark1 = ls.glue_faces(0, 0, 1, 0, GLUING_PERMS[0][0][0])
    assert out1 is GlueOutcome.OK
    out2, mark2 = ls.glue_faces(0, 1, 1, 1, GLUING_PERMS[1][1][0])
    assert out2 is GlueOutcome.OK and mark2 != mark1
    # the first mark undoes both gluings at once
    ls.unglue_faces(mark1)
    assert linkstate_fingerprint(ls) == fresh


def test_cycles_are_walked_only_where_the_corners_cannot_decide(monkeypatch):
    """A link-edge gluing asks the skip list whether the two edges share a
    cycle only once the corner union-find has put both in one piece: the
    level-2 py census at n=2 then climbs towers 1,698 times, against
    2,498 when every gluing walked both cycles first."""
    calls = 0
    find_last = CyclicSkipList.find_last

    def counted(self, x, *args):
        nonlocal calls
        calls += 1
        return find_last(self, x, *args)

    monkeypatch.setattr(CyclicSkipList, "find_last", counted)
    assert enumerate_census(SearchConfig(n=2), backend="py").total == 17
    assert calls == 1698


def test_fuzz_against_link_builder():
    total = 0
    for trial in range(120):
        total += linktrack_fuzz_trial(trial)
    assert total >= 2_000


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_property_fuzz(seed):
    linktrack_fuzz_trial(seed, ops=30)
