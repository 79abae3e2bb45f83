"""From-scratch link surfaces, edge conditions, and the brute census."""

import ast
import random
from pathlib import Path

import pytest

import linkcensus
from linkcensus import validate
from linkcensus.core import (
    Triangulation,
    edge_classes,
    from_human_rows,
    is_orientable,
    iso_signature,
    vertex_classes,
)
from linkcensus.fpg import pairs_of
from linkcensus.linktrack import GlueOutcome, LinkState
from linkcensus.perms import GLUING_PERMS
from linkcensus.validate import (
    brute_census,
    build_links,
    check_edges,
    is_3manifold,
)
from oracles import TORUS_LINK_ROWS, random_pairing


def test_fresh_tet_links_are_discs():
    reports = build_links(Triangulation(1))
    assert len(reports) == 4
    for r in reports:
        assert r.triangles == 1
        assert r.boundary_edges == 3
        assert r.boundary_cycles == 1
        assert r.euler == 1
        assert r.orientable and not r.closed
        assert r.genus is None
        assert r.is_punctured_sphere and not r.is_sphere


def test_partial_gluing_link_counts():
    tri = Triangulation(2)
    tri.glue(0, 4, 0)
    reports = build_links(tri)
    # three corner pairs merged into discs of two triangles each
    assert len(reports) == 5
    big = [r for r in reports if r.triangles == 2]
    assert len(big) == 3
    for r in big:
        assert r.boundary_edges == 4
        assert r.boundary_cycles == 1
        assert r.euler == 1
        assert r.is_punctured_sphere


def test_torus_link_table():
    tri = from_human_rows(TORUS_LINK_ROWS)
    assert len(vertex_classes(tri)) == 1
    assert len(edge_classes(tri)) == 3
    assert check_edges(tri) == []
    reports = build_links(tri)
    assert len(reports) == 1
    link = reports[0]
    assert link.closed and link.orientable
    assert link.euler == 0 and link.genus == 1
    assert not link.is_sphere and not link.is_punctured_sphere
    assert not is_3manifold(tri)


def test_check_edges_finds_reversal():
    """Two faces of one tet glued so an edge maps onto itself reversed."""
    tri = Triangulation(1)
    tri.glue(0, 1, GLUING_PERMS[0][1][2])
    bad = check_edges(tri)
    assert len(bad) == 1
    assert bad[0] == [(0, 0)]  # edge 01 alone in its class
    flags = {tuple(members): directable for members, directable in edge_classes(tri)}
    assert flags[((0, 0),)] is False


def test_is_3manifold_requires_complete():
    with pytest.raises(ValueError):
        is_3manifold(Triangulation(1))


def test_is_3manifold_stops_at_the_first_defect(monkeypatch):
    """A reversed edge class decides the verdict before any link is built."""
    def no_links(tri):
        raise AssertionError("links built after the first defect")

    monkeypatch.setattr(validate, "build_links", no_links)
    tri = Triangulation(1)
    tri.glue(0, 1, GLUING_PERMS[0][1][2])
    tri.glue(2, 3, GLUING_PERMS[2][3][0])
    assert tri.is_complete() and check_edges(tri)
    assert not is_3manifold(tri)


def test_brute_census_smallest():
    reps, orientable = brute_census(1)
    assert len(reps) == 4
    assert orientable == 4
    sigs = {iso_signature(r) for r in reps}
    assert len(sigs) == 4
    for r in reps:
        assert is_3manifold(r)
        assert is_orientable(r)


def test_brute_census_size_gate():
    with pytest.raises(ValueError):
        brute_census(3)


def test_edge_classes_match_the_incremental_tracker():
    """After every gluing the tracker accepts, the from-scratch classes
    are the tracker's components, and each one is directable."""
    checks = 0
    for trial in range(200):
        rng = random.Random(trial)
        n = rng.randint(1, 4)
        tri = Triangulation(n)
        ls = LinkState(n, level=1)
        pairs = pairs_of(random_pairing(n, rng))
        rng.shuffle(pairs)
        for s, p in pairs:
            pi = rng.choice(GLUING_PERMS[s % 4][p % 4])
            out, _ = ls.glue_faces(s // 4, s % 4, p // 4, p % 4, pi)
            if out is not GlueOutcome.OK:
                continue
            tri.glue(s, p, pi)
            tracked: dict[int, list[tuple[int, int]]] = {}
            for i in range(6 * n):
                tracked.setdefault(ls.edge_cls.find(i)[0], []).append((i // 6, i % 6))
            classes = edge_classes(tri)
            assert [members for members, _ in classes] == sorted(tracked.values())
            assert all(directable for _, directable in classes)
            checks += 1
    assert checks > 500


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}


@pytest.mark.parametrize("module", ["validate.py", "core.py"])
def test_oracles_avoid_the_incremental_machinery(module):
    """The from-scratch checks stay independent of what they check."""
    imported = _imported_modules(Path(linkcensus.__file__).parent / module)
    assert not imported & {"dsu", "skiplist", "linktrack"}
