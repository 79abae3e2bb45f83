"""Triangulation table, text formats, and isomorphism signatures."""

import itertools
import random
import re

import pytest

from conftest import census
from linkcensus import fpg
from linkcensus.core import (
    ParseError,
    Triangulation,
    canonical_sequence,
    decode_signature,
    edge_classes,
    from_human_rows,
    is_orientable,
    iso_signature,
    parse_table,
    relabel,
    sequence_signature,
    serialize,
    signature_table,
    vertex_classes,
)
from linkcensus.perms import GLUING_PERMS, PERM4_INV, PERM4_SIGN
from oracles import random_pairing, serialize_human


def random_complete(rng: random.Random, n: int) -> Triangulation:
    """A connected complete triangulation with random gluing permutations."""
    while True:
        fp = random_pairing(n, rng)
        tri = Triangulation(n)
        for s, d in enumerate(fp):
            if s < d:
                pi = GLUING_PERMS[s % 4][d % 4][rng.randrange(6)]
                tri.glue(s, d, pi)
        if fpg.is_connected(tri.adj):
            assert parse_table(serialize(tri)) == tri
            return tri


def test_glue_unglue_roundtrip():
    tri = Triangulation(2)
    assert not tri.is_complete()
    tri.glue(0, 6, GLUING_PERMS[0][2][3])  # face 0 of tet 0 to face 2 of tet 1
    assert (tri.adj[0], tri.perm[0]) == (6, GLUING_PERMS[0][2][3])
    assert (tri.adj[6], tri.perm[6]) == (0, PERM4_INV[GLUING_PERMS[0][2][3]])
    assert parse_table(serialize(tri)) == tri
    tri.unglue(6)  # either end works
    assert tri.adj == tri.perm == [-1] * 8


def test_glue_validation():
    tri = Triangulation(2)
    with pytest.raises(ValueError):
        Triangulation(0)
    for s, d, pi, message in [
        (-1, 4, 0, "out of range"),
        (0, -4, 0, "out of range"),
        (0, 8, 0, "out of range"),  # slot 4n
        (8, 0, 0, "out of range"),
        (0, 7, -1, "permutation index -1"),  # would carry face 0 to face 3
        (0, 7, 24, "permutation index 24"),
        (0, 0, 0, "to itself"),
        (0, 1, 0, "does not carry face 0 to face 1"),  # identity keeps faces
    ]:
        with pytest.raises(ValueError, match=message):
            tri.glue(s, d, pi)
    assert tri.adj == tri.perm == [-1] * 8
    tri.glue(0, 4, 0)
    with pytest.raises(ValueError, match="already glued"):
        tri.glue(0, 5, GLUING_PERMS[0][1][0])
    for s in (2, -4, 8):  # slot -4 must not reach slot 4 from the end
        with pytest.raises(ValueError, match="not glued"):
            tri.unglue(s)
    assert parse_table(serialize(tri)) == tri


def test_copy_and_equality():
    rng = random.Random(1)
    tri = random_complete(rng, 2)
    dup = tri.copy()
    assert dup == tri and hash(dup) == hash(tri)
    dup.unglue(0)
    assert dup != tri


def test_serialize_parse_roundtrip():
    rng = random.Random(2)
    for n in (1, 2, 3):
        for _ in range(5):
            tri = random_complete(rng, n)
            assert parse_table(serialize(tri)) == tri
    # partial tables round trip too
    tri = Triangulation(2)
    tri.glue(1, 7, GLUING_PERMS[1][3][2])
    assert parse_table(serialize(tri)) == tri


@pytest.mark.parametrize("text,message", [
    ("x ; - - - -", "first field"),
    ("\u00b2 ; - - - -", "first field"),  # a digit to isdigit(), not to int()
    ("0 ;", "must be positive"),
    ("2 ; - - - -", "expected 2 tetrahedron groups"),
    ("1 ; - - -", "expected 4 tokens"),
    ("1 ; 0:zz - - -", "bad token"),
    ("1 ; \u0660:\u0662 - - -", "bad token"),  # Arabic-Indic 0:2
    ("1 ; 3:0 - - - ", "out of range"),
    ("1 ; 0:99 - - -", "gluing 0:99 out of range"),
    ("1 ; 0:2 - - -", "glued to itself"),
    ("1 ; 0:3 0:2 0:4 -", "does not glue back"),  # slots 0:0, 0:1 claim 0:2
    ("2 ; 1:1 - - - ; - - - -", "does not glue back"),
    ("2 ; 1:1 - - - ; - 0:9 - -", "does not glue back"),
])
def test_parse_table_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_table(text)


def test_human_format_roundtrip():
    rng = random.Random(3)
    tri = random_complete(rng, 3)
    rows = [line.split("|")[1:] for line in serialize_human(tri).splitlines()]
    rows = [[cell.strip() for cell in row] for row in rows]
    assert from_human_rows(rows) == tri


def test_human_format_errors():
    with pytest.raises(ParseError, match="expected 4 cells"):
        from_human_rows([["A:012", "-", "-"]])
    with pytest.raises(ParseError, match="bad cell"):
        from_human_rows([["A:01", "-", "-", "-"]])
    with pytest.raises(ParseError, match="bad cell"):
        from_human_rows([["A:011", "-", "-", "-"]])  # not a face's vertices
    with pytest.raises(ParseError, match="does not glue back"):
        from_human_rows([
            ["B:012", "-", "-", "-"],
            ["A:013", "-", "-", "-"],
        ])


def test_readers_share_one_consistency_rule():
    """All three syntaxes refuse a gluing given on one side only, and one
    glued back by the wrong permutation, with the same message."""
    def rows(tri):
        return [[cell.strip() for cell in line.split("|")[1:]]
                for line in serialize_human(tri).splitlines()]

    def signature(tri):
        return sequence_signature(tri.n, [x for d, p in zip(tri.adj, tri.perm)
                                          for x in (d // 4, p)])

    tri = Triangulation(1)
    tri.glue(0, 1, GLUING_PERMS[0][1][0])
    tri.glue(2, 3, GLUING_PERMS[2][3][0])
    one_sided = tri.copy()  # slot 0:1 leaves out its side
    one_sided.adj[1] = one_sided.perm[1] = -1
    # a signature glues every slot, so there slot 0:1 glues to 0:3 instead
    elsewhere = tri.copy()
    elsewhere.adj[1], elsewhere.perm[1] = 3, GLUING_PERMS[1][3][0]
    wrong = tri.copy()
    wrong.perm[1] = next(p for p in GLUING_PERMS[1][0] if p != tri.perm[1])
    for read, show, bad in ((parse_table, serialize, (one_sided, wrong)),
                            (from_human_rows, rows, (one_sided, wrong)),
                            (decode_signature, signature, (elsewhere, wrong))):
        assert read(show(tri)) == tri
        for table in bad:
            with pytest.raises(ParseError, match="does not glue back"):
                read(show(table))


def test_class_counts_single_gluing():
    tri = Triangulation(2)
    tri.glue(0, 4, 0)
    # identity gluing of face 012 merges three corner pairs and three edges
    assert len(vertex_classes(tri)) == 5
    classes = edge_classes(tri)
    assert len(classes) == 9
    assert all(directable for _, directable in classes)
    assert sum(len(members) for members, _ in classes) == 12


def test_connectivity_and_orientability_guards():
    tri = Triangulation(2)
    assert not fpg.is_connected(tri.adj)
    with pytest.raises(ValueError, match="complete"):
        is_orientable(tri)
    # complete but disconnected: two tets glued only to themselves
    tri2 = Triangulation(2)
    for t in range(2):
        tri2.glue(4 * t, 4 * t + 1, GLUING_PERMS[0][1][0])
        tri2.glue(4 * t + 2, 4 * t + 3, GLUING_PERMS[2][3][0])
    assert tri2.is_complete() and not fpg.is_connected(tri2.adj)
    with pytest.raises(ValueError, match="connected"):
        is_orientable(tri2)
    with pytest.raises(ValueError, match="connected"):
        iso_signature(tri2)
    with pytest.raises(ValueError, match="complete"):
        iso_signature(tri)


def test_orientability_matches_a_brute_force_sign_search():
    """On random complete tables, mostly not manifolds: orientable exactly
    when some tetrahedron signs are kept by every odd gluing and flipped
    by every even one, tried over all 2^n sign choices."""
    rng = random.Random(17)
    outcomes = {True: 0, False: 0, "disconnected": 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        slots = list(range(4 * n))
        rng.shuffle(slots)
        tri = Triangulation(n)
        for s, d in zip(slots[::2], slots[1::2]):
            tri.glue(s, d, GLUING_PERMS[s % 4][d % 4][rng.randrange(6)])
        if not fpg.is_connected(tri.adj):
            with pytest.raises(ValueError, match="connected"):
                is_orientable(tri)
            outcomes["disconnected"] += 1
            continue
        want = any(
            all(signs[d // 4] == signs[s // 4] * -PERM4_SIGN[tri.perm[s]]
                for s, d in enumerate(tri.adj))
            for signs in itertools.product((1, -1), repeat=n))
        assert is_orientable(tri) == want, serialize(tri)
        outcomes[want] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_signature_shape():
    rng = random.Random(4)
    tri = random_complete(rng, 3)
    sig = iso_signature(tri)
    head, _, body = sig.partition(";")
    assert head == "3"
    assert len(body) == 24  # 8 base-36 digits per tetrahedron
    assert sig == sequence_signature(3, canonical_sequence(3, tri.adj, tri.perm))


def test_signature_relabel_invariance():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(4):
            tri = random_complete(rng, n)
            sig = iso_signature(tri)
            for _ in range(25):
                tet_map = list(range(n))
                rng.shuffle(tet_map)
                vertex_maps = [rng.randrange(24) for _ in range(n)]
                assert iso_signature(relabel(tri, tet_map, vertex_maps)) == sig


def test_decode_signature_is_inverse():
    rng = random.Random(6)
    for n in (1, 2, 3):
        for _ in range(6):
            tri = random_complete(rng, n)
            sig = iso_signature(tri)
            back = decode_signature(sig)
            assert parse_table(serialize(back)) == back
            assert back.is_complete()
            assert iso_signature(back) == sig


def test_decode_signature_errors():
    with pytest.raises(ParseError):
        decode_signature("1;0000")  # truncated body
    with pytest.raises(ValueError):
        decode_signature("not a signature")
    with pytest.raises(ParseError, match="positive"):
        decode_signature("0;")
    with pytest.raises(ParseError, match="positive"):
        decode_signature("\u00b2;" + "0" * 16)
    with pytest.raises(ParseError, match="bad signature digit"):
        decode_signature("1;0_000000")
    with pytest.raises(ParseError, match="out of range"):
        decode_signature("1;10000000")  # partner tetrahedron 1 of 1
    # an n=5 census signature with the perm digit of slot 0:1, the later
    # slot of its pair, changed from 1 to 2: the pair no longer agrees
    good = "5;0101101020240000103013403d203a4m3h424220"
    tampered = "5;0102101020240000103013403d203a4m3h424220"
    assert iso_signature(decode_signature(good)) == good
    with pytest.raises(ParseError, match="does not glue back"):
        decode_signature(tampered)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_signature_table_is_the_decoded_table(n):
    sigs = census(n).signatures()
    assert [signature_table(sig) for sig in sigs] == [
        serialize(decode_signature(sig)) for sig in sigs]


def test_signature_table_refuses_bad_digits():
    good = "5;0101101020240000103013403d203a4m3h424220"
    assert signature_table(good) == serialize(decode_signature(good))
    for bad, digit in ((good[:-1] + "_", "_"), (good[:-1] + "A", "A"),
                       (good[:-1] + "\u0662", "\u0662"),
                       (good[:-1] + "\x00", "\x00")):
        for read in (signature_table, decode_signature):
            with pytest.raises(ParseError, match=re.escape(
                    f"bad signature digit {digit!r}")):
                read(bad)
    with pytest.raises(ParseError, match="positive"):
        signature_table("0;")
    with pytest.raises(ParseError, match="must have 40 digits"):
        signature_table(good[:-2])
