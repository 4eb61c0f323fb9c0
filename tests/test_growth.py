"""Growth and shrink bijections: oracle agreement, round trips, errors."""

import pytest
from hypothesis import given, settings, strategies as st

from planemaps import bijections
from planemaps.bijections import (
    IDENTITIES,
    grow_same,
    grow_two,
    grow_via_transfers,
    shrink_same,
    shrink_two,
    transfer1_left,
    transfer1_right,
    transfer_left,
    transfer_right,
)
from planemaps.cli import admissible_types
from planemaps.counting import Identity
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.errors import (
    BadDecoration,
    BadFace,
    BadParity,
    NotBipartite,
    SameFace,
    SameSlot,
)
from planemaps.metric import classify_dart, distances
from planemaps.sampler import sample
from planemaps.surgery import digon_to_edge, edge_to_digon

from common import digon, double_edge

EDGE = digon()


# both growth rows key their decorations alike: an edge and two cut
# points on the left, a vertex and two darts on the right
KEYS = IDENTITIES[Identity.TWO_CORNERS_SAME_FACE]


def growers(faces):
    same = faces[0] == faces[1]
    if same:
        return (
            lambda m, e, c, c2, **kw: grow_same(m, e, c, c2, face=faces[0], **kw),
            lambda m, v, h, h2, **kw: shrink_same(m, v, h, h2, face=faces[0], **kw),
        )
    return (
        lambda m, e, c, c2, **kw: grow_two(m, e, c, c2, faces=faces, **kw),
        lambda m, v, h, h2, **kw: shrink_two(m, v, h, h2, faces=faces, **kw),
    )


class TestFrozen:
    # growing the one-edge map between its two distinct corners gives
    # the two-edge path with the new vertex in the middle
    def test_simple(self):
        m2, v, h, h2, case, carry = grow_same(EDGE, 0, 0, 2)
        assert m2.twin == (2, 3, 0, 1)
        assert m2.next == (2, 3, 1, 0)
        assert m2.marked == (0,)
        assert (v, h, h2, case) == (0, 3, 2, "simple")
        assert carry == {}

    # both cut points in the marked corner: the cut runs out and back
    # along the edge and the order of the points picks the side
    def test_pinched_left(self):
        m2, v, h, h2, case, _ = grow_same(EDGE, 0, 0, 0)
        assert m2.twin == (3, 2, 1, 0)
        assert m2.next == (1, 2, 3, 0)
        assert (v, h, h2, case) == (0, 3, 2, "left-pinched")

    def test_pinched_right(self):
        m2, v, h, h2, case, _ = grow_same(EDGE, 0, 0, 1)
        assert m2.twin == (3, 2, 1, 0)
        assert m2.next == (1, 2, 3, 0)
        assert (v, h, h2, case) == (0, 2, 3, "right-pinched")

    def test_shrink_restores(self):
        for c2 in range(4):
            m2, v, h, h2, case, _ = grow_same(EDGE, 0, 0, c2)
            mb, eb, cb, c2b, case_b, _ = shrink_same(m2, v, h, h2)
            assert (mb.twin, mb.next, mb.marked) == (EDGE.twin, EDGE.next, EDGE.marked)
            assert (eb, cb, c2b, case_b) == (0, 0, c2, case)


FAMILIES = [
    ((2,), (4,), Identity.TWO_CORNERS_SAME_FACE, (1, 1)),
    ((4,), (6,), Identity.TWO_CORNERS_SAME_FACE, (1, 1)),
    ((2, 2), (4, 2), Identity.TWO_CORNERS_SAME_FACE, (1, 1)),
    ((2, 2), (3, 3), Identity.CORNER_EACH_TWO_FACES, (1, 2)),
    ((2, 4), (3, 5), Identity.CORNER_EACH_TWO_FACES, (1, 2)),
]


@pytest.mark.parametrize("types,out_types,ident,faces", FAMILIES)
class TestGrowthFamilies:
    def test_bijective_onto_outputs(self, types, out_types, ident, faces):
        grow, _ = growers(faces)
        rhs = set()
        for m in enumerate_maps(out_types):
            for v, h, h2 in enumerate_decorations(m, ident, "rhs"):
                rhs.add(KEYS.rhs_key(m, (v, h, h2)))
        got = []
        for m in enumerate_maps(types):
            for e, c, c2 in enumerate_decorations(m, ident, "lhs"):
                m2, v, h, h2, case, _ = grow(m, e, c, c2)
                assert tuple(m2.degrees) == out_types
                assert m2.n_edges == m.n_edges + 1
                assert m2.n_vertices == m.n_vertices + 1
                dist = distances(m2, v)
                assert classify_dart(m2, h, v, dist) == "toward"
                assert classify_dart(m2, h2, v, dist) == "toward"
                got.append(KEYS.rhs_key(m2, (v, h, h2)))
        assert len(set(got)) == len(got), "growth repeated an output"
        assert set(got) == rhs

    def test_round_trip(self, types, out_types, ident, faces):
        grow, shrink = growers(faces)
        for m in enumerate_maps(types):
            for e, c, c2 in enumerate_decorations(m, ident, "lhs"):
                m2, v, h, h2, case, _ = grow(m, e, c, c2)
                mb, eb, cb, c2b, case_b, _ = shrink(m2, v, h, h2)
                assert KEYS.lhs_key(mb, (eb, cb, c2b)) == KEYS.lhs_key(m, (e, c, c2))
                assert case_b == case

    def test_reverse_round_trip(self, types, out_types, ident, faces):
        grow, shrink = growers(faces)
        for m2 in enumerate_maps(out_types):
            for v, h, h2 in enumerate_decorations(m2, ident, "rhs"):
                mb, eb, cb, c2b, case_b, _ = shrink(m2, v, h, h2)
                assert tuple(mb.degrees) == types
                m3, v3, h3, h23, case3, _ = grow(mb, eb, cb, c2b)
                assert KEYS.rhs_key(m3, (v3, h3, h23)) == KEYS.rhs_key(m2, (v, h, h2))
                assert case3 == case_b


VIA_FAMILIES = [
    ((2,), Identity.TWO_CORNERS_SAME_FACE, (1, 1)),
    ((4,), Identity.TWO_CORNERS_SAME_FACE, (1, 1)),
    ((2, 2), Identity.TWO_CORNERS_SAME_FACE, (1, 1)),
    ((2, 2), Identity.CORNER_EACH_TWO_FACES, (1, 2)),
]


@pytest.mark.parametrize("types,ident,faces", VIA_FAMILIES)
def test_via_transfers_matches_direct(types, ident, faces):
    grow, _ = growers(faces)
    for m in enumerate_maps(types):
        for e, c, c2 in enumerate_decorations(m, ident, "lhs"):
            m2, v, h, h2, case, _ = grow(m, e, c, c2)
            want = KEYS.rhs_key(m2, (v, h, h2))
            for side in (0, 1):
                out = grow_via_transfers(m, e, c, c2, faces=faces, mark_side=side)
                assert KEYS.rhs_key(out[0], out[1:4]) == want
                assert out[4] == case


@pytest.mark.parametrize("types,ident,faces", VIA_FAMILIES)
def test_via_transfers_carries_like_direct(types, ident, faces):
    # a token at rank 0 of every corner, and after the face arrow in
    # every marked corner, lands where the direct growth puts it
    grow, _ = growers(faces)
    tok = ("tag", "x")

    def landing(out):
        d, rank = out[5][tok]
        return out[0].canonical_code(), out[0].canonical_relabeling()[d], rank

    for m in enumerate_maps(types):
        places = [(d, 0) for d in range(m.n_darts)] + [(d, 1) for d in m.marked]
        for e, c, c2 in enumerate_decorations(m, ident, "lhs"):
            for place in places:
                want = grow(m, e, c, c2, carry={tok: place})
                got = grow_via_transfers(m, e, c, c2, faces=faces, carry={tok: place})
                assert landing(got) == landing(want), (e, c, c2, place)


def check_sampled_round_trip(a, seed, data):
    m = sample(a, seed)
    deg = m.degree(1)
    e = data.draw(st.integers(0, m.n_edges - 1), label="e")
    c = data.draw(st.integers(0, deg), label="c")
    c2 = data.draw(st.integers(0, deg + 1), label="c2")
    m2, v, h, h2, case, _ = grow_same(m, e, c, c2)
    mb, eb, cb, c2b, case_b, _ = shrink_same(m2, v, h, h2)
    assert KEYS.lhs_key(mb, (eb, cb, c2b)) == KEYS.lhs_key(m, (e, c, c2))
    assert case_b == case


@pytest.mark.parametrize("a", [(40,), (20, 20), (100,), (50, 50)], ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_round_trip(a, seed, data):
    # shrink_same undoes grow_same on sampled maps with E = 20 and 50,
    # where contours and geodesics are far longer than in the families
    check_sampled_round_trip(a, seed, data)


@pytest.mark.parametrize("a", [(400,), (200, 200)], ids=str)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_round_trip_e200(a, seed, data):
    # the same at E = 200, ten examples each to keep the suite quick
    check_sampled_round_trip(a, seed, data)


@pytest.mark.parametrize("a", [(20, 20), (50, 50)], ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_round_trip_two(a, seed, data):
    # shrink_two undoes grow_two on sampled maps with E = 20 and 50
    m = sample(a, seed)
    e = data.draw(st.integers(0, m.n_edges - 1), label="e")
    c = data.draw(st.integers(0, m.degree(1)), label="c")
    c2 = data.draw(st.integers(0, m.degree(2)), label="c2")
    m2, v, h, h2, case, _ = grow_two(m, e, c, c2)
    mb, eb, cb, c2b, case_b, _ = shrink_two(m2, v, h, h2)
    assert KEYS.lhs_key(mb, (eb, cb, c2b)) == KEYS.lhs_key(m, (e, c, c2))
    assert case_b == case


@pytest.mark.parametrize("a", [(40,), (20, 20), (100,), (50, 50)], ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_via_transfers_matches_direct(a, seed, data):
    # the digon detour through two transfers lands where grow_same does
    m = sample(a, seed)
    deg = m.degree(1)
    e = data.draw(st.integers(0, m.n_edges - 1), label="e")
    c = data.draw(st.integers(0, deg), label="c")
    c2 = data.draw(st.integers(0, deg + 1), label="c2")
    side = data.draw(st.integers(0, 1), label="mark_side")
    m2, v, h, h2, case, _ = grow_same(m, e, c, c2)
    out = grow_via_transfers(m, e, c, c2, mark_side=side)
    assert KEYS.rhs_key(out[0], out[1:4]) == KEYS.rhs_key(m2, (v, h, h2))
    assert out[4] == case


def test_grow_other_face():
    # growing within face 2 of the double edge: outputs land on face 2
    # and shrink with the same face restores the decoration
    m = double_edge()
    deg = m.degree(2)
    seen = set()
    for e in range(m.n_edges):
        for c in range(deg + 1):
            for c2 in range(deg + 2):
                m2, v, h, h2, case, _ = grow_same(m, e, c, c2, face=2)
                assert m2.degrees == (2, 4)
                assert m2.face_of(h) == 2 and m2.face_of(h2) == 2
                seen.add(KEYS.rhs_key(m2, (v, h, h2)))
                mb, eb, cb, c2b, case_b, _ = shrink_same(m2, v, h, h2, face=2)
                assert KEYS.lhs_key(mb, (eb, cb, c2b)) == KEYS.lhs_key(m, (e, c, c2))
                assert case_b == case
    assert len(seen) == m.n_edges * (deg + 1) * (deg + 2)


def all_growth_calls(max_edges):
    """Every grow_same and grow_two call on the even types with E <= max_edges.

    All faces, every edge and every pair of cut points; grow_two takes
    every ordered pair of distinct faces.
    """
    for t in admissible_types(max_edges):
        if any(a % 2 for a in t):
            continue
        for m in enumerate_maps(t):
            faces = range(1, m.n_faces + 1)
            for e in range(m.n_edges):
                for j in faces:
                    for c in range(m.degree(j) + 1):
                        for c2 in range(m.degree(j) + 2):
                            yield grow_same, m, (e, c, c2), {"face": j}
                        for k in faces:
                            if k != j:
                                for c2 in range(m.degree(k) + 1):
                                    yield grow_two, m, (e, c, c2), {"faces": (j, k)}


def test_ball_gives_what_the_full_table_gives(monkeypatch):
    # the growth step reads only the part of each distance table that
    # _ball guarantees, so the full table must change nothing
    calls = list(all_growth_calls(3))
    want = [f(m, *args, **kw) for f, m, args, kw in calls]
    n_full = 0

    def full_table(m, v, stop):
        nonlocal n_full
        n_full += 1
        return list(distances(m, v))

    monkeypatch.setattr(bijections, "_ball", full_table)
    got = [f(m, *args, **kw) for f, m, args, kw in calls]
    assert n_full == 3 * len(calls)
    assert got == want
    assert {out[4] for out in want} == {"simple", "left-pinched", "right-pinched"}
    assert {f for f, *_ in calls} == {grow_same, grow_two}


def test_carry_round_trip():
    # a marker parked anywhere survives growth and returns to its
    # corner when the growth is undone
    tok = ("tag", "x")
    m = double_edge()
    perm0 = m.canonical_relabeling()
    for d0 in range(m.n_darts):
        for e, c, c2 in enumerate_decorations(m, Identity.TWO_CORNERS_SAME_FACE, "lhs"):
            carry = {tok: (d0, 0)}
            m2, v, h, h2, _, carry1 = grow_same(m, e, c, c2, carry=carry)
            assert set(carry1) == {tok}
            mb, *_rest, carry2 = shrink_same(m2, v, h, h2, carry=carry1)
            db, rank = carry2[tok]
            assert rank == 0
            assert mb.canonical_relabeling()[db] == perm0[d0]


class TestErrors:
    def test_not_bipartite(self):
        m = enumerate_maps((3, 1))[0]
        with pytest.raises(NotBipartite):
            grow_same(m, 0, 0, 0)
        with pytest.raises(NotBipartite):
            shrink_same(m, 0, 0, 1)

    def test_bad_face(self):
        with pytest.raises(BadFace):
            grow_same(double_edge(), 0, 0, 0, face=3)
        with pytest.raises(BadFace):
            grow_two(double_edge(), 0, 0, 0, faces=(1, 3))

    def test_same_face(self):
        with pytest.raises(SameFace):
            grow_two(double_edge(), 0, 0, 0, faces=(2, 2))
        with pytest.raises(SameFace):
            shrink_two(enumerate_maps((3, 3))[0], 0, 0, 1, faces=(1, 1))

    def test_slot_out_of_range(self):
        with pytest.raises(SameSlot):
            grow_same(EDGE, 0, 3, 0)
        with pytest.raises(SameSlot):
            grow_same(EDGE, 0, 0, 4)
        with pytest.raises(SameSlot):
            grow_two(double_edge(), 0, 0, 3, faces=(1, 2))

    def test_bad_edge(self):
        with pytest.raises(BadDecoration):
            grow_same(EDGE, 1, 0, 0)

    def test_shrink_parity(self):
        # all faces even: there is no two-face growth to undo
        with pytest.raises(BadParity):
            shrink_two(double_edge(), 0, 0, 1)

    def test_shrink_bad_decoration(self):
        m2, v, h, h2, _, _ = grow_same(EDGE, 0, 0, 2)
        with pytest.raises(BadDecoration):
            shrink_same(m2, v, h, h)
        with pytest.raises(BadDecoration):
            shrink_same(m2, m2.n_vertices, h, h2)
        with pytest.raises(BadDecoration):
            shrink_same(m2, v, m2.twin[h], h2)

    def test_transfer_parity(self):
        # moving degree out of the even face of a (3,1,2) map would
        # leave more than two odd faces
        for m in enumerate_maps((3, 1, 2)):
            dart = m.contour(3)[0]
            with pytest.raises(BadParity):
                transfer_left(m, 1, 3, 0, dart)


class TestStrictDecorations:
    """Every integer decoration goes through operator.index at the entry."""

    TREE = sample((6,), 0)
    TWO = sample((4, 2), 0)
    UNIT = sample((3, 1), 0)
    ODD = sample((3, 3), 0)

    @pytest.mark.parametrize("spoil", [0.5, 1.0, "1", None], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, x: grow_same(m.TREE, x, 0, 0),
            lambda m, x: grow_same(m.TREE, 0, x, 0),
            lambda m, x: grow_same(m.TREE, 0, 0, x),
            lambda m, x: grow_same(m.TREE, 0, 0, 0, face=x),
            lambda m, x: grow_two(m.TWO, 0, 0, 0, faces=(1, x)),
            lambda m, x: grow_via_transfers(m.TREE, 0, 0, 0, mark_side=x),
            lambda m, x: shrink_same(m.TREE, x, 0, 1),
            lambda m, x: shrink_same(m.TREE, 0, 0, x),
            lambda m, x: shrink_two(m.ODD, 0, x, 1),
            lambda m, x: transfer_left(m.TWO, 1, 2, 0, x),
            lambda m, x: transfer_right(m.TWO, 2, 1, x, 0),
            lambda m, x: transfer1_right(m.UNIT, 1, x, 0),
            lambda m, x: transfer1_left(m.TWO, 1, 2, x, 0),
            lambda m, x: edge_to_digon(m.TREE, 0, x),
            lambda m, x: edge_to_digon(m.TREE, x, 0),
            lambda m, x: digon_to_edge(m.TWO, x),
        ],
    )
    def test_non_integers_refused(self, call, spoil):
        # the parent raised bare TypeError or ValueError from deep inside
        with pytest.raises(BadDecoration) as info:
            call(self, spoil)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("faces", [(1,), (1, 2, 3), None], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, f: grow_two(m.TWO, 0, 0, 0, faces=f),
            lambda m, f: shrink_two(m.ODD, 0, 0, 1, faces=f),
            lambda m, f: grow_via_transfers(m.TWO, 0, 0, 0, faces=f),
        ],
        ids=["grow_two", "shrink_two", "grow_via_transfers"],
    )
    def test_faces_not_a_pair_refused(self, call, faces):
        # unpacked before any check, these escaped as ValueError or TypeError
        with pytest.raises(BadDecoration):
            call(self, faces)

    def test_bools_and_index_objects_pass(self):
        class One:
            def __index__(self):
                return 1

        m = self.TREE
        want = grow_same(m, 1, 0, 1)
        assert grow_same(m, True, False, One()) == want
        assert grow_same(m, One(), 0, True, face=One()) == want
        assert edge_to_digon(m, True, False) == edge_to_digon(m, 1, 0)
