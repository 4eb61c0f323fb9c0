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
from planemaps.counting import Identity, admissible_types
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.errors import (
    BadDecoration,
    BadFace,
    BadParity,
    DegreeTooSmall,
    NoDegreeOneFace,
    NotBipartite,
    PlaneMapError,
    SameFace,
)
from planemaps.maps import PlaneMap
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
    # one token at rank 0 of every corner and after the face arrow in
    # every marked corner, then two tokens at ranks 0 and 1 of every
    # corner and at ranks (0, 2) and (1, 2) of every marked one, each
    # laid beside the composite's own cut tokens: all land where the
    # direct growth puts them
    grow, _ = growers(faces)
    toks = (("tag", "x"), ("tag", "y"))

    def landing(out):
        relabel = out[0].canonical_relabeling()
        return out[0].canonical_code(), {t: (relabel[d], r) for t, (d, r) in out[5].items()}

    for m in enumerate_maps(types):
        ranks = [(d, (0,)) for d in range(m.n_darts)] + [(d, (1,)) for d in m.marked]
        ranks += [(d, (0, 1)) for d in range(m.n_darts)]
        ranks += [(d, rs) for d in m.marked for rs in ((0, 2), (1, 2))]
        places = [{t: (d, r) for t, r in zip(toks, rs)} for d, rs in ranks]
        for e, c, c2 in enumerate_decorations(m, ident, "lhs"):
            for carry in places:
                want = grow(m, e, c, c2, carry=carry)
                got = grow_via_transfers(m, e, c, c2, faces=faces, carry=carry)
                assert landing(got) == landing(want), (e, c, c2, carry)


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

    @pytest.mark.parametrize("side", [-1, 2])
    def test_mark_side_refused_before_the_channel(self, monkeypatch, side):
        # the channel's distance balls are wasted on a decoration that
        # the digon step refuses anyway
        def channel(*args):
            raise AssertionError("_growth_channel ran")

        m = sample((6,), 0)
        monkeypatch.setattr(bijections, "_growth_channel", channel)
        with pytest.raises(BadDecoration):
            grow_via_transfers(m, 0, 0, 0, mark_side=side)

    def test_slot_out_of_range(self):
        # every decoration coordinate out of range is a BadDecoration,
        # raised by the map accessor that reads it
        for call in (
            lambda: grow_same(EDGE, 0, 3, 0),
            lambda: grow_same(EDGE, 0, 0, 4),
            lambda: grow_two(double_edge(), 0, 0, 3, faces=(1, 2)),
            lambda: grow_via_transfers(EDGE, 0, 3, 0),
        ):
            with pytest.raises(BadDecoration) as info:
                call()
            assert type(info.value) is BadDecoration

    @pytest.mark.parametrize("c, c2", [(3, 0), (0, 4), (-1, 0), (0, -1)])
    def test_slot_refused_before_the_digon_map(self, monkeypatch, c, c2):
        # a slot out of range is refused by the channel's accessors, so
        # edge_to_digon never builds its map for a decoration that fails
        built = []
        real = PlaneMap.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(PlaneMap, "__init__", counting)
        with pytest.raises(BadDecoration):
            grow_via_transfers(EDGE, 0, c, c2)
        assert built == []

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
        assert m2.twin[h2] != h
        with pytest.raises(BadDecoration):
            shrink_same(m2, v, h, m2.twin[h2])

    def test_transfer_parity(self):
        # moving degree out of the even face of a (3,1,2) map would
        # leave more than two odd faces
        for m in enumerate_maps((3, 1, 2)):
            dart = m.contour(3)[0]
            with pytest.raises(BadParity):
                transfer_left(m, 1, 3, 0, dart)


def first_map(t):
    return enumerate_maps(t)[0]


def heads(m, *faces):
    """The first dart of each face's contour."""
    return [m.contour(i)[0] for i in faces]


UNIT = first_map((3, 1))
DOUBLE = double_edge()
SAME, TWO = first_map((4,)), first_map((3, 3))


def out_of_range(name, call, top):
    """Rows calling call with -1 and with top, the first value past the range."""
    return [
        pytest.param(BadDecoration, lambda bad=bad: call(bad), id=f"{name}={bad}")
        for bad in (-1, top)
    ]


def decoration_rows():
    """A row per decoration coordinate out of range, on each bijection that reads it.

    The other coordinates are in range, so each row reaches the bad one.
    """
    (unit,), (lose,) = heads(UNIT, 1), heads(DOUBLE, 2)
    h, h2 = SAME.contour(1)[:2]
    j, k = heads(TWO, 1, 2)

    def via(m, *dec, faces):
        return grow_via_transfers(m, *dec, faces=faces)

    return [
        *out_of_range("transfer_left-slot", lambda s: transfer_left(DOUBLE, 1, 2, s, lose), 3),
        *out_of_range("transfer_left-dart", lambda d: transfer_left(DOUBLE, 1, 2, 0, d), 4),
        *out_of_range("transfer_right-slot", lambda s: transfer_right(DOUBLE, 1, 2, s, lose), 3),
        *out_of_range("transfer_right-dart", lambda d: transfer_right(DOUBLE, 1, 2, 0, d), 4),
        *out_of_range("transfer1_right-slot", lambda s: transfer1_right(UNIT, 1, 2, s), 4),
        *out_of_range("transfer1_left-dart", lambda d: transfer1_left(UNIT, 1, 3, 0, d), 4),
        *out_of_range("transfer1_left-vertex", lambda v: transfer1_left(UNIT, 1, 3, v, unit), 3),
        *out_of_range("grow_same-edge", lambda e: grow_same(EDGE, e, 0, 0), 1),
        *out_of_range("grow_same-c", lambda c: grow_same(EDGE, 0, c, 0), 3),
        *out_of_range("grow_same-c2", lambda c2: grow_same(EDGE, 0, 0, c2), 4),
        *out_of_range("grow_two-edge", lambda e: grow_two(DOUBLE, e, 0, 0), 2),
        *out_of_range("grow_two-c", lambda c: grow_two(DOUBLE, 0, c, 0), 3),
        *out_of_range("grow_two-c2", lambda c2: grow_two(DOUBLE, 0, 0, c2), 3),
        *out_of_range("via_same-edge", lambda e: via(EDGE, e, 0, 0, faces=(1, 1)), 1),
        *out_of_range("via_same-c", lambda c: via(EDGE, 0, c, 0, faces=(1, 1)), 3),
        *out_of_range("via_same-c2", lambda c2: via(EDGE, 0, 0, c2, faces=(1, 1)), 4),
        *out_of_range("via_two-edge", lambda e: via(DOUBLE, e, 0, 0, faces=(1, 2)), 2),
        *out_of_range("via_two-c", lambda c: via(DOUBLE, 0, c, 0, faces=(1, 2)), 3),
        *out_of_range("via_two-c2", lambda c2: via(DOUBLE, 0, 0, c2, faces=(1, 2)), 3),
        *out_of_range("shrink_same-h", lambda d: shrink_same(SAME, 0, d, h2), 4),
        *out_of_range("shrink_same-h2", lambda d: shrink_same(SAME, 0, h, d), 4),
        *out_of_range("shrink_same-vertex", lambda v: shrink_same(SAME, v, h, h2), 3),
        *out_of_range("shrink_two-h", lambda d: shrink_two(TWO, 0, d, k), 6),
        *out_of_range("shrink_two-h2", lambda d: shrink_two(TWO, 0, j, d), 6),
        *out_of_range("shrink_two-vertex", lambda v: shrink_two(TWO, v, j, k), 3),
    ]


DECORATION_ROWS = decoration_rows()


@pytest.mark.parametrize(
    "error, call",
    [
        (BadParity, lambda: transfer_left(first_map((3, 1, 2)), 1, 3, 0, 0)),
        (BadParity, lambda: transfer_right(first_map((3, 1, 2)), 1, 3, 0, 0)),
        (DegreeTooSmall, lambda: transfer_left(UNIT, 1, 2, 0, 0)),
        (NoDegreeOneFace, lambda: transfer1_right(double_edge(), 1, 2, 0)),
        (BadParity, lambda: transfer1_right(first_map((3, 1, 1, 1)), 1, 4, 0)),
        (DegreeTooSmall, lambda: transfer1_left(UNIT, 2, 3, 0, 0)),
        (BadParity, lambda: transfer1_left(first_map((3, 1, 2)), 3, 4, 0, 0)),
        (NotBipartite, lambda: grow_same(UNIT, 0, 0, 0)),
        (NotBipartite, lambda: grow_two(UNIT, 0, 0, 0)),
        (NotBipartite, lambda: grow_via_transfers(UNIT, 0, 0, 0)),
        (NotBipartite, lambda: shrink_same(UNIT, 0, 0, 1)),
        (BadParity, lambda: shrink_two(double_edge(), 0, 0, 1)),
        # a face of degree 2 (same) or 1 (two) cannot have lost a growth's
        # corners: these ran a BFS, then raised BadDecoration
        (DegreeTooSmall, lambda: shrink_same(double_edge(), 0, *double_edge().contour(1))),
        (DegreeTooSmall, lambda: shrink_two(UNIT, 0, *heads(UNIT, 1, 2))),
        *DECORATION_ROWS,
    ],
    ids=[
        "transfer_left", "transfer_right", "transfer_left-unit-lose",
        "transfer1_right-no-unit", "transfer1_right", "transfer1_left-unit-lose",
        "transfer1_left", "grow_same", "grow_two", "grow_via_transfers", "shrink_same",
        "shrink_two", "shrink_same-degree-2", "shrink_two-degree-1",
        *(row.id for row in DECORATION_ROWS),
    ],
)
def test_off_side_types_refused_before_any_bfs(monkeypatch, error, call):
    # each bijection reads its identity side's type rule at its own faces,
    # then each decoration coordinate through the map accessor that
    # refuses it out of range, before any BFS; a vertex is refused by
    # distances itself, at its entry
    def bfs(*args, **kwargs):
        raise AssertionError("a BFS ran")

    def entry_only(m, v):
        distances(m, v)
        raise AssertionError("a BFS ran")

    monkeypatch.setattr(bijections, "distances", entry_only)
    monkeypatch.setattr(bijections, "_ball", bfs)
    with pytest.raises(PlaneMapError) as info:
        call()
    assert type(info.value) is error


def carry_calls():
    """Each bijection that takes carry, on an input it accepts: (map, call)."""
    even, unit = sample((4, 4), 1), sample((3, 1), 0)
    same = grow_same(even, 0, 0, 0)
    two = grow_two(even, 0, 0, 0)
    slot, dart = enumerate_decorations(even, Identity.FACE_TO_FACE, "lhs")[0]
    left = transfer_left(even, 1, 2, slot, dart)
    absorbed = transfer1_right(unit, 1, 2, 0)
    return {
        "grow_same": (even, lambda c: grow_same(even, 0, 0, 0, carry=c)),
        "grow_two": (even, lambda c: grow_two(even, 0, 0, 0, carry=c)),
        "grow_via_transfers": (even, lambda c: grow_via_transfers(even, 0, 0, 0, carry=c)),
        "shrink_same": (same[0], lambda c: shrink_same(*same[:4], carry=c)),
        "shrink_two": (two[0], lambda c: shrink_two(*two[:4], carry=c)),
        "transfer_left": (even, lambda c: transfer_left(even, 1, 2, slot, dart, carry=c)),
        "transfer_right": (left[0], lambda c: transfer_right(left[0], 2, 1, *left[1:3], carry=c)),
        "transfer1_right": (unit, lambda c: transfer1_right(unit, 1, 2, 0, carry=c)),
        "transfer1_left": (
            absorbed[0], lambda c: transfer1_left(absorbed[0], 1, 2, *absorbed[1:3], carry=c)
        ),
    }


CARRY_CALLS = carry_calls()


@pytest.mark.parametrize("name", CARRY_CALLS)
def test_bad_carry_refused(name):
    # carry comes from the caller, so each bad one is refused at the
    # door; unchecked, a dart outside the map (the composite's digon
    # darts too) got through, ranks were clamped or shifted, and a
    # reserved token failed deep inside or, under python -O, moved a
    # face mark
    m, call = CARRY_CALLS[name]
    d = next(x for x in range(m.n_darts) if x not in m.marked)
    mk, n = m.marked[0], m.n_darts
    for good in ({"t": (d, 0)}, {"t": (mk, 1)}, {"t": (mk, 2), "u": (mk, 0)}):
        assert set(call(good)[-1]) == set(good)
    bad = [
        [("t", (d, 0))],
        {"t": (d,)},
        {"t": (d, 0, 0)},
        {"t": (float(d), 0)},
        {"t": d},
        {"t": (n, 0)},
        {"t": (n + 1, 0)},
        {"t": (-1, 0)},
        {"t": (999, 0)},
        {"t": (d, 1)},
        {"t": (mk, 2)},
        {"t": (d, -1)},
        {"t": (d, 0), "u": (d, 0)},
        {("arrow", 1): (d, 0)},
    ]
    reserved = [("out",), ("point",), ("cut",), ("cut", "entry"), ("cut", "exit")]
    bad += [{tok: (d, 0)} for tok in reserved]
    for carry in bad:
        with pytest.raises(BadDecoration, match="carr"):
            call(carry)


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
