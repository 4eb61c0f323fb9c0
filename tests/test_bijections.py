"""Transfer bijections: frozen examples, inverses, exhaustive families."""

import pytest
from hypothesis import given, settings, strategies as st

from planemaps.bijections import (
    transfer1_left,
    transfer1_right,
    transfer_left,
    transfer_right,
)
from planemaps.counting import Identity
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.errors import (
    BadDecoration,
    BadFace,
    BadParity,
    DegreeTooSmall,
    NoDegreeOneFace,
    SameFace,
)
from planemaps.maps import PlaneMap
from planemaps.metric import classify_dart, distances
from planemaps.sampler import sample

from common import double_edge, loop_map, loop_pendant


def keyed(m, *, slot=None, dart=None, vertex=None):
    """Canonical tuple identifying a decorated map across dart renames."""
    perm = m.canonical_relabeling()
    parts = [m.canonical_code()]
    if slot is not None:
        parts.append(("slot", slot))
    if vertex is not None:
        parts.append(("vertex", min(perm[d] for d in m.vertex_darts(vertex))))
    if dart is not None:
        parts.append(("dart", perm[dart]))
    return tuple(parts)


class TestTransferLeftFrozen:
    # double_edge, gaining face 1 at slot 1, losing face 2 via dart 3:
    # the geodesic is the single dart 3 and the result is the map of
    # type (3, 1) worked out by hand in the surgery tests.

    def test_forward(self):
        m2, slot2, dart2, carry = transfer_left(double_edge(), 1, 2, 1, 3)
        assert m2.twin == (1, 0, 3, 2)
        assert m2.next == (3, 1, 0, 2)
        assert m2.face == (1, 2, 1, 1)
        assert m2.marked == (0, 1)
        assert m2.degrees == (3, 1)
        assert slot2 == 1
        assert dart2 == 3
        assert carry == {}

    def test_output_direction(self):
        m2, slot2, dart2, _ = transfer_left(double_edge(), 1, 2, 1, 3)
        v = m2.vertex_of(m2.slot_anchor(2, slot2))
        assert classify_dart(m2, dart2, v) == "away"

    def test_inverse_restores_exactly(self):
        m2, slot2, dart2, _ = transfer_left(double_edge(), 1, 2, 1, 3)
        m3, slot3, dart3, _ = transfer_right(m2, 2, 1, slot2, dart2)
        orig = double_edge()
        assert m3.twin == orig.twin
        assert m3.next == orig.next
        assert m3.face == orig.face
        assert m3.marked == orig.marked
        assert slot3 == 1
        assert dart3 == 3

    def test_slot_zero_and_slot_deg_differ(self):
        # both slots anchor at the marked corner of face 1 but cut on
        # opposite sides of the arrow, so the outputs must differ
        a, sa, da, _ = transfer_left(double_edge(), 1, 2, 0, 1)
        b, sb, db, _ = transfer_left(double_edge(), 1, 2, 2, 1)
        assert keyed(a, slot=sa, dart=da) != keyed(b, slot=sb, dart=db)

    def test_carry_token_rides_exit_corner(self):
        tok = "probe"
        m2, _, _, carry = transfer_left(
            double_edge(), 1, 2, 1, 3, carry={tok: (2, 0)}
        )
        d, rank = carry[tok]
        assert rank == 0
        assert m2.face_of(d) == 1


class TestTransfer1Frozen:
    # loop_pendant: unit face 2 absorbed into face 1 at slot 3; the
    # geodesic is empty because slot 3 anchors at the loop vertex.

    def test_empty_walk_branch(self):
        m2, v, dart, carry = transfer1_right(loop_pendant(), 1, 2, 3)
        assert m2.degrees == (4,)
        assert m2.twin == (3, 2, 1, 0)
        assert m2.next == (1, 2, 3, 0)
        assert m2.marked == (3,)
        assert dart == 3
        assert v == m2.vertex_of(0)
        assert classify_dart(m2, dart, v) == "toward"
        assert carry == {}

    def test_inverse_restores_slot(self):
        m2, v, dart, _ = transfer1_right(loop_pendant(), 1, 2, 3)
        m3, slot3, _ = transfer1_left(m2, 1, 2, v, dart)
        assert slot3 == 3
        assert keyed(m3) == keyed(loop_pendant())

    def test_loop_map_both_slots(self):
        outs = set()
        for slot in (0, 1):
            m2, v, dart, _ = transfer1_right(loop_map(), 1, 2, slot)
            assert m2.degrees == (2,)
            assert m2.n_edges == 1
            assert classify_dart(m2, dart, v) == "toward"
            outs.add(keyed(m2, vertex=v, dart=dart))
        assert len(outs) == 2

    def test_long_walk_branch(self):
        # slot 2 of loop_pendant anchors at the pendant leaf, one step
        # from the loop vertex, so the loop edge travels the channel
        m2, v, dart, _ = transfer1_right(loop_pendant(), 1, 2, 2)
        assert m2.degrees == (4,)
        assert classify_dart(m2, dart, v) == "toward"
        m3, slot3, _ = transfer1_left(m2, 1, 2, v, dart)
        assert slot3 == 2
        assert keyed(m3) == keyed(loop_pendant())


class TestTransferErrors:
    def test_same_face(self):
        with pytest.raises(SameFace):
            transfer_left(double_edge(), 1, 1, 0, 0)
        with pytest.raises(SameFace):
            transfer1_right(loop_pendant(), 2, 2, 0)

    def test_bad_face(self):
        with pytest.raises(BadFace):
            transfer_left(double_edge(), 3, 1, 0, 0)
        with pytest.raises(BadFace):
            transfer1_left(loop_pendant(), 1, 5, 0, 0)

    def test_degree_too_small(self):
        m2, *_ = transfer_left(double_edge(), 1, 2, 1, 3)
        with pytest.raises(DegreeTooSmall):
            transfer_left(m2, 1, 2, 0, m2.marked[1])

    def test_needs_unit_face(self):
        with pytest.raises(NoDegreeOneFace):
            transfer1_right(double_edge(), 2, 1, 0)

    def test_slot_out_of_range(self):
        with pytest.raises(BadDecoration):
            transfer_left(double_edge(), 1, 2, 5, 3)

    def test_dart_off_face(self):
        with pytest.raises(BadDecoration):
            transfer_left(double_edge(), 1, 2, 1, 0)

    def test_wrong_direction(self):
        # dart 1 of face 2 points away from the slot-1 vertex
        with pytest.raises(BadDecoration):
            transfer_left(double_edge(), 1, 2, 1, 1)
        with pytest.raises(BadDecoration):
            transfer_right(double_edge(), 1, 2, 1, 3)

    def test_unit_face_needs_two_odd_faces(self):
        # three loops at one vertex, type (3, 1, 1, 1): face 4 has degree
        # one, but four faces are odd
        m = PlaneMap((1, 0, 3, 2, 5, 4), (2, 1, 4, 3, 0, 5), (1, 2, 1, 3, 1, 4), (0, 1, 3, 5))
        with pytest.raises(BadParity):
            transfer1_right(m, 1, 4, 0)

    def test_split_decoration_refused(self):
        # the loop_pendant absorbed at slot 3: vertex 0, darts 3 and 2
        # of face 1 toward it, 0 and 1 away
        m2, v, dart, _ = transfer1_right(loop_pendant(), 1, 2, 3)
        assert (v, dart, m2.n_vertices) == (0, 3, 3)
        with pytest.raises(BadDecoration):
            transfer1_left(m2, 1, 2, 3, dart)
        for away in (0, 1):
            with pytest.raises(BadDecoration):
                transfer1_left(m2, 1, 2, v, away)


P3_TYPES = [(2, 2), (1, 3), (3, 3), (2, 4)]


def tilde_p3(a):
    return (a[0] + 1,) + tuple(a[1:-1]) + (a[-1] - 1,)


class TestFaceToFaceFamilies:
    @pytest.mark.parametrize("a", P3_TYPES, ids=str)
    def test_left_is_a_bijection(self, a):
        r = len(a)
        images = []
        for m in enumerate_maps(a):
            for c, h2 in enumerate_decorations(m, Identity.FACE_TO_FACE, "lhs"):
                m2, c2, h, _ = transfer_left(m, 1, r, c, h2)
                images.append(keyed(m2, slot=c2, dart=h))
        targets = {
            keyed(mt, slot=c2, dart=h)
            for mt in enumerate_maps(tilde_p3(a))
            for c2, h in enumerate_decorations(mt, Identity.FACE_TO_FACE, "rhs")
        }
        assert len(images) == len(set(images)), "left transfer not injective"
        assert set(images) == targets

    @pytest.mark.parametrize("a", P3_TYPES, ids=str)
    def test_round_trips_both_orders(self, a):
        r = len(a)
        for m in enumerate_maps(a):
            for c, h2 in enumerate_decorations(m, Identity.FACE_TO_FACE, "lhs"):
                m2, c2, h, _ = transfer_left(m, 1, r, c, h2)
                m3, c3, h3, _ = transfer_right(m2, r, 1, c2, h)
                assert keyed(m3, slot=c3, dart=h3) == keyed(m, slot=c, dart=h2)
        for mt in enumerate_maps(tilde_p3(a)):
            for c2, h in enumerate_decorations(mt, Identity.FACE_TO_FACE, "rhs"):
                m2, c, h2, _ = transfer_right(mt, r, 1, c2, h)
                m3, c4, h4, _ = transfer_left(m2, 1, r, c, h2)
                assert keyed(m3, slot=c4, dart=h4) == keyed(mt, slot=c2, dart=h)


@pytest.mark.parametrize("a", [(20, 20), (50, 50)], ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_round_trip(a, seed, data):
    # transfer_left undoes transfer_right on sampled maps with E = 20
    # and 50: a slot of face 1 and a dart of face 2 away from it
    m = sample(a, seed)
    slot = data.draw(st.integers(0, m.degree(1)), label="slot")
    cv = m.vertex_of(m.slot_anchor(1, slot))
    dist = distances(m, cv)
    away = [d for d in m.contour(2) if classify_dart(m, d, cv, dist) == "away"]
    dart = data.draw(st.sampled_from(away), label="dart")
    m2, slot2, dart2, _ = transfer_right(m, 1, 2, slot, dart)
    m3, slot3, dart3, _ = transfer_left(m2, 2, 1, slot2, dart2)
    assert keyed(m3, slot=slot3, dart=dart3) == keyed(m, slot=slot, dart=dart)


P4_TYPES = [(3, 1), (1, 1), (1, 2, 1), (3, 2, 1)]


@pytest.mark.parametrize("a", [(39, 1), (20, 19, 1), (99, 1), (50, 49, 1)], ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_unit_round_trip(a, seed, data):
    # transfer1_left undoes transfer1_right on sampled maps with E = 20
    # and 50: the unit face r is absorbed at a slot of face 1 and split
    # off again
    m = sample(a, seed)
    r = len(a)
    slot = data.draw(st.integers(0, m.degree(1)), label="slot")
    m2, v, h, _ = transfer1_right(m, 1, r, slot)
    m3, slot3, _ = transfer1_left(m2, 1, r, v, h)
    assert keyed(m3, slot=slot3) == keyed(m, slot=slot)


def tilde_p4(a):
    return (a[0] + 1,) + tuple(a[1:-1])


class TestUnitFaceFamilies:
    @pytest.mark.parametrize("a", P4_TYPES, ids=str)
    def test_right_is_a_bijection(self, a):
        r = len(a)
        images = []
        for m in enumerate_maps(a):
            for (c,) in enumerate_decorations(m, Identity.UNIT_FACE, "lhs"):
                m2, v, h, _ = transfer1_right(m, 1, r, c)
                images.append(keyed(m2, vertex=v, dart=h))
        targets = {
            keyed(mt, vertex=v, dart=h)
            for mt in enumerate_maps(tilde_p4(a))
            for v, h in enumerate_decorations(mt, Identity.UNIT_FACE, "rhs")
        }
        assert len(images) == len(set(images)), "unit transfer not injective"
        assert set(images) == targets

    def test_unit_face_below_the_last(self):
        # lose=2 on (3, 1, 2): the last face drops from label 3 to 2, and
        # splitting the unit face back off at index 2 lifts it again
        for m in enumerate_maps((3, 1, 2)):
            for c in range(m.degree(1) + 1):
                m2, v, h, _ = transfer1_right(m, 1, 2, c)
                assert m2.degrees == (4, 2)
                m3, c3, _ = transfer1_left(m2, 1, 2, v, h)
                assert keyed(m3, slot=c3) == keyed(m, slot=c)

    @pytest.mark.parametrize("a", P4_TYPES, ids=str)
    def test_round_trips_both_orders(self, a):
        r = len(a)
        for m in enumerate_maps(a):
            for (c,) in enumerate_decorations(m, Identity.UNIT_FACE, "lhs"):
                m2, v, h, _ = transfer1_right(m, 1, r, c)
                m3, c3, _ = transfer1_left(m2, 1, r, v, h)
                assert keyed(m3, slot=c3) == keyed(m, slot=c)
        for mt in enumerate_maps(tilde_p4(a)):
            for v, h in enumerate_decorations(mt, Identity.UNIT_FACE, "rhs"):
                m2, c, _ = transfer1_left(mt, 1, r, v, h)
                m3, v3, h3, _ = transfer1_right(m2, 1, r, c)
                assert keyed(m3, vertex=v3, dart=h3) == keyed(mt, vertex=v, dart=h)
