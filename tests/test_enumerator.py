"""Gluing enumeration against the counting formula."""

import pytest

from planemaps.counting import Identity, identity_sides, identity_target, tutte_count
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.errors import BadArgument, PlaneMapError, TooManyEdges

SMALL_TYPES = [
    (2,),
    (4,),
    (6,),
    (8,),
    (2, 2),
    (2, 2, 2),
    (2, 2, 2, 2),
    (4, 2),
    (4, 4),
    (6, 2),
    (4, 2, 2),
    (1, 1),
    (3, 1),
    (3, 3),
    (5, 1),
    (5, 3),
    (3, 3, 2),
    (2, 3, 3),
    (1, 1, 2),
    (2, 1, 1),
]


class TestEnumeration:
    @pytest.mark.parametrize("a", SMALL_TYPES)
    def test_count_matches_formula(self, a):
        assert len(enumerate_maps(a)) == tutte_count(a)

    @pytest.mark.parametrize("a", [(2, 2), (4,), (3, 1), (3, 3)])
    def test_codes_distinct(self, a):
        maps = enumerate_maps(a)
        codes = {m.canonical_code() for m in maps}
        assert len(codes) == len(maps)

    def test_marks_are_polygon_roots(self):
        for m in enumerate_maps((4, 2)):
            assert m.marked == (0, 4)
            assert m.degrees == (4, 2)

    def test_many_odd_faces_still_enumerable(self):
        maps = enumerate_maps((3, 1, 1, 1))
        assert all(m.degrees == (3, 1, 1, 1) for m in maps)

    def test_no_genus_zero_gluing(self):
        assert enumerate_maps((1, 1, 1, 1)) == []

    def test_edge_guard(self):
        with pytest.raises(ValueError):
            enumerate_maps((20, 2))
        with pytest.raises(TooManyEdges):
            enumerate_maps((4, 4), max_edges=3)
        assert len(enumerate_maps((2,), max_edges=1)) == 1
        assert issubclass(TooManyEdges, PlaneMapError)


class TestDecorations:
    @pytest.mark.parametrize(
        "identity, a",
        [
            (Identity.TWO_CORNERS_SAME_FACE, (2,)),
            (Identity.TWO_CORNERS_SAME_FACE, (2, 2)),
            (Identity.CORNER_EACH_TWO_FACES, (2, 2)),
            (Identity.CORNER_EACH_TWO_FACES, (2, 2, 2)),
            (Identity.FACE_TO_FACE, (2, 2)),
            (Identity.FACE_TO_FACE, (4, 2)),
            (Identity.FACE_TO_FACE, (3, 3)),
            (Identity.UNIT_FACE, (1, 1)),
            (Identity.UNIT_FACE, (3, 1)),
            (Identity.UNIT_FACE, (2, 1, 1)),
        ],
    )
    def test_family_sizes_match_identity(self, identity, a):
        lhs, rhs = identity_sides(identity, a)
        total = sum(
            len(enumerate_decorations(m, identity, "lhs"))
            for m in enumerate_maps(a)
        )
        assert total == lhs
        target = identity_target(identity, a)
        total = sum(
            len(enumerate_decorations(m, identity, "rhs"))
            for m in enumerate_maps(target)
        )
        assert total == rhs

    def test_bad_side(self):
        # a library error, and still the ValueError it was before
        (m,) = enumerate_maps((2,))
        with pytest.raises(ValueError):
            enumerate_decorations(m, Identity.UNIT_FACE, "both")
        for identity in Identity:
            with pytest.raises(ValueError) as info:
                enumerate_decorations(m, identity, "left")
            assert isinstance(info.value, BadArgument)
            assert isinstance(info.value, PlaneMapError)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: identity_target(x, (3, 1)),
            lambda x: identity_sides(x, (3, 1)),
            lambda x: enumerate_decorations(enumerate_maps((3, 1))[0], x, "lhs"),
            lambda x: enumerate_decorations(enumerate_maps((3, 1))[0], x, "rhs"),
        ],
        ids=["identity_target", "identity_sides", "decorations lhs", "decorations rhs"],
    )
    def test_unknown_identity(self, call):
        # the identity's value is not the identity: these raised a bare TypeError
        with pytest.raises(BadArgument) as info:
            call(Identity.UNIT_FACE.value)
        assert isinstance(info.value, PlaneMapError)
        assert isinstance(info.value, ValueError)
