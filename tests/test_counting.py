"""Counting formula, parity classes and the four identities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import planemaps.counting as counting_module
from planemaps.counting import (
    Identity,
    _side_rule,
    admissible_types,
    alpha,
    check_type,
    classify,
    decoration_radices,
    edge_count,
    identity_families,
    identity_sides,
    identity_target,
    odd_positions,
    tutte_count,
    vertex_count,
)
from planemaps.enumerator import enumerate_maps
from planemaps.errors import (
    BadArgument,
    BadFace,
    BadParity,
    BadType,
    DegreeTooSmall,
    NoDegreeOneFace,
    NonPositiveV,
    NotBipartite,
    OddSum,
    PlaneMapError,
    SameFace,
    TooManyOddFaces,
)
from planemaps.maps import build
from planemaps.sampler import sample


def all_types(max_edges):
    """Every degree tuple with at most max_edges edges."""
    for e in range(1, max_edges + 1):
        total = 2 * e
        for r in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), r - 1):
                bounds = (0,) + cuts + (total,)
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


class TestBasics:
    def test_alpha(self):
        assert [alpha(x) for x in range(1, 8)] == [1, 2, 6, 12, 30, 60, 140]

    @pytest.mark.parametrize("x", [0, -1, 1.0, "1", None, 2.5])
    def test_alpha_refuses_nonpositive(self, x):
        # the non-integers raised a bare TypeError
        with pytest.raises(BadArgument) as info:
            alpha(x)
        assert isinstance(info.value, PlaneMapError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bound", [1.0, "1", None, 2.5])
    @pytest.mark.parametrize("listing", [admissible_types, identity_families])
    def test_type_listings_refuse_a_non_integer_bound(self, listing, bound):
        # each raised a bare TypeError, or listed up to a float bound;
        # the refusal comes at the call, not when the listing is iterated
        with pytest.raises(BadArgument):
            listing(bound)
        assert len(list(listing(True))) == len(list(listing(1)))

    def test_edge_vertex_count(self):
        assert edge_count((4, 4)) == 4
        assert vertex_count((4, 4)) == 4
        with pytest.raises(OddSum):
            edge_count((3,))
        with pytest.raises(NonPositiveV):
            vertex_count((1, 1, 1, 1))

    def test_classify(self):
        assert classify((2, 4)) == "bipartite"
        assert classify((3, 4, 5)) == "quasibipartite"
        assert odd_positions((20, 4, 8, 4, 4, 3, 4, 4, 4, 6, 4, 7, 4, 2)) == (6, 12)
        assert classify((20, 4, 8, 4, 4, 3, 4, 4, 4, 6, 4, 7, 4, 2)) \
            == "quasibipartite"
        with pytest.raises(TooManyOddFaces):
            classify((3, 3, 3))
        with pytest.raises(TooManyOddFaces):
            classify((1, 1, 1, 1))

    def test_bad_input(self):
        with pytest.raises(ValueError):
            tutte_count(())
        with pytest.raises(ValueError):
            tutte_count((0, 2))


class TestStrictTypes:
    # int() used to truncate these, so (4.7, 4) counted and sampled as (4, 4)
    @pytest.mark.parametrize(
        "a",
        [(4.7, 4), (4.0, 4), (4, 2.5), ("4", "4"), "44", (4, None), (), (0, 2), 4],
        ids=repr,
    )
    def test_refused(self, a):
        with pytest.raises(BadType):
            check_type(a)

    def test_every_entry_point(self):
        assert issubclass(BadType, ValueError)
        with pytest.raises(BadType):
            sample((4.7, 4), 1)
        with pytest.raises(BadType):
            tutte_count((4.9, 4))
        with pytest.raises(BadType):
            enumerate_maps((2.5, 2))
        m = enumerate_maps((4, 4))[0]
        with pytest.raises(BadType):
            build((4.6, 4.2), m.twin, m.next, m.face, m.marked)
        assert build((4, 4), m.twin, m.next, m.face, m.marked) == m

    def test_integer_likes_accepted(self):
        class Degree:
            def __index__(self):
                return 3

        t = check_type([4, True, Degree()])
        assert t == (4, 1, 3) and all(type(x) is int for x in t)
        assert check_type(x for x in (2, 2)) == (2, 2)


class TestTutteCount:
    @pytest.mark.parametrize(
        "a, m",
        [
            ((2,), 1),
            ((4,), 2),
            ((6,), 5),
            ((8,), 14),
            ((2, 2), 2),
            ((2, 2, 2), 8),
            ((2, 2, 2, 2), 48),
            ((4, 2), 8),
            ((4, 4), 36),
            ((1, 1), 1),
            ((3, 1), 3),
            ((3, 3), 12),
            ((5, 1), 10),
        ],
    )
    def test_frozen_values(self, a, m):
        assert tutte_count(a) == m

    def test_all_digon_types(self):
        for r in range(1, 7):
            assert tutte_count((2,) * r) == 2 ** (r - 1) * factorial(r - 1)

    @given(st.permutations([4, 2, 2, 3, 3]))
    def test_permutation_invariance(self, a):
        assert tutte_count(a) == tutte_count((4, 2, 2, 3, 3))

    def test_rejects_bad_class(self):
        with pytest.raises(TooManyOddFaces):
            tutte_count((5, 3, 3, 1))

    def test_equals_rational_evaluation(self):
        # the integer division against the formula in exact rationals,
        # alpha included, for every admissible type up to ten edges
        n = 0
        for a in admissible_types(10):
            e = sum(a) // 2
            val = Fraction(factorial(e - 1), factorial(e - len(a) + 2))
            for x in a:
                val *= Fraction(
                    factorial(x), factorial(x // 2) * factorial((x - 1) // 2)
                )
            assert val.denominator == 1, a
            assert tutte_count(a) == val.numerator, a
            n += 1
        assert n == 29183

    def test_remainder_raises(self, monkeypatch):
        # with every weight 1, (2, 2) would count 1!/2! maps
        monkeypatch.setattr(counting_module, "alpha", lambda x: 1)
        with pytest.raises(ArithmeticError):
            tutte_count((2, 2))


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TestIdentities:
    @pytest.mark.parametrize(
        "identity, a, value",
        [
            (Identity.TWO_CORNERS_SAME_FACE, (2,), 12),
            (Identity.CORNER_EACH_TWO_FACES, (2, 2), 36),
            (Identity.FACE_TO_FACE, (2, 2), 6),
            (Identity.UNIT_FACE, (1, 1), 2),
            (Identity.UNIT_FACE, (3, 1), 12),
        ],
    )
    def test_frozen_instances(self, identity, a, value):
        assert identity_sides(identity, a) == (value, value)

    def test_targets(self):
        assert identity_target(Identity.TWO_CORNERS_SAME_FACE, (2, 4)) == (4, 4)
        assert identity_target(Identity.CORNER_EACH_TWO_FACES, (2, 4)) == (3, 5)
        assert identity_target(Identity.FACE_TO_FACE, (2, 4)) == (3, 3)
        assert identity_target(Identity.UNIT_FACE, (3, 2, 1)) == (4, 2)

    @pytest.mark.parametrize(
        "identity, a",
        [
            (Identity.TWO_CORNERS_SAME_FACE, (3, 1)),
            (Identity.CORNER_EACH_TWO_FACES, (4,)),
            (Identity.CORNER_EACH_TWO_FACES, (3, 1)),
            (Identity.FACE_TO_FACE, (4,)),
            (Identity.FACE_TO_FACE, (2, 1)),
            (Identity.FACE_TO_FACE, (3, 3, 2)),
            (Identity.UNIT_FACE, (2, 2)),
            (Identity.UNIT_FACE, (1, 3)),
            (Identity.UNIT_FACE, (4,)),
        ],
    )
    def test_bad_parity(self, identity, a):
        with pytest.raises(BadParity):
            identity_sides(identity, a)

    @pytest.mark.parametrize("identity", list(Identity))
    def test_sweep(self, identity):
        checked = 0
        for a in all_types(6):
            try:
                lhs, rhs = identity_sides(identity, a)
            except BadParity:
                continue
            assert lhs == rhs, (identity, a)
            checked += 1
        assert checked > 50


def _outcome(f, *args):
    """f(*args), or the class of the library error it raises."""
    try:
        return f(*args)
    except PlaneMapError as exc:
        return type(exc)


class TestRadices:
    """decoration_radices: the per-map decoration counts, one coordinate each."""

    def test_frozen_instances(self):
        # E = 3 on (4, 2), V = 4 on its targets (6, 2) and (5, 3)
        t = (4, 2)
        assert decoration_radices(Identity.TWO_CORNERS_SAME_FACE, "lhs", t) == (3, 5, 6)
        assert decoration_radices(Identity.TWO_CORNERS_SAME_FACE, "rhs", (6, 2)) == (4, 3, 2)
        assert decoration_radices(Identity.CORNER_EACH_TWO_FACES, "lhs", t) == (3, 5, 3)
        assert decoration_radices(Identity.CORNER_EACH_TWO_FACES, "rhs", (5, 3)) == (4, 2, 1)
        assert decoration_radices(Identity.FACE_TO_FACE, "lhs", t) == (5, 1)
        assert decoration_radices(Identity.FACE_TO_FACE, "rhs", (5, 1)) == (2, 2)
        assert decoration_radices(Identity.UNIT_FACE, "lhs", (3, 1)) == (4,)
        assert decoration_radices(Identity.UNIT_FACE, "rhs", (4,)) == (3, 2)

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("identity", list(Identity))
    def test_roles_are_face_positions(self, identity, side):
        # at roles (i, j) the table reads t, or refuses it, as its default
        # roles read t with face i moved first and face j to the second
        # role's place
        compared = 0
        for t in admissible_types(5):
            for i, j in itertools.permutations(range(1, len(t) + 1), 2):
                rest = [x for k, x in enumerate(t, start=1) if k not in (i, j)]
                if identity is Identity.CORNER_EACH_TWO_FACES:
                    moved = (t[i - 1], t[j - 1], *rest)
                else:
                    moved = (t[i - 1], *rest, t[j - 1])
                got = _outcome(decoration_radices, identity, side, t, i, j)
                assert got == _outcome(decoration_radices, identity, side, moved), (t, i, j)
                compared += 1
        assert compared > 1000

    def test_refusals(self):
        # a two-face side of a one-face type: the rule's default-roles clause
        with pytest.raises(BadParity) as info:
            decoration_radices(Identity.CORNER_EACH_TWO_FACES, "rhs", (4,))
        assert type(info.value) is BadParity
        with pytest.raises(BadFace):
            decoration_radices(Identity.UNIT_FACE, "lhs", (3, 1), 0)
        with pytest.raises(BadArgument):
            decoration_radices(Identity.UNIT_FACE, "both", (3, 1))
        with pytest.raises(BadArgument):
            decoration_radices(Identity.UNIT_FACE.value, "lhs", (3, 1))

    @pytest.mark.parametrize(
        "identity, side, t, error",
        [
            # these were read as if the identity applied: (1, 4, 5) on (3,)
            (Identity.TWO_CORNERS_SAME_FACE, "lhs", (3,), NotBipartite),
            (Identity.TWO_CORNERS_SAME_FACE, "rhs", (2, 2), DegreeTooSmall),
            (Identity.CORNER_EACH_TWO_FACES, "rhs", (4, 4), BadParity),
            (Identity.FACE_TO_FACE, "rhs", (1, 3), DegreeTooSmall),
            (Identity.UNIT_FACE, "lhs", (2, 2), NoDegreeOneFace),
        ],
    )
    def test_types_off_the_side_refused(self, identity, side, t, error):
        with pytest.raises(BadParity) as info:
            decoration_radices(identity, side, t)
        assert type(info.value) is error

    @pytest.mark.parametrize(
        "args, error",
        [
            # a float degree was read as a degree: (1.0, 2.5, 3.5)
            (((1.5, 2),), BadType),
            (((2, "2"),), BadType),
            (((2, 2), 1.0), BadArgument),  # a bare TypeError
            (((2, 2), "1"), BadArgument),
            (((2, 2), 1, 2.0), BadArgument),
        ],
        ids=lambda x: getattr(x, "__name__", repr(x)),
    )
    def test_non_integer_inputs_refused(self, args, error):
        with pytest.raises(error):
            decoration_radices(Identity.TWO_CORNERS_SAME_FACE, "lhs", *args)


class TestSideRule:
    """_side_rule: the one type rule of each side of each identity."""

    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    def test_rhs_is_the_image_of_the_lhs(self, identity):
        # over every composition of 2E, E <= 6, of any parity: the rhs
        # rule accepts exactly the targets of the types the lhs accepts
        types = list(all_types(6))
        lhs = [s for s in types if _outcome(_side_rule, identity, "lhs", s) is None]
        rhs = {t for t in types if _outcome(_side_rule, identity, "rhs", t) is None}
        images = {identity_target(identity, s) for s in lhs}
        assert rhs == {t for t in images if sum(t) <= 12}
        assert len(rhs) > 20

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    def test_roles_are_face_positions(self, identity, side):
        # at roles (i, j) the rule accepts or refuses t as the default
        # roles do t with face i moved first and face j to the second
        # role's place, refusal class included, over every parity
        outcomes = set()
        for t in all_types(5):
            for i, j in itertools.permutations(range(1, len(t) + 1), 2):
                rest = [x for k, x in enumerate(t, start=1) if k not in (i, j)]
                if identity is Identity.CORNER_EACH_TWO_FACES:
                    moved = (t[i - 1], t[j - 1], *rest)
                else:
                    moved = (t[i - 1], *rest, t[j - 1])
                got = _outcome(_side_rule, identity, side, t, i, j)
                assert got == _outcome(_side_rule, identity, side, moved), (t, i, j)
                outcomes.add(got)
        assert None in outcomes and len(outcomes) > 1, outcomes

    def test_faces_before_the_clauses(self):
        # BadFace, then SameFace for two given roles, then the clauses;
        # at the default roles a one-face type is off a two-face side
        with pytest.raises(BadFace):
            _side_rule(Identity.FACE_TO_FACE, "lhs", (3, 1, 1, 1), 1, 5)
        with pytest.raises(SameFace):
            _side_rule(Identity.FACE_TO_FACE, "lhs", (3, 1, 1, 1), 2, 2)
        _side_rule(Identity.TWO_CORNERS_SAME_FACE, "lhs", (4,), 1, 1)
        for identity in (Identity.CORNER_EACH_TWO_FACES, Identity.FACE_TO_FACE):
            with pytest.raises(BadParity):
                _side_rule(identity, "lhs", (4,))
