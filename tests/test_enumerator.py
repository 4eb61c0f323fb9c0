"""Gluing enumeration against the counting formula."""

from itertools import islice, product

import pytest

from planemaps import enumerator
from planemaps.bijections import transfer1_left, transfer_right
from planemaps.counting import (
    Identity,
    admissible_types,
    decoration_radices,
    identity_families,
    identity_sides,
    identity_target,
    tutte_count,
)
from planemaps.enumerator import DEFAULT_MAX_EDGES, decode, enumerate_decorations, enumerate_maps
from planemaps.errors import (
    BadArgument,
    BadDecoration,
    BadParity,
    Disconnected,
    PlaneMapError,
    TooManyEdges,
    WrongGenus,
)
from planemaps.maps import PlaneMap
from planemaps.metric import directed_darts, distances

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


# The reference for the kept matchings: a recursive generator run
# afresh for every type, and the sigma-orbit genus screen.
# enumerate_maps must give the same maps in the same order.
def reference_matchings(n):
    """Fixed-point-free involutions of 0..n-1, smallest unmatched first."""
    twin = [-1] * n

    def rec(d):
        while d < n and twin[d] >= 0:
            d += 1
        if d == n:
            yield tuple(twin)
            return
        for e in range(d + 1, n):
            if twin[e] < 0:
                twin[d], twin[e] = e, d
                yield from rec(d + 1)
                twin[d], twin[e] = -1, -1

    return rec(0)


def reference_maps(t):
    """enumerate_maps(t) from reference_matchings and the genus screen."""
    e = sum(t) // 2
    n = 2 * e
    next_ = [0] * n
    marked = []
    off = 0
    for deg in t:
        marked.append(off)
        for k in range(deg):
            next_[off + k] = off + (k + 1) % deg
        off += deg
    out = []
    for twin in reference_matchings(n):
        seen = [False] * n
        v = 0
        for d in range(n):
            if not seen[d]:
                v += 1
                x = d
                while not seen[x]:
                    seen[x] = True
                    x = next_[twin[x]]
        if v != e + 2 - len(t):
            continue
        try:
            out.append(PlaneMap(twin, next_, None, marked))
        except (Disconnected, WrongGenus):
            continue
    return out


def double_factorial(k):
    return 1 if k < 2 else k * double_factorial(k - 2)


class TestMatchingTables:
    @pytest.mark.parametrize("n", range(2, 2 * DEFAULT_MAX_EDGES + 1, 2))
    def test_table(self, n):
        twins = list(enumerator._matchings(n))
        table = enumerator._tables[n]
        assert len(twins) == double_factorial(n - 1)
        assert len(table) == n * len(twins)
        for twin in twins:
            assert len(twin) == n
            assert all(twin[d] != d and twin[twin[d]] == d for d in range(n))
        assert len(set(twins)) == len(twins)
        assert all(a < b for a, b in zip(twins, twins[1:]))  # lexicographic
        assert [tuple(twin) for twin in twins] == list(reference_matchings(n))
        assert list(enumerator._matchings(n)) == twins
        assert enumerator._tables[n] is table  # built once, then kept

    def test_streamed_above_bound(self):
        n = 2 * DEFAULT_MAX_EDGES + 2
        head = [tuple(twin) for twin in islice(enumerator._matchings(n), 1000)]
        assert head == list(islice(reference_matchings(n), 1000))
        assert n not in enumerator._tables

    @pytest.mark.parametrize(
        "a",
        [
            *admissible_types(4),
            (10,), (5, 5), (6, 4), (4, 4, 2), (3, 3, 2, 2), (2, 1, 3, 4), (2, 2, 2, 2, 2),
        ],
        ids=str,
    )
    def test_maps_equal_reference(self, a):
        assert enumerate_maps(a) == reference_maps(a)


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

    def test_maps_of_a_type_share_their_face_tuples(self):
        # one copy per type: the E <= 5 round-trip sweep's peak memory rests on it
        first, *rest = enumerate_maps((4, 2, 2))
        assert rest
        for m in rest:
            for name in ("next", "marked", "_contours", "_prev", "face"):
                assert getattr(m, name) is getattr(first, name), name

    def test_no_genus_zero_gluing(self):
        assert enumerate_maps((1, 1, 1, 1)) == []

    def test_edge_guard(self):
        with pytest.raises(ValueError):
            enumerate_maps((20, 2))
        with pytest.raises(TooManyEdges):
            enumerate_maps((4, 4), max_edges=3)
        assert len(enumerate_maps((2,), max_edges=1)) == 1
        assert len(enumerate_maps((2,), max_edges=True)) == 1
        assert issubclass(TooManyEdges, PlaneMapError)

    @pytest.mark.parametrize("bound", ["5", None, 5.5])
    def test_edge_bound_strict(self, bound):
        # "5" and None raised a bare TypeError, 5.5 was compared as is
        with pytest.raises(BadArgument) as info:
            enumerate_maps((2, 2), max_edges=bound)
        assert isinstance(info.value, PlaneMapError)
        assert isinstance(info.value, ValueError)


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

    def test_lhs_refuses_where_the_identity_does_not_apply(self):
        # FACE_TO_FACE on (4,) listed "face 1 to face 1" decorations and
        # UNIT_FACE on (4, 2) listed slots, though neither identity applies;
        # on the rhs, FACE_TO_FACE on (2,) and CORNER_EACH_TWO_FACES on
        # (2, 2) listed decorations that the inverse bijections refuse,
        # though neither type is a target of the identity
        targets = {(ident, tt) for _, ident, tt in identity_families(4)}
        refused = {"lhs": 0, "rhs": 0}
        for t in admissible_types(4):
            maps = enumerate_maps(t)
            for identity in Identity:
                try:
                    identity_target(identity, t)
                except BadParity:
                    refused["lhs"] += 1
                    with pytest.raises(BadParity):
                        enumerate_decorations(maps[0], identity, "lhs")
                else:
                    assert enumerate_decorations(maps[0], identity, "lhs"), (t, identity)
                if (identity, t) in targets:
                    assert any(enumerate_decorations(m, identity, "rhs") for m in maps), t
                else:
                    refused["rhs"] += 1
                    with pytest.raises(BadParity):
                        enumerate_decorations(maps[0], identity, "rhs")
        assert refused["lhs"] > 20 and refused["rhs"] > 20, refused

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


def reference_decorations(m, identity, side):
    """enumerate_decorations as one branch per identity and side."""
    radices = decoration_radices(identity, side, m.degrees)
    if side == "lhs" and identity is not Identity.FACE_TO_FACE:
        return list(product(*map(range, radices)))
    out = []
    if identity is Identity.FACE_TO_FACE:
        f, g, direction = (1, m.n_faces, "toward") if side == "lhs" else (m.n_faces, 1, "away")
        for c in range(radices[0]):
            v = m.vertex_of(m.slot_anchor(f, c))
            out += [(c, h) for h in directed_darts(m, g, v, direction)]
        return out
    for v in range(radices[0]):
        if identity is Identity.CORNER_EACH_TWO_FACES:
            dist = distances(m, v)
            hs, hs2 = (directed_darts(m, f, v, "toward", dist) for f in (1, 2))
        else:
            hs = hs2 = directed_darts(m, 1, v, "toward")
        if identity is Identity.UNIT_FACE:
            out += [(v, h) for h in hs]
        else:
            out += [(v, h, h2) for h in hs for h2 in hs2 if h != h2]
    return out


class TestDecode:
    def test_every_digit_tuple_in_order_is_the_enumeration(self):
        # every family with at most 4 edges on its lhs, both sides
        maps, n = {}, 0
        for t, identity, target in identity_families(4):
            for side, a in (("lhs", t), ("rhs", target)):
                radices = decoration_radices(identity, side, a)
                if a not in maps:
                    maps[a] = enumerate_maps(a)
                for m in maps[a]:
                    got = [decode(m, identity, side, ds) for ds in product(*map(range, radices))]
                    assert got == enumerate_decorations(m, identity, side), (a, identity, side)
                    assert got == reference_decorations(m, identity, side), (a, identity, side)
                    n += len(got)
        assert n == 122_600

    @pytest.mark.parametrize(
        "identity, side, a",
        [
            (Identity.TWO_CORNERS_SAME_FACE, "lhs", (4, 2)),
            (Identity.TWO_CORNERS_SAME_FACE, "rhs", (6, 2)),
            (Identity.CORNER_EACH_TWO_FACES, "rhs", (3, 3)),
            (Identity.FACE_TO_FACE, "lhs", (4, 2)),
            (Identity.FACE_TO_FACE, "rhs", (3, 1)),
            (Identity.UNIT_FACE, "lhs", (3, 1)),
            (Identity.UNIT_FACE, "rhs", (4,)),
        ],
    )
    def test_refuses_digits_off_the_radices(self, identity, side, a):
        m = enumerate_maps(a)[0]
        radices = decoration_radices(identity, side, a)
        low = [0] * len(radices)
        assert decode(m, identity, side, low)
        bad = [low[:-1], low + [0], [0.0] + low[1:], [-1] + low[1:], low[:-1] + [-1]]
        bad += [low[:k] + [x] + low[k + 1 :] for k, x in enumerate(radices)]
        for digits in bad:
            with pytest.raises(BadDecoration):
                decode(m, identity, side, digits)

    def test_type_off_the_side_raises_as_the_table(self):
        m = enumerate_maps((3, 1))[0]
        refused = set()
        for identity, side in product(Identity, ("lhs", "rhs")):
            try:
                decoration_radices(identity, side, m.degrees)
            except BadParity as info:
                with pytest.raises(BadParity) as got:
                    decode(m, identity, side, (0, 0, 0))
                assert type(got.value) is type(info)
                refused.add(type(info))
        assert len(refused) > 1, refused

    @pytest.mark.parametrize(
        "a", [(3, 1), (1, 3), (2, 3, 1), (1, 2, 3), (3, 3), (5, 1), (3, 2, 1)], ids=str
    )
    def test_sampler_roles_feed_the_transfers(self, a):
        # the sampler's last step: an rhs decoration of its bipartite
        # relative at the two odd faces i and j, then one transfer back
        i, j = (k for k, x in enumerate(a, start=1) if x % 2)
        relative = list(a)
        relative[i - 1] += 1
        relative[j - 1] -= 1
        if a[j - 1] == 1:
            del relative[j - 1]
            identity, roles = Identity.UNIT_FACE, (i,)
            transfer = lambda m, v, h: transfer1_left(m, i, j, v, h)
        else:
            identity, roles = Identity.FACE_TO_FACE, (i, j)
            transfer = lambda m, slot, h: transfer_right(m, j, i, slot, h)
        n = 0
        for m in enumerate_maps(relative):
            radices = decoration_radices(identity, "rhs", m.degrees, *roles)
            for ds in product(*map(range, radices)):
                assert transfer(m, *decode(m, identity, "rhs", ds, *roles))[0].degrees == a
                n += 1
        assert n
