"""Construction, validation, corners and serialization of plane maps."""

import types

import pytest
from hypothesis import given, strategies as st

import planemaps.maps as maps_module
from planemaps.cli import admissible_types
from planemaps.enumerator import enumerate_maps
from planemaps.errors import (
    BadDecoration,
    BadFace,
    BadMark,
    Disconnected,
    FaceMismatch,
    NotInvolution,
    NotPermutation,
    ParseError,
    PlaneMapError,
    WrongGenus,
)
from planemaps.maps import CornerSlot, PlaneMap, _as_perm, build
from planemaps.sampler import sample
from planemaps.surgery import edge_to_digon, finish, workspace_with_arrows

from common import ALL_EXAMPLES, digon, double_edge, loop_map, loop_pendant, path_map


def with_marked(m, i, d):
    """Copy of m with face i marked at the corner before d."""
    m.contour(i)  # raises BadFace for a face outside 1..r
    marked = list(m.marked)
    marked[i - 1] = d
    return PlaneMap(m.twin, m.next, None, marked)


def relabel(m, perm):
    """m with darts renamed by d -> perm[d]; the map stays the same."""
    p = _as_perm(perm, "perm")
    n = m.n_darts
    if len(p) != n:
        raise NotPermutation("perm acts on the wrong dart set")
    twin = [0] * n
    next_ = [0] * n
    for d in range(n):
        twin[p[d]] = p[m.twin[d]]
        next_[p[d]] = p[m.next[d]]
    return PlaneMap(twin, next_, None, [p[d] for d in m.marked])


class TestBasics:
    def test_digon(self):
        m = digon()
        assert m.degrees == (2,)
        assert m.n_edges == 1
        assert m.n_vertices == 2
        assert m.contour(1) == (0, 1)
        assert m.vertices() == ((0,), (1,))

    def test_double_edge(self):
        m = double_edge()
        assert m.degrees == (2, 2)
        assert m.n_vertices == 2
        assert m.contour(1) == (0, 2)
        assert m.contour(2) == (3, 1)
        assert set(m.vertices()) == {(0, 3), (1, 2)}

    def test_path_map(self):
        m = path_map()
        assert m.degrees == (4,)
        assert m.contour(1) == (0, 2, 3, 1)
        assert m.n_vertices == 3
        assert m.vertex_of(1) == m.vertex_of(2)
        assert m.head_of(0) == m.vertex_of(1)

    def test_loop_pendant(self):
        m = loop_pendant()
        assert m.degrees == (3, 1)
        assert m.contour(1) == (0, 2, 3)
        assert m.contour(2) == (1,)
        assert m.vertex_of(0) == m.vertex_of(1) == m.vertex_of(2)
        assert m.vertex_darts(m.vertex_of(3)) == (3,)

    def test_loop_map(self):
        m = loop_map()
        assert m.degrees == (1, 1)
        assert m.n_vertices == 1

    def test_sigma_clockwise_on_loop_pendant(self):
        m = loop_pendant()
        assert m.sigma(0) == 1
        assert m.sigma(1) == 2
        assert m.sigma(2) == 0
        assert m.sigma(3) == 3

    def test_sigma_inverse(self):
        for make in ALL_EXAMPLES:
            m = make()
            # sigma is a permutation, and prev undoes next
            assert sorted(map(m.sigma, range(m.n_darts))) == list(range(m.n_darts))
            for d in range(m.n_darts):
                assert m.prev(m.next[d]) == d

    def test_edges(self):
        assert double_edge().edges() == ((0, 1), (2, 3))

    def test_edge_lookups_match_edges(self):
        # every map with E <= 4, and sampled maps at E = 50
        maps = [m for t in admissible_types(4) for m in enumerate_maps(t)]
        for t in ((100,), (50, 50), (4,) * 25, (51, 49)):
            maps += [sample(t, seed) for seed in range(3)]
        for m in maps:
            edges = m.edges()
            assert tuple(m.edge(e) for e in range(m.n_edges)) == edges
            for d, t in enumerate(m.twin):
                assert m.edge_index(d) == edges.index((min(d, t), max(d, t)))

    def test_edge_lookups_out_of_range(self):
        m = double_edge()
        for e in (-1, 2):
            with pytest.raises(ValueError) as info:
                m.edge(e)
            assert isinstance(info.value, PlaneMapError)
        for d in (-1, 4):
            with pytest.raises(ValueError) as info:
                m.edge_index(d)
            assert isinstance(info.value, PlaneMapError)

    # each once raised a bare TypeError, or islice's ValueError for edge(1.0)
    @pytest.mark.parametrize(
        "name, args",
        [
            ("edge", ("1",)),
            ("edge", (None,)),
            ("edge", (1.0,)),
            ("edge_index", ("1",)),
            ("edge_index", (1.5,)),
            ("slot_anchor", (1, "1")),
            ("slot_anchor", (1, 1.0)),
        ],
        ids=["edge-str", "edge-None", "edge-float", "edge_index-str", "edge_index-float",
             "slot_anchor-str", "slot_anchor-float"],
    )
    def test_non_integer_lookups_refused(self, name, args):
        m = sample((4, 2), 0)
        with pytest.raises(BadDecoration):
            getattr(m, name)(*args)

    def test_immutable(self):
        m = digon()
        with pytest.raises(AttributeError):
            m.twin = (0, 1)
        with pytest.raises(AttributeError):
            m.degrees = (1, 1)
        with pytest.raises(AttributeError):
            m.extra = 1


class TestDegreesAtConstruction:
    """degrees is a slot the constructor fills, on every path that builds a map."""

    @staticmethod
    def assert_filled(maps):
        assert maps
        for m in maps:
            # an unfilled slot would raise AttributeError on this read
            assert m.degrees == tuple(map(len, m._contours))

    def test_is_a_slot(self):
        assert isinstance(vars(PlaneMap)["degrees"], types.MemberDescriptorType)

    def test_enumeration_slot_hits(self, monkeypatch):
        walks = []
        real = maps_module._walk_labels
        monkeypatch.setattr(maps_module, "_walk_labels", lambda *a: walks.append(a) or real(*a))
        monkeypatch.setattr(maps_module, "_last_faces", None)
        maps = enumerate_maps((4, 2, 2))
        assert len(walks) == 1 < len(maps)  # every map after the first hit the slot
        self.assert_filled(maps)

    def test_other_paths(self):
        maps = [sample(t, s) for t in ((4, 2), (3, 3), (6,)) for s in range(3)]
        self.assert_filled([finish(workspace_with_arrows(m))[0] for m in maps])
        self.assert_filled([edge_to_digon(m, m.n_edges - 1, 1) for m in maps])
        self.assert_filled([PlaneMap.from_json(m.to_json()) for m in maps])
        self.assert_filled([build(m.degrees, m.twin, m.next, m.face, m.marked) for m in maps])
        self.assert_filled([PlaneMap(m.twin, m.next, None, m.marked) for m in maps])


class TestCorners:
    def test_corner_slot(self):
        m = path_map()
        assert m.corner_slot(0) == CornerSlot(1, 0)
        assert m.corner_slot(2) == CornerSlot(1, 1)
        assert m.corner_slot(3) == CornerSlot(1, 2)
        assert m.corner_slot(1) == CornerSlot(1, 3)

    def test_corner_slot_record(self):
        c = CornerSlot(1, 2)
        assert c == (1, 2) and (c.face, c.slot) == (1, 2)
        assert CornerSlot(slot=2, face=1) == c
        assert c._replace(slot=0) == CornerSlot(1, 0)
        assert type(c._replace(slot=0)) is CornerSlot
        assert repr(c) == "CornerSlot(face=1, slot=2)"
        with pytest.raises(AttributeError):
            c.extra = 0

    def test_corner_slot_inverts_slot_anchor(self):
        for t in ((4, 2), (3, 1), (2, 2, 2)):
            for m in enumerate_maps(t):
                for i in range(1, m.n_faces + 1):
                    a = m.degree(i)
                    for slot in range(a + 1):
                        assert m.corner_slot(m.slot_anchor(i, slot)) == (i, slot % a)

    def test_slot_anchor(self):
        m = path_map()
        assert m.slot_anchor(1, 0) == 0
        assert m.slot_anchor(1, 4) == 0
        assert m.slot_anchor(1, 2) == 3
        for slot in (-1, 5):
            with pytest.raises(ValueError) as info:
                m.slot_anchor(1, slot)
            assert isinstance(info.value, PlaneMapError)

    def test_with_marked(self):
        m = double_edge()
        m2 = with_marked(m, 2, 1)
        assert m2.contour(2) == (1, 3)
        assert m.contour(2) == (3, 1)


class TestFaceIndex:
    # "1" and None raised a bare TypeError from the range comparison
    @pytest.mark.parametrize("i", [0, -1, 3, "1", 1.0, None])
    def test_out_of_range(self, i):
        m = enumerate_maps((4, 2))[0]
        with pytest.raises(BadFace):
            m.degree(i)
        with pytest.raises(BadFace):
            m.contour(i)
        with pytest.raises(BadFace):
            m.slot_anchor(i, 1)
        with pytest.raises(BadFace):
            with_marked(m, i, m.marked[-1])


class TestDartIndex:
    # -1 answered for the last dart or vertex, one past the end raised a
    # bare IndexError (a bare ValueError in corner_slot), "1" a bare TypeError
    BAD = (-1, 99, "1", 1.0, None)
    # each accessor's answer, read off the stored permutations
    ANSWERS = {
        "face_of": lambda m, d: m.face[d],
        "prev": lambda m, d: m.next.index(d),
        "sigma": lambda m, d: m.next[m.twin[d]],
        "vertex_of": lambda m, d: next(v for v, ds in enumerate(m.vertices()) if d in ds),
        "head_of": lambda m, d: m.vertex_of(m.twin[d]),
        "corner_slot": lambda m, d: (m.face[d], m.contour(m.face[d]).index(d)),
    }

    @pytest.mark.parametrize("name", list(ANSWERS))
    def test_dart_accessor(self, name):
        m = sample((4, 2), 0)
        call = getattr(m, name)
        answer = self.ANSWERS[name]
        assert [call(d) for d in range(m.n_darts)] == [answer(m, d) for d in range(m.n_darts)]
        for d in (*self.BAD, m.n_darts):
            with pytest.raises(BadDecoration) as info:
                call(d)
            assert isinstance(info.value, ValueError)

    def test_vertex_darts(self):
        m = sample((4, 2), 0)
        assert tuple(map(m.vertex_darts, range(m.n_vertices))) == m.vertices()
        for v in (*self.BAD, m.n_vertices):
            with pytest.raises(BadDecoration) as info:
                m.vertex_darts(v)
            assert isinstance(info.value, ValueError)


class TestValidation:
    def test_not_permutation(self):
        with pytest.raises(NotPermutation):
            PlaneMap((1, 1), (1, 0), (1, 1), (0,))
        with pytest.raises(NotPermutation):
            PlaneMap((1, 0), (0, 2), (1, 1), (0,))
        with pytest.raises(NotPermutation):
            PlaneMap((1, 0), (1, 0, 2), (1, 1), (0,))

    def test_not_involution(self):
        with pytest.raises(NotInvolution):
            PlaneMap((0, 1), (1, 0), (1, 1), (0,))
        with pytest.raises(NotInvolution):
            PlaneMap((1, 2, 0), (1, 2, 0), (1, 1, 1), (0,))
        with pytest.raises(NotInvolution):
            PlaneMap((), (), (), ())

    def test_face_mismatch(self):
        with pytest.raises(FaceMismatch):
            PlaneMap((1, 0), (1, 0), (1, 2), (0,))
        with pytest.raises(FaceMismatch):
            PlaneMap((1, 0), (1, 0), (2, 2), (0,))
        with pytest.raises(FaceMismatch):
            build((4,), (1, 0), (1, 0), (1, 1), (0,))

    def test_bad_mark(self):
        with pytest.raises(BadMark):
            PlaneMap((1, 0), (1, 0), (1, 1), ())
        with pytest.raises(BadMark):
            PlaneMap((1, 0), (1, 0), (1, 1), (2,))
        with pytest.raises(BadMark):
            PlaneMap((1, 0, 3, 2), (2, 3, 0, 1), (1, 2, 1, 2), (1, 0))

    def test_negative_entries(self):
        # negative darts would index from the end of the arrays
        with pytest.raises(NotPermutation):
            PlaneMap((1, 0, -1, 2), (1, 0, 3, 2), (1, 1, 2, 2), (0, 2))
        with pytest.raises(NotPermutation):
            PlaneMap((1, 0), (-1, 0), (1, 1), (0,))
        with pytest.raises(NotPermutation):
            PlaneMap((1, 0), (-2, 1), (1, 1), (0,))

    @pytest.mark.parametrize(
        "pos,error",
        [(0, NotPermutation), (1, NotPermutation), (2, FaceMismatch), (3, BadMark)],
        ids=["twin", "next", "face", "marked"],
    )
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda seq: [x + 0.0 for x in seq],
            lambda seq: [x + 0.5 for x in seq],
            lambda seq: [str(x) for x in seq],
            lambda seq: list(seq[:-1]) + [None],
            lambda seq: [x + 2**64 for x in seq],
        ],
        ids=["integral-float", "float", "str", "None", "overflow"],
    )
    def test_non_integers_refused(self, pos, error, spoil):
        # int() would truncate the floats and parse the strings
        args = [(1, 0), (1, 0), (1, 1), (0,)]
        args[pos] = spoil(args[pos])
        with pytest.raises(error):
            PlaneMap(*args)

    def test_integer_likes_accepted(self):
        class Dart:
            def __init__(self, d):
                self.d = d

            def __index__(self):
                return self.d

        m = PlaneMap([Dart(1), Dart(0)], bytes([1, 0]), (True, True), bytearray([0]))
        assert m == digon()
        assert m.twin == (1, 0) and type(m.face[0]) is int

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            PlaneMap(
                (1, 0, 3, 2), (1, 0, 3, 2), (1, 1, 2, 2), (0, 2)
            )

    def test_wrong_genus(self):
        with pytest.raises(WrongGenus):
            PlaneMap((2, 3, 0, 1), (1, 2, 3, 0), (1, 1, 1, 1), (0,))


class TestFaceValidationSlot:
    """The constructor validates next, face and marked once per distinct input."""

    DOUBLE_EDGE = ((1, 0, 3, 2), (2, 3, 0, 1), (1, 2, 1, 2), (0, 3))

    def test_bad_twin_after_valid_map(self):
        twin, next_, face, marked = self.DOUBLE_EDGE
        for _ in range(2):
            assert PlaneMap(twin, next_, face, marked) == double_edge()
            with pytest.raises(NotInvolution):
                PlaneMap((1, 0, 2, 3), next_, face, marked)
            with pytest.raises(NotInvolution):
                PlaneMap((0, 1, 3, 2), next_, face, marked)
            with pytest.raises(Disconnected):
                PlaneMap((2, 3, 0, 1), next_, face, marked)
        square = ((1, 2, 3, 0), (1, 1, 1, 1), (0,))
        for _ in range(2):
            assert PlaneMap((1, 0, 3, 2), *square).n_vertices == 3
            with pytest.raises(WrongGenus):
                PlaneMap((2, 3, 0, 1), *square)

    def test_bad_face_or_mark_raises_every_time(self):
        twin, next_, face, marked = self.DOUBLE_EDGE
        for _ in range(3):
            PlaneMap(twin, next_, face, marked)
            with pytest.raises(FaceMismatch):
                PlaneMap(twin, next_, (1, 1, 1, 2), marked)
            with pytest.raises(FaceMismatch):
                PlaneMap(twin, next_, (1, 1, 1, 2), marked)
            with pytest.raises(BadMark):
                PlaneMap(twin, next_, face, (1, 3))
            with pytest.raises(BadMark):
                PlaneMap(twin, next_, face, (1, 3))
            with pytest.raises(NotPermutation):
                PlaneMap(twin, (2, 2, 0, 1), face, marked)
            with pytest.raises(NotPermutation):
                PlaneMap(twin, (2, 2, 0, 1), face, marked)

    def test_caller_lists_not_shared(self):
        twin, next_, face, marked = map(list, self.DOUBLE_EDGE)
        m = PlaneMap(twin, next_, face, marked)
        next_[0], next_[2] = next_[2], next_[0]
        face[0] = 2
        marked[0] = 2
        assert m == double_edge()
        assert m.contour(1) == (0, 2) and m.contour(2) == (3, 1)
        with pytest.raises(FaceMismatch):
            PlaneMap(twin, next_, face, marked)
        assert PlaneMap(*self.DOUBLE_EDGE) == double_edge()

    def test_enumeration_validates_faces_once_per_type(self, monkeypatch):
        calls = []
        real = maps_module._walk_labels

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(maps_module, "_walk_labels", counting)
        monkeypatch.setattr(maps_module, "_last_faces", None)
        assert len(enumerate_maps((2, 2, 2))) == 8
        assert len(enumerate_maps((3, 3))) == 12
        assert len(calls) == 2

    def test_interleaved_types_equal_fresh(self):
        types = [(4, 2), (3, 1), (2, 2, 2), (6,), (3, 3)]
        fresh = {}
        for t in types:
            maps_module._last_faces = None
            fresh[t] = [
                (m.twin, m.next, m.face, m.marked, m._contours, m._prev,
                 m._vertices, m._vertex_of)
                for m in enumerate_maps(t)
            ]
        # rebuild them one map of each type at a time, so every call misses
        rows = {t: [row[:4] for row in fresh[t]] for t in types}
        built = {t: [] for t in types}
        for k in range(max(map(len, rows.values()))):
            for t in types:
                if k < len(rows[t]):
                    m = PlaneMap(*rows[t][k])
                    built[t].append(
                        (m.twin, m.next, m.face, m.marked, m._contours,
                         m._prev, m._vertices, m._vertex_of)
                    )
        assert built == fresh


class BoundedReads(tuple):
    """A tuple that fails the test once indexed more often than a walk may."""

    def __new__(cls, seq):
        self = super().__new__(cls, seq)
        self.reads_left = 2 * len(self) + 2
        return self

    def __getitem__(self, i):
        self.reads_left -= 1
        assert self.reads_left >= 0, "the contour walk does not stop"
        return tuple.__getitem__(self, i)


def single_changes(m):
    """(next, face, marked) of m with one entry set to another value in -1..n."""
    base = (m.next, m.face, m.marked)
    for which, seq in enumerate(base):
        for pos, old in enumerate(seq):
            for value in range(-1, m.n_darts + 1):
                if value != old:
                    args = list(base)
                    args[which] = seq[:pos] + (value,) + seq[pos + 1 :]
                    yield tuple(args)


class TestContourWalk:
    """_walk_labels (one walk per contour) against _walk_all (every dart).

    _walk_all is the contour validation the constructor ran before the
    one-walk version, kept as the reference and to name the error.
    """

    def test_walks_agree_on_single_changes(self):
        # every map with E <= 3: 690 changed inputs pass, 22878 do not
        accepted = 0
        errors = set()
        for t in admissible_types(3):
            for m in enumerate_maps(t):
                for args in single_changes(m):
                    try:
                        want = maps_module._walk_all(*args)
                    except PlaneMapError as exc:
                        want = type(exc)
                    next_, face, marked = args
                    got = maps_module._walk_labels(BoundedReads(next_), marked)
                    if isinstance(want, type):
                        errors.add(want)
                        assert got is None or got[2] != face, args
                        with pytest.raises(want):
                            PlaneMap(m.twin, *args)
                    else:
                        accepted += 1
                        assert got == want + (face,), args
        assert accepted == 690
        assert errors == {NotPermutation, FaceMismatch, BadMark}

    def test_walks_agree_on_valid_maps(self):
        for t in admissible_types(4):
            for m in enumerate_maps(t):
                want = maps_module._walk_all(m.next, m.face, m.marked)
                assert want == (m._contours, m._prev)
                assert maps_module._walk_labels(m.next, m.marked) == want + (m.face,)


class TestLabelsFromMarks:
    """face=None: the walk from marked[i-1] writes label i."""

    def test_equals_true_labels(self):
        for t in admissible_types(4):
            for m in enumerate_maps(t):
                got = PlaneMap(m.twin, m.next, None, m.marked)
                assert got == m
                assert (got._contours, got._prev, got._vertex_of) == (
                    m._contours,
                    m._prev,
                    m._vertex_of,
                )

    def test_refusals_are_typed(self):
        twin, next_, _, marked = TestFaceValidationSlot.DOUBLE_EDGE
        assert PlaneMap(twin, next_, None, marked) == double_edge()
        with pytest.raises(BadMark):  # two marks on the contour (0, 2)
            PlaneMap(twin, next_, None, (0, 2))
        with pytest.raises(BadMark):  # the contour (1, 3) has no mark
            PlaneMap(twin, next_, None, (0,))
        with pytest.raises(BadMark):  # a mark on no dart
            PlaneMap(twin, next_, None, (0, 4))
        with pytest.raises(NotPermutation):
            PlaneMap(twin, (2, 3, 0, 0), None, marked)
        with pytest.raises(NotPermutation):
            PlaneMap(twin, (2, 3, 0, -1), None, marked)

    def test_single_changes(self):
        # every one-entry change of next or marked on the maps with E <= 3
        # is refused with a typed error or labelled by its own marks
        for t in admissible_types(3):
            for m in enumerate_maps(t):
                for next_, face, marked in single_changes(m):
                    if face != m.face:
                        continue
                    try:
                        got = PlaneMap(m.twin, next_, None, marked)
                    except PlaneMapError:
                        continue
                    labels = [0] * m.n_darts
                    for i, d in enumerate(marked, start=1):
                        for e in got.contour(i):
                            assert labels[e] == 0
                            labels[e] = i
                    assert got == PlaneMap(m.twin, next_, labels, marked)


class TestSerialization:
    @pytest.mark.parametrize("make", ALL_EXAMPLES)
    def test_round_trip(self, make):
        m = make()
        assert PlaneMap.from_json(m.to_json()) == m

    def test_key_order(self):
        text = digon().to_json()
        keys = ["type", "twin", "next", "face", "marked"]
        positions = [text.index(f'"{k}"') for k in keys]
        assert positions == sorted(positions)

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            "null",
            '{"type": [2]}',
            '{"type": [2], "twin": [1, 0], "next": [1, 0], "face": [1, 1]}',
            '{"type": [2], "twin": [1, 0], "next": [1, 0], "face": [1, 1],'
            ' "marked": [0.5]}',
            '{"type": [1], "twin": [0], "next": [0], "face": [1], "marked": [0]}',
            '{"type": [2], "twin": "xy", "next": [1, 0], "face": [1, 1],'
            ' "marked": [0]}',
        ],
    )
    def test_parse_error(self, text):
        with pytest.raises(ParseError):
            PlaneMap.from_json(text)

    def test_declared_type_checked(self):
        text = '{"type": [4], "twin": [1, 0], "next": [1, 0], "face": [1, 1],' \
            ' "marked": [0]}'
        with pytest.raises(FaceMismatch):
            PlaneMap.from_json(text)


class TestCanonicalCode:
    def test_distinct_maps_distinct_codes(self):
        codes = {make().canonical_code() for make in ALL_EXAMPLES}
        assert len(codes) == len(ALL_EXAMPLES)

    def test_mark_changes_code(self):
        m = double_edge()
        assert m.canonical_code() != with_marked(m, 2, 1).canonical_code()

    @pytest.mark.parametrize("n_edges", [32768, 32769])
    def test_word_width(self, n_edges):
        # a path: darts 2k and 2k+1 run along edge k, out and back;
        # 65536 darts still fit 16-bit words, 65538 need 32-bit ones
        n = 2 * n_edges
        twin = [d ^ 1 for d in range(n)]
        next_ = [0] * n
        for k in range(n_edges):
            next_[2 * k] = 2 * k + 2 if k < n_edges - 1 else n - 1
            next_[2 * k + 1] = 2 * k - 1 if k else 0
        m = PlaneMap(twin, next_, [1] * n, [0])
        assert m.degrees == (n,) and m.n_vertices == n_edges + 1
        code = m.canonical_code()
        words = 3 + 3 * n
        if n <= 0x10000:
            assert len(code) == 4 * words
            assert code[:8] == f"0001{n_edges:04x}"
        else:
            assert len(code) == 1 + 8 * words
            assert code[:17] == f"w00000001{n_edges:08x}"

    @given(data=st.data(), idx=st.integers(0, len(ALL_EXAMPLES) - 1))
    def test_relabel_invariance(self, data, idx):
        m = ALL_EXAMPLES[idx]()
        perm = data.draw(st.permutations(range(m.n_darts)))
        m2 = relabel(m, perm)
        assert m2.canonical_code() == m.canonical_code()

    @given(data=st.data())
    def test_relabel_round_trip(self, data):
        m = loop_pendant()
        perm = data.draw(st.permutations(range(4)))
        inv = [0] * 4
        for d, x in enumerate(perm):
            inv[x] = d
        assert relabel(relabel(m, perm), inv) == m
