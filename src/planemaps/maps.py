"""Rooted plane maps with labelled faces and one marked corner per face.

A map on 2E darts is stored as a pair of permutations: ``twin`` swaps
the two darts of every edge, ``next`` walks the contour of the face
lying to the left of a dart.  Faces carry labels 1..r and each face i
distinguishes one corner through ``marked[i-1]``, the dart whose
origin corner is the marked one.  The clockwise rotation around the
origin vertex of a dart is the composition sigma = next o twin.

Corners are identified with the dart they precede in the face contour:
the corner before dart d is the sector swept from sigma^(-1)(d) to d
around the origin of d.  Slots number the insertion positions of a
face relative to the marked corner; slot 0 and slot deg both sit in
the marked corner, on the side preceding respectively following the
mark.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, count, islice
from operator import index, lt

from .counting import check_type
from .errors import (
    BadDecoration,
    BadFace,
    BadMark,
    Disconnected,
    FaceMismatch,
    NotInvolution,
    NotPermutation,
    ParseError,
    WrongGenus,
)


class CornerSlot(namedtuple("CornerSlot", "face slot")):
    """Insertion slot of a face: ``face`` is 1-based, ``slot`` in 0..deg."""

    __slots__ = ()


def _ints(data: Iterable[int], error: type, what: str) -> tuple[int, ...]:
    """The entries of data as a tuple of ints, or error when one is not.

    Strict: floats, strings and None are refused rather than truncated
    or parsed; ints of any width, bools, bytes and objects with
    __index__ pass.
    """
    try:
        # a list, not tuple(map(...)): verify-sweep peaks 0.3 MB lower, 10/10 pairs
        return tuple([*map(index, data)])
    except TypeError:
        raise error(f"{what} not integers") from None


def _entry(seq: tuple, i: int, what: str):
    """seq[i] for a dart or vertex index i, or BadDecoration.

    One comparison, because a negative i would wrap round from the end;
    the tuple refuses the rest: an i past the end and a non-integer one.
    """
    try:
        if i >= 0:
            return seq[i]
    except (IndexError, TypeError):
        pass
    raise BadDecoration(f"no {what} {i!r}")


def _decoration(*values: int) -> tuple[int, ...]:
    """Decoration values (edges, slots, faces, darts) as ints, strictly."""
    return _ints(values, BadDecoration, "decorations are")


def _as_perm(data: Iterable[int], name: str) -> tuple[int, ...]:
    seq = _ints(data, NotPermutation, f"entries of {name} are")
    n = len(seq)
    if sorted(seq) != list(range(n)):
        raise NotPermutation(f"{name} is not a permutation of 0..{n - 1}")
    return seq


def _pairs_darts(twin: tuple[int, ...]) -> bool:
    """Whether twin is a fixed-point-free involution of 0..n-1, n > 0.

    One pass: twin(twin(d)) = d with no fixed point already makes twin
    a permutation.  A value above n - 1 raises IndexError, and a
    negative value e at d, which indexes from the end, would need
    twin(e + n) = d and so twin(twin(e + n)) = e, not e + n.
    """
    try:
        for d, e in enumerate(twin):
            if twin[e] != d or e == d:
                return False
    except IndexError:
        return False
    return len(twin) > 0


def _walk_labels(
    next_t: tuple[int, ...], marked_t: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]] | None:
    """Contours, prev and face labels read off the marks, or None to refuse.

    Walk i starts at marked[i-1], follows next until it returns there,
    writes label i and fills prev on the way.  It refuses a negative
    successor or mark (they would index from the end), one beyond n - 1
    (IndexError) and a dart reached twice, which is one already
    labelled.  Accepting needs the walks to cover all n darts: then next
    is one-to-one on them, so a permutation, and every orbit is the walk
    of exactly one mark.
    """
    n = len(next_t)
    if next_t and min(next_t) < 0:
        return None
    face = [0] * n
    prev = [-1] * n
    contours = []
    total = 0
    try:
        for i, m in enumerate(marked_t, start=1):
            if m < 0 or face[m]:
                return None
            face[m] = i
            orbit = [m]
            e = m
            while (f := next_t[e]) != m:
                if face[f]:
                    return None
                face[f] = i
                prev[f] = e
                orbit.append(f)
                e = f
            prev[m] = e
            total += len(orbit)
            contours.append(tuple(orbit))
    except IndexError:
        return None
    if total != n:
        return None
    return tuple(contours), tuple(prev), tuple(face)


def _refusal(next_t: tuple[int, ...], face: tuple[int, ...] | None) -> FaceMismatch | BadMark:
    """The error for next and labels that the constructor refuses.

    NotPermutation, which _as_perm raises, when next is not a
    permutation; FaceMismatch when given labels do not name the contours
    one to one as 1..r, that is when the walks from the first dart of
    each label do not write them back; BadMark otherwise, for marks that
    do not sit one on each contour (on its own contour, given labels).
    """
    _as_perm(next_t, "next")
    if face is not None:
        r = len(set(face))
        found = set(face) == set(range(1, r + 1)) and _walk_labels(
            next_t, [*map(face.index, range(1, r + 1))]
        )
        if not found or found[2] != face:
            return FaceMismatch("face labels do not name the contours one to one as 1..r")
    return BadMark("need exactly one marked dart per contour")


class _Faces(tuple):
    """next, marked, contours, prev, face and degrees that one walk accepted.

    PlaneMap(twin, faces, None, marked) reads all six from it and so
    checks only what involves twin; the maps built on one share its tuples.
    """

    def __new__(cls, next_: Iterable[int], marked: Iterable[int]) -> "_Faces":
        next_t = _ints(next_, NotPermutation, "entries of next are")
        marked_t = _ints(marked, BadMark, "marked darts are")
        found = _walk_labels(next_t, marked_t)
        if found is None:
            raise _refusal(next_t, None)
        return super().__new__(cls, (next_t, marked_t, *found, tuple(map(len, found[0]))))


class PlaneMap:
    """Immutable rooted plane map of genus zero."""

    __slots__ = (
        "twin",
        "next",
        "face",
        "marked",
        "_prev",
        "_contours",
        "_first",
        "_vertex_of",
        "degrees",
        "_canonical_",
    )

    def __init__(
        self,
        twin: Iterable[int],
        next_: Iterable[int],
        face: Iterable[int] | None,
        marked: Iterable[int],
    ) -> None:
        twin_t = _ints(twin, NotPermutation, "entries of twin are")
        n = len(twin_t)
        if not _pairs_darts(twin_t):
            _as_perm(twin_t, "twin")  # a non-permutation raises NotPermutation
            if n == 0 or n % 2:
                raise NotInvolution("twin must pair an even, positive number of darts")
            raise NotInvolution("twin is not a fixed-point-free involution")
        if next_.__class__ is _Faces:  # walked already: face and marked are its own
            next_t, marked_t, contours, prev_t, face_t, degrees = next_
            if len(next_t) != n:
                raise NotPermutation("twin and next act on different dart sets")
        else:
            next_t = _ints(next_, NotPermutation, "entries of next are")
            if len(next_t) != n:
                raise NotPermutation("twin and next act on different dart sets")
            if face is not None:
                face = _ints(face, FaceMismatch, "face labels are")
            marked_t = _ints(marked, BadMark, "marked darts are")
            # the walk from marked[i-1] writes label i
            found = _walk_labels(next_t, marked_t)
            if found is None or face is not None and face != found[2]:
                raise _refusal(next_t, face)
            contours, prev_t, face_t = found
            degrees = tuple(map(len, contours))
        r = len(contours)

        # connectivity: twin must join the face orbits into one piece
        reached = {1}
        stack = [1]
        while stack and len(reached) < r:
            for d in contours[stack.pop() - 1]:
                i = face_t[twin_t[d]]
                if i not in reached:
                    reached.add(i)
                    stack.append(i)
        if len(reached) < r:
            raise Disconnected("darts do not form a single connected map")

        # vertices are the orbits of sigma = next o twin, numbered and
        # kept by their least dart; vertex_darts walks the rest on demand
        vertex_of = [-1] * n
        first = []
        for d in range(n):
            if vertex_of[d] < 0:
                v = len(first)
                first.append(d)
                e = d
                while vertex_of[e] < 0:
                    vertex_of[e] = v
                    e = next_t[twin_t[e]]

        if len(first) - n // 2 + r != 2:
            raise WrongGenus("Euler characteristic is not 2")

        _set_twin(self, twin_t)
        _set_next(self, next_t)
        _set_face(self, face_t)
        _set_marked(self, marked_t)
        _set_prev(self, prev_t)
        _set_contours(self, contours)
        _set_first(self, tuple(first))
        _set_vertex_of(self, tuple(vertex_of))
        _set_degrees(self, degrees)

    def __setattr__(self, name, value):
        raise AttributeError("PlaneMap is immutable")

    # basic counts

    @property
    def n_darts(self) -> int:
        return len(self.twin)

    @property
    def n_edges(self) -> int:
        return len(self.twin) // 2

    @property
    def n_faces(self) -> int:
        return len(self.marked)

    @property
    def n_vertices(self) -> int:
        return len(self._first)

    def degree(self, i: int) -> int:
        return len(self.contour(i))

    # incidence

    def contour(self, i: int) -> tuple[int, ...]:
        """Face contour of face i, starting at its marked dart.

        Raises BadFace unless 1 <= i <= n_faces, so that 0 and negative
        indices cannot wrap round to the last faces, and for a
        non-integer i.
        """
        try:
            if i >= 1:
                return self._contours[i - 1]
        except (IndexError, TypeError):
            pass
        raise BadFace(f"face {i!r} out of range 1..{len(self._contours)}")

    # dart and vertex accessors: out of range, -1 included, raises BadDecoration

    def face_of(self, d: int) -> int:
        return _entry(self.face, d, "dart")

    def prev(self, d: int) -> int:
        return _entry(self._prev, d, "dart")

    def sigma(self, d: int) -> int:
        """Clockwise neighbour of d around its origin vertex."""
        return self.next[_entry(self.twin, d, "dart")]

    def vertex_of(self, d: int) -> int:
        """Index of the origin vertex of d."""
        return _entry(self._vertex_of, d, "dart")

    def head_of(self, d: int) -> int:
        """Index of the vertex the dart points to."""
        return self._vertex_of[_entry(self.twin, d, "dart")]

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """All vertices as clockwise dart cycles."""
        return tuple(map(self.vertex_darts, range(len(self._first))))

    def vertex_darts(self, v: int) -> tuple[int, ...]:
        """The clockwise dart cycle of vertex v, walked from its least dart."""
        d = _entry(self._first, v, "vertex")
        nxt, twin = self.next, self.twin
        cycle = [d]
        e = nxt[twin[d]]
        while e != d:
            cycle.append(e)
            e = nxt[twin[e]]
        return tuple(cycle)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (d, twin(d)) with d < twin(d), sorted by d."""
        return tuple([(d, t) for d, t in enumerate(self.twin) if d < t])

    def edge(self, e: int) -> tuple[int, int]:
        """edges()[e] without building the others; e must lie in 0..E-1."""
        try:  # islice refuses a float, next an e past the last edge
            if e >= 0:
                d = next(islice(compress(count(), map(lt, count(), self.twin)), e, None))
                return d, self.twin[d]
        except (StopIteration, TypeError, ValueError):
            pass
        raise BadDecoration(f"no edge {e!r}")

    def edge_index(self, d: int) -> int:
        """Index in edges() of the edge that carries dart d."""
        return sum(map(lt, range(min(d, _entry(self.twin, d, "dart"))), self.twin))

    # corners and slots

    def corner_slot(self, d: int) -> CornerSlot:
        """Slot of the corner before d; the marked corner reports slot 0."""
        i = _entry(self.face, d, "dart")
        return CornerSlot(i, self._contours[i - 1].index(d))

    def slot_anchor(self, i: int, slot: int) -> int:
        """Dart whose preceding corner realises the given slot of face i."""
        contour = self.contour(i)
        try:  # the tuple refuses a float
            if 0 <= slot <= len(contour):
                return contour[slot % len(contour)]
        except TypeError:
            pass
        raise BadDecoration(f"slot {slot!r} out of range for degree {len(contour)}")

    # canonical form and serialization

    def canonical_relabeling(self) -> dict[int, int]:
        """Dart rename old -> new used by canonical_code.

        Breadth-first search from the marked dart of face 1, exploring
        next before twin.  Two isomorphic maps assign matching new ids
        to corresponding darts, so decorations can be compared across
        dart renames by passing them through this dict.
        """
        return dict(enumerate(self._canonical()[0]))

    def canonical_code(self) -> str:
        """Hex code invariant under dart renaming.

        Darts are renumbered by canonical_relabeling and the renumbered
        data is packed as big-endian 16-bit words.  Maps with more than
        65536 darts, whose ids do not fit 16 bits, pack 32-bit words
        behind the prefix "w", which no 16-bit code starts with.
        """
        return self._canonical()[1]

    def _canonical(self) -> tuple[list[int], str]:
        """The relabelling as a list (new id of dart d at d) and the code.

        Callers must not change the list: the pair is kept with the map.
        """
        try:  # a round trip keys its input map once per decoration
            return self._canonical_
        except AttributeError:
            pass
        nxt, twin = self.next, self.twin
        n = len(twin)
        # the search: order lists the darts by new id and is its queue
        new = [-1] * n
        root = self.marked[0]
        new[root] = 0
        order = [root]
        for d in order:
            e = nxt[d]
            if new[e] < 0:
                new[e] = len(order)
                order.append(e)
            e = twin[d]
            if new[e] < 0:
                new[e] = len(order)
                order.append(e)
        # new id i holds the relabelled next, twin and face of order[i]
        at = new.__getitem__
        words = [len(self.marked), n // 2]
        words += map(at, map(nxt.__getitem__, order))
        words += map(at, map(twin.__getitem__, order))
        words += map(self.face.__getitem__, order)
        words += map(at, self.marked)
        if n <= 0x10000:
            code = struct.pack(f">{len(words)}H", *words).hex()
        else:
            code = "w" + struct.pack(f">{len(words)}I", *words).hex()
        _set_canonical(self, (new, code))
        return new, code

    def to_json(self) -> str:
        import json  # on first call: most processes never serialize a map

        obj = {
            "type": list(self.degrees),
            "twin": list(self.twin),
            "next": list(self.next),
            "face": list(self.face),
            "marked": list(self.marked),
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "PlaneMap":
        import json

        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object")
        for key in ("type", "twin", "next", "face", "marked"):
            if key not in obj:
                raise ParseError(f"missing key {key!r}")
            # json.loads gives true and false as bools, every other integer as an int
            if not isinstance(val := obj[key], list) or not all(type(x) is int for x in val):
                raise ParseError(f"key {key!r} must be a list of integers")
        if len(obj["twin"]) % 2:
            raise ParseError("odd number of darts")
        return build(obj["type"], obj["twin"], obj["next"], obj["face"], obj["marked"])

    # comparison

    def _key(self):
        return (self.twin, self.next, self.face, self.marked)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"PlaneMap(type={self.degrees}, E={self.n_edges})"


# the slots' own setters, which PlaneMap.__setattr__'s refusal does not reach
(_set_twin, _set_next, _set_face, _set_marked, _set_prev, _set_contours, _set_first,
 _set_vertex_of, _set_degrees, _set_canonical) = (
    getattr(PlaneMap, slot).__set__ for slot in PlaneMap.__slots__)


def build(
    map_type: Iterable[int],
    twin: Iterable[int],
    next_: Iterable[int],
    face: Iterable[int],
    marked: Iterable[int],
) -> PlaneMap:
    """Construct a map and check it against a prescribed degree tuple."""
    want = check_type(map_type)
    m = PlaneMap(twin, next_, face, marked)
    if m.degrees != want:
        raise FaceMismatch(f"contours have degrees {m.degrees}, wanted {want}")
    return m
