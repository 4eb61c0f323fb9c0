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
from collections import deque, namedtuple
from collections.abc import Iterable
from itertools import islice
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


def _inverse(perm: tuple[int, ...]) -> list[int] | None:
    """perm^-1, or None unless perm is a permutation of 0..n-1.

    One pass: a value above n - 1 raises IndexError and a repeated one
    leaves a -1 behind; negative values index from the end, so they
    are refused on their own.
    """
    inv = [-1] * len(perm)
    try:
        for d, e in enumerate(perm):
            inv[e] = d
    except IndexError:
        return None
    if -1 in inv or min(perm, default=0) < 0:
        return None
    return inv


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
    if min(next_t, default=0) < 0:
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


def _walk_all(
    next_t: tuple[int, ...], face_t: tuple[int, ...], marked_t: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Contours and prev of given labels, walking every dart.

    Checks that next is a permutation, that each next-orbit carries one
    face label, that the labels are exactly 1..r and that face i is
    marked at a dart of its own contour, raising the error class of the
    first check that fails.  It accepts exactly the inputs whose labels
    _walk_labels writes, so the constructor runs it only to name an error.
    """
    n = len(next_t)
    prev_t = _inverse(next_t)
    if prev_t is None:
        raise NotPermutation(f"next is not a permutation of 0..{n - 1}")
    if len(face_t) != n:
        raise FaceMismatch("face labelling does not cover the dart set")

    # walk next-orbits; each orbit is one face and must carry one label
    contours: dict[int, list[int]] = {}
    seen = [False] * n
    for d in range(n):
        if seen[d]:
            continue
        label = face_t[d]
        if label in contours:
            raise FaceMismatch(f"two contours share the label {label}")
        orbit = contours[label] = []
        e = d
        while not seen[e]:
            if face_t[e] != label:
                raise FaceMismatch("face label changes along a contour")
            seen[e] = True
            orbit.append(e)
            e = next_t[e]
    r = len(contours)
    if sorted(contours) != list(range(1, r + 1)):
        raise FaceMismatch("face labels are not exactly 1..r")

    if len(marked_t) != r:
        raise BadMark("need exactly one marked dart per face")
    normed = []
    for i, d in enumerate(marked_t, start=1):
        if not 0 <= d < n or face_t[d] != i:
            raise BadMark(f"marked dart of face {i} does not lie on it")
        orbit = contours[i]
        k = orbit.index(d)
        normed.append(tuple(orbit[k:] + orbit[:k]))
    return tuple(normed), tuple(prev_t)


# The last (next, marked) that _walk_labels accepted, then its result.
# One slot compared by value: enumerate_maps builds every matching of a
# type from the same two tuples.  On the benchmark workloads 85% of
# the verify-sweep constructions hit and none of the others do; 80-99%
# of all misses differ from the slot in length.
_last_faces: tuple | None = None


class PlaneMap:
    """Immutable rooted plane map of genus zero."""

    __slots__ = (
        "twin",
        "next",
        "face",
        "marked",
        "_prev",
        "_contours",
        "_vertices",
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
        global _last_faces
        twin_t = _ints(twin, NotPermutation, "entries of twin are")
        n = len(twin_t)
        if not _pairs_darts(twin_t):
            _as_perm(twin_t, "twin")  # a non-permutation raises NotPermutation
            if n == 0 or n % 2:
                raise NotInvolution("twin must pair an even, positive number of darts")
            raise NotInvolution("twin is not a fixed-point-free involution")
        next_t = _ints(next_, NotPermutation, "entries of next are")
        if len(next_t) != n:
            raise NotPermutation("twin and next act on different dart sets")
        if face is not None:
            face = _ints(face, FaceMismatch, "face labels are")
        marked_t = _ints(marked, BadMark, "marked darts are")
        key = (next_t, marked_t)
        last = _last_faces
        if last is not None and last[0] == key:
            (next_t, marked_t), found, degrees = last
        else:
            # the walk from marked[i-1] writes label i
            found = _walk_labels(next_t, marked_t)
            if found is not None:
                degrees = tuple(map(len, found[0]))
                _last_faces = (key, found, degrees)
        if found is None or face is not None and face != found[2]:
            if face is not None:
                _walk_all(next_t, face, marked_t)  # raises: it refuses the same inputs
            if _inverse(next_t) is None:
                raise NotPermutation(f"next is not a permutation of 0..{n - 1}")
            raise BadMark("need exactly one marked dart per contour")
        contours, prev_t, face_t = found
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

        # vertices are the orbits of sigma = next o twin, clockwise
        vertex_of = [-1] * n
        vertices = []
        for d in range(n):
            if vertex_of[d] >= 0:
                continue
            orbit = []
            e = d
            while vertex_of[e] < 0:
                vertex_of[e] = len(vertices)
                orbit.append(e)
                e = next_t[twin_t[e]]
            vertices.append(tuple(orbit))

        if len(vertices) - n // 2 + r != 2:
            raise WrongGenus("Euler characteristic is not 2")

        _set_twin(self, twin_t)
        _set_next(self, next_t)
        _set_face(self, face_t)
        _set_marked(self, marked_t)
        _set_prev(self, prev_t)
        _set_contours(self, contours)
        _set_vertices(self, tuple(vertices))
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
        return len(self._vertices)

    def degree(self, i: int) -> int:
        # the check of contour(), inlined: degree is called per growth step
        try:
            if i >= 1:
                return len(self._contours[i - 1])
        except (IndexError, TypeError):  # past the end; a str, None or float
            pass
        raise BadFace(f"face {i!r} out of range 1..{len(self._contours)}")

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

    # The dart and vertex accessors below raise BadDecoration for an
    # index outside the range and for a non-integer one.  Each makes
    # one comparison, because a negative index would wrap round from
    # the end, and lets the tuple refuse the rest: growth steps call
    # them.

    def face_of(self, d: int) -> int:
        try:
            if d >= 0:
                return self.face[d]
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

    def prev(self, d: int) -> int:
        try:
            if d >= 0:
                return self._prev[d]
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

    def sigma(self, d: int) -> int:
        """Clockwise neighbour of d around its origin vertex."""
        try:
            if d >= 0:
                return self.next[self.twin[d]]
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

    def vertex_of(self, d: int) -> int:
        """Index of the origin vertex of d."""
        try:
            if d >= 0:
                return self._vertex_of[d]
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

    def head_of(self, d: int) -> int:
        """Index of the vertex the dart points to."""
        try:
            if d >= 0:
                return self._vertex_of[self.twin[d]]
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """All vertices as clockwise dart cycles."""
        return self._vertices

    def vertex_darts(self, v: int) -> tuple[int, ...]:
        try:
            if v >= 0:
                return self._vertices[v]
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no vertex {v!r}")

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (d, twin(d)) with d < twin(d), sorted by d."""
        return tuple([(d, t) for d, t in enumerate(self.twin) if d < t])

    def edge(self, e: int) -> tuple[int, int]:
        """edges()[e] without building the others; e must lie in 0..E-1."""
        try:  # islice refuses a float, next an e past the last edge
            if e >= 0:
                d = next(islice((d for d, t in enumerate(self.twin) if d < t), e, None))
                return d, self.twin[d]
        except (StopIteration, TypeError, ValueError):
            pass
        raise BadDecoration(f"no edge {e!r}")

    def edge_index(self, d: int) -> int:
        """Index in edges() of the edge that carries dart d."""
        try:
            if d >= 0:
                return sum(map(lt, range(min(d, self.twin[d])), self.twin))
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

    # corners and slots

    def corner_slot(self, d: int) -> CornerSlot:
        """Slot of the corner before d; the marked corner reports slot 0."""
        try:
            if d >= 0:
                i = self.face[d]
                return CornerSlot(i, self._contours[i - 1].index(d))
        except (IndexError, TypeError):
            pass
        raise BadDecoration(f"no dart {d!r}")

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
        order: dict[int, int] = {}
        root = self.marked[0]
        order[root] = 0
        queue = deque([root])
        while queue:
            d = queue.popleft()
            for e in (self.next[d], self.twin[d]):
                if e not in order:
                    order[e] = len(order)
                    queue.append(e)
        return order

    def canonical_code(self) -> str:
        """Hex code invariant under dart renaming.

        Darts are renumbered by canonical_relabeling and the renumbered
        data is packed as big-endian 16-bit words.  Maps with more than
        65536 darts, whose ids do not fit 16 bits, pack 32-bit words
        behind the prefix "w", which no 16-bit code starts with.
        """
        return self._canonical()[1]

    def _canonical(self) -> tuple[dict[int, int], str]:
        """canonical_relabeling() and canonical_code() from one search.

        Callers must not change the dict: the pair is kept with the map.
        """
        try:  # a round trip keys its input map once per decoration
            return self._canonical_
        except AttributeError:
            pass
        order = self.canonical_relabeling()
        n = self.n_darts
        next_ = [0] * n
        twin = [0] * n
        face = [0] * n
        for d in range(n):
            next_[order[d]] = order[self.next[d]]
            twin[order[d]] = order[self.twin[d]]
            face[order[d]] = self.face[d]
        marked = [order[d] for d in self.marked]
        words = [self.n_faces, self.n_edges]
        words += next_ + twin + face + marked
        if n <= 0x10000:
            code = struct.pack(f">{len(words)}H", *words).hex()
        else:
            code = "w" + struct.pack(f">{len(words)}I", *words).hex()
        _set_canonical(self, (order, code))
        return order, code

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
            val = obj[key]
            if not isinstance(val, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in val
            ):
                raise ParseError(f"key {key!r} must be a list of integers")
        if len(obj["twin"]) % 2:
            raise ParseError("odd number of darts")
        m = cls(obj["twin"], obj["next"], obj["face"], obj["marked"])
        if list(m.degrees) != obj["type"]:
            raise FaceMismatch(
                f"declared type {obj['type']} but contours have degrees "
                f"{list(m.degrees)}"
            )
        return m

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
(_set_twin, _set_next, _set_face, _set_marked, _set_prev, _set_contours, _set_vertices,
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
