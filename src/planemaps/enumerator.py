"""Brute-force enumeration of plane maps and their decorations.

Maps of type (a_1, ..., a_r) are produced by gluing the sides of r
polygons in every possible way: darts are laid out polygon by polygon,
the contour permutation is fixed, and the twin involution ranges over
all perfect matchings of the sides.  Matchings that produce a
disconnected or higher-genus gluing are discarded.  Two distinct
matchings always give distinct maps, because an isomorphism must fix
every marked dart and therefore every dart.

Cost: a type with E edges has (2E-1)!! matchings, 945 at E = 5 and
10395 at E = 6.  They depend on E alone, so each size's matchings are
built once, on first use, and kept for E <= DEFAULT_MAX_EDGES: one
bytes string per size, one byte per dart, 9 KB at E = 5 and 122 KB at
E = 6 (CPython 3.11).  Above that bound they are streamed and not
kept.  Either way the genus screen runs for every (type, matching)
pair; the pairs it passes are built on one walk of the type's contours,
with every constructor check that reads the twin, and share its tuples.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, product

from .counting import Identity, _index, _second, check_type, decoration_radices, edge_count
from .errors import BadDecoration, Disconnected, TooManyEdges, WrongGenus
from .maps import PlaneMap, _Faces, _ints
from .metric import directed_darts, distances

DEFAULT_MAX_EDGES = 6


# n -> the twins of _stream(n) in its order, end to end, one byte per
# dart (n <= 2 * DEFAULT_MAX_EDGES fits a byte)
_tables: dict[int, bytes] = {}


def _stream(n: int) -> Iterator[tuple[int, ...]]:
    """Fixed-point-free involutions of 0..n-1, smallest unmatched first.

    The partner of the smallest unmatched dart ascends, so the twins
    come in lexicographic order.
    """
    twin = [-1] * n

    def rec(d: int) -> Iterator[tuple[int, ...]]:
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


def _matchings(n: int) -> Iterator[Sequence[int]]:
    """The (n-1)!! twins of _stream(n), in its order.

    For n <= 2 * DEFAULT_MAX_EDGES they are sliced from _tables, filled
    on the first call for n, because a sweep enumerates many types of
    each size; above the bound they are streamed and not kept.
    """
    if n > 2 * DEFAULT_MAX_EDGES:
        return _stream(n)
    table = _tables.get(n)
    if table is None:
        table = _tables[n] = b"".join(map(bytes, _stream(n)))
    return (table[k : k + n] for k in range(0, len(table), n))


def enumerate_maps(a, max_edges: int = DEFAULT_MAX_EDGES) -> list[PlaneMap]:
    """All plane maps of type a, distinct as decorated objects.

    max_edges is an int like every integer input: a float, a string or
    None raises BadArgument instead of being truncated or compared.
    """
    t = check_type(a)
    max_edges = _index(max_edges, "max_edges")
    e = edge_count(t)
    if e > max_edges:
        raise TooManyEdges(
            f"type {t} has {e} edges, above the bound {max_edges}; "
            "raise max_edges explicitly to proceed"
        )
    n = 2 * e
    # polygon by polygon: each face's darts follow its mark round the polygon
    marked = [*accumulate(t[:-1], initial=0)]
    next_ = [o + (k + 1) % deg for o, deg in zip(marked, t) for k in range(deg)]
    out = []
    r = len(t)
    faces = _Faces(next_, marked)  # every matching of the type shares this one walk
    for twin in _matchings(n):
        # sigma orbit count gives the genus; screen before building
        seen = [False] * n
        v = 0
        for d in range(n):
            if not seen[d]:
                v += 1
                x = d
                while not seen[x]:
                    seen[x] = True
                    x = next_[twin[x]]
        if v != e + 2 - r:
            continue
        try:
            out.append(PlaneMap(twin, faces, None, marked))
        except (Disconnected, WrongGenus):
            continue
    return out


def decode(m: PlaneMap, identity: Identity, side: str, digits, first=1, second=None) -> tuple:
    """The decoration of one side of an identity that digits name on m.

    digits are one int below each radix of decoration_radices at the
    same roles, else BadDecoration.  They are the decoration on the lhs
    of the growth identities and of UNIT_FACE.  Elsewhere the first is a
    slot or a vertex and each later one indexes a directed_darts list;
    on one face's list, the second skips the first dart.
    """
    radices = decoration_radices(identity, side, m.degrees, first, second)
    ds = _ints(digits, BadDecoration, "digits are")
    if len(ds) != len(radices) or not all(0 <= d < x for d, x in zip(ds, radices)):
        raise BadDecoration(f"digits {digits!r} do not fit the radices {radices}")
    return _decorations(m, identity, side, first, second, ds[0], [ds[1:]])[0]


def _decorations(m, identity, side, first, second, d0, rests) -> list[tuple]:
    """decode of in-range digits (d0, *rest), each rest in rests, on d0's one BFS."""
    second = _second(identity, m.n_faces, second)
    if identity is Identity.FACE_TO_FACE:
        # a slot of one face, then the darts of the other at its vertex
        f, g, direction = (first, second, "toward") if side == "lhs" else (second, first, "away")
        hs = directed_darts(m, g, m.vertex_of(m.slot_anchor(f, d0)), direction)
        return [(d0, hs[d]) for d, in rests]
    if side == "lhs":
        return [(d0, *rest) for rest in rests]
    if identity is Identity.CORNER_EACH_TWO_FACES:
        dist = distances(m, d0)
        hs, hs2 = (directed_darts(m, f, d0, "toward", dist) for f in (first, second))
        return [(d0, hs[d], hs2[d2]) for d, d2 in rests]
    hs = directed_darts(m, first, d0, "toward")
    if identity is Identity.UNIT_FACE:
        return [(d0, hs[d]) for d, in rests]
    # two darts of one face: the second digit skips the first dart
    return [(d0, hs[d], hs[d2 + (d2 >= d)]) for d, d2 in rests]


def enumerate_decorations(m: PlaneMap, identity: Identity, side: str) -> list[tuple]:
    """All decorations of one side of a counting identity on one map.

    The decode of every digit tuple in lexicographic order, at the
    default roles.  A map of a type the identity does not apply to (lhs)
    or does not lead to (rhs) raises BadParity, as decoration_radices does.
    """
    radices = decoration_radices(identity, side, m.degrees)
    rests = [*product(*map(range, radices[1:]))]
    per_d0 = (_decorations(m, identity, side, 1, None, d0, rests) for d0 in range(radices[0]))
    return [*chain.from_iterable(per_d0)]
