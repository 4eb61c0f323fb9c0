"""Brute-force enumeration of plane maps and their decorations.

Maps of type (a_1, ..., a_r) are produced by gluing the sides of r
polygons in every possible way: darts are laid out polygon by polygon,
the contour permutation is fixed, and the twin involution ranges over
all perfect matchings of the sides.  Matchings that produce a
disconnected or higher-genus gluing are discarded.  Two distinct
matchings always give distinct maps, because an isomorphism must fix
every marked dart and therefore every dart.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .counting import Identity, check_type, edge_count
from .errors import Disconnected, TooManyEdges, WrongGenus
from .maps import PlaneMap
from .metric import directed_darts, distances

DEFAULT_MAX_EDGES = 6


def _matchings(n: int) -> Iterator[tuple[int, ...]]:
    """Fixed-point-free involutions of 0..n-1, smallest unmatched first."""
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


def enumerate_maps(a, max_edges: int = DEFAULT_MAX_EDGES) -> list[PlaneMap]:
    """All plane maps of type a, distinct as decorated objects."""
    t = check_type(a)
    e = edge_count(t)
    if e > max_edges:
        raise TooManyEdges(
            f"type {t} has {e} edges, above the bound {max_edges}; "
            "raise max_edges explicitly to proceed"
        )
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
    r = len(t)
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
            out.append(PlaneMap(twin, next_, None, marked))
        except (Disconnected, WrongGenus):
            continue
    return out


def enumerate_decorations(m: PlaneMap, identity: Identity, side: str) -> list[tuple]:
    """All decorations of one side of a counting identity on one map.

    Input-side decorations ('lhs') use corner slots of the stated
    faces and edge indices; output-side decorations ('rhs') consist of
    vertices and darts with the stated directions.  The face playing
    the first role is face 1, the face playing the last role is the
    final face of the map.
    """
    if side not in ("lhs", "rhs"):
        raise ValueError("side must be 'lhs' or 'rhs'")
    r = m.n_faces
    a1 = m.degree(1)
    out: list[tuple] = []
    if identity is Identity.TWO_CORNERS_SAME_FACE:
        if side == "lhs":
            return list(product(range(m.n_edges), range(a1 + 1), range(a1 + 2)))
        for v in range(m.n_vertices):
            hs = directed_darts(m, 1, v, "toward")
            out += [(v, h, h2) for h in hs for h2 in hs if h != h2]
        return out
    if identity is Identity.CORNER_EACH_TWO_FACES:
        if side == "lhs":
            return list(product(range(m.n_edges), range(a1 + 1), range(m.degree(2) + 1)))
        for v in range(m.n_vertices):
            dist = distances(m, v)
            hs2 = directed_darts(m, 2, v, "toward", dist)
            out += [(v, h, h2) for h in directed_darts(m, 1, v, "toward", dist) for h2 in hs2]
        return out
    if identity is Identity.FACE_TO_FACE:
        if side == "lhs":
            for c in range(a1 + 1):
                v = m.vertex_of(m.slot_anchor(1, c))
                out += [(c, h2) for h2 in directed_darts(m, r, v, "toward")]
            return out
        for c2 in range(m.degree(r) + 1):
            v = m.vertex_of(m.slot_anchor(r, c2))
            out += [(c2, h) for h in directed_darts(m, 1, v, "away")]
        return out
    if identity is Identity.UNIT_FACE:
        if side == "lhs":
            return [(c,) for c in range(a1 + 1)]
        for v in range(m.n_vertices):
            out += [(v, h) for h in directed_darts(m, 1, v, "toward")]
        return out
    raise TypeError(f"unknown identity {identity!r}")
