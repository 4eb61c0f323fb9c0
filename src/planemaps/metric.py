"""Graph distance, direction of half-edges, and extremal geodesics.

Distances are measured on vertices along edges.  A half-edge points
toward a vertex v when its head is strictly closer to v than its tail,
away when strictly farther, and is parallel otherwise.

A leftmost (rightmost) geodesic starts in a corner and greedily
extends a walk by the first distance-decreasing dart encountered while
turning clockwise (counterclockwise) around the current vertex: the
first scan sweeps the sector of the corner, each later one starts just
past the dart that was arrived on.
"""

from __future__ import annotations

from operator import index

from .errors import BadArgument
from .maps import PlaneMap, _entry, _ints


def _vertex(m: PlaneMap, v: int) -> int:
    """v as a vertex index of m; the map's first-dart table refuses any
    other, where vertex_darts would build the vertex's cycle to refuse it."""
    _entry(m._first, v, "vertex")
    return index(v)


def _dart(m: PlaneMap, d: int) -> int:
    """d as a dart index of m; vertex_of refuses any other."""
    m.vertex_of(d)
    return index(d)


def distances(m: PlaneMap, v: int) -> tuple[int, ...]:
    """BFS distance from vertex index v to every vertex."""
    return tuple(_ball(m, _vertex(m, v), ()))


def _ball(m: PlaneMap, v: int, stop) -> list[int]:
    """The search of distances(m, v), cut short once every vertex in stop is labelled.

    An empty stop labels all.  Otherwise the stops and every vertex
    closer to v than the farthest stop carry their true distance, the
    rest it or -1; only the growth step reads them, via _rightmost.
    """
    first, vertex_of, twin, nxt = m._first, m._vertex_of, m.twin, m.next
    dist = [-1] * len(first)
    for w in stop:
        dist[w] = -2  # a stop not reached yet
    dist[v] = 0
    left = dist.count(-2) if stop else -1  # -1 never counts down to 0
    if not left:
        return dist
    # one dart out of each reached vertex, v's first or the twin of the ray
    # that reached it; sigma = next o twin walks the rays past it round to it
    s = first[v]
    queue = [s]
    if (w := vertex_of[twin[s]]) != v:
        left -= dist[w] == -2
        dist[w] = 1
        queue.append(twin[s])
        if not left:
            return dist
    for s in queue:
        du = dist[vertex_of[s]] + 1
        d = nxt[twin[s]]
        while d != s:
            t = twin[d]
            w = vertex_of[t]
            if dist[w] < 0:
                if dist[w] == -2:
                    left -= 1
                    if not left:
                        dist[w] = du
                        return dist
                dist[w] = du
                queue.append(t)
            d = nxt[t]
    return dist


def classify_dart(m: PlaneMap, d: int, v: int, dist=None) -> str:
    """'toward', 'away' or 'parallel' relative to vertex index v.

    A given dist is checked like the geodesics'.
    """
    dist = _checked_dist(m, v, dist)
    a = dist[m.vertex_of(d)]
    b = dist[m.head_of(d)]
    if b < a:
        return "toward"
    if b > a:
        return "away"
    return "parallel"


_DIRECTIONS = {"toward": -1, "parallel": 0, "away": 1}


def directed_darts(m: PlaneMap, i: int, v: int, direction: str, dist=None) -> list[int]:
    """The contour darts of face i that point in direction relative to v.

    direction is "toward", "away" or "parallel", as classify_dart names
    it; the darts come in contour order from the marked corner.  dist,
    when given, is ``distances(m, v)`` already at hand, checked like
    the geodesics'.
    """
    if not isinstance(direction, str) or direction not in _DIRECTIONS:
        raise BadArgument(f"unknown direction {direction!r}")
    want = _DIRECTIONS[direction]
    dist = _checked_dist(m, v, dist)
    vertex_of, twin = m._vertex_of, m.twin
    # the two ends of an edge lie at most one step apart
    return [d for d in m.contour(i) if dist[vertex_of[twin[d]]] - dist[vertex_of[d]] == want]


def direction_census(m: PlaneMap, v: int) -> list[tuple[int, int, int]]:
    """(toward, away, parallel) dart counts of every face relative to vertex v.

    One triple per face, face 1 first; each counts the contour darts
    that classify_dart would call toward, away and parallel, so the
    three add up to the face degree.
    """
    dist = distances(m, v)
    twin, vertex_of = m.twin, m._vertex_of
    out = []
    for contour in m._contours:
        toward = away = 0
        for d in contour:
            a = dist[vertex_of[d]]
            b = dist[vertex_of[twin[d]]]
            if b < a:
                toward += 1
            elif b > a:
                away += 1
        out.append((toward, away, len(contour) - toward - away))
    return out


def census_fits(counts: tuple[int, int, int], quasi: bool) -> bool:
    """Whether one face's census obeys the rule of its parity class.

    The face degree is the sum of the counts.  An odd face sees one
    parallel dart and splits the rest evenly between toward and away.
    An even face splits evenly with no parallel dart in a bipartite
    map, and with zero or two in a quasibipartite one.  Anything but
    three ints raises BadArgument.
    """
    triple = _ints(counts, BadArgument, "census counts are")
    if len(triple) != 3:
        raise BadArgument(f"census counts {counts!r} are not a triple")
    toward, away, par = triple
    if toward != away:
        return False
    if (toward + away + par) % 2:
        return par == 1
    return par == 0 or (quasi and par == 2)


def _walk(m, start, clockwise, dist):
    """The greedy scan behind both geodesics, from the vertex of start.

    Each step turns around the current vertex from start, by sigma
    (d -> next[twin[d]], clockwise) or its inverse (d -> twin[prev[d]]),
    and takes the first dart whose head is one closer; start itself
    comes last.  The next step starts from the twin of that dart.
    """
    vertex_of, twin = m._vertex_of, m.twin
    # sigma is next after twin, its inverse twin after prev
    outer, inner = (m.next, twin) if clockwise else (twin, m._prev)
    path = []
    while (want := dist[vertex_of[start]] - 1) >= 0:
        u = start
        while True:
            u = outer[inner[u]]
            if dist[vertex_of[twin[u]]] == want:
                break
            if u == start:
                raise AssertionError("no distance-decreasing dart found")
        path.append(u)
        start = twin[u]
    return tuple(path)


def _checked_dist(m, v, dist):
    """dist, or distances(m, v) when None; BadArgument unless it starts at v."""
    if dist is None:
        return distances(m, v)
    v = _vertex(m, v)
    if len(dist) != m.n_vertices or dist[v] != 0:
        raise BadArgument(f"dist is not a distance table from vertex {v}")
    return dist


def leftmost_geodesic(m: PlaneMap, target: int, *, from_corner, dist=None) -> tuple[int, ...]:
    """Leftmost geodesic to vertex index target from the corner before from_corner.

    dist, when given, is ``distances(m, target)`` already at hand and
    saves the BFS; a table that is not 0 at the target raises
    BadArgument.  Returns the darts of the walk, empty when already at
    the target.  The walk that continues past a dart d starts from the
    corner before next[d].
    """
    # the corner before d opens between sigma^-1(d) and d
    start = m.twin[m.prev(from_corner)]
    return _walk(m, start, True, _checked_dist(m, target, dist))


def rightmost_geodesic(m: PlaneMap, target: int, *, from_corner, dist=None) -> tuple[int, ...]:
    """Rightmost geodesic to vertex index target, mirror of leftmost.

    Takes the same arguments, dist included.  The walk that continues
    past a dart d starts from the corner before twin[d].
    """
    return _walk(m, _dart(m, from_corner), False, _checked_dist(m, target, dist))


def _rightmost(m: PlaneMap, d: int, dist) -> tuple[int, ...]:
    """Rightmost geodesic continuing past dart d, on an unchecked table.

    The walk only reads vertices closer to the target than the head of
    d, so a table from _ball that labels the tail of d will do.
    """
    return _walk(m, m.twin[d], False, dist)
