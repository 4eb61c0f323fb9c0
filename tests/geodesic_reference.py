"""The geodesic walk as it was before it turned around vertices by σ/σ⁻¹.

Each step here builds the candidate darts as a rotated list of the
vertex rotation, reversed for the rightmost walk, and scans it.  The
walk is kept unchanged as the reference that tests/test_metric.py
compares the library's walks against, start by start.  It keeps both
starts: a corner, as the library's geodesics take it, and a dart to
continue past, as the growth step's _rightmost takes it.  Its checks
are its own, and it takes the distance table from the caller.
"""

from planemaps.errors import BadArgument, BadDecoration


def _start(m, target, from_dart, from_corner, dist):
    """The one start given, once it and the table are found to fit m."""
    if (from_dart is None) == (from_corner is None):
        raise TypeError("need exactly one of from_dart and from_corner")
    start = from_corner if from_dart is None else from_dart
    if type(start) is not int or not 0 <= start < m.n_darts:
        raise BadDecoration(f"no dart {start!r}")
    if type(target) is not int or not 0 <= target < m.n_vertices:
        raise BadDecoration(f"no vertex {target!r}")
    if len(dist) != m.n_vertices or dist[target] != 0:
        raise BadArgument(f"dist is not a distance table from vertex {target}")
    return start


def _walk(m, cands, step, dist):
    vertex_of, twin = m._vertex_of, m.twin
    path = []
    while True:
        want = dist[vertex_of[cands[0]]] - 1
        if want < 0:
            return tuple(path)
        for u in cands:
            if dist[vertex_of[twin[u]]] == want:
                path.append(u)
                cands = step(u)
                break
        else:
            raise AssertionError("no distance-decreasing dart found")


def _rotation(m, d):
    """The darts at the origin of d, clockwise from d: walked here from
    next and twin, not read from the map's storage."""
    rot = [d]
    e = m.next[m.twin[d]]
    while e != d:
        rot.append(e)
        e = m.next[m.twin[e]]
    return rot


def _clockwise_from(m, d):
    """All darts at the origin of d: d itself last, scanning clockwise."""
    rot = _rotation(m, d)
    return rot[1:] + rot[:1]


def _counterclockwise_from(m, d):
    rot = _rotation(m, d)
    return rot[:0:-1] + rot[:1]


def leftmost_geodesic(m, target, *, from_dart=None, from_corner=None, dist):
    d = _start(m, target, from_dart, from_corner, dist)
    step = lambda u: _clockwise_from(m, m.twin[u])
    cands = step(d) if from_corner is None else [d] + _clockwise_from(m, d)[:-1]
    return _walk(m, cands, step, dist)


def rightmost_geodesic(m, target, *, from_dart=None, from_corner=None, dist):
    d = _start(m, target, from_dart, from_corner, dist)
    if from_corner is None:
        return _rightmost(m, d, dist)
    step = lambda u: _counterclockwise_from(m, m.twin[u])
    return _walk(m, _counterclockwise_from(m, d), step, dist)


def _rightmost(m, d, dist):
    step = lambda u: _counterclockwise_from(m, m.twin[u])
    return _walk(m, step(d), step, dist)
