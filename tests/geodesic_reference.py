"""The geodesic walk as it was before it turned around vertices by σ/σ⁻¹.

Each step here builds the candidate darts as a rotated list of the
vertex rotation, reversed for the rightmost walk, and scans it.  It is
kept unchanged as the reference that tests/test_metric.py compares the
library's walks against, start by start.
"""

from planemaps.metric import _target_dist


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


def _rotate_past(cycle, d):
    """The cycle read from the entry after d around to d itself."""
    k = cycle.index(d) + 1
    return list(cycle[k:] + cycle[:k])


def _clockwise_from(m, d):
    """All darts at the origin of d: d itself last, scanning clockwise."""
    return _rotate_past(m._vertices[m._vertex_of[d]], d)


def _counterclockwise_from(m, d):
    return _rotate_past(m._vertices[m._vertex_of[d]][::-1], d)


def leftmost_geodesic(m, target, *, from_dart=None, from_corner=None, dist=None):
    dist = _target_dist(m, target, from_dart, from_corner, dist)
    step = lambda u: _clockwise_from(m, m.twin[u])
    if from_dart is not None:
        cands = step(from_dart)
    else:
        d = from_corner
        cands = [d] + _clockwise_from(m, d)[:-1]
    return _walk(m, cands, step, dist)


def rightmost_geodesic(m, target, *, from_dart=None, from_corner=None, dist=None):
    dist = _target_dist(m, target, from_dart, from_corner, dist)
    if from_dart is not None:
        return _rightmost(m, from_dart, dist)
    step = lambda u: _counterclockwise_from(m, m.twin[u])
    return _walk(m, _counterclockwise_from(m, from_corner), step, dist)


def _rightmost(m, d, dist):
    step = lambda u: _counterclockwise_from(m, m.twin[u])
    return _walk(m, step(d), step, dist)
