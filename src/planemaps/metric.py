"""Graph distance, direction of half-edges, and extremal geodesics.

Distances are measured on vertices along edges.  A half-edge points
toward a vertex v when its head is strictly closer to v than its tail,
away when strictly farther, and is parallel otherwise.

A leftmost (rightmost) geodesic greedily extends a walk by the first
distance-decreasing dart encountered while turning clockwise
(counterclockwise) around the current vertex, starting the scan just
past the dart that was arrived on, or sweeping the sector of a corner
when the walk starts in one.
"""

from __future__ import annotations

from .errors import BadDecoration
from .maps import PlaneMap


def distances(m: PlaneMap, v: int) -> tuple[int, ...]:
    """BFS distance from vertex index v to every vertex."""
    vertices, vertex_of, twin = m._vertices, m._vertex_of, m.twin
    if not 0 <= v < len(vertices):  # -1 would answer for the last vertex
        raise BadDecoration(f"vertex {v} out of range 0..{len(vertices) - 1}")
    dist = [-1] * len(vertices)
    dist[v] = 0
    queue = [v]
    for u in queue:
        du = dist[u] + 1
        for d in vertices[u]:
            w = vertex_of[twin[d]]
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return tuple(dist)


def _ball(m: PlaneMap, v: int, stop) -> list[int]:
    """distances(m, v) cut short once every vertex in stop is labelled.

    The stop vertices and every vertex closer to v than the farthest
    of them carry their true distance; the rest carry it or -1.  Only
    the growth step reads such a table, and only through _rightmost.
    """
    vertices, vertex_of, twin = m._vertices, m._vertex_of, m.twin
    dist = [-1] * len(vertices)
    dist[v] = 0
    left = set(stop)
    left.discard(v)
    if not left:
        return dist
    queue = [v]
    for u in queue:
        du = dist[u] + 1
        for d in vertices[u]:
            w = vertex_of[twin[d]]
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
                if w in left:
                    left.discard(w)
                    if not left:
                        return dist
    return dist


def classify_dart(m: PlaneMap, d: int, v: int, dist=None) -> str:
    """'toward', 'away' or 'parallel' relative to vertex index v."""
    if dist is None:
        dist = distances(m, v)
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
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
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
    map, and with zero or two in a quasibipartite one.
    """
    toward, away, par = counts
    if toward != away:
        return False
    if (toward + away + par) % 2:
        return par == 1
    return par == 0 or (quasi and par == 2)


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


def _checked_dist(m, v, dist):
    """dist, or distances(m, v) when None; ValueError unless it starts at v."""
    if dist is None:
        return distances(m, v)
    if not 0 <= v < m.n_vertices:
        raise BadDecoration(f"vertex {v} out of range 0..{m.n_vertices - 1}")
    if len(dist) != m.n_vertices or dist[v] != 0:
        raise ValueError(f"dist is not a distance table from vertex {v}")
    return dist


def _target_dist(m, target, from_dart, from_corner, dist):
    if (from_dart is None) == (from_corner is None):
        raise TypeError("need exactly one of from_dart and from_corner")
    return _checked_dist(m, target, dist)


def leftmost_geodesic(
    m: PlaneMap, target: int, *, from_dart=None, from_corner=None, dist=None
) -> tuple[int, ...]:
    """Leftmost geodesic to vertex index target.

    Exactly one of from_dart (continue past that dart) and from_corner
    (start inside the corner before that dart) must be given.  dist,
    when given, is ``distances(m, target)`` already at hand and saves
    the BFS; a table that is not 0 at the target raises ValueError.
    Returns the darts of the walk, empty when already at the target.
    """
    dist = _target_dist(m, target, from_dart, from_corner, dist)
    step = lambda u: _clockwise_from(m, m.twin[u])
    if from_dart is not None:
        cands = step(from_dart)
    else:
        d = from_corner
        cands = [d] + _clockwise_from(m, d)[:-1]
    return _walk(m, cands, step, dist)


def rightmost_geodesic(
    m: PlaneMap, target: int, *, from_dart=None, from_corner=None, dist=None
) -> tuple[int, ...]:
    """Rightmost geodesic to vertex index target, mirror of leftmost.

    Takes the same arguments, dist included.
    """
    dist = _target_dist(m, target, from_dart, from_corner, dist)
    if from_dart is not None:
        return _rightmost(m, from_dart, dist)
    step = lambda u: _counterclockwise_from(m, m.twin[u])
    return _walk(m, _counterclockwise_from(m, from_corner), step, dist)


def _rightmost(m: PlaneMap, d: int, dist) -> tuple[int, ...]:
    """Rightmost geodesic continuing past dart d, on an unchecked table.

    The walk only reads vertices closer to the target than the head of
    d, so a table from _ball that labels the tail of d will do.
    """
    step = lambda u: _counterclockwise_from(m, m.twin[u])
    return _walk(m, step(d), step, dist)


def edge_id(m: PlaneMap, d: int) -> int:
    return min(d, m.twin[d])


def simple_cycles(m: PlaneMap) -> list[tuple[int, ...]]:
    """All vertex-simple cycles as dart walks, one orientation each."""
    found: dict[frozenset, tuple[int, ...]] = {}
    for s in range(m.n_vertices):

        def dfs(v, path, visited, used):
            for d in m.vertex_darts(v):
                eid = edge_id(m, d)
                if eid in used:
                    continue
                h = m.head_of(d)
                if h == s:
                    found.setdefault(frozenset(used | {eid}), tuple(path) + (d,))
                elif h not in visited:
                    dfs(h, path + [d], visited | {h}, used | {eid})

        dfs(s, [], {s}, frozenset())
    return list(found.values())


def cycle_separates(m: PlaneMap, cycle: tuple[int, ...], fa: int, fb: int) -> bool:
    """Whether faces fa and fb lie on opposite sides of the cycle."""
    on_cycle = {edge_id(m, d) for d in cycle}
    parent = list(range(m.n_faces + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in range(m.n_darts):
        if edge_id(m, d) not in on_cycle:
            a, b = find(m.face[d]), find(m.face[m.twin[d]])
            if a != b:
                parent[a] = b
    sides = {find(i) for i in range(1, m.n_faces + 1)}
    assert len(sides) == 2, "a simple cycle must cut the sphere in two"
    return find(fa) != find(fb)


def classification_violations(m: PlaneMap) -> list[str]:
    """Check the direction statistics implied by the parity class.

    Bipartite maps: around any vertex v, every face sees half of its
    contour darts toward v, half away, none parallel.  Quasibipartite
    maps: each odd face contributes one parallel dart per vertex and
    splits the rest evenly, each even face has zero or two parallel
    darts, and a simple cycle has odd length exactly when it separates
    the two odd faces.  Returns human-readable violations, empty when
    the map conforms.
    """
    out = []
    odd = [i for i, a in enumerate(m.degrees, start=1) if a % 2]
    quasi = bool(odd)
    for v in range(m.n_vertices):
        for i, counts in enumerate(direction_census(m, v), start=1):
            if not census_fits(counts, quasi):
                parity = "odd" if sum(counts) % 2 else "even"
                out.append(f"{parity} face {i} at vertex {v}: {counts}")
    if len(odd) == 2:
        fa, fb = odd
        for cycle in simple_cycles(m):
            sep = cycle_separates(m, cycle, fa, fb)
            if sep != bool(len(cycle) % 2):
                out.append(
                    f"cycle of length {len(cycle)} "
                    f"{'separates' if sep else 'does not separate'} "
                    f"the odd faces"
                )
    return out
