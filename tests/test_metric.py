"""Distances, directions, extremal geodesics and direction statistics."""

import random

import pytest

from planemaps.counting import admissible_types
from planemaps.enumerator import enumerate_maps
import planemaps.metric as metric
from planemaps.errors import BadArgument, BadDecoration, BadFace, PlaneMapError
from planemaps.maps import PlaneMap
from planemaps.metric import (
    census_fits,
    classify_dart,
    directed_darts,
    direction_census,
    distances,
    leftmost_geodesic,
    rightmost_geodesic,
)
from planemaps.sampler import sample

import geodesic_reference as ref
from common import double_edge, loop_map, loop_pendant, path_map


# The cycle-parity rule of quasibipartite maps is checked here only:
# no library code needs simple cycles.


def corner_past(m: PlaneMap, geodesic, d: int) -> int:
    """The corner that geodesic's walk continuing past dart d starts from."""
    return (m.next if geodesic is leftmost_geodesic else m.twin)[d]


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
    the map conforms.  The census is read through the metric module,
    so a test can replace it.
    """
    out = []
    odd = [i for i, a in enumerate(m.degrees, start=1) if a % 2]
    quasi = bool(odd)
    for v in range(m.n_vertices):
        for i, counts in enumerate(metric.direction_census(m, v), start=1):
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


class TestDistances:
    def test_path_map(self):
        m = path_map()
        w = m.vertex_of(3)
        assert distances(m, w) == (2, 1, 0)[: m.n_vertices] or True
        dist = distances(m, w)
        assert dist[m.vertex_of(0)] == 2
        assert dist[m.vertex_of(1)] == 1
        assert dist[w] == 0

    def test_classify(self):
        m = path_map()
        w = m.vertex_of(3)
        assert classify_dart(m, 0, w) == "toward"
        assert classify_dart(m, 1, w) == "away"
        m = loop_map()
        assert classify_dart(m, 0, 0) == "parallel"


class TestGeodesics:
    def test_tree_both_sides_agree(self):
        m = path_map()
        w = m.vertex_of(3)
        assert leftmost_geodesic(m, w, from_corner=0) == (0, 2)
        assert rightmost_geodesic(m, w, from_corner=0) == (0, 2)

    def test_double_edge_sides_differ(self):
        m = double_edge()
        w = m.vertex_of(1)
        assert leftmost_geodesic(m, w, from_corner=0) == (0,)
        assert rightmost_geodesic(m, w, from_corner=0) == (3,)

    def test_empty_at_target(self):
        m = path_map()
        u = m.vertex_of(0)
        assert leftmost_geodesic(m, u, from_corner=0) == ()

    def test_from_dart(self):
        m = path_map()
        u = m.vertex_of(0)
        # arriving along dart 0 at the middle vertex, continue to u
        assert leftmost_geodesic(m, u, from_corner=m.next[0]) == (1,)

    def test_needs_one_start(self):
        m = path_map()
        with pytest.raises(TypeError):
            leftmost_geodesic(m, 0)
        with pytest.raises(TypeError):
            rightmost_geodesic(m, 0, from_dart=0, from_corner=0)

    def test_geodesics_decrease_distance(self):
        for a in [(4, 2), (3, 3), (2, 2, 2)]:
            for m in enumerate_maps(a):
                for target in range(m.n_vertices):
                    dist = distances(m, target)
                    for d in range(m.n_darts):
                        for geo in (
                            leftmost_geodesic(m, target, from_corner=m.next[d]),
                            rightmost_geodesic(m, target, from_corner=m.twin[d]),
                            leftmost_geodesic(m, target, from_corner=d),
                            rightmost_geodesic(m, target, from_corner=d),
                        ):
                            seen = set()
                            cur = m.vertex_of(d) if geo else None
                            for k, step in enumerate(geo):
                                v = m.vertex_of(step)
                                assert v not in seen
                                seen.add(v)
                                assert dist[v] == len(geo) - k
                            if geo:
                                assert m.head_of(geo[-1]) == target


    @pytest.mark.parametrize("start", ["from_dart", "from_corner"])
    @pytest.mark.parametrize("geodesic", [leftmost_geodesic, rightmost_geodesic])
    def test_given_dist_matches(self, geodesic, start):
        maps = [m for a in [(4, 2), (3, 3), (2, 2, 2)] for m in enumerate_maps(a)]
        maps += [sample((40,), 3), sample((4,) * 10, 4), sample((11, 9), 5)]
        for m in maps:
            for target in range(m.n_vertices):
                dist = distances(m, target)
                for d in range(m.n_darts):
                    c = d if start == "from_corner" else corner_past(m, geodesic, d)
                    assert geodesic(m, target, from_corner=c, dist=dist) == geodesic(
                        m, target, from_corner=c
                    )

    @pytest.mark.parametrize("fn", [leftmost_geodesic, rightmost_geodesic, classify_dart])
    def test_dist_from_elsewhere_rejected(self, fn):
        m = path_map()
        w, u = m.vertex_of(3), m.vertex_of(0)
        if fn is classify_dart:
            # answered from the table of u, as if it were the table of w
            calls = [lambda dist: fn(m, 0, w, dist)]
        else:
            corners = (0, corner_past(m, fn, 0))
            calls = [lambda dist, c=c: fn(m, w, from_corner=c, dist=dist) for c in corners]
        for call in calls:
            with pytest.raises(BadArgument) as info:
                call(distances(m, u))
            assert isinstance(info.value, PlaneMapError)
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("geodesic", [leftmost_geodesic, rightmost_geodesic])
    def test_start_corner_out_of_range_refused(self, geodesic):
        # -1 started from the last dart, the others raised IndexError or TypeError
        m = path_map()
        w = m.vertex_of(3)
        for dist in (None, distances(m, w)):
            for c in (-1, m.n_darts, 99, "0", 1.5, None):
                with pytest.raises(BadDecoration):
                    geodesic(m, w, from_corner=c, dist=dist)


def walk_outcome(call, *args, **kw):
    """What a walk returns, or the type and text of what it raises."""
    try:
        return call(*args, **kw)
    except AssertionError as exc:
        return ("raised", type(exc), str(exc))


def assert_walks_match(m):
    """Every start dart and corner to every target, both directions.

    The library walk and the reference give the same path; each pair
    of calls shares one table.  The reference's walk past dart d is
    the library's walk from the corner that corner_past names.
    """
    pairs = (
        (leftmost_geodesic, ref.leftmost_geodesic),
        (rightmost_geodesic, ref.rightmost_geodesic),
    )
    for target in range(m.n_vertices):
        dist = distances(m, target)
        for d in range(m.n_darts):
            for walk, old in pairs:
                got = walk(m, target, from_corner=corner_past(m, walk, d), dist=dist)
                want = old(m, target, from_dart=d, dist=dist)
                assert got == want, (m.to_json(), target, "from_dart", d)
                got = walk(m, target, from_corner=d, dist=dist)
                want = old(m, target, from_corner=d, dist=dist)
                assert got == want, (m.to_json(), target, "from_corner", d)


def assert_rightmost_on_balls_matches(m, centres):
    """_rightmost on the growth step's cut-short tables, both darts of
    every edge, the edge's endpoints as the stops."""
    for v in centres:
        for lo, hi in m.edges():
            ball = metric._ball(m, v, (m.vertex_of(lo), m.vertex_of(hi)))
            for d in (lo, hi):
                got = walk_outcome(metric._rightmost, m, d, ball)
                assert got == walk_outcome(ref._rightmost, m, d, ball), (
                    m.to_json(), v, d,
                )


class TestWalkMatchesReference:
    def test_small_maps(self):
        n_maps = 0
        for t in admissible_types(4):
            for m in enumerate_maps(t):
                n_maps += 1
                assert_walks_match(m)
                assert_rightmost_on_balls_matches(m, range(m.n_vertices))
        assert n_maps == 4093

    @pytest.mark.parametrize(
        "a", [(100,), (4,) * 25, (51, 49)], ids=["tree", "quadrangulation", "quasi"]
    )
    def test_sampled_maps(self, a):
        m = sample(a, 50)
        assert m.n_edges == 50
        assert_walks_match(m)
        centres = random.Random(50).sample(range(m.n_vertices), 5)
        assert_rightmost_on_balls_matches(m, centres)

    def test_doctored_table_refused(self):
        # a target table whose middle vertex claims to be far away: the
        # walk from the other end finds no dart one step closer
        m = path_map()
        w, u = m.vertex_of(3), m.vertex_of(0)
        mid = m.vertex_of(1)
        dist = list(distances(m, w))
        dist[mid] = 5
        calls = [
            lambda: leftmost_geodesic(m, w, from_corner=0, dist=dist),
            lambda: rightmost_geodesic(m, w, from_corner=0, dist=dist),
            lambda: leftmost_geodesic(m, w, from_corner=m.next[1], dist=dist),
            lambda: rightmost_geodesic(m, w, from_corner=m.twin[1], dist=dist),
            lambda: metric._rightmost(m, 1, dist),
        ]
        assert dist[u] == 2
        for call in calls:
            with pytest.raises(AssertionError, match="no distance-decreasing dart"):
                call()


class TestCycles:
    def test_loop(self):
        m = loop_map()
        cycles = simple_cycles(m)
        assert len(cycles) == 1
        assert len(cycles[0]) == 1
        assert cycle_separates(m, cycles[0], 1, 2)

    def test_double_edge(self):
        m = double_edge()
        cycles = simple_cycles(m)
        assert len(cycles) == 1
        assert len(cycles[0]) == 2
        assert cycle_separates(m, cycles[0], 1, 2)

    def test_loop_pendant(self):
        m = loop_pendant()
        (cycle,) = simple_cycles(m)
        assert len(cycle) == 1
        assert cycle_separates(m, cycle, 1, 2)

    def test_tree_has_none(self):
        assert simple_cycles(path_map()) == []


class TestDirectionCensus:
    def test_equals_classify_dart_tally(self):
        # every map with E <= 4, bipartite and quasibipartite, every vertex
        kinds = ("toward", "away", "parallel")
        n_maps = n_quasi = 0
        for t in admissible_types(4):
            for m in enumerate_maps(t):
                n_maps += 1
                n_quasi += any(a % 2 for a in t)
                for v in range(m.n_vertices):
                    dist = distances(m, v)
                    tally = [
                        tuple(
                            sum(classify_dart(m, d, v, dist) == k for d in m.contour(i))
                            for k in kinds
                        )
                        for i in range(1, m.n_faces + 1)
                    ]
                    assert direction_census(m, v) == tally
        assert n_quasi and n_maps > n_quasi

    @pytest.mark.parametrize("e", [20, 50, 200])
    def test_fits_on_sampled_maps(self, e):
        # beyond the enumerator: trees, quadrangulations and quasibipartite
        # maps; classification_violations would also enumerate simple
        # cycles, which is exponential at these sizes
        rng = random.Random(e)
        for a in ((2 * e,), (4,) * (e // 2), (e + 1, e - 1)):
            m = sample(a, e)
            quasi = any(x % 2 for x in a)
            for v in rng.sample(range(m.n_vertices), 5):
                census = direction_census(m, v)
                assert [sum(c) for c in census] == list(m.degrees)
                assert all(census_fits(c, quasi) for c in census), (a, v)

    @pytest.mark.parametrize(
        "counts, quasi, fits",
        [
            ((2, 2, 0), False, True),
            ((1, 1, 2), False, False),
            ((1, 1, 2), True, True),
            ((0, 0, 4), True, False),
            ((2, 1, 1), True, False),
            ((2, 2, 1), True, True),
            ((1, 1, 3), True, False),
            ((3, 2, 0), False, False),
            ((3, 1, 0), False, False),
            ((2, 0, 1), True, False),
            ((0, 0, 1), True, True),
        ],
    )
    def test_census_fits(self, counts, quasi, fits):
        assert census_fits(counts, quasi) is fits

    @pytest.mark.parametrize("counts", [(1, 1), "abc", (1, 1, 0, 0), (1.0, 1, 0), None])
    def test_census_fits_refuses_all_but_three_ints(self, counts):
        # (1, 1) raised a bare ValueError from unpacking and "abc" read as
        # False, comparing its letters
        with pytest.raises(BadArgument):
            census_fits(counts, False)


class TestDirectedDarts:
    def test_equals_classify_dart_filter(self):
        # contour order matters: the sampler draws from this list
        maps = [m for t in admissible_types(3) for m in enumerate_maps(t)]
        maps += [sample((40,), 1), sample((4,) * 10, 2), sample((11, 9), 3)]
        for m in maps:
            for v in range(m.n_vertices):
                dist = distances(m, v)
                for i in range(1, m.n_faces + 1):
                    for k in ("toward", "away", "parallel"):
                        want = [d for d in m.contour(i) if classify_dart(m, d, v, dist) == k]
                        assert directed_darts(m, i, v, k) == want
                        assert directed_darts(m, i, v, k, dist) == want

    def test_vertex_out_of_range_refused(self):
        # -1 indexed from the end and answered for the last vertex
        m = enumerate_maps((4,))[0]
        last = distances(m, m.n_vertices - 1)
        calls = [
            lambda v: distances(m, v),
            lambda v: directed_darts(m, 1, v, "toward"),
            lambda v: directed_darts(m, 1, v, "toward", last),
            lambda v: classify_dart(m, 0, v),
            lambda v: classify_dart(m, 0, v, last),
            lambda v: leftmost_geodesic(m, v, from_corner=0),
            lambda v: rightmost_geodesic(m, v, from_corner=m.twin[0], dist=last),
        ]
        for call in calls:
            # "0" and None raised a bare TypeError from the comparison
            for v in (-1, m.n_vertices, 99, "0", 1.0, None):
                with pytest.raises(BadDecoration):
                    call(v)

    @pytest.mark.parametrize("i", [0, 2, "1", 1.0, None])
    def test_face_out_of_range_refused(self, i):
        # "1" raised a bare TypeError from the comparison in contour
        m = enumerate_maps((4,))[0]
        with pytest.raises(BadFace):
            directed_darts(m, i, 0, "toward")

    def test_bad_arguments_rejected(self):
        # a library error, and still the ValueError it was before
        m = path_map()
        w, u = m.vertex_of(3), m.vertex_of(0)
        with pytest.raises(ValueError) as info:
            directed_darts(m, 1, w, "toward", distances(m, u))
        assert isinstance(info.value, BadArgument)
        with pytest.raises(ValueError) as info:
            directed_darts(m, 1, w, "towards")
        assert isinstance(info.value, BadArgument)
        assert isinstance(info.value, PlaneMapError)
        # an unhashable direction raised a bare TypeError
        with pytest.raises(BadArgument):
            directed_darts(m, 1, w, [1])


class TestDirectionStatistics:
    @pytest.mark.parametrize(
        "a",
        [(2,), (4,), (6,), (2, 2), (4, 2), (2, 2, 2), (4, 4),
         (1, 1), (3, 1), (3, 3), (5, 1), (3, 3, 2)],
    )
    def test_sweep(self, a):
        for m in enumerate_maps(a):
            assert classification_violations(m) == []

    def test_skewed_census_reported(self, monkeypatch):
        true_census = metric.direction_census

        def skewed(m, v):
            # face 2 is the loop's one-dart face: (0, 0, 1) becomes (0, 1, 0)
            census = true_census(m, v)
            toward, away, par = census[-1]
            census[-1] = (toward, away + 1, par - 1)
            return census

        m = enumerate_maps((3, 1))[0]
        monkeypatch.setattr(metric, "direction_census", skewed)
        found = classification_violations(m)
        assert len(found) == m.n_vertices
        assert all(line.startswith("odd face 2 at vertex") for line in found)


def assert_ball_matches(m, v, stop):
    """_ball agrees with distances wherever its contract says it must.

    That is every stop vertex and every vertex closer to v than the
    farthest stop; anywhere else it reads the true distance or -1.
    """
    full = distances(m, v)
    ball = metric._ball(m, v, stop)
    assert len(ball) == m.n_vertices
    reach = max(full[s] for s in stop)
    for u, (got, want) in enumerate(zip(ball, full)):
        if want < reach or u in stop:
            assert got == want, (m.to_json(), v, stop, u)
        else:
            assert got in (want, -1), (m.to_json(), v, stop, u)


class TestBall:
    def test_small_maps(self):
        # every map with E <= 4, every vertex, the endpoints of every
        # edge as the growth step passes them, and every single vertex
        n_maps = 0
        for t in admissible_types(4):
            for m in enumerate_maps(t):
                n_maps += 1
                for v in range(m.n_vertices):
                    for d, e in m.edges():
                        assert_ball_matches(m, v, (m.vertex_of(d), m.vertex_of(e)))
                    for u in range(m.n_vertices):
                        assert_ball_matches(m, v, (u,))
        assert n_maps == 4093

    @pytest.mark.parametrize("e", [50, 200])
    def test_sampled_maps(self, e):
        rng = random.Random(e)
        for a in ((2 * e,), (4,) * (e // 2), (e + 1, e - 1)):
            m = sample(a, e)
            for _ in range(10):
                v = rng.randrange(m.n_vertices)
                stop = rng.sample(range(m.n_vertices), rng.randint(1, 4))
                assert_ball_matches(m, v, stop)
            d, t = m.edge(rng.randrange(m.n_edges))
            assert_ball_matches(m, v, (m.vertex_of(d), m.vertex_of(t)))

    def test_cut_short(self):
        # the search stops as soon as the stops are labelled: a neighbour
        # of v leaves most of a tree unlabelled, v alone leaves all else
        m = sample((200,), 3)
        v = m.vertex_of(m.marked[0])
        ball = metric._ball(m, v, (m.head_of(m.marked[0]),))
        assert ball.count(-1) > m.n_vertices // 2
        only = metric._ball(m, v, (v,))
        assert only[v] == 0 and only.count(-1) == m.n_vertices - 1


def own_rotations(m: PlaneMap) -> list[tuple[int, ...]]:
    """The orbits of sigma = next o twin, walked here from next and twin.

    Numbered in the order of their least darts, each read clockwise from
    its least dart: the map's vertex numbering, found without its tables.
    """
    seen = [False] * m.n_darts
    cycles = []
    for d in range(m.n_darts):
        cycle = []
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = m.next[m.twin[d]]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles


def own_distances(m: PlaneMap, cycles, v: int) -> list[int]:
    """BFS from v over the given cycles, reading no table of the map."""
    origin = {d: u for u, cycle in enumerate(cycles) for d in cycle}
    dist = [-1] * len(cycles)
    dist[v] = 0
    queue = [v]
    for u in queue:
        for d in cycles[u]:
            w = origin[m.twin[d]]
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("a", [(320,), (4,) * 80, (161, 159)], ids=["tree", "quads", "quasi"])
def test_rotations_and_searches_at_size(a, seed):
    # the map keeps one dart per vertex and walks the rest on demand;
    # its cycles and both searches must match ones built here from scratch
    m = sample(a, seed)
    cycles = own_rotations(m)
    assert m.n_vertices == len(cycles)
    assert m.vertices() == tuple(cycles)
    assert [m.vertex_darts(v) for v in range(m.n_vertices)] == cycles
    rng = random.Random(seed)
    for v in (0, *rng.sample(range(len(cycles)), 3)):
        full = own_distances(m, cycles, v)
        assert distances(m, v) == tuple(full)
        stop = rng.sample(range(len(cycles)), 2)
        ball = metric._ball(m, v, stop)
        reach = max(full[s] for s in stop)
        for u, (got, want) in enumerate(zip(ball, full)):
            if want < reach or u in stop:
                assert got == want, (seed, v, stop, u)
            else:
                assert got in (want, -1), (seed, v, stop, u)
