"""Distances, directions, extremal geodesics and direction statistics."""

import random

import pytest

from planemaps.cli import admissible_types
from planemaps.enumerator import enumerate_maps
import planemaps.metric as metric
from planemaps.errors import BadDecoration
from planemaps.metric import (
    census_fits,
    classification_violations,
    classify_dart,
    cycle_separates,
    directed_darts,
    direction_census,
    distances,
    leftmost_geodesic,
    rightmost_geodesic,
    simple_cycles,
)
from planemaps.sampler import sample

from common import double_edge, loop_map, loop_pendant, path_map


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
        assert leftmost_geodesic(m, u, from_dart=0) == (1,)

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
                            leftmost_geodesic(m, target, from_dart=d),
                            rightmost_geodesic(m, target, from_dart=d),
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
                    kw = {start: d}
                    assert geodesic(m, target, dist=dist, **kw) == geodesic(
                        m, target, **kw
                    )

    @pytest.mark.parametrize("geodesic", [leftmost_geodesic, rightmost_geodesic])
    def test_dist_from_elsewhere_rejected(self, geodesic):
        m = path_map()
        w, u = m.vertex_of(3), m.vertex_of(0)
        with pytest.raises(ValueError):
            geodesic(m, w, from_corner=0, dist=distances(m, u))


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
            lambda v: leftmost_geodesic(m, v, from_corner=0),
            lambda v: rightmost_geodesic(m, v, from_dart=0, dist=last),
        ]
        for call in calls:
            for v in (-1, m.n_vertices, 99):
                with pytest.raises(BadDecoration):
                    call(v)

    def test_bad_arguments_rejected(self):
        m = path_map()
        w, u = m.vertex_of(3), m.vertex_of(0)
        with pytest.raises(ValueError):
            directed_darts(m, 1, w, "toward", distances(m, u))
        with pytest.raises(ValueError):
            directed_darts(m, 1, w, "towards")


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
