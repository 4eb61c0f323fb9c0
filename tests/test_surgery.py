"""Cut, sew, suppress, and digon conversion tests.

The slit and sew expectations here are frozen from hand runs on the
small example maps; they pin down the bank layout, the marker flow,
and the exact dart wiring after each operation.
"""

import copy
import io
import random

import pytest

from planemaps import PlaneMap, bijections, cli, surgery
from planemaps.counting import Identity
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.errors import (
    BadArgument,
    CornerMismatch,
    InvalidWalk,
    NotDangling,
    NotDigon,
    NotPermutation,
    PlaneMapError,
)
from planemaps.metric import directed_darts, distances
from planemaps.sampler import sample
from planemaps.surgery import (
    Slit,
    Workspace,
    arrow,
    digon_to_edge,
    edge_to_digon,
    finish,
    glue,
    is_arrow,
    sew_backward,
    sew_forward,
    sew_onto,
    slit,
    slit_pinched,
    suppress_pendant,
    weld,
    workspace_with_arrows,
)

import slit_reference
from common import ALL_EXAMPLES, digon, double_edge, loop_map, loop_pendant, path_map


def live(seq):
    """The set entries of a workspace list (twin, next or prev) by dart."""
    return {d: x for d, x in enumerate(seq) if x is not None}


def assert_vertex_cycles(ws, *cycles):
    """Each cycle is the rotation of the workspace from its first dart."""
    assert [ws.rotation_from(cyc[0]) for cyc in cycles] == list(cycles)


def contour_from(ws, d):
    """The workspace contour through d, from d, following next."""
    out = [d]
    while (e := ws.next[out[-1]]) != d:
        out.append(e)
    return out


class TestWorkspace:
    def test_copies_map(self):
        m = double_edge()
        ws = Workspace(m)
        assert live(ws.twin) == {0: 1, 1: 0, 2: 3, 3: 2}
        assert live(ws.next) == {0: 2, 1: 3, 2: 0, 3: 1}
        assert ws.new_dart() == 4
        assert ws.new_dart() == 5

    def test_rotation_and_contour(self):
        ws = Workspace(double_edge())
        assert ws.rotation_from(3) == [3, 0]
        assert ws.rotation_from(2) == [2, 1]
        assert contour_from(ws, 0) == [0, 2]
        assert contour_from(ws, 3) == [3, 1]
        assert ws.prev_of(0) == 2
        assert live(ws.prev) == {0: 2, 1: 3, 2: 0, 3: 1}

    def test_fresh_and_deleted_darts(self):
        ws = Workspace(double_edge())
        assert not ws.alive(-1) and not ws.alive(4)  # no wrapping round
        d = ws.new_dart()
        assert (d, ws.twin[d], ws.next[d], ws.prev[d]) == (4, None, None, None)
        ws.delete(1)
        assert (ws.twin[1], ws.next[1], ws.prev[1]) == (None, None, None)
        alive = [ws.alive(x) for x in range(6)]
        assert alive == [True, False, True, True, False, False]
        # a read through a deleted dart fails instead of wrapping round
        with pytest.raises(TypeError):
            ws.sigma(1)
        with pytest.raises(AssertionError):
            ws.delete(1)

    def test_markers(self):
        ws = Workspace(digon())
        ws.add_marker(0, "a")
        ws.add_marker(0, "b")
        ws.add_marker(0, "c", rank=1)
        assert ws.marks_of(0) == ["a", "c", "b"]

    def test_arrow_tokens(self):
        ws = workspace_with_arrows(double_edge())
        assert ws.marks_of(0) == [arrow(1)]
        assert ws.marks_of(3) == [arrow(2)]
        assert is_arrow(arrow(1))
        assert not is_arrow("c")
        assert not is_arrow(("other", 1))


class TestSlitValidation:
    def test_empty_walk(self):
        with pytest.raises(InvalidWalk):
            slit(Workspace(digon()), [], (0, 0), (1, 0))

    def test_unknown_dart(self):
        with pytest.raises(InvalidWalk):
            slit(Workspace(digon()), [7], (0, 0), (1, 0))

    @pytest.mark.parametrize("dart", [-1, 1])
    def test_negative_or_deleted_dart(self, dart):
        # -1 must not wrap round to the live dart 3
        ws = Workspace(path_map())
        ws.delete(1)
        assert not ws.alive(dart)
        with pytest.raises(InvalidWalk):
            slit(ws, [dart], (dart % 4, 0), None)

    def test_broken_chain(self):
        # head of 0 is the center, dart 3 leaves the far leaf
        with pytest.raises(InvalidWalk):
            slit(Workspace(path_map()), [0, 3], (0, 0), None)

    def test_vertex_revisit(self):
        # 0 then 2 crosses to the other vertex and straight back
        with pytest.raises(InvalidWalk):
            slit(Workspace(double_edge()), [0, 2], (0, 0), (0, 0))

    def test_entry_corner_off_vertex(self):
        with pytest.raises(CornerMismatch):
            slit(Workspace(path_map()), [0, 2], (2, 0), (3, 0))

    def test_exit_corner_off_vertex(self):
        with pytest.raises(CornerMismatch):
            slit(Workspace(path_map()), [0, 2], (0, 0), (0, 0))

    @pytest.mark.parametrize("side, entry_split, exit_split", [("left", 0, 1), ("right", 1, 0)])
    def test_pinched_same_corner_split_order(self, side, entry_split, exit_split):
        # both spines empty: entry and exit cut one corner, and side
        # fixes which split comes first
        ws = workspace_with_arrows(digon())
        with pytest.raises(CornerMismatch):
            slit_pinched(ws, [], [0], [], (0, entry_split), (0, exit_split), side)
        assert len(ws.twin) == 2

    def test_pinched_unknown_side(self):
        # a library error, and still the ValueError it was before
        ws = workspace_with_arrows(digon())
        with pytest.raises(BadArgument) as info:
            slit_pinched(ws, [], [0], [], (0, 0), (0, 0), "up")
        assert isinstance(info.value, PlaneMapError)
        assert isinstance(info.value, ValueError)
        assert len(ws.twin) == 2


class TestSlitDigon:
    """Length-one slit of the single-edge map, cut at both corners."""

    def run(self):
        ws = workspace_with_arrows(digon())
        s = slit(ws, [0], (0, 0), (1, 0))
        return ws, s

    def test_banks(self):
        ws, s = self.run()
        assert s.walk == (0,)
        assert ws.twin[s.nr[0]] == 1
        assert s.nl == (2,)
        assert s.nr == (3,)
        # left bank, then right bank
        assert_vertex_cycles(ws, [0], [2])
        assert_vertex_cycles(ws, [3], [1])

    def test_wiring_splits_in_two(self):
        ws, s = self.run()
        assert live(ws.twin) == {0: 2, 1: 3, 2: 0, 3: 1}
        assert live(ws.next) == {0: 2, 1: 3, 2: 0, 3: 1}
        # two floating single-edge pieces
        assert contour_from(ws, 0) == [0, 2]
        assert contour_from(ws, 1) == [1, 3]

    def test_forward_sew_gives_path(self):
        ws, s = self.run()
        sew_forward(ws, s)
        assert live(ws.next) == {0: 2, 1: 3, 2: 1, 3: 0}
        m, rename, corners = finish(ws)
        assert m.twin == (2, 3, 0, 1)
        assert m.next == (2, 3, 1, 0)
        assert m.face == (1, 1, 1, 1)
        assert m.marked == (0,)
        assert m.degrees == (4,)
        assert m.n_vertices == 3
        # the merged vertex carries the marked corner
        assert len(m.vertex_darts(m.vertex_of(0))) == 2
        assert corners == {0: [arrow(1)]}

    def test_backward_sew_gives_path_too(self):
        ws, s = self.run()
        sew_backward(ws, s)
        m, rename, corners = finish(ws)
        assert m.degrees == (4,)
        assert m.n_vertices == 3


class TestSlitDoubleEdge:
    """Length-one slit of the double edge along dart 3, the first leg
    of a left transfer that moves a corner from face 2 to face 1."""

    def run(self):
        ws = workspace_with_arrows(double_edge())
        s = slit(ws, [3], (3, 0), (2, 0))
        return ws, s

    def test_banks(self):
        ws, s = self.run()
        assert s.nl == (4,)
        assert s.nr == (5,)
        assert_vertex_cycles(ws, [3], [4, 1])
        assert_vertex_cycles(ws, [5, 0], [2])

    def test_merged_contour(self):
        ws, s = self.run()
        assert contour_from(ws, 3) == [3, 1, 5, 2, 0, 4]

    def test_backward_sew_and_suppress(self):
        ws, s = self.run()
        sew_backward(ws, s)
        assert ws.rotation_from(4) == [4, 1, 5, 0]
        assert contour_from(ws, 3) == [3, 1, 4]
        assert contour_from(ws, 0) == [0, 5, 2]
        target = suppress_pendant(ws, s.walk[0], out_marker="out")
        assert target == 1
        assert ws.marks_of(1) == [arrow(2), "out"]
        m, rename, corners = finish(ws)
        assert m.twin == (1, 0, 3, 2)
        assert m.next == (3, 1, 0, 2)
        assert m.face == (1, 2, 1, 1)
        assert m.marked == (0, 1)
        assert m.degrees == (3, 1)
        assert rename[s.nr[0]] == 3
        assert corners == {0: [arrow(1)], 1: [arrow(2), "out"]}


class TestSlitPath:
    """Length-two slit along the whole path, leaf corner to leaf corner."""

    def run(self):
        ws = workspace_with_arrows(path_map())
        s = slit(ws, [0, 2], (0, 0), (3, 0))
        return ws, s

    def test_banks(self):
        ws, s = self.run()
        assert s.nl == (4, 5)
        assert s.nr == (6, 7)
        assert_vertex_cycles(ws, [0], [4, 2], [5])
        assert_vertex_cycles(ws, [6], [7, 1], [3])

    def test_wiring_splits_in_two(self):
        ws, s = self.run()
        assert live(ws.next) == {0: 2, 1: 6, 2: 5, 3: 1, 4: 0, 5: 4, 6: 7, 7: 3}
        assert contour_from(ws, 0) == [0, 2, 5, 4]
        assert contour_from(ws, 1) == [1, 6, 7, 3]

    def test_backward_sew(self):
        ws, s = self.run()
        sew_backward(ws, s)
        assert live(ws.twin) == {0: 4, 4: 0, 1: 2, 2: 1, 3: 7, 7: 3}
        assert live(ws.next) == {0: 2, 1: 4, 2: 7, 3: 1, 4: 0, 7: 3}
        m, rename, corners = finish(ws)
        assert m.degrees == (6,)
        assert m.n_vertices == 4
        assert sorted(len(v) for v in m.vertices()) == [1, 1, 2, 2]

    def test_forward_sew(self):
        ws, s = self.run()
        sew_forward(ws, s)
        assert live(ws.twin) == {0: 3, 3: 0, 1: 6, 6: 1, 2: 5, 5: 2}
        assert live(ws.next) == {0: 2, 1: 6, 2: 5, 3: 1, 5: 3, 6: 0}
        m, rename, corners = finish(ws)
        assert m.degrees == (6,)
        assert m.n_vertices == 4


class TestBlindSlit:
    """Blind slit peels a pendant edge off the path into a three-star;
    the backward weld then closes a fresh unit face."""

    def run(self):
        ws = workspace_with_arrows(path_map())
        s = slit(ws, [0], (0, 0), None)
        return ws, s

    def test_banks(self):
        ws, s = self.run()
        assert s.exit_dart is None
        # the far vertex stays whole, so the right bank has one copy
        assert_vertex_cycles(ws, [0], [4, 2, 1])
        assert_vertex_cycles(ws, [5])

    def test_wiring(self):
        ws, s = self.run()
        assert live(ws.next) == {0: 2, 1: 5, 2: 3, 3: 1, 4: 0, 5: 4}
        assert contour_from(ws, 0) == [0, 2, 3, 1, 5, 4]
        assert ws.rotation_from(4) == [4, 2, 1]

    def test_forward_sew_rejected(self):
        ws, s = self.run()
        with pytest.raises(InvalidWalk):
            sew_forward(ws, s)

    def test_sew_onto_rejected(self):
        ws, s = self.run()
        with pytest.raises(InvalidWalk):
            sew_onto(ws, s, 2)

    def test_backward_sew_creates_unit_face(self):
        ws, s = self.run()
        sew_backward(ws, s)
        assert contour_from(ws, 5) == [5]
        assert contour_from(ws, 0) == [0, 2, 3, 1, 4]
        suppress_pendant(ws, s.walk[0], out_marker="out")
        ws.add_marker(5, arrow(2))
        m, rename, corners = finish(ws)
        assert m.degrees == (3, 1)
        # loop plus pendant edge, out marker at the loop vertex
        assert m.n_vertices == 2
        d, rank = next(
            (d, toks.index("out")) for d, toks in corners.items() if "out" in toks
        )
        assert len(m.vertex_darts(m.vertex_of(d))) == 3


class TestGlueWeld:
    def test_weld_merges_two_vertices(self):
        # two one-loop pieces, the second appended as darts 2 and 3
        ws = Workspace(loop_map())
        ws.new_darts(2)
        ws.twin[2], ws.twin[3] = 3, 2
        ws.link(2, 2)
        ws.link(3, 3)
        assert_vertex_cycles(ws, [1, 0], [2, 3])
        weld(ws, 1, 2)
        # the rays of 1's vertex from 1, then those of 2's vertex from 2
        assert_vertex_cycles(ws, [1, 0, 2, 3])
        assert live(ws.next) == {0: 0, 1: 2, 2: 1, 3: 3}
        assert live(ws.prev) == {0: 0, 1: 2, 2: 1, 3: 3}

    def test_glue_undoes_slit(self):
        # gluing left copy to right copy at the same index restores the map
        m = path_map()
        ws = Workspace(m)
        s = slit(ws, [0], (0, 0), (2, 0))
        ws.add_marker(s.nl[0], "left")
        ws.add_marker(s.nr[0], "right")
        glue(ws, s.nl[0], s.nr[0])
        assert live(ws.twin) == dict(enumerate(m.twin))
        assert live(ws.next) == dict(enumerate(m.next))
        assert ws.marks_of(2) == ["left"]
        assert ws.marks_of(0) == ["right"]


class TestSuppress:
    def test_loop_pendant_to_loop(self):
        ws = workspace_with_arrows(loop_pendant())
        target = suppress_pendant(ws, 3, out_marker="c")
        assert target == 0
        assert ws.marks_of(0) == ["c", arrow(1)]
        m, rename, corners = finish(ws)
        ref = loop_map()
        assert m.twin == ref.twin
        assert m.next == ref.next
        assert m.face == ref.face
        assert m.marked == ref.marked
        assert corners == {0: ["c", arrow(1)], 1: [arrow(2)]}

    def test_not_a_leaf(self):
        ws = Workspace(loop_pendant())
        with pytest.raises(NotDangling):
            suppress_pendant(ws, 2)

    def test_deleted_dart(self):
        ws = Workspace(path_map())
        ws.delete(3)
        with pytest.raises(NotDangling):
            suppress_pendant(ws, 3)

    def test_whole_component(self):
        ws = Workspace(digon())
        with pytest.raises(NotDangling):
            suppress_pendant(ws, 0)

    def test_no_out_marker(self):
        ws = workspace_with_arrows(loop_pendant())
        suppress_pendant(ws, 3)
        assert ws.marks_of(0) == [arrow(1)]


class TestMarkerSplits:
    def test_entry_split(self):
        ws = Workspace(double_edge())
        ws.markers[3] = ["p", "q", "r"]
        s = slit(ws, [3], (3, 2), (2, 0))
        assert ws.marks_of(s.nr[0]) == ["p", "q"]
        assert ws.marks_of(3) == ["r"]

    def test_exit_split(self):
        ws = Workspace(double_edge())
        ws.markers[2] = ["u", "v"]
        s = slit(ws, [3], (3, 0), (2, 1))
        assert ws.marks_of(s.nl[-1]) == ["u"]
        assert ws.marks_of(2) == ["v"]

    def test_zero_splits_leave_markers(self):
        ws = Workspace(double_edge())
        ws.markers[3] = ["p"]
        ws.markers[2] = ["u"]
        slit(ws, [3], (3, 0), (2, 0))
        assert ws.marks_of(3) == ["p"]
        assert ws.marks_of(2) == ["u"]


class TestDigonConversions:
    def test_round_trip_all_edges(self):
        for make in ALL_EXAMPLES:
            m = make()
            for e in range(m.n_edges):
                for side in (0, 1):
                    m1 = edge_to_digon(m, e, side)
                    assert m1.n_faces == m.n_faces + 1
                    assert m1.degree(m1.n_faces) == 2
                    assert m1.n_edges == m.n_edges + 1
                    m2, e2, side2 = digon_to_edge(m1, m1.n_faces)
                    assert (e2, side2) == (e, side)
                    assert m2.twin == m.twin
                    assert m2.next == m.next
                    assert m2.face == m.face
                    assert m2.marked == m.marked

    def test_collapse_then_restore(self):
        m = double_edge()
        m2, e, side = digon_to_edge(m, 2)
        assert m2.degrees == (2,)
        m3 = edge_to_digon(m2, e, side)
        assert m3.canonical_code() == m.canonical_code()

    def test_marked_corner_side(self):
        m = digon()
        m1 = edge_to_digon(m, 0, 0)
        assert m1.degrees == (2, 2)
        m1b = edge_to_digon(m, 0, 1)
        assert m1.marked != m1b.marked

    def test_not_digon(self):
        with pytest.raises(NotDigon):
            digon_to_edge(path_map(), 1)
        with pytest.raises(NotDigon):
            digon_to_edge(digon(), 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError) as info:
            edge_to_digon(digon(), 0, 2)
        assert isinstance(info.value, PlaneMapError)
        with pytest.raises(ValueError) as info:
            edge_to_digon(digon(), 5, 0)
        assert isinstance(info.value, PlaneMapError)


class TestFinishDeadLinks:
    @pytest.mark.parametrize("link", ["twin-and-next", "twin", "next"])
    def test_live_dart_linked_to_deleted(self, link):
        # path_map: darts 2 and 3 form one edge, next = (2, 0, 3, 1)
        ws = workspace_with_arrows(path_map())
        ws.delete(3)  # dart 2 keeps 3 as its twin and its successor
        if link == "twin":
            ws.link(2, 1)
        elif link == "next":
            f = ws.new_dart()
            ws.twin[2], ws.twin[f] = f, 2
            ws.link(f, 1)
        with pytest.raises(PlaneMapError):
            finish(ws)

    def test_kept_dart_names_deleted_dart_below_survivor_count(self):
        # dart 0 keeps the deleted dart 2 as its successor while the
        # fresh dart 4 takes the place of 2 (1 -> 4 -> 3 -> 1).  The four
        # survivors are numbered 0..3 and 2 is one of those numbers, so
        # next stays in range and a check of max(next) alone passes
        ws = workspace_with_arrows(path_map())
        f = ws.new_dart()
        ws.delete(2)
        ws.twin[3], ws.twin[f] = f, 3
        ws.link(1, f)
        ws.link(f, 3)
        assert ws.next[0] == 2 and ws.twin[2] is None
        with pytest.raises(PlaneMapError):
            full_renumbering_finish(ws)
        with pytest.raises(PlaneMapError):
            finish(ws)
        # the arrow on the closed cycle 1 -> 4 -> 3 leaves dart 0 unlabelled
        ws.markers = {1: [arrow(1)]}
        with pytest.raises(PlaneMapError):
            finish(ws)

    @pytest.mark.parametrize("link", ["prev", "twin"])
    def test_survivor_not_named_back(self, link):
        # a fresh dart that claims a kept dart as its predecessor or twin
        # while that dart names another one; taking the claim on trust
        # would patch the kept dart and hide the fault
        ws = workspace_with_arrows(path_map())
        if link == "prev":
            # 0 -> 4 -> 5 -> 2 meant, but 0 still runs to 2, as 5 does
            f, g = ws.new_darts(2)
            ws.twin[f], ws.twin[g] = g, f
            ws.link(f, g)
            ws.link(g, 2)
            ws.prev[f] = 0
        else:
            # 4 takes the place of the deleted 3, but 2 still has 3 as twin
            f = ws.new_dart()
            ws.delete(3)
            ws.twin[f] = 2
            ws.link(2, f)
            ws.link(f, 1)
        with pytest.raises(PlaneMapError):
            full_renumbering_finish(ws)
        with pytest.raises(PlaneMapError):
            finish(ws)


def full_renumbering_finish(ws):
    """Reference for finish: renumber every surviving dart in index order."""
    old = [d for d, t in enumerate(ws.twin) if t is not None]
    rename = [None] * len(ws.twin)
    for k, d in enumerate(old):
        rename[d] = k
    twin = [rename[ws.twin[d]] for d in old]
    next_ = [rename[ws.next[d]] for d in old]
    if None in next_:
        raise NotPermutation("a surviving dart is followed by a deleted one")
    face = [0] * len(old)
    marked_at = {}
    for d, toks in ws.markers.items():
        for tok in toks:
            if is_arrow(tok):
                e = marked_at[tok[1]] = rename[d]
                while not face[e]:
                    face[e] = tok[1]
                    e = next_[e]
    marked = [marked_at[i] for i in range(1, len(marked_at) + 1)]
    corners = {rename[d]: list(toks) for d, toks in ws.markers.items() if toks}
    return PlaneMap(twin, next_, face, marked), rename, corners


BIJECTIONS = (
    "grow_same",
    "shrink_same",
    "grow_two",
    "shrink_two",
    "transfer_left",
    "transfer_right",
    "transfer1_left",
    "transfer1_right",
)


def test_finish_equals_full_renumbering(monkeypatch):
    # every workspace the eight bijections finish over the families of
    # verify-roundtrip --max-edges 3, both directions
    real = surgery.finish
    n_finish = 0

    def checked(ws):
        nonlocal n_finish
        want = full_renumbering_finish(ws)
        got = real(ws)
        assert got == want
        n_finish += 1
        return got

    calls = dict.fromkeys(BIJECTIONS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bijections, "finish", checked)
    for name in BIJECTIONS:
        # the identity table looks the bijections up in their module
        monkeypatch.setattr(bijections, name, counted(name, getattr(bijections, name)))
    out = io.StringIO()
    assert cli.run(["verify-roundtrip", "--max-edges", "3"], out) == 0
    assert "round trips: 32 family sweeps" in out.getvalue()
    assert all(calls.values()), calls
    assert n_finish == sum(calls.values())


class TestSewOnto:
    def test_replaces_edge(self):
        # slit the face-1 edge of the double edge, then sew the channel
        # onto dart 1; that edge is consumed and the surviving left
        # copy takes its place, so the edge count holds
        ws = Workspace(double_edge())
        s = slit(ws, [0], (0, 0), (2, 0))
        sew_onto(ws, s, 1)
        assert live(ws.twin) == {0: 4, 4: 0, 2: 3, 3: 2}
        assert live(ws.next) == {0: 4, 4: 0, 2: 3, 3: 2}
        assert contour_from(ws, 0) == [0, 4]
        assert contour_from(ws, 2) == [2, 3]


def assert_prev_in_step(ws, after):
    nxt = live(ws.next)
    assert live(ws.prev).keys() == nxt.keys(), f"prev and next differ in darts after {after}"
    for d, e in nxt.items():
        assert ws.prev[e] == d, f"prev[next[{d}]] != {d} after {after}"


def _sweep_bijections():
    """Both directions of every bijection on small exhaustive families."""
    same, two = Identity.TWO_CORNERS_SAME_FACE, Identity.CORNER_EACH_TWO_FACES
    for a in ((4,), (2, 2)):
        for m in enumerate_maps(a):
            for e, c, c2 in enumerate_decorations(m, same, "lhs"):
                m2, v, h, h2, _, _ = bijections.grow_same(m, e, c, c2)
                bijections.shrink_same(m2, v, h, h2)
    for m in enumerate_maps((2, 2)):
        for e, c, c2 in enumerate_decorations(m, two, "lhs"):
            m2, v, h, h2, _, _ = bijections.grow_two(m, e, c, c2)
            bijections.shrink_two(m2, v, h, h2)
        for c, h2 in enumerate_decorations(m, Identity.FACE_TO_FACE, "lhs"):
            m2, s2, d2, _ = bijections.transfer_left(m, 1, 2, c, h2)
            bijections.transfer_right(m2, 2, 1, s2, d2)
    for m in enumerate_maps((3, 1)) + enumerate_maps((1, 1)):
        for (c,) in enumerate_decorations(m, Identity.UNIT_FACE, "lhs"):
            m2, v, h, _ = bijections.transfer1_right(m, 1, 2, c)
            bijections.transfer1_left(m2, 1, 2, v, h)


PRIMITIVES = (
    "slit",
    "slit_pinched",
    "glue",
    "weld",
    "sew_forward",
    "sew_backward",
    "sew_onto",
    "suppress_pendant",
    "finish",
)


def test_prev_in_step_after_every_primitive(monkeypatch):
    # wrap each primitive wherever the bijections and the sewing reach
    # it, and check the workspace it leaves behind; finish sees the
    # state after the in-place rewiring of transfer1_right as well
    calls = dict.fromkeys(PRIMITIVES, 0)

    def checked(name, fn):
        def wrapper(ws, *args, **kwargs):
            out = fn(ws, *args, **kwargs)
            calls[name] += 1
            assert_prev_in_step(ws, name)
            return out

        return wrapper

    for name in PRIMITIVES:
        wrapper = checked(name, getattr(surgery, name))
        for module in (surgery, bijections):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    _sweep_bijections()
    assert all(calls.values()), calls


class TestSlitRecord:
    FIELDS = {"walk": (0, 2), "nl": (4, 5), "nr": (6, 7), "entry_dart": 0, "exit_dart": 3}

    def test_fields(self):
        assert Slit._fields == ("walk", "nl", "nr", "entry_dart", "exit_dart")

    def test_positional_and_keyword(self):
        s = Slit(*self.FIELDS.values())
        assert s == Slit(**self.FIELDS)
        assert s._asdict() == self.FIELDS
        assert s.length == 2
        assert s._replace(walk=(0,)).length == 1

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_one_field_differs(self, name):
        # test_slits_equal_reference compares whole records
        s = Slit(**self.FIELDS)
        assert s != s._replace(**{name: None})


class TestCutSelfCheck:
    """surgery._bad_copy, the check the cut asserts on the vertex copies it wrote."""

    @staticmethod
    def copies_of(ws, s):
        """The rotations at the walk, its mouths and the 2 * length darts
        the cut made: each vertex copy holds one of them."""
        copies = []
        fresh = range(len(ws.twin) - 2 * s.length, len(ws.twin))
        for d in (*s.walk, s.entry_dart, s.exit_dart, *fresh):
            if d is not None and all(d not in c for c in copies):
                copies.append(ws.rotation_from(d))
        return copies

    def cut(self, monkeypatch, name):
        """Workspace and vertex copies of the first slit or pinched slit
        of sample((4, 4), seed), seeds 0, 1, ..., with a copy of two rays."""
        real, real_check = getattr(surgery, name), surgery._bad_copy
        checked, got = [], []

        def recording_check(ws, cycles):
            checked.append([list(c) for c in cycles])
            return real_check(ws, cycles)

        def grab(ws, *args):
            s = real(ws, *args)
            copies = self.copies_of(ws, s)
            if not got and max(map(len, copies)) > 1:
                got.append((copy.deepcopy(ws), copies, checked[-1] if checked else None))
            return s

        monkeypatch.setattr(surgery, "_bad_copy", recording_check)
        monkeypatch.setattr(bijections, name, grab)
        seed = 0
        while not got:
            sample((4, 4), seed)
            seed += 1
        ws, copies, recorded = got[0]
        if recorded is not None:  # python -O makes no check call to record
            assert sorted(map(sorted, recorded)) == sorted(map(sorted, copies))
        return ws, copies

    @pytest.mark.parametrize("name", ["slit", "slit_pinched"])
    def test_accepts_real_cut_and_refuses_damage(self, monkeypatch, name):
        ws, copies = self.cut(monkeypatch, name)
        assert surgery._bad_copy(ws, copies) is None
        j = next(j for j, c in enumerate(copies) if len(c) > 1)
        cyc = copies[j]

        # a clobbered sigma entry: the first ray turns to itself
        bad = copy.deepcopy(ws)
        bad.next[bad.twin[cyc[0]]] = cyc[0]
        assert surgery._bad_copy(bad, copies) == j
        # the last ray turns to itself, so a walk from the first never closes
        bad = copy.deepcopy(ws)
        bad.next[bad.twin[cyc[-1]]] = cyc[-1]
        assert surgery._bad_copy(bad, copies) == j

        # a copy that lists its rays twice: every sigma pair still holds
        for k, c in enumerate(copies):
            twice = copies[:k] + [c + c] + copies[k + 1:]
            assert surgery._bad_copy(ws, twice) == k


def test_slits_equal_reference(monkeypatch):
    # each slit and pinched slit the bijections make runs once more, on
    # a copy of its workspace, through the slits as they were before
    # they cut the banks from the walk rotations; both must leave the
    # same workspace and return the same Slit
    seen = {"slit": 0, "left": 0, "right": 0}
    shapes = {"blind": 0, "length one": 0}

    def checked(name, new, old):
        def wrapper(ws, *args):
            ref = copy.deepcopy(ws)
            try:
                want = old(ref, *args)
            except PlaneMapError as exc:
                with pytest.raises(type(exc)):
                    new(ws, *args)
                raise
            got = new(ws, *args)
            assert got == want
            assert (ws.twin, ws.next, ws.prev, ws.markers, ws.intact) == (
                ref.twin,
                ref.next,
                ref.prev,
                ref.markers,
                ref.intact,
            )
            # slit_pinched takes its side last
            seen[args[-1] if name == "slit_pinched" else "slit"] += 1
            shapes["blind"] += got.exit_dart is None
            shapes["length one"] += got.length == 1
            return got

        return wrapper

    for name in ("slit", "slit_pinched"):
        wrapper = checked(name, getattr(surgery, name), getattr(slit_reference, name))
        monkeypatch.setattr(surgery, name, wrapper)
        monkeypatch.setattr(bijections, name, wrapper)
    # every bijection over the families of verify-roundtrip --max-edges 3
    assert cli.run(["verify-roundtrip", "--max-edges", "3"], io.StringIO()) == 0
    small = dict(seen)
    assert all(small.values()), small
    assert all(shapes.values()), shapes
    # growth up to E=50, then round trips on the sampled maps: grow and
    # shrink within face 1 on the all-even types, shrink from faces 1
    # and 2 and grow back on the odd two-face type
    rng = random.Random(7)
    for a in ((100,), (4,) * 25, (51, 49)):
        for seed in range(2):
            m = sample(a, seed)
            for _ in range(10):
                if a == (51, 49):
                    v = rng.randrange(m.n_vertices)
                    dist = distances(m, v)
                    h, h2 = (rng.choice(directed_darts(m, i, v, "toward", dist)) for i in (1, 2))
                    row = bijections.IDENTITIES[Identity.CORNER_EACH_TWO_FACES]
                    got = row.forward(*row.inverse(m, (v, h, h2))[:2])
                    assert row.rhs_key(*got[:2]) == row.rhs_key(m, (v, h, h2))
                    continue
                e = rng.randrange(m.n_edges)
                c = rng.randrange(m.degree(1) + 1)
                c2 = rng.randrange(m.degree(1) + 2)
                m2, v, h, h2, _, _ = bijections.grow_same(m, e, c, c2)
                assert bijections.shrink_same(m2, v, h, h2)[1:4] == (e, c, c2)
    assert all(seen[k] > small[k] for k in seen), (small, seen)
