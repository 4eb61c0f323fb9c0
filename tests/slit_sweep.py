"""Every cut of the small maps, through the library's slits and the reference's.

sweep(max_edges) slits each plane map with at most max_edges edges
(one per twin and next, whatever its face labels) along every walk
it can: every self-avoiding walk as a plain or a blind slit, and for
pinched slits every self-avoiding spine into a vertex, chain out of
it and second spine out of it.  Their union may revisit a vertex; such
a walk is refused whatever its corners, so it is cut once.
The mouth corners range over every ray at both ends, each corner
holds one token, and each split is 0 or 1.  A pinched slit takes the
side that bijections._pinch_side gives, and both sides when the two
mouths share a corner or the exit is at the arrival ray.

Each cut runs once through planemaps.surgery and once, on a fresh
workspace, through slit_reference; both must leave the same
workspace and return the same Slit.  Where the reference refuses,
the library must raise the same error and leave its workspace as it
was.  A mismatch raises AssertionError, also under python -O.

    PYTHONPATH=src:tests python tests/slit_sweep.py 4
"""

import sys

import slit_reference
from planemaps import surgery
from planemaps.bijections import _pinch_side
from planemaps.counting import admissible_types
from planemaps.enumerator import enumerate_maps
from planemaps.errors import PlaneMapError


def _maps(max_edges: int):
    """Each map with at most max_edges edges, once per (twin, next)."""
    seen = set()
    for t in admissible_types(max_edges):
        for m in enumerate_maps(t, max_edges=max_edges):
            if (key := (m.twin, m.next)) not in seen:
                seen.add(key)
                yield m


def _walks(m, v: int, length: int, forward: bool = True, seen: frozenset = frozenset()):
    """Self-avoiding walks of the given length from (or, backward, into) v.

    The walks visit no vertex of seen and come as dart lists in walk
    order.
    """
    if length == 0:
        yield []
        return
    seen |= {v}
    for d in m.vertex_darts(v):
        u = m.head_of(d)
        if u in seen:
            continue
        for rest in _walks(m, u, length - 1, forward, seen):
            yield [d, *rest] if forward else [*rest, m.twin[d]]


def _workspace(m):
    ws = surgery.Workspace(m)
    ws.markers = {d: [("token", d)] for d in range(m.n_darts)}
    return ws


def _state(ws):
    return ws.twin, ws.next, ws.prev, ws.markers, ws.intact


def _check(m, name: str, args) -> bool:
    """One cut both ways; True when both refuse it."""
    ref = _workspace(m)
    try:
        want = getattr(slit_reference, name)(ref, *args)
    except PlaneMapError as exc:
        ws = _workspace(m)
        try:
            getattr(surgery, name)(ws, *args)
        except type(exc):
            if _state(ws) != _state(_workspace(m)):
                raise AssertionError(f"{name}{args} changed the workspace it refused")
            return True
        raise AssertionError(f"{name}{args}: the reference raises {exc!r}, the library does not")
    ws = _workspace(m)
    got = getattr(surgery, name)(ws, *args)
    if got != want or _state(ws) != _state(ref):
        raise AssertionError(f"{name}{args} on {m.twin}, {m.next} differs from the reference")
    return False


def sweep(max_edges: int) -> tuple[int, int]:
    """Check every cut of the maps with at most max_edges edges.

    Returns the number of cuts and the number of them both refused.
    """
    cuts = refusals = 0
    for m in _maps(max_edges):
        n_v = m.n_vertices
        for v in range(n_v):
            for length in range(1, n_v):
                for walk in _walks(m, v, length):
                    cuts += _plain(m, walk)
            for a in range(n_v):
                for sa in _walks(m, v, a, forward=False):
                    for n_ch in range(1, n_v):
                        for ch in _walks(m, v, n_ch):
                            for b in range(n_v):
                                for sb in _walks(m, v, b):
                                    n, refused = _pinched(m, sa, ch, sb)
                                    cuts += n
                                    refusals += refused
    return cuts, refusals


def _plain(m, walk) -> int:
    """The plain and blind cuts along one self-avoiding walk; their number."""
    cuts = 0
    for d_c in m.vertex_darts(m.vertex_of(walk[0])):
        for s in (0, 1):
            for exit in (None, *m.vertex_darts(m.head_of(walk[-1]))):
                for s2 in (0,) if exit is None else (0, 1):
                    corner = None if exit is None else (exit, s2)
                    if _check(m, "slit", (walk, (d_c, s), corner)):
                        raise AssertionError(f"slit{walk} refused a self-avoiding walk")
                    cuts += 1
    return cuts


def _pinched(m, sa, ch, sb) -> tuple[int, int]:
    """The pinched cuts along one walk: (cuts, refusals).

    A walk that revisits a vertex is refused whatever its corners, so
    its first cut is its only one.
    """
    v = m.vertex_of(ch[0])
    start = m.vertex_of(sa[0]) if sa else v
    end = m.head_of(sb[-1]) if sb else v
    cuts = 0
    for d_c in m.vertex_darts(start):
        for d_ex in m.vertex_darts(end):
            same_corner = not sa and not sb and d_c == d_ex
            at_arrival = sa and not sb and d_ex == m.twin[sa[-1]]
            if same_corner or at_arrival:
                sides = ("left", "right")
            else:
                sides = (_pinch_side(m, sa, ch, sb, d_c, d_ex),)
            for side in sides:
                for s in (0, 1):
                    for s2 in (0, 1):
                        # a same-corner cut whose splits contradict side
                        # is a refusal test_surgery pins; the reference
                        # refuses it with an assert
                        if same_corner and (s2 > s if side == "left" else s > s2):
                            continue
                        args = (sa, ch, sb, (d_c, s), (d_ex, s2), side)
                        if _check(m, "slit_pinched", args):
                            if cuts:
                                raise AssertionError(f"slit_pinched{args} refused a corner")
                            return 1, 1
                        cuts += 1
    return cuts, 0


if __name__ == "__main__":
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    n_cuts, n_refused = sweep(bound)
    print(f"every cut up to {bound} edges: {n_cuts} cuts, {n_refused} refused by both, all equal")
