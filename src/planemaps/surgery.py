"""Cut-and-sew surgery on plane maps.

Operations run on a Workspace, a mutable copy of the twin and next
permutations that is allowed to pass through states that are not valid
plane maps (disconnected pieces, wrong Euler characteristic) between a
slit and the sewing that closes it.  The workspace also keeps prev, the
inverse of next; every write to next goes with its write to prev,
through Workspace.link or, in the cut and in glue, on the lists
themselves.  All three are lists indexed by dart: fresh darts are
appended and a deleted dart reads None, so a stale read fails loudly.

Corners can carry ordered lists of marker tokens.  A marker anchored
to dart d sits in the corner before d; the list is ordered across the
corner from the side of the contour predecessor to the side of d.
Every operation moves markers along with the surgery, so a caller can
tag a corner, operate, and read off where the corner went.

Slitting a self-avoiding walk p_1 .. p_l doubles it into a left bank,
which keeps the original dart ids, and a right bank of fresh darts:
nl_k is the new twin of p_k and faces the channel backward, nr_k is
the new twin of the old twin of p_k and faces the channel forward.
Each walk vertex splits in two.  The Slit records the walk, the fresh
twins and the two mouth darts, which is all the sews read: they glue
the banks back with a shift of one step, forward or backward, which is
what makes the composite change face degrees, and a length-one walk,
with nothing to glue, is closed by welding two vertex copies at their
mouth darts.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    BadArgument,
    BadDecoration,
    CornerMismatch,
    InvalidWalk,
    NotDangling,
    NotDigon,
    NotPermutation,
)
from .maps import PlaneMap, _decoration


class Workspace:
    """Mutable dart structure with marker transport."""

    def __init__(self, m: PlaneMap) -> None:
        self.twin: list[int | None] = list(m.twin)
        self.next: list[int | None] = list(m.next)
        self.prev: list[int | None] = list(m._prev)
        self.markers: dict[int, list] = {}
        # every dart below intact is a dart of m that is still alive
        self.intact = len(m.twin)

    def new_dart(self) -> int:
        return self.new_darts(1)[0]

    def new_darts(self, k: int) -> list[int]:
        """Append k fresh darts, all links unset; returns their ids."""
        d = len(self.twin)
        fresh = [None] * k
        self.twin += fresh
        self.next += fresh
        self.prev += fresh
        return list(range(d, d + k))

    def alive(self, d: int) -> bool:
        """Whether d is a dart of the workspace that has a twin."""
        return 0 <= d < len(self.twin) and self.twin[d] is not None

    def sigma(self, d: int) -> int:
        return self.next[self.twin[d]]

    def link(self, a: int, b: int) -> None:
        """Make b follow a in its contour."""
        self.next[a] = b
        self.prev[b] = a

    def prev_of(self, d: int) -> int:
        return self.prev[d]

    def rotation_from(self, d: int) -> list[int]:
        nxt, twin = self.next, self.twin
        out = [d]
        e = nxt[twin[d]]
        while e != d:
            out.append(e)
            e = nxt[twin[e]]
        return out

    def marks_of(self, d: int) -> list:
        return self.markers.setdefault(d, [])

    def delete(self, d: int) -> None:
        # raised, not asserted, so python -O keeps both refusals
        if self.twin[d] is None:
            raise AssertionError(f"dart {d} is already deleted")
        if self.markers.get(d):
            raise AssertionError(f"dart {d} dies carrying markers")
        self.twin[d] = self.next[d] = self.prev[d] = None
        self.markers.pop(d, None)
        if d < self.intact:
            self.intact = d

    def add_marker(self, d: int, token, rank: int | None = None) -> None:
        lst = self.marks_of(d)
        lst.insert(len(lst) if rank is None else rank, token)


class Slit(namedtuple("Slit", "walk nl nr entry_dart exit_dart")):
    """Bookkeeping of one slit walk.

    walk[k] is the left-bank copy of the k-th walk dart (original id),
    nl[k] and nr[k] its fresh twins on the left and right bank.
    entry_dart and exit_dart are the darts whose corners the cut opens,
    exit_dart None for a blind slit that leaves the far vertex whole.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.walk)


def _between(rot: list[int], after: int, stop: int, whole: bool = False) -> list[int]:
    """Rays strictly between after and stop, clockwise around their vertex.

    rot is the rotation of that vertex from any start.  When after is
    stop the result is empty, or with whole every other ray.
    """
    i = rot.index(after)
    j = rot.index(stop)
    if i < j:
        return rot[i + 1 : j]
    if i == j and not whole:
        return []
    return rot[i + 1 :] + rot[:j]


def _split(rot: list[int], arrive: int, new_l: int, new_r: int) -> list[list[int]]:
    """Left and right copy of a walk vertex, as ray cycles from the mouth.

    rot is the rotation of the vertex from the departing walk dart and
    arrive is the twin of the arriving one: the rays after arrive go
    left behind new_l, those before it right behind new_r.
    """
    q = rot.index(arrive)
    return [[new_l, *rot[q + 1 :], rot[0]], [new_r, *rot[1:q], arrive]]


def _mouth(rot: list[int], corner: int, dart: int, new: int) -> list[list[int]]:
    """Both copies of a walk end cut through the corner before corner.

    dart is the walk dart at that end, leaving or arriving reversed.
    The first copy runs clockwise from corner to dart, the second is
    new followed by the rays after dart up to corner.
    """
    near = [dart] if corner == dart else [corner, *_between(rot, corner, dart), dart]
    return [near, [new, *_between(rot, dart, corner, True)]]


def _walk_rotations(ws: Workspace, p) -> list[list[int]]:
    """Rotation at the origin of each walk dart; checks the walk chains."""
    twin, nxt = ws.twin, ws.next
    n = len(twin)
    rotations = []
    for k, dart in enumerate(p):
        if not (0 <= dart < n and twin[dart] is not None):
            raise InvalidWalk(f"unknown dart {dart}")
        rot = [dart]
        e = nxt[twin[dart]]
        while e != dart:
            rot.append(e)
            e = nxt[twin[e]]
        if k and twin[p[k - 1]] not in rot:
            raise InvalidWalk("walk darts do not chain head to tail")
        rotations.append(rot)
    return rotations


def slit(
    ws: Workspace,
    walk,
    entry: tuple[int, int],
    exit: tuple[int, int] | None,
) -> Slit:
    """Cut along a self-avoiding walk of darts.

    entry is (dart, split): the cut starts inside the corner before
    that dart, with the first split markers of the corner going to the
    right bank.  exit is the same at the far end, or None for a blind
    slit that leaves the far vertex whole.  Walk vertices must be
    pairwise distinct and the corners must sit on the walk ends.
    """
    p = list(walk)
    if not p:
        raise InvalidWalk("empty walk")
    return _cut(ws, p, [], [], entry, exit, None)


def slit_pinched(
    ws: Workspace,
    spine_a,
    chain,
    spine_b,
    entry: tuple[int, int],
    exit: tuple[int, int],
    side: str,
) -> Slit:
    """Cut along a walk that doubles back through a dangling chain.

    The walk runs spine_a, descends the chain, climbs the same edges
    back and leaves along spine_b; when a spine is empty its mouth
    corner sits at the attachment vertex where the chain hangs.  Each
    chain edge splits in three: two outer copies keeping the original
    darts and a fresh middle pair, which lands on the left or right
    bank according to side.  The chain's far end stays a dangling tip
    carried by the outer copy, with the bare middle tip next to it.
    With both spines empty, entry and exit may even name the same
    corner; the two splits then cut one token list in three, and
    their order must agree with side.
    """
    sa, ch, sb = list(spine_a), list(chain), list(spine_b)
    if side not in ("left", "right"):
        raise BadArgument(f"side must be 'left' or 'right', not {side!r}")
    if not ch:
        raise InvalidWalk("a pinched slit needs a nonempty chain")
    return _cut(ws, sa, ch, sb, entry, exit, side)


def _cut(ws: Workspace, sa, ch, sb, entry, exit, side) -> Slit:
    """The cut behind slit (ch empty, side None) and slit_pinched.

    The walk is sa, ch, the twins of ch in reverse, then sb.  Without
    a chain sb is empty and the far end of sa is the exit mouth, or
    the whole far vertex of a blind slit when exit is None.  Every
    vertex copy is cut from the rotations the walk check takes and
    written back as a vertex cycle on the lists themselves.
    """
    d_c, entry_split = entry
    d_ex, exit_split = exit if exit is not None else (None, 0)
    a, n_ch, b = len(sa), len(ch), len(sb)
    twin, nxt, prv = ws.twin, ws.next, ws.prev
    p = tuple(sa + ch + [twin[x] for x in reversed(ch)] + sb)
    length = len(p)
    # the walk chains, so the head of each dart is the origin of the
    # next one: only the final head needs a rotation of its own
    rots = _walk_rotations(ws, p)
    rots.append(ws.rotation_from(twin[p[-1]]))
    # a rotation names its vertex by its least dart
    keys = [*map(min, rots)]
    # the vertices down to the chain tip, then those of spine_b
    visited = keys[: a + n_ch + 1] + keys[a + 2 * n_ch + 1 :]
    if len(set(visited)) != len(visited):
        raise InvalidWalk("walk revisits a vertex")
    if d_c not in rots[0]:
        raise CornerMismatch("entry corner is not at the walk start")
    if exit is not None and d_ex not in rots[-1]:
        raise CornerMismatch("exit corner is not at the walk end")
    same_corner = a == 0 and b == 0 and d_c == d_ex
    if same_corner and (
        exit_split > entry_split if side == "left" else entry_split > exit_split
    ):
        raise CornerMismatch("corner split order contradicts the pinch side")

    told = tuple([twin[d] for d in p])
    # fresh ids in the order x, y, mdn, mup (chain only), then the left
    # and the right copies of the spine darts, 2 per walk dart
    fresh = [*range(len(twin), len(twin) + 2 * length)]
    for links in (twin, nxt, prv):
        links += [None] * (2 * length)
    k = length + 2 * n_ch
    nl, nr = fresh[4 * n_ch : k], fresh[k:]
    if ch:
        x_new, y_new, mdn, mup = (fresh[q * n_ch : (q + 1) * n_ch] for q in range(4))
        # the new twins of the chain darts, down the chain and back up
        if side == "left":
            nl[a:a], nr[a:a] = x_new + y_new[::-1], mdn + mup[::-1]
        else:
            nl[a:a], nr[a:a] = mup + mdn[::-1], y_new + x_new[::-1]

    # cut every vertex copy from the rotations taken above
    cycles: list[list[int]] = []
    if a:
        cycles += _mouth(rots[0], d_c, p[0], nr[0])
    for s in range(a - 1):
        cycles += _split(rots[s + 1], told[s], nl[s], nr[s + 1])
    if ch:
        for t in range(n_ch - 1):
            cycles += _split(rots[a + t + 1], told[a + t], x_new[t], y_new[t + 1])
            cycles.append([mup[t], mdn[t + 1]])
        e_last = told[a + n_ch - 1]
        cycles.append([x_new[-1], *rots[a + n_ch][1:], e_last])
        cycles.append([mup[-1]])

        # the attachment vertex, where the chain hangs
        rot = rots[a]
        d1 = ch[0]
        dep = sb[0] if b else None
        base_in = told[a - 1] if a else d_c
        lead = nl[a - 1] if a else d_c
        out_anchor = dep if b else d_ex
        nr_b = nr[a + 2 * n_ch] if b else None
        if same_corner:
            cycles += _mouth(rot, d_c, d1, y_new[0])
            cycles.append([mdn[0]])
        elif side == "left":
            cycles.append([d1] if lead == d1 else [lead, *_between(rot, base_in, d1), d1])
            cycles.append(
                [y_new[0]] + _between(rot, d1, out_anchor) + ([dep] if b else [])
            )
            fused = [mdn[0], nr_b if b else d_ex]
            fused += _between(rot, out_anchor, base_in)
            if a and not (b == 0 and d_ex == base_in):
                fused.append(base_in)
            cycles.append(fused)
        elif b == 0 and a and d_ex == base_in:
            # exit corner right where the walk first arrives: the arrival
            # ray sits alone between the two cuts, next to the middle
            cycles.append([nl[a - 1]] + _between(rot, base_in, d1) + [d1])
            cycles.append([y_new[0]] + _between(rot, d1, base_in))
            cycles.append([mdn[0], d_ex])
        else:
            fused = [lead] + _between(rot, base_in, out_anchor)
            if b and dep != lead:
                fused.append(dep)
            fused.append(mdn[0])
            cycles.append(fused)
            head = [nr_b] if b else ([d_ex] if d_ex != d1 else [])
            cycles.append(head + _between(rot, out_anchor, d1) + [d1])
            cap = [y_new[0]] + _between(rot, d1, base_in)
            if a:
                cap.append(base_in)
            cycles.append(cap)
    for s in range(a + 2 * n_ch, length - 1):
        cycles += _split(rots[s + 1], told[s], nl[s], nr[s + 1])
    if exit is None:  # blind: the far vertex, from told[-1], stays whole
        cycles.append([nl[-1], *rots[-1][1:], told[-1]])
    elif b or not ch:
        near, far = _mouth(rots[-1], d_ex, told[-1], nl[-1])
        cycles += [far, near]

    # triple the chain, double the spines
    for t in range(n_ch):
        dt, et = ch[t], told[a + t]
        twin[dt], twin[x_new[t]] = x_new[t], dt
        twin[et], twin[y_new[t]] = y_new[t], et
        twin[mdn[t]], twin[mup[t]] = mup[t], mdn[t]
    for s in (*range(a), *range(a + 2 * n_ch, length)):
        twin[p[s]], twin[nl[s]] = nl[s], p[s]
        twin[told[s]], twin[nr[s]] = nr[s], told[s]
    # each copy becomes the clockwise rotation at its vertex: sigma of
    # every ray is the ray after it, cyclically
    for cyc in cycles:
        ray = cyc[-1]
        for after in cyc:
            t = twin[ray]
            nxt[t] = after
            prv[after] = t
            ray = after

    if same_corner:
        marks = ws.markers.get(d_c, [])
        if side == "left":
            far, near = marks[:exit_split], marks[exit_split:entry_split]
            stay = marks[entry_split:]
        else:
            near, far = marks[:entry_split], marks[entry_split:exit_split]
            stay = marks[exit_split:]
        if far:
            ws.markers[nl[-1]] = far
        if near:
            ws.markers[nr[0]] = near
        ws.markers[d_c] = stay
    else:
        entry_marks = ws.markers.get(d_c, [])
        if entry_split:
            ws.markers[nr[0]] = entry_marks[:entry_split]
            ws.markers[d_c] = entry_marks[entry_split:]
        if exit_split:
            exit_marks = ws.markers.get(d_ex, [])
            ws.markers[nl[-1]] = exit_marks[:exit_split]
            ws.markers[d_ex] = exit_marks[exit_split:]

    # an assert: python -O skips the check
    assert (j := _bad_copy(ws, cycles)) is None, f"copy {j} of the slit is not a vertex cycle"
    return Slit(p, tuple(nl), tuple(nr), d_c, d_ex)


def _bad_copy(ws: Workspace, cycles: list[list[int]]) -> int | None:
    """Index of the first cycle that is not the whole rotation at its vertex.

    A cycle is one when sigma takes each ray to the one after it,
    cyclically, and no ray repeats; with every pair right, a repeated
    ray would repeat the last one too.
    """
    twin, nxt = ws.twin, ws.next
    for j, cyc in enumerate(cycles):
        ray = cyc[-1]
        for after in cyc:
            if nxt[twin[ray]] != after:
                return j
            ray = after
        if cyc.count(ray) != 1:
            return j
    return None


def glue(ws: Workspace, a: int, b: int) -> None:
    """Identify two edges across the gap faced by darts a and b.

    Darts a and b die; their twins pair up.  Merges the corner before
    a into the corner before next(b) and symmetrically.
    """
    twin, nxt, prv, markers = ws.twin, ws.next, ws.prev, ws.markers
    na, nb = nxt[a], nxt[b]
    assert na != a and nb != b, "cannot glue onto a degree-one contour"
    pa, pb = prv[a], prv[b]
    ta, tb = twin[a], twin[b]
    # a marker list is touched only when a dying dart carries one;
    # delete drops the empty ones
    if nb != a:
        if markers.get(a):
            markers[nb] = markers.pop(a) + markers.get(nb, [])
        nxt[pa] = nb
        prv[nb] = pa
    else:
        assert not markers.get(a), "markers stranded on a glued hairpin"
    if na != b:
        if markers.get(b):
            markers[na] = markers.pop(b) + markers.get(na, [])
        nxt[pb] = na
        prv[na] = pb
    else:
        assert not markers.get(b), "markers stranded on a glued hairpin"
    twin[ta] = tb
    twin[tb] = ta
    ws.delete(a)
    ws.delete(b)


def weld(ws: Workspace, a: int, b: int) -> None:
    """Merge the vertices of darts a and b at the corners before them.

    Swaps the contour predecessors of a and b: the rotation from a runs
    through the rays of a's vertex and then, from b, through b's.
    """
    pa, pb = ws.prev[a], ws.prev[b]
    ws.link(pa, b)
    ws.link(pb, a)


def sew_forward(ws: Workspace, s: Slit) -> None:
    """Reglue with the left bank shifted one step forward.

    Identifies left copy t with right copy t+1; nr[0] and nl[-1]
    survive.  A length-one walk has nothing to glue and merges the
    near-left vertex with the far-right vertex directly.
    """
    if s.exit_dart is None:
        raise InvalidWalk("forward sew needs a two-ended slit")
    if s.length == 1:
        weld(ws, s.entry_dart, s.exit_dart)
        return
    for t in range(s.length - 1):
        glue(ws, s.nl[t], s.nr[t + 1])


def sew_backward(ws: Workspace, s: Slit) -> None:
    """Reglue with the left bank shifted one step backward.

    Identifies left copy k with right copy k-1; nl[0] and nr[-1]
    survive.  Works for blind slits, where the far vertex was never
    split; a length-one walk again reduces to a single weld.  The
    tokens of the exit-left piece always end in the corner before
    nr[-1]: the glue cascade delivers them there, and the length-one
    case moves them explicitly because nl[0] doubles as the far left
    copy.
    """
    if s.length == 1:
        weld(ws, s.nl[0], s.nr[0])
        if s.exit_dart is not None and ws.markers.get(s.nl[0]):
            ws.markers[s.nr[0]] = (
                ws.markers.pop(s.nl[0]) + ws.markers.get(s.nr[0], [])
            )
        return
    for k in range(1, s.length):
        glue(ws, s.nl[k], s.nr[k - 1])


def sew_onto(ws: Workspace, s: Slit, r0: int) -> None:
    """Forward-shifted sew with dart r0 playing the zeroth right copy.

    Glues the edge of r0 against right copy 0, then left copy t
    against right copy t+1; among the fresh darts only nl[-1]
    survives, taking over the contour position before the exit dart.
    """
    if s.exit_dart is None:
        raise InvalidWalk("sewing onto an edge needs a two-ended slit")
    glue(ws, r0, s.nr[0])
    for t in range(s.length - 1):
        glue(ws, s.nl[t], s.nr[t + 1])


def suppress_pendant(ws: Workspace, beta: int, out_marker=None) -> int:
    """Erase the pendant edge whose leaf emits beta.

    Markers wrapped around the leaf land at the position the edge
    occupied, followed by out_marker when given.  Returns the dart
    whose preceding corner receives them.
    """
    if not ws.alive(beta) or ws.sigma(beta) != beta:
        raise NotDangling(f"dart {beta} does not leave a leaf")
    alpha = ws.twin[beta]
    assert ws.next[alpha] == beta
    target = ws.next[beta]
    if target == alpha:
        raise NotDangling("the pendant edge is the whole component")
    tokens = ws.markers.pop(alpha, []) + ws.markers.pop(beta, [])
    if out_marker is not None:
        tokens.append(out_marker)
    ws.markers[target] = tokens + ws.markers.get(target, [])
    ws.link(ws.prev_of(alpha), target)
    ws.delete(alpha)
    ws.delete(beta)
    return target


ARROW_KIND = "arrow"


def arrow(i: int) -> tuple:
    """Marker token for the marked corner of face i."""
    return (ARROW_KIND, i)


def is_arrow(token) -> bool:
    return isinstance(token, tuple) and bool(token) and token[0] == ARROW_KIND


def workspace_with_arrows(m: PlaneMap) -> Workspace:
    """Workspace of m with arrow(i) in the corner before marked[i-1]."""
    ws = Workspace(m)
    # one dict build: the marks are distinct and every list is fresh
    ws.markers = {d: [(ARROW_KIND, i)] for i, d in enumerate(m.marked, start=1)}
    return ws


def finish(ws: Workspace) -> tuple[PlaneMap, list[int | None], dict[int, list]]:
    """Rebuild a plane map from the workspace.

    Surviving darts keep their order and are numbered from 0, so the
    darts below the first deleted one keep their ids and only the tail
    is renumbered.  Face i is the contour that carries arrow(i); every
    contour must carry exactly one.  Returns the map, the dart renaming
    as a list (rename[d] is the new id of d, None for a deleted dart),
    and the surviving corner token lists (arrows included, in corner
    order) keyed by new dart id.
    """
    ws_twin, ws_next, ws_prev = ws.twin, ws.next, ws.prev
    k = ws.intact
    rename: list[int | None] = list(range(k))
    rename += [None] * (len(ws_twin) - k)
    twin = ws_twin[:k]
    next_ = ws_next[:k]
    tail = [d for d in range(k, len(ws_twin)) if ws_twin[d] is not None]
    for r, d in enumerate(tail, k):
        rename[d] = r
    # entries below k that name a tail survivor are found through its
    # twin and prev, which must name it back; an entry below k that
    # names a deleted dart is then left out of range or repeated, and
    # the constructor refuses it
    for d in tail:
        t, p, e = ws_twin[d], ws_prev[d], ws_next[d]
        if p is None or e is None or ws_next[p] != d or ws_twin[t] != d:
            raise NotPermutation(f"dart {d} is linked to a deleted one")
        twin.append(rename[t])
        next_.append(rename[e])
        if t < k:
            twin[t] = rename[d]
        if p < k:
            next_[p] = rename[d]

    # the arrows give the marks; the constructor labels contour i by
    # walking from mark i, and refuses a contour with two arrows or none
    marked_at: dict[int, int] = {}
    for d, toks in ws.markers.items():
        for tok in toks:
            if is_arrow(tok):
                i = tok[1]
                assert i >= 1 and i not in marked_at, f"face label {i} reused or below 1"
                marked_at[i] = rename[d]
    r = len(marked_at)
    assert sorted(marked_at) == list(range(1, r + 1)), (
        f"face labels are {sorted(marked_at)}"
    )
    marked = [marked_at[i] for i in range(1, r + 1)]
    m = PlaneMap(twin, next_, None, marked)
    corners = {
        rename[d]: list(toks) for d, toks in ws.markers.items() if toks
    }
    return m, rename, corners


def edge_to_digon(m: PlaneMap, edge_index: int, mark_side: int) -> PlaneMap:
    """Split an edge in two and insert a digon face between the copies.

    The new face gets the next free label; mark_side 0 marks its
    corner on the side of the lower dart of the edge, 1 the other.
    """
    edge_index, mark_side = _decoration(edge_index, mark_side)
    if mark_side not in (0, 1):
        raise BadDecoration("mark_side must be 0 or 1")
    d, t = m.edge(edge_index)  # raises BadDecoration outside 0..E-1
    n = m.n_darts
    nl, nt = n, n + 1
    twin = list(m.twin) + [0, 0]
    next_ = list(m.next) + [0, 0]
    twin[d], twin[nl] = nl, d
    twin[t], twin[nt] = nt, t
    next_[nl], next_[nt] = nt, nl
    marked = list(m.marked) + [nl if mark_side == 0 else nt]
    return PlaneMap(twin, next_, None, marked)


def digon_to_edge(m: PlaneMap, i: int) -> tuple[PlaneMap, int, int]:
    """Erase a digon face, merging its two edges into one.

    Returns the new map with faces above i shifted down, the canonical
    index of the merged edge, and the mark side that edge_to_digon
    would need to restore the digon.
    """
    (i,) = _decoration(i)
    if not 1 <= i <= m.n_faces or m.degree(i) != 2:
        raise NotDigon(f"face {i} is not a digon")
    a, b = m.contour(i)
    ta, tb = m.twin[a], m.twin[b]
    if ta == b:
        raise NotDigon("the digon is the whole map")
    old = [d for d in range(m.n_darts) if d not in (a, b)]
    rename = {d: k for k, d in enumerate(old)}
    # ta and tb pair up; nothing else had a or b as twin or next
    twin = [
        rename[{ta: tb, tb: ta}.get(d, m.twin[d])] for d in old
    ]
    next_ = [rename[m.next[d]] for d in old]
    marked = [
        rename[d] for j, d in enumerate(m.marked, start=1) if j != i
    ]
    m2 = PlaneMap(twin, next_, None, marked)
    lo = min(rename[ta], rename[tb])
    edge_index = m2.edge_index(lo)
    # contours start at the marked dart, so a is the marked corner's
    # dart and its twin ta must become the lower copy for side 0
    side = 0 if rename[ta] == lo else 1
    return m2, edge_index, side
