"""Degree-transfer bijections between decorated plane maps.

A transfer moves one unit of degree from one face to another by
cutting the map along a geodesic between the two decorations and
sewing the banks back shifted by one step.  Each operation consumes a
decoration (corner slots, directed darts, vertices) and produces the
decoration of the inverse operation, so composing a left transfer with
the matching right transfer restores the decorated map exactly.

Corner slots refine corners: a face of degree a has slots 0..a, where
slot 0 and slot a denote the two sides of the marked corner and slot t
sits before the t-th contour dart.  Carried markers let callers track
extra corner positions through an operation; they travel as (dart,
rank) pairs giving the anchor dart and the position among that
corner's tokens.
"""

from __future__ import annotations

from collections import namedtuple

from .counting import Identity, _side_rule
from .errors import BadDecoration, BadFace
from .maps import PlaneMap, _decoration, _ints
from .metric import (
    _ball,
    _rightmost,
    classify_dart,
    distances,
    leftmost_geodesic,
    rightmost_geodesic,
)
from .surgery import (
    _check_mark_side,
    arrow,
    edge_to_digon,
    finish,
    is_arrow,
    sew_backward,
    sew_forward,
    sew_onto,
    slit,
    slit_pinched,
    suppress_pendant,
    workspace_with_arrows,
)

_OUT = ("out",)
_POINT = ("point",)
_CUT = ("cut",)
_CUT_A = ("cut", "entry")
_CUT_B = ("cut", "exit")
_SERVICE = (_OUT, _POINT, _CUT, _CUT_A, _CUT_B)


def _face_pair(faces) -> tuple[int, ...]:
    """faces as two ints; BadDecoration for any other length or entry."""
    pair = _ints(faces, BadDecoration, "faces are")
    if len(pair) != 2:
        raise BadDecoration(f"faces {faces!r} are not two face indices")
    return pair


def _check_dart(m: PlaneMap, dart: int, i: int) -> None:
    if m.face_of(dart) != i:  # face_of refuses a dart outside the map
        raise BadDecoration(f"dart {dart} is not on face {i}")


def _cut_split(tokens: list, face_i: int, slot: int, deg: int) -> int:
    """Token count preceding the cut in the anchor corner: a planted _CUT's, else the slot's."""
    if _CUT in tokens:
        return tokens.index(_CUT)
    if slot == 0:
        return tokens.index(arrow(face_i))
    if slot == deg:
        return tokens.index(arrow(face_i)) + 1
    return 0


def _check_carry(m: PlaneMap, carry) -> dict:
    """carry as {token: (dart, rank)} of ints, or BadDecoration.

    At each dart of m the ranks must be distinct and below the size the
    corner reaches, arrow included, so planting neither clamps nor
    shifts a token.  Arrows and service markers are refused as tokens.
    """
    if not isinstance(carry, dict):
        raise BadDecoration(f"carry {carry!r} is not a dict")
    out, ranks = {}, {}
    for tok, place in carry.items():
        if is_arrow(tok) or tok in _SERVICE:
            raise BadDecoration(f"carried token {tok!r} is reserved")
        pair = out[tok] = _ints(place, BadDecoration, "carried places are")
        if len(pair) != 2 or not 0 <= pair[0] < m.n_darts:
            raise BadDecoration(f"carried place {place!r} is not a (dart, rank) of the map")
        ranks.setdefault(pair[0], []).append(pair[1])
    for d, rs in ranks.items():
        if len(set(rs)) < len(rs) or not 0 <= min(rs) <= max(rs) < len(rs) + (d in m.marked):
            raise BadDecoration(f"carried ranks {sorted(rs)} do not fit dart {d}'s corner")
    return out


def _planted(m: PlaneMap, carry):
    """Workspace of m with its arrows and the checked carry planted."""
    ws = workspace_with_arrows(m)
    if carry is not None:
        for tok, (d, rank) in sorted(_check_carry(m, carry).items(), key=lambda kv: kv[1][1]):
            ws.add_marker(d, tok, rank)
    return ws


def _carry_out(ws, rename: list, carry) -> dict:
    """New (dart, rank) of every carried token after finish, service markers elided."""
    out = {}
    for tok in carry or ():
        for d, toks in ws.markers.items():
            if tok in toks:
                out[tok] = (rename[d], sum(t not in _SERVICE for t in toks[: toks.index(tok)]))
                break
        else:
            raise AssertionError(f"carried token {tok!r} was lost")
    return out


def _token_slot(m: PlaneMap, ws, rename: list, token) -> tuple[int, int]:
    """Face and refined corner slot of a marker in the map finish(ws) made."""
    for d, toks in ws.markers.items():
        if token in toks:
            i, s = m.corner_slot(rename[d])
            if s == 0 and toks.index(arrow(i)) < toks.index(token):
                return i, m.degree(i)
            return i, s
    raise KeyError(token)


def _shift_arrows(ws, removed: int | None = None, inserted: int | None = None) -> None:
    """Renumber face arrows after dropping or inserting a face label."""
    for toks in ws.markers.values():
        for j, tok in enumerate(toks):
            if is_arrow(tok):
                i = tok[1]
                if removed is not None and i > removed:
                    toks[j] = arrow(i - 1)
                elif inserted is not None and i >= inserted:
                    toks[j] = arrow(i + 1)


def _check_transfer(m: PlaneMap, gain, lose, slot, dart) -> tuple[int, ...]:
    """The checks transfer_left and transfer_right share; returns ints.

    The dart and the slot are left to the callers, which need opposite
    directions and read the slot through slot_anchor.
    """
    gain, lose, slot, dart = _decoration(gain, lose, slot, dart)
    _side_rule(Identity.FACE_TO_FACE, "lhs", m.degrees, gain, lose)
    return gain, lose, slot, dart


def transfer_left(
    m: PlaneMap, gain: int, lose: int, slot: int, dart: int, *, carry=None
):
    """Move one unit of degree from face lose to face gain.

    The decoration is a corner slot of the gaining face and a dart of
    the losing face pointing toward the slot vertex.  The map is cut
    along the leftmost geodesic from the corner before that dart to
    the slot vertex and sewn back shifted toward the entry, which
    shortens the losing face and lengthens the gaining one.

    Returns (map, slot, dart, carry): a corner slot of the losing face
    and a dart of the gaining face pointing away from its vertex, the
    decoration consumed by the inverse transfer_right.
    """
    gain, lose, slot, dart = _check_transfer(m, gain, lose, slot, dart)
    _check_dart(m, dart, lose)
    anchor = m.slot_anchor(gain, slot)
    cv = m.vertex_of(anchor)
    dist = distances(m, cv)
    if classify_dart(m, dart, cv, dist) != "toward":
        raise BadDecoration("the dart must point toward the slot vertex")

    ws = _planted(m, carry)
    walk = leftmost_geodesic(m, cv, from_corner=dart, dist=dist)
    assert walk and walk[0] == dart
    exit_split = _cut_split(ws.marks_of(anchor), gain, slot, m.degree(gain))
    s = slit(ws, walk, (dart, 0), (anchor, exit_split))
    sew_backward(ws, s)
    suppress_pendant(ws, s.walk[0], out_marker=_OUT)
    m2, rename = finish(ws)
    face2, slot2 = _token_slot(m2, ws, rename, _OUT)
    assert face2 == lose, "the freed corner drifted off the losing face"
    dart2 = rename[s.nr[-1]]
    assert m2.face_of(dart2) == gain
    return m2, slot2, dart2, _carry_out(ws, rename, carry)


def _transfer_right(m: PlaneMap, gain: int, lose: int, slot: int, dart: int, ws):
    """transfer_right on a planted workspace of m: (map, slot, dart, rename)."""
    _check_dart(m, dart, lose)
    anchor = m.slot_anchor(gain, slot)
    cv = m.vertex_of(anchor)
    dist = distances(m, cv)
    if classify_dart(m, dart, cv, dist) != "away":
        raise BadDecoration("the dart must point away from the slot vertex")

    entry = m.next[dart]
    walk = rightmost_geodesic(m, cv, from_corner=entry, dist=dist)
    assert walk and walk[0] == m.twin[dart]
    exit_split = _cut_split(ws.marks_of(anchor), gain, slot, m.degree(gain))
    s = slit(ws, walk, (entry, 0), (anchor, exit_split))
    sew_forward(ws, s)
    suppress_pendant(ws, s.nr[0], out_marker=_OUT)
    m2, rename = finish(ws)
    face2, slot2 = _token_slot(m2, ws, rename, _OUT)
    assert face2 == lose, "the freed corner drifted off the losing face"
    dart2 = rename[s.nl[-1]]
    assert m2.face_of(dart2) == gain
    return m2, slot2, dart2, rename


def transfer_right(
    m: PlaneMap, gain: int, lose: int, slot: int, dart: int, *, carry=None
):
    """Mirror transfer: cut along the rightmost geodesic instead.

    The decoration is a corner slot of the gaining face and a dart of
    the losing face pointing away from the slot vertex.  Returns (map,
    slot, dart, carry) with a slot of the losing face and a dart of
    the gaining face pointing toward its vertex.  With the face roles
    swapped, transfer_right undoes transfer_left and vice versa.
    """
    gain, lose, slot, dart = _check_transfer(m, gain, lose, slot, dart)
    ws = _planted(m, carry)
    m2, slot2, dart2, rename = _transfer_right(m, gain, lose, slot, dart, ws)
    return m2, slot2, dart2, _carry_out(ws, rename, carry)


def _transfer1_right(m: PlaneMap, gain: int, lose: int, slot: int, ws):
    """transfer1_right on a planted workspace of m: (map, vertex, dart, rename)."""
    lam = m.marked[lose - 1]
    told = m.twin[lam]
    anchor = m.slot_anchor(gain, slot)
    cv = m.vertex_of(anchor)

    toks = ws.marks_of(lam)
    toks.remove(arrow(lose))
    assert not toks, "the dying unit face carries stray markers"
    n_star = _cut_split(ws.marks_of(anchor), gain, slot, m.degree(gain))

    if m.vertex_of(lam) == cv:
        # the slot corner sits at the loop vertex: no channel to cut,
        # the vertex is resliced between the two corners and the loop
        # edge re-twinned through the fresh dart
        y = ws.prev_of(anchor)
        h_new = ws.new_dart()
        ws.twin[h_new] = told
        ws.twin[told] = h_new
        ws.link(h_new, anchor)
        ws.link(y, h_new)
        marks = ws.markers.get(anchor, [])
        if n_star:
            ws.markers[h_new] = marks[:n_star]
            ws.markers[anchor] = marks[n_star:]
        ws.delete(lam)
        out_ref, v_ref = h_new, told
    else:
        dist = distances(m, cv)
        walk = rightmost_geodesic(m, cv, from_corner=lam, dist=dist)
        assert walk and dist[m.vertex_of(walk[0])] == dist[m.vertex_of(lam)]
        s = slit(ws, walk, (lam, 0), (anchor, n_star))
        sew_onto(ws, s, lam)
        out_ref, v_ref = s.nl[-1], told

    _shift_arrows(ws, removed=lose)
    m2, rename = finish(ws)
    dart2 = rename[out_ref]
    assert m2.face_of(dart2) == gain - (1 if gain > lose else 0)
    return m2, m2.vertex_of(rename[v_ref]), dart2, rename


def transfer1_right(m: PlaneMap, gain: int, lose: int, slot: int, *, carry=None):
    """Absorb a degree-one face into the gaining face.

    The losing face must have degree one; its loop edge is pulled
    along the rightmost geodesic onto the slot corner of the gaining
    face, the face label disappears and higher labels shift down.  The
    edge count does not change.  When the slot vertex already carries
    the loop the geodesic is empty and the loop is rewired in place.

    Returns (map, vertex, dart, carry): a vertex and a dart of the
    gaining face pointing toward it, the decoration consumed by the
    inverse transfer1_left.
    """
    gain, lose, slot = _decoration(gain, lose, slot)
    _side_rule(Identity.UNIT_FACE, "lhs", m.degrees, gain, lose)
    ws = _planted(m, carry)
    m2, v, dart2, rename = _transfer1_right(m, gain, lose, slot, ws)
    return m2, v, dart2, _carry_out(ws, rename, carry)


def transfer1_left(
    m: PlaneMap, lose: int, insert_at: int, vertex: int, dart: int, *, carry=None
):
    """Split a loop off the losing face into a fresh degree-one face.

    The decoration is a vertex and a dart of the losing face pointing
    toward it.  The map is cut blind along the leftmost geodesic from
    the corner before the dart, leaving the far vertex whole; sewing
    backward pinches off a loop whose inside becomes a new face of
    degree one, labelled insert_at (labels from there up shift by
    one).  The edge count does not change.

    Returns (map, slot, carry): the corner slot of the losing face
    consumed by the inverse transfer1_right.
    """
    lose, insert_at, vertex, dart = _decoration(lose, insert_at, vertex, dart)
    if not 1 <= insert_at <= m.n_faces + 1:
        raise BadFace(f"insertion index {insert_at} out of range")
    _side_rule(Identity.UNIT_FACE, "rhs", m.degrees, lose)
    _check_dart(m, dart, lose)
    dist = distances(m, vertex)
    if classify_dart(m, dart, vertex, dist) != "toward":
        raise BadDecoration("the dart must point toward the chosen vertex")

    ws = _planted(m, carry)
    walk = leftmost_geodesic(m, vertex, from_corner=dart, dist=dist)
    assert walk and walk[0] == dart
    s = slit(ws, walk, (dart, 0), None)
    sew_backward(ws, s)
    unit = s.nr[-1]
    assert ws.next[unit] == unit, "the pinched loop did not close"
    _shift_arrows(ws, inserted=insert_at)
    ws.add_marker(unit, arrow(insert_at))
    suppress_pendant(ws, s.walk[0], out_marker=_OUT)
    m2, rename = finish(ws)
    face2, slot2 = _token_slot(m2, ws, rename, _OUT)
    assert face2 == lose + (1 if insert_at <= lose else 0)
    return m2, slot2, _carry_out(ws, rename, carry)


# -------------------------------------------------- growing and shrinking


def _pinch_side(m: PlaneMap, spine_a, chain, spine_b, d_c: int, d_ex: int) -> str:
    """Which side of the doubled chain the open channel runs along.

    Clockwise from the arrival corner at the attachment vertex, meeting
    the departing branch before the chain means the channel turns
    right; meeting the chain first means it stays left.
    """
    first = m.sigma(m.twin[spine_a[-1]]) if spine_a else d_c
    depart = spine_b[0] if spine_b else d_ex
    d1 = chain[0]
    r = first
    while True:
        if r == depart:
            return "right"
        if r == d1:
            return "left"
        r = m.sigma(r)


def _growth_channel(m: PlaneMap, e: int, j: int, k: int, c: int, c2: int):
    """Resolve the cut geometry for growing a new edge out of edge e.

    Returns (kind, parts, anchor_c, anchor_2, u2, ebar): kind is
    "simple" and parts the plain cut walk, or a pinch side and the
    three walk sections; ebar is the dart of e toward the first slot.
    Faces j == k grow one face by two corners, where c2 ranges over one
    value more.  slot_anchor and edge refuse a coordinate out of range
    before any BFS.

    Both distance tables are balls that stop at the endpoints of e: the
    geodesics from e only read vertices closer than its far endpoint.
    """
    u2 = c2 - 1 if j == k and c2 > c else c2
    anchor_c = m.slot_anchor(j, c)
    anchor_2 = m.slot_anchor(k, u2)
    cv = m.vertex_of(anchor_c)
    cv2 = m.vertex_of(anchor_2)
    lo, hi = m.edge(e)
    a, b = m.vertex_of(lo), m.vertex_of(hi)
    dist = _ball(m, cv, (a, b))
    assert dist[a] != dist[b], "one dart of a bipartite edge points toward any vertex"
    ebar, tw = (lo, hi) if dist[b] < dist[a] else (hi, lo)
    geo_c = _rightmost(m, ebar, dist)
    dist2 = _ball(m, cv2, (a, b))
    if dist2[m.vertex_of(ebar)] < dist2[m.vertex_of(tw)]:
        walk = [m.twin[x] for x in reversed(geo_c)] + [tw]
        walk += _rightmost(m, tw, dist2)
        return "simple", walk, anchor_c, anchor_2, u2, ebar
    geo_2 = _rightmost(m, ebar, dist2)
    idx = 0
    while idx < min(len(geo_c), len(geo_2)) and geo_c[idx] == geo_2[idx]:
        idx += 1
    spine_a = [m.twin[x] for x in reversed(geo_c[idx:])]
    chain = [m.twin[x] for x in reversed([ebar] + list(geo_c[:idx]))]
    spine_b = list(geo_2[idx:])
    if anchor_c == anchor_2:
        # entry and exit cut through the same corner
        if u2 == c:
            side = "left" if c2 == c else "right"
        elif c == 0:
            side = "right"
        else:
            side = "left"
    else:
        side = _pinch_side(m, spine_a, chain, spine_b, anchor_c, anchor_2)
    return side, (spine_a, chain, spine_b), anchor_c, anchor_2, u2, ebar


def _grow(m: PlaneMap, e: int, j: int, k: int, c: int, c2: int, carry):
    kind, parts, anchor_c, anchor_2, u2, ebar = _growth_channel(m, e, j, k, c, c2)
    ws = _planted(m, carry)
    s_en = _cut_split(ws.marks_of(anchor_c), j, c, m.degree(j))
    s_ex = _cut_split(ws.marks_of(anchor_2), k, u2, m.degree(k))
    if kind == "simple":
        s = slit(ws, parts, (anchor_c, s_en), (anchor_2, s_ex))
    else:
        sa, ch, sb = parts
        s = slit_pinched(ws, sa, ch, sb, (anchor_c, s_en), (anchor_2, s_ex), kind)
    sew_forward(ws, s)
    h_ref, h2_ref = s.nr[0], s.nl[-1]
    m2, rename = finish(ws)
    vertex_of = m2._vertex_of  # finish made these darts: no range checks needed
    v = vertex_of[rename[m.twin[ebar]]]
    h, h2 = rename[h_ref], rename[h2_ref]
    case = kind if kind == "simple" else f"{kind}-pinched"
    assert h != h2
    assert m2.face[h] == j and m2.face[h2] == k
    ends = [vertex_of[d] for d in (h, m2.twin[h], h2, m2.twin[h2])]
    dv = _ball(m2, v, ends)
    assert dv[ends[1]] < dv[ends[0]] and dv[ends[3]] < dv[ends[2]], (
        "h and h2 must point toward v"
    )
    return m2, v, h, h2, case, _carry_out(ws, rename, carry)


def grow_same(m: PlaneMap, e: int, c: int, c2: int, *, face: int = 1, carry=None):
    """Grow one edge and one vertex between two corners of one face.

    The decoration is an edge index e and two cut points c, c2 in the
    corners of the face: c is a corner slot, c2 ranges over one more
    value so that c2 <= c places the second point before the first
    inside a shared corner and c2 > c counts corners from after it.
    The map is cut from the first point over edge e to the second
    point and resewn one notch forward, adding an edge and a vertex
    while the face degree grows by two.

    Returns (map, v, h, h2, case, carry): a new vertex v, two darts of
    the face pointing toward it, the channel shape ("simple",
    "left-pinched" or "right-pinched"), and the carried marker
    positions.  The decoration (v, h, h2) is consumed by shrink_same.
    """
    e, c, c2, face = _decoration(e, c, c2, face)
    _side_rule(Identity.TWO_CORNERS_SAME_FACE, "lhs", m.degrees, face)
    return _grow(m, e, face, face, c, c2, carry)


def grow_two(m: PlaneMap, e: int, c: int, c2: int, *, faces=(1, 2), carry=None):
    """Grow one edge and one vertex between corners of two faces.

    Like grow_same with the second cut point in a corner of the other
    face: c is a corner slot of the first face, c2 one of the second.
    Each face degree grows by one, so both faces turn odd.

    Returns (map, v, h, h2, case, carry) with h on the first face and
    h2 on the second, both pointing toward v; consumed by shrink_two.
    """
    j, k = _face_pair(faces)
    e, c, c2 = _decoration(e, c, c2)
    _side_rule(Identity.CORNER_EACH_TWO_FACES, "lhs", m.degrees, j, k)
    return _grow(m, e, j, k, c, c2, carry)


def grow_via_transfers(
    m: PlaneMap, e: int, c: int, c2: int, *, faces=(1, 1), mark_side: int = 0, carry=None
):
    """Grow by doubling edge e into a digon and absorbing it in two transfers.

    The digon face is first shifted onto the first cut point with
    transfer_right, which leaves it with degree one, then absorbed
    into the second cut point with transfer1_right.  The result
    matches grow_same (faces equal) or grow_two (faces distinct)
    exactly, independent of mark_side.
    """
    j, k = _face_pair(faces)
    e, c, c2, mark_side = _decoration(e, c, c2, mark_side)
    identity = Identity.TWO_CORNERS_SAME_FACE if j == k else Identity.CORNER_EACH_TWO_FACES
    _side_rule(identity, "lhs", m.degrees, j, k)
    if carry is not None:
        carry = _check_carry(m, carry)
    _check_mark_side(mark_side)
    # the channel refuses an edge or slot out of range before its BFS,
    # so both before the digon map is built
    kind, _, anchor_c, anchor_2, u2, ebar = _growth_channel(m, e, j, k, c, c2)
    # edge_to_digon keeps every dart, corner and mark of m; ebar's digon twin points away
    m1 = edge_to_digon(m, e, mark_side)
    case = kind if kind == "simple" else f"{kind}-pinched"

    # pin the second cut point before the first transfer disturbs it;
    # when both points share one corner, the first cut runs beside it
    ws = _planted(m1, carry)
    toks = ws.marks_of(anchor_2)
    toks.insert(_cut_split(toks, k, u2, m.degree(k)), _POINT)
    if j == k and u2 == c:
        toks.insert(toks.index(_POINT) + (c2 == c), _CUT)
    m2, _, h_mid, rename = _transfer_right(m1, j, m1.n_faces, c, m1.twin[ebar], ws)
    carry2 = _carry_out(ws, rename, [*(carry or ()), _POINT])
    # the second transfer cuts where the point came to rest
    d_pt, rank_pt = carry2.pop(_POINT)
    assert m2.face_of(d_pt) == k, "the cut point drifted off its face"
    ws = _planted(m2, carry2)
    ws.add_marker(d_pt, _CUT, rank_pt)
    m3, v, h2, rename = _transfer1_right(m2, k, m2.n_faces, m2.corner_slot(d_pt).slot, ws)
    h = rename[h_mid]
    assert h != h2
    assert m3.face_of(h) == j and m3.face_of(h2) == k
    dv = distances(m3, v)
    assert classify_dart(m3, h, v, dv) == classify_dart(m3, h2, v, dv) == "toward"
    return m3, v, h, h2, case, _carry_out(ws, rename, carry2)


def _validate_shrink(m: PlaneMap, v: int, h: int, h2: int, j: int, k: int):
    """Check a shrink decoration; returns the distances from v, which refuse a bad v."""
    _check_dart(m, h, j)
    _check_dart(m, h2, k)
    if h == h2:
        raise BadDecoration("the two darts must differ")
    dist = distances(m, v)
    if classify_dart(m, h, v, dist) != "toward":
        raise BadDecoration("the first dart must point toward the vertex")
    if classify_dart(m, h2, v, dist) != "toward":
        raise BadDecoration("the second dart must point toward the vertex")
    return dist


def _shrink(m: PlaneMap, v: int, h: int, h2: int, j: int, k: int, carry, dist):
    geo_h = leftmost_geodesic(m, v, from_corner=h, dist=dist)
    geo_2 = leftmost_geodesic(m, v, from_corner=h2, dist=dist)
    assert geo_h[0] == h and geo_2[0] == h2
    vh = [m.vertex_of(h)] + [m.head_of(x) for x in geo_h]
    vh2 = [m.vertex_of(h2)] + [m.head_of(x) for x in geo_2]
    pos2 = {}
    for i2, u in enumerate(vh2):
        pos2.setdefault(u, i2)
    im = next(i for i, u in enumerate(vh) if u in pos2)
    jm = pos2[vh[im]]
    if (im, jm) == (0, 0):
        raise BadDecoration("the two darts leave the same vertex")

    ws = _planted(m, carry)
    if im == len(geo_h):
        # the geodesics stay disjoint until the vertex itself
        walk = list(geo_h) + [m.twin[x] for x in reversed(geo_2)]
        s = slit(ws, walk, (h, 0), (h2, 0))
        kind = "simple"
    else:
        assert list(geo_h[im:]) == list(geo_2[jm:]), "leftmost geodesics merge"
        sa = list(geo_h[:im])
        ch = list(geo_h[im:])
        sb = [m.twin[x] for x in reversed(geo_2[:jm])]
        kind = _pinch_side(m, sa, ch, sb, h, h2)
        s = slit_pinched(ws, sa, ch, sb, (h, 0), (h2, 0), kind)
    sew_backward(ws, s)
    e_dart = s.walk[len(geo_h)]
    for port, token in ((s.walk[0], _CUT_A), (s.nr[-1], _CUT_B)):
        beta = [d for d in (port, ws.twin[port]) if ws.sigma(d) == d]
        assert len(beta) == 1, "the cut end did not come loose"
        suppress_pendant(ws, beta[0], out_marker=token)
    m2, rename = finish(ws)

    e_out = m2.edge_index(rename[e_dart])
    fa, ca = _token_slot(m2, ws, rename, _CUT_A)
    fb, cb = _token_slot(m2, ws, rename, _CUT_B)
    assert fa == j and fb == k, "a cut point drifted off its face"
    if j != k or cb < ca:
        c2 = cb
    elif cb > ca:
        c2 = cb + 1
    else:
        toks = next(t for t in ws.markers.values() if _CUT_A in t and _CUT_B in t)
        c2 = ca if toks.index(_CUT_B) < toks.index(_CUT_A) else ca + 1
    case = kind if kind == "simple" else f"{kind}-pinched"
    return m2, e_out, ca, c2, case, _carry_out(ws, rename, carry)


def shrink_same(m: PlaneMap, v: int, h: int, h2: int, *, face: int = 1, carry=None):
    """Remove the vertex v and one edge, undoing grow_same.

    The decoration is a vertex and two distinct darts of the face
    pointing toward it.  The map is cut along the two leftmost
    geodesics from those darts to v and resewn one notch backward,
    which strips v and one edge off and frees the two cut points.

    Returns (map, e, c, c2, case, carry), the grow_same decoration.
    """
    v, h, h2, face = _decoration(v, h, h2, face)
    _side_rule(Identity.TWO_CORNERS_SAME_FACE, "rhs", m.degrees, face)
    dist = _validate_shrink(m, v, h, h2, face, face)
    return _shrink(m, v, h, h2, face, face, carry, dist)


def shrink_two(m: PlaneMap, v: int, h: int, h2: int, *, faces=(1, 2), carry=None):
    """Remove the vertex v and one edge, undoing grow_two.

    Like shrink_same with the second dart on the other face; the two
    faces must be exactly the odd ones.

    Returns (map, e, c, c2, case, carry), the grow_two decoration.
    """
    j, k = _face_pair(faces)
    v, h, h2 = _decoration(v, h, h2)
    _side_rule(Identity.CORNER_EACH_TWO_FACES, "rhs", m.degrees, j, k)
    dist = _validate_shrink(m, v, h, h2, j, k)
    return _shrink(m, v, h, h2, j, k, carry, dist)


# ------------------------------------------------------- the four identities


class Row(namedtuple("Row", "forward inverse lhs_key rhs_key")):
    """One counting identity as a pair of mutually inverse bijections.

    forward(m, dec) and inverse(m, dec) return (map, decoration, case),
    case None for the transfers.  Faces follow enumerate_decorations:
    the first role is face 1, the last is face m.n_faces.  lhs_key and
    rhs_key turn a map and a decoration of either side into a tuple
    that ignores dart names, so a round trip can be compared; it starts
    with the map's canonical code.
    """

    __slots__ = ()


def _edge_key(m: PlaneMap, dec) -> tuple:
    e, c, c2 = dec
    p, code = m._canonical()
    d, t = m.edge(e)
    return (code, min(p[d], p[t]), c, c2)


def _vertex_key(m: PlaneMap, dec) -> tuple:
    v, *darts = dec
    p, code = m._canonical()
    return (code, min(p[d] for d in m.vertex_darts(v)), *(p[d] for d in darts))


def _slot_key(m: PlaneMap, dec) -> tuple:
    slot, *darts = dec
    p, code = m._canonical()
    return (code, slot, *(p[d] for d in darts))


def _cased(out) -> tuple:
    return out[0], out[1:4], out[4]


def _uncased(out) -> tuple:
    return out[0], out[1:-1], None


# the bijections are looked up by name at call time, so a wrapper
# installed on this module is seen through the table as well
IDENTITIES = {
    Identity.TWO_CORNERS_SAME_FACE: Row(
        lambda m, dec: _cased(grow_same(m, *dec)),
        lambda m, dec: _cased(shrink_same(m, *dec)),
        _edge_key, _vertex_key,
    ),
    Identity.CORNER_EACH_TWO_FACES: Row(
        lambda m, dec: _cased(grow_two(m, *dec)),
        lambda m, dec: _cased(shrink_two(m, *dec)),
        _edge_key, _vertex_key,
    ),
    Identity.FACE_TO_FACE: Row(
        lambda m, dec: _uncased(transfer_left(m, 1, m.n_faces, *dec)),
        lambda m, dec: _uncased(transfer_right(m, m.n_faces, 1, *dec)),
        _slot_key, _slot_key,
    ),
    Identity.UNIT_FACE: Row(
        lambda m, dec: _uncased(transfer1_right(m, 1, m.n_faces, *dec)),
        lambda m, dec: _uncased(transfer1_left(m, 1, m.n_faces + 1, *dec)),
        _slot_key, _vertex_key,
    ),
}
