"""The slits as they were before they cut their banks from the rotations.

slit and slit_pinched here walk each bank cycle again with _arc after
_walk_rotations has walked the same rotations once.  They are kept
unchanged as the reference that tests/test_surgery.py compares the
library's slits against, call by call.
"""

from planemaps.errors import CornerMismatch, InvalidWalk
from planemaps.surgery import Slit, Workspace


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


def _set_rotation(ws: Workspace, cycle: list[int]) -> None:
    """Make cycle the clockwise rotation at its vertex, as the cut did."""
    a = cycle[-1]
    for b in cycle:
        ws.link(ws.twin[a], b)
        a = b


def _arc(ws: Workspace, start: int, stop: int) -> list[int]:
    """Clockwise rays from start up to but not including stop."""
    nxt, twin = ws.next, ws.twin
    out = []
    d = start
    while d != stop:
        out.append(d)
        d = nxt[twin[d]]
    return out


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
    p = tuple(walk)
    if not p:
        raise InvalidWalk("empty walk")
    d_c, entry_split = entry
    vertex_keys = [frozenset(rot) for rot in _walk_rotations(ws, p)]
    vertex_keys.append(frozenset(ws.rotation_from(ws.twin[p[-1]])))
    if len(set(vertex_keys)) != len(vertex_keys):
        raise InvalidWalk("walk revisits a vertex")
    if d_c not in vertex_keys[0]:
        raise CornerMismatch("entry corner is not at the walk start")
    if exit is not None:
        d_ex, exit_split = exit
        if d_ex not in vertex_keys[-1]:
            raise CornerMismatch("exit corner is not at the walk end")
    else:
        d_ex = None

    l = len(p)
    twin_old = tuple(ws.twin[d] for d in p)
    nl = tuple(ws.new_darts(l))
    nr = tuple(ws.new_darts(l))

    # capture the vertex cycles of the banks before mutating
    banks_left: list[list[int]] = []
    banks_right: list[list[int]] = []
    banks_left.append(
        [d_c] + _arc(ws, ws.sigma(d_c), p[0]) + [p[0]]
        if d_c != p[0]
        else [p[0]]
    )
    banks_right.append([nr[0]] + _arc(ws, ws.sigma(p[0]), d_c))
    for k in range(l - 1):
        left = [nl[k]] + _arc(ws, ws.sigma(twin_old[k]), p[k + 1]) + [p[k + 1]]
        right = [nr[k + 1]] + _arc(ws, ws.sigma(p[k + 1]), twin_old[k])
        right.append(twin_old[k])
        banks_left.append(left)
        banks_right.append(right)
    if d_ex is not None:
        far_left = [nl[-1]] + _arc(ws, ws.sigma(twin_old[-1]), d_ex)
        if d_ex == twin_old[-1]:
            far_right = [d_ex]
        else:
            far_right = [d_ex] + _arc(ws, ws.sigma(d_ex), twin_old[-1])
            far_right.append(twin_old[-1])
        banks_left.append(far_left)
        banks_right.append(far_right)
    else:
        tip = [nl[-1]] + _arc(ws, ws.sigma(twin_old[-1]), twin_old[-1])
        tip.append(twin_old[-1])
        banks_left.append(tip)
        banks_right.append([])

    y = ws.prev_of(d_c)
    x = ws.prev_of(d_ex) if d_ex is not None else None

    # double the walk
    for k in range(l):
        ws.twin[p[k]] = nl[k]
        ws.twin[nl[k]] = p[k]
        ws.twin[twin_old[k]] = nr[k]
        ws.twin[nr[k]] = twin_old[k]
    for k in range(l - 1):
        ws.link(nr[k], nr[k + 1])
        ws.link(nl[k + 1], nl[k])
    ws.link(y, nr[0])
    ws.link(nl[0], d_c)
    if d_ex is not None:
        ws.link(nr[-1], d_ex)
        ws.link(x, nl[-1])
    else:
        ws.link(nr[-1], nl[-1])

    # split the markers of the mouth corners
    entry_marks = ws.markers.get(d_c, [])
    if entry_split:
        ws.markers[nr[0]] = entry_marks[:entry_split]
        ws.markers[d_c] = entry_marks[entry_split:]
    if d_ex is not None and exit_split:
        exit_marks = ws.markers.get(d_ex, [])
        ws.markers[nl[-1]] = exit_marks[:exit_split]
        ws.markers[d_ex] = exit_marks[exit_split:]

    for j, bank in enumerate(banks_left + banks_right):
        if bank:
            assert ws.rotation_from(bank[0]) == bank, (
                f"bank {j} of the slit is not a vertex cycle"
            )
    return Slit(p, nl, nr, d_c, d_ex)


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
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if not ch:
        raise InvalidWalk("a pinched slit needs a nonempty chain")
    d_c, entry_split = entry
    d_ex, exit_split = exit
    a, n_ch, b = len(sa), len(ch), len(sb)
    up = [ws.twin[x] for x in reversed(ch)]
    p = tuple(sa + ch + up + sb)
    length = len(p)
    # the walk chains, so the head of each dart is the origin of the
    # next one: only the final head needs a rotation of its own
    keys = [frozenset(rot) for rot in _walk_rotations(ws, p)]
    if sb:
        keys.append(frozenset(ws.rotation_from(ws.twin[sb[-1]])))
    down_keys = keys[: a + n_ch + 1]
    side_keys = keys[a + 2 * n_ch + 1 :]
    if len(set(down_keys)) != len(down_keys):
        raise InvalidWalk("walk revisits a vertex")
    if len(set(side_keys)) != len(side_keys) or set(side_keys) & set(down_keys):
        raise InvalidWalk("walk revisits a vertex")
    if d_c not in down_keys[0]:
        raise CornerMismatch("entry corner is not at the walk start")
    exit_key = side_keys[-1] if sb else down_keys[a]
    if d_ex not in exit_key:
        raise CornerMismatch("exit corner is not at the walk end")
    same_corner = a == 0 and b == 0 and d_c == d_ex
    if same_corner:
        ordered = (
            exit_split <= entry_split
            if side == "left"
            else entry_split <= exit_split
        )
        assert ordered, "corner split order contradicts the pinch side"

    told = tuple(ws.twin[d] for d in p)
    x_new = ws.new_darts(n_ch)
    y_new = ws.new_darts(n_ch)
    mdn = ws.new_darts(n_ch)
    mup = ws.new_darts(n_ch)
    spine_pos = list(range(a)) + list(range(a + 2 * n_ch, length))
    snl = dict(zip(spine_pos, ws.new_darts(len(spine_pos))))
    snr = dict(zip(spine_pos, ws.new_darts(len(spine_pos))))

    nl = [0] * length
    nr = [0] * length
    for s in spine_pos:
        nl[s], nr[s] = snl[s], snr[s]
    for t in range(n_ch):
        pdn, pup = a + t, a + 2 * n_ch - 1 - t
        if side == "left":
            nl[pdn], nr[pdn] = x_new[t], mdn[t]
            nl[pup], nr[pup] = y_new[t], mup[t]
        else:
            nl[pdn], nr[pdn] = mup[t], y_new[t]
            nl[pup], nr[pup] = mdn[t], x_new[t]

    def gap(after: int, stop: int) -> list[int]:
        # original rays strictly between two cut points; empty when the
        # points coincide, unlike the wrapping _arc
        return [] if after == stop else _arc(ws, ws.sigma(after), stop)

    # capture every vertex copy as a ray cycle before mutating
    cycles: list[list[int]] = []
    if a:
        cycles.append(
            [d_c] + gap(d_c, p[0]) + [p[0]] if d_c != p[0] else [p[0]]
        )
        cycles.append([nr[0]] + _arc(ws, ws.sigma(p[0]), d_c))
    for s in range(a - 1):
        cycles.append([nl[s]] + gap(told[s], p[s + 1]) + [p[s + 1]])
        cycles.append([nr[s + 1]] + gap(p[s + 1], told[s]) + [told[s]])
    for t in range(n_ch - 1):
        et = told[a + t]
        cycles.append([x_new[t]] + gap(et, ch[t + 1]) + [ch[t + 1]])
        cycles.append([y_new[t + 1]] + gap(ch[t + 1], et) + [et])
        cycles.append([mup[t], mdn[t + 1]])
    e_last = told[a + n_ch - 1]
    cycles.append([x_new[-1]] + _arc(ws, ws.sigma(e_last), e_last) + [e_last])
    cycles.append([mup[-1]])

    d1 = ch[0]
    dep = sb[0] if b else None
    base_in = told[a - 1] if a else d_c
    out_anchor = dep if b else d_ex
    nr_b = nr[a + 2 * n_ch] if b else None
    if same_corner:
        cycles.append(
            [d_c] + gap(d_c, d1) + [d1] if d_c != d1 else [d1]
        )
        cycles.append([y_new[0]] + _arc(ws, ws.sigma(d1), d_c))
        cycles.append([mdn[0]])
    elif side == "left":
        if a:
            cycles.append([nl[a - 1]] + gap(base_in, d1) + [d1])
        else:
            cycles.append(
                [d_c] + gap(d_c, d1) + [d1] if d_c != d1 else [d1]
            )
        cycles.append(
            [y_new[0]] + gap(d1, out_anchor) + ([dep] if b else [])
        )
        fused = [mdn[0], nr_b if b else d_ex]
        fused += gap(out_anchor, base_in)
        if a and not (b == 0 and d_ex == base_in):
            fused.append(base_in)
        cycles.append(fused)
    elif b == 0 and a and d_ex == base_in:
        # exit corner right where the walk first arrives: the arrival
        # ray sits alone between the two cuts, next to the middle
        cycles.append([nl[a - 1]] + gap(base_in, d1) + [d1])
        cycles.append([y_new[0]] + gap(d1, base_in))
        cycles.append([mdn[0], d_ex])
    else:
        lead = nl[a - 1] if a else d_c
        fused = [lead] + gap(base_in, out_anchor)
        if b and dep != lead:
            fused.append(dep)
        fused.append(mdn[0])
        cycles.append(fused)
        head = [nr_b] if b else ([d_ex] if d_ex != d1 else [])
        cycles.append(head + gap(out_anchor, d1) + [d1])
        cap = [y_new[0]] + gap(d1, base_in)
        if a:
            cap.append(base_in)
        cycles.append(cap)

    for s in range(a + 2 * n_ch, length - 1):
        cycles.append([nl[s]] + gap(told[s], p[s + 1]) + [p[s + 1]])
        cycles.append([nr[s + 1]] + gap(p[s + 1], told[s]) + [told[s]])
    if b:
        cycles.append([nl[-1]] + _arc(ws, ws.sigma(told[-1]), d_ex))
        if d_ex == told[-1]:
            cycles.append([d_ex])
        else:
            cycles.append([d_ex] + gap(d_ex, told[-1]) + [told[-1]])

    # triple the chain, double the spines
    for t in range(n_ch):
        dt, et = ch[t], told[a + t]
        ws.twin[dt], ws.twin[x_new[t]] = x_new[t], dt
        ws.twin[et], ws.twin[y_new[t]] = y_new[t], et
        ws.twin[mdn[t]], ws.twin[mup[t]] = mup[t], mdn[t]
    for s in spine_pos:
        ws.twin[p[s]], ws.twin[snl[s]] = snl[s], p[s]
        ws.twin[told[s]], ws.twin[snr[s]] = snr[s], told[s]
    for cyc in cycles:
        _set_rotation(ws, cyc)

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
        exit_marks = ws.markers.get(d_ex, [])
        if exit_split:
            ws.markers[nl[-1]] = exit_marks[:exit_split]
            ws.markers[d_ex] = exit_marks[exit_split:]

    for j, bank in enumerate(cycles):
        assert ws.rotation_from(bank[0]) == bank, (
            f"copy {j} of the pinched slit is not a vertex cycle"
        )
    return Slit(p, tuple(nl), tuple(nr), d_c, d_ex)
