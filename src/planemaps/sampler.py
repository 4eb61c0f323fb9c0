"""Exact uniform sampling of plane maps with prescribed face degrees.

A bipartite map is grown from the one-edge map through a schedule of
even types, each step either widening one face by two (one growing
bijection applied at a uniformly chosen decoration) or splitting a
uniformly chosen edge into a fresh digon face.  The number of
decorations per map depends only on the type, so forgetting them
after every step keeps the distribution exactly uniform.

A quasibipartite map is sampled through its bipartite relative: raise
the first odd degree by one, lower the second by one (dropping the
coordinate if it reaches zero), sample that type, then apply a single
degree transfer at a uniformly chosen decoration.
"""

from __future__ import annotations

import operator
import random

from .bijections import grow_same, transfer1_left, transfer_right
from .counting import check_type, classify, odd_positions
from .errors import BadParity, BadSchedule, BadSeed, OddCoordinate
from .maps import PlaneMap
from .metric import classify_dart, distances
from .surgery import edge_to_digon

Schedule = tuple[tuple[int, ...], ...]

_SEED_MASK = (1 << 64) - 1


def _even_type(a) -> tuple[int, ...]:
    t = check_type(a)
    bad = [x for x in t if x % 2]
    if bad:
        raise OddCoordinate(f"odd face degrees {bad} in a bipartite type")
    return t


# every growth starts here; PlaneMap is immutable, so one copy serves all
_ONE_EDGE = PlaneMap((1, 0), (1, 0), (1, 1), (0,))


def _as_rng(rng) -> random.Random:
    """Accept an int seed, taken modulo 2**64, or a ready random.Random.

    Strict like the degree tuples: ints, bools and objects with
    __index__ pass, while floats, strings and None raise BadSeed
    instead of being truncated or parsed.
    """
    if isinstance(rng, random.Random):
        return rng
    try:
        seed = operator.index(rng)
    except TypeError:
        raise BadSeed(
            f"seed must be an int or a random.Random, not {type(rng).__name__}"
        ) from None
    return random.Random(seed & _SEED_MASK)


def default_schedule(a) -> Schedule:
    """The standard growth route: each face reaches full size in turn.

    Starts at (2,), widens face 1 by steps of two up to a_1, appends a
    digon for face 2 and widens it, and so on.  Along the way the
    intermediate types (a_1,), (a_1, a_2), ... appear, so prefixes of
    the target type are sampled for free.
    """
    t = _even_type(a)
    out = [(2,)]
    for i, deg in enumerate(t):
        if i:
            out.append(t[:i] + (2,))
        for x in range(4, deg + 2, 2):
            out.append(t[:i] + (x,))
    return tuple(out)


def check_schedule(schedule, a=None, start=None) -> Schedule:
    """Validate a growth schedule and normalise it to a tuple of types.

    Every entry must be an even type; consecutive entries must differ
    either by +2 on exactly one coordinate or by appending (2).  When
    given, start pins the first entry and a the last.
    """
    steps = tuple(_even_type(s) for s in schedule)
    if not steps:
        raise BadSchedule("empty schedule")
    if start is not None and steps[0] != tuple(start):
        raise BadSchedule(f"schedule starts at {steps[0]}, expected {tuple(start)}")
    if a is not None and steps[-1] != check_type(a):
        raise BadSchedule(f"schedule ends at {steps[-1]}, expected {check_type(a)}")
    for prev, cur in zip(steps, steps[1:]):
        if cur == prev + (2,):
            continue
        if len(cur) == len(prev):
            diffs = [i for i, (x, y) in enumerate(zip(prev, cur)) if x != y]
            if len(diffs) == 1 and cur[diffs[0]] == prev[diffs[0]] + 2:
                continue
        raise BadSchedule(f"illegal schedule step {prev} -> {cur}")
    return steps


def _grow_step(m: PlaneMap, j: int, rng: random.Random) -> PlaneMap:
    # decoration counts E * (deg+1) * (deg+2), a function of the type only
    deg = m.degree(j)
    e = rng.randrange(m.n_edges)
    c = rng.randrange(deg + 1)
    c2 = rng.randrange(deg + 2)
    return grow_same(m, e, c, c2, face=j)[0]


def _append_step(m: PlaneMap, rng: random.Random) -> PlaneMap:
    e = rng.randrange(m.n_edges)
    return edge_to_digon(m, e, rng.randrange(2))


def sample_bipartite(a, rng, schedule=None, initial=None) -> PlaneMap:
    """Uniform map of even type a, grown edge by edge.

    rng is a 64-bit seed or a random.Random instance.  schedule
    overrides the default growth route.  initial = (map, type) builds
    on an already sampled uniform map of an intermediate type; the
    schedule then has to start at that type (the default route is cut
    at it).  Identical seeds give identical maps.
    """
    t = _even_type(a)
    r = _as_rng(rng)
    if initial is None:
        m, start = _ONE_EDGE, (2,)
    else:
        m, start = initial
        start = _even_type(start)
        if m.degrees != start:
            raise BadSchedule(
                f"initial map has type {m.degrees}, declared {start}"
            )
    if schedule is not None:
        steps = check_schedule(schedule, a=t, start=start)
    elif initial is None:
        steps = default_schedule(t)
    else:
        full = default_schedule(t)
        if start not in full:
            raise BadSchedule(f"type {start} is not on the default route to {t}")
        steps = full[full.index(start):]
    for prev, cur in zip(steps, steps[1:]):
        if cur == prev + (2,):
            m = _append_step(m, r)
        else:
            j = next(i for i, (x, y) in enumerate(zip(prev, cur), start=1) if x != y)
            m = _grow_step(m, j, r)
        assert m.degrees == cur, "schedule step produced the wrong type"
    return m


def sample_quasibipartite(a, rng) -> PlaneMap:
    """Uniform map of a type with exactly two odd degrees.

    Samples the bipartite relative, then runs one transfer: a plain
    degree transfer back onto the lowered face, or, when the lowered
    degree was one and the coordinate disappeared, a loop split that
    recreates the degree-one face in place.
    """
    t = check_type(a)
    odd = odd_positions(t)
    if len(odd) != 2:
        raise BadParity(f"type {t} has {len(odd)} odd degrees, need exactly two")
    i, j = odd
    r = _as_rng(rng)
    if t[j - 1] == 1:
        tt = [x for pos, x in enumerate(t, start=1) if pos != j]
        tt[i - 1] += 1
        m = sample_bipartite(tuple(tt), r)
        # decoration counts V * deg_i/2: a vertex and a dart of face i
        # toward it, uniform because the toward count per vertex is fixed
        v = r.randrange(m.n_vertices)
        dist = distances(m, v)
        darts = [d for d in m.contour(i) if classify_dart(m, d, v, dist) == "toward"]
        return transfer1_left(m, i, j, v, r.choice(darts))[0]
    tt = list(t)
    tt[i - 1] += 1
    tt[j - 1] -= 1
    m = sample_bipartite(tuple(tt), r)
    # decoration counts (deg_j+1) * deg_i/2: a slot of face j and a dart
    # of face i away from the slot vertex, again fixed per vertex
    slot = r.randrange(m.degree(j) + 1)
    cv = m.vertex_of(m.slot_anchor(j, slot))
    dist = distances(m, cv)
    darts = [d for d in m.contour(i) if classify_dart(m, d, cv, dist) == "away"]
    return transfer_right(m, j, i, slot, r.choice(darts))[0]


def sample(a, rng) -> PlaneMap:
    """Uniform map of type a; dispatches on the parity class."""
    t = check_type(a)
    if classify(t) == "bipartite":
        return sample_bipartite(t, rng)
    return sample_quasibipartite(t, rng)
