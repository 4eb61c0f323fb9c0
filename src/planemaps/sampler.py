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
from functools import lru_cache

from .bijections import grow_same, transfer1_left, transfer_right
from .counting import Identity, _odd_pair, _odd_positions, check_type, decoration_radices
from .enumerator import _decorations
from .errors import BadParity, BadSchedule, BadSeed, NotBipartite
from .maps import PlaneMap
from .surgery import edge_to_digon

Schedule = tuple[tuple[int, ...], ...]

_SEED_MASK = (1 << 64) - 1


def _even_type(a) -> tuple[int, ...]:
    t = check_type(a)
    bad = [x for x in t if x % 2]
    if bad:
        raise NotBipartite(f"odd face degrees {bad} in a bipartite type")
    return t


# every growth starts here; PlaneMap is immutable, so one copy serves all
_ONE_EDGE = PlaneMap((1, 0), (1, 0), None, (0,))


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
    return _route(_even_type(a))[0]


def check_schedule(schedule, a=None, start=None) -> Schedule:
    """Validate a growth schedule and normalise it to a tuple of types.

    Every entry must be an even type; consecutive entries must differ
    either by +2 on exactly one coordinate or by appending (2).  When
    given, start pins the first entry and a the last.
    """
    try:  # _even_type turns its own TypeErrors into BadType
        steps = tuple(map(_even_type, schedule))
    except TypeError:
        raise BadSchedule(f"schedule must be an iterable of types, not {schedule!r}") from None
    if not steps:
        raise BadSchedule("empty schedule")
    if start is not None and steps[0] != tuple(start):
        raise BadSchedule(f"schedule starts at {steps[0]}, expected {tuple(start)}")
    if a is not None and steps[-1] != (want := check_type(a)):
        raise BadSchedule(f"schedule ends at {steps[-1]}, expected {want}")
    for (j, _), prev, cur in zip(_plan(steps), steps, steps[1:]):
        if cur != (prev[: j - 1] + (prev[j - 1] + 2,) + prev[j:] if j else prev + (2,)):
            raise BadSchedule(f"illegal schedule step {prev} -> {cur}")
    return steps


@lru_cache(maxsize=256)  # keyed by checked type: one route per type, not per sample
def _route(t: tuple[int, ...]) -> tuple[Schedule, tuple]:
    """default_schedule of a checked even type, and the _plan of its steps."""
    out = [(2,)]
    for i, deg in enumerate(t):
        if i:
            out.append(t[:i] + (2,))
        for x in range(4, deg + 2, 2):
            out.append(t[:i] + (x,))
    steps = tuple(out)
    return steps, _plan(steps)


def _plan(steps: Schedule) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per step, the face it widens (0 for a digon) and its draws' radices.

    Widening face j draws an lhs of TWO_CORNERS_SAME_FACE with j first;
    a digon draws one of E edges and one of its two sides.
    """
    grow, plan = Identity.TWO_CORNERS_SAME_FACE, []
    for prev, cur in zip(steps, steps[1:]):
        j = next((i for i, (x, y) in enumerate(zip(prev, cur), 1) if x != y), 0)
        plan.append((j, decoration_radices(grow, "lhs", prev, j) if j else (sum(prev) // 2, 2)))
    return tuple(plan)


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
        pair = isinstance(initial, (tuple, list)) and len(initial) == 2
        m, start = initial if pair else (None, None)
        if not isinstance(m, PlaneMap):
            raise BadSchedule(f"initial must be a (map, type) pair, not {initial!r}")
        start = _even_type(start)
        if m.degrees != start:
            raise BadSchedule(f"initial map has type {m.degrees}, declared {start}")
    if schedule is not None:
        steps = check_schedule(schedule, a=t, start=start)
        plan = _plan(steps)
    else:
        steps, plan = _route(t)
        if initial is not None:
            if start not in steps:
                raise BadSchedule(f"type {start} is not on the default route to {t}")
            cut = steps.index(start)
            steps, plan = steps[cut:], plan[cut:]
    return _follow(m, steps, plan, r)


def _default_map(t: tuple[int, ...], r: random.Random) -> PlaneMap:
    """sample_bipartite of a checked even type on its default route."""
    return _follow(_ONE_EDGE, *_route(t), r)


def _follow(m: PlaneMap, steps: Schedule, plan: tuple, r: random.Random) -> PlaneMap:
    """Grow m along a checked route that starts at its type."""
    for (j, radices), cur in zip(plan, steps[1:]):
        dec = map(r.randrange, radices)
        m = grow_same(m, *dec, face=j)[0] if j else edge_to_digon(m, *dec)
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
    odd = _odd_positions(t)
    if len(odd) != 2:
        raise BadParity(f"type {t} has {len(odd)} odd degrees, need exactly two")
    return _quasi(t, odd, _as_rng(rng))


def _quasi(t: tuple[int, ...], odd: tuple[int, ...], r: random.Random) -> PlaneMap:
    """sample_quasibipartite of a checked type and its two odd positions."""
    i, j = odd
    tt = list(t)
    tt[i - 1] += 1
    tt[j - 1] -= 1
    # a uniform rhs of UNIT_FACE on the relative when face j is gone, else
    # of FACE_TO_FACE: one randrange per radix, in range, so not rechecked
    unit = not tt[j - 1]
    identity, second = (Identity.UNIT_FACE, None) if unit else (Identity.FACE_TO_FACE, j)
    m = _default_map(tuple(filter(None, tt)), r)
    d0, *rest = map(r.randrange, decoration_radices(identity, "rhs", m.degrees, i, second))
    (dec,) = _decorations(m, identity, "rhs", i, second, d0, [rest])
    return (transfer1_left(m, i, j, *dec) if unit else transfer_right(m, j, i, *dec))[0]


def sample(a, rng) -> PlaneMap:
    """Uniform map of type a; dispatches on the parity class."""
    t = check_type(a)
    odd = _odd_pair(t)
    r = _as_rng(rng)
    return _quasi(t, odd, r) if odd else _default_map(t, r)
