"""Exhaustive checks up to k edges: identities, round trips, censuses.

Each engine returns its report (FAIL lines, then summaries) and its
failure count.  The two family engines walk one family at a time,
its lhs type, then its rhs type, holding one type's maps at a time.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bijections import IDENTITIES
from .counting import admissible_types, identity_families, identity_sides, odd_positions
from .enumerator import DEFAULT_MAX_EDGES, enumerate_decorations, enumerate_maps
from .errors import TooManyEdges
from .metric import census_fits, direction_census


def _family_maps(t: tuple[int, ...], target: tuple[int, ...]) -> Iterator[tuple]:
    """(side, type, map) for each map of type t, the lhs, then of the target, the rhs."""
    for side, a in (("lhs", t), ("rhs", target)):
        for m in enumerate_maps(a, max_edges=DEFAULT_MAX_EDGES + 1):
            yield side, a, m


def identities(k: int) -> tuple[list[str], int]:
    """Both sides of each identity as formulas, then as set sizes up to DEFAULT_MAX_EDGES."""
    families = list(identity_families(k))
    sides = [identity_sides(ident, t) for t, ident, _ in families]
    lines = []
    for (t, ident, _), (lhs, rhs) in zip(families, sides):
        if lhs != rhs:
            lines.append(f"FAIL {ident.value} {t}: {lhs} != {rhs}")
    lines.append(f"identity arithmetic: {len(families)} instances checked")
    if k > DEFAULT_MAX_EDGES:
        lines.append(f"set cardinalities: skipped above {DEFAULT_MAX_EDGES} edges")
    else:
        for (t, ident, tt), want in zip(families, sides):
            have = [0, 0]
            for side, _, m in _family_maps(t, tt):
                have[side == "rhs"] += len(enumerate_decorations(m, ident, side))
            if tuple(have) != want:
                lines.append(f"FAIL {ident.value} {t}: enumerated {tuple(have)}, formula {want}")
        lines.append(f"set cardinalities: {len(families)} instances checked")
    return lines, sum(line.startswith("FAIL") for line in lines)


def round_trips(k: int) -> tuple[list[str], int]:
    """Each lhs decoration forward and back, each rhs one inverse and forward.

    A trip passes when the case and the side's key come back equal.  A
    family's forward map is a bijection when the rhs keys of its images
    are distinct and are those of the rhs decorations, also distinct.
    Above DEFAULT_MAX_EDGES, TooManyEdges before any enumeration.
    """
    if k > DEFAULT_MAX_EDGES:
        raise TooManyEdges(f"round trips run up to {DEFAULT_MAX_EDGES} edges, not {k}")
    families = list(identity_families(k))
    lines, bijective = [], 0
    for t, ident, tt in families:
        row = IDENTITIES[ident]
        # the rhs keys of the forward images and of the rhs decorations
        images, targets, swept, codes = set(), set(), {"lhs": 0, "rhs": 0}, {}
        for side, a, m in _family_maps(t, tt):
            if side == "lhs":
                there, back, key = row.forward, row.inverse, row.lhs_key
            else:
                there, back, key = row.inverse, row.forward, row.rhs_key
            for dec in enumerate_decorations(m, ident, side):
                m2, dec2, case = there(m, dec)
                m3, dec3, case3 = back(m2, dec2)
                was = key(m, dec)
                if case3 != case or key(m3, dec3) != was:
                    lines.append(f"FAIL {ident.value} {side} at {a} {dec}")
                swept[side] += 1
                if side == "rhs":
                    targets.add(was)
                else:  # the images are few maps: their keys share one copy of each code
                    code, *rest = row.rhs_key(m2, dec2)
                    images.add((codes.setdefault(code, code), *rest))
        faults = [fault for fault, bad in (
            ("not one to one", len(images) < swept["lhs"]),
            ("rhs decorations repeat", len(targets) < swept["rhs"]),
            ("images differ from the rhs family", images != targets),
        ) if bad]
        if faults:
            lines.append(f"FAIL {ident.value} {t}: {', '.join(faults)}")
        bijective += not faults
    summary = f"forward maps: {bijective} of {len(families)} families one to one and onto"
    return lines + [summary, f"round trips: {len(families)} family sweeps"], len(lines)


def censuses(k: int) -> tuple[list[str], int]:
    """The direction census of every face from every vertex of every map."""
    lines, n_maps = [], 0
    for t in admissible_types(k):
        quasi = bool(odd_positions(t))
        fits = {}  # one verdict per distinct triple of the type
        for m in enumerate_maps(t, max_edges=k):
            n_maps += 1
            for v in range(m.n_vertices):
                for i, counts in enumerate(direction_census(m, v), start=1):
                    if counts not in fits:
                        fits[counts] = census_fits(counts, quasi)
                    if not fits[counts]:
                        lines.append(
                            f"FAIL direction census {t} face {i} vertex {v}: "
                            f"(toward, away, parallel) = {counts}"
                        )
    return lines + [f"direction censuses: {n_maps} maps swept"], len(lines)
