"""Exhaustive checks up to k edges: identities, round trips, censuses.

Each engine returns its report (FAIL lines, then summaries) and its
failure count.  The two family engines share one sweep, which
enumerates each type once and holds one type's maps at a time.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bijections import IDENTITIES
from .counting import admissible_types, identity_families, identity_sides, odd_positions
from .enumerator import DEFAULT_MAX_EDGES, enumerate_decorations, enumerate_maps
from .errors import TooManyEdges
from .metric import census_fits, direction_census


def _family_maps(families: list[tuple]) -> Iterator[tuple]:
    """(n, identity, side, type, map) for each map on a side of family n.

    Family n = (t, identity, target) reads t on its lhs and the target on
    its rhs; types come in the order the sides first use them.
    """
    uses: dict[tuple[int, ...], list[tuple]] = {}
    for n, (t, ident, tt) in enumerate(families):
        uses.setdefault(t, []).append((n, ident, "lhs"))
        uses.setdefault(tt, []).append((n, ident, "rhs"))
    for a, sides in uses.items():
        for m in enumerate_maps(a, max_edges=DEFAULT_MAX_EDGES + 1):
            for n, ident, side in sides:
                yield n, ident, side, a, m


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
        got = [[0, 0] for _ in families]
        for n, ident, side, _, m in _family_maps(families):
            got[n][side == "rhs"] += len(enumerate_decorations(m, ident, side))
        for (t, ident, _), want, have in zip(families, sides, map(tuple, got)):
            if have != want:
                lines.append(f"FAIL {ident.value} {t}: enumerated {have}, formula {want}")
        lines.append(f"set cardinalities: {len(families)} instances checked")
    return lines, sum(line.startswith("FAIL") for line in lines)


def round_trips(k: int) -> tuple[list[str], int]:
    """Each lhs decoration forward and back, each rhs one inverse and forward.

    A trip passes when the case and the side's key come back equal.
    Above DEFAULT_MAX_EDGES, TooManyEdges before any enumeration.
    """
    if k > DEFAULT_MAX_EDGES:
        raise TooManyEdges(f"round trips run up to {DEFAULT_MAX_EDGES} edges, not {k}")
    families = list(identity_families(k))
    fails = []
    for n, ident, side, a, m in _family_maps(families):
        row = IDENTITIES[ident]
        if side == "lhs":
            there, back, key = row.forward, row.inverse, row.lhs_key
        else:
            there, back, key = row.inverse, row.forward, row.rhs_key
        for dec in enumerate_decorations(m, ident, side):
            m2, dec2, case = there(m, dec)
            m3, dec3, case3 = back(m2, dec2)
            if case3 != case or key(m3, dec3) != key(m, dec):
                fails.append((n, side, f"FAIL {ident.value} {side} at {a} {dec}"))
    # a stable sort: family by family, lhs before rhs, each side in sweep order
    lines = [line for *_, line in sorted(fails, key=lambda fail: fail[:2])]
    return lines + [f"round trips: {len(families)} family sweeps"], len(lines)


def censuses(k: int) -> tuple[list[str], int]:
    """The direction census of every face from every vertex of every map."""
    lines, n_maps = [], 0
    for t in admissible_types(k):
        quasi = bool(odd_positions(t))
        for m in enumerate_maps(t, max_edges=k):
            n_maps += 1
            for v in range(m.n_vertices):
                for i, counts in enumerate(direction_census(m, v), start=1):
                    if not census_fits(counts, quasi):
                        lines.append(
                            f"FAIL direction census {t} face {i} vertex {v}: "
                            f"(toward, away, parallel) = {counts}"
                        )
    return lines + [f"direction censuses: {n_maps} maps swept"], len(lines)
