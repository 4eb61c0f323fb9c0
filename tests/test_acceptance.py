"""The nine acceptance gates, one verdict line each.

Each criterion is one test; the verdicts collect in VERDICTS and the
conftest summary hook prints the scoreboard after the run, one
PASS/FAIL line per criterion.
"""

import io
import time
from collections import Counter
from math import factorial, prod

from scipy.stats import chisquare

from planemaps import verify
from planemaps.bijections import IDENTITIES, grow_same, grow_two, grow_via_transfers
from planemaps.cli import run
from planemaps.counting import (
    Identity,
    admissible_types,
    decoration_radices,
    identity_families,
    identity_sides,
    tutte_count,
)
from planemaps.enumerator import enumerate_maps
from planemaps.maps import PlaneMap
from planemaps.sampler import sample

_MAPS: dict = {}
_ROUND_TRIPS: dict = {}
VERDICTS: list[str] = []


def all_maps(t):
    t = tuple(t)
    if t not in _MAPS:
        _MAPS[t] = enumerate_maps(t, max_edges=sum(t) // 2)
    return _MAPS[t]


def verdict(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_formula_oracle_agreement():
    t0 = time.perf_counter()
    named = {
        (2,): 1, (4,): 2, (6,): 5, (8,): 14,
        (2, 2): 2, (2, 2, 2): 8, (4, 2): 8, (4, 4): 36,
        (1, 1): 1, (3, 1): 3, (3, 3): 12, (5, 1): 10,
    }
    checked = 0
    for t in admissible_types(5):
        formula = tutte_count(t)
        oracle = len(all_maps(t))
        assert formula == oracle, (t, formula, oracle)
        if t in named:
            assert formula == named.pop(t), t
        checked += 1
    assert not named, f"named types never swept: {named}"
    took = time.perf_counter() - t0
    verdict(1, took < 60, f"{checked} types, oracle == formula, {took:.1f}s")


def test_criterion_2_initial_condition():
    for r in range(1, 7):
        want = 2 ** (r - 1) * factorial(r - 1)
        assert tutte_count((2,) * r) == want, r
    verdict(2, True, "tutte_count(2,...,2) = 2^(r-1)(r-1)! for r=1..6")


def test_criterion_3_identity_arithmetic():
    checked = 0
    for t, ident, _ in identity_families(8):
        lhs, rhs = identity_sides(ident, t)
        assert lhs == rhs, (ident, t, lhs, rhs)
        checked += 1
    assert checked > 2000
    verdict(3, True, f"{checked} identity instances, lhs == rhs exactly")


def round_trip_run(k):
    """verify-roundtrip --max-edges k, run once: (status, lines, seconds, tables).

    tables[identity, side, type] lists, map by map, how many decorations
    the run swept on that side of that identity's family.
    """
    if k not in _ROUND_TRIPS:
        tables, real, out = {}, verify.enumerate_decorations, io.StringIO()

        def recorded(m, ident, side):
            decs = real(m, ident, side)
            tables.setdefault((ident, side, m.degrees), []).append(len(decs))
            return decs

        verify.enumerate_decorations = recorded
        try:
            t0 = time.perf_counter()
            status = run(["verify-roundtrip", "--max-edges", str(k)], out=out)
            took = time.perf_counter() - t0
        finally:
            verify.enumerate_decorations = real
        _ROUND_TRIPS[k] = status, out.getvalue().splitlines(), took, tables
    return _ROUND_TRIPS[k]


def test_criterion_4_round_trips():
    status, _, took, _ = round_trip_run(4)
    ok = status == 0 and took < 300
    verdict(4, ok, f"exhaustive E<=4 sweep, case tags preserved, {took:.0f}s")


def test_criterion_5_cardinality_bijectivity():
    # the counts and verdicts of the round-trip run: acceptance 4's
    _, lines, _, tables = round_trip_run(4)
    # a family whose forward map is no bijection has one "FAIL <identity> <type>: ..." line
    faults = {ln.split(": ")[0]: ln for ln in lines if ln.startswith("FAIL") and ": " in ln}
    families = list(identity_families(4))
    done = 0
    for t, ident, tt in families:
        lhs_v, rhs_v = identity_sides(ident, t)
        swept = {}
        for side, a in (("lhs", t), ("rhs", tt)):
            per_map = prod(decoration_radices(ident, side, a))
            swept[side] = tables[ident, side, a]
            # each map carries the table's count, not only the sum over maps
            assert swept[side] == [per_map] * tutte_count(a), (t, ident, side)
        fault = faults.get(f"FAIL {ident.value} {t}", "")
        assert sum(swept["lhs"]) == lhs_v, (t, ident, swept["lhs"], lhs_v)
        assert sum(swept["rhs"]) == rhs_v and "rhs decorations repeat" not in fault, (t, ident)
        assert "not one to one" not in fault, (t, ident, "forward map not injective")
        assert "images differ" not in fault, (t, ident, "forward map not onto the target family")
        done += lhs_v
    assert f"forward maps: {len(families)} of {len(families)} families one to one and onto" in lines
    verdict(5, True, f"{done} decorated inputs, all four forward maps bijective")


def test_criterion_6_decomposition():
    cases = [
        ((2,), (1, 1)),
        ((4,), (1, 1)),
        ((2, 2), (1, 1)),
        ((2, 2), (1, 2)),
    ]
    key = IDENTITIES[Identity.TWO_CORNERS_SAME_FACE].rhs_key
    compared = 0
    for t, ff in cases:
        j, k = ff
        same = j == k
        for m in all_maps(t):
            aj = m.degree(j)
            c2_hi = aj + 2 if same else m.degree(k) + 1
            for e in range(m.n_edges):
                for c in range(aj + 1):
                    for c2 in range(c2_hi):
                        if same:
                            direct = grow_same(m, e, c, c2, face=j)
                        else:
                            direct = grow_two(m, e, c, c2, faces=ff)
                        want = (key(direct[0], direct[1:4]), direct[4])
                        for side in (0, 1):
                            via = grow_via_transfers(
                                m, e, c, c2, faces=ff, mark_side=side
                            )
                            assert (key(via[0], via[1:4]), via[4]) == want, (
                                t, ff, e, c, c2, side,
                            )
                            compared += 1
    verdict(6, True, f"{compared} composite growths equal the direct ones")


def test_criterion_7_structural_sweeps():
    out = io.StringIO()
    status = run(["verify-props", "--max-edges", "5"], out=out)
    swept = out.getvalue().splitlines()[0]
    verdict(7, status == 0, f"direction censuses at E<=5 ({swept})")


def test_criterion_8_sampler_uniformity():
    t0 = time.perf_counter()
    plans = [
        ((2, 2), 10**4),
        ((4, 2), 10**4),
        ((3, 1), 10**4),
        ((4, 4), 10**5),
        ((3, 3), 10**5),
    ]
    ps = []
    for t, n in plans:
        support = sorted(m.canonical_code() for m in all_maps(t))
        draws = Counter(sample(t, s).canonical_code() for s in range(n))
        assert set(draws) <= set(support), t
        _, p = chisquare([draws.get(c, 0) for c in support])
        assert p > 0.001, (t, p)
        ps.append(p)
    fixed = [sample((4, 4), 904).canonical_code() for _ in range(2)]
    assert fixed[0] == fixed[1]
    took = time.perf_counter() - t0
    ok = took < 600
    detail = "p = " + ", ".join(f"{p:.3f}" for p in ps) + f"; {took:.0f}s"
    verdict(8, ok, detail)


def test_criterion_9_serialization():
    total = 0
    for t in admissible_types(5):
        for m in all_maps(t):
            assert PlaneMap.from_json(m.to_json()) == m
            total += 1
    verdict(9, True, f"{total} maps, deserialize(serialize(m)) == m")
