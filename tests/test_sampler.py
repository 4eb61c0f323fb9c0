"""Schedules, determinism and uniformity of the exact sampler."""

import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from scipy.stats import chisquare

from planemaps import sampler
from planemaps.counting import (
    Identity,
    admissible_types,
    decoration_radices,
    odd_positions,
    tutte_count,
)
from planemaps.enumerator import enumerate_maps
from planemaps.errors import (
    BadParity,
    BadSchedule,
    BadSeed,
    NotBipartite,
    PlaneMapError,
    TooManyOddFaces,
)
from planemaps.sampler import (
    check_schedule,
    default_schedule,
    sample,
    sample_bipartite,
    sample_quasibipartite,
)


class TestSchedule:
    def test_displayed_route(self):
        assert default_schedule((4,)) == ((2,), (4,))
        assert default_schedule((4, 2)) == ((2,), (4,), (4, 2))
        assert default_schedule((2,)) == ((2,),)
        assert default_schedule((6, 4)) == (
            (2,), (4,), (6,), (6, 2), (6, 4),
        )

    def test_odd_coordinate(self):
        with pytest.raises(NotBipartite):
            default_schedule((3,))
        with pytest.raises(NotBipartite):
            sample_bipartite((4, 1), 0)

    def test_check_schedule(self):
        steps = [(2,), (2, 2), (4, 2), (4, 4)]
        assert check_schedule(steps, a=(4, 4), start=(2,)) == tuple(map(tuple, steps))
        with pytest.raises(BadSchedule):
            check_schedule([])
        with pytest.raises(BadSchedule):
            check_schedule([(2,), (6,)])
        with pytest.raises(BadSchedule):
            check_schedule([(2,), (2, 2, 2)])
        with pytest.raises(BadSchedule):
            check_schedule([(2,), (4,)], a=(6,))
        with pytest.raises(BadSchedule):
            check_schedule([(4,), (6,)], start=(2,))
        # a schedule that is not iterable raised a bare TypeError
        with pytest.raises(BadSchedule):
            check_schedule(None)
        with pytest.raises(BadSchedule):
            check_schedule(5)

    def test_step_legality_on_all_small_pairs(self):
        # legal: append a digon, or widen exactly one face by two
        small = [t for n in (1, 2, 3) for t in product((2, 4, 6, 8), repeat=n)]
        for prev, cur in product(small, repeat=2):
            growth = sorted(y - x for x, y in zip(prev, cur))
            legal = cur == prev + (2,) or (
                len(cur) == len(prev) and growth == [0] * (len(cur) - 1) + [2]
            )
            try:
                check_schedule([prev, cur])
            except BadSchedule:
                assert not legal, (prev, cur)
            else:
                assert legal, (prev, cur)


class TestDeterminism:
    @pytest.mark.parametrize("a", [(4, 4), (3, 3), (2, 2, 2), (5, 1)])
    def test_same_seed_same_map(self, a):
        c1 = sample(a, 71).canonical_code()
        c2 = sample(a, 71).canonical_code()
        assert c1 == c2

    def test_seed_normalisation(self):
        assert (
            sample((4, 2), 9).canonical_code()
            == sample((4, 2), random.Random(9)).canonical_code()
        )

    @pytest.mark.parametrize("a", [(4, 2), (3, 3)])
    def test_int_seeds_as_before(self, a):
        # ints are taken modulo 2**64 and bools as 0 and 1, so the seed
        # reaches random.Random exactly as int(seed) & mask did
        def code(rng):
            return sample(a, rng).canonical_code()

        mask = (1 << 64) - 1
        for seed in (0, 1, 9, -1, -12345, 1 << 64, (1 << 70) + 9, True, False):
            assert code(seed) == code(random.Random(int(seed) & mask)), seed
        assert code(-1) == code(mask)
        assert code((1 << 64) + 9) == code(9)

        class Index:
            def __index__(self):
                return 9

        assert code(Index()) == code(9)

    @pytest.mark.parametrize("seed", [1.7, 2.0, "12", None, b"1", [1]])
    @pytest.mark.parametrize("a", [(4, 2), (3, 3), (2, 1, 1)])
    def test_bad_seed(self, a, seed):
        with pytest.raises(BadSeed) as info:
            sample(a, seed)
        assert isinstance(info.value, PlaneMapError)
        assert isinstance(info.value, ValueError)

    def test_bad_seed_in_both_samplers(self):
        with pytest.raises(BadSeed):
            sample_bipartite((4, 2), 1.7)
        with pytest.raises(BadSeed):
            sample_quasibipartite((3, 3), "12")

    def test_trivial_types(self):
        digon = enumerate_maps((2,))[0]
        loop = enumerate_maps((1, 1))[0]
        for s in range(10):
            assert sample((2,), s).canonical_code() == digon.canonical_code()
            assert sample((1, 1), s).canonical_code() == loop.canonical_code()


class TestUniformity:
    @pytest.mark.parametrize("a,n", [((2, 2), 2000), ((4, 2), 6000), ((3, 1), 3000)])
    def test_chi_square(self, a, n):
        support = sorted(m.canonical_code() for m in enumerate_maps(a))
        draws = Counter(sample(a, s).canonical_code() for s in range(n))
        assert set(draws) <= set(support)
        _, p = chisquare([draws.get(c, 0) for c in support])
        assert p > 0.001

    def test_full_support(self):
        for a in [(2, 2, 2), (3, 3), (2, 1, 1)]:
            support = {m.canonical_code() for m in enumerate_maps(a)}
            seen = {sample(a, s).canonical_code() for s in range(800)}
            assert seen == support


class Odometer(random.Random):
    """A generator that runs through every sequence of draws, in order.

    Each _randbelow(n) (randrange and choice go through it) reads the
    next digit of the current sequence, appending 0 with radix n past
    its end.  advance() steps to the next sequence like an odometer:
    the last digit counts up and carries into the one before it.
    """

    def __init__(self):
        super().__init__(0)
        self.digits, self.radices, self.pos = [], [], 0

    def _randbelow(self, n):
        if self.pos == len(self.digits):
            self.digits.append(0)
            self.radices.append(n)
        assert self.radices[self.pos] == n, "a prefix fixes the next radix"
        self.pos += 1
        return self.digits[self.pos - 1]

    def advance(self) -> bool:
        """Step to the next sequence; False once every one was run."""
        assert self.pos == len(self.digits), "a sample read every digit"
        while self.digits and self.digits[-1] + 1 == self.radices[-1]:
            self.digits.pop()
            self.radices.pop()
        if self.digits:
            self.digits[-1] += 1
        self.pos = 0
        return bool(self.digits)


class TestExactUniformity:
    """sample() over every draw sequence: each map comes out equally often.

    Multiplicities: (2,2) 1, (4,2) 6, (3,1) 24, (4,4) 48, (3,3) 24 and
    (2,6) 144 per map.  (2,6) is the smallest type whose second face
    grows from degree 4, so a draw range off by one there shows here.
    """

    @pytest.mark.parametrize("a", [(2, 2), (4, 2), (3, 1), (4, 4), (3, 3), (2, 6)], ids=str)
    def test_every_draw_sequence(self, a):
        rng = Odometer()
        codes = Counter()
        while True:
            codes[sample(a, rng).canonical_code()] += 1
            if not rng.advance():
                break
        assert set(codes) == {m.canonical_code() for m in enumerate_maps(a)}
        assert len(codes) == tutte_count(a)
        assert len(set(codes.values())) == 1, sorted(Counter(codes.values()).items())


class TestDrawsReadTheTable:
    """Each bound sample() hands its generator is a decoration_radices radix.

    Step by step along the default route: an lhs of
    TWO_CORNERS_SAME_FACE with the widened face first, (E, 2) for a new
    digon, then for a quasibipartite type the rhs of its final transfer
    at the two odd faces.  The dart draws are checked too, since their
    bounds are directed_darts lengths, which the table does not read.
    """

    @staticmethod
    def expected(t):
        i, j = odd_positions(t) or (0, 0)
        # the bipartite relative; a degree-one face j drops out
        tt = [x + (k == i) - (k == j) for k, x in enumerate(t, start=1)]
        tt = tuple(x for x in tt if x)
        steps = default_schedule(tt)
        want = []
        for prev, cur in zip(steps, steps[1:]):
            if len(cur) > len(prev):
                want += [sum(prev) // 2, 2]
            else:
                face = next(k for k, (x, y) in enumerate(zip(prev, cur), start=1) if x != y)
                want += decoration_radices(Identity.TWO_CORNERS_SAME_FACE, "lhs", prev, face)
        if not i:
            return want
        if t[j - 1] == 1:
            return want + list(decoration_radices(Identity.UNIT_FACE, "rhs", tt, i))
        return want + list(decoration_radices(Identity.FACE_TO_FACE, "rhs", tt, i, j))

    def test_every_type_to_eight_edges(self):
        types = list(admissible_types(8))
        assert len(types) == 4863
        for t in types:
            rng = Odometer()
            sample(t, rng)
            assert rng.radices == self.expected(t), t


def binned_chisquare(observed, law):
    """chisquare of observed counts against law, a count per value.

    Neighbouring values are merged from the smallest up until each bin
    expects at least 5 draws; the remainder joins the last bin.
    """
    n = sum(observed.values())
    total = sum(law.values())
    obs, exp = [], []
    o = e = 0
    for k in sorted(law):
        o += observed.get(k, 0)
        e += n * law[k] / total
        if e >= 5:
            obs.append(o)
            exp.append(e)
            o = e = 0
    obs[-1] += o
    exp[-1] += e
    assert sum(obs) == n, "a draw outside the support of the law"
    return chisquare(obs, exp)[1]


class TestOneFaceLaws:
    """Exact laws of uniform plane trees, far beyond the enumerator.

    A map of type (2E,) is a plane tree with E edges rooted at its
    marked corner.  Growing it runs grow_same on one face only, so all
    three cases, the pinched slits among them, are exercised at E=30.
    """

    E, N = 30, 2000

    @pytest.fixture(scope="class")
    def trees(self):
        return [sample((2 * self.E,), s) for s in range(self.N)]

    def test_non_root_leaves_follow_narayana(self, trees):
        e = self.E
        narayana = {k: comb(e, k) * comb(e, k - 1) // e for k in range(1, e + 1)}
        leaves, with_root = Counter(), Counter()
        for m in trees:
            root = m.vertex_of(m.marked[0])
            degrees = [len(ds) for ds in m.vertices()]
            k = sum(d == 1 for d in degrees) - (degrees[root] == 1)
            leaves[k] += 1
            with_root[k + (degrees[root] == 1)] += 1
        assert binned_chisquare(leaves, narayana) > 0.001
        # counting a root of degree one as a leaf is the wrong statistic,
        # and the test has the power to see it
        assert binned_chisquare(with_root, narayana) < 1e-4

    def test_root_children_follow_ballot_counts(self, trees):
        e = self.E
        ballot = {k: k * comb(2 * e - k, e) // (2 * e - k) for k in range(1, e + 1)}
        assert sum(ballot.values()) == comb(2 * e, e) // (e + 1)
        children = Counter(len(m.vertex_darts(m.vertex_of(m.marked[0]))) for m in trees)
        assert binned_chisquare(children, ballot) > 0.001


class TestResume:
    def test_initial_continues_route(self):
        rng = random.Random(3)
        m0 = sample_bipartite((4,), rng)
        m1 = sample_bipartite((4, 4), rng, initial=(m0, (4,)))
        assert m1.degrees == (4, 4)

    def test_initial_type_mismatch(self):
        m0 = sample_bipartite((4,), 0)
        with pytest.raises(BadSchedule):
            sample_bipartite((4, 4), 0, initial=(m0, (2, 2)))

    def test_initial_not_a_map_type_pair(self):
        # TypeError, ValueError and AttributeError before
        m0 = sample_bipartite((4,), 0)
        for initial in (5, (m0,), (5, (4,))):
            with pytest.raises(BadSchedule):
                sample_bipartite((4, 4), 0, initial=initial)
        assert sample_bipartite((4, 4), 0, initial=[m0, (4,)]).degrees == (4, 4)

    def test_initial_off_route(self):
        m0 = sample_bipartite((2, 2), 0)
        with pytest.raises(BadSchedule):
            sample_bipartite((4, 4), 0, initial=(m0, (2, 2)))

    def test_initial_stays_uniform(self):
        # two-stage sampling through an intermediate uniform (4,) map
        support = sorted(m.canonical_code() for m in enumerate_maps((4, 2)))
        cnt = Counter()
        for s in range(4000):
            rng = random.Random(s)
            mid = sample_bipartite((4,), rng)
            cnt[sample_bipartite((4, 2), rng, initial=(mid, (4,))).canonical_code()] += 1
        _, p = chisquare([cnt.get(c, 0) for c in support])
        assert p > 0.001

    def test_explicit_schedule_stays_uniform(self):
        # digon appended before face 1 is fully grown
        support = sorted(m.canonical_code() for m in enumerate_maps((4, 2)))
        sched = [(2,), (2, 2), (4, 2)]
        cnt = Counter(
            sample_bipartite((4, 2), s, schedule=sched).canonical_code()
            for s in range(4000)
        )
        _, p = chisquare([cnt.get(c, 0) for c in support])
        assert p > 0.001


class TestRouteCache:
    """The default route and its grown faces, kept once per checked type."""

    ACCEPTANCE_8 = ((2, 2), (4, 2), (3, 1), (4, 4), (3, 3))

    def codes(self):
        return [sample(t, s).canonical_code() for t in self.ACCEPTANCE_8 for s in range(50)]

    def test_default_path_equals_explicit_routes(self, monkeypatch):
        real = sampler.sample_bipartite
        default = self.codes()

        def by_schedule(a, rng):
            return real(a, rng, schedule=default_schedule(a))

        def by_initial(a, rng):
            # resume half way along the route, with the same generator
            steps = default_schedule(a)
            start = steps[(len(steps) - 1) // 2]
            r = rng if isinstance(rng, random.Random) else random.Random(rng)
            return real(a, r, initial=(real(start, r), start))

        # sample and sample_quasibipartite grow every bipartite map
        # through the module's _default_map
        for route in (by_schedule, by_initial):
            monkeypatch.setattr(sampler, "_default_map", route)
            assert self.codes() == default, route.__name__

    def test_cache_stays_bounded(self):
        maxsize = sampler._route.cache_info().maxsize
        # every even type of 1..9 edges: a face of 2 per edge, then merged
        # with its left neighbour or not, 2**9 - 1 = 511 types in all
        types = []
        for n in range(1, 10):
            for merge in product((False, True), repeat=n - 1):
                t = [2]
                for m in merge:
                    t[-1:] = [t[-1] + 2] if m else [t[-1], 2]
                types.append(tuple(t))
        assert len(set(types)) == len(types) == 511 > maxsize
        for t in types:
            assert sample_bipartite(t, 7).degrees == t
        info = sampler._route.cache_info()
        assert 0 < info.currsize <= maxsize

    def test_explicit_routes_checked_after_caching(self):
        assert sample_bipartite((4, 4), 0).degrees == (4, 4)  # the route of (4, 4) is kept
        assert sampler._route.cache_info().currsize > 0
        bad = (
            [(2,), (4,), (4, 4)],
            [(2,), (4,), (4, 2), (4, 4), (4, 4)],
            [(2,), (2, 2), (2, 4), (4, 4), (6, 4)],
            [(4,), (4, 2), (4, 4)],
        )
        for sched in bad:
            with pytest.raises(BadSchedule):
                sample_bipartite((4, 4), 0, schedule=sched)
        off_route = sample_bipartite((2, 2), 0)
        with pytest.raises(BadSchedule):
            sample_bipartite((4, 4), 0, initial=(off_route, (2, 2)))


class TestDispatch:
    def test_parity_errors(self):
        with pytest.raises(TooManyOddFaces):
            sample((3, 3, 3, 1), 0)
        with pytest.raises(BadParity):
            sample_quasibipartite((2, 2), 0)

    def test_quasibipartite_routes(self):
        # generic transfer and the dropped-coordinate loop split
        assert sample_quasibipartite((3, 3), 4).degrees == (3, 3)
        assert sample_quasibipartite((3, 1), 4).degrees == (3, 1)
        assert sample_quasibipartite((1, 5), 4).degrees == (1, 5)
        assert sample_quasibipartite((2, 1, 1), 4).degrees == (2, 1, 1)
