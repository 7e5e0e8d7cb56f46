import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodix.folner import (
    FiniteSet,
    FullSet,
    Homomorphism,
    ProgressionSet,
    ResidueClassSet,
    SetPredicate,
    _box_counts,
    add,
    as_element,
    best_shift_for_density,
    box_schedule,
    box_window,
    custom_window,
    difference_counts,
    element_row,
    folner_defect,
    inverse_product,
    lower_density,
    relative_density_witness,
    shift_window,
    tempelman_ratio,
)
from ergodix._parallel import table_means
from test_parallel import FAR, batch_sizes, schedules


class PointRule(SetPredicate):
    """A membership rule of one point, a tuple of ints: ``mask`` decides its
    table row by row, in order, and records the rows it was handed."""

    def __init__(self, rule):
        self.rule, self.seen = rule, []

    def mask(self, points):
        rows = list(map(tuple, points.tolist()))
        self.seen.extend(rows)
        return np.array([bool(self.rule(g)) for g in rows], dtype=bool)


def contains(pred, g):
    """Membership of one element: the one-row ``mask``."""
    return bool(pred.mask(element_row(g))[0])


class Complement(SetPredicate):
    def __init__(self, pred):
        self.pred = pred

    def mask(self, points):
        return ~self.pred.mask(points)


def brute_inverse_product(points):
    return {tuple(-a + b for a, b in zip(p, q)) for p in points for q in points}


class TestBoxWindow:
    def test_q1_n1(self):
        w = box_window(1, 1)
        assert set(w.iter_elements()) == {(-1,), (0,), (1,)}
        assert w.size == 3

    def test_q2_n1_size(self):
        assert box_window(2, 1).size == 9

    def test_q1_n10_size(self):
        assert box_window(1, 10).size == 21

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            box_window(0, 1)
        with pytest.raises(ValueError):
            box_window(1, 0)

    def test_contains(self):
        w = box_window(2, 3)
        assert (3, -3) in w
        assert (4, 0) not in w


class TestInverseProduct:
    def test_box_n1(self):
        ip = inverse_product(box_window(1, 1))
        assert set(ip.iter_elements()) == {(-2,), (-1,), (0,), (1,), (2,)}
        assert ip.size == 5

    def test_box_n3_size(self):
        assert inverse_product(box_window(1, 3)).size == 13

    def test_singleton(self):
        w = custom_window(1, [5])
        assert set(inverse_product(w).iter_elements()) == {(0,)}

    def test_box_matches_enumeration(self):
        for n in (1, 2, 3):
            w = box_window(2, n)
            assert set(inverse_product(w).iter_elements()) == \
                brute_inverse_product(list(w.iter_elements()))


def lag_tuples(lags):
    return [tuple(h) for h in lags.tolist()]


def custom_points(q):
    """Point sets of 1 to 12 points in [-6, 6]^q."""
    return st.sets(st.tuples(*[st.integers(-6, 6)] * q), min_size=1, max_size=12)


class TestDifferenceCounts:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), q=st.integers(1, 3))
    def test_custom_matches_brute_force(self, data, q):
        pts = data.draw(custom_points(q))
        w = custom_window(q, pts)
        lags, counts = difference_counts(w)
        hs = lag_tuples(lags)
        assert hs == sorted(brute_inverse_product(pts))
        assert counts.tolist() == [w.overlap_with_translate(h) for h in hs]
        assert sum(counts.tolist()) == w.size ** 2

    def test_single_point(self):
        lags, counts = difference_counts(custom_window(2, [(-3, 7)]))
        assert lag_tuples(lags) == [(0, 0)]
        assert counts.tolist() == [1]

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_box_closed_form_matches_enumeration(self, q, n):
        box = box_window(q, n, center=[2 - i for i in range(q)])
        enumerated = custom_window(q, box.iter_elements())
        lags, counts = difference_counts(box)
        assert lag_tuples(lags) == lag_tuples(difference_counts(enumerated)[0])
        assert counts.tolist() == difference_counts(enumerated)[1].tolist()
        assert lag_tuples(lags) == sorted(brute_inverse_product(list(box.iter_elements())))

    @pytest.mark.parametrize("q, pts", [
        # coordinates whose differences leave int64
        (2, [(0, 2 ** 70), (3, -2 ** 70), (1, 1), (1, 2 ** 70)]),
        # small coordinates whose joint lag box has more than 2^63 points
        (4, [(0, 0, 0, 0), (10 ** 5, -10 ** 5, 10 ** 5, 10 ** 5), (1, 2, 3, 4)]),
    ])
    def test_exact_for_any_coordinates(self, q, pts):
        w = custom_window(q, pts)
        lags, counts = difference_counts(w)
        hs = lag_tuples(lags)
        assert hs == sorted(brute_inverse_product(pts))
        assert counts.tolist() == [w.overlap_with_translate(h) for h in hs]
        assert set(inverse_product(w).iter_elements()) == set(hs)


class TestTempelmanRatio:
    def test_q1_n1_enumeration_oracle(self):
        w = box_window(1, 1)
        pts = list(w.iter_elements())
        assert len(brute_inverse_product(pts)) == 5
        assert tempelman_ratio(w) == 5 / 3

    def test_q1_closed_form_and_bound(self):
        for n in range(1, 101):
            r = tempelman_ratio(box_window(1, n))
            assert r == (4 * n + 1) / (2 * n + 1)
            assert r <= 2

    def test_q2_n1_enumeration_oracle(self):
        w = box_window(2, 1)
        assert len(brute_inverse_product(list(w.iter_elements()))) == 25
        assert tempelman_ratio(w) == 25 / 9
        assert tempelman_ratio(w) <= 4

    def test_custom_window(self):
        w = custom_window(1, [0, 1, 3])
        # differences of {0,1,3}: {-3,-2,-1,0,1,2,3}
        assert tempelman_ratio(w) == 7 / 3


class TestFolnerDefect:
    def test_unit_shift_law(self):
        for n in (1, 2, 7, 40):
            w = box_window(1, n)
            # oracle: the symmetric difference is the two extreme points
            pts = set(w.iter_elements())
            moved = {(x + 1,) for (x,) in pts}
            assert len(pts ^ moved) == 2
            assert folner_defect(w, 1) == 2 / (2 * n + 1)

    def test_zero_shift(self):
        assert folner_defect(box_window(3, 2), (0, 0, 0)) == 0.0

    def test_disjoint_translate(self):
        assert folner_defect(box_window(1, 1), 5) == 2.0

    def test_monotone_decay(self):
        g = 3
        vals = [folner_defect(box_window(1, n), g) for n in range(4, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.2

    def test_custom_matches_box(self):
        for n in (1, 2, 3):
            for g in (-2, 0, 1, 4):
                w = box_window(1, n)
                wc = custom_window(1, [x for (x,) in w.iter_elements()])
                assert folner_defect(w, g) == folner_defect(wc, g)


class TestShiftWindow:
    def test_translate(self):
        w = shift_window(box_window(1, 1), 2)
        assert set(w.iter_elements()) == {(1,), (2,), (3,)}

    def test_identity_shift(self):
        w = box_window(2, 2)
        assert set(shift_window(w, (0, 0)).iter_elements()) == set(w.iter_elements())

    def test_size_preserved(self):
        w = box_window(2, 3)
        assert shift_window(w, (5, -7)).size == w.size

    def test_defect_invariance(self):
        w = box_window(1, 4)
        for h in (-3, 2, 11):
            shifted = shift_window(w, h)
            for g in (1, 2, 9):
                assert folner_defect(shifted, g) == folner_defect(w, g)


def test_uniform_defect_over_finite_candidate_set():
    # the worst defect over a fixed finite set of shifts decays monotonically
    candidates = [(g,) for g in range(-3, 4)]
    worst = [max(folner_defect(box_window(1, n), g) for g in candidates)
             for n in range(4, 60)]
    assert all(a >= b for a, b in zip(worst, worst[1:]))
    assert worst[-1] < 0.06


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), q=st.integers(1, 2),
       g=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       h=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_shift_invariance_property(n, q, g, h):
    w = box_window(q, n)
    shifted = shift_window(w, h[:q])
    assert shifted.size == w.size
    assert folner_defect(shifted, g[:q]) == folner_defect(w, g[:q])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 15), q=st.integers(1, 2))
def test_tempelman_bound_property(n, q):
    assert tempelman_ratio(box_window(q, n)) <= 2 ** q


class TestLowerDensity:
    def test_evens(self):
        rep = lower_density(ResidueClassSet(2, (0,)), box_schedule(1, 1, 50))
        for n, ratio in zip(rep.n.tolist(), rep.ratios.tolist()):
            expected = ((n + 1) if n % 2 == 0 else n) / (2 * n + 1)
            assert ratio == expected
            assert abs(ratio - 0.5) <= 1 / (2 * n + 1)

    def test_full_set(self):
        rep = lower_density(FullSet(), box_schedule(1, 1, 10))
        assert rep.lower_density == 1.0

    def test_squares_thin(self):
        squares = PointRule(lambda g: g[0] >= 0 and math.isqrt(g[0]) ** 2 == g[0])
        wins = box_schedule(1, 1, 200)
        rep = lower_density(squares, wins)
        ratios = rep.ratios.tolist()
        # oracle: at most 2*sqrt(n)+1 squares in {-n..n}
        for n, r in zip(rep.n.tolist(), ratios):
            assert r <= (2 * math.sqrt(n) + 1) / (2 * n + 1)
        tail = ratios[len(ratios) * 3 // 4:]
        assert min(tail) < 0.08
        assert ratios[-1] < ratios[0]

    def test_complement_sums_to_one(self):
        pred = ResidueClassSet(3, (0, 1))
        comp = Complement(pred)
        wins = box_schedule(1, 1, 20)
        r1 = lower_density(pred, wins)
        r2 = lower_density(comp, wins)
        for a, b in zip(r1.ratios.tolist(), r2.ratios.tolist()):
            assert a + b == 1.0

    @pytest.mark.parametrize("q", [1, 2])
    def test_each_point_tested_once(self, q):
        big_n = 12
        pred = PointRule(lambda g: g[0] % 3 == 0)
        rep = lower_density(pred, box_schedule(q, 1, big_n))
        assert len(pred.seen) == len(set(pred.seen)) == (2 * big_n + 1) ** q
        assert rep.ratios[-1] == 9 / 25  # multiples of 3 in -12..12

    @pytest.mark.parametrize("q", [1, 2])
    def test_ratios_on_mixed_schedules(self, q):
        pred = ResidueClassSet(3, (0, 2), coeffs=(1,) * q)
        for windows in schedules(q):
            rep = lower_density(pred, windows)
            for w, n, ratio in zip(windows, rep.n.tolist(), rep.ratios.tolist(), strict=True):
                count = sum(1 for g in w.iter_elements() if contains(pred, g))
                assert n == w.index
                assert ratio == count / w.size


class TestRelativeDensityWitness:
    def test_residues_cover(self):
        res = relative_density_witness(
            ResidueClassSet(3, (0,)), box_window(1, 10), [0, 1, 2])
        assert res.accepted

    def test_single_candidate_fails(self):
        res = relative_density_witness(
            ResidueClassSet(3, (0,)), box_window(1, 3), [0])
        assert not res.accepted
        assert res.failing_point is not None
        g = res.failing_point
        assert g[0] % 3 != 0

    def test_full_set_trivial(self):
        res = relative_density_witness(FullSet(), box_window(1, 5), [0])
        assert res.accepted

    @pytest.mark.parametrize("center", [(1, -2), (FAR, -FAR)])
    def test_first_failing_point_is_brute_force(self, center):
        # x + 2y = 4 mod 7 is the one residue whose three shifts miss {0, 3}
        pred = ResidueClassSet(7, (0, 3), coeffs=(1, 2))
        scan = box_window(2, 6, center=center)
        cands = [(0, 0), (1, 0), (0, 1)]
        failing = [g for g in scan.iter_elements()
                   if not any(contains(pred, add(g, c)) for c in cands)]
        assert len(failing) > 1
        recorded = PointRule(lambda g: contains(pred, g))
        res = relative_density_witness(recorded, scan, cands)
        assert not res.accepted
        assert res.failing_point == failing[0]
        # one mask over the bounding box of the g + g_j, in lexicographic order
        lo, hi = scan.bounds()
        assert recorded.seen == list(itertools.product(
            *(range(a, b + 2) for a, b in zip(lo, hi))))

    @pytest.mark.parametrize("center", [(1, -2), (FAR, -FAR)])
    def test_far_candidates_read_a_point_table(self, monkeypatch, center):
        # 10^6 is 1 mod 7, so these shifts miss the same points as (1, 0), (0, 1)
        pred = ResidueClassSet(7, (0, 3), coeffs=(1, 2))
        scan = box_window(2, 6, center=center)
        cands = [(0, 0), (10 ** 6, 0), (0, 10 ** 6)]
        failing = [g for g in scan.iter_elements()
                   if not any(contains(pred, add(g, c)) for c in cands)]
        assert len(failing) > 1
        for _ in batch_sizes(monkeypatch):
            recorded = PointRule(lambda g: contains(pred, g))
            res = relative_density_witness(recorded, scan, cands)
            assert not res.accepted
            assert res.failing_point == failing[0]
            assert recorded.seen == list(dict.fromkeys(
                add(g, c) for g in scan.iter_elements() for c in cands))


class TestFiniteSetDensities:
    """The three density functions on a FiniteSet against a brute-force
    ``g in S`` count."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("fill", [0.2, 0.9])
    def test_match_brute_force_membership(self, q, fill):
        rng = np.random.default_rng([q, int(10 * fill)])
        grid = box_window(q, 14, center=(-3,) * q)
        members = {g for g in grid.iter_elements() if rng.random() < fill}
        pred = FiniteSet(frozenset(members))

        def ratio(w):
            return sum(1 for g in w.iter_elements() if g in members) / w.size

        windows = [box_window(q, n, center=(-3, 2)[:q]) for n in (1, 4, 7)]
        windows.append(custom_window(q, [(-9, -11)[:q], (0, 1)[:q], (-2, -2)[:q]]))
        rep = lower_density(pred, windows)
        assert rep.n.tolist() == [w.index for w in windows]
        assert rep.ratios.tolist() == [ratio(w) for w in windows]

        cands = [(-2, 1)[:q], (1, -3)[:q], (0, 0)[:q], (3, 3)[:q]]
        for w in windows:
            ratios = [ratio(shift_window(w, c)) for c in cands]
            best = ratios.index(max(ratios))
            assert best_shift_for_density(w, pred, cands) == (cands[best], ratios[best])

        scan = box_window(q, 6, center=(-4, 1)[:q])
        failing = [g for g in scan.iter_elements()
                   if not any(add(g, c) in members for c in cands)]
        res = relative_density_witness(pred, scan, cands)
        assert res.accepted == (not failing)
        assert res.failing_point == (failing[0] if failing else None)


def indicator_means(pred, windows):
    """The densities as the mean of the 0.0/1.0 indicator over a point table."""
    return table_means(lambda pts: pred.mask(pts).astype(np.float64), windows).tolist()


def four_predicates(q):
    """One predicate of each built-in kind in Z^q."""
    rng = np.random.default_rng(q)
    members = frozenset(g for g in box_window(q, 9, center=(-2,) * q).iter_elements()
                        if rng.random() < 0.4)
    return [ResidueClassSet(5, (1, 3, 7), coeffs=(2, -1, 3)[:q]),
            ProgressionSet(start=(1, -2, 0)[:q], step=(3, 0, -2)[:q] if q > 1 else (3,)),
            FiniteSet(members),
            FullSet()]


def box_schedules(q):
    """Box schedules whose joint bounding box holds at most their total size:
    nested, strided, shifted to negative centres or beyond int64 sums, and
    the candidate-shifted copies of one box."""
    shifted = [box_window(q, n, center=(-n - 3, 2 * n, -1)[:q]) for n in (2, 4, 6, 8)]
    moved = [shift_window(box_window(q, 5, center=(-4,) * q), c[:q])
             for c in [(0, 0, 0), (1, -1, 2), (-2, 0, 1), (1, -1, 2)]]
    return [box_schedule(q, 1, 6), box_schedule(q, 1, 13, stride=4), shifted,
            [shift_window(w, (-7,) * q) for w in box_schedule(q, 2, 8, stride=3)],
            [shift_window(box_window(q, 3), (c,) * q) for c in (0, 1, -1)], moved,
            [shift_window(w, (FAR - 3,) + (-FAR,) * (q - 1)) for w in box_schedule(q, 1, 3)]]


class TestBoxCounts:
    """The summed-area grid against the indicator mean over a point table."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_grid_equals_table(self, q):
        for pred in four_predicates(q):
            for windows in box_schedules(q):
                counts = _box_counts(pred, windows)
                assert counts is not None
                expected = indicator_means(pred, windows)
                assert [c / w.size for c, w in zip(counts, windows)] == expected
                rep = lower_density(pred, windows)
                assert rep.ratios.tolist() == expected

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_table_path_keeps_its_values(self, q):
        """Custom windows and scattered boxes read the point table; every
        schedule's densities stay those of the table."""
        _, _, custom, _, disjoint, far, mixed = schedules(q)
        for pred in four_predicates(q):
            for windows in (custom, disjoint, far, mixed):
                assert _box_counts(pred, windows) is None
            for windows in schedules(q):
                rep = lower_density(pred, windows)
                assert rep.ratios.tolist() == indicator_means(pred, windows)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_best_shift_equals_table(self, q):
        cands = [(2, -1, 0), (-3, 0, 4), (0, 0, 0), (2, -1, 0), (1, 1, -1)]
        cands = [c[:q] for c in cands]
        for pred in four_predicates(q):
            for w in (box_window(q, 4), box_window(q, 7, center=(-5, 3, -9)[:q])):
                ratios = indicator_means(pred, [shift_window(w, c) for c in cands])
                best = ratios.index(max(ratios))  # the first maximum
                assert best_shift_for_density(w, pred, cands) == (cands[best], ratios[best])

    def test_best_shift_far_candidates(self):
        pred = ResidueClassSet(3, (0,), coeffs=(1, 2))
        w = box_window(2, 5)
        cands = [(0, 0), (10 ** 6, 0), (1, 10 ** 6)]  # 10^6 is 1 mod 3: a tie
        assert _box_counts(pred, [shift_window(w, c) for c in cands]) is None
        ratios = indicator_means(pred, [shift_window(w, c) for c in cands])
        assert ratios == [41 / 121, 40 / 121, 41 / 121]
        assert best_shift_for_density(w, pred, cands) == ((0, 0), 41 / 121)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_witness_equals_brute_force(self, q):
        for pred in four_predicates(q):
            for cands in ([(0, 0, 0)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                          [(-2, 1, 0), (3, 3, -1)], [(0, 0, 0), (10 ** 6, -1, 2)]):
                cands = [c[:q] for c in cands]
                for scan in (box_window(q, 3), box_window(q, 5, center=(-4, 6, 1)[:q])):
                    sums = [add(g, c) for g in scan.iter_elements() for c in cands]
                    hits = pred.mask(np.array(sums, dtype=object))
                    members = {g for g, hit in zip(sums, hits) if hit}
                    failing = [g for g in scan.iter_elements()
                               if not any(add(g, c) in members for c in cands)]
                    res = relative_density_witness(pred, scan, cands)
                    assert res.accepted == (not failing)
                    assert res.failing_point == (failing[0] if failing else None)

    def test_scale(self):
        """Nested q = 2 boxes to n = 320 count on one 641 x 641 grid; a point
        table of them gathers about 44 million rows."""
        pred = ResidueClassSet(3, (0,), (1, 2))
        windows = box_schedule(2, 1, 320)
        start = time.perf_counter()
        rep = lower_density(pred, windows)
        assert time.perf_counter() - start < 1.0
        axis = np.arange(-320, 321)
        count = int(((axis[:, None] + 2 * axis[None, :]) % 3 == 0).sum())
        assert (rep.n[-1], rep.ratios[-1]) == (320, count / 641 ** 2)


class TestAsElement:
    def test_numpy_integers_accepted(self):
        assert as_element(np.int64(3)) == (3,)
        assert as_element([np.int32(-1), 2], 2) == (-1, 2)
        assert all(type(x) is int for x in as_element(np.array([4, 5])))

    @pytest.mark.parametrize("bad", [0.5, [0.5], [1, 2.0], "ab", [None]])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"group element {bad!r}")):
            as_element(bad)

    def test_custom_window_does_not_truncate(self):
        with pytest.raises(ValueError, match=re.escape("group element [0.5]")):
            custom_window(1, [[0.5]])


class TestBestShift:
    def test_ratio_at_least_one_over_r(self):
        shift, ratio = best_shift_for_density(
            box_window(1, 1), ResidueClassSet(3, (0,)), [0, 1, 2])
        assert ratio >= 1 / 3

    def test_full_set(self):
        _, ratio = best_shift_for_density(box_window(1, 4), FullSet(), [2])
        assert ratio == 1.0

    def test_exact_third(self):
        w = custom_window(1, range(0, 9))
        shift, ratio = best_shift_for_density(w, ResidueClassSet(3, (0,)), [0, 1, 2])
        assert ratio == 1 / 3
        assert shift == (0,)  # tie broken toward the lowest index

    def test_tie_break_deterministic(self):
        w = box_window(1, 1)
        shift, _ = best_shift_for_density(w, FullSet(), [5, 6, 7])
        assert shift == (5,)

    def test_tie_break_plane(self):
        # x + y even: 13 of the 25 points of the radius-2 box, 12 after an
        # odd shift; (1, 1) and (2, 0) tie at 13
        even = ResidueClassSet(2, (0,), coeffs=(1, 1))
        shift, ratio = best_shift_for_density(
            box_window(2, 2), even, [(1, 0), (0, 1), (1, 1), (2, 0)])
        assert shift == (1, 1)
        assert ratio == 13 / 25


class TestHomomorphisms:
    def test_scalar_action(self):
        h = Homomorphism.scalar(2, 3)
        assert h.apply_table(element_row((1, -2))).tolist() == [[3, -6]]

    def test_matrix_action_additive(self):
        h = Homomorphism.from_matrix([[1, 2], [0, 1]])
        a, b = (1, 2), (-3, 5)
        ab = tuple(x + y for x, y in zip(a, b))
        img_a, img_b, img_ab = h.apply_table(np.array([a, b, ab])).tolist()
        assert img_ab == [x + y for x, y in zip(img_a, img_b)]

    def test_from_matrix_does_not_truncate(self):
        assert Homomorphism.from_matrix([[np.int64(2)]]).matrix == ((2,),)
        for bad in ([[0.5]], [[1, 0], [0, 2.0]]):
            with pytest.raises(ValueError, match="non-integer entry"):
                Homomorphism.from_matrix(bad)

    def test_predicate_serialization(self):
        preds = [
            ResidueClassSet(3, (0, 2)),
            FiniteSet(frozenset({(1,), (4,)})),
            ProgressionSet((0,), (3,)),
            FullSet(),
        ]
        for p in preds:
            assert "kind" in p.to_json()

    def test_progression_membership(self):
        p = ProgressionSet((1, 0), (2, 3))
        assert contains(p, (1, 0))
        assert contains(p, (5, 6))
        assert not contains(p, (5, 5))
        assert contains(p, (-1, -3))

    @pytest.mark.parametrize("start,step", [((0,), (2, 1)), ((0, 0), (2,))])
    def test_progression_ranks_must_agree(self, start, step):
        with pytest.raises(ValueError, match="progression start has rank"):
            ProgressionSet(start, step)


class TestResidueClassSet:
    @pytest.mark.parametrize("modulus,residues,coeffs,reduced", [
        (3, (-1, 5), None, (2,)),
        (4, (7, -8, 4), None, (3, 0)),
        (3, (-1, 5), (1, 1), (2,)),
        (5, (-3, 12, 9), (2, -1), (2, 4)),
    ])
    def test_residues_reduced_like_canonical(self, modulus, residues, coeffs, reduced):
        raw = ResidueClassSet(modulus, residues, coeffs)
        canonical = ResidueClassSet(modulus, reduced, coeffs)
        q = 1 if coeffs is None else len(coeffs)
        for g in box_window(q, 7).iter_elements():
            assert contains(raw, g) == contains(canonical, g)

    def test_equality_hash_repr_json_ignore_the_reduction(self):
        a = ResidueClassSet(3, (-1, 5), (1, 1))
        b = ResidueClassSet(3, (-1, 5), (1, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == "ResidueClassSet(modulus=3, residues=(-1, 5), coeffs=(1, 1))"
        assert a.to_json() == {"kind": "residue", "modulus": 3,
                               "residues": [-1, 5], "coeffs": [1, 1]}
        # same reduced residues, different inputs: still distinct values
        assert a != ResidueClassSet(3, (2,), (1, 1))


def reference_contains(pred, g):
    """Per-point membership, one rule per predicate kind, written out in
    exact tuple arithmetic: the reference each ``mask`` is checked against."""
    if isinstance(pred, ResidueClassSet):
        coeffs = pred.coeffs if pred.coeffs is not None else (1,) + (0,) * (len(g) - 1)
        val = sum(c * x for c, x in zip(coeffs, g, strict=True))
        return val % pred.modulus in {r % pred.modulus for r in pred.residues}
    if isinstance(pred, ProgressionSet):
        k = None
        for gi, si, ti in zip(g, pred.start, pred.step, strict=True):
            d = gi - si
            if ti == 0:
                if d != 0:
                    return False
            else:
                if d % ti != 0:
                    return False
                if k is None:
                    k = d // ti
                elif d // ti != k:
                    return False
        return True
    if isinstance(pred, FiniteSet):
        return g in pred.points
    assert isinstance(pred, FullSet)
    return True


# small coordinates, and ones near +-2^62 whose sums and products leave int64
coordinates = st.one_of(st.integers(-40, 40),
                        st.builds(lambda sign, d: sign * FAR + d,
                                  st.sampled_from([1, -1]), st.integers(-3, 3)))


@st.composite
def predicates_and_tables(draw):
    q = draw(st.integers(1, 3))
    element = st.tuples(*[coordinates] * q)
    rows = draw(st.lists(element, max_size=24))
    kind = draw(st.sampled_from(["residue", "progression", "finite", "all"]))
    if kind == "residue":
        coeffs = draw(st.none() | st.tuples(*[st.integers(-5, 5)] * q))
        modulus = draw(st.integers(1, 12) | st.sampled_from([FAR, 2 ** 64 + 3]))
        pred = ResidueClassSet(modulus, tuple(draw(st.lists(st.integers(-30, 30), max_size=4))),
                               coeffs)
    elif kind == "progression":
        step = draw(st.tuples(*[st.integers(-7, 7)] * q).filter(any))
        pred = ProgressionSet(draw(element), step)
        # members start + k * step, which random rows almost never hit
        rows += [tuple(s + k * t for s, t in zip(pred.start, step))
                 for k in draw(st.lists(st.integers(-10, 10), max_size=6))]
    elif kind == "finite":
        points = draw(st.lists(element, max_size=6))
        # rows of another rank are never members
        pred = FiniteSet(frozenset(points + [(0,) * (q + 1)]))
        rows += points
    else:
        pred = FullSet()
    return pred, q, draw(st.permutations(rows))


class TestMask:
    @settings(max_examples=200, deadline=None)
    @given(predicates_and_tables())
    # g - start = 2^63 + 2 is a multiple of 5, and wraps to one that is not
    @example((ProgressionSet((-FAR,), (5,)), 1, [(FAR + 2,)]))
    def test_mask_matches_the_per_point_rule(self, case):
        pred, q, rows = case
        expected = [reference_contains(pred, g) for g in rows]
        table = np.array(rows, dtype=object).reshape(len(rows), q)
        tables = [table]
        if all(abs(x) < 2 ** 63 for g in rows for x in g):
            tables.append(table.astype(np.int64))
        for t in tables:
            got = pred.mask(t)
            assert got.dtype == bool and got.shape == (len(rows),)
            assert got.tolist() == expected
        assert [contains(pred, g) for g in rows] == expected

    def test_finite_set_builds_its_member_tables_once(self):
        pred = FiniteSet(frozenset({(1, 2), (3, 4), (5,)}))
        pairs = np.array([[1, 2], [0, 0], [3, 4]], dtype=np.int64)
        singles = np.array([[5], [6]], dtype=object)
        assert pred.mask(pairs).tolist() == [True, False, True]
        members = dict(pred._members)
        for _ in range(3):
            assert pred.mask(pairs).tolist() == [True, False, True]
            assert pred.mask(singles).tolist() == [True, False]
            assert not pred.mask(np.zeros((2, 3), dtype=np.int64)).any()
        assert pred._members.keys() == members.keys() == {1, 2}
        assert all(pred._members[rank] is members[rank] for rank in members)

    @pytest.mark.parametrize("pred", [ResidueClassSet(3, (0,)), ProgressionSet((1, 0), (2, 3)),
                                      FiniteSet(frozenset({(1, 2)})), FullSet()])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty_table(self, pred, dtype):
        got = pred.mask(np.empty((0, 2), dtype=dtype))
        assert got.dtype == bool and got.shape == (0,)

    @pytest.mark.parametrize("pred", [ResidueClassSet(3, (0,), coeffs=(1, 2)),
                                      ProgressionSet((1, 0), (2, 3))])
    def test_rank_mismatch_raises(self, pred):
        with pytest.raises(ValueError, match="rank"):
            pred.mask(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="rank"):
            contains(pred, (1, 2, 3))
