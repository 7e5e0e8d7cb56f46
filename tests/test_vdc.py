import cmath
import math
import re

import numpy as np
import pytest

from ergodix._parallel import fsum_complex
from ergodix.invariants import _random_sequence
from ergodix.folner import add, box_window, custom_window, difference_counts, inverse_product
from ergodix.vdc import (
    VectorSequence,
    average_vector,
    check_double_average_bound,
    check_window_cauchy_schwarz,
    constant_sequence,
    difference_sum_bound,
    linear_phase_sequence,
    vdc_verdict,
    weyl_quadratic_sequence,
)
from test_parallel import per_row

ALPHA = math.sqrt(2.0) - 1.0


def gamma_table(rep) -> dict:
    """The report's gamma_h keyed by the lag h as a tuple, in lag order."""
    return dict(zip(map(tuple, rep.lags.tolist()), rep.gamma.tolist()))


def per_point(fn, bound: float = 1.0, dim: int = 1) -> VectorSequence:
    """The sequence whose table calls the one-point formula ``fn`` on each
    row, as a tuple of ints, in order."""
    rows = per_row(fn)
    return VectorSequence(
        lambda pts: np.array(rows(pts), dtype=np.complex128).reshape(len(pts), dim),
        bound=bound, dim=dim)


def random_sequence(seed: int, dim: int, bound: float = 50.0) -> VectorSequence:
    def fn(g):
        local = np.random.default_rng((hash(g) ^ seed) % 2 ** 32)
        return local.standard_normal(dim) + 1j * local.standard_normal(dim)

    return per_point(fn, bound=bound, dim=dim)


class TestVectorSequence:
    def test_bound_checked_lazily(self):
        f = VectorSequence(lambda pts: np.full((len(pts), 1), 10.0 + 0j), bound=1.0, dim=1)
        with pytest.raises(ValueError):
            f((0,))

    def test_shape_checked(self):
        f = VectorSequence(lambda pts: np.zeros((len(pts), 3), dtype=complex), bound=1.0, dim=2)
        with pytest.raises(ValueError, match=re.escape("shape (1, 3), expected (1, 2)")):
            f((0,))
        f = VectorSequence(lambda pts: np.zeros(2, dtype=complex), bound=1.0, dim=2)
        with pytest.raises(ValueError, match=re.escape("shape (2,), expected (3, 2)")):
            f.table(np.zeros((3, 1), dtype=np.int64))


class TestAverageVector:
    def test_constant(self):
        v = np.array([1.0, -2.0j])
        f = constant_sequence(v)
        assert np.allclose(average_vector(f, box_window(1, 7)), v)

    def test_alternating_signs(self):
        v = np.array([1.0 + 0j])
        f = VectorSequence(lambda pts: np.where(pts[:, :1] % 2 == 0, 1.0, -1.0) * v,
                           bound=1.0, dim=1)
        for n in (1, 4, 9):
            got = average_vector(f, box_window(1, n))
            # oracle: alternating sum over {-n..n} is +-1
            oracle = sum((-1.0) ** g for g in range(-n, n + 1)) / (2 * n + 1)
            assert np.allclose(got, oracle * v)
            assert abs(got[0]) == pytest.approx(1 / (2 * n + 1))

    def test_half_integer_phase_matches_alternating(self):
        v = np.array([1.0 + 0j])
        f = linear_phase_sequence(0.5, v)
        g = VectorSequence(lambda pts: np.where(pts[:, :1] % 2 == 0, 1.0, -1.0) * v,
                           bound=1.0, dim=1)
        for n in (1, 3, 6):
            w = box_window(1, n)
            assert np.allclose(average_vector(f, w), average_vector(g, w), atol=1e-12)


class TestWindowCauchySchwarz:
    def test_constant_saturates(self):
        v = np.array([2.0, 1.0j])
        f = constant_sequence(v)
        n = 4
        res = check_window_cauchy_schwarz(f, box_window(1, n))
        size = 2 * n + 1
        norm2 = float(np.linalg.norm(v) ** 2)
        assert res.lhs == pytest.approx(size ** 2 * norm2)
        assert res.rhs == pytest.approx(size ** 2 * norm2)
        assert res.holds

    def test_orthonormal_values(self):
        n = 3
        size = 2 * n + 1

        f = VectorSequence(lambda pts: np.eye(size, dtype=complex)[pts[:, 0] + n],
                           bound=1.0, dim=size)
        res = check_window_cauchy_schwarz(f, box_window(1, n))
        assert res.lhs == pytest.approx(size)       # Pythagoras
        assert res.rhs == pytest.approx(size ** 2)
        assert res.holds

    def test_hundred_random_trials(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            f = random_sequence(int(rng.integers(0, 2 ** 31)), int(rng.integers(1, 9)))
            assert check_window_cauchy_schwarz(f, box_window(1, int(rng.integers(1, 9)))).holds


class TestDoubleAverageBound:
    def test_constant(self):
        v = np.array([1.0 + 1.0j])
        f = constant_sequence(v)
        n1, n2 = 2, 3
        res = check_double_average_bound(f, box_window(1, n1), box_window(1, n2))
        s1, s2 = 2 * n1 + 1, 2 * n2 + 1
        norm2 = float(np.linalg.norm(v) ** 2)
        assert res.lhs == pytest.approx(s1 ** 2 * s2 ** 2 * norm2)
        assert res.rhs == pytest.approx(s1 ** 2 * s2 ** 2 * norm2)
        assert res.holds

    def test_hundred_random_trials(self):
        rng = np.random.default_rng(200)
        for _ in range(100):
            f = random_sequence(int(rng.integers(0, 2 ** 31)), int(rng.integers(1, 9)))
            w1 = box_window(1, int(rng.integers(1, 9)))
            w2 = box_window(1, int(rng.integers(1, 9)))
            assert check_double_average_bound(f, w1, w2).holds

    def test_weyl_strict_slack(self):
        f = weyl_quadratic_sequence(ALPHA, np.array([1.0]))
        res = check_double_average_bound(f, box_window(1, 4), box_window(1, 4))
        assert res.holds
        assert res.lhs < res.rhs  # strictly, with visible slack


def reference_double_average(f, inner, outer):
    """lhs and rhs of the double-average bound by a loop over tuples, f
    evaluated afresh at every use."""
    hs, gs = list(inner.iter_elements()), list(outer.iter_elements())
    total = np.zeros(f.dim, dtype=np.complex128)
    for g in gs:
        for h in hs:
            total = total + f(add(g, h))
    cols = np.stack([np.concatenate([f(add(g, h)) for g in gs]) for h in hs], axis=1)
    return float(np.linalg.norm(total) ** 2), outer.size * complex((cols.conj().T @ cols).sum()).real


class TestDoubleAverageTable:
    @pytest.mark.parametrize("inner, outer", [
        (box_window(2, 1), box_window(2, 2, (3, -4))),
        (custom_window(2, [(0, 0), (1, -2), (-3, 4)]), box_window(2, 1)),
        # sums beyond int64
        (custom_window(1, [0, 5, 2 ** 62 + 1]), box_window(1, 3, 2 ** 62)),
        (box_window(2, 1, (2 ** 62, -(2 ** 62))), custom_window(2, [(2 ** 62, 1), (0, -5)])),
    ])
    def test_matches_tuple_loop(self, inner, outer):
        f = random_sequence(31, dim=3)
        res = check_double_average_bound(f, inner, outer)
        lhs, rhs = reference_double_average(f, inner, outer)
        assert res.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert res.rhs == pytest.approx(rhs, rel=1e-12, abs=0)
        assert res.holds

    def test_sequence_called_once_per_distinct_sum(self):
        seen = []
        v = np.array([1.0 + 0j])
        f = per_point(lambda g: seen.append(g) or v)
        check_double_average_bound(f, box_window(2, 1), box_window(2, 2))
        # the sums of the two boxes fill the radius-3 box
        assert sorted(seen) == list(box_window(2, 3).iter_elements())


def random_gamma(seed: int):
    """A lag table integrand with a uniform value in [0, 3) at each lag, a
    function of (seed, lag)."""
    def value(h):
        return np.random.default_rng((hash(h) ^ seed) % 2 ** 32).uniform(0.0, 3.0)

    return lambda lags: np.array([value(h) for h in map(tuple, lags.tolist())])


class TestDifferenceSumBound:
    def test_random_trials(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            res = difference_sum_bound(random_gamma(int(rng.integers(0, 2 ** 31))),
                                       box_window(1, n))
            assert res.holds

    def test_exact_counts(self):
        # gamma identically 1: lhs = |W|^2, rhs = |W| * |W^-1 W|
        n = 3
        res = difference_sum_bound(lambda lags: np.ones(len(lags)), box_window(1, n))
        size = 2 * n + 1
        assert res.lhs == pytest.approx(size ** 2)
        assert res.rhs == pytest.approx(size * (4 * n + 1))


    @pytest.mark.parametrize("window", [
        box_window(1, 6, center=-11),
        box_window(2, 3, center=(4, -9)),
        custom_window(1, [-9, -4, 0, 1, 3, 11, 12, 30]),
        custom_window(2, [(0, 0), (1, 3), (-2, 5), (4, -1), (7, 7), (-6, -1)]),
    ])
    def test_lag_grouped_sum_matches_the_pair_sum(self, window):
        gamma = random_gamma(7)
        pts = list(window.iter_elements())
        pairs = [add(tuple(-x for x in a), b) for a in pts for b in pts]
        lhs = math.fsum(gamma(np.array(pairs)).tolist())
        diff = np.array(sorted(set(pairs)))
        rhs = window.size * math.fsum(gamma(diff).tolist())
        res = difference_sum_bound(gamma, window)
        assert res.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert res.rhs == pytest.approx(rhs, rel=1e-12, abs=0)
        assert res.holds


class TestVdcVerdict:
    def test_weyl_quadratic_decays(self):
        f = weyl_quadratic_sequence(ALPHA, np.array([1.0]))
        windows = [box_window(1, n) for n in (250, 500, 1000, 2000)]
        rep = vdc_verdict(f, windows)
        assert rep.statistic[-1] < 0.05
        assert rep.averages[-1] < 0.05
        assert rep.hypothesis_satisfied
        assert rep.conclusion_observed
        assert rep.gamma_window_index == 2000
        # gamma at lag 0 is the squared bound
        gamma0 = gamma_table(rep)[(0,)]
        assert gamma0.real == pytest.approx(1.0)

    def test_weyl_gamma_against_direct_sum(self):
        f = weyl_quadratic_sequence(ALPHA, np.array([1.0]))
        rep = vdc_verdict(f, [box_window(1, 40)])
        gamma = gamma_table(rep)
        for h in (-3, 0, 5):
            direct = sum(
                cmath.exp(2j * cmath.pi * ALPHA * ((g + h) ** 2 - g ** 2))
                for g in range(-40, 41)) / 81
            assert gamma[(h,)] == pytest.approx(direct, abs=1e-12)

    def test_linear_phase_flagged_one_sided(self):
        f = linear_phase_sequence(ALPHA, np.array([1.0]))
        windows = [box_window(1, n) for n in (100, 400, 2000)]
        rep = vdc_verdict(f, windows)
        assert not rep.hypothesis_satisfied
        assert rep.label == "hypothesis not satisfied; conclusion not implied"
        # the statistic is the exact difference-set mean of |gamma| = 1
        for n, s in zip(rep.n.tolist(), rep.statistic.tolist()):
            assert s == pytest.approx((4 * n + 1) / (2 * n + 1), abs=1e-9)
        assert rep.statistic[-1] >= 1.9
        # yet the averages do vanish
        assert rep.averages[-1] < 0.05
        assert rep.conclusion_observed

    def test_constant_fails_both(self):
        rep = vdc_verdict(constant_sequence(np.array([1.0])),
                          [box_window(1, n) for n in (5, 10, 20)])
        assert not rep.hypothesis_satisfied
        assert not rep.conclusion_observed
        assert rep.averages[-1] == pytest.approx(1.0)
        assert rep.label == "hypothesis not satisfied; conclusion not implied"

    def test_double_average_column(self):
        # (2.6.1)-style direct double average for the constant sequence:
        # (1/|W|^2) sum_{h1,h2} gamma_{h2-h1} = 1 exactly
        rep = vdc_verdict(constant_sequence(np.array([1.0])),
                          [box_window(1, 5)])
        assert rep.double_average[0].real == pytest.approx(1.0)
        assert abs(rep.double_average[0].imag) < 1e-12

    def test_plane_window_report(self):
        # two-dimensional boxes go through the generic lag path
        f = VectorSequence(
            lambda pts: np.exp(2j * np.pi * ALPHA * (pts ** 2).sum(axis=1).astype(float))[:, None],
            bound=1.0, dim=1)
        rep = vdc_verdict(f, [box_window(2, 2), box_window(2, 4)])
        gamma = gamma_table(rep)
        assert gamma[(0, 0)].real == pytest.approx(1.0)
        # direct double-sum oracle at a few lags
        n = 4
        for h in ((1, 0), (-2, 3), (0, -1)):
            direct = sum(
                np.conj(f((g1, g2))[0]) * f((g1 + h[0], g2 + h[1]))[0]
                for g1 in range(-n, n + 1) for g2 in range(-n, n + 1)
            ) / (2 * n + 1) ** 2
            assert gamma[h] == pytest.approx(direct, abs=1e-12)
        assert len(rep.statistic) == 2

    def test_generic_path_matches_box_path(self):
        f = weyl_quadratic_sequence(ALPHA, np.array([1.0]))
        w = box_window(1, 12)
        rep_box = vdc_verdict(f, [w])
        # same window presented as a custom point set
        wc = custom_window(1, [x for (x,) in w.iter_elements()])
        rep_custom = vdc_verdict(f, [wc])
        g1, g2 = gamma_table(rep_box), gamma_table(rep_custom)
        for h in g2:
            assert g1[h] == pytest.approx(g2[h], abs=1e-12)
        assert rep_box.statistic[0] == pytest.approx(rep_custom.statistic[0],
                                                        abs=1e-12)

    @pytest.mark.parametrize("windows, points", [
        # lag support {-150..150} of the n = 50 box holds every window
        ([box_window(1, n) for n in range(10, 51, 10)], 301),
        # generic path: lags {-60..60} around a 61-point custom window
        ([custom_window(1, range(-30, 31))], 181),
    ])
    def test_each_point_evaluated_once(self, windows, points):
        seen = []
        v = np.array([1.0 + 0j])
        f = per_point(lambda g: seen.append(g) or v)
        rep = vdc_verdict(f, windows)
        assert len(seen) == len(set(seen)) == points
        assert all(type(x) is int for g in seen for x in g)
        assert rep.averages[-1] == 1.0


    @pytest.mark.parametrize("window", [box_window(1, 5), custom_window(1, range(-5, 6))])
    def test_first_offending_point_is_reported(self, window):
        v = np.array([1.0 + 0j])

        # the table reaches -3 first: the box support is in tuple order, and
        # the custom window's g + h sums run g-major from g = -5
        with pytest.raises(ValueError, match=re.escape(
                "declared bound 1.0 violated at (-3,): |f(g)| = 2.0")):
            vdc_verdict(per_point(lambda g: 2 * v if g[0] in (7, -3) else v), [window])
        # the 31 points -15..15 of the lag support, each with a value of length 2
        with pytest.raises(ValueError, match=re.escape(
                "sequence values have shape (31, 2), expected (31, 1)")):
            vdc_verdict(VectorSequence(lambda pts: np.zeros((len(pts), 2)), bound=1.0, dim=1),
                        [window])


def reference_vdc(f, windows, h_max=None):
    """gamma, statistic, double average and averages of the generic lag path
    by tuple arithmetic: lags from all pairwise differences, overlaps by
    counting, f evaluated afresh at every use."""
    windows = sorted(windows, key=lambda w: w.size)
    largest = windows[-1]
    gs = list(largest.iter_elements())

    def diffs(pts):
        return sorted({add(tuple(-x for x in a), b) for a in pts for b in pts})

    lags = diffs(gs)
    if h_max is not None:
        lags = [h for h in lags if max(abs(x) for x in h) <= h_max]
    gamma = {h: complex(np.vdot(np.stack([f(g) for g in gs]),
                                np.stack([f(add(g, h)) for g in gs]))) / largest.size
             for h in lags}
    statistic, double_avg, averages = [], [], []
    for w in windows:
        pts = list(w.iter_elements())
        members = set(pts)
        terms, weighted = [], []
        for h in diffs(pts):
            if h in gamma:
                overlap = sum(1 for g in pts if add(g, h) in members)
                terms.append(abs(gamma[h]))
                weighted.append(overlap * gamma[h])
        statistic.append(math.fsum(terms) / w.size)
        double_avg.append(fsum_complex(weighted) / (w.size ** 2))
        cols = np.stack([f(g) for g in pts]).T
        total = np.array([fsum_complex(c.tolist()) for c in cols], dtype=np.complex128)
        averages.append(float(np.linalg.norm(total / w.size)))
    n = [w.index for w in windows]
    return tuple(gamma.items()), n, statistic, double_avg, averages


# a scattered q = 1 window, and a smaller one with lags (+-56, +-65, +-69,
# +-78) that the larger one lacks
SCATTERED = [custom_window(1, [-8, 5, 61, 70]),
             custom_window(1, [-41, -30, -29, -17, -3, 0, 2, 9, 10, 23, 38, 57])]


class TestGenericLagPath:
    @pytest.mark.parametrize("windows, h_max", [
        (SCATTERED, None),
        (SCATTERED, 12),
        ([custom_window(2, [(0, 0), (1, -2), (-3, 4), (5, 5), (2, -7), (-6, -1), (4, 0)])],
         None),
        ([box_window(2, n) for n in (1, 2, 3)], None),
        ([box_window(2, n) for n in (1, 3)], 2),
        # coordinates whose sums and differences leave int64
        ([custom_window(1, [0, 7, 2 ** 62, 5 - 2 ** 62])], None),
    ])
    def test_bit_identical_to_tuple_arithmetic(self, windows, h_max):
        f = random_sequence(77, dim=3)
        rep = vdc_verdict(f, windows, h_max=h_max)
        gamma, n, statistic, double_avg, averages = reference_vdc(f, windows, h_max)
        assert tuple(gamma_table(rep).items()) == gamma
        assert rep.n.tolist() == n
        assert rep.statistic.tolist() == statistic
        assert rep.double_average.tolist() == double_avg
        assert rep.averages.tolist() == averages

    @pytest.mark.parametrize("window", [
        custom_window(1, [-9, -4, 0, 1, 3, 11, 12, 30]),
        custom_window(2, [(0, 0), (1, 3), (-2, 5), (4, -1), (7, 7)]),
    ])
    def test_linear_phase_statistic_is_difference_ratio(self, window):
        # every |gamma_h| = 1, so the statistic is |W^-1 W| / |W|
        rep = vdc_verdict(linear_phase_sequence(ALPHA, np.array([1.0])), [window])
        ratio = inverse_product(window).size / window.size
        assert rep.statistic[0] == pytest.approx(ratio, abs=1e-9)


def vdot_box_reference(f, windows, h_max):
    """gamma of the largest q = 1 box by one ``np.vdot`` per lag over f on
    its lag support, and each window's statistic and double average from it
    (the overlap of a box with its h-translate is 2n + 1 - |h|)."""
    windows = sorted(windows, key=lambda w: w.size)
    largest = windows[-1]
    n, (c,) = largest.index, largest.center
    radius = 2 * n if h_max is None else min(h_max, 2 * n)
    vals = np.stack([f((x,)) for x in range(c - n - radius, c + n + radius + 1)])
    size = largest.size
    own = vals[radius:radius + size]
    gamma = {(h,): complex(np.vdot(own, vals[radius + h:radius + h + size])) / size
             for h in range(-radius, radius + 1)}
    statistic, double_avg = [], []
    for w in windows:
        lags = [h for h in range(-2 * w.index, 2 * w.index + 1) if (h,) in gamma]
        statistic.append(math.fsum(abs(gamma[(h,)]) for h in lags) / w.size)
        double_avg.append(fsum_complex((w.size - abs(h)) * gamma[(h,)] for h in lags)
                          / w.size ** 2)
    return gamma, statistic, double_avg


class TestBoxLagPath:
    @pytest.mark.parametrize("windows", [
        [box_window(1, 1)],
        [box_window(1, 2)],
        [box_window(1, 1), box_window(1, 7)],
        [box_window(1, 7, center=-40)],
        [box_window(1, 300)],
        # a smaller window off the largest one's lag support
        [box_window(1, 2, center=900), box_window(1, 300, center=123)],
    ])
    @pytest.mark.parametrize("h_max", [None, 0, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fft_matches_per_lag_vdot(self, windows, h_max, dim):
        f = random_sequence(11 * dim, dim)
        rep = vdc_verdict(f, windows, h_max=h_max)
        gamma, statistic, double_avg = vdot_box_reference(f, windows, h_max)
        assert list(gamma_table(rep)) == list(gamma)
        for h, g in gamma_table(rep).items():
            assert abs(g - gamma[h]) <= 1e-13
        for s, ref in zip(rep.statistic, statistic, strict=True):
            assert abs(s - ref) <= 1e-12
        for d, ref in zip(rep.double_average, double_avg, strict=True):
            assert abs(d - ref) <= 1e-12

    @pytest.mark.parametrize("h_max", [5, 20, 100])
    def test_lags_clamped_to_difference_set(self, h_max):
        f = random_sequence(5, dim=2)
        rep_box = vdc_verdict(f, [box_window(1, 10)], h_max=h_max)
        rep_custom = vdc_verdict(f, [custom_window(1, range(-10, 11))], h_max=h_max)
        assert np.array_equal(rep_box.lags, rep_custom.lags)
        for g1, g2 in zip(rep_box.gamma, rep_custom.gamma, strict=True):
            assert g1 == pytest.approx(g2, abs=1e-12)
        assert rep_box.statistic[0] == pytest.approx(rep_custom.statistic[0],
                                                        abs=1e-12)


class TestInvariantSequence:
    """The battery's random sequence is a counter hash of (seed, point)."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_rows_are_a_function_of_seed_and_point(self, q, dim):
        f = _random_sequence(np.random.default_rng(dim), dim)
        rows = np.random.default_rng(q).integers(-40, 40, size=(300, q), endpoint=True)
        vals = f.table(rows)
        perm = np.random.default_rng(5).permutation(len(rows))
        assert np.array_equal(f.table(rows[perm]), vals[perm])
        assert np.array_equal(f.table(rows[7:19]), vals[7:19])
        assert np.array_equal(f.table(rows.astype(object)), vals)
        assert np.array_equal(f(tuple(rows[3].tolist())), vals[3])
        other = _random_sequence(np.random.default_rng(dim + 100), dim)
        assert not np.array_equal(other.table(rows), vals)
        assert (np.linalg.norm(vals, axis=1) < f.bound).all()
        # the real and imaginary parts are standard normal
        parts = np.concatenate([vals.real.ravel(), vals.imag.ravel()])
        assert abs(parts.mean()) < 0.15 and abs(parts.std() - 1.0) < 0.15

    def test_points_beyond_int64(self):
        # coordinates enter the hash mod 2^64, so x and x + 2^64 share values
        f = _random_sequence(np.random.default_rng(3), 2)
        rows = np.array([[2 ** 70 + 9], [-(2 ** 70) - 9], [5], [5 + 2 ** 64]], dtype=object)
        vals = f.table(rows)
        assert np.array_equal(vals[2], vals[3])
        assert not np.array_equal(vals[0], vals[1])
        # each entry has modulus sqrt(-2 ln u) for a uniform u >= 2^-53
        assert (np.abs(vals) <= math.sqrt(-2.0 * math.log(2.0 ** -53))).all()


class TestSmoothingConsistency:
    def test_bound_on_random_sequences(self):
        rng = np.random.default_rng(400)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            f = random_sequence(int(rng.integers(0, 2 ** 31)), dim, bound=20.0)
            m, n = int(rng.integers(4, 9)), int(rng.integers(1, 4))
            wm, wn = box_window(1, m), box_window(1, n)
            plain = average_vector(f, wm)
            total = np.zeros(dim, dtype=complex)
            for g in wm.iter_elements():
                for h in wn.iter_elements():
                    total += f(add(g, h))
            smoothed = total / (wm.size * wn.size)
            from ergodix.folner import folner_defect
            bound = f.bound * max(folner_defect(wm, h) for h in wn.iter_elements())
            assert float(np.linalg.norm(plain - smoothed)) <= bound + 1e-9


def per_point_formulas(alpha, v):
    """Each built-in sequence with its value at one point, written as a
    formula of the tuple g."""
    return [
        (constant_sequence(v), lambda g: v),
        (linear_phase_sequence(alpha, v), lambda g: np.exp(2j * np.pi * alpha * sum(g)) * v),
        (weyl_quadratic_sequence(alpha, v),
         lambda g: np.exp(2j * np.pi * alpha * sum(x * x for x in g)) * v),
    ]


class TestBuiltinTables:
    @pytest.mark.parametrize("q", [1, 2, 3])
    # |g|^2 q leaves the int64 guard from 2^31 on, sum(g) only at 2^62
    @pytest.mark.parametrize("reach", [10 ** 6, 2 ** 31, 2 ** 40, 2 ** 62])
    @pytest.mark.parametrize("alpha", [ALPHA, -0.3, np.float64(1 / 7)])
    def test_table_is_bit_identical_to_the_per_point_formula(self, q, reach, alpha):
        rng = np.random.default_rng([q, reach % 1009])
        rows = rng.integers(-reach, reach, size=(150, q), endpoint=True)
        rows[:3] = [[reach] * q, [-reach] * q, [0] * q]
        points = list(map(tuple, rows.tolist()))
        v = np.array([0.6 + 0.1j, -0.3j, 0.8])
        for f, formula in per_point_formulas(alpha, v):
            expected = np.stack([formula(g) for g in points])
            for table in (rows, rows.astype(object)):
                assert np.array_equal(f.table(table), expected)
            assert np.array_equal(f(points[-1]), expected[-1])

    def test_empty_table(self):
        for f, _ in per_point_formulas(ALPHA, np.array([1.0, 1j])):
            assert f.table(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)


def per_index_statistics(rep, windows):
    """Each window's statistic and double average from the report's gamma
    table, one boxed Python term per lag: ``abs(gamma_h)`` and
    ``count * gamma_h`` with the overlap count as a Python int, summed with
    ``math.fsum`` and ``fsum_complex``."""
    gamma = gamma_table(rep)
    statistic, double_avg = [], []
    for w in sorted(windows, key=lambda w: w.size):
        lags, counts = difference_counts(w)
        terms = [(gamma[h], c) for h, c in zip(map(tuple, lags.tolist()), counts.tolist())
                 if h in gamma]
        statistic.append(math.fsum(abs(gh) for gh, _ in terms) / w.size)
        double_avg.append(fsum_complex([c * gh for gh, c in terms]) / w.size ** 2)
    return statistic, double_avg


class TestStatisticLoop:
    @pytest.mark.parametrize("windows", [
        [box_window(1, n) for n in (3, 8, 20)],
        [box_window(2, n) for n in (1, 2, 4)],
        SCATTERED,
        [custom_window(2, [(0, 0), (1, -2), (-3, 4), (5, 5), (2, -7)]),
         custom_window(2, [(1, 1), (0, 3), (-2, -2)])],
    ])
    @pytest.mark.parametrize("h_max", [None, 3])
    def test_equals_the_per_index_sums(self, windows, h_max):
        for f in (weyl_quadratic_sequence(ALPHA, np.array([0.6, 0.8j])),
                  random_sequence(23, dim=2)):
            rep = vdc_verdict(f, windows, h_max=h_max)
            statistic, double_avg = per_index_statistics(rep, windows)
            assert rep.n.tolist() == [w.index for w in sorted(windows, key=lambda w: w.size)]
            assert rep.statistic.tolist() == statistic
            assert rep.double_average.tolist() == double_avg
