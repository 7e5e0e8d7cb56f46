import cmath
import math

import numpy as np
import pytest

from ergodix.folner import add, box_window, custom_window
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

ALPHA = math.sqrt(2.0) - 1.0


def random_sequence(seed: int, dim: int, bound: float = 50.0) -> VectorSequence:
    def fn(g):
        local = np.random.default_rng((hash(g) ^ seed) % 2 ** 32)
        return local.standard_normal(dim) + 1j * local.standard_normal(dim)

    return VectorSequence(fn, bound=bound, dim=dim)


class TestVectorSequence:
    def test_bound_checked_lazily(self):
        f = VectorSequence(lambda g: np.array([10.0 + 0j]), bound=1.0, dim=1)
        with pytest.raises(ValueError):
            f((0,))

    def test_shape_checked(self):
        f = VectorSequence(lambda g: np.zeros(3, dtype=complex), bound=1.0, dim=2)
        with pytest.raises(ValueError):
            f((0,))


class TestAverageVector:
    def test_constant(self):
        v = np.array([1.0, -2.0j])
        f = constant_sequence(v)
        assert np.allclose(average_vector(f, box_window(1, 7)), v)

    def test_alternating_signs(self):
        v = np.array([1.0 + 0j])
        f = VectorSequence(lambda g: ((-1.0) ** g[0]) * v, bound=1.0, dim=1)
        for n in (1, 4, 9):
            got = average_vector(f, box_window(1, n))
            # oracle: alternating sum over {-n..n} is +-1
            oracle = sum((-1.0) ** g for g in range(-n, n + 1)) / (2 * n + 1)
            assert np.allclose(got, oracle * v)
            assert abs(got[0]) == pytest.approx(1 / (2 * n + 1))

    def test_half_integer_phase_matches_alternating(self):
        v = np.array([1.0 + 0j])
        f = linear_phase_sequence(0.5, v)
        g = VectorSequence(lambda x: ((-1.0) ** x[0]) * v, bound=1.0, dim=1)
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

        def fn(g):
            out = np.zeros(size, dtype=complex)
            out[g[0] + n] = 1.0
            return out

        f = VectorSequence(fn, bound=1.0, dim=size)
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


class TestDifferenceSumBound:
    def test_random_trials(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            seed = int(rng.integers(0, 2 ** 31))
            table = {}

            def gamma(h):
                if h not in table:
                    local = np.random.default_rng((hash(h) ^ seed) % 2 ** 32)
                    table[h] = float(local.uniform(0.0, 3.0))
                return table[h]

            res = difference_sum_bound(gamma, box_window(1, n))
            assert res.holds

    def test_exact_counts(self):
        # gamma identically 1: lhs = |W|^2, rhs = |W| * |W^-1 W|
        n = 3
        res = difference_sum_bound(lambda h: 1.0, box_window(1, n))
        size = 2 * n + 1
        assert res.lhs == pytest.approx(size ** 2)
        assert res.rhs == pytest.approx(size * (4 * n + 1))


class TestVdcVerdict:
    def test_weyl_quadratic_decays(self):
        f = weyl_quadratic_sequence(ALPHA, np.array([1.0]))
        windows = [box_window(1, n) for n in (250, 500, 1000, 2000)]
        rep = vdc_verdict(f, windows)
        assert rep.statistic[-1][1] < 0.05
        assert rep.averages[-1][1] < 0.05
        assert rep.hypothesis_satisfied
        assert rep.conclusion_observed
        assert rep.gamma_window_index == 2000
        # gamma at lag 0 is the squared bound
        gamma0 = dict(rep.gamma)[(0,)]
        assert gamma0.real == pytest.approx(1.0)

    def test_weyl_gamma_against_direct_sum(self):
        f = weyl_quadratic_sequence(ALPHA, np.array([1.0]))
        rep = vdc_verdict(f, [box_window(1, 40)])
        gamma = dict(rep.gamma)
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
        for n, s in rep.statistic:
            assert s == pytest.approx((4 * n + 1) / (2 * n + 1), abs=1e-9)
        assert rep.statistic[-1][1] >= 1.9
        # yet the averages do vanish
        assert rep.averages[-1][1] < 0.05
        assert rep.conclusion_observed

    def test_constant_fails_both(self):
        rep = vdc_verdict(constant_sequence(np.array([1.0])),
                          [box_window(1, n) for n in (5, 10, 20)])
        assert not rep.hypothesis_satisfied
        assert not rep.conclusion_observed
        assert rep.averages[-1][1] == pytest.approx(1.0)
        assert rep.label == "hypothesis not satisfied; conclusion not implied"

    def test_double_average_column(self):
        # (2.6.1)-style direct double average for the constant sequence:
        # (1/|W|^2) sum_{h1,h2} gamma_{h2-h1} = 1 exactly
        rep = vdc_verdict(constant_sequence(np.array([1.0])),
                          [box_window(1, 5)])
        assert rep.double_average[0][1].real == pytest.approx(1.0)
        assert abs(rep.double_average[0][1].imag) < 1e-12

    def test_plane_window_report(self):
        # two-dimensional boxes go through the generic lag path
        f = VectorSequence(
            lambda g: np.array([np.exp(2j * np.pi * ALPHA * (g[0] ** 2 + g[1] ** 2))]),
            bound=1.0, dim=1)
        rep = vdc_verdict(f, [box_window(2, 2), box_window(2, 4)])
        gamma = dict(rep.gamma)
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
        g1, g2 = dict(rep_box.gamma), dict(rep_custom.gamma)
        for h in g2:
            assert g1[h] == pytest.approx(g2[h], abs=1e-12)
        assert rep_box.statistic[0][1] == pytest.approx(rep_custom.statistic[0][1],
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
        f = VectorSequence(lambda g: seen.append(g) or v, bound=1.0, dim=1)
        rep = vdc_verdict(f, windows)
        assert len(seen) == len(set(seen)) == points
        assert rep.averages[-1][1] == 1.0


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
