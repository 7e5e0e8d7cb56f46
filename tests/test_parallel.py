import math

import pytest

from ergodix._parallel import fsum_complex, window_means
from ergodix.folner import (
    Homomorphism,
    box_schedule,
    box_window,
    custom_window,
    shift_window,
)
from ergodix.mixing import weak_mixing_defect
from ergodix.systems import pauli_observable, shift_system


def schedules(q):
    nested = box_schedule(q, 1, 6)
    strided = box_schedule(q, 1, 13, stride=4)
    custom = [custom_window(q, [(0,) * q]),
              custom_window(q, [tuple(range(k, k + q)) for k in range(-5, 6, 2)]),
              custom_window(q, [(k,) * q for k in range(-3, 9)])]
    shifted = [shift_window(box_window(q, n), (n * (-1) ** n,) * q) for n in range(1, 6)]
    return [nested, strided, custom, shifted, nested + shifted + custom]


def real_integrand(g):
    return math.sin(0.37 * sum(g)) ** 2 + 1e-3 * g[0] ** 2 / 3.0


def complex_integrand(g):
    return complex(math.cos(0.71 * g[0] - 0.2 * sum(g)), math.sin(0.13 * g[-1] ** 2) / 7.0)


class TestWindowMeans:
    @pytest.mark.parametrize("q", [1, 2])
    def test_equals_per_window_fsum(self, q):
        for windows in schedules(q):
            expected = [math.fsum(real_integrand(g) for g in w.iter_elements()) / w.size
                        for w in windows]
            assert window_means(real_integrand, windows) == expected

    @pytest.mark.parametrize("q", [1, 2])
    def test_complex_equals_per_window_fsum(self, q):
        for windows in schedules(q):
            expected = []
            for w in windows:
                total = fsum_complex(complex_integrand(g) for g in w.iter_elements())
                expected.append(complex(total.real / w.size, total.imag / w.size))
            assert window_means(complex_integrand, windows, complex_valued=True) == expected

    def test_each_point_evaluated_once(self):
        seen = []
        big_n = 40
        window_means(lambda g: seen.append(g) or 1.0, box_schedule(1, 1, big_n))
        assert len(seen) == 2 * big_n + 1
        assert len(set(seen)) == len(seen)

    def test_statistic_evaluates_once_per_point(self, monkeypatch):
        import ergodix.mixing as mixing

        calls = []
        real_evaluate = mixing.evaluate

        def counting(sys, factors):
            calls.append(1)
            return real_evaluate(sys, factors)

        monkeypatch.setattr(mixing, "evaluate", counting)
        sz = pauli_observable([0], "Z")
        big_n = 30
        stat = weak_mixing_defect(shift_system(1, 2), sz, sz, Homomorphism.scalar(1, 1),
                                  box_schedule(1, 1, big_n))
        # two target evaluations plus one per lattice point of the largest box
        assert len(calls) == 2 + 2 * big_n + 1
        assert all(v == 1 / (2 * n + 1) for n, v in stat.per_window)
