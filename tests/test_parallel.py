import math

import numpy as np
import pytest

from ergodix import _parallel
from ergodix._parallel import fsum_complex, point_table, row_keys, table_means
from ergodix.folner import (
    Homomorphism,
    box_schedule,
    box_window,
    custom_window,
    shift_window,
)
from ergodix.mixing import weak_mixing_defect
from ergodix.systems import QuasiLocalSystem, pauli_observable, shift_system

FAR = 2 ** 62


def schedules(q):
    nested = box_schedule(q, 1, 6)
    strided = box_schedule(q, 1, 13, stride=4)
    custom = [custom_window(q, [(0,) * q]),
              custom_window(q, [tuple(range(k, k + q)) for k in range(-5, 6, 2)]),
              custom_window(q, [(k,) * q for k in range(-3, 9)])]
    shifted = [shift_window(box_window(q, n), (n * (-1) ** n,) * q) for n in range(1, 6)]
    disjoint = [box_window(q, 2, center=(7 * k,) * q) for k in (2, -1, 0, 1)]
    # coordinates beyond int64 sums, and a key box beyond 2^63 points
    far = [shift_window(w, (FAR - 3,) + (-FAR,) * (q - 1)) for w in nested[:3] + custom]
    far.append(custom_window(q, [(FAR,) * q, (-FAR,) * q, (1,) * q]))
    return [nested, strided, custom, shifted, disjoint, far,
            nested + shifted + disjoint + custom]


def batch_sizes(monkeypatch):
    """Merge the point table every few rows as well as at the library's
    batch size, so small schedules cross batch boundaries too."""
    for rows in (1, 7, _parallel._BATCH_ROWS):
        monkeypatch.setattr(_parallel, "_BATCH_ROWS", rows)
        yield rows


def first_seen(windows):
    return list(dict.fromkeys(g for w in windows for g in w.iter_elements()))


class TestPointTable:
    @pytest.mark.parametrize("offset", [0, FAR])
    def test_first_seen_rows(self, monkeypatch, offset):
        rng = np.random.default_rng(11)
        blocks = [rng.integers(-4, 5, size=(k, 2)).astype(object) + offset
                  for k in (1, 9, 40, 3, 25)]
        expected = list(dict.fromkeys(tuple(r) for b in blocks for r in b.tolist()))
        flat = [x for b in blocks for r in b.tolist() for x in r]
        for _ in batch_sizes(monkeypatch):
            table, rows = point_table(iter(blocks), [min(flat)] * 2, [max(flat)] * 2)
            assert list(map(tuple, table.tolist())) == expected
            for b, r in zip(blocks, rows, strict=True):
                assert [expected[i] for i in r.tolist()] == list(map(tuple, b.tolist()))

    def test_key_dtype(self):
        assert row_keys([0, -5], [10, 5])(np.array([[3, 2]])).dtype == np.int64
        keys = row_keys([-FAR, 0], [FAR, 1])(np.array([[FAR, 1], [-FAR, 0]], dtype=object))
        assert keys.dtype == object
        assert keys.tolist() == [2 * (2 * FAR) + 1, 0]


def real_integrand(g):
    return math.sin(0.37 * sum(g)) ** 2 + 1e-3 * g[0] ** 2 / 3.0


def complex_integrand(g):
    return complex(math.cos(0.71 * g[0] - 0.2 * sum(g)), math.sin(0.13 * g[-1] ** 2) / 7.0)


def per_row(fn):
    """The table integrand that calls ``fn`` on each row, as a tuple, in order."""
    return lambda points: [fn(g) for g in map(tuple, points.tolist())]


class TestWindowMeans:
    """``table_means`` of a per-row integrand."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_equals_per_window_fsum(self, monkeypatch, q):
        for windows in schedules(q):
            expected = [math.fsum(real_integrand(g) for g in w.iter_elements()) / w.size
                        for w in windows]
            for _ in batch_sizes(monkeypatch):
                means = table_means(per_row(real_integrand), windows)
                assert means.dtype == np.float64 and means.tolist() == expected

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_complex_equals_per_window_fsum(self, monkeypatch, q):
        for windows in schedules(q):
            expected = []
            for w in windows:
                total = fsum_complex(complex_integrand(g) for g in w.iter_elements())
                expected.append(complex(total.real / w.size, total.imag / w.size))
            for _ in batch_sizes(monkeypatch):
                means = table_means(per_row(complex_integrand), windows, complex_valued=True)
                assert means.dtype == np.complex128 and means.tolist() == expected

    def test_each_point_evaluated_once(self):
        seen = []
        big_n = 40
        table_means(per_row(lambda g: seen.append(g) or 1.0), box_schedule(1, 1, big_n))
        assert len(seen) == 2 * big_n + 1
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_evaluation_order_is_first_seen(self, monkeypatch, q):
        for windows in schedules(q):
            for _ in batch_sizes(monkeypatch):
                seen = []
                table_means(per_row(lambda g: seen.append(g) or 1.0), windows)
                assert seen == first_seen(windows)

    def test_statistic_evaluates_once_per_point(self, monkeypatch):
        calls = []
        real_table = QuasiLocalSystem.expect_product_table

        def counting(self, factors):
            calls.extend(range(len(factors[0][1])))  # one entry per row
            return real_table(self, factors)

        monkeypatch.setattr(QuasiLocalSystem, "expect_product_table", counting)
        sz = pauli_observable([0], "Z")
        big_n = 30
        stat = weak_mixing_defect(shift_system(1, 2), sz, sz, Homomorphism.scalar(1, 1),
                                  box_schedule(1, 1, big_n))
        # two target evaluations plus one per lattice point of the largest box
        assert len(calls) == 2 + 2 * big_n + 1
        assert all(v == 1 / (2 * n + 1) for n, v in zip(stat.n.tolist(), stat.values.tolist()))
