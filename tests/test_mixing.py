import cmath
import math

import numpy as np
import pytest

from ergodix._parallel import fmean_complex
from ergodix.folner import (Homomorphism, add, box_schedule, box_window, custom_window,
                            inverse_product, scale, shift_window)
from ergodix.mixing import (
    HigherOrderSpec,
    MixingStatistic,
    asymptotic_abelianness,
    classify_decay,
    collision_bound,
    ergodic_average,
    gamma_sequence,
    higher_order_defect,
    square_defect,
    weak_mixing_defect,
)
from ergodix.sampling import ginibre, random_finite_system
from ergodix.systems import (
    LocalObservable,
    clock_matrix,
    cyclic_shift_matrix,
    evaluate,
    pauli_observable,
    rotation_algebra_system,
    shift_system,
)
from test_parallel import batch_sizes

M1 = Homomorphism.scalar(1, 1)
M2 = Homomorphism.scalar(1, 2)
M3 = Homomorphism.scalar(1, 3)
SZ = pauli_observable([0], "Z")
UNIT_SITE = LocalObservable((), np.array([[1.0 + 0j]]), 2)


def shift2():
    return shift_system(1, 2)


class TestVerdictRule:
    def test_all_zero_is_decaying(self):
        verdict, _ = classify_decay([0.0] * 10)
        assert verdict == "decaying"

    def test_constant_is_non_decaying(self):
        verdict, _ = classify_decay([1.0] * 10)
        assert verdict == "non-decaying"

    def test_slow_curve_inconclusive(self):
        verdict, _ = classify_decay([1.0 / (n + 1) for n in range(8)])
        assert verdict == "inconclusive"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MixingStatistic.from_values([box_window(1, 1)], [-0.1])


class TestErgodicAverage:
    def test_unit_b_gives_constant(self):
        sys_h = rotation_algebra_system(1, 5)
        a = ginibre(np.random.default_rng(0), 5)
        res = ergodic_average(sys_h, a, np.eye(5, dtype=complex), M1,
                              box_schedule(1, 1, 10))
        for val in res.values:
            assert val == pytest.approx(sys_h.expect(a), abs=1e-12)

    def test_shift_single_site(self):
        res = ergodic_average(shift2(), SZ, SZ, M1, box_schedule(1, 1, 20))
        for n, val in zip(res.n.tolist(), res.values.tolist()):
            assert val == pytest.approx(1 / (2 * n + 1), abs=1e-15)

    def test_rotation_fejer_sum(self):
        sys_h = rotation_algebra_system(1, 5)
        v = cyclic_shift_matrix(5)
        res = ergodic_average(sys_h, v.conj().T, v, M1, box_schedule(1, 1, 30))
        for n, val in zip(res.n.tolist(), res.values.tolist()):
            oracle = sum(cmath.exp(-2j * cmath.pi * g / 5)
                         for g in range(-n, n + 1)) / (2 * n + 1)
            assert val == pytest.approx(oracle, abs=1e-12)
        assert abs(res.values[-1]) < 0.02


class TestWeakMixingDefect:
    def test_shift_exact_law(self):
        stat = weak_mixing_defect(shift2(), SZ, SZ, M1, box_schedule(1, 1, 50))
        for n, v in zip(stat.n.tolist(), stat.values.tolist()):
            assert v == 1 / (2 * n + 1)

    def test_rotation_constant_one(self):
        sys_h = rotation_algebra_system(1, 5)
        v = cyclic_shift_matrix(5)
        stat = weak_mixing_defect(sys_h, v.conj().T, v, M1, box_schedule(1, 1, 30))
        for val in stat.values:
            assert val == pytest.approx(1.0, abs=1e-10)
        assert stat.verdict == "non-decaying"

    def test_unit_b_vanishes(self):
        # finite backend: conjugating the unit picks up ~1e-17 of round-off
        sys_h = rotation_algebra_system(1, 3)
        a = ginibre(np.random.default_rng(1), 3)
        stat = weak_mixing_defect(sys_h, a, np.eye(3, dtype=complex), M1,
                                  box_schedule(1, 1, 10))
        assert all(v <= 1e-14 for v in stat.values)
        # quasi-local backend: the scalar unit translates exactly
        stat_ql = weak_mixing_defect(shift2(), SZ, UNIT_SITE, M1,
                                     box_schedule(1, 1, 10))
        assert all(v == 0.0 for v in stat_ql.values)


class TestSquareDefect:
    def test_shift_exact_law(self):
        stat = square_defect(shift2(), SZ, SZ, M1, box_schedule(1, 1, 30))
        for n, v in zip(stat.n.tolist(), stat.values.tolist()):
            assert v == 1 / (2 * n + 1)  # the only nonzero term is 1^2

    def test_rotation_constant(self):
        sys_h = rotation_algebra_system(1, 5)
        v = cyclic_shift_matrix(5)
        stat = square_defect(sys_h, v.conj().T, v, M1, box_schedule(1, 1, 20))
        for val in stat.values:
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_unit_b_vanishes(self):
        stat = square_defect(shift2(), SZ, UNIT_SITE, M1, box_schedule(1, 1, 8))
        assert all(v == 0.0 for v in stat.values)

    def test_verdict_matches_absolute_version(self):
        # the absolute and squared statistics must reach the same verdict
        cases = [
            (shift2(), SZ, SZ),
            (rotation_algebra_system(1, 5),
             cyclic_shift_matrix(5).conj().T, cyclic_shift_matrix(5)),
        ]
        wins = box_schedule(1, 1, 40)
        for sys_h, a, b in cases:
            v1 = weak_mixing_defect(sys_h, a, b, M1, wins).verdict
            v2 = square_defect(sys_h, a, b, M1, wins).verdict
            assert v1 == v2


class TestAbelianness:
    def test_shift_single_site_law(self):
        a = pauli_observable([0], "X")
        b = pauli_observable([0], "Z")
        stat = asymptotic_abelianness(shift2(), a, b, M1, box_schedule(1, 1, 25))
        for n, v in zip(stat.n.tolist(), stat.values.tolist()):
            assert v == pytest.approx(2 / (2 * n + 1), abs=1e-14)

    def test_unit_b(self):
        stat = asymptotic_abelianness(shift2(), SZ, UNIT_SITE, M1,
                                      box_schedule(1, 1, 8))
        assert all(v == pytest.approx(0.0, abs=1e-14) for v in stat.values)

    def test_rotation_never_commutes(self):
        sys_h = rotation_algebra_system(1, 2)
        u, v = clock_matrix(2), cyclic_shift_matrix(2)
        stat = asymptotic_abelianness(sys_h, u, v, M1, box_schedule(1, 1, 15))
        for val in stat.values:
            assert val == pytest.approx(2.0, abs=1e-10)
        assert stat.verdict == "non-decaying"


class TestHigherOrder:
    def test_k1_reduces_to_weak_mixing(self):
        wins = box_schedule(1, 1, 20)
        spec = HigherOrderSpec(observables=(SZ, SZ), homs=(M1,))
        hd = higher_order_defect(shift2(), spec, wins)
        wm = weak_mixing_defect(shift2(), SZ, SZ, M1, wins)
        assert hd.n.tolist() == wm.n.tolist()
        assert hd.values.tolist() == wm.values.tolist()

    def test_k2_sigma_z_vanishes_exactly(self):
        # with three sign-matrix factors the coincidence term omega(sz^3) is 0,
        # so the defect vanishes identically; the deviation constant agrees
        sl = shift2()
        spec = HigherOrderSpec(observables=(SZ, SZ, SZ), homs=(M1, M2))
        hd = higher_order_defect(sl, spec, box_schedule(1, 1, 40))
        assert all(v == 0.0 for v in hd.values)
        assert collision_bound(sl, spec, box_window(1, 40)) == 0.0

    def test_k3_sigma_z_exact_rate(self):
        # four sign-matrix factors: the g=0 term is omega(sz^4) = 1
        sl = shift2()
        spec = HigherOrderSpec(observables=(SZ,) * 4, homs=(M1, M2, M3))
        hd = higher_order_defect(sl, spec, box_schedule(1, 1, 40))
        for n, v in zip(hd.n.tolist(), hd.values.tolist()):
            assert v == 1 / (2 * n + 1)
        assert collision_bound(sl, spec, box_window(1, 40)) == 1.0

    def test_k2_projection_rate(self):
        sl = shift2()
        proj = LocalObservable(((0,),), np.diag([1.0, 0.0]).astype(complex), 2)
        spec = HigherOrderSpec(observables=(proj,) * 3, homs=(M1, M2))
        const = collision_bound(sl, spec, box_window(1, 30))
        assert const == pytest.approx(3 / 8, abs=1e-15)
        hd = higher_order_defect(sl, spec, box_schedule(1, 1, 30))
        for n, v in zip(hd.n.tolist(), hd.values.tolist()):
            assert v == pytest.approx((3 / 8) / (2 * n + 1), abs=1e-15)

    def test_unit_observables_vanish(self):
        spec = HigherOrderSpec(observables=(UNIT_SITE,) * 3, homs=(M1, M2))
        hd = higher_order_defect(shift2(), spec, box_schedule(1, 1, 10))
        assert all(v == 0.0 for v in hd.values)

    def test_q2_matrix_homomorphism_collision_line(self):
        # on Z^2 with phi_1 = id and phi_2 the shear (g1+g2, g2), the shifted
        # supports of a projection collide exactly on the line g2 = 0: there
        # the two moving factors land on one site and square to the same
        # projection, so the integrand is omega(p) omega(p^2) = 1/4 off the
        # origin and omega(p^3) = 1/2 at it, against the target 1/8
        sl = shift_system(2, 2)
        proj = LocalObservable(((0, 0),), np.diag([1.0, 0.0]).astype(complex), 2)
        shear = Homomorphism.from_matrix([[1, 1], [0, 1]])
        spec = HigherOrderSpec(observables=(proj,) * 3,
                               homs=(Homomorphism.scalar(2, 1), shear))
        hd = higher_order_defect(sl, spec, box_schedule(2, 1, 6))
        for n, v in zip(hd.n.tolist(), hd.values.tolist()):
            size = (2 * n + 1) ** 2
            expected = (2 * n * (1 / 8) + 3 / 8) / size
            assert v == pytest.approx(expected, abs=1e-15)

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            HigherOrderSpec(observables=(SZ, SZ, SZ), homs=(M1, M1))
        with pytest.raises(ValueError):
            HigherOrderSpec(observables=(SZ, SZ),
                            homs=(Homomorphism.scalar(1, 0),))

    def test_finite_backend_constant_phase(self):
        # rotation algebra: (V*)^2 tau_g(V) tau_{2g}(V) carries the phase
        # zeta^{-3g} on the identity, so the integrand is |zeta^{-3g}| = 1
        sys_h = rotation_algebra_system(1, 5)
        v = cyclic_shift_matrix(5)
        spec = HigherOrderSpec(
            observables=(np.linalg.matrix_power(v.conj().T, 2), v, v),
            homs=(M1, M2))
        hd = higher_order_defect(sys_h, spec, box_schedule(1, 1, 12))
        for val in hd.values:
            assert val == pytest.approx(1.0, abs=1e-10)
        assert hd.verdict == "non-decaying"

    def test_finite_collision_bound_sums_whole_scan(self):
        # a matrix state factorizes no product, so every scan point counts
        rng = np.random.default_rng(31)
        sys_h = random_finite_system(rng, dim=3, q=1, tracial=False)
        a, b, c = (ginibre(rng, 3) for _ in range(3))
        spec = HigherOrderSpec(observables=(a, b, c), homs=(M1, M2))
        scan = box_window(1, 9)
        target = spec.target(sys_h)
        expected = math.fsum(abs(evaluate(sys_h, spec.factors(g)) - target)
                             for g in scan.iter_elements())
        assert expected > 0
        assert collision_bound(sys_h, spec, scan) == expected


class TestGammaSequence:
    def test_all_units_gives_zero(self):
        spec = HigherOrderSpec(observables=(UNIT_SITE, UNIT_SITE), homs=(M1,))
        rep = gamma_sequence(shift2(), spec, box_schedule(1, 2, 6))
        for closed, empirical in zip(rep.closed_form.tolist(), rep.empirical.tolist()):
            assert abs(closed) < 1e-14
            assert abs(empirical) < 1e-14

    def test_shift_k1_sigma_z(self):
        spec = HigherOrderSpec(observables=(UNIT_SITE, SZ), homs=(M1,))
        rep = gamma_sequence(shift2(), spec, box_schedule(1, 2, 10))
        for h, closed, difference in zip(rep.lags.tolist(), rep.closed_form.tolist(),
                                         rep.difference.tolist()):
            expected = 1.0 if h == [0] else 0.0
            assert closed == pytest.approx(expected, abs=1e-14)
            assert difference < 1e-12

    def test_finite_system_dual_computation(self, monkeypatch):
        rng = np.random.default_rng(99)
        for _ in range(10):
            fs = random_finite_system(rng, q=1)
            a = ginibre(rng, fs.dim)
            spec = HigherOrderSpec(
                observables=(np.eye(fs.dim, dtype=complex), a),
                homs=(Homomorphism.scalar(1, int(rng.integers(1, 4))),))
            rep = gamma_sequence(fs, spec, box_schedule(1, 2, 6))
            assert rep.difference.max() < 1e-9
            # the same bits when the lead of 26 window translates is keyed
            # in pieces
            for _ in batch_sizes(monkeypatch):
                again = gamma_sequence(fs, spec, box_schedule(1, 2, 6))
                assert again.lags.tolist() == rep.lags.tolist()
                assert again.empirical.tolist() == rep.empirical.tolist()
                assert again.closed_form.tolist() == rep.closed_form.tolist()

    def test_finite_q2_dual_computation(self):
        rng = np.random.default_rng(321)
        from ergodix.systems import clock_shift_system

        cs = clock_shift_system(2)
        a = ginibre(rng, 2)
        spec = HigherOrderSpec(
            observables=(np.eye(2, dtype=complex), a),
            homs=(Homomorphism.from_matrix([[1, 0], [1, 1]]),))
        rep = gamma_sequence(cs, spec, box_schedule(2, 1, 3))
        assert rep.difference.max() < 1e-9

    def test_shift_k2_boundary_decay(self):
        spec = HigherOrderSpec(observables=(UNIT_SITE, SZ, SZ), homs=(M1, M2))
        small = gamma_sequence(shift2(), spec, [box_window(1, 5)],
                               h_range=[(h,) for h in range(-3, 4)])
        large = gamma_sequence(shift2(), spec, [box_window(1, 40)],
                               h_range=[(h,) for h in range(-3, 4)])
        worst_small = small.difference.max()
        worst_large = large.difference.max()
        assert worst_large <= worst_small
        assert worst_large < 0.05


    def test_huge_lags_match_tuple_arithmetic(self):
        # lags whose translates leave int64 when added to a window point
        rng = np.random.default_rng(5)
        sys_h = rotation_algebra_system(1, 5)
        spec = HigherOrderSpec(observables=(np.eye(5, dtype=complex), ginibre(rng, 5)),
                               homs=(M1,))
        window = box_window(1, 3)
        h_range = [(0,), (2,), (2 ** 62 + 1,), (-(2 ** 62),)]
        rep = gamma_sequence(sys_h, spec, [window], h_range=h_range)

        (a,), (hom,) = spec.observables[1:], spec.homs
        adj = sys_h.obs_adjoint(a)
        kappa = evaluate(sys_h, [(a, None, (0,))])
        gs = list(window.iter_elements())
        x = {g: evaluate(sys_h, [(a, hom, g)]) for g in gs}
        expected = []
        for h in h_range:
            terms = []
            for g in gs:
                gh = add(g, h)
                cross = evaluate(sys_h, [(adj, hom, g), (a, hom, gh)])
                x_gh = evaluate(sys_h, [(a, hom, gh)])
                terms.append(cross - kappa * x[g].conjugate() - kappa.conjugate() * x_gh
                             + abs(kappa) ** 2)
            expected.append(fmean_complex(terms, window.size))
        assert rep.lags.tolist() == [list(h) for h in h_range]
        assert rep.empirical.tolist() == expected

    @pytest.mark.parametrize("window", [box_window(1, 3), custom_window(1, [0, 1, 3])])
    def test_default_lags_are_the_difference_set_in_tuple_order(self, window):
        spec = HigherOrderSpec(observables=(UNIT_SITE, SZ), homs=(M1,))
        rep = gamma_sequence(shift2(), spec, [window])
        assert list(map(tuple, rep.lags.tolist())) == list(inverse_product(window).iter_elements())

    @pytest.mark.parametrize("backend", ["finite", "chain"])
    def test_one_table_call_for_every_lag(self, monkeypatch, backend):
        # the backend's table calls do not grow with the number of lags:
        # the cross terms of every lag are in one call
        if backend == "finite":
            sys_h = rotation_algebra_system(1, 5)
            obs = (np.eye(5, dtype=complex), cyclic_shift_matrix(5))
            spec = HigherOrderSpec(observables=obs, homs=(M1,))
        else:
            sys_h = shift2()
            spec = HigherOrderSpec(observables=(UNIT_SITE, SZ, SZ), homs=(M1, M2))
        calls = []
        real = type(sys_h).expect_product_table
        monkeypatch.setattr(type(sys_h), "expect_product_table",
                            lambda self, factors: calls.append(1) or real(self, factors))
        counts = []
        for reach in (1, 4):
            calls.clear()
            gamma_sequence(sys_h, spec, [box_window(1, 6)],
                           h_range=[(h,) for h in range(-reach, reach + 1)])
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestFolnerIndependence:
    def test_shifted_windows_same_verdict(self):
        # long enough horizon that bounded shifts cannot flip the verdict
        wins = box_schedule(1, 1, 100)
        rng = np.random.default_rng(3)
        shifted = [shift_window(w, int(rng.integers(-3, 4))) for w in wins]
        v_box = weak_mixing_defect(shift2(), SZ, SZ, M1, wins).verdict
        v_shift = weak_mixing_defect(shift2(), SZ, SZ, M1, shifted).verdict
        assert v_box == v_shift == "decaying"

    def test_values_translation_invariant_once_support_covered(self):
        wins = box_schedule(1, 5, 20)
        shifted = [shift_window(w, 2) for w in wins]
        a = weak_mixing_defect(shift2(), SZ, SZ, M1, wins).values
        b = weak_mixing_defect(shift2(), SZ, SZ, M1, shifted).values
        assert a.tolist() == b.tolist()


class TestProductSystemIdentity:
    def test_per_g_integrand_squares(self):
        from ergodix.systems import lift_observable, product_system

        rng = np.random.default_rng(512)
        for _ in range(20):
            fs = random_finite_system(rng)
            doubled = product_system(fs)
            a, b = ginibre(rng, fs.dim), ginibre(rng, fs.dim)
            m = int(rng.integers(1, 3))
            g = tuple(int(x) for x in rng.integers(-3, 4, size=fs.q))
            shift = scale(m, g)
            lhs = doubled.expect_product(
                [(lift_observable(a), (0,) * fs.q), (lift_observable(b), shift)])
            rhs = abs(fs.expect_product([(a, (0,) * fs.q), (b, shift)])) ** 2
            assert abs(lhs - rhs) < 1e-10
