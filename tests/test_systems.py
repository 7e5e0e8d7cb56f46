import numpy as np
import pytest

from ergodix.folner import Homomorphism, add, custom_window
from ergodix.mixing import HigherOrderSpec, higher_order_defect
from ergodix.operators import operator_norm, trace_state
from ergodix.sampling import ginibre, random_finite_system, random_local_observable
from ergodix.systems import (
    FiniteSystem,
    LocalObservable,
    PAULI,
    clock_matrix,
    clock_shift_system,
    commutator_norm,
    cyclic_permutation_system,
    cyclic_shift_matrix,
    evaluate,
    lift_observable,
    overlap_clusters,
    pauli_observable,
    product_system,
    rotation_algebra_system,
    shift_system,
    single_site,
)

RNG = np.random.default_rng(77)
ID1 = Homomorphism.scalar(1, 1)


class TestFiniteSystemConstruction:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            FiniteSystem(generators=(np.diag([2.0, 1.0]),), state=trace_state(2))

    def test_rejects_noninvariant_state(self):
        from ergodix.operators import State
        rho = State(np.diag([0.9, 0.1]))
        v = cyclic_shift_matrix(2)
        with pytest.raises(ValueError):
            FiniteSystem(generators=(v,), state=rho)

    def test_rejects_nonphase_pair(self):
        u = clock_matrix(3)
        w = np.eye(3, dtype=complex)
        w[0, 0] = 0
        w[0, 1] = 1
        w[1, 1] = 0
        w[1, 0] = 1  # swap of two basis vectors, does not phase-commute with clock
        with pytest.raises(ValueError):
            FiniteSystem(generators=(u, w), state=trace_state(3))

    def test_accepts_identity_generator(self):
        fs = FiniteSystem(generators=(np.eye(3, dtype=complex),), state=trace_state(3))
        a = ginibre(RNG, 3)
        assert np.allclose(fs.translate(a, 5), a)


class TestRotationAlgebra:
    def test_pauli_pair_for_q2(self):
        u = clock_matrix(2)
        v = cyclic_shift_matrix(2)
        assert np.allclose(u, PAULI["Z"])
        assert np.allclose(v, PAULI["X"])
        assert np.allclose(u @ v, -(v @ u))

    def test_orbit_phase_law(self):
        for p, big_q in ((1, 5), (2, 5), (1, 3), (3, 7)):
            sys_h = rotation_algebra_system(p, big_q)
            v = cyclic_shift_matrix(big_q)
            zeta = np.exp(2j * np.pi * p / big_q)
            for n in range(-big_q, big_q + 1):
                assert np.linalg.norm(sys_h.translate(v, n) - zeta ** (-n) * v) < 1e-12

    def test_trace_values(self):
        sys_h = rotation_algebra_system(1, 5)
        v = cyclic_shift_matrix(5)
        assert sys_h.expect(v) == pytest.approx(0.0, abs=1e-14)
        assert sys_h.expect(v.conj().T @ v) == pytest.approx(1.0)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            rotation_algebra_system(2, 4)
        with pytest.raises(ValueError):
            rotation_algebra_system(1, 1)

    def test_orbit_has_q_points_radius_one(self):
        big_q = 5
        sys_h = rotation_algebra_system(1, big_q)
        v = cyclic_shift_matrix(big_q)
        orbit = [sys_h.translate(v, n) for n in range(big_q)]
        for i, x in enumerate(orbit):
            assert sys_h.omega_norm(x) == pytest.approx(1.0)
            for y in orbit[i + 1:]:
                assert sys_h.omega_distance(x, y) > 1.1


class TestEvaluate:
    def test_finite_single_factor(self):
        sys_h = rotation_algebra_system(1, 3)
        a = ginibre(RNG, 3)
        assert evaluate(sys_h, [(a, ID1, 0)]) == pytest.approx(sys_h.expect(a))

    def test_quasilocal_disjoint_supports(self):
        sl = shift_system(1, 2)
        sz = pauli_observable([0], "Z")
        for n in (1, -4, 9):
            val = evaluate(sl, [(sz, None, n), (sz, ID1, n)])
            assert val == 0.0  # exactly, by sitewise factorization

    def test_quasilocal_coincident_supports(self):
        sl = shift_system(1, 2)
        sz = pauli_observable([0], "Z")
        assert evaluate(sl, [(sz, None, 0), (sz, ID1, 0)]) == pytest.approx(1.0)

    def test_empty_factors_rejected(self):
        with pytest.raises(ValueError):
            evaluate(rotation_algebra_system(1, 3), [])

    def test_site_dimension_mismatch(self):
        sl = shift_system(1, 2)
        wrong = LocalObservable(((0,),), np.eye(3, dtype=complex), 3)
        with pytest.raises(ValueError):
            evaluate(sl, [(wrong, ID1, 0)])

    def test_general_path_matches_sitewise(self):
        sl = shift_system(1, 2)
        a = single_site(0, PAULI["X"] + 0.3 * PAULI["Z"])
        b = single_site(1, PAULI["Y"])
        two_site = LocalObservable(
            ((0,), (1,)), np.kron(PAULI["X"] + 0.3 * PAULI["Z"], PAULI["Y"]), 2)
        lhs = sl.expect_product([(two_site, (0,))])
        rhs = sl.expect_product([(a, (0,)), (b, (0,))])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def dense_expect_product(sl, factors):
    """Contraction of every factor on the union of all shifted supports."""
    shifted = [sl.translate(o, g) for o, g in factors]
    window = sorted({s for o in shifted for s in o.support})
    prod = np.eye(sl.d ** len(window), dtype=complex)
    for o in shifted:
        prod = prod @ sl.embed(o, window)
    return complex(np.trace(prod)) / sl.d ** len(window)


def sitewise_expect_product(sl, factors):
    """Scalars first, then per-site normalized traces in first-seen order."""
    out = 1.0 + 0j
    per_site = {}
    for o, g in factors:
        o = sl.translate(o, g)
        if o.n_sites == 0:
            out *= o.tensor[0, 0]
            continue
        site = o.support[0]
        per_site[site] = o.tensor if site not in per_site else per_site[site] @ o.tensor
    for mat in per_site.values():
        out *= np.trace(mat) / sl.d
    return complex(out)


class TestClusterContraction:
    def test_clusters(self):
        supports = [((0,), (1,)), (), ((5,),), ((1,), (2,)), ((4,), (5,)), ((9,),)]
        assert overlap_clusters(supports) == [[0, 3], [2, 4], [5]]
        assert overlap_clusters([((0,),), ((2,),), ((1,), (2,)), ((0,), (1,))]) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("q,d,max_sites,max_window", [(1, 2, 3, 8), (1, 3, 2, 5), (2, 2, 2, 7)])
    def test_matches_dense_union_contraction(self, q, d, max_sites, max_window):
        sl = shift_system(q, d)
        rng = np.random.default_rng(31 + d + q)
        checked = 0
        while checked < 40:
            k = int(rng.integers(1, 5))
            factors = [(random_local_observable(rng, q, d, max_sites=max_sites, span=1),
                        tuple(int(x) for x in rng.integers(-3, 4, size=q)))
                       for _ in range(k)]
            union = {add(s, g) for o, g in factors for s in o.support}
            if len(union) > max_window:
                continue
            checked += 1
            assert abs(sl.expect_product(factors) - dense_expect_product(sl, factors)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_site_products_exact(self, d):
        sl = shift_system(1, d)
        rng = np.random.default_rng(5 + d)
        unit = LocalObservable((), np.array([[0.5 - 0.25j]]), d)
        for _ in range(40):
            factors = [(random_local_observable(rng, 1, d, max_sites=1, span=2),
                        (int(rng.integers(-2, 3)),)) for _ in range(int(rng.integers(1, 6)))]
            factors.insert(int(rng.integers(0, len(factors) + 1)), (unit, (0,)))
            assert sl.expect_product(factors) == sitewise_expect_product(sl, factors)

    def test_higher_order_builds_cluster_sized_matrices(self, monkeypatch):
        # ZXZ at exponents (1, 2, 3) and g = 5: four disjoint 3-site clusters,
        # where one dense union contraction would need a 4096-dim matrix
        sl = shift_system(1, 2)
        dims = []
        embed = type(sl).embed

        def recording(self, obs, window):
            out = embed(self, obs, window)
            dims.append(out.shape[0])
            return out

        monkeypatch.setattr(type(sl), "embed", recording)
        zxz = pauli_observable([0, 1, 2], "ZXZ")
        spec = HigherOrderSpec(observables=(zxz,) * 4,
                               homs=tuple(Homomorphism.scalar(1, m) for m in (1, 2, 3)))
        stat = higher_order_defect(sl, spec, [custom_window(1, [5])])
        assert stat.values == (0.0,)
        assert dims and max(dims) <= 2 ** 3


class TestCommutatorNorm:
    def test_disjoint_supports_exact_zero(self):
        sl = shift_system(1, 2)
        a = pauli_observable([0], "X")
        b = pauli_observable([0], "Z")
        assert commutator_norm(sl, a, b, ID1, 3) == 0.0

    def test_self_commutator(self):
        sl = shift_system(1, 2)
        a = pauli_observable([0], "X")
        assert commutator_norm(sl, a, a, ID1, 0) == pytest.approx(0.0, abs=1e-14)

    def test_pauli_commutator(self):
        sl = shift_system(1, 2)
        a = pauli_observable([0], "X")
        b = pauli_observable([0], "Z")
        # [X, Z] = -2iY has operator norm 2
        assert commutator_norm(sl, a, b, ID1, 0) == pytest.approx(2.0)

    def test_finite_backend(self):
        sys_h = rotation_algebra_system(1, 2)
        u, v = clock_matrix(2), cyclic_shift_matrix(2)
        # UV = -VU so [U, V] = 2UV with norm 2
        assert commutator_norm(sys_h, u, v, ID1, 0) == pytest.approx(2.0)


class TestProductSystem:
    def test_unit(self):
        doubled = product_system(rotation_algebra_system(1, 3))
        assert doubled.expect(np.eye(9)) == pytest.approx(1.0)

    def test_squares_correlations(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            fs = random_finite_system(rng)
            doubled = product_system(fs)
            a, b = ginibre(rng, fs.dim), ginibre(rng, fs.dim)
            g = tuple(int(x) for x in rng.integers(-3, 4, size=fs.q))
            lhs = doubled.expect_product(
                [(lift_observable(a), (0,) * fs.q), (lift_observable(b), g)])
            rhs = abs(fs.expect_product([(a, (0,) * fs.q), (b, g)])) ** 2
            assert abs(lhs - rhs) < 1e-10

    def test_preserves_traciality(self):
        doubled = product_system(rotation_algebra_system(1, 3))
        assert doubled.is_tracial
        rng = np.random.default_rng(6)
        a, b = ginibre(rng, 9), ginibre(rng, 9)
        assert abs(doubled.expect(a @ b) - doubled.expect(b @ a)) < 1e-10

    def test_rejects_quasilocal(self):
        with pytest.raises(TypeError):
            product_system(shift_system(1, 2))


class TestShiftSystem:
    def test_identity_site(self):
        sl = shift_system(1, 2)
        one = LocalObservable(((3,),), np.eye(2, dtype=complex), 2)
        assert sl.expect(one) == pytest.approx(1.0)

    def test_product_state_factorization(self):
        sl = shift_system(1, 2)
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_local_observable(rng, 1, 2, max_sites=1)
            b = random_local_observable(rng, 1, 2, max_sites=1)
            g = int(rng.integers(5, 10))  # far enough to be disjoint
            lhs = sl.expect_product([(a, (0,)), (b, (g,))])
            rhs = sl.expect(a) * sl.expect(b)
            assert abs(lhs - rhs) < 1e-12

    def test_rejects_trivial_site(self):
        with pytest.raises(ValueError):
            shift_system(1, 1)
        with pytest.raises(ValueError):
            shift_system(0, 2)

    def test_window_independence(self):
        sl = shift_system(1, 2)
        obs = pauli_observable([0, 2], "ZX")
        base = sl.expect(obs)
        window = [(-1,), (0,), (1,), (2,), (5,)]
        padded = np.trace(sl.embed(obs, window)) / 2 ** len(window)
        assert abs(base - padded) < 1e-12

    def test_translate_moves_support(self):
        sl = shift_system(2, 2)
        obs = pauli_observable([(0, 0), (1, 2)], "XZ", q=2)
        moved = sl.translate(obs, (3, -1))
        assert moved.support == ((3, -1), (4, 1))
        assert np.array_equal(moved.tensor, obs.tensor)

    def test_obs_scale_keeps_support(self):
        sl = shift_system(2, 2)
        obs = pauli_observable([(0, 0), (1, 2)], "XZ", q=2)
        half = sl.obs_scale(obs, 0.5)
        assert half.support == obs.support
        assert np.array_equal(half.tensor, obs.tensor * 0.5)
        assert sl.obs_operator_norm(half) == pytest.approx(0.5)


class TestLocalObservable:
    def test_support_sorted_with_leg_permutation(self):
        zx = pauli_observable([1, 0], "ZX")
        xz = pauli_observable([0, 1], "XZ")
        assert zx.support == xz.support == ((0,), (1,))
        assert np.array_equal(zx.tensor, xz.tensor)

    def test_identity_legs_stripped(self):
        obs = pauli_observable([0, 1, 2], "ZIX")
        assert obs.support == ((0,), (2,))
        padded = LocalObservable(
            ((0,), (1,)), np.kron(PAULI["Z"], np.eye(2)), 2)
        assert padded.support == ((0,),)
        assert np.allclose(padded.tensor, PAULI["Z"])

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            LocalObservable(((0,), (0,)), np.eye(4, dtype=complex), 2)

    def test_middle_identity_leg_stripped_after_permutation(self):
        # an entangled pair on sites {0,2} declared with the identity leg
        # listed last: the constructor sorts legs, then strips the middle one
        pair = np.kron(PAULI["X"], PAULI["Z"]) + 0.5 * np.kron(PAULI["Y"], PAULI["X"])
        obs = LocalObservable(((0,), (2,), (1,)), np.kron(pair, np.eye(2)), 2)
        assert obs.support == ((0,), (2,))
        assert np.allclose(obs.tensor, pair, atol=1e-14)

    def test_scalar_observable(self):
        one = pauli_observable([0], "I")
        assert one.support == ()
        sl = shift_system(1, 2)
        assert sl.expect(one) == pytest.approx(1.0)


class TestAutomorphismLaws:
    def test_random_systems(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            fs = random_finite_system(rng)
            a, b = ginibre(rng, fs.dim), ginibre(rng, fs.dim)
            g = tuple(int(x) for x in rng.integers(-4, 5, size=fs.q))
            h = tuple(int(x) for x in rng.integers(-4, 5, size=fs.q))
            ta = fs.translate(a, g)
            assert np.linalg.norm(fs.translate(a @ b, g) - ta @ fs.translate(b, g)) < 1e-10
            assert np.linalg.norm(fs.translate(a.conj().T, g) - ta.conj().T) < 1e-10
            gh = tuple(x + y for x, y in zip(g, h))
            assert np.linalg.norm(
                fs.translate(fs.translate(a, h), g) - fs.translate(a, gh)) < 1e-10
            assert abs(operator_norm(ta) - operator_norm(a)) < 1e-10
            assert abs(fs.omega_norm(ta) - fs.omega_norm(a)) < 1e-10
            assert abs(fs.expect(ta) - fs.expect(a)) < 1e-10

    def test_cyclic_permutation_indicator(self):
        z3 = cyclic_permutation_system(3)
        ind = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for n in range(-6, 7):
            val = z3.expect_product([(ind, (0,)), (ind, (n,)), (ind, (2 * n,))])
            expected = 1 / 3 if n % 3 == 0 else 0.0
            assert val == pytest.approx(expected, abs=1e-14)

    def test_clock_shift_is_z2_action(self):
        cs = clock_shift_system(3)
        a = ginibre(RNG, 3)
        for g in ((1, 0), (0, 1), (2, -3)):
            for h in ((1, 1), (-2, 0)):
                gh = tuple(x + y for x, y in zip(g, h))
                assert np.linalg.norm(
                    cs.translate(cs.translate(a, h), g) - cs.translate(a, gh)) < 1e-10
