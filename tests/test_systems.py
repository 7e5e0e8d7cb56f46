import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ergodix.systems as systems_module
from ergodix.compactness import CHAIN_SLACK, _gap_witness, orbit_epsilon_structure, return_set
from ergodix.folner import Homomorphism, add, box_window, custom_window, scale, scale_table
from ergodix.mixing import HigherOrderSpec, higher_order_defect
from ergodix.operators import omega_norm, operator_norm, trace_state
from ergodix.sampling import ginibre, haar_unitary, random_finite_system, random_local_observable
from ergodix.systems import (
    FiniteSystem,
    LocalObservable,
    PAULI,
    QuasiLocalSystem,
    clock_matrix,
    clock_shift_system,
    commutator_norm,
    commutator_norm_table,
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
    table_chunks,
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
            assert omega_norm(sys_h.state, x) == pytest.approx(1.0)
            for y in orbit[i + 1:]:
                assert sys_h.omega_distance_table(x, y)[0] > 1.1


class TestUnitaryPowers:
    @pytest.mark.parametrize("m", [10**12 + 3, -(10**12 + 3)])
    def test_huge_permutation_power_is_exact(self, m):
        sys_h = cyclic_permutation_system(7)
        expected = np.linalg.matrix_power(cyclic_shift_matrix(7), m % 7)
        assert np.array_equal(sys_h.unitary_for(m), expected)

    def test_zero_is_identity(self):
        assert np.array_equal(cyclic_permutation_system(4).unitary_for(0), np.eye(4))
        assert np.array_equal(clock_shift_system(3).unitary_for((0, 0)), np.eye(3))

    def test_exponent_law_on_random_generators(self):
        rng = np.random.default_rng(5)
        for i in range(6):
            sys_h = random_finite_system(rng, q=1)
            a, b = (int(x) for x in rng.integers(9_000, 11_000, size=2))
            b = b if i % 2 else -b
            product = sys_h.unitary_for(a) @ sys_h.unitary_for(b)
            assert np.linalg.norm(sys_h.unitary_for(a + b) - product) < 1e-9


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
        assert stat.values.tolist() == [0.0]
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_omega_distance_with_an_identity_leg(self, d):
        # a - b = I (x) C on sites 0 and 1: omega((a-b)*(a-b)) = tr(C* C) / d
        sl = shift_system(1, d)
        rng = np.random.default_rng(40 + d)
        for _ in range(50):
            c = ginibre(rng, d)
            b = ginibre(rng, d * d)
            a = LocalObservable(((0,), (1,)), b + np.kron(np.eye(d), c), d)
            b = LocalObservable(((0,), (1,)), b, d)
            exact = np.sqrt(np.trace(c.conj().T @ c).real / d)
            assert sl.omega_distance_table([a], [b])[0] == pytest.approx(exact, rel=1e-15)

    def test_omega_distance_of_scalars(self):
        # both supports are empty, so the difference is the 1x1 scalar one
        sl = shift_system(1, 2)
        half = LocalObservable((), np.array([[0.5 + 0j]]), 2)
        assert sl.omega_distance_table([pauli_observable([0], "I"), half], half).tolist() == \
            [0.5, 0.0]

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
            assert abs(omega_norm(fs.state, ta) - omega_norm(fs.state, a)) < 1e-10
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


# --- stacked translates -----------------------------------------------------

def reference_translate(fs, a, g):
    """The one-row formula: W* a W with W the identity times, for each
    generator u (u* when g_j < 0), the square u^(2^k) for each set bit k of
    |g_j|, from the least significant bit up."""
    w = np.eye(fs.dim, dtype=np.complex128)
    for u, gj in zip(fs.generators, g):
        square = u if gj > 0 else u.conj().T
        for k in range(abs(gj).bit_length()):
            if k:
                square = square @ square
            if abs(gj) >> k & 1:
                w = w @ square
    return w.conj().T @ a @ w


def reference_omega_norm(fs, x):
    val = complex(np.trace(fs.state.density @ (x.conj().T @ x)))
    return float(np.sqrt(max(val.real, 0.0)))


def reference_expect_product(fs, factors):
    prod = np.eye(fs.dim, dtype=np.complex128)
    for a, g in factors:
        prod = prod @ reference_translate(fs, a, g)
    return complex(np.trace(fs.state.density @ prod))


def same_bits(x, y):
    """Equal arrays, NaN included, with equal signs of zero."""
    x, y = np.asarray(x).reshape(-1), np.asarray(y).reshape(-1)
    return (np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x.view(np.float64)), np.signbit(y.view(np.float64))))


EXPONENTS = (0, 1, -1, 2, -2, 3, -3, 4, -4, 300, -300, 5, -7, 37)
SLICE_EXPONENTS = (0, 1, -1, 3, -3, 300, -300, 10**12 + 3)


def table_systems():
    haar = haar_unitary(np.random.default_rng(2024), 4)
    return [rotation_algebra_system(3, 16), clock_shift_system(5),
            product_system(clock_shift_system(3)),
            FiniteSystem(generators=(haar,), state=trace_state(4))]


class TestTranslateTable:
    @pytest.mark.parametrize("index", range(4))
    def test_every_slice_matches_the_per_point_formula(self, index):
        fs = table_systems()[index]
        rng = np.random.default_rng(index)
        a = ginibre(rng, fs.dim)
        rows = [(m,) * fs.q for m in EXPONENTS]
        rows += [tuple(int(x) for x in rng.choice(EXPONENTS, size=fs.q)) for _ in range(40)]
        table = fs.translate_table(a, np.array(rows))
        assert table.shape == (len(rows), fs.dim, fs.dim)
        for x, g in zip(table, rows):
            assert same_bits(x, reference_translate(fs, a, g))

    @pytest.mark.parametrize("m", [10**12 + 3, 2**62 + 1, -(2**62 + 1)])
    def test_huge_exponents_take_exact_ints(self, m):
        points = np.array([[1], [-1], [0], [2]])
        shifts = scale_table(m, points)
        assert shifts.dtype == (np.int64 if abs(m) < 2**61 else object)
        assert shifts.tolist() == [[m], [-m], [0], [2 * m]]
        for fs in (rotation_algebra_system(3, 16), cyclic_permutation_system(5),
                   FiniteSystem(generators=(haar_unitary(np.random.default_rng(8), 3),),
                                state=trace_state(3))):
            a = ginibre(np.random.default_rng(1), fs.dim)
            with np.errstate(all="ignore"):
                table = fs.translate_table(a, shifts)
                for x, (g,) in zip(table, shifts.tolist()):
                    assert same_bits(x, reference_translate(fs, a, (g,)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), q=st.sampled_from([1, 2]),
           pairs=st.lists(st.tuples(*[st.sampled_from(SLICE_EXPONENTS)] * 2),
                          min_size=1, max_size=12))
    def test_a_table_slice_is_the_one_row_call(self, seed, q, pairs):
        rng = np.random.default_rng(seed)
        fs = random_finite_system(rng, q=q)
        a = ginibre(rng, fs.dim)
        shifts = np.array([pair[:q] for pair in pairs])
        table = fs.translate_table(a, shifts)
        for x, g in zip(table, shifts.tolist()):
            assert same_bits(x, fs.translate(a, g))
        unitaries = fs._unitary_stack([tuple(g) for g in shifts.tolist()])
        for w, g in zip(unitaries, shifts.tolist()):
            assert same_bits(w, fs.unitary_for(g))

    def test_chunks_match_the_unchunked_bytes(self, monkeypatch):
        fs = rotation_algebra_system(3, 16)
        a = ginibre(np.random.default_rng(3), 16)
        shifts = np.arange(-300, 301).reshape(-1, 1)
        whole = fs.expect_product_table([(a, shifts), (a, 2 * shifts)])
        assert fs.dim ** 2 * len(shifts) > systems_module._STACK_ENTRIES
        monkeypatch.setattr(systems_module, "_STACK_ENTRIES", 7 * fs.dim ** 2)
        assert [len(range(20)[s]) for s in table_chunks(fs, 20)] == [7, 7, 6]
        chunked = fs.expect_product_table([(a, shifts), (a, 2 * shifts)])
        assert same_bits(whole, chunked)
        net = orbit_epsilon_structure(fs, a, 0.5, box_window(1, 40))
        monkeypatch.setattr(systems_module, "_STACK_ENTRIES", 1 << 20)
        assert orbit_epsilon_structure(fs, a, 0.5, box_window(1, 40)).shifts == net.shifts

    def test_rejects_a_shift_of_the_wrong_rank(self):
        with pytest.raises(ValueError):
            clock_shift_system(3).translate_table(np.eye(3), np.zeros((2, 1), dtype=np.int64))

    def test_quasilocal_table_is_per_point(self):
        sl = shift_system(2, 2)
        obs = pauli_observable([(0, 0), (1, 0)], "ZX", q=2)
        shifts = np.array([[0, 0], [3, -1], [0, 0]])
        moved = sl.translate_table(obs, shifts)
        assert [o.support for o in moved] == [sl.translate(obs, g).support
                                              for g in map(tuple, shifts.tolist())]
        vals = sl.expect_product_table([(obs, shifts), (obs.adjoint(), shifts[::-1])])
        assert vals.tolist() == [sl.expect_product([(obs, g), (obs.adjoint(), h)])
                                 for g, h in zip(map(tuple, shifts.tolist()),
                                                 map(tuple, shifts[::-1].tolist()))]


@st.composite
def finite_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    fs = random_finite_system(rng, q=draw(st.sampled_from([None, 1, 2])))
    return fs, ginibre(rng, fs.dim), ginibre(rng, fs.dim), rng


class TestStackedCounterparts:
    @settings(max_examples=40, deadline=None)
    @given(case=finite_cases(), size=st.integers(1, 9))
    def test_distance_and_products_match_per_point_values(self, case, size):
        fs, a, b, rng = case
        shifts = rng.integers(-6, 7, size=(size, fs.q))
        rows = list(map(tuple, shifts.tolist()))
        xs = fs.translate_table(a, shifts)
        dists = fs.omega_distance_table(xs, b)
        for x, d in zip(xs, dists.tolist()):
            assert same_bits(d, reference_omega_norm(fs, x - b))
        back = fs.omega_distance_table(b, xs)
        for x, d in zip(xs, back.tolist()):
            assert same_bits(d, reference_omega_norm(fs, b - x))
        other = shifts[::-1]
        vals = fs.expect_product_table([(a, shifts), (b, other), (a, shifts)])
        for v, g, h in zip(vals.tolist(), rows, map(tuple, other.tolist())):
            assert same_bits(v, reference_expect_product(fs, [(a, g), (b, h), (a, g)]))
        assert same_bits(fs.expect_product([(a, rows[0]), (b, rows[-1])]),
                         reference_expect_product(fs, [(a, rows[0]), (b, rows[-1])]))


def reference_return_set(fs, a, epsilon, exps, scan):
    """The per-point return set: members and each member's certificate rows
    (lhs, rhs, holds), one entry per exponent."""
    members, certs = [], []
    for g in scan.iter_elements():
        dists = [0.0 if m == 0 else
                 reference_omega_norm(fs, reference_translate(fs, a, scale(m, g)) - a)
                 for m in exps]
        if max(dists) < epsilon:
            members.append(g)
            base = reference_omega_norm(fs, reference_translate(fs, a, g) - a)
            rhs = [m * base for m in exps]
            holds = [m == 0 or d <= r + CHAIN_SLACK * (1.0 + r) for m, d, r in zip(exps, dists, rhs)]
            certs.append((dists, rhs, holds))
    return members, certs


def reference_epsilon_net(fs, a, epsilon, scan):
    picked, points = [], []
    for g in scan.iter_elements():
        x = reference_translate(fs, a, g)
        if all(reference_omega_norm(fs, x - p) >= epsilon for p in points):
            picked.append(g)
            points.append(x)
    return picked, points


class TestCompactnessOnTables:
    @settings(max_examples=30, deadline=None)
    @given(case=finite_cases(), n=st.integers(1, 6), eps=st.floats(0.05, 2.0),
           exps=st.lists(st.integers(0, 4), min_size=1, max_size=3))
    def test_return_set_matches_per_point_reference(self, case, n, eps, exps):
        fs, a, _, _ = case
        scan = box_window(fs.q, n)
        rset = return_set(fs, a, eps, exps, scan)
        members, certs = reference_return_set(fs, a, eps, tuple(exps), scan)
        assert list(rset.members) == members
        assert rset.chain_lhs.shape == rset.chain_rhs.shape == (len(members), len(exps))
        assert list(zip(rset.chain_lhs.tolist(), rset.chain_rhs.tolist(),
                        rset.chain_holds.tolist())) == certs
        assert rset.gap_witness == _gap_witness(members, scan)

    @settings(max_examples=30, deadline=None)
    @given(case=finite_cases(), n=st.integers(1, 6), eps=st.floats(0.05, 2.0))
    def test_epsilon_net_matches_per_point_reference(self, case, n, eps):
        fs, a, _, _ = case
        scan = box_window(fs.q, n)
        net = orbit_epsilon_structure(fs, a, eps, scan)
        picked, points = reference_epsilon_net(fs, a, eps, scan)
        assert list(net.shifts) == picked
        assert all(same_bits(x, y) for x, y in zip(net.points, points))


def reference_operator_norm(x):
    return float(np.linalg.svd(x, compute_uv=False)[0])


class TestCommutatorTable:
    @settings(max_examples=40, deadline=None)
    @given(case=finite_cases(), size=st.integers(1, 20), m=st.integers(-3, 3))
    def test_finite_rows_match_the_per_point_reference(self, case, size, m):
        fs, a, b, rng = case
        hom = Homomorphism.scalar(fs.q, m)
        points = rng.integers(-6, 7, size=(size, fs.q))
        rows = list(map(tuple, points.tolist()))
        expected = []
        for g in rows:
            tb = reference_translate(fs, b, scale(m, g))
            expected.append(reference_operator_norm(a @ tb - tb @ a))
        whole = commutator_norm_table(fs, a, b, hom, points)
        assert same_bits(whole, expected)
        # three rows a chunk, so every table of four rows or more is split
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(systems_module, "_STACK_ENTRIES", 3 * fs.dim ** 2)
            assert same_bits(commutator_norm_table(fs, a, b, hom, points), expected)
            unmoved = reference_translate(fs, b, (0,) * fs.q)
            assert same_bits(commutator_norm_table(fs, a, b, None, points),
                             [reference_operator_norm(a @ unmoved - unmoved @ a)] * size)
        assert same_bits(commutator_norm(fs, a, b, hom, rows[-1]), expected[-1])

    @pytest.mark.parametrize("q,d", [(1, 2), (1, 3), (2, 2)])
    def test_chain_rows_match_the_dense_union_window(self, q, d):
        sl = shift_system(q, d)
        rng = np.random.default_rng(53 + 7 * q + d)
        hom = Homomorphism.scalar(q, 1)
        points = rng.integers(-2, 3, size=(30, q))
        for _ in range(6):
            a = random_local_observable(rng, q, d, max_sites=2, span=1)
            b = random_local_observable(rng, q, d, max_sites=2, span=1)
            got = commutator_norm_table(sl, a, b, hom, points)
            for v, g in zip(got.tolist(), map(tuple, points.tolist())):
                bs = sl.translate(b, g)  # hom is the identity
                window = sorted(set(a.support) | set(bs.support))
                am, bm = sl.embed(a, window), sl.embed(bs, window)
                dense = reference_operator_norm(am @ bm - bm @ am)
                if set(a.support).isdisjoint(bs.support):
                    # commuting by support: exactly zero, where the dense
                    # product only cancels up to round-off
                    assert v == 0.0 and dense < 1e-12
                else:
                    assert v == dense
                assert v == commutator_norm(sl, a, b, hom, g)


# --- chain tables -----------------------------------------------------------

def per_row_expect_product(sl, factors):
    """One row contracted on its own: scalars in factor order, then each
    cluster embedded on its sorted window, multiplied and traced."""
    shifted = [sl.translate(o, g) for o, g in factors]
    out = 1.0 + 0j
    for o in shifted:
        if o.n_sites == 0:
            out *= o.tensor[0, 0]
    for cluster in overlap_clusters([o.support for o in shifted]):
        members = [shifted[i] for i in cluster]
        window = sorted({s for o in members for s in o.support})
        prod = sl.embed(members[0], window)
        for o in members[1:]:
            prod = prod @ sl.embed(o, window)
        out *= np.trace(prod) / sl.d ** len(window)
    return complex(out)


@st.composite
def chain_tables(draw, q, max_factors=3, reach=2, spread=9):
    """1..max_factors random local observables on the d = 2 chain over Z^q
    with one scalar factor put among them, and an aligned shift table whose
    rows are a few relative patterns, each at several base points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs = [random_local_observable(rng, q, 2, max_sites=2, span=1)
           for _ in range(draw(st.integers(1, max_factors)))]
    obs.insert(draw(st.integers(0, len(obs))), LocalObservable((), np.array([[0.5 - 0.25j]]), 2))
    patterns = rng.integers(-reach, reach + 1, size=(draw(st.integers(1, 3)), 1, len(obs), q))
    bases = rng.integers(-spread, spread + 1, size=(1, draw(st.integers(1, 6)), 1, q))
    rows = (patterns + bases).reshape(-1, len(obs), q)
    rows = rows[rng.permutation(len(rows))]
    return obs, [rows[:, j] for j in range(len(obs))]


def ring_system(length=8):
    """The periodic ring of ``length`` two-level sites as a finite system:
    M_{2^length} with the trace state, generated by the unitary that moves
    every site's leg one place along the ring."""
    dim = 2 ** length
    moved = np.moveaxis(np.arange(dim).reshape((2,) * length), -1, 0).reshape(-1)
    u = np.zeros((dim, dim), dtype=np.complex128)
    u[moved, np.arange(dim)] = 1.0
    return FiniteSystem(generators=(u,), state=trace_state(dim))


class TestChainTable:
    @pytest.mark.parametrize("q", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_equal_the_per_row_contraction(self, q, data):
        sl = shift_system(q, 2)
        obs, tables = data.draw(chain_tables(q))
        vals = sl.expect_product_table(list(zip(obs, tables)))
        assert vals.tolist() == [
            per_row_expect_product(sl, list(zip(obs, gs)))
            for gs in zip(*(map(tuple, t.tolist()) for t in tables))]

    def test_translates_of_one_cluster_embed_once_per_member(self, monkeypatch):
        sl = shift_system(1, 2)
        embeds = []
        embed = QuasiLocalSystem.embed

        def counting(self, obs, window):
            embeds.append(obs)
            return embed(self, obs, window)

        monkeypatch.setattr(QuasiLocalSystem, "embed", counting)
        a, b = pauli_observable([0, 1], "ZX"), pauli_observable([0, 1], "XY")
        unit = LocalObservable((), np.array([[2.0 + 0j]]), 2)
        shifts = np.arange(-20, 20).reshape(-1, 1)
        vals = sl.expect_product_table([(a, shifts), (unit, shifts), (b, shifts + 1)])
        assert len(embeds) == 2
        assert np.all(vals == vals[0])
        assert vals[0] == per_row_expect_product(sl, [(a, (0,)), (unit, (0,)), (b, (1,))])

    def test_one_observable_in_three_factors_contracts_once(self, monkeypatch):
        # the three singletons of a row are keyed by the observable, not by
        # the factor that holds it, so they share one contraction
        sl = shift_system(1, 2)
        embeds = []
        embed = QuasiLocalSystem.embed

        def counting(self, obs, window):
            embeds.append(obs)
            return embed(self, obs, window)

        monkeypatch.setattr(QuasiLocalSystem, "embed", counting)
        a = pauli_observable([0, 1], "ZX")
        shifts = np.arange(-20, 20).reshape(-1, 1)
        vals = sl.expect_product_table([(a, shifts), (a, shifts + 5), (a, 2 * shifts + 50)])
        assert len(embeds) == 1
        assert vals.tolist() == [
            per_row_expect_product(sl, [(a, (g,)), (a, (g + 5,)), (a, (2 * g + 50,))])
            for g in shifts[:, 0].tolist()]

    def test_rejects_empty_and_misaligned_tables(self):
        sl = shift_system(1, 2)
        z = pauli_observable([0], "Z")
        with pytest.raises(ValueError):
            sl.expect_product_table([])
        with pytest.raises(ValueError):
            sl.expect_product([])
        with pytest.raises(ValueError):
            sl.expect_product_table([(z, np.zeros((3, 1), dtype=np.int64)),
                                     (z, np.zeros((2, 1), dtype=np.int64))])

    def test_ring_moves_each_site_one_place(self):
        ring, sl = ring_system(), shift_system(1, 2)
        sites = [(s,) for s in range(8)]
        z0 = sl.embed(pauli_observable([0], "Z"), sites)
        z1 = sl.embed(pauli_observable([1], "Z"), sites)
        assert np.array_equal(ring.translate(z0, 1), z1)

    @settings(max_examples=24, deadline=None)
    @given(data=st.data())
    def test_finite_ring_matches_the_chain_below_its_length(self, data):
        # a ring of 8 sites agrees with the chain whenever every row's
        # shifted supports fit in fewer than 8 consecutive sites
        ring, sl = ring_system(), shift_system(1, 2)
        obs, tables = data.draw(chain_tables(1, reach=5, spread=3))
        rows = np.stack(tables, axis=1)[:4]
        spans = [{s[0] + int(g[0]) for o, g in zip(obs, row) for s in o.support} for row in rows]
        keep = [max(s) - min(s) < 8 for s in spans]
        assume(any(keep))
        tables = [rows[keep, j] for j in range(len(obs))]
        sites = [(s,) for s in range(8)]
        # each observable is lifted onto the ring one site to the right of
        # its own support, which lies in [-1, 1]
        mats = [sl.embed(sl.translate(o, 1), sites) for o in obs]
        got = ring.expect_product_table([(m, t - 1) for m, t in zip(mats, tables)])
        want = sl.expect_product_table(list(zip(obs, tables)))
        assert np.max(np.abs(got - want)) < 1e-12
