import dataclasses

import numpy as np
import pytest

from ergodix.folner import box_schedule
from ergodix.operators import State, trace_state
from ergodix.sampling import ginibre, haar_unitary, random_finite_system
from ergodix.spectral import (
    KoopmanSplitting,
    dichotomy_classify,
    eigenoperator_factor,
    gns_build,
    koopman_split,
    szemeredi_driver,
)
from ergodix.systems import (
    FiniteSystem,
    clock_matrix,
    clock_shift_system,
    cyclic_shift_matrix,
    rotation_algebra_system,
    shift_system,
    single_site,
)

RNG = np.random.default_rng(4242)


def commutant_dimension(basis: np.ndarray, n: int) -> int:
    """Dimension of the commutant of the span (basis rows are vec'd
    matrices); used to spot-check double-commutant equality on small cases."""
    blocks = []
    eye = np.eye(n, dtype=np.complex128)
    for m in (r.reshape(n, n) for r in basis):
        # [X, m] = 0 as a linear condition on vec(X) (row-major):
        # vec(X m) = (I kron m^T) vec(X), vec(m X) = (m kron I) vec(X)
        blocks.append(np.kron(eye, m.T) - np.kron(m, eye))
    stacked = np.concatenate(blocks, axis=0)
    s = np.linalg.svd(stacked, compute_uv=False)
    tol = max(stacked.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return n * n - rank


def cyclic_vector(gns) -> np.ndarray:
    """Omega = iota(1), the GNS vector of the state."""
    return gns.rho_sqrt.reshape(-1)


class TestGnsBuild:
    def test_trace_state_m2(self):
        sys_h = FiniteSystem(generators=(clock_matrix(2),), state=trace_state(2))
        gns = gns_build(sys_h)
        assert gns.dim == 4
        omega_vec = cyclic_vector(gns)
        assert np.linalg.norm(omega_vec) == pytest.approx(1.0)
        assert np.allclose(gns.iota(np.eye(2)), omega_vec)

    def test_inner_product_is_state(self):
        sys_h = rotation_algebra_system(1, 3)
        gns = gns_build(sys_h)
        for _ in range(20):
            a, b = ginibre(RNG, 3), ginibre(RNG, 3)
            lhs = np.vdot(gns.iota(a), gns.iota(b))
            rhs = sys_h.expect(a.conj().T @ b)
            assert abs(lhs - rhs) < 1e-12

    def test_iota_inverse_roundtrip(self):
        sys_h = rotation_algebra_system(1, 4)
        gns = gns_build(sys_h)
        a = ginibre(RNG, 4)
        assert np.allclose(gns.iota_inverse(gns.iota(a)), a)

    def test_pure_state_rejected(self):
        fs_state = State(np.diag([1.0, 0.0]))
        sys_h = FiniteSystem(generators=(np.eye(2, dtype=complex),), state=fs_state)
        with pytest.raises(ValueError, match="faithful"):
            gns_build(sys_h)

    def test_koopman_implements_action(self):
        sys_h = clock_shift_system(3)
        gns = gns_build(sys_h)
        for j, g in ((0, (1, 0)), (1, (0, 1))):
            k = gns.koopman_matrix(j)
            for _ in range(5):
                a = ginibre(RNG, 3)
                assert np.allclose(k @ gns.iota(a), gns.iota(sys_h.translate(a, g)),
                                   atol=1e-12)


class TestKoopmanSplit:
    def test_clock_shift_dimensions(self):
        for big_q in (2, 3, 5):
            split = koopman_split(clock_shift_system(big_q))
            assert split.dim_h1 == 1
            assert split.dim_h0 == big_q ** 2

    def test_clock_shift_characters(self):
        big_q = 3
        split = koopman_split(clock_shift_system(big_q))
        zeta = np.exp(2j * np.pi / big_q)
        expected = {(round(j), round(k)) for j in range(big_q) for k in range(big_q)}
        got = set()
        for ch in split.characters:
            # each character is (zeta^{-k}, zeta^{j}) for some monomial U^j V^k
            ang0 = np.angle(ch[0]) / (2 * np.pi / big_q)
            ang1 = np.angle(ch[1]) / (2 * np.pi / big_q)
            got.add((round(ang1) % big_q, round(-ang0) % big_q))
        assert got == {(j, k) for j in range(big_q) for k in range(big_q)}
        assert abs(zeta ** big_q - 1) < 1e-12

    def test_single_clock_not_ergodic(self):
        big_q = 5
        split = koopman_split(rotation_algebra_system(1, big_q))
        assert split.dim_h1 == big_q
        assert split.dim_h0 == big_q ** 2

    def test_trivial_action_all_fixed(self):
        fs = FiniteSystem(generators=(np.eye(3, dtype=complex),),
                          state=trace_state(3))
        split = koopman_split(fs)
        assert split.dim_h1 == 9
        assert split.dim_h0 == 9

    def test_eigenbasis_orthonormal_and_eigen(self):
        split = koopman_split(clock_shift_system(3))
        basis = split.eigenvectors
        assert np.allclose(basis.conj().T @ basis, np.eye(9), atol=1e-10)
        for i, ch in enumerate(split.characters):
            v = basis[:, i]
            for k_mat, lam in zip(split.koopman, ch):
                assert np.linalg.norm(k_mat @ v - lam * v) < 1e-8
                assert abs(abs(lam) - 1.0) < 1e-10

    def test_koopman_unitary_wrt_gns_form(self):
        sys_h = clock_shift_system(3)
        gns = gns_build(sys_h)
        for j in range(2):
            k = gns.koopman_matrix(j)
            x = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
            y = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
            assert np.vdot(k @ x, k @ y) == pytest.approx(np.vdot(x, y), abs=1e-10)


def factor_systems() -> list[FiniteSystem]:
    """Systems whose eigenoperators must span M_N: clock-shift, four
    non-tracial invariant states, a Haar unitary and a permutation."""
    rng = np.random.default_rng(5)
    perm = np.zeros((4, 4), dtype=np.complex128)
    perm[rng.permutation(4), np.arange(4)] = 1.0
    return [
        clock_shift_system(3),
        *(random_finite_system(np.random.default_rng(seed), q=1, tracial=False)
          for seed in (1, 2, 3, 4)),
        FiniteSystem(generators=(haar_unitary(rng, 3),), state=trace_state(3)),
        FiniteSystem(generators=(perm,), state=trace_state(4)),
    ]


class TestEigenoperatorFactor:
    def test_clock_shift_full_algebra(self):
        for big_q in (2, 3, 5):
            sys_h = clock_shift_system(big_q)
            split = koopman_split(sys_h)
            fac = eigenoperator_factor(sys_h, split)
            assert fac.dimension == big_q ** 2
            assert len(fac.generators) == big_q ** 2

    def test_trivial_action_everything_fixed(self):
        fs = FiniteSystem(generators=(np.eye(2, dtype=complex),),
                          state=trace_state(2))
        split = koopman_split(fs)
        fac = eigenoperator_factor(fs, split)
        assert fac.dimension == 4
        for ch in fac.characters:
            assert all(abs(c - 1.0) < 1e-10 for c in ch)

    def test_single_clock_matrix_units(self):
        big_q = 4
        sys_h = FiniteSystem(generators=(clock_matrix(big_q),),
                             state=trace_state(big_q))
        split = koopman_split(sys_h)
        fac = eigenoperator_factor(sys_h, split)
        assert fac.dimension == big_q ** 2  # all matrix units are eigenoperators

    def test_eigenoperators_satisfy_eigen_relation(self):
        sys_h = clock_shift_system(3)
        split = koopman_split(sys_h)
        fac = eigenoperator_factor(sys_h, split)
        for op, ch in zip(fac.generators, fac.characters):
            for g, lam in (((1, 0), ch[0]), ((0, 1), ch[1])):
                moved = sys_h.translate(op, g)
                assert np.linalg.norm(moved - lam * op) < 1e-8

    def test_double_commutant_spot_check(self):
        # the generated unital *-algebra equals its double commutant in
        # finite dimensions; verified via commutant ranks on small cases
        for big_q in (2, 3):
            sys_h = clock_shift_system(big_q)
            fac = eigenoperator_factor(sys_h, koopman_split(sys_h))
            n = big_q
            c_dim = commutant_dimension(fac.basis, n)
            assert c_dim == 1  # full matrix algebra has scalar commutant
            eye_basis = np.eye(n * n, dtype=complex)[:1]  # span{vec basis of C1}
            eye_basis = np.zeros((1, n * n), dtype=complex)
            eye_basis[0] = np.eye(n, dtype=complex).reshape(-1) / np.sqrt(n)
            cc_dim = commutant_dimension(eye_basis, n)
            assert cc_dim == n * n  # commutant of the scalars is everything
            assert cc_dim == fac.dimension

    def test_full_algebra_with_orthonormal_basis(self):
        for sys_h in factor_systems():
            n = sys_h.dim
            fac = eigenoperator_factor(sys_h, koopman_split(sys_h))
            assert fac.dimension == n * n
            assert np.allclose(fac.basis.conj() @ fac.basis.T, np.eye(n * n), atol=1e-10)

    def test_factor_invariant_under_action(self):
        for sys_h in factor_systems():
            n = sys_h.dim
            basis = eigenoperator_factor(sys_h, koopman_split(sys_h)).basis
            shifts = [tuple(int(i == j) for i in range(sys_h.q)) for j in range(sys_h.q)]
            shifts.append((2, -1) if sys_h.q == 2 else (-3,))
            for g in shifts:
                for row in basis:
                    moved = sys_h.translate(row.reshape(n, n), g).reshape(-1)
                    coeffs = basis.conj() @ moved
                    assert np.linalg.norm(moved - basis.T @ coeffs) < 1e-10


    def test_span_short_of_full_algebra_is_a_bug(self):
        sys_h = clock_shift_system(3)
        split = koopman_split(sys_h)
        partial = KoopmanSplitting(gns=split.gns, koopman=split.koopman,
                                   eigenvectors=split.eigenvectors[:, :2],
                                   characters=split.characters[:2])
        with pytest.raises(AssertionError, match="span"):
            eigenoperator_factor(sys_h, partial)


class TestDichotomy:
    def test_clock_shift_has_compact_factor(self):
        verdict = dichotomy_classify(clock_shift_system(5))
        assert verdict.kind == "has-nontrivial-compact-factor"
        assert verdict.ergodic
        assert verdict.dim_h1 == 1
        assert verdict.dim_h0 == 25
        assert verdict.factor_dim == 25

    def test_trivial_algebra_weakly_mixing(self):
        fs = FiniteSystem(generators=(np.eye(1, dtype=complex),),
                          state=State(np.eye(1, dtype=complex)))
        verdict = dichotomy_classify(fs)
        assert verdict.kind == "weakly-mixing"
        assert verdict.trivial_system

    def test_single_clock_not_ergodic(self):
        verdict = dichotomy_classify(rotation_algebra_system(1, 5))
        assert verdict.kind == "not-ergodic"
        assert verdict.dim_h1 == 5

    def test_json_fields(self):
        blob = dichotomy_classify(clock_shift_system(2)).to_json()
        assert set(blob) == {"kind", "ergodic", "dim_H1", "dim_H0",
                             "factor_dim", "trivial_system"}

    def test_compact_verdict_carries_characters_outside_identity(self):
        sys_h = clock_shift_system(3)
        verdict = dichotomy_classify(sys_h)
        assert verdict.characters == koopman_split(sys_h).characters
        bare = dataclasses.replace(verdict, characters=None)
        assert verdict == bare
        assert hash(verdict) == hash(bare)
        assert repr(verdict) == repr(bare)


class TestSzemerediDriver:
    def test_quasilocal_branch_rate(self):
        sl = shift_system(1, 2)
        a = single_site(0, np.diag([1.0, 0.0]))
        rep = szemeredi_driver(sl, a, (1, 2), box_schedule(1, 1, 40))
        assert rep.branch == "weakly-mixing"
        assert rep.target == pytest.approx(1 / 8)
        assert rep.deviation_constant == pytest.approx(3 / 8, abs=1e-15)
        for n, v in zip(rep.n.tolist(), rep.averages.tolist()):
            assert abs(v - 1 / 8) <= rep.deviation_constant / (2 * n + 1) + 1e-15
        assert rep.tail_min > 0

    def test_finite_branch_positive(self):
        v = cyclic_shift_matrix(3)
        a = 0.5 * (np.eye(3) + 0.5 * (v + v.conj().T))
        rep = szemeredi_driver(clock_shift_system(3), a, (1, 2),
                               box_schedule(2, 1, 5))
        assert rep.branch == "compact"
        assert rep.tail_min > 0
        assert rep.verdict.kind == "has-nontrivial-compact-factor"

    def test_unit_observable_both_branches(self):
        sl = shift_system(1, 2)
        one = single_site(0, np.eye(2))
        rep = szemeredi_driver(sl, one, (1, 2), box_schedule(1, 1, 10))
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in rep.averages)

        cs = clock_shift_system(3)
        rep2 = szemeredi_driver(cs, np.eye(3, dtype=complex), (1, 2),
                                box_schedule(2, 1, 3))
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in rep2.averages)

    def test_nonergodic_rejected(self):
        sys_h = rotation_algebra_system(1, 3)
        a = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="ergodic"):
            szemeredi_driver(sys_h, a, (1, 2), box_schedule(1, 1, 3))

    def test_bad_exponents_rejected(self):
        sl = shift_system(1, 2)
        one = single_site(0, np.eye(2))
        with pytest.raises(ValueError):
            szemeredi_driver(sl, one, (2, 1), box_schedule(1, 1, 3))
        with pytest.raises(ValueError):
            szemeredi_driver(sl, one, (), box_schedule(1, 1, 3))


def test_scalar_substitution_window_inequality():
    # the driver's weakly mixing branch rests on comparing averages of
    # f(m g) over a box against averages of f over the stretched box
    # {-|m| n .. |m| n}; the sharp constant is |m| (injectivity of g -> m g)
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        reach = abs(m) * n
        f = {h: float(rng.uniform(0.0, 2.0)) for h in range(-reach, reach + 1)}
        lhs = sum(f[m * g] for g in range(-n, n + 1)) / (2 * n + 1)
        rhs = abs(m) * sum(f.values()) / (2 * reach + 1)
        assert lhs <= rhs + 1e-12


class TestSplitValidation:
    def test_random_systems_split_consistently(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            fs = random_finite_system(rng, tracial=True)
            split = koopman_split(fs)
            n2 = fs.dim ** 2
            assert split.dim_h0 == n2
            assert 1 <= split.dim_h1 <= n2
            if fs.q == 2:
                # conjugated clock/shift pairs are ergodic
                assert split.dim_h1 == 1
            # the cyclic vector is always fixed
            gns = split.gns
            omega_vec = cyclic_vector(gns)
            for k_mat in split.koopman:
                assert np.linalg.norm(k_mat @ omega_vec - omega_vec) < 1e-10
