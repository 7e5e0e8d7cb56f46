import json

import numpy as np
import pytest

from ergodix.operators import (
    State,
    adjoint,
    apply_state,
    conjugate_lift,
    matrix_from_json,
    apply_state_table,
    omega_norm,
    omega_norm_table,
    operator_norm,
    operator_norm_table,
    product_state,
    telescope_decompose,
    tensor,
    trace_state,
)
from ergodix.sampling import ginibre, unitary_with_invariant_state
from ergodix.systems import clock_matrix
from test_cli import matrix_to_json

RNG = np.random.default_rng(20240811)


class TestState:
    def test_trace_state_normalized(self):
        st = trace_state(4)
        assert abs(apply_state(st, np.eye(4)) - 1.0) < 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            State(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            State(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            State(np.diag([1.5, -0.5]))

    def test_tracial_flag_checked(self):
        with pytest.raises(ValueError):
            State(np.diag([0.9, 0.1]), tracial=True)

    def test_tracial_random_pairs(self):
        st = trace_state(3)
        for _ in range(50):
            a, b = ginibre(RNG, 3), ginibre(RNG, 3)
            lhs = apply_state(st, a @ b)
            rhs = apply_state(st, b @ a)
            bound = 1e-10 * operator_norm(a) * operator_norm(b)
            assert abs(lhs - rhs) <= bound + 1e-14


class TestApplyState:
    def test_identity(self):
        assert apply_state(trace_state(2), np.eye(2)) == pytest.approx(1.0)

    def test_traceless(self):
        assert apply_state(trace_state(2), np.diag([1.0, -1.0])) == pytest.approx(0.0)

    def test_pure_state_projects(self):
        st = State(np.diag([1.0, 0.0]))
        x, y = 0.37, -2.5
        assert apply_state(st, np.diag([x, y])) == pytest.approx(x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_state(trace_state(2), np.eye(3))


class TestOmegaNorm:
    def test_identity(self):
        assert omega_norm(trace_state(3), np.eye(3)) == pytest.approx(1.0)

    def test_sign_matrix(self):
        # a*a = 1 so the seminorm is 1
        assert omega_norm(trace_state(2), np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_zero(self):
        assert omega_norm(trace_state(2), np.zeros((2, 2))) == 0.0

    def test_triangle_inequality(self):
        st = trace_state(4)
        for _ in range(200):
            a, b, c = (ginibre(RNG, 4) for _ in range(3))
            assert omega_norm(st, a + b) <= omega_norm(st, a) + omega_norm(st, b) + 1e-10
            assert omega_norm(st, a - c) <= omega_norm(st, a - b) + omega_norm(st, b - c) + 1e-10


class TestStackedForms:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 29, 64])
    def test_slices_match_the_per_matrix_formulas(self, n):
        # a faithful non-tracial state and the trace state
        for st in (unitary_with_invariant_state(RNG, n)[1], trace_state(n)):
            stack = np.stack([ginibre(RNG, n) for _ in range(6)])
            values = apply_state_table(st, stack).tolist()
            norms = omega_norm_table(st, stack).tolist()
            for x, v, w in zip(stack, values, norms):
                assert v == complex(np.trace(st.density @ x))
                val = complex(np.trace(st.density @ (x.conj().T @ x)))
                assert w == float(np.sqrt(max(val.real, 0.0)))
            assert operator_norm_table(stack).tolist() == [
                float(np.linalg.svd(x, compute_uv=False)[0]) for x in stack]


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_clock_unitary(self):
        assert operator_norm(clock_matrix(7)) == pytest.approx(1.0, abs=1e-10)


class TestTensorAndConjugate:
    def test_identity_tensor(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_conjugate_is_entrywise(self):
        a = ginibre(RNG, 3)
        assert np.array_equal(conjugate_lift(a), a.conj())
        # the lift is a bijection compatible with the star operation
        assert np.array_equal(conjugate_lift(adjoint(a)), adjoint(conjugate_lift(a)))

    def test_doubled_state_squares_expectations(self):
        for _ in range(30):
            n = int(RNG.integers(2, 5))
            st = trace_state(n) if RNG.integers(0, 2) else \
                unitary_with_invariant_state(RNG, n)[1]
            a = ginibre(RNG, n)
            lhs = apply_state(product_state(st), tensor(a, conjugate_lift(a)))
            assert abs(lhs - abs(apply_state(st, a)) ** 2) < 1e-10

    def test_spatial_norm_multiplicative(self):
        for _ in range(30):
            a, b = ginibre(RNG, 3), ginibre(RNG, 4)
            lhs = operator_norm(tensor(a, b))
            rhs = operator_norm(a) * operator_norm(b)
            assert abs(lhs - rhs) <= 1e-10 * (1 + rhs)


class TestTelescope:
    def test_single_factor(self):
        c = ginibre(RNG, 3)
        d = ginibre(RNG, 3)
        assert np.allclose(telescope_decompose([c], [d]), c - d)

    def test_equal_factors_vanish(self):
        cs = [ginibre(RNG, 3) for _ in range(4)]
        assert np.linalg.norm(telescope_decompose(cs, cs)) == 0.0

    def test_matches_product_difference(self):
        for k in (2, 3, 5):
            cs = [ginibre(RNG, 3) for _ in range(k)]
            ds = [ginibre(RNG, 3) for _ in range(k)]
            prod_c = np.eye(3, dtype=complex)
            prod_d = np.eye(3, dtype=complex)
            for c in cs:
                prod_c = prod_c @ c
            for d in ds:
                prod_d = prod_d @ d
            scale = max(max(operator_norm(m) for m in cs + ds), 1.0) ** k
            got = telescope_decompose(cs, ds)
            assert np.linalg.norm(got - (prod_c - prod_d)) <= 1e-10 * scale

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            telescope_decompose([np.eye(2)], [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            telescope_decompose([], [])


class TestStateInequalities:
    def test_cauchy_schwarz_thousand_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            st = trace_state(n)
            a, b = ginibre(rng, n), ginibre(rng, n)
            lhs = abs(apply_state(st, adjoint(a) @ b))
            rhs = omega_norm(st, a) * omega_norm(st, b)
            assert lhs <= rhs + 1e-10 * (1 + rhs)

    def test_tracial_three_factor_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            st = trace_state(n)
            a, b, c = ginibre(rng, n), ginibre(rng, n), ginibre(rng, n)
            lhs = abs(apply_state(st, a @ b @ c))
            rhs = operator_norm(a) * omega_norm(st, b) * operator_norm(c)
            assert lhs <= rhs + 1e-10 * (1 + rhs)

    def test_seminorm_below_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            st = trace_state(n) if rng.integers(0, 2) else \
                unitary_with_invariant_state(rng, n)[1]
            a = ginibre(rng, n)
            assert omega_norm(st, a) <= operator_norm(a) + 1e-10

    def test_positivity(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            st = trace_state(n) if rng.integers(0, 2) else \
                unitary_with_invariant_state(rng, n)[1]
            a = ginibre(rng, n)
            assert apply_state(st, adjoint(a) @ a).real >= -1e-12


class TestSerialization:
    def test_round_trip_bit_exact(self):
        a = ginibre(RNG, 4)
        blob = json.dumps(matrix_to_json(a))
        back = matrix_from_json(json.loads(blob))
        assert np.array_equal(a, back)
        assert a.dtype == back.dtype

    def test_awkward_values_survive(self):
        a = np.array([[1e-308 + 1j * (2 ** -52), 0.1 + 0.2j],
                      [-1.0 / 3.0, 7e300 - 1e-300j]])
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
        assert np.array_equal(a, back)
