"""Dense complex matrix substrate: states, the omega-seminorm, tensor
products, the conjugate-algebra lift, and the telescoping product identity.

Everything is plain numpy complex128.  Matrices are treated as immutable by
convention; no defensive copies are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-12
PSD_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each slice of a stack."""
    return a.conj().swapaxes(-1, -2)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


@dataclass(frozen=True)
class State:
    """A positive normalized linear functional in density-matrix form.

    omega(a) = trace(density @ a).  Construction verifies hermiticity, unit
    trace and positive semidefiniteness; a ``tracial`` flag additionally
    requires the density to be the normalized identity (the only density that
    commutes with the full matrix algebra).
    """

    density: np.ndarray
    tracial: bool = False

    def __post_init__(self) -> None:
        rho = as_matrix(self.density)
        object.__setattr__(self, "density", rho)
        if np.linalg.norm(rho - rho.conj().T) > HERMITIAN_TOL:
            raise ValueError("density matrix must be hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        if self.tracial:
            n = rho.shape[0]
            if np.linalg.norm(rho - np.eye(n) / n) > HERMITIAN_TOL:
                raise ValueError("tracial flag requires the normalized-trace density")

    @property
    def dim(self) -> int:
        return self.density.shape[0]


def trace_state(dim: int) -> State:
    return State(np.eye(dim, dtype=np.complex128) / dim, tracial=True)


def apply_state_table(state: State, stack: np.ndarray) -> np.ndarray:
    """omega of each slice of a (T, N, N) stack, as a (T,) complex array.
    Each slice goes through the same products whatever the rest of the stack
    holds, so entry t is the value of the slice alone, bit for bit."""
    if stack.shape[1:] != (state.dim, state.dim):
        raise ValueError(f"dimension mismatch: state {state.dim}, matrix {stack.shape[1]}")
    return np.trace(state.density @ stack, axis1=1, axis2=2)


def apply_state(state: State, a: np.ndarray) -> complex:
    return complex(apply_state_table(state, as_matrix(a)[None])[0])


def omega_norm_table(state: State, stack: np.ndarray) -> np.ndarray:
    """sqrt(omega(a* a)) for each slice a of a (T, N, N) stack, clamped at 0
    against negative round-off."""
    vals = apply_state_table(state, adjoint(stack) @ stack).real
    # max(v, 0.0) as Python takes it: v unless 0.0 > v, so -0.0 and NaN pass
    return np.sqrt(np.where(0.0 > vals, 0.0, vals))


def omega_norm(state: State, a: np.ndarray) -> float:
    return float(omega_norm_table(state, as_matrix(a)[None])[0])


def operator_norm_table(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each slice of a (T, N, N) stack (full
    decomposition, deterministic)."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def operator_norm(a: np.ndarray) -> float:
    return float(operator_norm_table(as_matrix(a)[None])[0])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def conjugate_lift(a: np.ndarray) -> np.ndarray:
    """Entrywise conjugate: the image of a in the conjugate algebra, so that
    the lifted state satisfies omega-bar(a-bar) = conj(omega(a))."""
    return as_matrix(a).conj()


def product_state(state: State) -> State:
    """omega tensor omega-bar, as a density on the doubled algebra."""
    rho = state.density
    return State(np.kron(rho, rho.conj()), tracial=state.tracial)


def telescope_decompose(cs: Sequence[np.ndarray], ds: Sequence[np.ndarray]) -> np.ndarray:
    """Return sum_j (prod_{l<j} c_l)(c_j - d_j)(prod_{l>j} d_l).

    This equals prod(c) - prod(d) in any algebra; the summands isolate the
    effect of swapping one factor at a time.
    """
    if len(cs) != len(ds) or not cs:
        raise ValueError("need equally many c and d factors, at least one")
    cs = [as_matrix(c) for c in cs]
    ds = [as_matrix(d) for d in ds]
    dim = cs[0].shape[0]
    if any(m.shape[0] != dim for m in cs + ds):
        raise ValueError("all factors must share one dimension")
    k = len(cs)
    # suffix[j] = d_j d_{j+1} ... d_{k-1}
    suffix = [identity(dim)] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = ds[j] @ suffix[j + 1]
    total = np.zeros((dim, dim), dtype=np.complex128)
    prefix = identity(dim)
    for j in range(k):
        total += prefix @ (cs[j] - ds[j]) @ suffix[j + 1]
        prefix = prefix @ cs[j]
    return total


def matrix_from_json(data) -> np.ndarray:
    rows = []
    for row in data:
        rows.append([complex(re, im) for re, im in row])
    return as_matrix(np.array(rows, dtype=np.complex128))
