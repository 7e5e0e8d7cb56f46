"""Finite-dimensional GNS space, Koopman unitaries, joint eigenspace
splitting, the eigenoperator subalgebra, the mixing/compact-factor dichotomy,
and the combined Szemeredi driver.

The GNS space of (M_N, omega) with faithful omega is realized concretely as
C^{N^2} via a |-> vec(a rho^{1/2}); in that realization the algebra inner
product omega(a* b) IS the standard inner product, so Koopman matrices are
honest unitaries and a commuting family of them is split by recursive
simultaneous diagonalization of hermitian parts.  Everything here is exact
finite-dimensional linear algebra; no infinite-dimensional splitting is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._parallel import table_means
from .compactness import (
    SzemerediCompactReport,
    increasing_exponents,
    multi_correlations,
    szemeredi_average_compact,
)
from .folner import FolnerWindow, GroupElement, Homomorphism
from .mixing import HigherOrderSpec, _tail, collision_bound
from .systems import FiniteSystem, QuasiLocalSystem, SystemHandle

FAITHFUL_TOL = 1e-10
COMMUTE_TOL = 1e-10
CLUSTER_TOL = 1e-8
SPAN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GnsSpace:
    """The algebra as a Hilbert space: iota(a) = vec(a rho^{1/2}) identifies
    omega(a* b) with the standard inner product on C^{N^2}; Omega = iota(1)."""

    sys: FiniteSystem
    rho_sqrt: np.ndarray
    rho_inv_sqrt: np.ndarray

    @property
    def matrix_dim(self) -> int:
        return self.sys.dim

    @property
    def dim(self) -> int:
        return self.sys.dim ** 2

    def iota(self, a: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=np.complex128) @ self.rho_sqrt).reshape(-1)

    def iota_inverse(self, v: np.ndarray) -> np.ndarray:
        n = self.matrix_dim
        return np.asarray(v, dtype=np.complex128).reshape(n, n) @ self.rho_inv_sqrt

    def koopman_matrix(self, j: int) -> np.ndarray:
        """The unitary implementing the j-th generator on the GNS space."""
        u = self.sys.generators[j]
        return np.kron(u.conj().T, u.T)


def gns_build(sys: FiniteSystem) -> GnsSpace:
    """Build the GNS space; rejects non-faithful states, reporting a null
    element."""
    rho = sys.state.density
    evals, vecs = np.linalg.eigh(rho)
    if evals.min() <= FAITHFUL_TOL:
        idx = int(np.argmin(evals))
        null_dir = np.round(vecs[:, idx], 6).tolist()
        raise ValueError(
            "state is not faithful (min density eigenvalue "
            f"{evals.min():.3e}): any a with rows along {null_dir} has "
            "omega(a* a) = 0")
    sqrt = (vecs * np.sqrt(evals)) @ vecs.conj().T
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return GnsSpace(sys=sys, rho_sqrt=sqrt, rho_inv_sqrt=inv_sqrt)


def _simultaneous_eigenbasis(mats: Sequence[np.ndarray], tol: float) -> list[np.ndarray]:
    """Orthonormal joint eigenblocks of a commuting family of normal matrices,
    found by recursive diagonalization of their hermitian and antihermitian
    parts (eigh keeps blocks orthonormal; clustering tolerance splits
    eigenvalues)."""
    dim = mats[0].shape[0]
    herms = []
    for m in mats:
        herms.append((m + m.conj().T) / 2)
        herms.append((m - m.conj().T) / 2j)
    blocks = [np.eye(dim, dtype=np.complex128)]
    for h in herms:
        new_blocks = []
        for q in blocks:
            if q.shape[1] == 1:
                new_blocks.append(q)
                continue
            sub = q.conj().T @ h @ q
            w, s = np.linalg.eigh(sub)
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[start] > tol:
                    new_blocks.append(q @ s[:, start:i])
                    start = i
        blocks = new_blocks
    return blocks


@dataclass(frozen=True, eq=False)
class KoopmanSplitting:
    """Joint eigen-decomposition of the generator Koopman unitaries.

    eigenvectors holds an orthonormal basis of joint eigenvectors (columns);
    characters[i] is the tuple of per-generator eigenvalues of column i.  The
    fixed space is spanned by columns whose character is all ones; in finite
    dimensions the eigenvectors always span everything.
    """

    gns: GnsSpace
    koopman: tuple[np.ndarray, ...]
    eigenvectors: np.ndarray
    characters: tuple[tuple[complex, ...], ...]

    @property
    def dim_h0(self) -> int:
        return self.eigenvectors.shape[1]

    @property
    def dim_h1(self) -> int:
        return sum(1 for ch in self.characters if all(abs(c - 1.0) <= CLUSTER_TOL for c in ch))


def koopman_split(sys: FiniteSystem) -> KoopmanSplitting:
    """Simultaneously diagonalize the generator Koopman unitaries."""
    gns = gns_build(sys)
    mats = [gns.koopman_matrix(j) for j in range(sys.q)]
    n2 = gns.dim
    for i in range(len(mats)):
        if np.linalg.norm(mats[i].conj().T @ mats[i] - np.eye(n2)) > COMMUTE_TOL * n2:
            raise ValueError(f"Koopman matrix {i} is not unitary; invalid system")
        for j in range(i + 1, len(mats)):
            if np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]) > COMMUTE_TOL * n2:
                raise ValueError(
                    f"Koopman matrices {i},{j} do not commute; invalid system")
    blocks = _simultaneous_eigenbasis(mats, CLUSTER_TOL)
    cols = []
    chars = []
    for q in blocks:
        for c in range(q.shape[1]):
            v = q[:, c]
            cols.append(v)
            chars.append(tuple(complex(np.vdot(v, m @ v)) for m in mats))
    basis = np.stack(cols, axis=1)
    return KoopmanSplitting(
        gns=gns,
        koopman=tuple(mats),
        eigenvectors=basis,
        characters=tuple(chars),
    )


@dataclass(frozen=True, eq=False)
class CompactFactor:
    """The unital *-subalgebra generated by the eigenoperators, which is
    their span.

    basis rows span the algebra (orthonormal in the Hilbert-Schmidt inner
    product); in finite dimensions the generated algebra equals its double
    commutant, which tests spot-check on small cases.
    """

    generators: tuple[np.ndarray, ...]
    characters: tuple[tuple[complex, ...], ...]
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def _row_span(rows: np.ndarray, tol: float = SPAN_TOL) -> np.ndarray:
    """Orthonormal basis of the row span, via SVD with a relative rank cut."""
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    rank = int(np.sum(s > tol * s[0]))
    return vh[:rank]


def eigenoperator_factor(sys: FiniteSystem, split: KoopmanSplitting) -> CompactFactor:
    """Pull joint eigenvectors back to eigenoperators and span them with the
    identity and their adjoints.  The span is already the whole algebra, so
    it is closed under products: the joint eigenvectors are a basis of
    C^{N^2} and iota is invertible."""
    gns = split.gns
    n = sys.dim
    eigenops = []
    for i in range(split.eigenvectors.shape[1]):
        op = gns.iota_inverse(split.eigenvectors[:, i])
        eigenops.append(op)
    rows = [op.reshape(-1) for op in eigenops]
    rows.append(np.eye(n, dtype=np.complex128).reshape(-1))
    for op in eigenops:
        rows.append(op.conj().T.reshape(-1))
    basis = _row_span(np.stack(rows))
    if basis.shape[0] != n * n:
        raise AssertionError(
            f"eigenoperators span {basis.shape[0]} of {n * n} dimensions; this is a bug")
    return CompactFactor(
        generators=tuple(eigenops),
        characters=split.characters,
        basis=basis,
    )


@dataclass(frozen=True)
class DichotomyVerdict:
    kind: str  # "weakly-mixing" | "has-nontrivial-compact-factor" | "not-ergodic"
    ergodic: bool
    dim_h1: int
    dim_h0: int
    factor_dim: Optional[int] = None
    trivial_system: bool = False
    # the Koopman characters behind a compact-factor verdict, kept so callers
    # need not split again; not part of the verdict's identity or JSON
    characters: Optional[tuple[tuple[complex, ...], ...]] = field(
        default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ergodic": self.ergodic,
            "dim_H1": self.dim_h1,
            "dim_H0": self.dim_h0,
            "factor_dim": self.factor_dim,
            "trivial_system": self.trivial_system,
        }


def dichotomy_classify(sys: FiniteSystem) -> DichotomyVerdict:
    """Ergodic systems are weakly mixing exactly when no nontrivial compact
    factor exists; for matrix algebras of dimension >= 2 the eigenoperator
    factor is always nontrivial, so the verdict lands there."""
    if sys.dim == 1:
        return DichotomyVerdict(
            kind="weakly-mixing", ergodic=True, dim_h1=1, dim_h0=1,
            factor_dim=1, trivial_system=True)
    split = koopman_split(sys)
    if split.dim_h1 != 1:
        return DichotomyVerdict(
            kind="not-ergodic", ergodic=False,
            dim_h1=split.dim_h1, dim_h0=split.dim_h0)
    factor = eigenoperator_factor(sys, split)
    return DichotomyVerdict(
        kind="has-nontrivial-compact-factor", ergodic=True,
        dim_h1=1, dim_h0=split.dim_h0, factor_dim=factor.dimension,
        characters=split.characters)


@dataclass(frozen=True, eq=False)
class SzemerediDriverReport:
    branch: str  # "compact" | "weakly-mixing"
    exponents: tuple[int, ...]
    n: np.ndarray  # int64 window indices
    averages: np.ndarray  # float64, one per window
    tail_min: float
    verdict: Optional[DichotomyVerdict] = None
    compact_report: Optional[SzemerediCompactReport] = None
    target: Optional[float] = None
    deviation_constant: Optional[float] = None

    def to_json(self) -> dict:
        out = {
            "branch": self.branch,
            "exponents": list(self.exponents),
            "szemeredi_tail_min": self.tail_min,
        }
        if self.verdict is not None:
            out.update(self.verdict.to_json())
        if self.target is not None:
            out["target"] = self.target
            out["deviation_constant"] = self.deviation_constant
        return out


def szemeredi_driver(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    windows: Sequence[FolnerWindow],
    candidates: Optional[Sequence[GroupElement]] = None,
) -> SzemerediDriverReport:
    """Route a system to the branch that certifies its multi-correlation
    positivity.

    Finite backend: classify; ergodic finite systems always carry a
    nontrivial compact factor (the full algebra), so the compact-branch
    shifted-window average runs there.  Quasi-local backend: the product
    state splits correlations exactly, so the averages converge to
    omega(a)^{k+1} with an explicitly computed deviation constant.
    """
    exps = increasing_exponents(exponents)
    if not windows:
        raise ValueError("need at least one window")

    if isinstance(sys, QuasiLocalSystem):
        return _driver_weakly_mixing(sys, a, exps, windows)
    return _driver_compact(sys, a, exps, windows, candidates)


def _driver_weakly_mixing(sys, a, exps, windows) -> SzemerediDriverReport:
    q = sys.q
    mean_a = sys.expect(a).real
    if mean_a <= 0:
        raise ValueError("omega(a) must be positive")
    target = mean_a ** (len(exps) + 1)
    full = (0,) + exps
    averages = table_means(lambda pts: multi_correlations(sys, a, full, pts), windows)

    spec = HigherOrderSpec(
        observables=(a,) * (len(exps) + 1),
        homs=tuple(Homomorphism.scalar(q, m) for m in exps),
    )
    largest = max(windows, key=lambda w: w.size)
    const = collision_bound(sys, spec, largest)

    return SzemerediDriverReport(
        branch="weakly-mixing",
        exponents=exps,
        n=np.array([w.index for w in windows]),
        averages=averages,
        tail_min=min(_tail(averages)),
        target=target,
        deviation_constant=const,
    )


def _driver_compact(sys, a, exps, windows, candidates) -> SzemerediDriverReport:
    verdict = dichotomy_classify(sys)
    if not verdict.ergodic:
        raise ValueError("finite-backend driver requires an ergodic system")
    report = szemeredi_average_compact(sys, a, exps, windows, candidates)
    return SzemerediDriverReport(
        branch="compact",
        exponents=exps,
        n=report.n,
        averages=report.averages,
        tail_min=report.tail_min,
        verdict=verdict,
        compact_report=report,
    )
