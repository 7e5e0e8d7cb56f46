"""Dynamical-system backends.

Two backends share one evaluation interface:

* ``FiniteSystem`` -- an N-by-N matrix algebra with an invariant state and a
  Z^q-action by conjugation with phase-commuting unitary generators
  (clock/shift pairs, permutations, Haar unitaries).  Phases cancel under
  conjugation, so the action is an honest group action by *-automorphisms.
* ``QuasiLocalSystem`` -- the spin chain over Z^q with site dimension d,
  product normalized-trace state, and the lattice shift.  Observables have
  finite support; a product is evaluated by exact contraction over each
  cluster of overlapping supports, and the product state multiplies the
  cluster values.

Observables are numpy matrices (finite backend) or ``LocalObservable``
(quasi-local backend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .folner import GroupElement, Homomorphism, add, as_element, zero
from .operators import (
    State,
    adjoint,
    apply_state,
    as_matrix,
    identity,
    omega_norm,
    operator_norm,
    product_state,
    trace_state,
)

UNITARY_TOL = 1e-10
PHASE_TOL = 1e-8

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


# --------------------------------------------------------------------------
# finite backend
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """Matrix algebra M_N with invariant state and unitary-conjugation action.

    tau_g(a) = (U^g)* a U^g with U^g = U_1^{g_1} ... U_q^{g_q}.  Generators
    must be unitary, pairwise commuting up to a unimodular scalar, and must
    commute with the state density (equivalently the state is invariant).
    """

    generators: tuple[np.ndarray, ...]
    state: State
    _pow_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        gens = tuple(as_matrix(u) for u in self.generators)
        object.__setattr__(self, "generators", gens)
        n = self.state.dim
        for j, u in enumerate(gens):
            if u.shape[0] != n:
                raise ValueError("generator dimension does not match the state")
            if np.linalg.norm(u.conj().T @ u - np.eye(n)) > UNITARY_TOL:
                raise ValueError(f"generator {j} is not unitary")
            if np.linalg.norm(u @ self.state.density - self.state.density @ u) > UNITARY_TOL:
                raise ValueError(f"state is not invariant under generator {j}")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                comm = gens[i] @ gens[j] @ gens[i].conj().T @ gens[j].conj().T
                phase = comm[0, 0]
                if abs(abs(phase) - 1.0) > PHASE_TOL or \
                        np.linalg.norm(comm - phase * np.eye(n)) > PHASE_TOL:
                    raise ValueError(
                        f"generators {i},{j} do not commute up to a scalar phase")

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def q(self) -> int:
        return len(self.generators)

    @property
    def is_tracial(self) -> bool:
        return self.state.tracial

    def _power(self, j: int, m: int) -> np.ndarray:
        if m == 0:
            return identity(self.dim)
        key = (j, m)
        cached = self._pow_cache.get(key)
        if cached is not None:
            return cached
        base = self.generators[j] if m > 0 else self.generators[j].conj().T
        acc = identity(self.dim)
        for _ in range(abs(m)):
            acc = acc @ base
        self._pow_cache[key] = acc
        return acc

    def unitary_for(self, g: Union[int, Sequence[int]]) -> np.ndarray:
        g = as_element(g, self.q)
        w = identity(self.dim)
        for j, gj in enumerate(g):
            if gj != 0:
                w = w @ self._power(j, gj)
        return w

    def translate(self, a: np.ndarray, g: Union[int, Sequence[int]]) -> np.ndarray:
        w = self.unitary_for(g)
        return w.conj().T @ as_matrix(a) @ w

    def expect(self, a: np.ndarray) -> complex:
        return apply_state(self.state, a)

    def expect_product(self, factors: Sequence[tuple[np.ndarray, GroupElement]]) -> complex:
        if not factors:
            raise ValueError("empty factor list")
        prod = identity(self.dim)
        for a, shift in factors:
            prod = prod @ self.translate(a, shift)
        return self.expect(prod)

    def factorizes(self, factors: Sequence[tuple[np.ndarray, GroupElement]]) -> bool:
        """Whether omega of the product is exactly the product of the factors'
        omegas by construction; a matrix state promises that for no product."""
        return False

    def omega_norm(self, a: np.ndarray) -> float:
        return omega_norm(self.state, a)

    def omega_distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return omega_norm(self.state, as_matrix(a) - as_matrix(b))

    def obs_adjoint(self, a: np.ndarray) -> np.ndarray:
        return adjoint(a)

    def obs_power(self, a: np.ndarray, k: int) -> np.ndarray:
        return np.linalg.matrix_power(as_matrix(a), k)

    def obs_scale(self, a: np.ndarray, factor: float) -> np.ndarray:
        return a * factor

    def obs_operator_norm(self, a: np.ndarray) -> float:
        return operator_norm(a)

    def obs_min_eigenvalue(self, a: np.ndarray) -> float:
        a = as_matrix(a)
        if np.linalg.norm(a - a.conj().T) > UNITARY_TOL:
            raise ValueError("observable is not hermitian")
        return float(np.linalg.eigvalsh(a).min())


def product_system(sys: FiniteSystem) -> FiniteSystem:
    """The doubled system on M_{N^2}: state omega tensor omega-bar, generators
    U_j tensor conj(U_j).  Its per-g correlations reproduce |omega(a tau_g b)|^2
    exactly."""
    if not isinstance(sys, FiniteSystem):
        raise TypeError("product_system is only defined for the finite backend")
    gens = tuple(np.kron(u, u.conj()) for u in sys.generators)
    return FiniteSystem(generators=gens, state=product_state(sys.state))


def lift_observable(a: np.ndarray) -> np.ndarray:
    """a tensor a-bar, the doubled-system observable matching ``product_system``."""
    a = as_matrix(a)
    return np.kron(a, a.conj())


def clock_matrix(dim: int, p: int = 1) -> np.ndarray:
    zeta = np.exp(2j * np.pi * p / dim)
    return np.diag(zeta ** np.arange(dim)).astype(np.complex128)


def cyclic_shift_matrix(dim: int) -> np.ndarray:
    v = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        v[(k + 1) % dim, k] = 1.0
    return v


def rotation_algebra_system(p: int, big_q: int) -> FiniteSystem:
    """The finite rotation algebra at angle p/big_q: clock U, shift V with
    U V = e^{2 pi i p/Q} V U, normalized trace, Z-action a |-> (U^n)* a U^n."""
    if big_q < 2:
        raise ValueError("need Q >= 2")
    if math.gcd(p, big_q) != 1:
        raise ValueError("p and Q must be coprime")
    u = clock_matrix(big_q, p)
    v = cyclic_shift_matrix(big_q)
    zeta = np.exp(2j * np.pi * p / big_q)
    if np.linalg.norm(u @ v - zeta * (v @ u)) > 1e-12:
        raise AssertionError("clock/shift commutation relation failed")
    return FiniteSystem(generators=(u,), state=trace_state(big_q))


def clock_shift_system(big_q: int, p: int = 1) -> FiniteSystem:
    """Z^2-action on M_Q generated by conjugation with the clock and the shift."""
    if big_q < 2:
        raise ValueError("need Q >= 2")
    if math.gcd(p, big_q) != 1:
        raise ValueError("p and Q must be coprime")
    return FiniteSystem(
        generators=(clock_matrix(big_q, p), cyclic_shift_matrix(big_q)),
        state=trace_state(big_q),
    )


def cyclic_permutation_system(dim: int) -> FiniteSystem:
    """Classical rotation on dim points: diagonal observables, cyclic
    permutation action, uniform state."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    return FiniteSystem(generators=(cyclic_shift_matrix(dim),), state=trace_state(dim))


# --------------------------------------------------------------------------
# quasi-local backend
# --------------------------------------------------------------------------

def _leg_permute(tensor: np.ndarray, d: int, perm: Sequence[int]) -> np.ndarray:
    """Reorder the site legs of a d^k x d^k matrix: new leg b is old leg perm[b]."""
    k = len(perm)
    t = tensor.reshape((d,) * (2 * k))
    axes = list(perm) + [k + p for p in perm]
    return t.transpose(axes).reshape(d ** k, d ** k)


@dataclass(frozen=True, eq=False)
class LocalObservable:
    """A finitely supported observable on the spin chain.

    ``support`` is a sorted tuple of lattice sites (q-tuples of ints) and
    ``tensor`` the matrix on the ordered tensor product of the per-site
    factors.  Sites on which the tensor factors as the identity are stripped
    at construction, so the stored support is minimal; an empty support with a
    1x1 tensor is a scalar.
    """

    support: tuple[GroupElement, ...]
    tensor: np.ndarray
    site_dim: int

    def __post_init__(self) -> None:
        tensor = np.asarray(self.tensor, dtype=np.complex128)
        support = tuple(self.support)
        k = len(support)
        if len(set(support)) != k:
            raise ValueError("support sites must be distinct")
        if tensor.shape != (self.site_dim ** k, self.site_dim ** k):
            raise ValueError("tensor shape does not match support and site dimension")
        order = sorted(range(k), key=lambda i: support[i])
        if order != list(range(k)):
            tensor = _leg_permute(tensor, self.site_dim, order)
            support = tuple(support[i] for i in order)
        support, tensor = _strip_identity_legs(support, tensor, self.site_dim)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "tensor", tensor)

    @property
    def n_sites(self) -> int:
        return len(self.support)

    def adjoint(self) -> "LocalObservable":
        return LocalObservable(self.support, self.tensor.conj().T, self.site_dim)

    def matrix_power(self, k: int) -> "LocalObservable":
        return LocalObservable(
            self.support, np.linalg.matrix_power(self.tensor, k), self.site_dim)

    def _translated(self, g: GroupElement) -> "LocalObservable":
        """The observable moved by g.  A shift keeps the support sorted and
        minimal, so the construction-time sort and strip are skipped."""
        out = object.__new__(LocalObservable)
        object.__setattr__(out, "support", tuple(add(s, g) for s in self.support))
        object.__setattr__(out, "tensor", self.tensor)
        object.__setattr__(out, "site_dim", self.site_dim)
        return out


def _strip_identity_legs(
    support: tuple[GroupElement, ...], tensor: np.ndarray, d: int
) -> tuple[tuple[GroupElement, ...], np.ndarray]:
    changed = True
    while changed and len(support) > 0:
        changed = False
        k = len(support)
        t = tensor.reshape((d,) * (2 * k))
        for leg in range(k):
            rest = d ** (k - 1)
            axes = [leg] + [i for i in range(k) if i != leg]
            axes += [k + a for a in axes[:k]]
            moved = t.transpose(axes).reshape(d, rest, d, rest)
            block = sum(moved[i, :, i, :] for i in range(d)) / d
            ok = True
            for i in range(d):
                for j in range(d):
                    target = block if i == j else np.zeros_like(block)
                    if not np.allclose(moved[i, :, j, :], target, atol=1e-12, rtol=0.0):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                support = tuple(s for idx, s in enumerate(support) if idx != leg)
                tensor = block.copy()
                changed = True
                break
    if len(support) == 0 and tensor.shape != (1, 1):
        tensor = tensor.reshape(1, 1)
    return support, tensor


def single_site(site: Union[int, Sequence[int]], matrix, q: int = 1) -> LocalObservable:
    m = as_matrix(matrix)
    return LocalObservable((as_element(site, q),), m, m.shape[0])


def pauli_observable(sites: Sequence[Union[int, Sequence[int]]], labels: str,
                     q: int = 1) -> LocalObservable:
    """Tensor product of Pauli matrices on the named sites (labels like "ZX")."""
    if len(sites) != len(labels):
        raise ValueError("one label per site required")
    supp = []
    tensor = np.array([[1.0 + 0j]])
    for site, lab in zip(sites, labels):
        if lab.upper() == "I":
            continue
        supp.append(as_element(site, q))
        tensor = np.kron(tensor, PAULI[lab.upper()])
    if not supp:
        return LocalObservable((), np.array([[1.0 + 0j]]), 2)
    return LocalObservable(tuple(supp), tensor, 2)


def overlap_clusters(supports: Sequence[Sequence[GroupElement]]) -> list[list[int]]:
    """Connected components of the support-overlap graph.

    Each component lists factor indices in increasing order; components come
    in the order of their smallest index, and empty supports (scalars) belong
    to none.  Factors in different components have disjoint supports, so
    they commute and the product state factorizes over the components.
    """
    parent = list(range(len(supports)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[GroupElement, int] = {}
    for i, support in enumerate(supports):
        for site in support:
            parent[root(i)] = root(owner.setdefault(site, i))
    clusters: dict[int, list[int]] = {}
    for i, support in enumerate(supports):
        if support:
            clusters.setdefault(root(i), []).append(i)
    return list(clusters.values())


def supports_disjoint(supports: Sequence[Sequence[GroupElement]]) -> bool:
    """True when no two of the supports share a site."""
    return all(len(c) == 1 for c in overlap_clusters(supports))


@dataclass(frozen=True, eq=False)
class QuasiLocalSystem:
    """Spin chain over Z^q: product normalized-trace state, lattice-shift
    action.  Evaluation contracts each cluster of overlapping supports on its
    own sites; sites outside a cluster cannot change its value because the
    per-site state of the identity is exactly 1."""

    q: int
    d: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.d < 2:
            raise ValueError("site dimension must be >= 2")

    @property
    def is_tracial(self) -> bool:
        return True

    def _check(self, obs: LocalObservable) -> LocalObservable:
        if obs.site_dim != self.d:
            raise ValueError(
                f"site dimension mismatch: observable {obs.site_dim}, system {self.d}")
        if any(len(s) != self.q for s in obs.support):
            raise ValueError("observable support rank does not match lattice rank")
        return obs

    def translate(self, obs: LocalObservable, g: Union[int, Sequence[int]]) -> LocalObservable:
        return self._check(obs)._translated(as_element(g, self.q))

    def embed(self, obs: LocalObservable, window: Sequence[GroupElement]) -> np.ndarray:
        """The matrix of obs on the ordered tensor product over ``window``."""
        self._check(obs)
        window = list(window)
        m = len(window)
        pos = {s: i for i, s in enumerate(window)}
        if any(s not in pos for s in obs.support):
            raise ValueError("window does not cover the observable support")
        k = obs.n_sites
        if k == 0:
            return obs.tensor[0, 0] * identity(self.d ** m)
        big = np.kron(obs.tensor, identity(self.d ** (m - k)))
        order = list(obs.support) + [s for s in window if s not in set(obs.support)]
        perm = [order.index(s) for s in window]
        return _leg_permute(big, self.d, perm)

    def expect_product(
        self, factors: Sequence[tuple[LocalObservable, GroupElement]]
    ) -> complex:
        if not factors:
            raise ValueError("empty factor list")
        shifted = [self.translate(obs, shift) for obs, shift in factors]
        out = 1.0 + 0j
        for o in shifted:
            if o.n_sites == 0:
                out *= o.tensor[0, 0]
        for cluster in overlap_clusters([o.support for o in shifted]):
            members = [shifted[i] for i in cluster]
            window = sorted({s for o in members for s in o.support})
            prod = self.embed(members[0], window)
            for o in members[1:]:
                prod = prod @ self.embed(o, window)
            out *= np.trace(prod) / self.d ** len(window)
        return complex(out)

    def expect(self, obs: LocalObservable) -> complex:
        return self.expect_product([(obs, zero(self.q))])

    def factorizes(self, factors: Sequence[tuple[LocalObservable, GroupElement]]) -> bool:
        """Whether omega of the product is exactly the product of the factors'
        omegas by construction: true when the shifted supports are pairwise
        disjoint, since the product state factorizes over disjoint sites."""
        return supports_disjoint([self.translate(obs, g).support for obs, g in factors])

    def combine(self, coeff_obs: Sequence[tuple[complex, LocalObservable]]) -> LocalObservable:
        """Linear combination of observables, embedded on their union support."""
        obs_list = [self._check(o) for _, o in coeff_obs]
        window = sorted({s for o in obs_list for s in o.support})
        if not window:
            val = sum(c * o.tensor[0, 0] for c, o in coeff_obs)
            return LocalObservable((), np.array([[val]]), self.d)
        total = np.zeros((self.d ** len(window),) * 2, dtype=np.complex128)
        for c, o in coeff_obs:
            total += c * self.embed(o, window)
        return LocalObservable(tuple(window), total, self.d)

    def omega_norm(self, obs: LocalObservable) -> float:
        val = self.expect_product([(obs.adjoint(), zero(self.q)), (obs, zero(self.q))])
        return float(np.sqrt(max(val.real, 0.0)))

    def omega_distance(self, a: LocalObservable, b: LocalObservable) -> float:
        return self.omega_norm(self.combine([(1.0, a), (-1.0, b)]))

    def obs_adjoint(self, obs: LocalObservable) -> LocalObservable:
        return obs.adjoint()

    def obs_power(self, obs: LocalObservable, k: int) -> LocalObservable:
        return self._check(obs).matrix_power(k)

    def obs_scale(self, obs: LocalObservable, factor: float) -> LocalObservable:
        return LocalObservable(obs.support, obs.tensor * factor, obs.site_dim)

    def obs_operator_norm(self, obs: LocalObservable) -> float:
        return operator_norm(self._check(obs).tensor)

    def obs_min_eigenvalue(self, obs: LocalObservable) -> float:
        t = self._check(obs).tensor
        if np.linalg.norm(t - t.conj().T) > UNITARY_TOL:
            raise ValueError("observable is not hermitian")
        return float(np.linalg.eigvalsh(t).min())


def shift_system(q: int, d: int) -> QuasiLocalSystem:
    """The spin lattice over Z^q with site dimension d >= 2."""
    return QuasiLocalSystem(q=q, d=d)


SystemHandle = Union[FiniteSystem, QuasiLocalSystem]


# --------------------------------------------------------------------------
# unified evaluation
# --------------------------------------------------------------------------

def evaluate(
    sys: SystemHandle,
    factors: Sequence[tuple[object, Optional[Homomorphism], Union[int, Sequence[int]]]],
) -> complex:
    """omega of the ordered product of tau_{phi_j(g_j)}(a_j).

    Each factor is (observable, homomorphism-or-None, group element); a None
    homomorphism means the identity shift is zero (the fixed leading factor).
    """
    if not factors:
        raise ValueError("empty factor list")
    resolved = []
    for obs, hom, g in factors:
        if hom is None:
            q = len(as_element(g)) if g is not None else 1
            shift = zero(q)
        else:
            shift = hom.apply(as_element(g, hom.q))
        resolved.append((obs, shift))
    return sys.expect_product(resolved)


def commutator_norm(
    sys: SystemHandle,
    a,
    b,
    hom: Optional[Homomorphism],
    g: Union[int, Sequence[int]],
) -> float:
    """Operator norm of [a, tau_{phi(g)}(b)], computed on the smallest window
    containing both supports."""
    if hom is None:
        shift = zero(len(as_element(g)))
    else:
        shift = hom.apply(as_element(g, hom.q))
    if isinstance(sys, FiniteSystem):
        bm = sys.translate(b, shift)
        am = as_matrix(a)
        return operator_norm(am @ bm - bm @ am)
    bs = sys.translate(b, shift)
    a = sys._check(a)
    if supports_disjoint([a.support, bs.support]):
        return 0.0
    window = sorted(set(a.support) | set(bs.support))
    am = sys.embed(a, window)
    bm = sys.embed(bs, window)
    return operator_norm(am @ bm - bm @ am)
