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
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .folner import GroupElement, Homomorphism, add, as_element, element_row, zero
from .operators import (
    State,
    adjoint,
    apply_state,
    apply_state_table,
    as_matrix,
    identity,
    omega_norm,
    omega_norm_table,
    operator_norm,
    operator_norm_table,
    product_state,
    trace_state,
)

UNITARY_TOL = 1e-10
PHASE_TOL = 1e-8

# A stack of translates holds at most this many matrix entries (256 KB of
# complex128), so a shift table of any length is evaluated a chunk of rows at
# a time and its memory does not grow with the table.
_STACK_ENTRIES = 1 << 14

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

    def __post_init__(self) -> None:
        gens = tuple(as_matrix(u) for u in self.generators)
        object.__setattr__(self, "generators", gens)
        n = self.state.dim
        object.__setattr__(self, "_identity", identity(n))
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

    def _unitary_stack(self, rows: Sequence[GroupElement]) -> np.ndarray:
        """U^g for each row g, as a (T, N, N) stack.  From the identity, each
        row multiplies in the square u_j^(2^k) (of u_j* when g_j < 0) for each
        set bit k of |g_j|, least significant first.  Each square is formed
        once for the stack, so exponents up to M cost log2(M) squarings, and
        slice t is the one-row stack of g_t bit for bit."""
        w = np.empty((len(rows), *self._identity.shape), dtype=np.complex128)
        w[:] = self._identity
        for j, u in enumerate(self.generators):
            for base, exps in ((u, [max(g[j], 0) for g in rows]),
                               (u.conj().T, [max(-g[j], 0) for g in rows])):
                square = base
                for k in range(max(exps, default=0).bit_length()):
                    if k:
                        square = square @ square
                    idx = [t for t, m in enumerate(exps) if m >> k & 1]
                    if len(idx) == len(w):
                        w = w @ square
                    elif idx:
                        w[idx] = w[idx] @ square
        return w

    def unitary_for(self, g: Union[int, Sequence[int]]) -> np.ndarray:
        """U^g, each generator power by repeated squaring (O(log |g_j|) matmuls)."""
        return self._unitary_stack([as_element(g, self.q)])[0]

    def translate_table(self, a: np.ndarray, shifts) -> np.ndarray:
        """tau_g(a) = (U^g)* a U^g for each row g of a (T, q) shift table, as
        a (T, N, N) stack.  Slice t equals ``translate(a, g_t)`` bit for bit:
        every slice goes through the same matrix products, whatever the rest
        of the table holds.  The stack has T N^2 entries; callers that reduce
        it to numbers take the table a ``table_chunks`` slice at a time."""
        return self._translate_rows(as_matrix(a), _shift_rows(shifts, self.q))

    def _translate_rows(self, a: np.ndarray, rows: Sequence[GroupElement]) -> np.ndarray:
        w = self._unitary_stack(rows)
        return w.conj().transpose(0, 2, 1) @ a @ w

    def translate(self, a: np.ndarray, g: Union[int, Sequence[int]]) -> np.ndarray:
        return self.translate_table(a, [g])[0]

    def expect(self, a: np.ndarray) -> complex:
        return apply_state(self.state, a)

    def expect_product_table(self, factors: Sequence[tuple[np.ndarray, object]]) -> np.ndarray:
        """omega(prod_j tau_{g_j}(a_j)) for each row of the factors' aligned
        (T, q) shift tables, as a (T,) complex array whose entry t equals
        ``expect_product`` at row t bit for bit."""
        if not factors:
            raise ValueError("empty factor list")
        tables = [(as_matrix(a), _shift_rows(shifts, self.q)) for a, shifts in factors]
        count = len(tables[0][1])
        if any(len(rows) != count for _, rows in tables):
            raise ValueError("factor shift tables differ in length")
        out = np.empty(count, dtype=np.complex128)
        for chunk in table_chunks(self, count):
            prod = self._identity
            for a, rows in tables:
                prod = prod @ self._translate_rows(a, rows[chunk])
            out[chunk] = apply_state_table(self.state, prod)
        return out

    def expect_product(self, factors: Sequence[tuple[np.ndarray, GroupElement]]) -> complex:
        if not factors:
            raise ValueError("empty factor list")
        return complex(self.expect_product_table([(a, [g]) for a, g in factors])[0])

    def factorizes(self, factors: Sequence[tuple[np.ndarray, GroupElement]]) -> bool:
        """Whether omega of the product is exactly the product of the factors'
        omegas by construction; a matrix state promises that for no product."""
        return False

    def omega_norm(self, a: np.ndarray) -> float:
        return omega_norm(self.state, a)

    def omega_distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.omega_distance_table(as_matrix(a), as_matrix(b))[0])

    def omega_distance_table(self, xs, ys) -> np.ndarray:
        """omega_distance(x, y) for each pair of rows of two stacks of
        matrices; a single matrix on either side meets every row of the
        other.  Entry t equals the per-pair distance bit for bit."""
        diff = np.asarray(xs, dtype=np.complex128) - np.asarray(ys, dtype=np.complex128)
        return omega_norm_table(self.state, diff.reshape(-1, self.dim, self.dim))

    def commutator_norm_table(self, a: np.ndarray, b: np.ndarray, shifts) -> np.ndarray:
        """The operator norm of [a, tau_g(b)] for each row g of a (T, q)
        shift table, one stack of translates and one stacked decomposition
        per chunk."""
        a = as_matrix(a)
        out = np.empty(len(shifts), dtype=np.float64)
        for chunk in table_chunks(self, len(out)):
            tb = self.translate_table(b, shifts[chunk])
            out[chunk] = operator_norm_table(a @ tb - tb @ a)
        return out

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


def _shift_rows(shifts, q: int) -> list[GroupElement]:
    """The rows of a (T, q) integer shift table (an array or a sequence of
    group elements) as tuples of Python ints."""
    rows = shifts.tolist() if isinstance(shifts, np.ndarray) else shifts
    return [as_element(g, q) for g in rows]


def table_chunks(sys, count: int) -> Iterator[slice]:
    """Consecutive slices covering a table of ``count`` rows.  On the finite
    backend each slice's stack of translates holds at most _STACK_ENTRIES
    matrix entries; the quasi-local backend takes the table whole."""
    step = max(1, _STACK_ENTRIES // sys.dim ** 2 if isinstance(sys, FiniteSystem) else count)
    return (slice(lo, lo + step) for lo in range(0, count, step))


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
    per-site state of the identity is exactly 1.  The state is
    shift-invariant, so a table call contracts each distinct cluster, up to
    translation, once and shares its value among the rows that hold it."""

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

    def translate_table(self, obs: LocalObservable, shifts) -> list[LocalObservable]:
        """The translate of obs by each row of a (T, q) shift table."""
        return [self.translate(obs, g) for g in _shift_rows(shifts, self.q)]

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

    def _contract(self, members: Sequence[LocalObservable]) -> complex:
        """omega of the ordered product of one cluster's shifted members,
        contracted on the sorted union of their supports."""
        window = sorted({s for o in members for s in o.support})
        prod = self.embed(members[0], window)
        for o in members[1:]:
            prod = prod @ self.embed(o, window)
        return np.trace(prod) / self.d ** len(window)

    def expect_product_table(
        self, factors: Sequence[tuple[LocalObservable, object]]
    ) -> np.ndarray:
        """omega(prod_j tau_{g_j}(a_j)) for each row of the factors' aligned
        (T, q) shift tables, as a (T,) complex array.

        A row's value is its scalar factors times its clusters' values.  A
        cluster is keyed by its members and their shifts relative to its
        first member: a common shift keeps the sorted window's order and the
        product state is shift-invariant, so equal keys contract to the same
        bits, and each distinct key is contracted once per call."""
        if not factors:
            raise ValueError("empty factor list")
        obs = [self._check(a) for a, _ in factors]
        rows = zip(*(_shift_rows(shifts, self.q) for _, shifts in factors), strict=True)
        values: dict[tuple, complex] = {}
        out = []
        for gs in rows:
            shifted = [o._translated(g) for o, g in zip(obs, gs)]
            val = 1.0 + 0j
            for o in shifted:
                if o.n_sites == 0:
                    val *= o.tensor[0, 0]
            for cluster in overlap_clusters([o.support for o in shifted]):
                base = gs[cluster[0]]
                key = tuple((i, tuple(a - b for a, b in zip(gs[i], base))) for i in cluster)
                if key not in values:
                    values[key] = self._contract([shifted[i] for i in cluster])
                val *= values[key]
            out.append(val)
        return np.array(out, dtype=np.complex128)

    def expect_product(
        self, factors: Sequence[tuple[LocalObservable, GroupElement]]
    ) -> complex:
        return complex(self.expect_product_table([(a, [g]) for a, g in factors])[0])

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

    def omega_distance_table(self, xs, ys) -> np.ndarray:
        """omega_distance(x, y) for each pair of rows of two lists of
        observables; a single observable on either side meets every row of
        the other."""
        xs = [xs] * len(ys) if isinstance(xs, LocalObservable) else xs
        ys = [ys] * len(xs) if isinstance(ys, LocalObservable) else ys
        return np.array([self.omega_distance(x, y) for x, y in zip(xs, ys, strict=True)],
                        dtype=np.float64)

    def commutator_norm_table(self, a: LocalObservable, b: LocalObservable,
                              shifts) -> np.ndarray:
        """The operator norm of [a, tau_g(b)] for each row g of a (T, q)
        shift table: exactly 0 where the supports are disjoint, else computed
        on the smallest window containing both."""
        a = self._check(a)

        def norm(bs: LocalObservable) -> float:
            if supports_disjoint([a.support, bs.support]):
                return 0.0
            window = sorted(set(a.support) | set(bs.support))
            am, bm = self.embed(a, window), self.embed(bs, window)
            return operator_norm(am @ bm - bm @ am)

        return np.array([norm(bs) for bs in self.translate_table(b, shifts)], dtype=np.float64)

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

def _shift_table(hom: Optional[Homomorphism], points: np.ndarray) -> np.ndarray:
    """phi(g) for each row g of a (T, q) point table; a None homomorphism
    shifts every row by zero."""
    return np.zeros(points.shape, dtype=np.int64) if hom is None else hom.apply_table(points)


def evaluate_table(
    sys: SystemHandle,
    factors: Sequence[tuple[object, Optional[Homomorphism], np.ndarray]],
) -> np.ndarray:
    """omega of the ordered product of tau_{phi_j(g_j)}(a_j) at each row of
    the factors' aligned point tables: factor j is (a_j, phi_j or None, a
    (T, q) integer table of the g_j), and a None homomorphism means the zero
    shift (the fixed leading factor)."""
    return sys.expect_product_table([(obs, _shift_table(hom, points))
                                     for obs, hom, points in factors])


def evaluate(
    sys: SystemHandle,
    factors: Sequence[tuple[object, Optional[Homomorphism], Union[int, Sequence[int]]]],
) -> complex:
    """``evaluate_table`` at one point: each factor is (observable,
    homomorphism-or-None, group element)."""
    return complex(evaluate_table(sys, [(obs, hom, element_row(g)) for obs, hom, g in factors])[0])


def commutator_norm_table(
    sys: SystemHandle, a, b, hom: Optional[Homomorphism], points: np.ndarray
) -> np.ndarray:
    """Operator norm of [a, tau_{phi(g)}(b)] at each row g of a (T, q) point
    table."""
    return sys.commutator_norm_table(a, b, _shift_table(hom, points))


def commutator_norm(
    sys: SystemHandle,
    a,
    b,
    hom: Optional[Homomorphism],
    g: Union[int, Sequence[int]],
) -> float:
    """``commutator_norm_table`` at one point."""
    return float(commutator_norm_table(sys, a, b, hom, element_row(g))[0])
