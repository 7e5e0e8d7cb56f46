"""Seeded generators for randomized checks: Haar unitaries, invariant states,
random finite systems with genuine Z^q actions, and random local observables.

Every function takes an explicit numpy Generator so randomized suites are
reproducible from a single seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .operators import State, trace_state
from .systems import (
    FiniteSystem,
    LocalObservable,
    clock_matrix,
    cyclic_shift_matrix,
)


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_positive(rng: np.random.Generator, n: int) -> np.ndarray:
    a = ginibre(rng, n)
    return a.conj().T @ a


def unitary_with_invariant_state(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, State]:
    """A Haar-rotated diagonal unitary together with a faithful invariant
    state, built in a common eigenbasis so the two commute."""
    w = haar_unitary(rng, n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=n))
    weights = rng.uniform(0.2, 1.0, size=n)
    weights = weights / weights.sum()
    u = (w * phases) @ w.conj().T
    rho = (w * weights) @ w.conj().T
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    return u, State(rho, tracial=False)


def random_finite_system(
    rng: np.random.Generator,
    dim: Optional[int] = None,
    q: Optional[int] = None,
    tracial: Optional[bool] = None,
) -> FiniteSystem:
    """A random finite system: a conjugated clock/shift pair for q=2, or a
    Haar/permutation generator for q=1, with the trace state or a random
    invariant faithful state."""
    if q is None:
        q = int(rng.integers(1, 3))
    if dim is None:
        dim = int(rng.integers(2, 5))
    if tracial is None:
        tracial = bool(rng.integers(0, 2))
    w = haar_unitary(rng, dim)

    if q == 2:
        u = w @ clock_matrix(dim) @ w.conj().T
        v = w @ cyclic_shift_matrix(dim) @ w.conj().T
        return FiniteSystem(generators=(u, v), state=trace_state(dim))

    if not tracial:
        u, state = unitary_with_invariant_state(rng, dim)
        return FiniteSystem(generators=(u,), state=state)
    if rng.integers(0, 2) == 0:
        u = haar_unitary(rng, dim)
    else:
        perm = rng.permutation(dim)
        u = np.zeros((dim, dim), dtype=np.complex128)
        for i, p in enumerate(perm):
            u[p, i] = 1.0
    return FiniteSystem(generators=(u,), state=trace_state(dim))


def random_local_observable(
    rng: np.random.Generator,
    q: int,
    d: int,
    max_sites: int = 2,
    span: int = 3,
) -> LocalObservable:
    k = int(rng.integers(1, max_sites + 1))
    sites = set()
    while len(sites) < k:
        sites.add(tuple(int(x) for x in rng.integers(-span, span + 1, size=q)))
    sites = tuple(sorted(sites))
    dim = d ** len(sites)
    tensor = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    tensor = tensor / max(1.0, np.linalg.norm(tensor, 2))
    return LocalObservable(sites, tensor, d)
