"""Randomized property battery.

Each check draws from a seeded generator and returns ``(passed, detail)``,
where a failing sub-law names itself in ``detail``; ``run_all`` records each
outcome under the check's name in ``ALL_CHECKS``.  The CLI ``invariants``
subcommand runs the full battery and fails the run when any record fails.
Trial counts scale with a single knob so the battery can run quickly in CI
and exhaustively on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import compactness, folner, mixing, operators, sampling, spectral, systems, vdc


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str = ""


# --- lattice ---------------------------------------------------------------

def check_box_defect_law(rng, scale=1.0) -> tuple[bool, str]:
    ok = True
    detail = ""
    for n in range(1, int(30 * scale) + 2):
        w = folner.box_window(1, n)
        if folner.folner_defect(w, 1) != 2 / (2 * n + 1):
            ok, detail = False, f"defect law fails at n={n}"
    g = int(rng.integers(1, 6))
    prev = None
    for n in range(g + 1, g + 20):
        d = folner.folner_defect(folner.box_window(1, n), g)
        if prev is not None and d > prev:
            ok, detail = False, f"defect not monotone for g={g} at n={n}"
        prev = d
    return ok, detail


def check_tempelman_bound(rng, scale=1.0) -> tuple[bool, str]:
    for q in (1, 2):
        for n in range(1, int(20 * scale) + 2):
            if folner.tempelman_ratio(folner.box_window(q, n)) > 2 ** q:
                return False, f"q={q} n={n}"
    return True, ""


def check_shift_invariance(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(20 * scale)):
        q = int(rng.integers(1, 3))
        n = int(rng.integers(1, 6))
        w = folner.box_window(q, n)
        g = tuple(int(x) for x in rng.integers(-5, 6, size=q))
        h = tuple(int(x) for x in rng.integers(-5, 6, size=q))
        shifted = folner.shift_window(w, h)
        if shifted.size != w.size:
            return False, f"shift-preserves-size: {q},{n}"
        if folner.folner_defect(shifted, g) != folner.folner_defect(w, g):
            return False, f"shift-preserves-defect: {q},{n},{g},{h}"
    return True, ""


def check_density_complement(rng, scale=1.0) -> tuple[bool, str]:
    mod = int(rng.integers(2, 7))
    res = folner.ResidueClassSet(mod, (0,))
    comp = folner.ResidueClassSet(mod, tuple(range(1, mod)))
    wins = folner.box_schedule(1, 1, int(20 * scale) + 1)
    r1 = folner.lower_density(res, wins)
    r2 = folner.lower_density(comp, wins)
    for n, a, b in zip(r1.n, r1.ratios, r2.ratios):
        if abs(a + b - 1.0) > 1e-12:
            return False, f"n={n}"
    return True, ""


def check_best_shift_bound(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(10 * scale)):
        mod = int(rng.integers(2, 6))
        cands = [(j,) for j in range(mod)]
        pred = folner.ResidueClassSet(mod, (0,))
        n = int(rng.integers(1, 20))
        w = folner.box_window(1, n)
        wit = folner.relative_density_witness(pred, folner.box_window(1, n + mod), cands)
        _, ratio = folner.best_shift_for_density(w, pred, cands)
        if wit.accepted and ratio < 1 / len(cands) - 1e-12:
            return False, f"mod={mod} n={n}"
    return True, ""


# --- operators ---------------------------------------------------------------

def check_cauchy_schwarz(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(1000 * scale)):
        n = int(rng.integers(2, 6))
        st = operators.trace_state(n) if rng.integers(0, 2) else \
            sampling.unitary_with_invariant_state(rng, n)[1]
        a = sampling.ginibre(rng, n)
        b = sampling.ginibre(rng, n)
        lhs = abs(operators.apply_state(st, operators.adjoint(a) @ b))
        rhs = operators.omega_norm(st, a) * operators.omega_norm(st, b)
        if lhs > rhs + 1e-10 * (1 + rhs):
            return False, f"n={n}"
    return True, ""


def check_tracial_bound(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(300 * scale)):
        n = int(rng.integers(2, 6))
        st = operators.trace_state(n)
        a, b, c = (sampling.ginibre(rng, n) for _ in range(3))
        lhs = abs(operators.apply_state(st, a @ b @ c))
        rhs = (operators.operator_norm(a) * operators.omega_norm(st, b)
               * operators.operator_norm(c))
        if lhs > rhs + 1e-10 * (1 + rhs):
            return False, f"n={n}"
    return True, ""


def check_seminorm_dominated(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(300 * scale)):
        n = int(rng.integers(2, 6))
        st = operators.trace_state(n) if rng.integers(0, 2) else \
            sampling.unitary_with_invariant_state(rng, n)[1]
        a = sampling.ginibre(rng, n)
        if operators.omega_norm(st, a) > operators.operator_norm(a) + 1e-10:
            return False, f"n={n}"
    return True, ""


def check_state_positivity(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(300 * scale)):
        n = int(rng.integers(2, 6))
        st = operators.trace_state(n) if rng.integers(0, 2) else \
            sampling.unitary_with_invariant_state(rng, n)[1]
        a = sampling.ginibre(rng, n)
        val = operators.apply_state(st, operators.adjoint(a) @ a)
        if val.real < -1e-12 or abs(val.imag) > 1e-10:
            return False, f"n={n}"
    return True, ""


def check_adjoint_antihomomorphism(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(100 * scale)):
        n = int(rng.integers(2, 6))
        a, b = sampling.ginibre(rng, n), sampling.ginibre(rng, n)
        if np.linalg.norm(operators.adjoint(a @ b)
                          - operators.adjoint(b) @ operators.adjoint(a)) > 1e-12:
            return False, f"n={n}"
    return True, ""


def check_tensor_norm(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(50 * scale)):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = sampling.ginibre(rng, n), sampling.ginibre(rng, m)
        lhs = operators.operator_norm(operators.tensor(a, b))
        rhs = operators.operator_norm(a) * operators.operator_norm(b)
        if abs(lhs - rhs) > 1e-10 * (1 + rhs):
            return False, f"{n}x{m}"
    return True, ""


def check_conjugate_state(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(100 * scale)):
        n = int(rng.integers(2, 5))
        st = operators.trace_state(n) if rng.integers(0, 2) else \
            sampling.unitary_with_invariant_state(rng, n)[1]
        a = sampling.ginibre(rng, n)
        doubled = operators.product_state(st)
        lhs = operators.apply_state(
            doubled, operators.tensor(a, operators.conjugate_lift(a)))
        rhs = abs(operators.apply_state(st, a)) ** 2
        if abs(lhs - rhs) > 1e-10:
            return False, f"n={n}"
    return True, ""


def check_telescope_identity(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(100 * scale)):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        cs = [sampling.ginibre(rng, n) for _ in range(k)]
        ds = [sampling.ginibre(rng, n) for _ in range(k)]
        lhs = operators.telescope_decompose(cs, ds)
        prod_c = np.eye(n, dtype=complex)
        prod_d = np.eye(n, dtype=complex)
        for c in cs:
            prod_c = prod_c @ c
        for d in ds:
            prod_d = prod_d @ d
        if np.linalg.norm(lhs - (prod_c - prod_d)) > 1e-10:
            return False, f"n={n},k={k}"
    return True, ""


# --- systems -----------------------------------------------------------------

def check_automorphism_laws(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(30 * scale)):
        fs = sampling.random_finite_system(rng)
        a, b = sampling.ginibre(rng, fs.dim), sampling.ginibre(rng, fs.dim)
        g = tuple(int(x) for x in rng.integers(-4, 5, size=fs.q))
        h = tuple(int(x) for x in rng.integers(-4, 5, size=fs.q))
        ta, tb = fs.translate(a, g), fs.translate(b, g)
        if np.linalg.norm(fs.translate(a @ b, g) - ta @ tb) > 1e-10:
            return False, "automorphism-product"
        if np.linalg.norm(fs.translate(a.conj().T, g) - ta.conj().T) > 1e-10:
            return False, "automorphism-star"
        gh = tuple(x + y for x, y in zip(g, h))
        if np.linalg.norm(fs.translate(fs.translate(a, h), g) - fs.translate(a, gh)) > 1e-10:
            return False, f"group-law: {g},{h}"
        if abs(operators.operator_norm(ta) - operators.operator_norm(a)) > 1e-10:
            return False, "norm-invariance"
        if abs(fs.omega_norm(ta) - fs.omega_norm(a)) > 1e-10:
            return False, "omega-norm-invariance"
        if abs(fs.expect(ta) - fs.expect(a)) > 1e-10:
            return False, "state-invariance"
    return True, ""


def check_window_independence(rng, scale=1.0) -> tuple[bool, str]:
    sl = systems.shift_system(1, 2)
    for _ in range(int(30 * scale)):
        obs = sampling.random_local_observable(rng, 1, 2)
        base = sl.expect(obs)
        # manual contraction over an enlarged window
        window = sorted(set(obs.support) | {(int(rng.integers(-6, 7)),) for _ in range(3)})
        if not window:
            continue
        mat = sl.embed(obs, window)
        padded = complex(np.trace(mat)) / (2 ** len(window))
        if abs(base - padded) > 1e-12:
            return False, str(obs.support)
    return True, ""


def check_product_system_law(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(100 * scale)):
        fs = sampling.random_finite_system(rng)
        doubled = systems.product_system(fs)
        a, b = sampling.ginibre(rng, fs.dim), sampling.ginibre(rng, fs.dim)
        g = tuple(int(x) for x in rng.integers(-3, 4, size=fs.q))
        lhs = doubled.expect_product([
            (systems.lift_observable(a), (0,) * fs.q),
            (systems.lift_observable(b), g),
        ])
        rhs = abs(fs.expect_product([(a, (0,) * fs.q), (b, g)])) ** 2
        if abs(lhs - rhs) > 1e-10:
            return False, f"g={g}"
    return True, ""


def check_rotation_orbit(rng, scale=1.0) -> tuple[bool, str]:
    big_q = int(rng.choice([2, 3, 5, 7]))
    sys5 = systems.rotation_algebra_system(1, big_q)
    v = systems.cyclic_shift_matrix(big_q)
    orbit = [sys5.translate(v, n) for n in range(big_q)]
    for i in range(big_q):
        if abs(sys5.omega_norm(orbit[i]) - 1.0) > 1e-10:
            return False, f"rotation-orbit-radius: n={i}"
        for j in range(i + 1, big_q):
            if sys5.omega_distance(orbit[i], orbit[j]) < 1e-6:
                return False, f"rotation-orbit-distinct: {i},{j}"
    again = sys5.translate(v, big_q)
    if np.linalg.norm(again - v) > 1e-10:
        return False, "rotation-orbit-period"
    return True, ""


# --- mixing ------------------------------------------------------------------

def check_square_equivalence(rng, scale=1.0) -> tuple[bool, str]:
    hom = folner.Homomorphism.scalar(1, 1)
    wins = folner.box_schedule(1, 1, int(25 * scale) + 10)
    cases = []
    sl = systems.shift_system(1, 2)
    sz = systems.pauli_observable([0], "Z")
    cases.append((sl, sz, sz))
    rot = systems.rotation_algebra_system(1, 5)
    v = systems.cyclic_shift_matrix(5)
    cases.append((rot, v.conj().T, v))
    for sys_h, a, b in cases:
        w1 = mixing.weak_mixing_defect(sys_h, a, b, hom, wins)
        w2 = mixing.square_defect(sys_h, a, b, hom, wins)
        if w1.verdict != w2.verdict:
            return False, f"{w1.verdict} vs {w2.verdict}"
    return True, ""


def check_folner_independence(rng, scale=1.0) -> tuple[bool, str]:
    sl = systems.shift_system(1, 2)
    sz = systems.pauli_observable([0], "Z")
    hom = folner.Homomorphism.scalar(1, 1)
    wins = folner.box_schedule(1, 1, int(25 * scale) + 10)
    shifted = [folner.shift_window(w, int(rng.integers(-3, 4))) for w in wins]
    v1 = mixing.weak_mixing_defect(sl, sz, sz, hom, wins).verdict
    v2 = mixing.weak_mixing_defect(sl, sz, sz, hom, shifted).verdict
    return v1 == v2, f"{v1} vs {v2}"


def check_gamma_consistency(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(10 * scale)):
        fs = sampling.random_finite_system(rng, q=1)
        a = sampling.ginibre(rng, fs.dim)
        spec = mixing.HigherOrderSpec(
            observables=(np.eye(fs.dim, dtype=complex), a),
            homs=(folner.Homomorphism.scalar(1, int(rng.integers(1, 4))),))
        rep = mixing.gamma_sequence(fs, spec, folner.box_schedule(1, 2, 5))
        diff = rep.difference
        worst = int(np.argmax(diff))
        if diff[worst] > 1e-9:
            return False, f"h={tuple(rep.lags[worst].tolist())} difference={diff[worst]}"
    return True, ""


# --- van der Corput ----------------------------------------------------------

def _mix64(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each entry of a uint64 array; array
    arithmetic wraps mod 2^64 without warnings."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _uniforms(seed: int, points: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniforms in (0, 1] for each row of a (T, q) integer table,
    a pure function of (seed, row): the row's coordinates mod 2^64 are hashed
    into the seed, and the k-th uniform is the top 53 bits of the k-th
    SplitMix64 output from that state."""
    gamma = np.uint64(0x9E3779B97F4A7C15)
    state = np.full(len(points), seed, dtype=np.uint64)
    for col in (points.astype(object) % (1 << 64)).astype(np.uint64).T:
        state = _mix64((state ^ col) + gamma)
    steps = np.arange(1, count + 1, dtype=np.uint64) * gamma
    return ((_mix64(state[:, None] + steps) >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53


def _random_sequence(rng, dim: int) -> vdc.VectorSequence:
    """Complex normal vectors by Box-Muller on the uniforms of each row; each
    entry has modulus sqrt(-2 ln u) <= sqrt(106 ln 2) < 8.6, inside the bound."""
    seed = int(rng.integers(0, 2 ** 32))

    def fn(points):
        u = _uniforms(seed, points, 2 * dim)
        return np.sqrt(-2.0 * np.log(u[:, :dim])) * np.exp(2j * np.pi * u[:, dim:])

    return vdc.VectorSequence(fn, bound=20.0 * math.sqrt(dim), dim=dim)


def check_vdc_inequalities(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(200 * scale)):
        dim = int(rng.integers(1, 9))
        f = _random_sequence(rng, dim)
        w1 = folner.box_window(1, int(rng.integers(1, 9)))
        w2 = folner.box_window(1, int(rng.integers(1, 9)))
        if not vdc.check_window_cauchy_schwarz(f, w1).holds:
            return False, "window-cauchy-schwarz"
        if not vdc.check_double_average_bound(f, w1, w2).holds:
            return False, "double-average-bound"
    return True, ""


def check_difference_sum(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(200 * scale)):
        n = int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2 ** 32))
        res = vdc.difference_sum_bound(lambda lags: 3.0 * _uniforms(seed, lags, 1)[:, 0],
                                       folner.box_window(1, n))
        if not res.holds:
            return False, f"n={n}"
    return True, ""


def check_smoothing_consistency(rng, scale=1.0) -> tuple[bool, str]:
    """Replacing f by its window-smoothed version moves the average by at most
    the bound times the worst translate defect."""
    for _ in range(int(20 * scale)):
        dim = int(rng.integers(1, 5))
        f = _random_sequence(rng, dim)
        m = int(rng.integers(4, 9))
        n = int(rng.integers(1, 4))
        wm, wn = folner.box_window(1, m), folner.box_window(1, n)
        plain = vdc.average_vector(f, wm)
        sums = wm.element_array()[:, None, :] + wn.element_array()[None, :, :]
        smoothed = f.table(sums.reshape(-1, 1)).sum(axis=0) / (wm.size * wn.size)
        lhs = float(np.linalg.norm(plain - smoothed))
        bound = f.bound * max(folner.folner_defect(wm, h) for h in wn.iter_elements())
        if lhs > bound + 1e-9:
            return False, f"m={m},n={n}"
    return True, ""


# --- compactness ---------------------------------------------------------

def check_isometry(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(30 * scale)):
        fs = sampling.random_finite_system(rng)
        a, b = sampling.ginibre(rng, fs.dim), sampling.ginibre(rng, fs.dim)
        g = tuple(int(x) for x in rng.integers(-4, 5, size=fs.q))
        lhs = fs.omega_distance(fs.translate(a, g), fs.translate(b, g))
        rhs = fs.omega_distance(a, b)
        if abs(lhs - rhs) > 1e-10:
            return False, f"g={g}"
    return True, ""


def check_separated_monotone(rng, scale=1.0) -> tuple[bool, str]:
    sys5 = systems.rotation_algebra_system(1, 5)
    v = systems.cyclic_shift_matrix(5)
    scan = folner.box_window(1, 10)
    eps_values = sorted(rng.uniform(0.05, 2.2, size=4))
    counts = [compactness.orbit_epsilon_structure(sys5, v, e, scan).count
              for e in eps_values]
    ok = all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))
    return ok, str(counts)


def check_chain_inequality(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(20 * scale)):
        fs = sampling.random_finite_system(rng, q=1)
        a = sampling.ginibre(rng, fs.dim)
        g = (int(rng.integers(-4, 5)),)
        base = fs.omega_distance(fs.translate(a, g), a)
        for m in range(1, 7):
            lhs = fs.omega_distance(fs.translate(a, folner.scale(m, g)), a)
            if lhs > m * base + 1e-9 * (1 + m * base):
                return False, f"m={m}"
    return True, ""


def check_perturbed_product(rng, scale=1.0) -> tuple[bool, str]:
    """Perturbing each factor of a power b^{k+1} by < eps/(k+1) in the
    omega-seminorm (with all factors norm-bounded by 1) moves |omega(prod)| by
    less than eps."""
    for _ in range(int(30 * scale)):
        n = int(rng.integers(2, 5))
        st = operators.trace_state(n)
        b = sampling.random_positive(rng, n)
        b = b / operators.operator_norm(b)
        k = int(rng.integers(0, 4))
        eps = float(rng.uniform(0.05, 0.5))
        cs = []
        for _ in range(k + 1):
            # mix toward another norm-one positive: keeps ||c|| <= 1 by
            # convexity while the mixing weight controls the omega distance
            p = sampling.random_positive(rng, n)
            p = p / operators.operator_norm(p)
            gap = operators.omega_norm(st, p - b)
            t = 0.9 if gap == 0 else min(0.9, 0.5 * eps / ((k + 1) * gap))
            cs.append((1 - t) * b + t * p)
        prod_c = np.eye(n, dtype=complex)
        for c in cs:
            prod_c = prod_c @ c
        target = operators.apply_state(st, np.linalg.matrix_power(b, k + 1))
        got = operators.apply_state(st, prod_c)
        if abs(got - target) >= eps:
            return False, f"k={k}"
    return True, ""


# --- spectral ---------------------------------------------------------------

def check_koopman_unitarity(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(int(10 * scale)):
        fs = sampling.random_finite_system(rng)
        gns = spectral.gns_build(fs)
        for j in range(fs.q):
            k = gns.koopman_matrix(j)
            x = rng.standard_normal(gns.dim) + 1j * rng.standard_normal(gns.dim)
            y = rng.standard_normal(gns.dim) + 1j * rng.standard_normal(gns.dim)
            if abs(np.vdot(k @ x, k @ y) - np.vdot(x, y)) > 1e-10 * (1 + abs(np.vdot(x, y))):
                return False, f"j={j}"
    return True, ""


def check_eigenoperator_count(rng, scale=1.0) -> tuple[bool, str]:
    for big_q in (2, 3):
        cs = systems.clock_shift_system(big_q)
        split = spectral.koopman_split(cs)
        if split.dim_h0 != big_q ** 2:
            return False, f"Q={big_q}"
        fac = spectral.eigenoperator_factor(cs, split)
        if len(fac.generators) != big_q ** 2:
            return False, f"Q={big_q}"
    return True, ""


def check_factor_invariance(rng, scale=1.0) -> tuple[bool, str]:
    cs = systems.clock_shift_system(3)
    split = spectral.koopman_split(cs)
    fac = spectral.eigenoperator_factor(cs, split)
    basis = fac.basis
    for _ in range(int(10 * scale)):
        g = tuple(int(x) for x in rng.integers(-3, 4, size=2))
        for row in basis:
            mat = row.reshape(3, 3)
            moved = cs.translate(mat, g).reshape(-1)
            coeffs = basis.conj() @ moved
            residual = np.linalg.norm(moved - basis.T @ coeffs)
            if residual > 1e-10:
                return False, f"g={g}"
    return True, ""


def check_eigenoperator_orbit(rng, scale=1.0) -> tuple[bool, str]:
    cs = systems.clock_shift_system(5)
    split = spectral.koopman_split(cs)
    fac = spectral.eigenoperator_factor(cs, split)
    scan = folner.box_window(2, 3)
    for op in fac.generators[: int(5 * scale) + 1]:
        cert = compactness.orbit_epsilon_structure(cs, op, 0.05, scan)
        if cert.count > 5:
            return False, f"count={cert.count}"
    return True, ""


ALL_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("folner/box-defect-law", check_box_defect_law),
    ("folner/tempelman-bound", check_tempelman_bound),
    ("folner/shift-invariance", check_shift_invariance),
    ("folner/density-complement", check_density_complement),
    ("folner/best-shift-bound", check_best_shift_bound),
    ("operators/cauchy-schwarz", check_cauchy_schwarz),
    ("operators/tracial-bound", check_tracial_bound),
    ("operators/seminorm-dominated", check_seminorm_dominated),
    ("operators/state-positivity", check_state_positivity),
    ("operators/adjoint-antihomomorphism", check_adjoint_antihomomorphism),
    ("operators/tensor-norm-multiplicative", check_tensor_norm),
    ("operators/conjugate-doubling", check_conjugate_state),
    ("operators/telescope-identity", check_telescope_identity),
    ("systems/automorphism-laws", check_automorphism_laws),
    ("systems/window-independence", check_window_independence),
    ("systems/product-system-law", check_product_system_law),
    ("systems/rotation-orbit", check_rotation_orbit),
    ("mixing/square-equivalence", check_square_equivalence),
    ("mixing/folner-independence", check_folner_independence),
    ("mixing/gamma-consistency", check_gamma_consistency),
    ("vdc/inequalities", check_vdc_inequalities),
    ("vdc/difference-sum-bound", check_difference_sum),
    ("vdc/smoothing-consistency", check_smoothing_consistency),
    ("compactness/isometry", check_isometry),
    ("compactness/separated-monotone", check_separated_monotone),
    ("compactness/chain-inequality", check_chain_inequality),
    ("compactness/perturbed-product", check_perturbed_product),
    ("spectral/koopman-unitarity", check_koopman_unitarity),
    ("spectral/eigenoperator-count", check_eigenoperator_count),
    ("spectral/factor-invariance", check_factor_invariance),
    ("spectral/eigenoperator-orbit", check_eigenoperator_orbit),
)


def run_all(seed: int, scale: float = 1.0) -> list[InvariantResult]:
    """Run the battery; each check draws from its own stream derived from the
    master seed, so results do not depend on check order or thread count."""
    results = []
    for idx, (name, fn) in enumerate(ALL_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        try:
            passed, detail = fn(rng, scale)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        results.append(InvariantResult(name=name, passed=bool(passed), detail=detail))
    return results
