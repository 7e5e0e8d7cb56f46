"""Randomized property battery.

Each check draws from a seeded generator and returns ``(passed, detail)``,
where a failing sub-law names itself in ``detail``; ``run_all`` records each
outcome under the check's name in ``ALL_CHECKS``.  The CLI ``invariants``
subcommand runs the full battery and fails the run when any record fails.
Trial counts scale with a single knob, with at least one trial per loop,
so the battery runs quickly in CI and exhaustively on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import compactness, folner, mixing, operators, sampling, spectral, systems, vdc


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str = ""


def _trials(count: int, scale: float) -> int:
    """``count`` trials scaled by ``scale``, and at least one at any scale."""
    return max(1, int(count * scale))


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
    for _ in range(_trials(20, scale)):
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
    for _ in range(_trials(10, scale)):
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

def _operator_stacks(rng, count, scale, factors, trace_only=False):
    """``(n, state, stacks)`` for n = 2..5 and each state: the trace state
    and, unless ``trace_only`` (the law is tracial or reads no state), a
    random faithful invariant one.  ``stacks`` holds ``factors`` Ginibre stacks of shape
    (K, n, n), K the ceiling of each stack's share of the trials."""
    k = math.ceil(_trials(count, scale) / (4 if trace_only else 8))
    for n in range(2, 6):
        states = [operators.trace_state(n)]
        if not trace_only:
            states.append(sampling.unitary_with_invariant_state(rng, n)[1])
        for st in states:
            yield n, st, sampling.ginibre(rng, n, factors * k).reshape(factors, k, n, n)


def check_cauchy_schwarz(rng, scale=1.0) -> tuple[bool, str]:
    for n, st, (a, b) in _operator_stacks(rng, 1000, scale, 2):
        lhs = np.abs(operators.apply_state_table(st, operators.adjoint(a) @ b))
        rhs = operators.omega_norm_table(st, a) * operators.omega_norm_table(st, b)
        if (lhs > rhs + 1e-10 * (1 + rhs)).any():
            return False, f"n={n}"
    return True, ""


def check_tracial_bound(rng, scale=1.0) -> tuple[bool, str]:
    for n, st, (a, b, c) in _operator_stacks(rng, 300, scale, 3, trace_only=True):
        lhs = np.abs(operators.apply_state_table(st, a @ b @ c))
        rhs = (operators.operator_norm_table(a) * operators.omega_norm_table(st, b)
               * operators.operator_norm_table(c))
        if (lhs > rhs + 1e-10 * (1 + rhs)).any():
            return False, f"n={n}"
    return True, ""


def check_seminorm_dominated(rng, scale=1.0) -> tuple[bool, str]:
    for n, st, (a,) in _operator_stacks(rng, 300, scale, 1):
        if (operators.omega_norm_table(st, a) > operators.operator_norm_table(a) + 1e-10).any():
            return False, f"n={n}"
    return True, ""


def check_state_positivity(rng, scale=1.0) -> tuple[bool, str]:
    for n, st, (a,) in _operator_stacks(rng, 300, scale, 1):
        val = operators.apply_state_table(st, operators.adjoint(a) @ a)
        if ((val.real < -1e-12) | (np.abs(val.imag) > 1e-10)).any():
            return False, f"n={n}"
    return True, ""


def check_adjoint_antihomomorphism(rng, scale=1.0) -> tuple[bool, str]:
    for n, _, (a, b) in _operator_stacks(rng, 100, scale, 2, trace_only=True):
        err = operators.adjoint(a @ b) - operators.adjoint(b) @ operators.adjoint(a)
        if (np.linalg.norm(err, axis=(1, 2)) > 1e-12).any():
            return False, f"n={n}"
    return True, ""


def check_tensor_norm(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(_trials(50, scale)):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = sampling.ginibre(rng, n), sampling.ginibre(rng, m)
        lhs = operators.operator_norm(operators.tensor(a, b))
        rhs = operators.operator_norm(a) * operators.operator_norm(b)
        if abs(lhs - rhs) > 1e-10 * (1 + rhs):
            return False, f"{n}x{m}"
    return True, ""


def check_conjugate_state(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(_trials(100, scale)):
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
    for _ in range(_trials(100, scale)):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        cs = [sampling.ginibre(rng, n) for _ in range(k)]
        ds = [sampling.ginibre(rng, n) for _ in range(k)]
        lhs = operators.telescope_decompose(cs, ds)
        if np.linalg.norm(lhs - (reduce(np.matmul, cs) - reduce(np.matmul, ds))) > 1e-10:
            return False, f"n={n},k={k}"
    return True, ""


# --- systems -----------------------------------------------------------------

def _system_tables(rng, count, scale, q=None, reach=4):
    """``(fs, a, b, shifts)``: a random finite system, two Ginibre
    observables and a (5, q) table of shifts in [-reach, reach]^q, one per
    five of the trials."""
    for _ in range(math.ceil(_trials(count, scale) / 5)):
        fs = sampling.random_finite_system(rng, q=q)
        a, b = sampling.ginibre(rng, fs.dim, 2)
        yield fs, a, b, rng.integers(-reach, reach + 1, size=(5, fs.q))


def _failing_shift(bad: np.ndarray, shifts: np.ndarray) -> str:
    """``g=<row>`` at the first row of ``shifts`` where ``bad`` holds, else ""."""
    rows = np.flatnonzero(bad)
    return f"g={tuple(shifts[rows[0]].tolist())}" if rows.size else ""


def check_automorphism_laws(rng, scale=1.0) -> tuple[bool, str]:
    for fs, a, b, g in _system_tables(rng, 30, scale):
        h = rng.integers(-4, 5, size=(1, fs.q))
        ta, tb = fs.translate_table(a, g), fs.translate_table(b, g)
        # each law's error at every shift of the table, a matrix or a number
        errors = {
            "automorphism-product": fs.translate_table(a @ b, g) - ta @ tb,
            "automorphism-star": (fs.translate_table(operators.adjoint(a), g)
                                  - operators.adjoint(ta)),
            f"group-law (h={tuple(h[0].tolist())})": (
                fs.translate_table(fs.translate_table(a, h)[0], g) - fs.translate_table(a, g + h)),
            "norm-invariance": operators.operator_norm_table(ta) - operators.operator_norm(a),
            "omega-norm-invariance": (operators.omega_norm_table(fs.state, ta)
                                      - operators.omega_norm(fs.state, a)),
            "state-invariance": fs.expect_product_table([(a, g)]) - fs.expect(a),
        }
        for law, err in errors.items():
            if at := _failing_shift(np.linalg.norm(err.reshape(len(g), -1), axis=1) > 1e-10, g):
                return False, f"{law}: {at}"
    return True, ""


def check_window_independence(rng, scale=1.0) -> tuple[bool, str]:
    sl = systems.shift_system(1, 2)
    for _ in range(_trials(30, scale)):
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
    for fs, a, b, g in _system_tables(rng, 100, scale, reach=3):
        doubled = systems.product_system(fs)
        origin = np.zeros_like(g)
        lhs = doubled.expect_product_table([(systems.lift_observable(a), origin),
                                            (systems.lift_observable(b), g)])
        rhs = np.abs(fs.expect_product_table([(a, origin), (b, g)])) ** 2
        if at := _failing_shift(np.abs(lhs - rhs) > 1e-10, g):
            return False, at
    return True, ""


def check_rotation_orbit(rng, scale=1.0) -> tuple[bool, str]:
    big_q = int(rng.choice([2, 3, 5, 7]))
    sys5 = systems.rotation_algebra_system(1, big_q)
    v = systems.cyclic_shift_matrix(big_q)
    # tau_n(v) for n = 0..Q; the last one closes the period
    orbit = sys5.translate_table(v, np.arange(big_q + 1)[:, None])
    off = np.flatnonzero(np.abs(operators.omega_norm_table(sys5.state, orbit[:big_q]) - 1.0)
                         > 1e-10)
    if off.size:
        return False, f"rotation-orbit-radius: n={off[0]}"
    i, j = np.triu_indices(big_q, 1)
    close = np.flatnonzero(sys5.omega_distance_table(orbit[i], orbit[j]) < 1e-6)
    if close.size:
        return False, f"rotation-orbit-distinct: {i[close[0]]},{j[close[0]]}"
    if np.linalg.norm(orbit[big_q] - v) > 1e-10:
        return False, "rotation-orbit-period"
    return True, ""


# --- mixing ------------------------------------------------------------------

def check_square_equivalence(rng, scale=1.0) -> tuple[bool, str]:
    hom = folner.Homomorphism.scalar(1, 1)
    wins = folner.box_schedule(1, 1, int(25 * scale) + 10)
    sl, sz = systems.shift_system(1, 2), systems.pauli_observable([0], "Z")
    rot, v = systems.rotation_algebra_system(1, 5), systems.cyclic_shift_matrix(5)
    for sys_h, a, b in ((sl, sz, sz), (rot, v.conj().T, v)):
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
    for _ in range(_trials(10, scale)):
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

# Every point the vdc checks read: windows reach 8, the double average and
# the smoothing add two windows' points, and a radius-n box's lags reach 2n.
_REACH = 16


def _drawn(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Reads row g + _REACH of ``values``, drawn for the points of Z within
    +-_REACH, at each point g of a (T, 1) table; any other point raises."""

    def read(points: np.ndarray) -> np.ndarray:
        if points.shape[1] != 1 or not (np.abs(points) <= _REACH).all():
            raise ValueError(f"drawn values cover the points of Z within +-{_REACH} only")
        return values[points[:, 0].astype(np.int64) + _REACH]

    return read


def _random_sequence(rng, dim: int) -> vdc.VectorSequence:
    """Complex normal vectors by Box-Muller on uniforms u in (0, 1]; each
    entry has modulus sqrt(-2 ln u) <= sqrt(106 ln 2) < 8.6, inside the bound."""
    u = 1.0 - rng.random((2 * _REACH + 1, 2 * dim))
    values = np.sqrt(-2.0 * np.log(u[:, :dim])) * np.exp(2j * np.pi * u[:, dim:])
    return vdc.VectorSequence(_drawn(values), bound=20.0 * math.sqrt(dim), dim=dim)


def check_vdc_inequalities(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(_trials(200, scale)):
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
    for _ in range(_trials(200, scale)):
        n = int(rng.integers(1, 9))
        gamma = _drawn(3.0 * rng.random(2 * _REACH + 1))
        res = vdc.difference_sum_bound(gamma, folner.box_window(1, n))
        if not res.holds:
            return False, f"n={n}"
    return True, ""


def check_smoothing_consistency(rng, scale=1.0) -> tuple[bool, str]:
    """Replacing f by its window-smoothed version moves the average by at most
    the bound times the worst translate defect."""
    for _ in range(_trials(20, scale)):
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
    for fs, a, b, g in _system_tables(rng, 30, scale):
        lhs = fs.omega_distance_table(fs.translate_table(a, g), fs.translate_table(b, g))
        if at := _failing_shift(np.abs(lhs - fs.omega_distance_table(a, b)) > 1e-10, g):
            return False, at
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
    ms = np.arange(1, 7)
    for fs, a, _, g in _system_tables(rng, 20, scale, q=1):
        # row m - 1 holds ||tau_{m g}(a) - a|| for each shift g of the table
        dist = fs.omega_distance_table(
            fs.translate_table(a, (ms[:, None, None] * g).reshape(-1, 1)), a
        ).reshape(len(ms), len(g))
        for m, lhs in zip(ms.tolist(), dist):
            if at := _failing_shift(lhs > m * dist[0] + 1e-9 * (1 + m * dist[0]), g):
                return False, f"m={m}: {at}"
    return True, ""


def check_perturbed_product(rng, scale=1.0) -> tuple[bool, str]:
    """Perturbing each factor of a power b^{k+1} by < eps/(k+1) in the
    omega-seminorm (with all factors norm-bounded by 1) moves |omega(prod)| by
    less than eps."""
    for _ in range(_trials(30, scale)):
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
        target = operators.apply_state(st, np.linalg.matrix_power(b, k + 1))
        got = operators.apply_state(st, reduce(np.matmul, cs))
        if abs(got - target) >= eps:
            return False, f"k={k}"
    return True, ""


# --- spectral ---------------------------------------------------------------

def check_koopman_unitarity(rng, scale=1.0) -> tuple[bool, str]:
    for _ in range(_trials(10, scale)):
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
    """tau_g(x) = prod_j c_j^{g_j} x for each eigenoperator x of the
    clock-shift factor, c its Koopman characters, on a table of at least
    five drawn shifts."""
    cs = systems.clock_shift_system(3)
    fac = spectral.eigenoperator_factor(cs, spectral.koopman_split(cs))
    gs = rng.integers(-3, 4, size=(max(5, _trials(10, scale)), 2))
    bad = np.zeros(len(gs), dtype=bool)
    for x, chars in zip(fac.generators, fac.characters):
        phases = np.prod(np.power(np.array(chars), gs), axis=1)
        err = cs.translate_table(x, gs) - phases[:, None, None] * x
        bad |= np.linalg.norm(err, axis=(1, 2)) > 1e-10
    at = _failing_shift(bad, gs)
    return not at, at


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
