"""Folner-averaged mixing statistics.

Every statistic is a per-window curve: value_n = mean over g in the window of
some nonnegative integrand.  The integrand is evaluated once per lattice
point of the whole schedule, and averages use exact 1/|window| weights with
correctly rounded summation, so every window's value is independent of how
the windows share points.
A finite-horizon verdict (decaying / non-decaying / inconclusive) is attached
by a documented rule on the last quarter of the schedule, since the limits
themselves are not finitely decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._parallel import fmean, fmean_complex, table_means, window_points
from .folner import (_INT64_SAFE, FolnerWindow, GroupElement, Homomorphism,
                     difference_counts, zero)
from .systems import SystemHandle, commutator_norm_table, evaluate, evaluate_table

VERDICT_DECAYING = "decaying"
VERDICT_NON_DECAYING = "non-decaying"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_THRESHOLD_FRACTION = 0.05
THRESHOLD_FLOOR = 1e-12


def _tail(values: Sequence[float]) -> Sequence[float]:
    """The last quarter of a per-window curve (at least one value), the part
    of the schedule every finite-horizon verdict reads."""
    return values[-max(1, math.ceil(len(values) / 4)):]


def classify_decay(values: Sequence[float], threshold: Optional[float] = None) -> tuple[str, float]:
    """Finite-horizon verdict on a nonnegative curve.

    The scale reference is the maximum over the first quarter of the curve
    (equal to the first value on monotone curves, but robust to leading
    windows that happen to miss an observable's support).  decaying: the last
    quarter stays below the threshold (default 0.05 times the reference,
    floored at 1e-12); non-decaying: the last quarter never drops under half
    the reference.
    """
    if len(values) == 0:
        raise ValueError("empty statistic")
    tail = _tail(values)
    head = max(values[: len(tail)])
    if threshold is None:
        threshold = max(DEFAULT_THRESHOLD_FRACTION * head, THRESHOLD_FLOOR)
    if max(tail) < threshold:
        return VERDICT_DECAYING, threshold
    if min(tail) >= 0.5 * head and head > THRESHOLD_FLOOR:
        return VERDICT_NON_DECAYING, threshold
    return VERDICT_INCONCLUSIVE, threshold


@dataclass(frozen=True, eq=False)
class MixingStatistic:
    n: np.ndarray  # int64 window indices
    values: np.ndarray  # float64, one per window
    verdict_threshold: float
    verdict: str

    @staticmethod
    def from_values(
        windows: Sequence[FolnerWindow],
        values: Sequence[float],
        threshold: Optional[float] = None,
    ) -> "MixingStatistic":
        values = np.asarray(values, dtype=np.float64)
        if len(values) != len(windows) or not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError("statistic values must be finite and nonnegative, one per window")
        verdict, thr = classify_decay(values, threshold)
        return MixingStatistic(n=np.array([w.index for w in windows]), values=values,
                               verdict_threshold=thr, verdict=verdict)


@dataclass(frozen=True, eq=False)
class ErgodicAverage:
    """Per-window averages of omega(a tau_{phi(g)}(b)) next to the comparison
    value omega(a) omega(b)."""

    n: np.ndarray  # int64 window indices
    values: np.ndarray  # complex128, one per window
    product_value: complex


def ergodic_average(
    sys: SystemHandle,
    a,
    b,
    hom: Homomorphism,
    windows: Sequence[FolnerWindow],
) -> ErgodicAverage:
    target = evaluate(sys, [(a, None, zero(hom.q))]) * evaluate(sys, [(b, None, zero(hom.q))])
    means = table_means(lambda pts: evaluate_table(sys, [(a, None, pts), (b, hom, pts)]).tolist(),
                        windows, complex_valued=True)
    return ErgodicAverage(n=np.array([w.index for w in windows]), values=means,
                          product_value=target)


def _correlation_defect_values(sys, a, b, hom, windows, square):
    target = evaluate(sys, [(a, None, zero(hom.q))]) * evaluate(sys, [(b, None, zero(hom.q))])

    def integrand(pts):
        vals = evaluate_table(sys, [(a, None, pts), (b, hom, pts)]).tolist()
        diffs = [abs(v - target) for v in vals]
        return [d * d for d in diffs] if square else diffs

    return table_means(integrand, windows)


def weak_mixing_defect(
    sys: SystemHandle,
    a,
    b,
    hom: Homomorphism,
    windows: Sequence[FolnerWindow],
    threshold: Optional[float] = None,
) -> MixingStatistic:
    """Mean over the window of |omega(a tau_{phi(g)}(b)) - omega(a) omega(b)|."""
    vals = _correlation_defect_values(sys, a, b, hom, windows, square=False)
    return MixingStatistic.from_values(windows, vals, threshold)


def square_defect(
    sys: SystemHandle,
    a,
    b,
    hom: Homomorphism,
    windows: Sequence[FolnerWindow],
    threshold: Optional[float] = None,
) -> MixingStatistic:
    """Same integrand squared; its verdict must agree with the unsquared one."""
    vals = _correlation_defect_values(sys, a, b, hom, windows, square=True)
    return MixingStatistic.from_values(windows, vals, threshold)


def asymptotic_abelianness(
    sys: SystemHandle,
    a,
    b,
    hom: Homomorphism,
    windows: Sequence[FolnerWindow],
    threshold: Optional[float] = None,
) -> MixingStatistic:
    """Mean over the window of the operator norm of [a, tau_{phi(g)}(b)]."""
    vals = table_means(lambda pts: commutator_norm_table(sys, a, b, hom, pts).tolist(), windows)
    return MixingStatistic.from_values(windows, vals, threshold)


@dataclass(frozen=True)
class HigherOrderSpec:
    """Observables a_0..a_k with pairwise distinct homomorphisms phi_1..phi_k
    (the leading factor always rides the zero shift)."""

    observables: tuple
    homs: tuple[Homomorphism, ...]

    def __post_init__(self) -> None:
        if len(self.observables) != len(self.homs) + 1:
            raise ValueError("need one more observable than homomorphisms")
        if not self.homs:
            raise ValueError("need at least one homomorphism")
        for i in range(len(self.homs)):
            if self.homs[i].is_zero():
                raise ValueError("homomorphisms must be nonzero")
            for j in range(i + 1, len(self.homs)):
                if self.homs[i] == self.homs[j]:
                    raise ValueError("homomorphisms must be pairwise distinct")

    @property
    def q(self) -> int:
        return self.homs[0].q

    @property
    def k(self) -> int:
        return len(self.homs)

    def factors(self, g: GroupElement) -> list:
        out = [(self.observables[0], None, g)]
        out += [(a, h, g) for a, h in zip(self.observables[1:], self.homs)]
        return out

    def target(self, sys: SystemHandle) -> complex:
        prod = 1.0 + 0j
        for a in self.observables:
            prod *= evaluate(sys, [(a, None, zero(self.q))])
        return prod


def higher_order_defect(
    sys: SystemHandle,
    spec: HigherOrderSpec,
    windows: Sequence[FolnerWindow],
    threshold: Optional[float] = None,
) -> MixingStatistic:
    """Mean over the window of
    |omega(prod_j tau_{phi_j(g)}(a_j)) - prod_j omega(a_j)|."""
    target = spec.target(sys)
    vals = table_means(
        lambda pts: [abs(v - target) for v in evaluate_table(sys, spec.factors(pts)).tolist()],
        windows)
    return MixingStatistic.from_values(windows, vals, threshold)


def collision_bound(
    sys: SystemHandle, spec: HigherOrderSpec, scan: FolnerWindow
) -> float:
    """Sum over the scanned window of |integrand(g) - target| restricted to g
    where the integrand can deviate.

    g is skipped when the backend's ``factorizes`` says the state splits the
    product exactly: on the quasi-local backend that is every g whose shifted
    supports are disjoint, so those terms cancel bitwise and the returned
    constant c makes value_n <= c/|window| hold for every window inside the
    scan.  On the finite backend every g contributes.
    """
    target = spec.target(sys)
    gs = scan.element_array()
    deviating = []
    for i, g in enumerate(map(tuple, gs.tolist())):
        shifts = [zero(spec.q)] + [h.apply(g) for h in spec.homs]
        if not sys.factorizes(list(zip(spec.observables, shifts))):
            deviating.append(i)
    vals = evaluate_table(sys, spec.factors(gs[deviating])).tolist()
    return math.fsum(abs(v - target) for v in vals)


@dataclass(frozen=True, eq=False)
class GammaReport:
    lags: np.ndarray  # (k, q) integer lags h
    empirical: np.ndarray  # complex128 window average of <u_g, u_{g+h}>, one per lag
    closed_form: np.ndarray  # complex128, one per lag
    window_index: int
    kappa: complex

    @property
    def difference(self) -> np.ndarray:
        """|empirical - closed_form| per lag.  np.hypot, not np.abs: np.abs
        of complex128 can differ from abs(complex) in the last bit, hypot
        does not."""
        d = self.empirical - self.closed_form
        return np.hypot(d.real, d.imag)


def gamma_sequence(
    sys: SystemHandle,
    spec: HigherOrderSpec,
    windows: Sequence[FolnerWindow],
    h_range: Optional[Sequence[GroupElement]] = None,
) -> GammaReport:
    """Autocorrelations of the centered product vector u_g.

    For each lag h (by default every lag of W^-1 W at the largest supplied
    window, in sorted tuple order) the report carries (i) the empirical
    window average of <u_g, u_{g+h}> at that window and (ii) the closed form
    prod_j omega(a_j* tau_{phi_j(h)}(a_j)) - |kappa|^2 with
    kappa = prod_j omega(a_j).  The two must agree up to boundary terms.
    """
    if not windows:
        raise ValueError("need at least one window")
    largest = max(windows, key=lambda w: w.size)
    if h_range is None:
        lags = difference_counts(largest)[0]
    else:
        lags = np.array(h_range, dtype=object).reshape(-1, spec.q)
        if (np.abs(lags) < _INT64_SAFE).all():
            lags = lags.astype(np.int64)
    tail = spec.observables[1:]
    kappa = 1.0 + 0j
    for a in tail:
        kappa *= evaluate(sys, [(a, None, zero(spec.q))])
    k2 = abs(kappa) ** 2
    adjoints = [sys.obs_adjoint(a) for a in tail]

    gs = largest.element_array()
    offsets = np.concatenate([np.zeros((1, spec.q), dtype=lags.dtype), lags])
    # x on the window (block 0) and on each lag translate of it (block 1 + j)
    sums = (offsets[:, None, :] + gs[None, :, :]).reshape(-1, spec.q)
    points, (rows,) = window_points([], lead=sums)
    x_vals = evaluate_table(sys, [(a, h, points) for a, h in zip(tail, spec.homs)]).tolist()
    # <x(g), x(g + h)> at every lag h and every g of the window, lag-major
    here, there = np.tile(rows[:len(gs)], len(lags)), rows[len(gs):]
    cross = evaluate_table(
        sys, [(aa, h, points[here]) for aa, h in zip(reversed(adjoints), reversed(spec.homs))]
        + [(a, h, points[there]) for a, h in zip(tail, spec.homs)])
    terms = [c - kappa * x_vals[i].conjugate() - kappa.conjugate() * x_vals[j] + k2
             for c, i, j in zip(cross.tolist(), here.tolist(), there.tolist())]
    empirical = [fmean_complex(t, largest.size)
                 for t in np.reshape(terms, (len(lags), len(gs)))]
    # omega(a_j* tau_{phi_j(h)}(a_j)) at every lag h, one column per factor
    closed_cols = [evaluate_table(sys, [(aa, None, lags), (a, hom, lags)]).tolist()
                   for a, aa, hom in zip(tail, adjoints, spec.homs)]
    closed = [math.prod(vals, start=1.0 + 0j) - k2 for vals in zip(*closed_cols)]
    return GammaReport(lags=lags, empirical=np.array(empirical, dtype=complex),
                       closed_form=np.array(closed, dtype=complex),
                       window_index=largest.index, kappa=kappa)


@dataclass(frozen=True, eq=False)
class DensityLimitReport:
    """Window averages of f next to lower-density curves of the superlevel
    sets {f >= eps}; the two finite-horizon verdicts must agree."""

    n: np.ndarray  # int64 window indices
    averages: np.ndarray  # float64, one per window
    level_densities: tuple[tuple[float, np.ndarray], ...]  # (eps, ratio per window)
    average_verdict: str
    density_verdict: str
    agree: bool


def density_limit_check(
    f,
    windows: Sequence[FolnerWindow],
    eps_grid: Sequence[float],
    threshold: float = 0.05,
) -> DensityLimitReport:
    """Finite-horizon comparison of mean decay versus superlevel-set density
    decay for a bounded nonnegative f on the lattice.  ``f`` takes the (T, q)
    table of the schedule's distinct points once and returns their T values."""
    if not windows:
        raise ValueError("need at least one window")
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError("eps grid must be positive")
    points, rows = window_points(windows)
    values = np.asarray(f(points), dtype=np.float64)
    if values.shape != (len(points),):
        raise ValueError(f"f returned shape {values.shape}, expected ({len(points)},)")
    if not (np.isfinite(values) & (values >= 0)).all():
        raise ValueError("f must be finite and nonnegative")
    window_vals = [values[r] for r in rows]
    means = np.array([fmean(v, w.size) for w, v in zip(windows, window_vals)])

    # the level ratio counts the window's points with f >= eps
    level_curves = []
    density_zero = True
    for eps in eps_grid:
        ratios = np.array([np.count_nonzero(v >= eps) / w.size
                           for w, v in zip(windows, window_vals)])
        level_curves.append((eps, ratios))
        if max(_tail(ratios)) >= threshold:
            density_zero = False

    avg_zero = max(_tail(means)) < threshold
    avg_verdict = "zero" if avg_zero else "nonzero"
    den_verdict = "zero" if density_zero else "nonzero"
    return DensityLimitReport(
        n=np.array([w.index for w in windows]),
        averages=means,
        level_densities=tuple(level_curves),
        average_verdict=avg_verdict,
        density_verdict=den_verdict,
        agree=(avg_verdict == den_verdict),
    )
