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

from ._parallel import fmean_complex, table_means, window_points
from .folner import (FolnerWindow, GroupElement, Homomorphism, _exact_dtype,
                     difference_counts)
from .systems import SystemHandle, commutator_norm_table, evaluate_table

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
    target = sys.expect(a) * sys.expect(b)
    means = table_means(lambda pts: evaluate_table(sys, [(a, None, pts), (b, hom, pts)]), windows)
    return ErgodicAverage(n=np.array([w.index for w in windows]), values=means,
                          product_value=target)


def _correlation_defect_values(sys, a, b, hom, windows, square):
    target = sys.expect(a) * sys.expect(b)

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
            prod *= sys.expect(a)
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
    """Sum over the scanned window of |integrand(g) - target|, one table call.

    On the quasi-local backend a row whose shifted supports are pairwise
    disjoint evaluates to exactly ``target`` when no scalar factor follows a
    non-scalar one, save a lone scalar in second place: the state splits the
    product, and the row multiplies its scalars first, so it folds the same
    values in an order complex multiplication cannot tell apart.  Such terms
    add exactly 0, so the returned constant c makes value_n <= c/|window|
    hold for every window inside the scan.  The driver's (a,)*(k+1) always
    meets the condition.  On the finite backend every g contributes.
    """
    target = spec.target(sys)
    vals = evaluate_table(sys, spec.factors(scan.element_array())).tolist()
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
        lags = lags.astype(_exact_dtype(lags, 1))
    tail = spec.observables[1:]
    kappa = 1.0 + 0j
    for a in tail:
        kappa *= sys.expect(a)
    k2 = abs(kappa) ** 2
    adjoints = [sys.obs_adjoint(a) for a in tail]

    gs = largest.element_array()
    offsets = np.concatenate([np.zeros((1, spec.q), dtype=lags.dtype), lags])
    # x on the window (block 0) and on each lag translate of it (block 1 + j)
    points, blocks = window_points([], lead=(gs, offsets))
    rows = np.concatenate(blocks)
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
