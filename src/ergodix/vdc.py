"""Discrete van der Corput harness for Hilbert-space-valued sequences on Z^q.

Checks the two summed Cauchy-Schwarz inequalities behind the method on
concrete windows, estimates lag autocorrelations gamma_h, and reports whether
the decay of the sufficient statistic (window-normalized absolute-gamma sum
over the difference set) predicts the decay of the window averages.  The
implication is one-sided: a failed hypothesis never refutes the conclusion,
and the report says so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._parallel import fsum_complex, ordered_map
from .folner import FolnerWindow, GroupElement, add, as_element, inverse_product

BOUND_SLACK = 1e-12
IMAG_TOL = 1e-9
REL_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class VectorSequence:
    """A bounded map g -> C^dim with a declared norm bound, checked lazily on
    every evaluation."""

    fn: Callable[[GroupElement], np.ndarray]
    bound: float
    dim: int

    def __call__(self, g: Union[int, Sequence[int]]) -> np.ndarray:
        g = as_element(g)
        v = np.asarray(self.fn(g), dtype=np.complex128)
        if v.shape != (self.dim,):
            raise ValueError(f"sequence value has shape {v.shape}, expected ({self.dim},)")
        norm = float(np.linalg.norm(v))
        if norm > self.bound * (1.0 + BOUND_SLACK) + BOUND_SLACK:
            raise ValueError(f"declared bound {self.bound} violated at {g}: |f(g)| = {norm}")
        return v


def constant_sequence(v) -> VectorSequence:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return VectorSequence(lambda g: v, bound=float(np.linalg.norm(v)), dim=v.size)


def linear_phase_sequence(alpha: float, v) -> VectorSequence:
    """f(g) = exp(2 pi i alpha sum(g)) v."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return VectorSequence(
        lambda g: np.exp(2j * np.pi * alpha * sum(g)) * v,
        bound=float(np.linalg.norm(v)),
        dim=v.size,
    )


def weyl_quadratic_sequence(alpha: float, v) -> VectorSequence:
    """f(g) = exp(2 pi i alpha |g|^2) v, the quadratic-phase test sequence."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return VectorSequence(
        lambda g: np.exp(2j * np.pi * alpha * sum(x * x for x in g)) * v,
        bound=float(np.linalg.norm(v)),
        dim=v.size,
    )


def average_vector(f: VectorSequence, window: FolnerWindow) -> np.ndarray:
    """(1/|W|) sum of f over the window."""
    total = np.zeros(f.dim, dtype=np.complex128)
    cols = [f(g) for g in window.iter_elements()]
    stacked = np.stack(cols)
    for j in range(f.dim):
        total[j] = fsum_complex(stacked[:, j].tolist())
    return total / window.size


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool


def check_window_cauchy_schwarz(f: VectorSequence, window: FolnerWindow) -> InequalityCheck:
    """||sum_W f||^2 <= |W| * sum_W ||f||^2 with relative slack 1e-9."""
    vals = [f(g) for g in window.iter_elements()]
    total = np.sum(np.stack(vals), axis=0)
    lhs = float(np.linalg.norm(total) ** 2)
    rhs = window.size * math.fsum(float(np.linalg.norm(v) ** 2) for v in vals)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + REL_SLACK * rhs)


def check_double_average_bound(
    f: VectorSequence, inner: FolnerWindow, outer: FolnerWindow
) -> InequalityCheck:
    """||sum_{g in outer} sum_{h in inner} f(g+h)||^2 bounded by
    |outer| * sum_{h1,h2 in inner} sum_{g in outer} <f(g+h1), f(g+h2)>.

    The triple sum is a sum of squared norms, so a nonvanishing imaginary
    residue signals an implementation bug and raises.
    """
    inner_pts = list(inner.iter_elements())
    outer_pts = list(outer.iter_elements())
    cache: dict[GroupElement, np.ndarray] = {}

    def val(g: GroupElement) -> np.ndarray:
        if g not in cache:
            cache[g] = f(g)
        return cache[g]

    lhs_vec = np.zeros(f.dim, dtype=np.complex128)
    for g in outer_pts:
        for h in inner_pts:
            lhs_vec = lhs_vec + val(add(g, h))
    lhs = float(np.linalg.norm(lhs_vec) ** 2)

    # columns stack f(g+h) over g; the Gram sum is the triple sum
    cols = np.stack(
        [np.concatenate([val(add(g, h)) for g in outer_pts]) for h in inner_pts],
        axis=1,
    )
    gram = cols.conj().T @ cols
    total = complex(gram.sum())
    if abs(total.imag) > IMAG_TOL:
        raise ArithmeticError(
            f"imaginary residue {total.imag} in a norm-square double sum")
    rhs = outer.size * total.real
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + REL_SLACK * abs(rhs))


def difference_sum_bound(
    gamma: Callable[[GroupElement], float], window: FolnerWindow
) -> InequalityCheck:
    """For nonnegative gamma: sum_{h1,h2 in W} gamma(h2-h1) <=
    |W| * sum over the difference set of gamma."""
    pts = list(window.iter_elements())
    lhs = math.fsum(
        gamma(add(tuple(-x for x in h1), h2)) for h1 in pts for h2 in pts)
    diff = inverse_product(window)
    rhs = window.size * math.fsum(gamma(h) for h in diff.iter_elements())
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + REL_SLACK * abs(rhs))


@dataclass(frozen=True)
class VdcReport:
    """gamma table at the largest window, the per-window sufficient statistic,
    the per-window direct double average, the averaged-norm curve, and the
    one-sided verdict."""

    gamma: tuple[tuple[GroupElement, complex], ...]
    gamma_window_index: int
    statistic: tuple[tuple[int, float], ...]
    double_average: tuple[tuple[int, complex], ...]
    averages: tuple[tuple[int, float], ...]
    hypothesis_satisfied: bool
    conclusion_observed: bool
    label: str
    threshold: float


def _gamma_empirical(
    f: VectorSequence,
    window: FolnerWindow,
    lags: Sequence[GroupElement],
) -> dict[GroupElement, complex]:
    """gamma_h = (1/|W|) sum_{g in W} <f(g), f(g+h)> for each requested lag,
    estimated at a single window."""
    gs = list(window.iter_elements())
    needed = sorted({add(g, h) for g in gs for h in lags} | set(gs))
    values = {g: f(g) for g in needed}

    def one(h: GroupElement) -> complex:
        terms = [complex(np.vdot(values[g], values[add(g, h)])) for g in gs]
        return fsum_complex(terms) / window.size

    out = ordered_map(one, list(lags))
    return dict(zip(lags, out))


def _gamma_empirical_box1(
    f: VectorSequence, window: FolnerWindow, h_max: int
) -> dict[GroupElement, complex]:
    """Vectorized lag loop for one-dimensional boxes."""
    n = window.index
    c = window.center[0]
    lo, hi = c - n - h_max, c + n + h_max
    vals = np.stack([f((g,)) for g in range(lo, hi + 1)])

    def one(h: int) -> complex:
        a = vals[(c - n) - lo:(c + n) - lo + 1]
        b = vals[(c - n + h) - lo:(c + n + h) - lo + 1]
        return complex(np.vdot(a, b)) / window.size

    lags = list(range(-h_max, h_max + 1))
    out = ordered_map(one, lags)
    return {(h,): v for h, v in zip(lags, out)}


def vdc_verdict(
    f: VectorSequence,
    windows: Sequence[FolnerWindow],
    h_max: Optional[int] = None,
    threshold: float = 0.05,
) -> VdcReport:
    """Assemble the verdict report.

    gamma is estimated at the largest window only (the report records which);
    the sufficient statistic for window W is (1/|W|) * sum over the difference
    set W^-1 W of |gamma_h|, and the direct double average
    (1/|W|^2) sum_{h1,h2 in W} gamma_{h2-h1} is also emitted (no decay rate is
    asserted for it).  ``hypothesis_satisfied`` is a threshold call on the last
    window's statistic; the conclusion column is the averaged-norm curve.
    """
    if not windows:
        raise ValueError("need at least one window")
    windows = sorted(windows, key=lambda w: w.size)
    largest = windows[-1]
    diff_largest = inverse_product(largest)
    if largest.shape == "box" and largest.q == 1:
        radius = h_max if h_max is not None else 2 * largest.index
        gamma_map = _gamma_empirical_box1(f, largest, radius)
    else:
        lags = list(diff_largest.iter_elements())
        if h_max is not None:
            lags = [h for h in lags if max(abs(x) for x in h) <= h_max]
        gamma_map = _gamma_empirical(f, largest, lags)

    statistic = []
    double_avg = []
    for w in windows:
        diff = inverse_product(w)
        terms = []
        weighted = []
        for h in diff.iter_elements():
            if h not in gamma_map:
                continue
            gh = gamma_map[h]
            terms.append(abs(gh))
            weighted.append(w.overlap_with_translate(h) * gh)
        statistic.append((w.index, math.fsum(terms) / w.size))
        double_avg.append((w.index, fsum_complex(weighted) / (w.size ** 2)))

    averages = [(w.index, float(np.linalg.norm(average_vector(f, w)))) for w in windows]

    hyp = statistic[-1][1] < threshold
    concl = averages[-1][1] < threshold
    if hyp:
        label = "hypothesis satisfied; averages must vanish"
    else:
        label = "hypothesis not satisfied; conclusion not implied"
    return VdcReport(
        gamma=tuple(sorted(gamma_map.items())),
        gamma_window_index=largest.index,
        statistic=tuple(statistic),
        double_average=tuple(double_avg),
        averages=tuple(averages),
        hypothesis_satisfied=hyp,
        conclusion_observed=concl,
        label=label,
        threshold=threshold,
    )
