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

from ._parallel import fsum_complex, lex_keys, ordered_map, window_points
from .folner import (
    FolnerWindow,
    _exact_dtype,
    _reach,
    box_window,
    difference_counts,
    element_row,
)

BOUND_SLACK = 1e-12
IMAG_TOL = 1e-9
REL_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class VectorSequence:
    """A bounded map g -> C^dim with a declared norm bound, checked on every
    evaluation.  ``fn`` takes a (T, q) integer table of points and returns
    their values as the rows of a (T, dim) array."""

    fn: Callable[[np.ndarray], np.ndarray]
    bound: float
    dim: int

    def __call__(self, g: Union[int, Sequence[int]]) -> np.ndarray:
        return self.table(element_row(g))[0]

    def table(self, points: np.ndarray) -> np.ndarray:
        """f at each row of a (T, q) integer table, as the rows of one
        (T, dim) array.  Values of the wrong shape raise; otherwise the
        error names the first row whose value breaks the declared bound."""
        vals = np.asarray(self.fn(points), dtype=np.complex128)
        if vals.shape != (len(points), self.dim):
            raise ValueError(f"sequence values have shape {vals.shape}, "
                             f"expected ({len(points)}, {self.dim})")
        limit = self.bound * (1.0 + BOUND_SLACK) + BOUND_SLACK
        # Screen with one vectorized norm, then decide each flagged row with
        # the norm a single evaluation takes.  Both are square roots of a sum
        # of 2 * dim squares, so they differ by well under the margin.
        rough = np.sqrt((vals.real ** 2 + vals.imag ** 2).sum(axis=1))
        margin = 1.0 - 4 * (self.dim + 1) * np.finfo(np.float64).eps
        for i in np.flatnonzero(rough > limit * margin).tolist():
            norm = float(np.linalg.norm(vals[i]))
            if norm > limit:
                raise ValueError(f"declared bound {self.bound} violated at "
                                 f"{tuple(points[i].tolist())}: |f(g)| = {norm}")
        return vals


def _phases(alpha: float, form: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(2 pi i alpha n) v for each exact integer n of ``form``: n is
    rounded once to float64, as in ``(2j * np.pi * alpha) * n`` at a single
    point."""
    return np.exp((2j * np.pi * alpha) * form.astype(np.float64))[:, None] * v


def constant_sequence(v) -> VectorSequence:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return VectorSequence(lambda points: np.tile(v, (len(points), 1)),
                          bound=float(np.linalg.norm(v)), dim=v.size)


def linear_phase_sequence(alpha: float, v) -> VectorSequence:
    """f(g) = exp(2 pi i alpha sum(g)) v."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)

    def fn(points: np.ndarray) -> np.ndarray:
        exact = points.astype(_exact_dtype(points, points.shape[1]))
        return _phases(alpha, exact.sum(axis=1), v)

    return VectorSequence(fn, bound=float(np.linalg.norm(v)), dim=v.size)


def weyl_quadratic_sequence(alpha: float, v) -> VectorSequence:
    """f(g) = exp(2 pi i alpha |g|^2) v, the quadratic-phase test sequence."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)

    def fn(points: np.ndarray) -> np.ndarray:
        exact = points.astype(_exact_dtype(points, _reach(points) * points.shape[1]))
        return _phases(alpha, (exact * exact).sum(axis=1), v)

    return VectorSequence(fn, bound=float(np.linalg.norm(v)), dim=v.size)


def average_vector(f: VectorSequence, window: FolnerWindow) -> np.ndarray:
    """(1/|W|) sum of f over the window."""
    return _mean_vector(f.table(window.element_array()), window.size)


def _mean_vector(rows: np.ndarray, size: int) -> np.ndarray:
    """Componentwise correctly rounded sum of the rows, divided by size."""
    total = np.array([fsum_complex(col) for col in rows.T], dtype=np.complex128)
    return total / size


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool


def check_window_cauchy_schwarz(f: VectorSequence, window: FolnerWindow) -> InequalityCheck:
    """||sum_W f||^2 <= |W| * sum_W ||f||^2 with relative slack 1e-9."""
    vals = f.table(window.element_array())
    total = np.sum(vals, axis=0)
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
    gs, hs = outer.element_array(), inner.element_array()
    # f at every g + h, outer-major, read from one table of the distinct sums
    sums = (gs[:, None, :] + hs[None, :, :]).reshape(-1, outer.q)
    points, (rows,) = window_points([], lead=sums)
    vals = f.table(points)[rows].reshape(len(gs), len(hs), f.dim)
    lhs = float(np.linalg.norm(vals.reshape(-1, f.dim).sum(axis=0)) ** 2)

    # column j stacks f(g + h_j) over g; the Gram sum is the triple sum
    cols = vals.transpose(0, 2, 1).reshape(-1, len(hs))
    gram = cols.conj().T @ cols
    total = complex(gram.sum())
    if abs(total.imag) > IMAG_TOL:
        raise ArithmeticError(
            f"imaginary residue {total.imag} in a norm-square double sum")
    rhs = outer.size * total.real
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + REL_SLACK * abs(rhs))


def difference_sum_bound(
    gamma: Callable[[np.ndarray], Sequence[float]], window: FolnerWindow
) -> InequalityCheck:
    """For nonnegative gamma: sum_{h1,h2 in W} gamma(h2-h1) <=
    |W| * sum over the difference set of gamma.  ``gamma`` takes the (k, q)
    table of lags of W^-1 W and returns their k values; the left side sums
    each lag once, weighted by its |W intersect (W+h)| pairs."""
    lags, counts = difference_counts(window)
    vals = np.asarray(gamma(lags), dtype=np.float64)
    lhs = math.fsum((counts * vals).tolist())
    rhs = window.size * math.fsum(vals.tolist())
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + REL_SLACK * abs(rhs))


@dataclass(frozen=True, eq=False)
class VdcReport:
    """gamma table at the largest window, the per-window sufficient statistic,
    the per-window direct double average, the averaged-norm curve, and the
    one-sided verdict."""

    lags: np.ndarray  # (k, q) integer lags h, sorted
    gamma: np.ndarray  # complex128 gamma_h, one per lag
    gamma_window_index: int
    n: np.ndarray  # int64 window indices, by window size
    statistic: np.ndarray  # float64, one per window
    double_average: np.ndarray  # complex128, one per window
    averages: np.ndarray  # float64 norms of the window averages
    hypothesis_satisfied: bool
    conclusion_observed: bool
    label: str
    threshold: float


def _gamma_empirical(vals: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """gamma_h = (1/|W|) sum_{g in W} <f(g), f(g+h)>, one ``np.vdot`` per lag:
    ``rows[i, j]`` is the row of g_i + h_j in the stacked table ``vals`` of f,
    and the lags are symmetric and sorted, so the middle column is h = 0."""
    a = vals[rows[:, rows.shape[1] // 2]]
    return np.array(ordered_map(lambda r: complex(np.vdot(a, vals[r])) / size, rows.T), complex)


def _gamma_box1(vals: np.ndarray, radius: int, size: int) -> np.ndarray:
    """gamma_h for h = -radius..radius on a one-dimensional box, as one FFT
    cross-correlation: ``vals`` is f on the lag support in order, so W is the
    run of ``size`` rows from row ``radius`` and g + h stays inside ``vals``
    for every lag.  With the rows of W at c = 0..size-1, the circular
    correlation c_k = sum_c <f(W_c), f(support_{c+k})> over a length
    L >= len(vals) never wraps, and gamma_h = c_{radius+h} / |W|."""
    length = 1 << (len(vals) - 1).bit_length()
    fw = np.fft.fft(vals[radius:radius + size], n=length, axis=0)
    fs = np.fft.fft(vals, n=length, axis=0)
    corr = np.fft.ifft((fw.conj() * fs).sum(axis=1))
    return corr[:2 * radius + 1] / size


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
    table = difference_counts(largest)
    # f is tabulated once on the lag support of the largest window and on
    # every window; the lag estimates and the averages read the same table
    box1 = largest.shape == "box" and largest.q == 1
    if box1:
        # no lag of W^-1 W exceeds 2n
        radius = 2 * largest.index if h_max is None else min(h_max, 2 * largest.index)
        reach = largest.index + radius
        support = box_window(1, reach, largest.center).element_array()
        lags = np.arange(-radius, radius + 1, dtype=np.int64)[:, None]
    else:
        lags = table[0]
        if h_max is not None:
            lags = lags[np.abs(lags).max(axis=1) <= h_max]
        gs = largest.element_array()
        # every g + h, g-major; W itself is among them, at h = 0
        support = (gs[:, None, :] + lags[None, :, :]).reshape(-1, largest.q)
    # the support leads the table: a box keeps its rows' indices, and in the
    # generic path rows[i, j] is the row of g_i + h_j
    points, window_rows = window_points(windows, lead=support)
    vals = f.table(points)
    if box1:
        gamma = _gamma_box1(vals[:len(support)], radius, largest.size)
    else:
        rows = window_rows[0].reshape(len(gs), len(lags))
        gamma = _gamma_empirical(vals, rows, largest.size)

    # np.hypot, not np.abs: np.abs of complex128 can differ from abs(complex)
    # in the last bit, hypot does not
    abs_gamma = np.hypot(gamma.real, gamma.imag)
    # each window's lags, looked up among the estimated ones by key; the
    # overlap |W intersect (W+h)| is the lag's multiplicity in the table
    statistic = []
    double_avg = []
    for w in windows:
        window_lags, counts = table if w is largest else difference_counts(w)
        gamma_keys, keys = lex_keys(lags, window_lags)
        at = np.minimum(np.searchsorted(gamma_keys, keys), len(gamma_keys) - 1)
        hit = gamma_keys[at] == keys
        idx = at[hit]
        weighted = counts[hit] * gamma[idx]
        statistic.append(math.fsum(abs_gamma[idx].tolist()) / w.size)
        double_avg.append(fsum_complex(weighted) / (w.size ** 2))

    averages = [float(np.linalg.norm(_mean_vector(vals[r], w.size)))
                for w, r in zip(windows, window_rows[1:])]

    hyp = statistic[-1] < threshold
    concl = averages[-1] < threshold
    if hyp:
        label = "hypothesis satisfied; averages must vanish"
    else:
        label = "hypothesis not satisfied; conclusion not implied"
    return VdcReport(
        lags=lags,
        gamma=gamma,
        gamma_window_index=largest.index,
        n=np.array([w.index for w in windows]),
        statistic=np.array(statistic),
        double_average=np.array(double_avg),
        averages=np.array(averages),
        hypothesis_satisfied=hyp,
        conclusion_observed=concl,
        label=label,
        threshold=threshold,
    )
