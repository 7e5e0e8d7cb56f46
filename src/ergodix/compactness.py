"""Compact-system machinery: epsilon-separated orbit certificates, return-time
sets with bounded gaps, the multi-correlation lower bound for tracial states,
and the shifted-window Szemeredi average.

All certificates are scoped to a finite scan window and say so: total
boundedness and relative denseness are not finitely decidable, so every claim
here is "as observed on the scan".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._parallel import table_means
from .folner import (
    FiniteSet,
    FolnerWindow,
    GroupElement,
    as_element,
    best_shift_for_density,
    box_window,
    element_row,
    relative_density_witness,
    scale_table,
    shift_window,
)
from .mixing import _tail
from .systems import SystemHandle, table_chunks

POSITIVITY_TOL = 1e-10
CHAIN_SLACK = 1e-9

SCAN_SCOPE_NOTE = "certified on scan window only"


@dataclass(frozen=True)
class EpsilonNetCertificate:
    """A maximal epsilon-separated subset of the scanned orbit, greedily built
    in lexicographic scan order.  Maximality makes it an epsilon-net for the
    scanned orbit points and a 2-epsilon net for anything epsilon-close to
    them."""

    shifts: tuple[GroupElement, ...]
    points: tuple
    note: str = SCAN_SCOPE_NOTE

    @property
    def count(self) -> int:
        return len(self.points)


def orbit_epsilon_structure(
    sys: SystemHandle, a, epsilon: float, scan_window: FolnerWindow
) -> EpsilonNetCertificate:
    """Greedy maximal epsilon-separated subset of {tau_g(a) : g in scan} in
    the omega-seminorm.  The scan is translated a chunk of rows at a time,
    and each translate is checked against the stack of the points picked so
    far."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    gs = scan_window.element_array()
    picked_shifts: list[GroupElement] = []
    picked = np.empty(0)
    for chunk in table_chunks(sys, len(gs)):
        for g, x in zip(map(tuple, gs[chunk].tolist()), sys.translate_table(a, gs[chunk])):
            if not picked_shifts or (sys.omega_distance_table(x, picked) >= epsilon).all():
                picked_shifts.append(g)
                # a fresh stack one point longer (an object array of
                # observables on the quasi-local backend), so no view into
                # a chunk's translates outlives its loop
                picked = np.array([*picked, x])
    return EpsilonNetCertificate(shifts=tuple(picked_shifts), points=tuple(picked))


@dataclass(frozen=True, eq=False)
class ReturnSet:
    """All g in the scan with max_j ||tau_{m_j g}(a) - a||_omega < epsilon.

    Each member carries the telescoping certificates
    ||tau_{m g}(a) - a|| <= m ||tau_g(a) - a|| (equality for isometric
    actions; asserted as an inequality), one row per member and one column
    per exponent in ``chain_lhs``, ``chain_rhs`` and ``chain_holds``.
    ``gap_witness`` is a candidate shift list making the member set
    relatively dense on the scan, when one exists.
    """

    exponents: tuple[int, ...]
    members: tuple[GroupElement, ...]
    chain_lhs: np.ndarray  # float64 ||tau_{m g}(a) - a||
    chain_rhs: np.ndarray  # float64 m ||tau_g(a) - a||
    chain_holds: np.ndarray  # bool, lhs <= rhs up to CHAIN_SLACK (always for m = 0)
    scan_window: FolnerWindow
    gap_witness: Optional[tuple[GroupElement, ...]] = None
    note: str = SCAN_SCOPE_NOTE


def _return_distances(sys, a, points, m: int) -> np.ndarray:
    """||tau_{m g}(a) - a||_omega for each row g of a (T, q) point table."""
    shifts = scale_table(m, points)
    out: list[float] = []
    for chunk in table_chunks(sys, len(shifts)):
        out += sys.omega_distance_table(sys.translate_table(a, shifts[chunk]), a).tolist()
    return np.array(out)


def return_set(
    sys: SystemHandle,
    a,
    epsilon: float,
    exponents: Sequence[int],
    scan_window: FolnerWindow,
) -> ReturnSet:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    exps = tuple(int(m) for m in exponents)
    if any(m < 0 for m in exps):
        raise ValueError("exponents must be nonnegative")

    # one column of distances per distinct exponent over the whole scan; the
    # exponent-1 distance, each member's certificate base, is read from its
    # column when there is one and is otherwise taken for the members only
    gs = scan_window.element_array()
    cols = {m: np.zeros(len(gs)) if m == 0 else _return_distances(sys, a, gs, m)
            for m in dict.fromkeys(exps)}
    dists = np.column_stack([cols[m] for m in exps])
    hits = np.flatnonzero(dists.max(axis=1) < epsilon)
    bases = cols[1][hits] if 1 in cols else _return_distances(sys, a, gs[hits], 1)
    ms = np.array(exps)
    lhs, rhs = dists[hits], ms * bases[:, None]
    members = [tuple(g) for g in gs[hits].tolist()]
    return ReturnSet(
        exponents=exps,
        members=tuple(members),
        chain_lhs=lhs,
        chain_rhs=rhs,
        chain_holds=(ms == 0) | (lhs <= rhs + CHAIN_SLACK * (1.0 + rhs)),
        scan_window=scan_window,
        gap_witness=_gap_witness(members, scan_window),
    )


def _gap_witness(
    members: Sequence[GroupElement], scan: FolnerWindow
) -> Optional[tuple[GroupElement, ...]]:
    """For rank-1 scans, a candidate list {0,...,gmax} covering the largest
    observed gap; None when no member was found or the rank exceeds 1."""
    if not members or scan.q != 1:
        return None
    xs = sorted(g[0] for g in members)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    gmax = max(gaps, default=0)
    return tuple((j,) for j in range(gmax + 1))


def multi_correlations(sys: SystemHandle, a, exponents: Sequence[int], points) -> list[float]:
    """|omega(prod_j tau_{m_j g}(a))| for each row g of a (T, q) point
    table, the factors in exponent order."""
    vals = sys.expect_product_table([(a, scale_table(m, points)) for m in exponents])
    return [abs(v) for v in vals.tolist()]


@dataclass(frozen=True)
class CorrelationBound:
    value: float
    bound: float
    holds: bool


def correlation_lower_bounds(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    epsilon: float,
    points,
) -> list[CorrelationBound]:
    """|omega(prod_j tau_{m_j g}(a))| versus omega(a^{k+1}) - epsilon for
    each row g of a (T, q) point table.

    Requires a tracial state, a positive with omega(a) > 0, and epsilon below
    omega(a^{k+1}); on return-set members with the rescaled epsilon budget the
    bound holds strictly.
    """
    if not sys.is_tracial:
        raise ValueError("correlation lower bound requires a tracial state")
    if sys.obs_min_eigenvalue(a) < -POSITIVITY_TOL:
        raise ValueError("observable must be positive semidefinite")
    exps = tuple(int(m) for m in exponents)
    k_plus_1 = len(exps)
    if k_plus_1 < 1:
        raise ValueError("need at least one exponent")
    if sys.expect(a).real <= 0:
        raise ValueError("omega(a) must be positive")
    power_mean = sys.expect(sys.obs_power(a, k_plus_1)).real
    if not (0 < epsilon < power_mean):
        raise ValueError("epsilon must lie strictly between 0 and omega(a^(k+1))")
    bound = power_mean - epsilon
    return [CorrelationBound(value=v, bound=bound, holds=v > bound)
            for v in multi_correlations(sys, a, exps, points)]


def correlation_lower_bound(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    epsilon: float,
    g: Union[int, Sequence[int]],
) -> CorrelationBound:
    return correlation_lower_bounds(sys, a, exponents, epsilon,
                                    element_row(as_element(g, sys.q)))[0]


@dataclass(frozen=True, eq=False)
class SzemerediCompactReport:
    epsilon_total: float
    epsilon_return: float
    exponents: tuple[int, ...]
    members: tuple[GroupElement, ...]
    n: np.ndarray  # int64 window indices
    shifts: tuple[GroupElement, ...]  # each window's best candidate shift
    shift_ratios: np.ndarray  # float64 density of the return set in each shifted window
    averages: np.ndarray  # float64, one per shifted window
    tail_min: float
    witness_accepted: bool
    note: str = SCAN_SCOPE_NOTE


def increasing_exponents(exponents: Sequence[int]) -> tuple[int, ...]:
    """The exponents of a Szemeredi average as a tuple of ints; ValueError
    unless they are strictly increasing positive integers."""
    exps = tuple(int(m) for m in exponents)
    if not exps or any(m < 1 for m in exps) or list(exps) != sorted(set(exps)):
        raise ValueError("exponents must be strictly increasing positive integers")
    return exps


def _return_budget(sys: SystemHandle, a, k: int):
    """The budget of a (k+1)-fold multi-correlation of a: a rescaled to unit
    operator norm, the total epsilon 0.5 * omega(a_hat^(k+1)) * ||a||^(k+1),
    and the return-set epsilon for a_hat, the total's share per factor."""
    norm_a = sys.obs_operator_norm(a)
    if norm_a <= 0:
        raise ValueError("observable must be nonzero")
    a_hat = sys.obs_scale(a, 1.0 / norm_a)
    power_hat = sys.expect(sys.obs_power(a_hat, k + 1)).real
    if power_hat <= 0:
        raise ValueError("omega(normalized a to the k+1) must be positive")
    eps_total = 0.5 * power_hat * norm_a ** (k + 1)
    eps_return = eps_total / (norm_a ** (k + 1) * (k + 1))
    return a_hat, eps_total, eps_return


def _probe_returns(sys, a_hat, eps_return, exps, windows) -> ReturnSet:
    """The return set behind the candidate-grid probe."""
    scan = box_window(sys.q, max(w.index for w in windows) + 4)
    return return_set(sys, a_hat, eps_return, (0,) + exps, scan)


def _covering_grid(probe: ReturnSet) -> list[GroupElement]:
    """The smallest grid {0..r-1}^q whose translates meet the probe's members
    from every point of a core of its scan."""
    scan = probe.scan_window
    members = FiniteSet(frozenset(probe.members))
    for r in range(1, scan.index):
        cands = [tuple(c) for c in itertools.product(range(r), repeat=scan.q)]
        core = box_window(scan.q, scan.index - r)
        if relative_density_witness(members, core, cands).accepted:
            return cands
    raise ValueError("could not find a covering candidate grid; "
                     "pass candidates explicitly")


def szemeredi_average_compact(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    windows: Sequence[FolnerWindow],
    candidates: Optional[Sequence[Union[int, Sequence[int]]]] = None,
) -> SzemerediCompactReport:
    """Shifted-window multi-correlation average for a compact tracial system.

    Builds the return set at half the admissible epsilon budget, moves each
    window onto the return set by the best candidate shift, and averages
    |omega(a prod_j tau_{m_j g}(a))| over the shifted windows.  The tail
    minimum over the last quarter of the schedule is reported and must be
    positive.  Without candidates, the smallest grid whose translates meet a
    probe return set (``_covering_grid``) is used, and the probe's return set
    serves the average too wherever it covers the average's scan:
    membership is decided point by point.
    """
    if not sys.is_tracial:
        raise ValueError("compact Szemeredi average requires a tracial state")
    if sys.obs_min_eigenvalue(a) < -POSITIVITY_TOL:
        raise ValueError("observable must be positive semidefinite")
    exps = increasing_exponents(exponents)
    if not windows:
        raise ValueError("need at least one window")
    if candidates is not None and not candidates:
        raise ValueError("need at least one candidate shift")
    q = sys.q

    a_hat, eps_total, eps_return = _return_budget(sys, a, len(exps))
    probe = None
    if candidates is None:
        probe = _probe_returns(sys, a_hat, eps_return, exps, windows)
        candidates = _covering_grid(probe)
    cands = [as_element(c, q) for c in candidates]

    max_coord = max(abs(x) for w in windows for corner in w.bounds() for x in corner)
    max_cand = max(max(abs(x) for x in c) for c in cands)
    scan = box_window(q, max_coord + max_cand)

    full_exps = (0,) + exps
    if probe is not None and scan.index <= probe.scan_window.index:
        # both scans are boxes about 0 in lexicographic order
        members = tuple(g for g in probe.members if g in scan)
    else:
        members = return_set(sys, a_hat, eps_return, full_exps, scan).members
    if not members:
        raise ValueError(
            "return set empty on the scan window; enlarge the window schedule")
    member_set = FiniteSet(frozenset(members))
    # the core keeps every g + candidate inside the scanned region
    witness = relative_density_witness(member_set, box_window(q, max(1, max_coord)), cands)

    shifts, ratios = zip(*(best_shift_for_density(w, member_set, cands) for w in windows))
    shifted = [shift_window(w, shift) for w, shift in zip(windows, shifts)]
    averages = table_means(lambda pts: multi_correlations(sys, a, full_exps, pts), shifted)
    return SzemerediCompactReport(
        epsilon_total=eps_total,
        epsilon_return=eps_return,
        exponents=exps,
        members=members,
        n=np.array([w.index for w in windows]),
        shifts=shifts,
        shift_ratios=np.array(ratios),
        averages=averages,
        tail_min=min(_tail(averages)),
        witness_accepted=witness.accepted,
    )
