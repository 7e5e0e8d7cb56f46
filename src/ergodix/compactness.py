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

from ._parallel import ordered_map, window_means
from .folner import (
    FolnerWindow,
    GroupElement,
    as_element,
    best_shift_for_density,
    box_window,
    relative_density_witness,
    scale,
    shift_window,
)
from .mixing import _tail
from .systems import SystemHandle

POSITIVITY_TOL = 1e-10
CHAIN_SLACK = 1e-9

SCAN_SCOPE_NOTE = "certified on scan window only"


@dataclass(frozen=True)
class EpsilonNetCertificate:
    """A maximal epsilon-separated subset of the scanned orbit, greedily built
    in lexicographic scan order.  Maximality makes it an epsilon-net for the
    scanned orbit points and a 2-epsilon net for anything epsilon-close to
    them."""

    epsilon: float
    shifts: tuple[GroupElement, ...]
    points: tuple
    kind: str
    scan_window: FolnerWindow
    note: str = SCAN_SCOPE_NOTE

    @property
    def count(self) -> int:
        return len(self.points)


def orbit_epsilon_structure(
    sys: SystemHandle, a, epsilon: float, scan_window: FolnerWindow
) -> EpsilonNetCertificate:
    """Greedy maximal epsilon-separated subset of {tau_g(a) : g in scan} in
    the omega-seminorm."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    picked_shifts: list[GroupElement] = []
    picked_points: list = []
    for g in scan_window.iter_elements():
        x = sys.translate(a, g)
        if all(sys.omega_distance(x, p) >= epsilon for p in picked_points):
            picked_shifts.append(g)
            picked_points.append(x)
    return EpsilonNetCertificate(
        epsilon=epsilon,
        shifts=tuple(picked_shifts),
        points=tuple(picked_points),
        kind="separated-maximal",
        scan_window=scan_window,
    )


@dataclass(frozen=True)
class ChainCertificate:
    exponent: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class ReturnSet:
    """All g in the scan with max_j ||tau_{m_j g}(a) - a||_omega < epsilon.

    Each member carries the telescoping certificates
    ||tau_{m g}(a) - a|| <= m ||tau_g(a) - a|| (equality for isometric
    actions; asserted as an inequality).  ``gap_witness`` is a candidate shift
    list making the member set relatively dense on the scan, when one exists.
    """

    epsilon: float
    exponents: tuple[int, ...]
    members: tuple[GroupElement, ...]
    chain_certificates: tuple[tuple[GroupElement, tuple[ChainCertificate, ...]], ...]
    scan_window: FolnerWindow
    gap_witness: Optional[tuple[GroupElement, ...]] = None
    note: str = SCAN_SCOPE_NOTE


def _return_distance(sys, a, g: GroupElement, m: int) -> float:
    return sys.omega_distance(sys.translate(a, scale(m, g)), a)


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

    def probe(g: GroupElement):
        dists = [0.0 if m == 0 else _return_distance(sys, a, g, m) for m in exps]
        return g, dists

    results = ordered_map(probe, list(scan_window.iter_elements()))
    members = []
    certs = []
    for g, dists in results:
        if max(dists) < epsilon:
            members.append(g)
            base = _return_distance(sys, a, g, 1)
            cc = tuple(
                ChainCertificate(
                    exponent=m,
                    lhs=d,
                    rhs=m * base,
                    holds=(m == 0) or d <= m * base + CHAIN_SLACK * (1.0 + m * base),
                )
                for m, d in zip(exps, dists)
            )
            certs.append((g, cc))

    witness = _gap_witness(members, scan_window)
    return ReturnSet(
        epsilon=epsilon,
        exponents=exps,
        members=tuple(members),
        chain_certificates=tuple(certs),
        scan_window=scan_window,
        gap_witness=witness,
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


def multi_correlation(sys: SystemHandle, a, exponents: Sequence[int], g: GroupElement) -> float:
    """|omega(prod_j tau_{m_j g}(a))|, the factors in exponent order."""
    return abs(sys.expect_product([(a, scale(m, g)) for m in exponents]))


@dataclass(frozen=True)
class CorrelationBound:
    value: float
    bound: float
    holds: bool


def correlation_lower_bound(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    epsilon: float,
    g: Union[int, Sequence[int]],
) -> CorrelationBound:
    """|omega(prod_j tau_{m_j g}(a))| versus omega(a^{k+1}) - epsilon.

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
    value = multi_correlation(sys, a, exps, as_element(g, sys.q))
    bound = power_mean - epsilon
    return CorrelationBound(value=value, bound=bound, holds=value > bound)


@dataclass(frozen=True)
class SzemerediCompactReport:
    epsilon_total: float
    epsilon_return: float
    exponents: tuple[int, ...]
    members: tuple[GroupElement, ...]
    shifts_per_window: tuple[tuple[int, GroupElement, float], ...]
    averages: tuple[tuple[int, float], ...]
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


def covering_candidates(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    windows: Sequence[FolnerWindow],
) -> list[GroupElement]:
    """Smallest residue grid {0..r-1}^q whose translates always meet the
    return set of a, at the budget of szemeredi_average_compact, on the core
    of a box scan reaching four past the largest window index."""
    exps = increasing_exponents(exponents)
    if not windows:
        raise ValueError("need at least one window")
    a_hat, _, eps_return = _return_budget(sys, a, len(exps))
    scan = box_window(sys.q, max(w.index for w in windows) + 4)
    members = set(return_set(sys, a_hat, eps_return, (0,) + exps, scan).members)
    for r in range(1, scan.index):
        cands = [tuple(c) for c in itertools.product(range(r), repeat=sys.q)]
        core = box_window(sys.q, scan.index - r)
        if relative_density_witness(lambda g: g in members, core, cands).accepted:
            return cands
    raise ValueError("could not find a covering candidate grid; "
                     "pass candidates explicitly")


def szemeredi_average_compact(
    sys: SystemHandle,
    a,
    exponents: Sequence[int],
    windows: Sequence[FolnerWindow],
    candidates: Sequence[Union[int, Sequence[int]]],
) -> SzemerediCompactReport:
    """Shifted-window multi-correlation average for a compact tracial system.

    Builds the return set at half the admissible epsilon budget, moves each
    window onto the return set by the best candidate shift, and averages
    |omega(a prod_j tau_{m_j g}(a))| over the shifted windows.  The tail
    minimum over the last quarter of the schedule is reported and must be
    positive.
    """
    if not sys.is_tracial:
        raise ValueError("compact Szemeredi average requires a tracial state")
    if sys.obs_min_eigenvalue(a) < -POSITIVITY_TOL:
        raise ValueError("observable must be positive semidefinite")
    exps = increasing_exponents(exponents)
    if not windows:
        raise ValueError("need at least one window")
    if not candidates:
        raise ValueError("need at least one candidate shift")
    q = sys.q
    cands = [as_element(c, q) for c in candidates]

    a_hat, eps_total, eps_return = _return_budget(sys, a, len(exps))

    def window_reach(w: FolnerWindow) -> int:
        if w.shape == "box":
            return w.index + max((abs(c) for c in w.center), default=0)
        return max(abs(x) for g in w.points for x in g)

    max_coord = max(window_reach(w) for w in windows)
    max_cand = max(max(abs(x) for x in c) for c in cands)
    scan = box_window(q, max_coord + max_cand)

    full_exps = (0,) + exps
    rset = return_set(sys, a_hat, eps_return, full_exps, scan)
    if not rset.members:
        raise ValueError(
            "return set empty on the scan window; enlarge the window schedule")
    member_set = set(rset.members)
    witness = relative_density_witness(lambda g: g in member_set, _core_scan(scan, cands), cands)

    shifts = []
    shifted = []
    for w in windows:
        shift, ratio = best_shift_for_density(w, lambda g: g in member_set, cands)
        shifted.append(shift_window(w, shift))
        shifts.append((w.index, shift, ratio))
    means = window_means(lambda g: multi_correlation(sys, a, full_exps, g), shifted)
    averages = list(zip((w.index for w in windows), means))

    tail_min = min(_tail([v for _, v in averages]))
    return SzemerediCompactReport(
        epsilon_total=eps_total,
        epsilon_return=eps_return,
        exponents=exps,
        members=rset.members,
        shifts_per_window=tuple(shifts),
        averages=tuple(averages),
        tail_min=tail_min,
        witness_accepted=witness.accepted,
    )


def _core_scan(scan: FolnerWindow, cands: Sequence[GroupElement]) -> FolnerWindow:
    """Shrink the scan so every g + candidate stays inside the scanned region,
    keeping the witness check honest at the boundary."""
    max_cand = max(max(abs(x) for x in c) for c in cands)
    n = max(1, scan.index - max_cand)
    return box_window(scan.q, n)
