"""The lattice Z^q: group elements, integer homomorphisms, Folner windows,
and density machinery.

Group elements are plain tuples of ints (addition componentwise, identity
the zero tuple).  Windows are finite averaging sets; boxes {-n..n}^q carry
closed-form size/overlap formulas so that large-n Tempelman and defect
statistics never enumerate quadratically.  All quantities are exact: counting
measure only, a single float division at the end of each ratio.  Lag
arithmetic over many pairs (difference sets, their multiplicities, lag
supports) runs on integer arrays whose rows are ordered by scalar keys.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ._parallel import lex_keys, point_table, table_means

GroupElement = tuple[int, ...]

# Coordinates below this bound keep every sum or difference of three of them
# inside int64; larger ones make the arrays hold exact Python ints instead.
_INT64_SAFE = 2 ** 61


def as_element(g: Union[int, Sequence[int]], q: Optional[int] = None) -> GroupElement:
    """Coerce an integer (for q=1) or a sequence of integers into a group
    element.  Python and numpy integers are accepted; anything else, a float
    included, raises ValueError rather than being truncated."""
    try:
        out = tuple(map(operator.index, g)) if hasattr(g, "__iter__") else (operator.index(g),)
    except TypeError:
        raise ValueError(
            f"group element {g!r} is not an integer or a sequence of integers") from None
    if q is not None and len(out) != q:
        raise ValueError(f"group element {out} has rank {len(out)}, expected {q}")
    return out


def element_row(g: Union[int, Sequence[int]]) -> np.ndarray:
    """g as a one-row (1, q) point table, exact at any size."""
    return np.array([as_element(g)], dtype=object)


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    return tuple(a + b for a, b in zip(g, h, strict=True))


def scale(m: int, g: GroupElement) -> GroupElement:
    return tuple(m * a for a in g)


def _reach(points: np.ndarray) -> int:
    """The largest absolute coordinate of an integer table, 0 when it is empty."""
    return max(abs(int(points.min())), abs(int(points.max()))) if points.size else 0


def _exact_dtype(points: np.ndarray, factor: int, *constants: int):
    """The dtype of an integer table whose entries reach ``factor`` times the
    table's largest coordinate, in arithmetic with the given constants:
    int64 inside _INT64_SAFE, else exact Python ints (object)."""
    small = max(_reach(points), 1) * factor < _INT64_SAFE
    return np.int64 if small and all(abs(c) < _INT64_SAFE for c in constants) else object


def scale_table(m: int, points: np.ndarray) -> np.ndarray:
    """m times each row of a (T, q) integer table, exact at any size."""
    return points.astype(_exact_dtype(points, abs(m))) * m


def zero(q: int) -> GroupElement:
    return (0,) * q


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism Z^q -> Z^q given by an integer q-by-q matrix.

    Scalars m are admitted as m times the identity.  Application is exact
    integer arithmetic.
    """

    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def scalar(q: int, m: int) -> "Homomorphism":
        rows = tuple(tuple(m if i == j else 0 for j in range(q)) for i in range(q))
        return Homomorphism(rows)

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[int]]) -> "Homomorphism":
        """The homomorphism of an integer matrix; Python and numpy integers
        are accepted, and anything else, a float included, raises ValueError
        rather than being truncated."""
        try:
            mat = tuple(tuple(map(operator.index, row)) for row in rows)
        except TypeError:
            raise ValueError(f"homomorphism matrix {rows!r} has a non-integer entry") from None
        q = len(mat)
        if any(len(row) != q for row in mat):
            raise ValueError("homomorphism matrix must be square")
        return Homomorphism(mat)

    @property
    def q(self) -> int:
        return len(self.matrix)

    def apply_table(self, points: np.ndarray) -> np.ndarray:
        """The image of each row of a (T, q) integer table, exact at any size."""
        if points.ndim != 2 or points.shape[1] != self.q:
            raise ValueError(f"element rank {points.shape[-1]} != homomorphism rank {self.q}")
        dtype = _exact_dtype(points, max(sum(map(abs, row)) for row in self.matrix))
        return points.astype(dtype) @ np.array(self.matrix, dtype=dtype).T

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)


@dataclass(frozen=True)
class FolnerWindow:
    """A finite averaging window in Z^q.

    shape "box" is {-n..n}^q translated by ``center``; its cardinality and
    translation overlaps have closed forms.  shape "custom" stores an explicit
    point set.  Windows are immutable; elements enumerate in lexicographic
    order for deterministic reductions.
    """

    q: int
    shape: str  # "box" | "custom"
    index: int
    center: GroupElement = field(default=())
    points: Optional[frozenset[GroupElement]] = None

    def __post_init__(self) -> None:
        if self.shape not in ("box", "custom"):
            raise ValueError(f"unknown window shape {self.shape!r}")
        if self.shape == "box":
            if self.index < 1:
                raise ValueError("box window needs index n >= 1")
            if not self.center:
                object.__setattr__(self, "center", zero(self.q))
        else:
            if not self.points:
                raise ValueError("custom window must be nonempty")

    @property
    def size(self) -> int:
        if self.shape == "box":
            return (2 * self.index + 1) ** self.q
        return len(self.points)

    def iter_elements(self) -> Iterator[GroupElement]:
        if self.shape == "box":
            n, c = self.index, self.center
            rngs = [range(c[i] - n, c[i] + n + 1) for i in range(self.q)]
            yield from itertools.product(*rngs)
        else:
            yield from sorted(self.points)

    def bounds(self) -> tuple[GroupElement, GroupElement]:
        """The least and the greatest coordinate of the elements on each axis."""
        if self.shape == "box":
            n = self.index
            return tuple(c - n for c in self.center), tuple(c + n for c in self.center)
        axes = list(zip(*self.points))
        return tuple(map(min, axes)), tuple(map(max, axes))

    def element_array(self) -> np.ndarray:
        """The elements, in order, as the rows of a (size, q) integer array:
        int64 when the coordinates are small enough for sums and differences,
        else exact Python ints (dtype object)."""
        lo, hi = self.bounds()
        if self.shape == "box":
            return _box_rows(lo, hi)
        dtype = _exact_dtype(np.array([lo, hi], dtype=object), 1)
        return np.array(sorted(self.points), dtype=dtype).reshape(self.size, self.q)

    def __contains__(self, g: GroupElement) -> bool:
        if self.shape == "box":
            n = self.index
            return all(abs(x - c) <= n for x, c in zip(g, self.center))
        return g in self.points

    def overlap_with_translate(self, g: GroupElement) -> int:
        """|W intersect (W+g)|; exact, closed form for boxes."""
        if self.shape == "box":
            side = 2 * self.index + 1
            count = 1
            for gi in g:
                count *= max(0, side - abs(gi))
            return count
        shifted = {add(p, g) for p in self.points}
        return len(self.points & shifted)


def _box_rows(lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
    """The points of the box [lo, hi] in lexicographic order, as the rows of
    an integer array (dtype as :func:`_exact_dtype` of its corners)."""
    dtype = _exact_dtype(np.array([lo, hi], dtype=object), 1)
    axes = [np.arange(a, b + 1, dtype=dtype) for a, b in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, len(lo))


def box_window(q: int, n: int, center: Union[int, Sequence[int], None] = None) -> FolnerWindow:
    """The box window {-n..n}^q (optionally translated)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    c = zero(q) if center is None else as_element(center, q)
    return FolnerWindow(q=q, shape="box", index=n, center=c)


def custom_window(q: int, elements: Iterable[Union[int, Sequence[int]]], index: int = 1) -> FolnerWindow:
    pts = frozenset(as_element(e, q) for e in elements)
    return FolnerWindow(q=q, shape="custom", index=index, center=zero(q), points=pts)


def box_schedule(q: int, n_min: int, n_max: int, stride: int = 1) -> list[FolnerWindow]:
    """Box windows for n = n_min, n_min+stride, ..., n_max."""
    if n_min < 1 or n_max < n_min or stride < 1:
        raise ValueError("need 1 <= n_min <= n_max and stride >= 1")
    return [box_window(q, n) for n in range(n_min, n_max + 1, stride)]


def inverse_product(window: FolnerWindow) -> FolnerWindow:
    """The difference set {-a+b : a, b in W}; for a box of radius n this is
    the radius-2n box."""
    if window.shape == "box":
        return box_window(window.q, 2 * window.index)
    lags, _ = difference_counts(window)
    return FolnerWindow(q=window.q, shape="custom", index=window.index,
                        center=zero(window.q), points=frozenset(map(tuple, lags.tolist())))


def difference_counts(window: FolnerWindow) -> tuple[np.ndarray, np.ndarray]:
    """The difference set W^-1 W as a (k, q) integer array of lags in sorted
    tuple order, and |W intersect (W+h)| for each lag h.

    The overlap at h is the number of pairs (a, b) in W^2 with b - a = h, so
    it is the multiplicity of h among the pairwise differences.  A box of
    radius n has the radius-2n box as lags and the closed form
    prod_i (2n+1-|h_i|) as counts.
    """
    q = window.q
    if window.shape == "box":
        n = window.index
        lags = box_window(q, 2 * n).element_array()
        return lags, np.prod(2 * n + 1 - np.abs(lags), axis=1)
    pts = window.element_array()
    diffs = (pts[None, :, :] - pts[:, None, :]).reshape(-1, q)
    (keys,) = lex_keys(diffs)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return diffs[first], counts


def tempelman_ratio(window: FolnerWindow) -> float:
    """|W^-1 W| / |W|.  Bounded by 2^q for boxes of any radius."""
    return inverse_product(window).size / window.size


def folner_defect(window: FolnerWindow, g: Union[int, Sequence[int]]) -> float:
    """|W symmetric-difference (W+g)| / |W|, exact."""
    g = as_element(g, window.q)
    sym = 2 * (window.size - window.overlap_with_translate(g))
    return sym / window.size


def shift_window(window: FolnerWindow, g: Union[int, Sequence[int]]) -> FolnerWindow:
    """The translate W+g; cardinality is preserved."""
    g = as_element(g, window.q)
    if window.shape == "box":
        return FolnerWindow(q=window.q, shape="box", index=window.index,
                            center=add(window.center, g))
    pts = frozenset(add(p, g) for p in window.points)
    return FolnerWindow(q=window.q, shape="custom", index=window.index,
                        center=zero(window.q), points=pts)


# --- membership predicates -------------------------------------------------

class SetPredicate:
    """Base for serializable membership predicates over Z^q.

    ``mask`` decides every row of a (T, q) integer table at once, exactly at
    any coordinate size."""

    def mask(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


def _check_rank(points: np.ndarray, rank: int) -> None:
    if points.shape[1] != rank:
        raise ValueError(f"element rank {points.shape[1]} != set rank {rank}")


@dataclass(frozen=True)
class ResidueClassSet(SetPredicate):
    """Points with coeffs . g congruent to one of the residues mod modulus."""

    modulus: int
    residues: tuple[int, ...]
    coeffs: Optional[tuple[int, ...]] = None
    _reduced: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "_reduced", frozenset(r % self.modulus for r in self.residues))

    def mask(self, points: np.ndarray) -> np.ndarray:
        q = points.shape[1]
        coeffs = self.coeffs if self.coeffs is not None else (1,) + (0,) * (q - 1)
        _check_rank(points, len(coeffs))
        dtype = _exact_dtype(points, sum(map(abs, coeffs)), self.modulus)
        vals = points.astype(dtype) @ np.array(coeffs, dtype=dtype)
        return np.isin(vals % self.modulus, np.array(sorted(self._reduced), dtype=dtype))

    def to_json(self) -> dict:
        out = {"kind": "residue", "modulus": self.modulus, "residues": list(self.residues)}
        if self.coeffs is not None:
            out["coeffs"] = list(self.coeffs)
        return out


@dataclass(frozen=True)
class FiniteSet(SetPredicate):
    points: frozenset[GroupElement]

    @cached_property
    def _members(self) -> dict[int, np.ndarray]:
        """Each rank's members as one object table, built once per set."""
        return {rank: np.array([p for p in self.points if len(p) == rank], dtype=object)
                for rank in {len(p) for p in self.points}}

    def mask(self, points: np.ndarray) -> np.ndarray:
        own = self._members.get(points.shape[1])
        if own is None:
            return np.zeros(len(points), dtype=bool)
        keys, own_keys = lex_keys(points, own)
        return np.isin(keys, own_keys)

    def to_json(self) -> dict:
        return {"kind": "finite", "points": sorted(list(p) for p in self.points)}


@dataclass(frozen=True)
class ProgressionSet(SetPredicate):
    """The arithmetic progression {start + k*step : k in Z}."""

    start: GroupElement
    step: GroupElement

    def __post_init__(self) -> None:
        if len(self.start) != len(self.step):
            raise ValueError(f"progression start has rank {len(self.start)}, "
                             f"step has rank {len(self.step)}")
        if all(s == 0 for s in self.step):
            raise ValueError("progression step must be nonzero")

    def mask(self, points: np.ndarray) -> np.ndarray:
        """g - start must vanish on the axes where the step does, and be the
        same multiple k of the step on every other axis."""
        _check_rank(points, len(self.step))
        dtype = _exact_dtype(points, 1, *self.start, *self.step)
        d = points.astype(dtype) - np.array(self.start, dtype=dtype)
        step = np.array(self.step, dtype=dtype)
        moving = step != 0
        d_moving, step_moving = d[:, moving], step[moving]
        k = d_moving // step_moving
        return ((d[:, ~moving] == 0).all(axis=1)
                & (d_moving % step_moving == 0).all(axis=1)
                & (k == k[:, :1]).all(axis=1))

    def to_json(self) -> dict:
        return {"kind": "progression", "start": list(self.start), "step": list(self.step)}


@dataclass(frozen=True)
class FullSet(SetPredicate):
    def mask(self, points: np.ndarray) -> np.ndarray:
        return np.ones(len(points), dtype=bool)

    def to_json(self) -> dict:
        return {"kind": "all"}


# --- density machinery -------------------------------------------------------

def _grid_mask(
    pred: SetPredicate, lo: Sequence[int], hi: Sequence[int], budget: int
) -> Optional[np.ndarray]:
    """``pred.mask`` at every point of the box [lo, hi], shaped as the box;
    None when the box holds more than ``budget`` points (the rows a point
    table would gather), so that the table is the smaller read."""
    shape = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(shape) > budget:
        return None
    return pred.mask(_box_rows(lo, hi)).reshape(shape)


def _box_counts(pred: SetPredicate, windows: Sequence[FolnerWindow]) -> Optional[list[int]]:
    """|W intersect E| for each window when all are boxes: one mask over
    their joint bounding box, its int64 summed-area table, and
    inclusion-exclusion over each box's 2^q corners.  None for other windows,
    or when the bounding box holds more points than the windows together."""
    if any(w.shape != "box" for w in windows):
        return None
    corners = [w.bounds() for w in windows]
    lo = [min(c) for c in zip(*(a for a, _ in corners))]
    hi = [max(c) for c in zip(*(b for _, b in corners))]
    mask = _grid_mask(pred, lo, hi, sum(w.size for w in windows))
    if mask is None:
        return None
    # table[i] counts the members at grid indices below i on every axis
    table = np.pad(mask.astype(np.int64), [(1, 0)] * mask.ndim)
    for axis in range(mask.ndim):
        np.cumsum(table, axis=axis, out=table)
    start = np.array([[x - o for x, o in zip(a, lo)] for a, _ in corners])
    stop = np.array([[x - o + 1 for x, o in zip(b, lo)] for _, b in corners])
    counts = np.zeros(len(windows), dtype=np.int64)
    for corner in itertools.product((False, True), repeat=mask.ndim):
        sign = (-1) ** (mask.ndim - sum(corner))
        counts += sign * table[tuple(np.where(corner, stop, start).T)]
    return counts.tolist()


def _densities(pred: SetPredicate, windows: Sequence[FolnerWindow]) -> np.ndarray:
    """|W intersect E| / |W| for each window, from :func:`_box_counts` or else
    the mean of the 0.0/1.0 indicator over a point table: the same bits,
    because the correctly rounded sum of the indicator is the count."""
    counts = _box_counts(pred, windows)
    if counts is None:
        return table_means(lambda points: pred.mask(points).astype(np.float64), windows)
    return np.array([c / w.size for c, w in zip(counts, windows)])


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Per-window intersection ratios and their minimum over the reported
    windows (the finite stand-in for a liminf; callers choose the tail by
    choosing the window schedule)."""

    n: np.ndarray  # int64 window indices
    ratios: np.ndarray  # float64, one per window
    lower_density: float


def lower_density(pred: SetPredicate, windows: Sequence[FolnerWindow]) -> DensityReport:
    if not windows:
        raise ValueError("need at least one window")
    ratios = _densities(pred, windows)
    return DensityReport(n=np.array([w.index for w in windows]), ratios=ratios,
                         lower_density=float(ratios.min()))


@dataclass(frozen=True)
class RelativeDensityResult:
    accepted: bool
    candidates: tuple[GroupElement, ...]
    failing_point: Optional[GroupElement] = None


def _covered(pred: SetPredicate, scan: FolnerWindow, cands: Sequence[GroupElement]) -> np.ndarray:
    """For each g of the scan in lexicographic order, whether some g + g_j is in E."""
    low, high = [min(c) for c in zip(*cands)], [max(c) for c in zip(*cands)]
    lo, hi = scan.bounds()
    lo, hi = [a + m for a, m in zip(lo, low)], [b + m for b, m in zip(hi, high)]
    grid = _grid_mask(pred, lo, hi, scan.size * len(cands)) if scan.shape == "box" else None
    if grid is not None:
        # g + g_j runs over the grid's slice at offset g_j - low
        side = 2 * scan.index + 1
        covered = np.zeros((side,) * scan.q, dtype=bool)
        for c in cands:
            covered |= grid[tuple(slice(x - m, x - m + side) for x, m in zip(c, low))]
        return covered.reshape(-1)
    gs = scan.element_array()
    offsets = np.array(cands, dtype=_exact_dtype(np.array([low, high], dtype=object), 1))
    # row (i, j) of the sums is g_i + g_j, scan-major
    sums = (gs[:, None, :] + offsets[None, :, :]).reshape(-1, scan.q)
    pts, (rows,) = point_table([sums], lo, hi)
    return pred.mask(pts)[rows].reshape(len(gs), len(cands)).any(axis=1)


def relative_density_witness(
    pred: SetPredicate,
    scan: FolnerWindow,
    candidates: Sequence[Union[int, Sequence[int]]],
) -> RelativeDensityResult:
    """Check the covering property behind relative denseness on a finite scan:
    every g in the scan must have E intersect {g+g_1,...,g+g_r} nonempty.
    On failure the first failing g (in lexicographic scan order) is reported.

    A box scan reads one ``pred.mask`` over the bounding box of the g + g_j,
    unless that box holds more than |scan| * r points; then, as for any other
    scan, the mask decides the distinct points g + g_j in one point table.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    cands = tuple(as_element(c, scan.q) for c in candidates)
    covered = _covered(pred, scan, cands)
    if covered.all():
        return RelativeDensityResult(True, cands)
    failing = tuple(scan.element_array()[int(np.argmin(covered))].tolist())
    return RelativeDensityResult(False, cands, failing_point=failing)


def best_shift_for_density(
    window: FolnerWindow,
    pred: SetPredicate,
    candidates: Sequence[Union[int, Sequence[int]]],
) -> tuple[GroupElement, float]:
    """Among the candidate shifts, pick the one maximizing |(W+g_j) intersect E|.

    Ties break toward the lowest candidate index.  When the covering property
    holds on the relevant scan, the winning ratio is at least 1/r.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    cands = [as_element(c, window.q) for c in candidates]
    ratios = _densities(pred, [shift_window(window, c) for c in cands])
    best = int(np.argmax(ratios))  # first maximum
    return cands[best], float(ratios[best])
