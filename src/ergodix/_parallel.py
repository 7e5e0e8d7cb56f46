"""Point tables and correctly rounded reductions.

Every window statistic (mixing defects, multi-correlation averages, the van
der Corput averages and lag tables of windows that are not boxes, and the
densities of windows that are not boxes) finds the distinct lattice points
of its whole schedule with :func:`point_table` and hands them to its
integrand once, as the rows of a (T, q) integer table in first-seen order.
The integrand returns their T values, so a backend, a predicate or a
sequence decides all the points at once.  Each window is reduced over that
table with correctly rounded sums, so every result is independent of
evaluation order; :func:`table_means` is the one window reduction.  Its
array of per-window means is a curve, which a report carries as an array
next to the int64 window indices ``n``.  Box-window densities, best shifts
and witnesses count on one predicate mask over a bounding box in
:mod:`ergodix.folner`, and box van der Corput schedules read f on one
support box in :mod:`ergodix.vdc`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

_INT64_MAX = 2 ** 63 - 1
# Blocks are keyed and merged into the table in batches of at least this many
# rows, and cut into pieces of at most this many: large enough that a schedule
# of small windows costs a few numpy calls, small enough that no sort holds a
# large window or lag support whole.
_BATCH_ROWS = 1 << 16


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items`` preserving order."""
    return [fn(x) for x in items]


def fsum_complex(values: Iterable[complex]) -> complex:
    """Correctly rounded complex sum (order-independent by exactness) of an
    array or an iterable of complex numbers."""
    vals = np.asarray(values if isinstance(values, np.ndarray) else list(values),
                      dtype=np.complex128)
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def fmean(values: np.ndarray, size: int) -> float:
    return math.fsum(values.tolist()) / size


def fmean_complex(values: Iterable[complex], size: int) -> complex:
    total = fsum_complex(values)
    return complex(total.real / size, total.imag / size)


def row_keys(lo: Sequence[int], hi: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The key function of integer rows inside the box [lo, hi]: the row's
    mixed-radix number in the box, first coordinate most significant, so key
    order is tuple order.  Keys are int64 when the box has at most 2^63 - 1
    points and its corners fit int64, else exact Python ints."""
    spans = [b - a + 1 for a, b in zip(lo, hi)]
    small = math.prod(spans) <= _INT64_MAX and all(abs(x) <= _INT64_MAX for x in (*lo, *hi))
    dtype = np.int64 if small else object
    strides = np.array([math.prod(spans[i + 1:]) for i in range(len(spans))], dtype=dtype)
    origin = np.array(list(lo), dtype=dtype)
    return lambda rows: ((rows.astype(dtype, copy=False) - origin) * strides).sum(axis=1)


def lex_keys(*blocks: np.ndarray) -> list[np.ndarray]:
    """One scalar key per row of each (k, q) integer block, ordered as the
    rows' tuples: :func:`row_keys` in the blocks' joint bounding box."""
    rows = np.concatenate(blocks)
    key = row_keys(rows.min(axis=0).tolist(), rows.max(axis=0).tolist())
    return [key(b) for b in blocks]


def _batches(blocks: Iterable[np.ndarray]) -> Iterator[list[tuple[np.ndarray, bool]]]:
    """Consecutive pieces of at most _BATCH_ROWS rows of the blocks, grouped
    until a group holds _BATCH_ROWS rows, each with whether it ends its block."""
    batch, count = [], 0
    for block in blocks:
        starts = range(0, max(len(block), 1), _BATCH_ROWS)
        for start in starts:
            piece = block[start:start + _BATCH_ROWS]
            batch.append((piece, start == starts[-1]))
            count += len(piece)
            if count >= _BATCH_ROWS:
                yield batch
                batch, count = [], 0
    if batch:
        yield batch


def point_table(
    blocks: Iterable[np.ndarray], lo: Sequence[int], hi: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows of the (k, q) integer blocks in first-seen order,
    and for each block the indices of its rows in that table.

    Rows are matched by their :func:`row_keys` in the box [lo, hi], which
    must contain every row.  Blocks are drawn lazily, cut into pieces of at
    most _BATCH_ROWS rows, and merged a batch at a time into a sorted union
    of the keys seen so far, so no call keys or sorts 2 * _BATCH_ROWS rows
    or more.  A block's indices are those of its pieces, joined.
    """
    key = row_keys(lo, hi)
    seen: Optional[np.ndarray] = None  # sorted keys of the table rows
    seen_ids = np.empty(0, dtype=np.int64)  # the table row of each
    table: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    pieces: list[np.ndarray] = []  # the indices of the block being cut
    size = 0
    for batch in _batches(blocks):
        pts = np.concatenate([p for p, _ in batch]) if len(batch) > 1 else batch[0][0]
        keys, first, inverse = np.unique(key(pts), return_index=True, return_inverse=True)
        if seen is None:
            seen = keys[:0]
        at = np.searchsorted(seen, keys)
        old = at < len(seen)
        old[old] = seen[at[old]] == keys[old]
        ids = np.empty(len(keys), dtype=np.int64)
        ids[old] = seen_ids[at[old]]
        # new keys are numbered in the order their rows first appear
        new = np.flatnonzero(~old)
        new = new[np.argsort(first[new])]
        ids[new] = np.arange(size, size + len(new))
        table.append(pts[first[new]])
        size += len(new)
        new.sort()
        seen = np.insert(seen, at[new], keys[new])
        seen_ids = np.insert(seen_ids, at[new], ids[new])
        ends = np.cumsum([len(p) for p, _ in batch])
        for (_, last), r in zip(batch, np.split(ids[inverse], ends[:-1])):
            pieces.append(r)
            if last:
                rows.append(np.concatenate(pieces) if len(pieces) > 1 else r)
                pieces = []
    if not table:
        return np.empty((0, len(lo)), dtype=np.int64), rows
    return np.concatenate(table), rows


def window_points(
    windows: Sequence, lead: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`point_table` over the elements of each window in turn.  With
    ``lead = (base, shifts)`` the table first reads the translates
    ``base + s``, one block per row s of ``shifts`` in order, each drawn only
    when the table reaches it, so the translates never exist whole."""
    corners = [w.bounds() for w in windows]
    blocks = (w.element_array() for w in windows)
    if lead is not None:
        base, shifts = lead
        corners.append(((base.min(axis=0) + shifts.min(axis=0)).tolist(),
                        (base.max(axis=0) + shifts.max(axis=0)).tolist()))
        blocks = itertools.chain((base + s for s in shifts), blocks)
    lo = [min(c) for c in zip(*(a for a, _ in corners))]
    hi = [max(c) for c in zip(*(b for _, b in corners))]
    return point_table(blocks, lo, hi)


def table_means(fn: Callable[[np.ndarray], Sequence], windows: Sequence) -> np.ndarray:
    """Mean of a table integrand over each window, dividing by ``w.size``, as
    a float64 array, or complex128 when the values are complex.

    ``fn`` gets the distinct elements of the union of the windows once, as
    the rows of a (T, q) integer table in first-seen order, and returns their
    T values, else ValueError.  Each window's sum is correctly rounded, so
    the means equal those of a fresh per-window evaluation bit for bit.
    """
    points, rows = window_points(windows)
    values = np.asarray(fn(points))
    if values.shape != (len(points),):
        raise ValueError(f"fn returned shape {values.shape}, expected ({len(points)},)")
    mean = fmean_complex if np.iscomplexobj(values) else fmean
    return np.array([mean(values[r], w.size) for w, r in zip(windows, rows)])
