"""Point tables and correctly rounded reductions.

Every window statistic (mixing defects, multi-correlation averages, van der
Corput averages and lag tables, and the densities of windows that are not
boxes) finds the distinct lattice points of its whole schedule with
:func:`point_table` and hands them to its integrand once, as the rows of a
(T, q) integer table in first-seen order.  The integrand returns their T
values, so a backend, a predicate or a sequence decides all the points at
once.  Each window is reduced over that table with correctly rounded sums,
so every result is independent of evaluation order; :func:`table_means` is
the one window reduction.  Its array of per-window means is a curve, which
a report carries as an array next to the int64 window indices ``n``.
Box-window densities, best shifts and witnesses count on one predicate mask
over a bounding box in :mod:`ergodix.folner`.
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
# rows: large enough that a schedule of small windows costs a few numpy calls,
# small enough that a schedule of large ones never holds all its rows at once.
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


def _batches(blocks: Iterable[np.ndarray]) -> Iterator[list[np.ndarray]]:
    """Consecutive blocks grouped until a group holds _BATCH_ROWS rows."""
    batch, count = [], 0
    for block in blocks:
        batch.append(block)
        count += len(block)
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
    must contain every row.  Blocks are drawn lazily and merged a batch at a
    time into a sorted union of the keys seen so far, so a schedule of large
    windows never holds more than one batch of rows besides the table.
    """
    key = row_keys(lo, hi)
    seen: Optional[np.ndarray] = None  # sorted keys of the table rows
    seen_ids = np.empty(0, dtype=np.int64)  # the table row of each
    table: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    size = 0
    for batch in _batches(blocks):
        pts = np.concatenate(batch) if len(batch) > 1 else batch[0]
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
        ends = np.cumsum([len(b) for b in batch])
        rows.extend(np.split(ids[inverse], ends[:-1]))
    if not table:
        return np.empty((0, len(lo)), dtype=np.int64), rows
    return np.concatenate(table), rows


def window_points(
    windows: Sequence, lead: Optional[np.ndarray] = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`point_table` over the elements of each window in turn, after
    the rows of ``lead`` when given."""
    corners = [w.bounds() for w in windows]
    if lead is not None:
        corners.append((lead.min(axis=0).tolist(), lead.max(axis=0).tolist()))
    lo = [min(c) for c in zip(*(a for a, _ in corners))]
    hi = [max(c) for c in zip(*(b for _, b in corners))]
    blocks = (w.element_array() for w in windows)
    if lead is not None:
        blocks = itertools.chain([lead], blocks)
    return point_table(blocks, lo, hi)


def table_means(
    fn: Callable[[np.ndarray], Sequence], windows: Sequence, complex_valued: bool = False
) -> np.ndarray:
    """Mean of a table integrand over each window, dividing by ``w.size``, as
    a float64 (complex128 when ``complex_valued``) array.

    ``fn`` gets the distinct elements of the union of the windows once, as
    the rows of a (T, q) integer table in first-seen order, and returns their
    T values.  Each window's sum is correctly rounded, so the means equal
    those of a fresh per-window evaluation bit for bit.
    """
    points, rows = window_points(windows)
    values = np.asarray(fn(points))
    mean = fmean_complex if complex_valued else fmean
    return np.array([mean(values[r], w.size) for w, r in zip(windows, rows)])

