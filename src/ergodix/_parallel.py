"""Deterministic evaluation and correctly rounded reductions.

Work items are mapped in order and reduced with correctly rounded sums, so
every result is independent of evaluation order.  Every window statistic
(mixing defects, densities, best shifts, van der Corput averages and lag
tables) evaluates its function through :func:`tabulate`, once per distinct
lattice point of the whole schedule, and reduces each window over that table.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items`` preserving order."""
    return [fn(x) for x in items]


def fsum_complex(values: Iterable[complex]) -> complex:
    """Correctly rounded complex sum (order-independent by exactness)."""
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


def fmean(values: Iterable[float], size: int) -> float:
    return math.fsum(values) / size


def fmean_complex(values: Iterable[complex], size: int) -> complex:
    total = fsum_complex(values)
    return complex(total.real / size, total.imag / size)


def tabulate(fn: Callable[[Hashable], R], points: Iterable[Hashable]) -> dict[Hashable, R]:
    """``fn`` at each distinct point, mapped once in first-seen order."""
    unique = list(dict.fromkeys(points))
    return dict(zip(unique, ordered_map(fn, unique)))


def window_means(
    fn: Callable[[Hashable], R], windows: Sequence, complex_valued: bool = False
) -> list[R]:
    """Mean of ``fn`` over each window, dividing by ``w.size``.

    ``fn`` runs once per distinct element of the union of the windows, in
    first-seen order, instead of once per element of every window.  Each
    window's sum is correctly rounded, so the means equal those of a fresh
    per-window evaluation bit for bit.
    """
    values = tabulate(fn, (g for w in windows for g in w.iter_elements()))
    mean = fmean_complex if complex_valued else fmean
    return [mean([values[g] for g in w.iter_elements()], w.size) for w in windows]
