"""The lattice Z^q: group elements, integer homomorphisms, Folner windows,
and density machinery.

Group elements are plain tuples of ints (addition componentwise, identity
the zero tuple).  Windows are finite averaging sets; boxes {-n..n}^q carry
closed-form size/overlap formulas so that large-n Tempelman and defect
statistics never enumerate quadratically.  All quantities are exact: counting
measure only, a single float division at the end of each ratio.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ._parallel import window_means

GroupElement = tuple[int, ...]


def as_element(g: Union[int, Sequence[int]], q: Optional[int] = None) -> GroupElement:
    """Coerce an int (for q=1) or an int sequence into a group element."""
    if isinstance(g, int):
        out = (g,)
    else:
        out = tuple(int(x) for x in g)
    if q is not None and len(out) != q:
        raise ValueError(f"group element {out} has rank {len(out)}, expected {q}")
    return out


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    return tuple(a + b for a, b in zip(g, h, strict=True))


def neg(g: GroupElement) -> GroupElement:
    return tuple(-a for a in g)


def scale(m: int, g: GroupElement) -> GroupElement:
    return tuple(m * a for a in g)


def zero(q: int) -> GroupElement:
    return (0,) * q


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism Z^q -> Z^q given by an integer q-by-q matrix.

    Scalars m are admitted as m times the identity.  Application and
    differences are exact integer arithmetic.
    """

    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def scalar(q: int, m: int) -> "Homomorphism":
        rows = tuple(tuple(m if i == j else 0 for j in range(q)) for i in range(q))
        return Homomorphism(rows)

    @staticmethod
    def zero(q: int) -> "Homomorphism":
        return Homomorphism.scalar(q, 0)

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[int]]) -> "Homomorphism":
        mat = tuple(tuple(int(x) for x in row) for row in rows)
        q = len(mat)
        if any(len(row) != q for row in mat):
            raise ValueError("homomorphism matrix must be square")
        return Homomorphism(mat)

    @property
    def q(self) -> int:
        return len(self.matrix)

    def apply(self, g: GroupElement) -> GroupElement:
        if len(g) != self.q:
            raise ValueError(f"element rank {len(g)} != homomorphism rank {self.q}")
        return tuple(sum(r[j] * g[j] for j in range(self.q)) for r in self.matrix)

    def __call__(self, g: GroupElement) -> GroupElement:
        return self.apply(g)

    def __sub__(self, other: "Homomorphism") -> "Homomorphism":
        if self.q != other.q:
            raise ValueError("rank mismatch")
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.matrix, other.matrix)
        )
        return Homomorphism(rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)


@dataclass(frozen=True)
class HomSet:
    """A finite set of nonzero homomorphisms, with a translational-closure check.

    The set is translational when the difference of any two distinct members
    is again a member; that closure is what makes higher-order averaging
    arguments go through, so it is reported rather than enforced.
    """

    homs: tuple[Homomorphism, ...]

    def __post_init__(self) -> None:
        if any(h.is_zero() for h in self.homs):
            raise ValueError("zero homomorphism not allowed in a HomSet")

    @property
    def is_translational(self) -> bool:
        members = set(self.homs)
        for h1 in self.homs:
            for h2 in self.homs:
                if h1 != h2 and (h1 - h2) not in members:
                    return False
        return True


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
    pts = frozenset(
        add(neg(a), b) for a in window.points for b in window.points
    )
    return FolnerWindow(q=window.q, shape="custom", index=window.index,
                        center=zero(window.q), points=pts)


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
    """Base for serializable membership predicates over Z^q."""

    def contains(self, g: GroupElement) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


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

    def contains(self, g: GroupElement) -> bool:
        coeffs = self.coeffs if self.coeffs is not None else (1,) + (0,) * (len(g) - 1)
        val = sum(c * x for c, x in zip(coeffs, g, strict=True))
        return (val % self.modulus) in self._reduced

    def to_json(self) -> dict:
        out = {"kind": "residue", "modulus": self.modulus, "residues": list(self.residues)}
        if self.coeffs is not None:
            out["coeffs"] = list(self.coeffs)
        return out


@dataclass(frozen=True)
class FiniteSet(SetPredicate):
    points: frozenset[GroupElement]

    def contains(self, g: GroupElement) -> bool:
        return g in self.points

    def to_json(self) -> dict:
        return {"kind": "finite", "points": sorted(list(p) for p in self.points)}


@dataclass(frozen=True)
class ProgressionSet(SetPredicate):
    """The arithmetic progression {start + k*step : k in Z}."""

    start: GroupElement
    step: GroupElement

    def __post_init__(self) -> None:
        if all(s == 0 for s in self.step):
            raise ValueError("progression step must be nonzero")

    def contains(self, g: GroupElement) -> bool:
        k = None
        for gi, si, ti in zip(g, self.start, self.step, strict=True):
            d = gi - si
            if ti == 0:
                if d != 0:
                    return False
            else:
                if d % ti != 0:
                    return False
                ki = d // ti
                if k is None:
                    k = ki
                elif ki != k:
                    return False
        return True

    def to_json(self) -> dict:
        return {"kind": "progression", "start": list(self.start), "step": list(self.step)}


@dataclass(frozen=True)
class FullSet(SetPredicate):
    def contains(self, g: GroupElement) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "all"}


Predicate = Union[SetPredicate, Callable[[GroupElement], bool]]


def _as_contains(pred: Predicate) -> Callable[[GroupElement], bool]:
    if isinstance(pred, SetPredicate):
        return pred.contains
    return pred


def _indicator(pred: Predicate) -> Callable[[GroupElement], float]:
    contains = _as_contains(pred)
    return lambda g: 1.0 if contains(g) else 0.0


# --- density machinery -------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    """Per-window intersection ratios and their minimum over the reported
    windows (the finite stand-in for a liminf; callers choose the tail by
    choosing the window schedule)."""

    per_n_ratios: tuple[tuple[int, float], ...]
    lower_density: float


def lower_density(pred: Predicate, windows: Sequence[FolnerWindow]) -> DensityReport:
    if not windows:
        raise ValueError("need at least one window")
    ratios = window_means(_indicator(pred), windows)
    return DensityReport(per_n_ratios=tuple(zip((w.index for w in windows), ratios)),
                         lower_density=min(ratios))


@dataclass(frozen=True)
class RelativeDensityResult:
    accepted: bool
    candidates: tuple[GroupElement, ...]
    failing_point: Optional[GroupElement] = None


def relative_density_witness(
    pred: Predicate,
    scan: FolnerWindow,
    candidates: Sequence[Union[int, Sequence[int]]],
) -> RelativeDensityResult:
    """Check the covering property behind relative denseness on a finite scan:
    every g in the scan must have E intersect {g+g_1,...,g+g_r} nonempty.
    On failure the first failing g (in lexicographic scan order) is reported.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    cands = tuple(as_element(c, scan.q) for c in candidates)
    contains = _as_contains(pred)
    for g in scan.iter_elements():
        if not any(contains(add(g, c)) for c in cands):
            return RelativeDensityResult(False, cands, failing_point=g)
    return RelativeDensityResult(True, cands)


def best_shift_for_density(
    window: FolnerWindow,
    pred: Predicate,
    candidates: Sequence[Union[int, Sequence[int]]],
) -> tuple[GroupElement, float]:
    """Among the candidate shifts, pick the one maximizing |(W+g_j) intersect E|.

    Ties break toward the lowest candidate index.  When the covering property
    holds on the relevant scan, the winning ratio is at least 1/r.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    cands = [as_element(c, window.q) for c in candidates]
    ratios = window_means(_indicator(pred), [shift_window(window, c) for c in cands])
    best = max(range(len(cands)), key=ratios.__getitem__)  # first maximum
    return cands[best], ratios[best]
