"""JSON experiment configs: strict validation (unknown keys rejected) and
construction of windows, predicates, systems, observables and homomorphism
sets from their serialized descriptions.
"""

from __future__ import annotations

import math
from typing import Optional

from . import folner
from .folner import FolnerWindow, Homomorphism
from .operators import State, matrix_from_json, trace_state
from .systems import (
    PAULI,
    FiniteSystem,
    LocalObservable,
    QuasiLocalSystem,
    clock_matrix,
    clock_shift_system,
    cyclic_permutation_system,
    cyclic_shift_matrix,
    pauli_observable,
    rotation_algebra_system,
    shift_system,
)


class ConfigError(ValueError):
    """Raised on schema violations; the CLI maps it to exit code 2."""


def _require_keys(obj: dict, allowed: set[str], required: set[str], ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")


def _int(obj, ctx: str, minimum: Optional[int] = None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ConfigError(f"{ctx}: expected an integer")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{ctx}: must be >= {minimum}")
    return obj


def _num(obj, ctx: str, minimum: Optional[float] = None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{ctx}: expected a number")
    try:
        val = float(obj)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    # json also reads the NaN and Infinity literals
    if not math.isfinite(val):
        raise ConfigError(f"{ctx}: expected a finite number")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{ctx}: must be >= {minimum}")
    return val


def _list(obj, ctx: str, nonempty: bool = False) -> list:
    if not isinstance(obj, list) or (nonempty and not obj):
        raise ConfigError(f"{ctx}: expected a {'nonempty ' if nonempty else ''}list")
    return obj


def _complex(obj, ctx: str) -> complex:
    """A complex number written as an [re, im] pair of numbers."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError(f"{ctx}: expected an [re, im] pair")
    return complex(_num(obj[0], ctx), _num(obj[1], ctx))


def _matrix(obj, ctx: str):
    """A complex matrix written as a list of rows of [re, im] pairs."""
    for row in _list(obj, ctx):
        for x in _list(row, f"{ctx}[]"):
            _complex(x, f"{ctx}[][]")
    return matrix_from_json(obj)


def _element(obj, ctx: str, q: Optional[int] = None) -> folner.GroupElement:
    """A group element written as an integer (q = 1) or a list of integers,
    of rank q when given."""
    coords = [_int(x, ctx) for x in (obj if isinstance(obj, list) else [obj])]
    if q is not None and len(coords) != q:
        raise ConfigError(f"{ctx}: expected rank {q}, got {len(coords)}")
    return folner.as_element(coords)


def parse_group(obj: dict) -> int:
    _require_keys(obj, {"q"}, {"q"}, "group")
    return _int(obj["q"], "group.q", minimum=1)


def parse_windows(obj: dict, q: int) -> list[FolnerWindow]:
    _require_keys(obj, {"shape", "n", "n_min", "n_max", "stride", "elements"},
                  {"shape"}, "windows")
    shape = obj["shape"]
    if shape == "box":
        if "elements" in obj:
            raise ConfigError("windows: box shape does not take elements")
        if "n" in obj:
            return [folner.box_window(q, _int(obj["n"], "windows.n", 1))]
        n_min = _int(obj.get("n_min", 1), "windows.n_min", 1)
        n_max = _int(obj.get("n_max", n_min), "windows.n_max", n_min)
        stride = _int(obj.get("stride", 1), "windows.stride", 1)
        return folner.box_schedule(q, n_min, n_max, stride)
    if shape == "custom":
        if "elements" not in obj:
            raise ConfigError("windows: custom shape needs elements")
        if any(k in obj for k in ("n", "n_min", "n_max", "stride")):
            raise ConfigError("windows: custom shape does not take box bounds")
        elements = _list(obj["elements"], "windows.elements")
        return [folner.custom_window(q, [_element(e, "windows.elements[]") for e in elements])]
    raise ConfigError(f"windows.shape: unknown shape {shape!r}")


def parse_scan(obj: dict, q: int) -> FolnerWindow:
    _require_keys(obj, {"shape", "n"}, {"shape", "n"}, "scan")
    if obj["shape"] != "box":
        raise ConfigError("scan.shape must be 'box'")
    return folner.box_window(q, _int(obj["n"], "scan.n", 1))


def parse_set(obj: dict, q: Optional[int] = None) -> folner.SetPredicate:
    """The membership predicate of a set config; finite-set points must have
    rank q when it is given."""
    _require_keys(obj, {"kind", "modulus", "residues", "coeffs", "points",
                        "start", "step"}, {"kind"}, "set")
    kind = obj["kind"]
    if kind == "residue":
        _require_keys(obj, {"kind", "modulus", "residues", "coeffs"},
                      {"kind", "modulus", "residues"}, "set")
        coeffs = (tuple(_int(c, "set.coeffs[]") for c in _list(obj["coeffs"], "set.coeffs"))
                  if "coeffs" in obj else None)
        return folner.ResidueClassSet(
            _int(obj["modulus"], "set.modulus", 1),
            tuple(_int(r, "set.residues[]") for r in _list(obj["residues"], "set.residues")),
            coeffs,
        )
    if kind == "finite":
        _require_keys(obj, {"kind", "points"}, {"kind", "points"}, "set")
        pts = frozenset(_element(p, "set.points[]", q) for p in _list(obj["points"], "set.points"))
        return folner.FiniteSet(pts)
    if kind == "progression":
        _require_keys(obj, {"kind", "start", "step"}, {"kind", "start", "step"}, "set")
        return folner.ProgressionSet(
            _element(obj["start"], "set.start"), _element(obj["step"], "set.step"))
    if kind == "all":
        _require_keys(obj, {"kind"}, {"kind"}, "set")
        return folner.FullSet()
    raise ConfigError(f"set.kind: unknown kind {kind!r}")


def parse_system(obj: dict):
    _require_keys(obj, {"kind", "p", "Q", "q", "d", "dim", "generators", "state"},
                  {"kind"}, "system")
    kind = obj["kind"]
    if kind == "rotation":
        _require_keys(obj, {"kind", "p", "Q"}, {"kind", "p", "Q"}, "system")
        return rotation_algebra_system(_int(obj["p"], "system.p"),
                                       _int(obj["Q"], "system.Q", 2))
    if kind == "clock-shift":
        _require_keys(obj, {"kind", "p", "Q"}, {"kind", "Q"}, "system")
        return clock_shift_system(_int(obj["Q"], "system.Q", 2),
                                  _int(obj.get("p", 1), "system.p"))
    if kind == "cyclic":
        _require_keys(obj, {"kind", "dim"}, {"kind", "dim"}, "system")
        return cyclic_permutation_system(_int(obj["dim"], "system.dim", 2))
    if kind == "shift":
        _require_keys(obj, {"kind", "q", "d"}, {"kind", "q", "d"}, "system")
        return shift_system(_int(obj["q"], "system.q", 1),
                            _int(obj["d"], "system.d", 2))
    if kind == "finite":
        _require_keys(obj, {"kind", "generators", "state"},
                      {"kind", "generators"}, "system")
        gens = tuple(_matrix(g, "system.generators[]")
                     for g in _list(obj["generators"], "system.generators"))
        if not gens:
            raise ConfigError("system.generators: need at least one generator")
        state_obj = obj.get("state", {"kind": "trace"})
        _require_keys(state_obj, {"kind", "entries"}, {"kind"}, "system.state")
        if state_obj["kind"] == "trace":
            state = trace_state(gens[0].shape[0])
        elif state_obj["kind"] == "density":
            _require_keys(state_obj, {"kind", "entries"}, {"kind", "entries"}, "system.state")
            state = State(_matrix(state_obj["entries"], "system.state.entries"))
        else:
            raise ConfigError("system.state.kind must be 'trace' or 'density'")
        return FiniteSystem(generators=gens, state=state)
    raise ConfigError(f"system.kind: unknown kind {kind!r}")


_NAMED = {"U", "V", "U*", "V*"}


def parse_observable(obj: dict, sys) -> object:
    _require_keys(obj, {"kind", "sites", "label", "entries", "name"},
                  {"kind"}, "observable")
    kind = obj["kind"]
    if kind == "pauli":
        if not isinstance(sys, QuasiLocalSystem):
            raise ConfigError("pauli observables need a shift system")
        if sys.d != 2:
            raise ConfigError("pauli observables need site dimension 2")
        _require_keys(obj, {"kind", "sites", "label"}, {"kind", "sites", "label"},
                      "observable")
        label = obj["label"]
        if not isinstance(label, str) or not set(label.upper()) <= set(PAULI):
            raise ConfigError(f"observable.label: letters must be among {sorted(PAULI)}")
        sites = [_element(s, "observable.sites[]", sys.q)
                 for s in _list(obj["sites"], "observable.sites")]
        return pauli_observable(sites, label, q=sys.q)
    if kind == "matrix":
        _require_keys(obj, {"kind", "entries", "sites"}, {"kind", "entries"},
                      "observable")
        mat = _matrix(obj["entries"], "observable.entries")
        if isinstance(sys, QuasiLocalSystem):
            supp = tuple(_element(s, "observable.sites[]", sys.q)
                         for s in _list(obj.get("sites"), "observable.sites"))
            return LocalObservable(supp, mat, sys.d)
        if mat.shape[0] != sys.dim:
            raise ConfigError("observable dimension does not match the system")
        return mat
    if kind == "named":
        _require_keys(obj, {"kind", "name"}, {"kind", "name"}, "observable")
        name = obj["name"]
        if name not in _NAMED:
            raise ConfigError(f"observable.name must be one of {sorted(_NAMED)}")
        if not isinstance(sys, FiniteSystem):
            raise ConfigError("named observables need a finite system")
        dim = sys.dim
        base = clock_matrix(dim) if name.startswith("U") else cyclic_shift_matrix(dim)
        return base.conj().T if name.endswith("*") else base
    raise ConfigError(f"observable.kind: unknown kind {kind!r}")


def parse_hom(obj: dict, q: int) -> Homomorphism:
    _require_keys(obj, {"kind", "m", "entries"}, {"kind"}, "hom")
    if obj["kind"] == "scalar":
        _require_keys(obj, {"kind", "m"}, {"kind", "m"}, "hom")
        return Homomorphism.scalar(q, _int(obj["m"], "hom.m"))
    if obj["kind"] == "matrix":
        _require_keys(obj, {"kind", "entries"}, {"kind", "entries"}, "hom")
        rows = _list(obj["entries"], "hom.entries")
        h = Homomorphism.from_matrix(
            [[_int(x, "hom.entries[][]") for x in _list(row, "hom.entries[]")] for row in rows])
        if h.q != q:
            raise ConfigError("hom.entries: rank does not match the group")
        return h
    raise ConfigError("hom.kind must be 'scalar' or 'matrix'")


def parse_candidates(obj, q: int) -> list:
    return [_element(c, "candidates[]", q) for c in _list(obj, "candidates", nonempty=True)]
