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


def _variant(obj, ctx: str, variants: dict, field: str = "kind") -> str:
    """Check ``obj`` against a table of variant -> (required keys, optional
    keys) selected by ``obj[field]``, and return the variant."""
    _require_keys(obj, {field}.union(*(r | o for r, o in variants.values())), {field}, ctx)
    value = obj[field]
    if not isinstance(value, str) or value not in variants:
        raise ConfigError(f"{ctx}.{field}: unknown {field} {value!r}")
    required, optional = variants[value]
    _require_keys(obj, {field} | required | optional, {field} | required, ctx)
    return value


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
    shape = _variant(obj, "windows", {"box": (set(), {"n", "n_min", "n_max", "stride"}),
                                      "custom": ({"elements"}, set())}, "shape")
    if shape == "custom":
        elements = _list(obj["elements"], "windows.elements")
        return [folner.custom_window(q, [_element(e, "windows.elements[]", q) for e in elements])]
    if "n" in obj:  # one box, not a schedule
        _require_keys(obj, {"shape", "n"}, set(), "windows")
        return [folner.box_window(q, _int(obj["n"], "windows.n", 1))]
    n_min = _int(obj.get("n_min", 1), "windows.n_min", 1)
    n_max = _int(obj.get("n_max", n_min), "windows.n_max", n_min)
    stride = _int(obj.get("stride", 1), "windows.stride", 1)
    return folner.box_schedule(q, n_min, n_max, stride)


def parse_scan(obj: dict, q: int) -> FolnerWindow:
    _variant(obj, "scan", {"box": ({"n"}, set())}, "shape")
    return folner.box_window(q, _int(obj["n"], "scan.n", 1))


def parse_set(obj: dict, q: Optional[int] = None) -> folner.SetPredicate:
    """The membership predicate of a set config; finite-set points and a
    progression's start and step must have rank q when it is given."""
    kind = _variant(obj, "set", {"residue": ({"modulus", "residues"}, {"coeffs"}),
                                 "finite": ({"points"}, set()),
                                 "progression": ({"start", "step"}, set()),
                                 "all": (set(), set())})
    if kind == "residue":
        coeffs = (tuple(_int(c, "set.coeffs[]") for c in _list(obj["coeffs"], "set.coeffs"))
                  if "coeffs" in obj else None)
        return folner.ResidueClassSet(
            _int(obj["modulus"], "set.modulus", 1),
            tuple(_int(r, "set.residues[]") for r in _list(obj["residues"], "set.residues")),
            coeffs,
        )
    if kind == "finite":
        pts = frozenset(_element(p, "set.points[]", q) for p in _list(obj["points"], "set.points"))
        return folner.FiniteSet(pts)
    if kind == "progression":
        return folner.ProgressionSet(
            _element(obj["start"], "set.start", q), _element(obj["step"], "set.step", q))
    return folner.FullSet()


def parse_system(obj: dict):
    kind = _variant(obj, "system", {"rotation": ({"p", "Q"}, set()),
                                    "clock-shift": ({"Q"}, {"p"}),
                                    "cyclic": ({"dim"}, set()),
                                    "shift": ({"q", "d"}, set()),
                                    "finite": ({"generators"}, {"state"})})
    if kind == "rotation":
        return rotation_algebra_system(_int(obj["p"], "system.p"),
                                       _int(obj["Q"], "system.Q", 2))
    if kind == "clock-shift":
        return clock_shift_system(_int(obj["Q"], "system.Q", 2),
                                  _int(obj.get("p", 1), "system.p"))
    if kind == "cyclic":
        return cyclic_permutation_system(_int(obj["dim"], "system.dim", 2))
    if kind == "shift":
        return shift_system(_int(obj["q"], "system.q", 1),
                            _int(obj["d"], "system.d", 2))
    gens = tuple(_matrix(g, "system.generators[]")
                 for g in _list(obj["generators"], "system.generators"))
    if not gens:
        raise ConfigError("system.generators: need at least one generator")
    state_obj = obj.get("state", {"kind": "trace"})
    if _variant(state_obj, "system.state", {"trace": (set(), set()),
                                            "density": ({"entries"}, set())}) == "trace":
        state = trace_state(gens[0].shape[0])
    else:
        state = State(_matrix(state_obj["entries"], "system.state.entries"))
    return FiniteSystem(generators=gens, state=state)


_NAMED = {"U", "V", "U*", "V*"}


def parse_observable(obj: dict, sys) -> object:
    kind = _variant(obj, "observable", {"pauli": ({"sites", "label"}, set()),
                                        "matrix": ({"entries"}, {"sites"}),
                                        "named": ({"name"}, set())})
    if kind == "pauli":
        if not isinstance(sys, QuasiLocalSystem):
            raise ConfigError("pauli observables need a shift system")
        if sys.d != 2:
            raise ConfigError("pauli observables need site dimension 2")
        label = obj["label"]
        if not isinstance(label, str) or not set(label.upper()) <= set(PAULI):
            raise ConfigError(f"observable.label: letters must be among {sorted(PAULI)}")
        sites = [_element(s, "observable.sites[]", sys.q)
                 for s in _list(obj["sites"], "observable.sites")]
        return pauli_observable(sites, label, q=sys.q)
    if kind == "matrix":
        mat = _matrix(obj["entries"], "observable.entries")
        if isinstance(sys, QuasiLocalSystem):
            supp = tuple(_element(s, "observable.sites[]", sys.q)
                         for s in _list(obj.get("sites"), "observable.sites"))
            return LocalObservable(supp, mat, sys.d)
        if mat.shape[0] != sys.dim:
            raise ConfigError("observable dimension does not match the system")
        return mat
    name = obj["name"]
    if not isinstance(name, str) or name not in _NAMED:
        raise ConfigError(f"observable.name must be one of {sorted(_NAMED)}")
    if not isinstance(sys, FiniteSystem):
        raise ConfigError("named observables need a finite system")
    dim = sys.dim
    base = clock_matrix(dim) if name.startswith("U") else cyclic_shift_matrix(dim)
    return base.conj().T if name.endswith("*") else base


def parse_hom(obj: dict, q: int) -> Homomorphism:
    kind = _variant(obj, "hom", {"scalar": ({"m"}, set()), "matrix": ({"entries"}, set())})
    if kind == "scalar":
        return Homomorphism.scalar(q, _int(obj["m"], "hom.m"))
    rows = _list(obj["entries"], "hom.entries")
    h = Homomorphism.from_matrix(
        [[_int(x, "hom.entries[][]") for x in _list(row, "hom.entries[]")] for row in rows])
    if h.q != q:
        raise ConfigError("hom.entries: rank does not match the group")
    return h


def parse_candidates(obj, q: int) -> list:
    return [_element(c, "candidates[]", q) for c in _list(obj, "candidates", nonempty=True)]
