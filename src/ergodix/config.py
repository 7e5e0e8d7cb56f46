"""JSON experiment configs: strict validation (unknown keys rejected) and
construction of windows, predicates, systems, observables and homomorphism
sets from their serialized descriptions.
"""

from __future__ import annotations

from typing import Optional

from . import folner
from .folner import FolnerWindow, Homomorphism
from .operators import State, matrix_from_json, trace_state
from .systems import (
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


def _num(obj, ctx: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{ctx}: expected a number")
    return float(obj)


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
        return [folner.custom_window(q, obj["elements"])]
    raise ConfigError(f"windows.shape: unknown shape {shape!r}")


def parse_scan(obj: dict, q: int) -> FolnerWindow:
    _require_keys(obj, {"shape", "n"}, {"shape", "n"}, "scan")
    if obj["shape"] != "box":
        raise ConfigError("scan.shape must be 'box'")
    return folner.box_window(q, _int(obj["n"], "scan.n", 1))


def parse_set(obj: dict) -> folner.SetPredicate:
    _require_keys(obj, {"kind", "modulus", "residues", "coeffs", "points",
                        "start", "step"}, {"kind"}, "set")
    kind = obj["kind"]
    if kind == "residue":
        _require_keys(obj, {"kind", "modulus", "residues", "coeffs"},
                      {"kind", "modulus", "residues"}, "set")
        coeffs = tuple(obj["coeffs"]) if "coeffs" in obj else None
        return folner.ResidueClassSet(
            _int(obj["modulus"], "set.modulus", 1),
            tuple(_int(r, "set.residues[]") for r in obj["residues"]),
            coeffs,
        )
    if kind == "finite":
        _require_keys(obj, {"kind", "points"}, {"kind", "points"}, "set")
        pts = frozenset(folner.as_element(p) for p in obj["points"])
        return folner.FiniteSet(pts)
    if kind == "progression":
        _require_keys(obj, {"kind", "start", "step"}, {"kind", "start", "step"}, "set")
        return folner.ProgressionSet(
            folner.as_element(obj["start"]), folner.as_element(obj["step"]))
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
        gens = tuple(matrix_from_json(g) for g in obj["generators"])
        if not gens:
            raise ConfigError("system.generators: need at least one generator")
        state_obj = obj.get("state", {"kind": "trace"})
        _require_keys(state_obj, {"kind", "entries"}, {"kind"}, "system.state")
        if state_obj["kind"] == "trace":
            state = trace_state(gens[0].shape[0])
        elif state_obj["kind"] == "density":
            state = State(matrix_from_json(state_obj["entries"]))
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
        return pauli_observable(obj["sites"], obj["label"], q=sys.q)
    if kind == "matrix":
        _require_keys(obj, {"kind", "entries", "sites"}, {"kind", "entries"},
                      "observable")
        mat = matrix_from_json(obj["entries"])
        if isinstance(sys, QuasiLocalSystem):
            sites = obj.get("sites")
            if sites is None:
                raise ConfigError("matrix observables on a shift system need sites")
            supp = tuple(folner.as_element(s, sys.q) for s in sites)
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
        h = Homomorphism.from_matrix(obj["entries"])
        if h.q != q:
            raise ConfigError("hom.entries: rank does not match the group")
        return h
    raise ConfigError("hom.kind must be 'scalar' or 'matrix'")


def parse_candidates(obj, q: int) -> list:
    if not isinstance(obj, list) or not obj:
        raise ConfigError("candidates: expected a nonempty list")
    return [folner.as_element(c, q) for c in obj]
