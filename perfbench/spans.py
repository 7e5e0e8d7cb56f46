"""In-memory span tracer that wraps ergodix's public functions from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces each target
function or method with a timing wrapper and rebinds every reference that an
ergodix module took with ``from ... import`` (module globals and module-level
dict tables such as ``cli._STATS``), so no call slips past a span.

A span is ``(name, start, end, parent)``; spans live in flat arrays until
:meth:`Tracer.summary` folds them into per-name call counts, inclusive time
(outermost calls only, so recursion is not double counted) and self time
(duration minus the time covered by direct children).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name).  Methods are "Class.method";
# several functions may share one span name.
SPAN_TARGETS = (
    ("ergodix.systems", "evaluate", "systems.evaluate"),
    ("ergodix.systems", "commutator_norm", "systems.commutator_norm"),
    ("ergodix.systems", "QuasiLocalSystem.expect_product",
     "systems.QuasiLocalSystem.expect_product"),
    ("ergodix.systems", "QuasiLocalSystem.translate", "systems.QuasiLocalSystem.translate"),
    ("ergodix.systems", "LocalObservable.__init__", "systems.LocalObservable.init"),
    ("ergodix.systems", "FiniteSystem.expect_product", "systems.FiniteSystem.expect_product"),
    ("ergodix.systems", "FiniteSystem.translate", "systems.FiniteSystem.translate"),
    ("ergodix.systems", "FiniteSystem.unitary_for", "systems.FiniteSystem.unitary_for"),
    ("ergodix.mixing", "ergodic_average", "mixing.ergodic_average"),
    ("ergodix.mixing", "weak_mixing_defect", "mixing.weak_mixing_defect"),
    ("ergodix.mixing", "square_defect", "mixing.square_defect"),
    ("ergodix.mixing", "asymptotic_abelianness", "mixing.asymptotic_abelianness"),
    ("ergodix.mixing", "higher_order_defect", "mixing.higher_order_defect"),
    ("ergodix.mixing", "gamma_sequence", "mixing.gamma_sequence"),
    ("ergodix.mixing", "collision_bound", "mixing.collision_bound"),
    ("ergodix.compactness", "return_set", "compactness.return_set"),
    ("ergodix.compactness", "orbit_epsilon_structure", "compactness.orbit_epsilon_structure"),
    ("ergodix.compactness", "szemeredi_average_compact",
     "compactness.szemeredi_average_compact"),
    ("ergodix.compactness", "correlation_lower_bound", "compactness.correlation_lower_bound"),
    ("ergodix.spectral", "koopman_split", "spectral.koopman_split"),
    ("ergodix.spectral", "eigenoperator_factor", "spectral.eigenoperator_factor"),
    ("ergodix.spectral", "dichotomy_classify", "spectral.dichotomy_classify"),
    ("ergodix.spectral", "szemeredi_driver", "spectral.szemeredi_driver"),
    ("ergodix.vdc", "vdc_verdict", "vdc.vdc_verdict"),
    ("ergodix.vdc", "average_vector", "vdc.average_vector"),
    ("ergodix.folner", "lower_density", "folner.lower_density"),
    ("ergodix.folner", "best_shift_for_density", "folner.best_shift_for_density"),
    ("ergodix.folner", "relative_density_witness", "folner.relative_density_witness"),
    ("ergodix.operators", "apply_state", "operators.apply_state"),
    ("ergodix.operators", "omega_norm", "operators.omega_norm"),
    ("ergodix.operators", "operator_norm", "operators.operator_norm"),
    ("ergodix.invariants", "run_all", "invariants.run_all"),
) + tuple(
    ("ergodix.config", fn, "config.parse")
    for fn in ("parse_group", "parse_windows", "parse_scan", "parse_set", "parse_system",
               "parse_observable", "parse_hom", "parse_candidates")
)


class Tracer:
    """Spans and counters of one single-threaded process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._nested = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(args, result)``
        runs once the call returns, to update counters."""
        nid = self._id(name)
        clock = time.perf_counter
        names, parents, nested = self._name, self._parent, self._nested
        starts, ends, stack, active = self._start, self._end, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            nested.append(active[nid] > 0)
            stack.append(idx)
            active[nid] += 1
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self._name[i]]]
            row["calls"] += 1
            if not self._nested[i]:
                row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(original, wrapped) -> None:
    """Point every ergodix module global, and every value of a module-level
    dict, that refers to ``original`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ergodix" or mod_name.startswith("ergodix.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapped


def _replace(module: str, path: str, make) -> bool:
    """Swap the target for ``make(target)``; False when it does not exist."""
    try:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (KeyError, AttributeError):
        return False
    replacement = make(original)
    setattr(owner, attr, replacement)
    if not isinstance(owner, type):
        _rebind(original, replacement)
    return True


def install(tracer: Tracer) -> list[str]:
    """Wrap every target and return those the sources no longer have.

    A missing target reports zero calls instead of stopping the benchmark,
    so a change that renames or deletes a function still gets measured.
    """
    import ergodix.cli  # noqa: F401  (imports every module whose names get rebound)
    import ergodix.invariants  # noqa: F401

    def track_embed(args, result):
        key = "systems.QuasiLocalSystem.embed.max_dim"
        tracer.maxima[key] = max(tracer.maxima[key], int(result.shape[0]))

    def track_bytes(args, result):
        tracer.counters["report.bytes_written"] += Path(args[0]).stat().st_size

    def counted_map(original):
        timed = tracer.wrap("parallel.ordered_map", original)

        @functools.wraps(original)
        def ordered_map(fn, items, *args, **kwargs):
            items = list(items)
            tracer.counters["parallel.ordered_map.items"] += len(items)
            return timed(fn, items, *args, **kwargs)

        return ordered_map

    def counted_call(original):
        # Sequence evaluations are too fine-grained for spans: count them only.
        @functools.wraps(original)
        def call(self, g):
            tracer.counters["vdc.sequence_evals"] += 1
            return original(self, g)

        return call

    replacements = [
        (module, path, lambda fn, name=name: tracer.wrap(name, fn))
        for module, path, name in SPAN_TARGETS
    ] + [
        ("ergodix.systems", "QuasiLocalSystem.embed",
         lambda fn: tracer.wrap("systems.QuasiLocalSystem.embed", fn, track_embed)),
        ("ergodix.report", "write_csv",
         lambda fn: tracer.wrap("report.write_csv", fn, track_bytes)),
        ("ergodix.report", "write_json",
         lambda fn: tracer.wrap("report.write_json", fn, track_bytes)),
        ("ergodix._parallel", "ordered_map", counted_map),
        ("ergodix.vdc", "VectorSequence.__call__", counted_call),
    ]
    return [f"{module}.{path}" for module, path, make in replacements
            if not _replace(module, path, make)]
