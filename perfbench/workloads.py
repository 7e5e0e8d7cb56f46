"""The benchmark's workloads: fixed CLI invocations per workload.

Each workload keeps the config shapes of the acceptance suite's CLI configs
and scales a window size or ``n`` up, so one pass runs for several seconds
and the timings are steady.  Only the ``invariants`` invocation takes the
run seed; every other input is fixed, so the recorded seed-commit artifacts
under ``reference/`` apply to any seed.
"""

from __future__ import annotations

import math

ALPHA = math.sqrt(2.0) - 1.0

def _circulant(first_row: list[float]) -> list[list[list[float]]]:
    """Real circulant matrix in the ``[[re, im], ...]`` config encoding."""
    n = len(first_row)
    return [[[first_row[(c - r) % n], 0.0] for c in range(n)] for r in range(n)]


def _cyclic_mean(dim: int) -> list[list[list[float]]]:
    """(I + (V + V*)/2)/2 for the cyclic shift V: positive, omega = 1/2."""
    row = [0.0] * dim
    row[0] = 0.5
    row[1] += 0.25
    row[-1] += 0.25
    return _circulant(row)


def _box(n_min: int, n_max: int, stride: int = 1) -> dict:
    return {"shape": "box", "n_min": n_min, "n_max": n_max, "stride": stride}


_PROJECTION = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
_CHAIN = {"kind": "shift", "q": 1, "d": 2}
_ROTATION = {"kind": "rotation", "p": 3, "Q": 16}


def _chain() -> list[tuple[str, str, dict]]:
    """Spin chain: quasi-local contraction and window re-evaluation."""
    z0 = {"kind": "pauli", "sites": [0], "label": "Z"}
    zz = {"kind": "pauli", "sites": [0, 1], "label": "ZZ"}
    return [
        ("mix", "mix", {
            "system": _CHAIN,
            "windows": _box(1, 100),
            "observables": {"a": z0, "b": z0},
            "hom": {"kind": "scalar", "m": 1},
            "statistics": ["weak-mixing", "square", "abelianness"],
        }),
        ("higher", "higher", {
            "system": _CHAIN,
            "windows": _box(1, 16),
            "observables": [zz, zz, zz],
            "homs": [{"kind": "scalar", "m": 1}, {"kind": "scalar", "m": 2}],
            "gamma": {"h_max": 6},
        }),
        ("szemeredi", "szemeredi", {
            "system": _CHAIN,
            "observable": {"kind": "matrix", "sites": [0], "entries": _PROJECTION},
            "exponents": [1, 2],
            "windows": _box(1, 100),
        }),
    ]


def _finite() -> list[tuple[str, str, dict]]:
    """Matrix backend with compactness, spectral splitting and operators."""
    return [
        ("mix", "mix", {
            "system": _ROTATION,
            "windows": _box(1, 100),
            "observables": {"a": {"kind": "named", "name": "V*"},
                            "b": {"kind": "named", "name": "V"}},
            "hom": {"kind": "scalar", "m": 1},
            "statistics": ["ergodic-average", "weak-mixing", "abelianness"],
        }),
        ("compact", "compact", {
            "system": _ROTATION,
            "observable": {"kind": "named", "name": "V"},
            "positive_observable": {"kind": "matrix", "entries": _cyclic_mean(16)},
            "epsilon": 0.05,
            "exponents": [1, 2],
            "scan": {"shape": "box", "n": 300},
            "windows": _box(1, 60),
            "candidates": [[c] for c in range(16)],
        }),
        ("split", "split", {"system": {"kind": "clock-shift", "Q": 12}}),
        ("szemeredi", "szemeredi", {
            "system": {"kind": "clock-shift", "Q": 5},
            "observable": {"kind": "matrix", "entries": _cyclic_mean(5)},
            "exponents": [1, 2],
            "windows": _box(1, 12),
        }),
        ("invariants", "invariants", {"scale": 0.5}),
    ]


def _lattice() -> list[tuple[str, str, dict]]:
    """No system backend: the control on which backend changes do nothing."""
    return [
        ("folner", "folner", {
            "group": {"q": 2},
            "windows": _box(1, 80),
            "shifts": [[1, 0], [0, 1], [2, 3]],
            "set": {"kind": "residue", "modulus": 3, "residues": [0], "coeffs": [1, 2]},
            "candidates": [[0, 0], [1, 0], [2, 0]],
        }),
        ("vdc", "vdc", {
            "sequence": {"kind": "weyl-quadratic", "alpha": ALPHA,
                         "vector": [[0.6, 0.0], [0.0, 0.8]]},
            "windows": _box(1000, 8000, 1000),
        }),
        ("vdc_custom", "vdc", {
            "sequence": {"kind": "linear-phase", "alpha": ALPHA},
            "windows": {"shape": "custom", "elements": list(range(-200, 201))},
        }),
    ]


_WORKLOADS = {"chain": _chain, "finite": _finite, "lattice": _lattice}
NAMES = tuple(_WORKLOADS)

# Radius of the custom vdc window; the linear-phase statistic is exactly
# (4n+1)/(2n+1) there, because every lag has |gamma_h| = 1.
VDC_CUSTOM_RADIUS = 200


# Subcommands that take the run seed; their artifacts have no seed-commit
# reference, because they change with the seed.
SEEDED = frozenset({"invariants"})


def invocations(workload: str) -> list[tuple[str, str, dict]]:
    """``(label, subcommand, config)`` for each CLI invocation of a pass.

    Labels are unique within a workload and name the per-subcommand timings.
    """
    return _WORKLOADS[workload]()


def thread_probe() -> dict:
    """The chain ``mix`` inputs with the weak-mixing statistic alone: the
    config on which ``--threads`` is timed against one thread."""
    cfg = dict(_chain()[0][2])
    cfg["statistics"] = ["weak-mixing"]
    return cfg
