import copy
import dataclasses
import json
import os
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import ergodix
from ergodix import _parallel, folner, invariants, mixing, operators, spectral, systems, vdc
from ergodix.cli import _STATS, main
from ergodix.invariants import ALL_CHECKS, _trials, run_all
from ergodix.operators import as_matrix
from ergodix.systems import cyclic_shift_matrix


def matrix_to_json(a: np.ndarray) -> list:
    """Nested [re, im] pairs, the config encoding of a complex matrix; floats
    round-trip bit-exactly through JSON."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in as_matrix(a)]


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


FOLNER_CFG = {
    "group": {"q": 1},
    "windows": {"shape": "box", "n_min": 1, "n_max": 20},
    "shifts": [[1]],
    "set": {"kind": "residue", "modulus": 3, "residues": [0]},
    "candidates": [[0], [1], [2]],
}

MIX_CFG = {
    "system": {"kind": "shift", "q": 1, "d": 2},
    "windows": {"shape": "box", "n_min": 1, "n_max": 15},
    "observables": {"a": {"kind": "pauli", "sites": [0], "label": "Z"},
                    "b": {"kind": "pauli", "sites": [0], "label": "Z"}},
    "hom": {"kind": "scalar", "m": 1},
    "statistics": ["weak-mixing", "square", "abelianness", "ergodic-average"],
}

HIGHER_CFG = {
    "system": {"kind": "shift", "q": 1, "d": 2},
    "windows": {"shape": "box", "n_min": 1, "n_max": 4},
    "observables": [{"kind": "pauli", "sites": [0], "label": "Z"}] * 3,
    "homs": [{"kind": "scalar", "m": 1}, {"kind": "scalar", "m": 2}],
}

VDC_CFG = {
    "sequence": {"kind": "linear-phase", "alpha": 0.25},
    "windows": {"shape": "box", "n_min": 1, "n_max": 4},
}

COMPACT_CFG = {
    "system": {"kind": "rotation", "p": 1, "Q": 5},
    "observable": {"kind": "named", "name": "V"},
    "epsilon": 0.1,
    "exponents": [1],
    "scan": {"shape": "box", "n": 5},
}


class TestExitCodes:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"system": {"kind": "shift", "q": 1, "d": 2},
                                             "mystery": 1})
        assert main(["split", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path):
        bad = dict(FOLNER_CFG)
        bad["windows"] = {"shape": "box", "n_min": 1, "n_max": 5, "hue": 3}
        cfg = write_cfg(tmp_path, "c.json", bad)
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"group": {"q": 1}})
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["split", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_invariants_need_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"scale": 0.05})
        assert main(["invariants", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_success_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", FOLNER_CFG)
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, tmp_path, capsys, threads):
        cfg = write_cfg(tmp_path, "c.json", FOLNER_CFG)
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"scale": 0.05})
        assert main(["invariants", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_is_input_error(self, tmp_path, capsys, out):
        # --out names an existing file, or a path under one
        (tmp_path / "file").write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path, "c.json", FOLNER_CFG)
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --out {tmp_path / out}: ")

    def test_exit_2_removes_the_out_directories_it_made(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {**FOLNER_CFG, "unknown": 1})
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / "a/b/c")]) == 2
        assert not (tmp_path / "a").exists()
        # a directory that was there before the run stays
        (tmp_path / "kept").mkdir()
        assert main(["folner", "--config", cfg, "--out", str(tmp_path / "kept/c")]) == 2
        assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json", tmp_path / "kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_exit_2_after_a_write_keeps_the_file(self, tmp_path, monkeypatch, capsys):
        # an invalid system found after the first CSV: the directory holding
        # it is not empty, so it and its parents stay
        def broken(*args, **kwargs):
            raise ValueError("broken statistic")

        monkeypatch.setitem(_STATS, "square", broken)
        cfg = write_cfg(tmp_path, "c.json", {**MIX_CFG, "statistics": ["weak-mixing", "square"]})
        out = tmp_path / "a" / "b"
        assert main(["mix", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: broken statistic\n"
        assert [p.name for p in out.iterdir()] == ["mix_weak_mixing.csv"]

    @pytest.mark.parametrize("command,cfg,message", [
        ("split", {"system": {"kind": "finite",
                              "generators": [matrix_to_json(np.diag([2.0, 1.0]))]}},
         "generator 0 is not unitary"),
        ("szemeredi", {"system": {"kind": "shift", "q": 1, "d": 2},
                       "observable": {"kind": "pauli", "sites": [0], "label": "Z"},
                       "exponents": [1, 2],
                       "windows": {"shape": "box", "n_min": 1, "n_max": 4}},
         "omega(a) must be positive"),
        ("szemeredi", {"system": {"kind": "clock-shift", "Q": 5},
                       "observable": {"kind": "matrix",
                                      "entries": matrix_to_json(np.zeros((5, 5)))},
                       "exponents": [1, 2],
                       "windows": {"shape": "box", "n_min": 1, "n_max": 4}},
         "observable must be nonzero"),
    ])
    def test_invalid_system_is_input_error(self, tmp_path, capsys, command, cfg, message):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command,cfg,message", [
        ("compact", {"system": {"kind": "rotation", "p": 1, "Q": 5},
                     "observable": {"kind": "named", "name": "V"},
                     "epsilon": 0.1, "exponents": [], "scan": {"shape": "box", "n": 5}},
         "exponents: expected a nonempty list"),
        ("mix", {**MIX_CFG, "observables": {"a": {"kind": "pauli", "sites": [0], "label": "Q"},
                                            "b": {"kind": "pauli", "sites": [0], "label": "Z"}}},
         "observable.label: letters must be among ['I', 'X', 'Y', 'Z']"),
        ("folner", {**FOLNER_CFG, "set": {"kind": "residue", "modulus": 3, "residues": [0],
                                          "coeffs": ["x"]}},
         "set.coeffs[]: expected an integer"),
        ("folner", {**FOLNER_CFG, "windows": {"shape": "custom", "elements": [None]}},
         "windows.elements[]: expected an integer"),
        ("invariants", {"seed": 1, "scale": -1}, "scale: must be >= 0"),
        ("folner", {**FOLNER_CFG, "shifts": [None]}, "shifts[]: expected an integer"),
        ("folner", {**FOLNER_CFG, "set": {"kind": "finite", "points": 5}},
         "set.points: expected a list"),
        ("mix", {**MIX_CFG, "observables": {"a": {"kind": "pauli", "sites": [[0.5]], "label": "Z"},
                                            "b": {"kind": "pauli", "sites": [0], "label": "Z"}}},
         "observable.sites[]: expected an integer"),
        ("mix", {**MIX_CFG, "statistics": 5}, "statistics: expected a list"),
        ("higher", {**HIGHER_CFG, "homs": 5}, "homs: expected a list"),
        ("higher", {**HIGHER_CFG, "observables": 5}, "observables: expected a list"),
        ("vdc", {**VDC_CFG, "sequence": {"kind": "constant", "vector": 5}},
         "sequence.vector: expected a nonempty list"),
        ("vdc", {**VDC_CFG, "sequence": {"kind": "constant", "vector": [[1, "a"]]}},
         "sequence.vector[]: expected a number"),
        ("vdc", {**VDC_CFG, "sequence": {"kind": "constant", "vector": []}},
         "sequence.vector: expected a nonempty list"),
        ("split", {"system": {"kind": "finite", "generators": 5}},
         "system.generators: expected a list"),
        ("mix", {**MIX_CFG, "observables": {"a": {"kind": "matrix", "entries": 5},
                                            "b": {"kind": "pauli", "sites": [0], "label": "Z"}}},
         "observable.entries: expected a list"),
        ("mix", {**MIX_CFG, "hom": {"kind": "matrix", "entries": [[1.5]]}},
         "hom.entries[][]: expected an integer"),
        ("mix", {**MIX_CFG, "hom": {"kind": "matrix", "entries": [[True]]}},
         "hom.entries[][]: expected an integer"),
        ("split", {"system": {"kind": "finite", "generators": [[[[1, 0]]]],
                              "state": {"kind": "density"}}},
         "system.state: missing keys ['entries']"),
        ("vdc", {**VDC_CFG, "threshold": float("nan")}, "threshold: expected a finite number"),
        ("mix", {**MIX_CFG, "threshold": float("inf")}, "threshold: expected a finite number"),
        ("folner", {**FOLNER_CFG, "set": {"kind": "finite", "points": [[1, 2]]}},
         "set.points[]: expected rank 1, got 2"),
        ("mix", {**MIX_CFG, "system": {"kind": "rotation", "p": 1, "Q": 3},
                 "observables": {"a": {"kind": "named", "name": ["U"]},
                                 "b": {"kind": "named", "name": "V"}}},
         "observable.name must be one of ['U', 'U*', 'V', 'V*']"),
        ("compact", {"system": {"kind": "rotation", "p": 1, "Q": 5},
                     "observable": {"kind": "named", "name": {}},
                     "epsilon": 0.1, "exponents": [1], "scan": {"shape": "box", "n": 5}},
         "observable.name must be one of ['U', 'U*', 'V', 'V*']"),
        ("invariants", {"seed": [1]}, "seed: expected an integer"),
        ("invariants", {"seed": {}}, "seed: expected an integer"),
        ("invariants", {"seed": 1.5}, "seed: expected an integer"),
        ("invariants", {"seed": True}, "seed: expected an integer"),
        ("invariants", {"seed": "x"}, "seed: expected an integer"),
        ("invariants", {"seed": -1}, "seed: must be >= 0"),
        ("folner", {**FOLNER_CFG, "seed": "x"}, "seed: expected an integer"),
        ("split", {"system": {"kind": "clock-shift", "Q": 3}, "seed": [1]},
         "seed: expected an integer"),
        # the chain's dichotomy branch is szemeredi's weakly-mixing one
        *[("split", {"system": {"kind": "shift", "q": q, "d": 2}},
           "split needs a finite system; a shift system takes szemeredi's "
           "weakly-mixing branch") for q in (1, 2)],
        # keys that one variant takes and another ignored
        ("folner", {**FOLNER_CFG, "windows": {"shape": "box", "n": 2, "n_min": "x"}},
         "windows: unknown keys ['n_min']"),
        ("vdc", {**VDC_CFG, "sequence": {"kind": "constant", "alpha": "x"}},
         "sequence: unknown keys ['alpha']"),
        ("split", {"system": {"kind": "finite", "generators": [[[[1, 0]]]],
                              "state": {"kind": "trace", "entries": "junk"}}},
         "system.state: unknown keys ['entries']"),
        # optional keys that are only read together with another
        ("folner", {"group": {"q": 1}, "windows": {"shape": "box", "n": 2},
                    "candidates": "junk"},
         "candidates: only read together with set"),
        ("compact", {**COMPACT_CFG, "windows": "junk"},
         "windows: only read together with candidates"),
        ("compact", {**COMPACT_CFG, "candidates": [[0], "x"]},
         "candidates: only read together with windows"),
        # group elements of the wrong rank, named by their key
        ("folner", {**FOLNER_CFG, "set": {"kind": "progression", "start": [0, 0], "step": [2]}},
         "set.start: expected rank 1, got 2"),
        ("folner", {**FOLNER_CFG, "group": {"q": 2},
                    "windows": {"shape": "box", "n_min": 1, "n_max": 3}, "shifts": [[1, 0]],
                    "set": {"kind": "progression", "start": [0], "step": [2, 1]},
                    "candidates": [[0, 0], [1, 0]]},
         "set.start: expected rank 2, got 1"),
        ("folner", {**FOLNER_CFG, "set": {"kind": "progression", "start": [0], "step": [2, 1]}},
         "set.step: expected rank 1, got 2"),
        ("folner", {**FOLNER_CFG, "windows": {"shape": "custom", "elements": [0, [1, 2]]}},
         "windows.elements[]: expected rank 1, got 2"),
    ])
    def test_invalid_value_is_input_error(self, tmp_path, capsys, command, cfg, message):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_stale_failures_removed(self, tmp_path):
        # the projection onto one of four cyclically permuted points: the
        # absolute defect stays near 0.1 while its square falls under 0.05
        proj = matrix_to_json(np.diag([1.0, 0.0, 0.0, 0.0]))
        failing = write_cfg(tmp_path, "fail.json", {
            "system": {"kind": "cyclic", "dim": 4},
            "windows": {"shape": "box", "n_min": 1, "n_max": 12},
            "observables": {"a": {"kind": "matrix", "entries": proj},
                            "b": {"kind": "matrix", "entries": proj}},
            "hom": {"kind": "scalar", "m": 1},
            "threshold": 0.05,
            "statistics": ["weak-mixing", "square"],
        })
        out = tmp_path / "o"
        assert main(["mix", "--config", failing, "--out", str(out)]) == 1
        assert (out / "failures.json").exists()
        passing = write_cfg(tmp_path, "pass.json", MIX_CFG)
        assert main(["mix", "--config", passing, "--out", str(out)]) == 0
        assert not (out / "failures.json").exists()


# One small valid config per subcommand (mix on both backends), between them
# reaching every parser.  The sweep drops each key and replaces each leaf in
# turn with every hostile value; sizes are never dropped (a default may be
# larger) or enlarged, so no mutant runs long.
SWEEP_BASES = {
    "folner": ("folner", {
        "group": {"q": 1},
        "windows": {"shape": "box", "n_min": 1, "n_max": 2, "stride": 1},
        "shifts": [[1]],
        "set": {"kind": "residue", "modulus": 2, "residues": [0], "coeffs": [1]},
        "candidates": [[0], [1]]}),
    "mix-chain": ("mix", {
        "system": {"kind": "shift", "q": 1, "d": 2},
        "windows": {"shape": "box", "n": 1},
        "observables": {"a": {"kind": "pauli", "sites": [0], "label": "Z"},
                        "b": {"kind": "pauli", "sites": [[0]], "label": "X"}},
        "hom": {"kind": "matrix", "entries": [[1]]},
        "statistics": ["square"],
        "threshold": 0.5}),
    "mix-finite": ("mix", {
        "system": {"kind": "clock-shift", "Q": 2, "p": 1},
        "windows": {"shape": "box", "n": 1},
        "observables": {"a": {"kind": "named", "name": "U"},
                        "b": {"kind": "named", "name": "V*"}},
        "hom": {"kind": "scalar", "m": 1},
        "statistics": ["ergodic-average"]}),
    "higher": ("higher", {
        "system": {"kind": "rotation", "p": 1, "Q": 2},
        "windows": {"shape": "box", "n": 1},
        "observables": [{"kind": "named", "name": "U"}] * 3,
        "homs": [{"kind": "scalar", "m": 1}, {"kind": "scalar", "m": 2}],
        "threshold": 0.5,
        "gamma": {"h_max": 1}}),
    "vdc": ("vdc", {
        "sequence": {"kind": "weyl-quadratic", "alpha": 0.25, "vector": [[1.0, 0.0]]},
        "windows": {"shape": "custom", "elements": [0, 1]},
        "h_max": 1,
        "threshold": 0.5}),
    "compact": ("compact", {
        "system": {"kind": "cyclic", "dim": 2},
        "observable": {"kind": "named", "name": "V"},
        "epsilon": 0.1,
        "exponents": [1],
        "scan": {"shape": "box", "n": 1}}),
    "split": ("split", {
        "system": {"kind": "finite", "generators": [[[[1.0, 0.0]]]],
                   "state": {"kind": "density", "entries": [[[1.0, 0.0]]]}},
        "seed": 0}),
    "szemeredi": ("szemeredi", {
        "system": {"kind": "shift", "q": 1, "d": 2},
        "observable": {"kind": "matrix", "sites": [0],
                       "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        "exponents": [1],
        "windows": {"shape": "box", "n": 1},
        "candidates": [[0]]}),
    "invariants": ("invariants", {"seed": 1, "scale": 0.01}),
}
HOSTILE = (None, "x", [], {}, True, 1.5, -1, float("nan"))
SIZES = {"n", "Q", "dim", "scale"}
DROP = object()


def mutations(node, path=()):
    """(path, value) for every key to drop and every leaf to replace under
    ``node``, in a fixed order; ``value`` is DROP for a dropped key."""
    if not isinstance(node, (dict, list)):
        for value in HOSTILE:
            if not (path[-1] in SIZES and isinstance(value, (int, float)) and value > node):
                yield path, value
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(node, dict) and key not in SIZES:
            yield path + (key,), DROP
        yield from mutations(child, path + (key,))


def mutated(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    *outer, last = path
    node = cfg
    for key in outer:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return cfg


def contract_breach(command, path, out, capsys) -> str:
    """Run one config into a fresh --out and say how the exit broke the
    contract (exit 0, 1 or 2, no traceback, at most one error: line, no
    --out left behind on exit 2); empty when it kept it."""
    try:
        code = main([command, "--config", str(path), "--out", str(out)])
    except Exception as exc:  # an escaped exception is a traceback
        code = repr(exc)
    err = capsys.readouterr().err
    left = code == 2 and out.exists()
    if (code not in (0, 1, 2) or "Traceback" in err or left
            or sum("error:" in line for line in err.splitlines()) > 1):
        return f"{code} {err!r} out left: {left}"
    return ""


# every system kind, each small, for the configs that take a system
BACKENDS = {
    "shift-q1": {"kind": "shift", "q": 1, "d": 2},
    "shift-q2": {"kind": "shift", "q": 2, "d": 2},
    "rotation": {"kind": "rotation", "p": 1, "Q": 2},
    "clock-shift": {"kind": "clock-shift", "Q": 2},
    "cyclic": {"kind": "cyclic", "dim": 2},
    "finite-1x1": {"kind": "finite", "generators": [[[[1.0, 0.0]]]]},
}


class TestMutationSweep:
    @pytest.mark.parametrize("base", SWEEP_BASES)
    def test_every_mutant_keeps_the_exit_code_contract(self, tmp_path, capsys, base):
        """Each mutant runs into a fresh --out; one that exits 2 must not
        leave it behind."""
        command, cfg = SWEEP_BASES[base]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        broken = []
        for i, (where, value) in enumerate(mutations(cfg)):
            path.write_text(json.dumps(mutated(cfg, where, value)), encoding="utf-8")
            breach = contract_breach(command, path, tmp_path / f"o{i}", capsys)
            if breach:
                label = "drop" if value is DROP else repr(value)
                broken.append(f"{'.'.join(map(str, where))} <- {label}: {breach}")
        assert not broken, "\n".join(broken)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("base", [b for b, (_, cfg) in SWEEP_BASES.items()
                                      if "system" in cfg])
    def test_every_backend_keeps_the_exit_code_contract(self, tmp_path, capsys, base,
                                                        backend):
        """The base config with its system swapped for another kind; the
        observables and windows may then not fit, which is an input error."""
        command, cfg = SWEEP_BASES[base]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "system": BACKENDS[backend]}), encoding="utf-8")
        breach = contract_breach(command, path, tmp_path / "o", capsys)
        assert not breach, breach


class TestFolnerCommand:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", FOLNER_CFG)
        out = tmp_path / "o"
        assert main(["folner", "--config", cfg, "--out", str(out)]) == 0
        csv_lines = (out / "folner.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "n,window_size,tempelman_ratio,defect_1"
        for line in csv_lines[1:]:
            n_str, size, ratio, defect = line.split(",")
            n = int(n_str)
            assert int(size) == 2 * n + 1
            assert float(ratio) == (4 * n + 1) / (2 * n + 1)
            assert float(defect) == 2 / (2 * n + 1)
        rep = read_json(out / "folner.json")
        assert rep["schema"] == "ergodix/1"
        assert rep["witness"]["accepted"] is True
        assert rep["witness"]["best_ratio"] >= 1 / 3

    def test_box_densities_build_no_point_table(self, tmp_path, monkeypatch):
        """Densities, the best shift and the witness on nested q = 2 boxes
        count on one summed-area grid each; none gathers a point table."""
        built = []
        real = _parallel.point_table

        def counting(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(_parallel, "point_table", counting)
        monkeypatch.setattr(folner, "point_table", counting)
        cfg = write_cfg(tmp_path, "c.json", {
            "group": {"q": 2},
            "windows": {"shape": "box", "n_min": 1, "n_max": 80, "stride": 1},
            "shifts": [[1, 0], [0, 1], [2, 3]],
            "set": {"kind": "residue", "modulus": 3, "residues": [0], "coeffs": [1, 2]},
            "candidates": [[0, 0], [1, 0], [2, 0]],
        })
        out = tmp_path / "o"
        assert main(["folner", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out / "folner.json")["witness"]["accepted"] is True
        assert built == []

    def test_custom_window_may_exceed_the_box_bound(self, tmp_path, capsys):
        # |W^-1 W| / |W| = 7/3 > 2^1 on {0, 1, 3}: the bound is a law of
        # boxes only, so no check fails
        cfg = write_cfg(tmp_path, "c.json", {
            "group": {"q": 1}, "windows": {"shape": "custom", "elements": [0, 1, 3]}})
        out = tmp_path / "o"
        assert main(["folner", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rep = read_json(out / "folner.json")
        assert rep["tempelman_max"] == 7 / 3 and rep["tempelman_bound"] == 2
        assert not (out / "failures.json").exists()


class TestMixCommand:
    def test_exact_defect_column(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", MIX_CFG)
        out = tmp_path / "o"
        assert main(["mix", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "mix_weak_mixing.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            n, size, value = line.split(",")
            assert float(value) == 1 / (2 * int(n) + 1)
        rep = read_json(out / "mix.json")
        assert rep["statistics"]["weak-mixing"]["verdict"] == \
            rep["statistics"]["square"]["verdict"]

    def test_huge_homomorphism_multiplier(self, tmp_path):
        # Every m*g is a multiple of Q = 5, so tau fixes V and the defect is
        # exactly 1; the gap left is the clock phase's own rounding.
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "rotation", "p": 1, "Q": 5},
            "windows": {"shape": "box", "n_min": 1, "n_max": 3},
            "observables": {"a": {"kind": "named", "name": "V*"},
                            "b": {"kind": "named", "name": "V"}},
            "hom": {"kind": "scalar", "m": 10**10},
        })
        out = tmp_path / "o"
        assert main(["mix", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "mix_weak_mixing.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            assert abs(float(line.split(",")[2]) - 1.0) < 1e-5


class TestVdcCommand:
    def test_weyl_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "sequence": {"kind": "weyl-quadratic", "alpha": 0.41421356237309515,
                         "vector": [[1.0, 0.0]]},
            "windows": {"shape": "box", "n_min": 100, "n_max": 400, "stride": 100},
        })
        out = tmp_path / "o"
        assert main(["vdc", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "vdc.json")
        assert rep["verdict"]["hypothesis_satisfied"] is True
        assert rep["gamma_window_index"] == 400
        assert rep["gamma_statistic"][-1][1] < 0.05

    def test_huge_h_max_reads_the_difference_set(self, tmp_path):
        # lags beyond 2n are not in W^-1 W, so h_max = 10^9 on the n = 10 box
        # tabulates the 41 lags of the box, not a 2 * 10^9-row support
        cfg = write_cfg(tmp_path, "c.json", {
            "sequence": {"kind": "weyl-quadratic", "alpha": 0.41421356237309515,
                         "vector": [[1.0, 0.0]]},
            "windows": {"shape": "box", "n_min": 10, "n_max": 10},
            "h_max": 10 ** 9,
        })
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["vdc", "--config", cfg, "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        gamma = read_json(out / "vdc.json")["gamma"]
        assert [h for h, _, _ in gamma] == [[h] for h in range(-20, 21)]

    @pytest.mark.parametrize("sequence,windows,at", [
        ({"kind": "linear-phase", "alpha": 1e308},
         {"shape": "box", "n_min": 1, "n_max": 3}, "(-9,)"),
        ({"kind": "weyl-quadratic", "alpha": 1e305},
         {"shape": "box", "n_min": 100, "n_max": 200}, "(-600,)"),
    ])
    def test_non_finite_values_are_input_errors(self, tmp_path, capsys, sequence, windows, at):
        cfg = write_cfg(tmp_path, "c.json", {"sequence": sequence, "windows": windows})
        out = tmp_path / "o"
        assert main(["vdc", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: declared bound 1.0 violated at {at}: |f(g)| = nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["constant", "linear-phase", "weyl-quadratic"])
    def test_non_finite_bound_is_input_error(self, tmp_path, capsys, kind):
        # |v| = 1e200 overflows float64 when the norm squares it; an infinite
        # bound would pass every value
        cfg = write_cfg(tmp_path, "c.json", {
            "sequence": {"kind": kind, "vector": [[1e200, 0.0]]},
            "windows": {"shape": "box", "n_min": 1, "n_max": 3}})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["vdc", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: declared bound inf is not finite\n"
        assert not out.exists()


class TestHigherCommand:
    def test_matrix_homomorphism_on_plane(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "shift", "q": 2, "d": 2},
            "windows": {"shape": "box", "n_min": 1, "n_max": 4},
            "observables": [{"kind": "pauli", "sites": [[0, 0]], "label": "Z"}] * 3,
            "homs": [{"kind": "scalar", "m": 1},
                     {"kind": "matrix", "entries": [[1, 1], [0, 1]]}],
        })
        out = tmp_path / "o"
        assert main(["higher", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "higher.csv").read_text().strip().splitlines()[1:]
        # sign observables cancel on the collision line, so the defect is 0
        for line in lines:
            assert float(line.split(",")[2]) == 0.0

    @pytest.mark.parametrize("gamma, lags", [({}, ["-10", "-5", "0", "5", "10"]),
                                             ({"h_max": 5}, ["-5", "0", "5"])])
    def test_gamma_lags_of_a_custom_window(self, tmp_path, gamma, lags):
        # W^-1 W of {-5, 0, 5} is {-10, -5, 0, 5, 10}, whatever the window's index
        cfg = write_cfg(tmp_path, "c.json", {
            **HIGHER_CFG, "windows": {"shape": "custom", "elements": [-5, 0, 5]},
            "gamma": gamma})
        out = tmp_path / "o"
        assert main(["higher", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "higher_gamma.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == lags

    @pytest.mark.parametrize("k", [1, 2])
    def test_homs_translational_only_for_a_singleton(self, tmp_path, k):
        # distinct nonzero integer homomorphisms are never closed under
        # differences, so only k = 1 is (vacuously) translational
        cfg = write_cfg(tmp_path, "c.json", {
            **HIGHER_CFG, "observables": HIGHER_CFG["observables"][:k + 1],
            "homs": HIGHER_CFG["homs"][:k]})
        out = tmp_path / "o"
        assert main(["higher", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "higher.json")
        assert rep["k"] == k
        assert rep["homs_translational"] is (k == 1)

    def test_rank_mismatch_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "shift", "q": 2, "d": 2},
            "windows": {"shape": "box", "n_min": 1, "n_max": 2},
            "observables": [{"kind": "pauli", "sites": [[0, 0]], "label": "Z"}] * 2,
            "homs": [{"kind": "matrix", "entries": [[1]]}],
        })
        assert main(["higher", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSplitCommand:
    def test_clock_shift(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"system": {"kind": "clock-shift", "Q": 5}})
        out = tmp_path / "o"
        assert main(["split", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "split.json")
        assert rep["dim_H1"] == 1
        assert rep["dim_H0"] == 25
        assert rep["factor_dim"] == 25
        assert rep["kind"] == "has-nontrivial-compact-factor"

    def test_not_ergodic(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"system": {"kind": "rotation", "p": 1, "Q": 4}})
        out = tmp_path / "o"
        assert main(["split", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "split.json")
        assert rep["kind"] == "not-ergodic"
        assert rep["dim_H1"] == 4

    @pytest.mark.parametrize("system, characters", [
        ({"kind": "clock-shift", "Q": 3}, 9),
        ({"kind": "rotation", "p": 1, "Q": 4}, None),
    ])
    def test_one_koopman_split_per_invocation(self, tmp_path, monkeypatch,
                                              system, characters):
        calls = []
        original = spectral.koopman_split

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "koopman_split", counted)
        cfg = write_cfg(tmp_path, "c.json", {"system": system})
        out = tmp_path / "o"
        assert main(["split", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1
        rep = read_json(out / "split.json")
        assert len(rep.get("characters", ())) == (characters or 0)


class TestSzemerediCommand:
    def test_quasilocal(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "shift", "q": 1, "d": 2},
            "observable": {"kind": "matrix", "sites": [0],
                           "entries": matrix_to_json(np.diag([1.0, 0.0]))},
            "exponents": [1, 2],
            "windows": {"shape": "box", "n_min": 1, "n_max": 20},
        })
        out = tmp_path / "o"
        assert main(["szemeredi", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "szemeredi.json")
        assert rep["branch"] == "weakly-mixing"
        assert rep["target"] == pytest.approx(1 / 8)
        assert rep["szemeredi_tail_min"] > 0

    def q2_config(self, tmp_path):
        return write_cfg(tmp_path, "c.json", {
            "system": {"kind": "shift", "q": 2, "d": 2},
            "observable": {"kind": "matrix", "sites": [[0, 0]],
                           "entries": matrix_to_json(np.diag([1.0, 0.0]))},
            "exponents": [1, 2],
            "windows": {"shape": "box", "n_min": 1, "n_max": 8},
        })

    def test_quasilocal_q2_meets_window_bound(self, tmp_path):
        out = tmp_path / "o"
        assert main(["szemeredi", "--config", self.q2_config(tmp_path),
                     "--out", str(out)]) == 0
        rep = read_json(out / "szemeredi.json")
        c = rep["deviation_constant"]
        assert c > 0
        for n, v in rep["averages"]:
            assert abs(v - rep["target"]) <= c / (2 * n + 1) ** 2 + 1e-12

    def test_q2_bound_uses_window_size(self, tmp_path, monkeypatch):
        # deviations of c/(2n+1) are within c/(side length) but not within
        # c/|window| = c/(2n+1)^2, so the check must fail on Z^2
        real = spectral.szemeredi_driver

        def inflated(*args, **kwargs):
            rep = real(*args, **kwargs)
            c = rep.deviation_constant
            return dataclasses.replace(rep, averages=rep.target + c / (2 * rep.n + 1))

        monkeypatch.setattr(spectral, "szemeredi_driver", inflated)
        assert main(["szemeredi", "--config", self.q2_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 1


class TestCompactCommand:
    def test_rotation_certificates(self, tmp_path):
        v = cyclic_shift_matrix(5)
        a_pos = 0.5 * (np.eye(5) + 0.5 * (v + v.conj().T))
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "rotation", "p": 1, "Q": 5},
            "observable": {"kind": "named", "name": "V"},
            "positive_observable": {"kind": "matrix",
                                    "entries": matrix_to_json(a_pos)},
            "epsilon": 0.1,
            "exponents": [1, 2],
            "scan": {"shape": "box", "n": 25},
            "windows": {"shape": "box", "n_min": 1, "n_max": 10},
            "candidates": [[0], [1], [2], [3], [4]],
        })
        out = tmp_path / "o"
        assert main(["compact", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "compact.json")
        assert rep["separated"]["count"] == 5
        members = [g[0] for g in rep["return_set"]["members"]]
        assert members == list(range(-25, 26, 5))
        assert rep["return_set"]["chain_ok"] is True
        assert all(b["holds"] for b in rep["correlation_bounds"])
        assert rep["szemeredi"]["tail_min"] > 0
        assert "scan window" in rep["szemeredi"]["note"]

    def test_spin_chain_projection(self, tmp_path):
        # p = diag(1, 0) at site 0: omega(p) = 1/2, and distinct translates
        # have disjoint supports
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "shift", "q": 1, "d": 2},
            "observable": {"kind": "matrix", "sites": [0],
                           "entries": matrix_to_json(np.diag([1.0, 0.0]))},
            "epsilon": 0.05,
            "exponents": [1, 2],
            "scan": {"shape": "box", "n": 20},
            "windows": {"shape": "box", "n_min": 1, "n_max": 10},
            "candidates": [[0], [1]],
        })
        out = tmp_path / "o"
        assert main(["compact", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "compact.json")
        # the 41 translates of the scan are pairwise sqrt(1/2) apart
        assert rep["separated"]["count"] == 41
        # epsilon / (||p||^2 * 2) = 0.025, and only g = 0 returns
        assert rep["return_set"]["epsilon"] == 0.025
        assert rep["return_set"]["members"] == [[0]]
        # omega(p p) = 1/2 at g = 0 against omega(p^2) - epsilon = 0.45
        assert [(b["value"], b["bound"]) for b in rep["correlation_bounds"]] == [(0.5, 0.45)]
        # on a window of 2n + 1 points the g = 0 term is 1/2, the rest 1/8
        for n, v in rep["szemeredi"]["averages"]:
            assert v == (n + 2) / (4 * (2 * n + 1))

    def test_nontracial_system_keeps_the_return_set(self, tmp_path):
        # a diagonal generator leaves the non-tracial density invariant; the
        # correlation lower bound is a tracial theorem, so the report leaves
        # it out and keeps the separated set and the return set
        gen = np.diag([1.0, -1.0]).astype(complex)
        cfg = write_cfg(tmp_path, "c.json", {
            "system": {"kind": "finite", "generators": [matrix_to_json(gen)],
                       "state": {"kind": "density",
                                 "entries": matrix_to_json(np.diag([0.7, 0.3]))}},
            "observable": {"kind": "matrix",
                           "entries": matrix_to_json(np.diag([1.0, 0.0]))},
            "epsilon": 0.3,
            "exponents": [1, 2],
            "scan": {"shape": "box", "n": 5},
        })
        out = tmp_path / "o"
        assert main(["compact", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "compact.json")
        assert "correlation_bounds" not in rep
        # the projection commutes with the generator: one translate, and
        # every g of the scan returns
        assert rep["separated"]["count"] == 1
        assert rep["return_set"]["members"] == [[g] for g in range(-5, 6)]
        assert rep["return_set"]["chain_ok"] is True


class TestInvariantsCommand:
    def test_passes_and_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"seed": 11, "scale": 0.05})
        out = tmp_path / "o"
        assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "invariants.json")
        assert rep["passed"] is True
        assert len(rep["results"]) >= 25

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"scale": 0.05})
        out = tmp_path / "o"
        assert main(["invariants", "--config", cfg, "--out", str(out),
                     "--seed", "3"]) == 0
        assert read_json(out / "invariants.json")["seed"] == 3

    @pytest.mark.parametrize("module, attr, broken, name, detail", [
        (folner, "shift_window", lambda w, h: folner.box_window(w.q, w.index + 1),
         "folner/shift-invariance", "shift-preserves-size: "),
        (vdc, "check_double_average_bound",
         lambda f, w1, w2: types.SimpleNamespace(holds=False),
         "vdc/inequalities", "double-average-bound"),
        # every empirical gamma reads 1, so some lag leaves its closed form;
        # every check runs at least one trial, also at scale 0.05
        (mixing, "fmean_complex", lambda values, size: 1.0 + 0j,
         "mixing/gamma-consistency", "h=(-9,) difference=1.1"),
        # a stacked operator law reads the seminorm of a whole stack at once
        (operators, "omega_norm_table",
         lambda state, stack, table=operators.omega_norm_table: 0.1 * table(state, stack),
         "operators/cauchy-schwarz", "n="),
        # a systems law reads a whole shift table at once
        (systems, "lift_observable", lambda a: np.kron(a, a),
         "systems/product-system-law", "g="),
        # an action off by a row-dependent factor still maps the factor into
        # itself, but moves each eigenoperator off its character
        (systems.FiniteSystem, "translate_table",
         lambda self, a, shifts, table=systems.FiniteSystem.translate_table:
         table(self, a, shifts) * (1 + 1e-6 * np.arange(len(shifts)))[:, None, None],
         "spectral/factor-invariance", "g="),
    ])
    def test_a_failing_sub_law_keeps_the_listed_name(self, tmp_path, monkeypatch, module,
                                                      attr, broken, name, detail):
        monkeypatch.setattr(module, attr, broken)
        cfg = write_cfg(tmp_path, "c.json", {"seed": 11, "scale": 0.05})
        out = tmp_path / "o"
        assert main(["invariants", "--config", cfg, "--out", str(out)]) == 1
        results = read_json(out / "invariants.json")["results"]
        assert [r["name"] for r in results] == [n for n, _ in ALL_CHECKS]
        failed = {r["name"]: r["detail"] for r in results if not r["passed"]}
        assert failed[name].startswith(detail)


class TestBattery:
    # The parent trial count of each check that draws its instances from a
    # draw helper, stacks of operators or shift tables of random systems.
    DRAWN = {
        "operators/cauchy-schwarz": 1000,
        "operators/tracial-bound": 300,
        "operators/seminorm-dominated": 300,
        "operators/state-positivity": 300,
        "operators/adjoint-antihomomorphism": 100,
        "systems/automorphism-laws": 30,
        "systems/product-system-law": 100,
        "compactness/isometry": 30,
        "compactness/chain-inequality": 20,
    }

    @pytest.mark.parametrize("scale", [0.01, 0.05, 0.5, 1.0])
    def test_no_law_loses_trials(self, monkeypatch, scale):
        instances = {}

        def counting(helper, size):
            def draw(*args, **kwargs):
                for instance in helper(*args, **kwargs):
                    instances[name] = instances.get(name, 0) + size(instance)
                    yield instance
            return draw

        monkeypatch.setattr(invariants, "_operator_stacks", counting(
            invariants._operator_stacks, lambda inst: inst[2].shape[1]))
        monkeypatch.setattr(invariants, "_system_tables", counting(
            invariants._system_tables, lambda inst: len(inst[3])))
        for name, check in ALL_CHECKS:
            assert check(np.random.default_rng(0), scale)[0], name
        assert instances.keys() == self.DRAWN.keys()
        for name, count in self.DRAWN.items():
            assert instances[name] >= _trials(count, scale), name

    def test_the_whole_battery_passes_at_scale_one(self):
        assert [(r.name, r.detail) for r in run_all(1, 1.0) if not r.passed] == []


class TestDeterminism:
    @pytest.mark.parametrize("command,cfg", [
        ("folner", FOLNER_CFG),
        ("mix", MIX_CFG),
        ("vdc", {
            "sequence": {"kind": "weyl-quadratic", "alpha": 0.41421356237309515,
                         "vector": [[1.0, 0.0]]},
            "windows": {"shape": "box", "n_min": 50, "n_max": 200, "stride": 50},
        }),
        ("invariants", {"seed": 5, "scale": 0.05}),
    ])
    def test_threads_do_not_change_bytes(self, tmp_path, command, cfg):
        cfg_path = write_cfg(tmp_path, "c.json", cfg)
        outs = []
        for threads, tag in ((1, "a"), (8, "b")):
            out = tmp_path / tag
            assert main([command, "--config", cfg_path, "--out", str(out),
                         "--threads", str(threads)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        # n = 2500 is the smallest box whose 2 * (2n + 1)-entry lag blocks
        # OpenBLAS splits across threads when they are summed by np.vdot;
        # the FFT lag table sums every lag the same way at any thread count
        cfg_path = write_cfg(tmp_path, "c.json", {
            "sequence": {"kind": "weyl-quadratic", "alpha": 0.41421356237309515,
                         "vector": [[0.6, 0.0], [0.0, 0.8]]},
            "windows": {"shape": "box", "n_min": 2500, "n_max": 2500},
        })
        src = str(Path(ergodix.__file__).resolve().parent.parent)
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from ergodix.cli import main; sys.exit(main(sys.argv[1:]))",
                 "vdc", "--config", cfg_path, "--out", str(out)],
                env=env, check=True, timeout=120)
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    def test_rerun_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "c.json", MIX_CFG)
        blobs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            assert main(["mix", "--config", cfg_path, "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]


class TestBenchmarkTrace:
    def test_every_traced_name_exists(self):
        # the benchmark traces by rebinding named functions; a deleted or
        # renamed one would silently read zero calls, so none may be missing
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        run = subprocess.run(
            [sys.executable, "-c",
             "import spans; print(spans.install(spans.Tracer()))"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert run.stdout == "[]\n"
