"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances and runtime budgets are pinned here; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from ergodix.cli import main as cli_main
from ergodix.compactness import (
    correlation_lower_bound,
    orbit_epsilon_structure,
    return_set,
    szemeredi_average_compact,
)
from ergodix.folner import Homomorphism, box_schedule, box_window, folner_defect, tempelman_ratio
from ergodix.mixing import HigherOrderSpec, collision_bound, gamma_sequence, higher_order_defect, weak_mixing_defect
from ergodix.sampling import ginibre, random_finite_system
from ergodix.spectral import dichotomy_classify, eigenoperator_factor, koopman_split, szemeredi_driver
from ergodix.systems import (
    clock_shift_system,
    cyclic_permutation_system,
    cyclic_shift_matrix,
    lift_observable,
    pauli_observable,
    product_system,
    rotation_algebra_system,
    shift_system,
    single_site,
)
from ergodix.vdc import check_double_average_bound, check_window_cauchy_schwarz, difference_sum_bound, linear_phase_sequence, vdc_verdict, weyl_quadratic_sequence, VectorSequence
from test_cli import matrix_to_json

ALPHA = math.sqrt(2.0) - 1.0


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        overtime = exc_type is None and elapsed >= self.budget
        status = "PASS" if exc_type is None and not overtime else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if overtime:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_01_folner_tempelman_laws():
    with criterion(1, "folner-tempelman-laws", 1.0):
        for n in range(1, 101):
            w = box_window(1, n)
            assert folner_defect(w, 1) == 2 / (2 * n + 1)
            ratio = tempelman_ratio(w)
            assert ratio == (4 * n + 1) / (2 * n + 1)
            assert ratio <= 2
        for n in range(1, 101):
            assert tempelman_ratio(box_window(2, n)) <= 4


def test_criterion_02_vdc_inequalities_randomized():
    with criterion(2, "van-der-corput-inequalities", 10.0):
        rng = np.random.default_rng(0xE260D1)

        def seq(dim):
            seed = int(rng.integers(0, 2 ** 31))

            def fn(points, dim=dim, seed=seed):
                vals = []
                for g in map(tuple, points.tolist()):
                    local = np.random.default_rng((hash(g) ^ seed) % 2 ** 32)
                    vals.append(local.standard_normal(dim) + 1j * local.standard_normal(dim))
                return np.array(vals).reshape(len(points), dim)

            return VectorSequence(fn, bound=20.0 * math.sqrt(dim), dim=dim)

        for _ in range(1000):
            f = seq(int(rng.integers(1, 9)))
            assert check_window_cauchy_schwarz(
                f, box_window(1, int(rng.integers(1, 9)))).holds
        for _ in range(1000):
            f = seq(int(rng.integers(1, 9)))
            assert check_double_average_bound(
                f, box_window(1, int(rng.integers(1, 9))),
                box_window(1, int(rng.integers(1, 9)))).holds
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            seed = int(rng.integers(0, 2 ** 31))

            def gamma(lags, seed=seed):
                return np.array([np.random.default_rng((hash(h) ^ seed) % 2 ** 32).uniform(0.0, 3.0)
                                 for h in map(tuple, lags.tolist())])

            assert difference_sum_bound(gamma, box_window(1, n)).holds


def test_criterion_03_vdc_verdict_harness():
    with criterion(3, "van-der-corput-verdict", 5.0):
        v = np.array([1.0])
        windows = [box_window(1, n) for n in (250, 500, 1000, 2000)]
        weyl = vdc_verdict(weyl_quadratic_sequence(ALPHA, v), windows)
        assert weyl.averages[-1] < 0.05
        assert weyl.statistic[-1] < 0.05
        assert weyl.hypothesis_satisfied

        linear = vdc_verdict(linear_phase_sequence(ALPHA, v), windows)
        assert not linear.hypothesis_satisfied
        assert linear.label == "hypothesis not satisfied; conclusion not implied"
        assert linear.statistic[-1] >= 1.9  # the exact value is (4n+1)/(2n+1)
        assert linear.statistic[-1] == pytest.approx(
            (4 * 2000 + 1) / (2 * 2000 + 1), abs=1e-9)


def test_criterion_04_weak_mixing_exact_laws():
    with criterion(4, "weak-mixing-exact-laws", 10.0):
        sl = shift_system(1, 2)
        sz = pauli_observable([0], "Z")
        hom = Homomorphism.scalar(1, 1)
        stat = weak_mixing_defect(sl, sz, sz, hom, box_schedule(1, 1, 50))
        for n, value in zip(stat.n.tolist(), stat.values.tolist()):
            assert abs(value - 1 / (2 * n + 1)) <= 1e-12

        rot = rotation_algebra_system(1, 5)
        vmat = cyclic_shift_matrix(5)
        stat2 = weak_mixing_defect(rot, vmat.conj().T, vmat, hom,
                                   box_schedule(1, 1, 50))
        for value in stat2.values:
            assert value == pytest.approx(1.0, abs=1e-10)
        assert stat2.verdict == "non-decaying"


def test_criterion_05_product_system_identity():
    with criterion(5, "doubled-system-identity", 10.0):
        rng = np.random.default_rng(0x375EED)
        for _ in range(100):
            fs = random_finite_system(rng)
            doubled = product_system(fs)
            a, b = ginibre(rng, fs.dim), ginibre(rng, fs.dim)
            for _ in range(3):
                g = tuple(int(x) for x in rng.integers(-5, 6, size=fs.q))
                lhs = doubled.expect_product(
                    [(lift_observable(a), (0,) * fs.q), (lift_observable(b), g)])
                rhs = abs(fs.expect_product([(a, (0,) * fs.q), (b, g)])) ** 2
                assert abs(lhs - rhs) <= 1e-10


def test_criterion_06_higher_order_desk_scale():
    with criterion(6, "higher-order-mixing", 60.0):
        sl = shift_system(1, 2)
        sz = pauli_observable([0], "Z")
        windows = box_schedule(1, 1, 40)
        for homs in ((1, 2), (1, 2, 3)):
            spec = HigherOrderSpec(
                observables=(sz,) * (len(homs) + 1),
                homs=tuple(Homomorphism.scalar(1, m) for m in homs))
            const = collision_bound(sl, spec, windows[-1])
            stat = higher_order_defect(sl, spec, windows)
            for n, value in zip(stat.n.tolist(), stat.values.tolist()):
                assert value == const / (2 * n + 1)

            gam = gamma_sequence(sl, spec, windows,
                                 h_range=[(h,) for h in range(-10, 11)])
            for h, closed, difference in zip(gam.lags.tolist(), gam.closed_form.tolist(),
                                             gam.difference.tolist()):
                # independent oracle: product-state factorization makes each
                # factor omega(sz tau_{m h} sz) an indicator of m h == 0
                expected = 1.0 if h == [0] else 0.0
                assert abs(closed - expected) <= 1e-9
                assert difference <= 2.0 * len(homs) / (2 * 40 + 1) + 1e-9


def test_criterion_07_compactness_certificates():
    with criterion(7, "compactness-certificates", 5.0):
        rot = rotation_algebra_system(1, 5)
        vmat = cyclic_shift_matrix(5)
        cert = orbit_epsilon_structure(rot, vmat, 0.1, box_window(1, 50))
        assert cert.count == 5

        a_pos = 0.5 * (np.eye(5) + 0.5 * (vmat + vmat.conj().T))
        eps = 0.1
        scaled_eps = eps / 2.0  # ||a|| = 1, k+1 = 2 factors
        rset = return_set(rot, a_pos, scaled_eps, (0, 1, 2), box_window(1, 50))
        assert sorted(g[0] for g in rset.members) == list(range(-50, 51, 5))
        for g in rset.members:
            res = correlation_lower_bound(rot, a_pos, (1, 2), eps, g)
            assert res.holds


def test_criterion_08_szemeredi_compact_branch():
    with criterion(8, "szemeredi-compact-branch", 5.0):
        z3 = cyclic_permutation_system(3)
        indicator = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rep = szemeredi_average_compact(z3, indicator, (1, 2),
                                        box_schedule(1, 1, 30), [0, 1, 2])
        # brute-force oracle over one period: integrand is 1/3 on multiples
        # of 3 and 0 otherwise, so the shifted average is
        # (1/3) ceil((2n+1)/3)/(2n+1) with minimum 1/9
        for n, value in zip(rep.n.tolist(), rep.averages.tolist()):
            size = 2 * n + 1
            assert value == pytest.approx((1 / 3) * math.ceil(size / 3) / size,
                                          abs=1e-12)
        assert abs(rep.tail_min - 1 / 9) <= 1e-9
        for ratio in rep.shift_ratios:
            assert ratio >= 1 / 3 - 1e-12


def test_criterion_09_spectral_splitting():
    with criterion(9, "koopman-splitting", 10.0):
        for big_q in (2, 3, 5):
            sys_h = clock_shift_system(big_q)
            split = koopman_split(sys_h)
            assert split.dim_h1 == 1
            assert split.dim_h0 == big_q ** 2
            factor = eigenoperator_factor(sys_h, split)
            assert len(factor.generators) == big_q ** 2
            assert factor.dimension == big_q ** 2
            verdict = dichotomy_classify(sys_h)
            assert verdict.kind == "has-nontrivial-compact-factor"
            assert verdict.factor_dim == big_q ** 2

        single = dichotomy_classify(rotation_algebra_system(1, 5))
        assert single.kind == "not-ergodic"
        assert single.dim_h1 == 5


def test_criterion_10_szemeredi_driver():
    with criterion(10, "szemeredi-driver", 60.0):
        sl = shift_system(1, 2)
        proj = single_site(0, np.diag([1.0, 0.0]))
        rep = szemeredi_driver(sl, proj, (1, 2), box_schedule(1, 1, 40))
        assert rep.branch == "weakly-mixing"
        assert rep.target == pytest.approx(1 / 8)
        for n, value in zip(rep.n.tolist(), rep.averages.tolist()):
            assert abs(value - 1 / 8) <= rep.deviation_constant / (2 * n + 1) + 1e-15
        assert rep.tail_min > 0

        v3 = cyclic_shift_matrix(3)
        a3 = 0.5 * (np.eye(3) + 0.5 * (v3 + v3.conj().T))
        rep2 = szemeredi_driver(clock_shift_system(3), a3, (1, 2),
                                box_schedule(2, 1, 5))
        assert rep2.branch == "compact"
        assert rep2.tail_min > 0


def _criterion_configs(tmp_path):
    v5 = cyclic_shift_matrix(5)
    a_pos5 = 0.5 * (np.eye(5) + 0.5 * (v5 + v5.conj().T))
    v3 = cyclic_shift_matrix(3)
    a_pos3 = 0.5 * (np.eye(3) + 0.5 * (v3 + v3.conj().T))
    return {
        "folner": {
            "group": {"q": 1},
            "windows": {"shape": "box", "n_min": 1, "n_max": 100},
            "shifts": [[1]],
        },
        "vdc": {
            "sequence": {"kind": "weyl-quadratic", "alpha": ALPHA,
                         "vector": [[1.0, 0.0]]},
            "windows": {"shape": "box", "n_min": 500, "n_max": 2000,
                        "stride": 500},
        },
        "mix": {
            "system": {"kind": "shift", "q": 1, "d": 2},
            "windows": {"shape": "box", "n_min": 1, "n_max": 50},
            "observables": {"a": {"kind": "pauli", "sites": [0], "label": "Z"},
                            "b": {"kind": "pauli", "sites": [0], "label": "Z"}},
            "hom": {"kind": "scalar", "m": 1},
            "statistics": ["weak-mixing", "square"],
        },
        "higher": {
            "system": {"kind": "shift", "q": 1, "d": 2},
            "windows": {"shape": "box", "n_min": 1, "n_max": 40},
            "observables": [{"kind": "pauli", "sites": [0], "label": "Z"}] * 4,
            "homs": [{"kind": "scalar", "m": m} for m in (1, 2, 3)],
            "gamma": {"h_max": 10},
        },
        "compact": {
            "system": {"kind": "rotation", "p": 1, "Q": 5},
            "observable": {"kind": "named", "name": "V"},
            "positive_observable": {"kind": "matrix",
                                    "entries": matrix_to_json(a_pos5)},
            "epsilon": 0.1,
            "exponents": [1, 2],
            "scan": {"shape": "box", "n": 50},
            "windows": {"shape": "box", "n_min": 1, "n_max": 30},
            "candidates": [[0], [1], [2], [3], [4]],
        },
        "split": {"system": {"kind": "clock-shift", "Q": 5}},
        "szemeredi": {
            "system": {"kind": "shift", "q": 1, "d": 2},
            "observable": {"kind": "matrix", "sites": [0],
                           "entries": matrix_to_json(np.diag([1.0, 0.0]))},
            "exponents": [1, 2],
            "windows": {"shape": "box", "n_min": 1, "n_max": 40},
        },
        "szemeredi_finite": {
            "system": {"kind": "clock-shift", "Q": 3},
            "observable": {"kind": "matrix", "entries": matrix_to_json(a_pos3)},
            "exponents": [1, 2],
            "windows": {"shape": "box", "n_min": 1, "n_max": 5},
        },
        "invariants": {"seed": 314159, "scale": 0.1},
    }


def test_criterion_11_thread_determinism(tmp_path):
    with criterion(11, "thread-determinism", 240.0):
        configs = _criterion_configs(tmp_path)
        for name, cfg in configs.items():
            command = "szemeredi" if name == "szemeredi_finite" else name
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            blobs = []
            for threads, tag in ((1, "t1"), (8, "t8")):
                out = tmp_path / f"{name}_{tag}"
                code = cli_main([command, "--config", str(cfg_path),
                                 "--out", str(out), "--threads", str(threads),
                                 "--seed", "314159"])
                assert code == 0, f"{name} exited {code} with {threads} threads"
                blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert blobs[0] == blobs[1], f"outputs differ for {name}"


def test_criterion_12_readme_quick_start():
    # the README's library example runs as written, so it cannot go stale
    with criterion(12, "readme-quick-start", 10.0):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            re.S | re.M)
        assert blocks, "README.md has no python block"
        for block in blocks:
            exec(compile(block, str(readme), "exec"), {})
