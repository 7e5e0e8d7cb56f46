"""Config-driven experiment runner.

One self-describing JSON config per run; subcommands expose each part of the
library and write plot-ready CSV plus a schema-tagged JSON report into the
output directory.  Exit codes: 0 all asserted checks passed, 1 an asserted
check failed (a machine-readable failure report is still written), 2 config
or usage errors, including well-formed configs that describe an invalid
system.  ``--threads`` is a scheduling hint: evaluation runs on one thread,
so outputs are byte-identical for any value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import compactness, folner, mixing, spectral, vdc
from .config import (
    ConfigError,
    _complex,
    _element,
    _int,
    _list,
    _num,
    _require_keys,
    _variant,
    parse_candidates,
    parse_group,
    parse_hom,
    parse_observable,
    parse_scan,
    parse_set,
    parse_system,
    parse_windows,
)
from .invariants import run_all
from .report import write_csv, write_json


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _window_rows(pairs):
    return [(n, 2 * n + 1, v) for n, v in pairs]


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report_dict, failures)
# --------------------------------------------------------------------------

def run_folner(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    q = parse_group(cfg["group"])
    windows = parse_windows(cfg["windows"], q)
    shifts = [_element(s, "shifts[]", q)
              for s in _list(cfg.get("shifts", [[1] + [0] * (q - 1)]), "shifts")]

    rows = []
    for w in windows:
        row = [w.index, w.size, folner.tempelman_ratio(w)]
        row += [folner.folner_defect(w, s) for s in shifts]
        rows.append(row)
    header = ["n", "window_size", "tempelman_ratio"] + [
        "defect_" + "_".join(str(x) for x in s) for s in shifts]
    write_csv(out / "folner.csv", header, rows)

    report: dict = {
        "q": q,
        "shifts": [list(s) for s in shifts],
        "tempelman_bound": 2 ** q,
        "tempelman_max": max(r[2] for r in rows),
    }
    failures = []
    if report["tempelman_max"] > 2 ** q:
        failures.append("tempelman ratio exceeded 2^q on a box schedule")

    if "set" in cfg:
        pred = parse_set(cfg["set"], q)
        dens = folner.lower_density(pred, windows)
        report["density"] = {
            "set": pred.to_json(),
            "per_n": [[n, r] for n, r in dens.per_n_ratios],
            "lower_density": dens.lower_density,
        }
        if "candidates" in cfg:
            cands = parse_candidates(cfg["candidates"], q)
            scan = windows[-1]
            wit = folner.relative_density_witness(pred, scan, cands)
            shift, ratio = folner.best_shift_for_density(windows[-1], pred, cands)
            report["witness"] = {
                "accepted": wit.accepted,
                "failing_point": list(wit.failing_point) if wit.failing_point else None,
                "best_shift": list(shift),
                "best_ratio": ratio,
            }
            if wit.accepted and ratio < 1 / len(cands) - 1e-12:
                failures.append("best shift ratio fell below 1/r despite witness")
    write_json(out / "folner.json", report)
    return report, failures


_STATS = {
    "weak-mixing": mixing.weak_mixing_defect,
    "square": mixing.square_defect,
    "abelianness": mixing.asymptotic_abelianness,
}


def run_mix(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    sys_h = parse_system(cfg["system"])
    q = sys_h.q
    windows = parse_windows(cfg["windows"], q)
    _require_keys(cfg["observables"], {"a", "b"}, {"a", "b"}, "observables")
    a = parse_observable(cfg["observables"]["a"], sys_h)
    b = parse_observable(cfg["observables"]["b"], sys_h)
    hom = parse_hom(cfg["hom"], q)
    threshold = _num(cfg["threshold"], "threshold") if "threshold" in cfg else None
    names = _list(cfg.get("statistics", ["weak-mixing", "square"]), "statistics")
    unknown = [name for name in names if name not in ("ergodic-average", *_STATS)]
    if unknown:
        raise ConfigError(f"statistics: unknown statistic {unknown[0]!r}")

    report: dict = {"statistics": {}}
    failures: list[str] = []
    verdicts = {}
    for name in names:
        if name == "ergodic-average":
            ea = mixing.ergodic_average(sys_h, a, b, hom, windows)
            write_csv(out / "mix_ergodic_average.csv",
                      ["n", "window_size", "re", "im"],
                      [(n, 2 * n + 1, v.real, v.imag) for n, v in ea.per_window])
            report["statistics"]["ergodic-average"] = {
                "product_value": ea.product_value,
                "last": ea.per_window[-1][1],
            }
            continue
        stat = _STATS[name](sys_h, a, b, hom, windows, threshold=threshold)
        write_csv(out / f"mix_{name.replace('-', '_')}.csv",
                  ["n", "window_size", "value"], _window_rows(stat.per_window))
        verdicts[name] = stat.verdict
        report["statistics"][name] = {
            "verdict": stat.verdict,
            "threshold": stat.verdict_threshold,
            "last": stat.per_window[-1][1],
        }
    if "weak-mixing" in verdicts and "square" in verdicts:
        if verdicts["weak-mixing"] != verdicts["square"]:
            failures.append("absolute and squared defect verdicts disagree")
    write_json(out / "mix.json", report)
    return report, failures


def run_higher(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    sys_h = parse_system(cfg["system"])
    q = sys_h.q
    windows = parse_windows(cfg["windows"], q)
    obs = [parse_observable(o, sys_h) for o in _list(cfg["observables"], "observables")]
    homs = tuple(parse_hom(h, q) for h in _list(cfg["homs"], "homs"))
    spec = mixing.HigherOrderSpec(observables=tuple(obs), homs=homs)
    threshold = _num(cfg["threshold"], "threshold") if "threshold" in cfg else None

    stat = mixing.higher_order_defect(sys_h, spec, windows, threshold=threshold)
    write_csv(out / "higher.csv", ["n", "window_size", "value"],
              _window_rows(stat.per_window))
    report: dict = {
        "k": spec.k,
        "homs_translational": folner.HomSet(homs).is_translational,
        "verdict": stat.verdict,
        "threshold": stat.verdict_threshold,
        "last": stat.per_window[-1][1],
    }
    failures: list[str] = []
    if "gamma" in cfg:
        _require_keys(cfg["gamma"], {"h_max"}, set(), "gamma")
        h_max = _int(cfg["gamma"].get("h_max", 2 * windows[-1].index), "gamma.h_max", 0)
        lags = [h for h in folner.inverse_product(windows[-1]).iter_elements()
                if max(abs(x) for x in h) <= h_max]
        gam = mixing.gamma_sequence(sys_h, spec, windows, h_range=lags)
        write_csv(out / "higher_gamma.csv",
                  ["h", "empirical_re", "empirical_im", "closed_re", "closed_im",
                   "difference"],
                  [("_".join(str(x) for x in e.h), e.empirical.real, e.empirical.imag,
                    e.closed_form.real, e.closed_form.imag, e.difference)
                   for e in gam.entries])
        report["gamma"] = {
            "window_index": gam.window_index,
            "kappa": gam.kappa,
            "max_difference": max(e.difference for e in gam.entries),
        }
    write_json(out / "higher.json", report)
    return report, failures


def _build_sequence(obj: dict) -> vdc.VectorSequence:
    kind = _variant(obj, "sequence", {"constant": (set(), {"vector"}),
                                      "linear-phase": (set(), {"alpha", "vector"}),
                                      "weyl-quadratic": (set(), {"alpha", "vector"})})
    vec = np.array([_complex(x, "sequence.vector[]") for x in
                    _list(obj.get("vector", [[1.0, 0.0]]), "sequence.vector", nonempty=True)])
    if kind == "constant":
        return vdc.constant_sequence(vec)
    alpha = _num(obj.get("alpha", np.sqrt(2.0) - 1.0), "sequence.alpha")
    if kind == "linear-phase":
        return vdc.linear_phase_sequence(alpha, vec)
    return vdc.weyl_quadratic_sequence(alpha, vec)


def run_vdc(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    f = _build_sequence(cfg["sequence"])
    windows = parse_windows(cfg["windows"], 1)
    h_max = _int(cfg["h_max"], "h_max", 0) if "h_max" in cfg else None
    threshold = _num(cfg.get("threshold", 0.05), "threshold")

    rep = vdc.vdc_verdict(f, windows, h_max=h_max, threshold=threshold)
    write_csv(out / "vdc.csv", ["n", "window_size", "statistic", "average_norm"],
              [(n, 2 * n + 1, s, a) for (n, s), (_, a) in
               zip(rep.statistic, rep.averages)])
    report = {
        "gamma": [[h, g.real, g.imag] for h, g in rep.gamma],
        "gamma_window_index": rep.gamma_window_index,
        "gamma_statistic": [[n, v] for n, v in rep.statistic],
        "gamma_double_average": [[n, v.real, v.imag] for n, v in rep.double_average],
        "averages": [[n, v] for n, v in rep.averages],
        "verdict": {
            "hypothesis_satisfied": rep.hypothesis_satisfied,
            "conclusion_observed": rep.conclusion_observed,
            "prediction_confirmed": (not rep.hypothesis_satisfied)
                                    or rep.conclusion_observed,
            "label": rep.label,
            "threshold": rep.threshold,
        },
    }
    write_json(out / "vdc.json", report)
    return report, []


def run_compact(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    sys_h = parse_system(cfg["system"])
    q = sys_h.q
    a = parse_observable(cfg["observable"], sys_h)
    eps = _num(cfg["epsilon"], "epsilon")
    exponents = [_int(m, "exponents[]", 0)
                 for m in _list(cfg["exponents"], "exponents", nonempty=True)]
    scan = parse_scan(cfg["scan"], q)

    cert = compactness.orbit_epsilon_structure(sys_h, a, eps, scan)
    report: dict = {
        "separated": {
            "epsilon": eps,
            "count": cert.count,
            "shifts": [list(s) for s in cert.shifts],
            "note": cert.note,
        },
    }
    failures: list[str] = []

    pos = a
    if "positive_observable" in cfg:
        pos = parse_observable(cfg["positive_observable"], sys_h)
    hermitian = True
    try:
        min_eig = sys_h.obs_min_eigenvalue(pos)
    except ValueError:
        hermitian = False
        min_eig = None
    if hermitian and min_eig >= -compactness.POSITIVITY_TOL:
        norm = sys_h.obs_operator_norm(pos)
        k_plus_1 = len(exponents)
        power_mean = sys_h.expect(sys_h.obs_power(pos, k_plus_1)).real
        if 0 < eps < power_mean:
            eps_rs = eps / (norm ** k_plus_1 * k_plus_1)
            scaled = sys_h.obs_scale(pos, 1.0 / norm)
            rset = compactness.return_set(sys_h, scaled, eps_rs, (0,) + tuple(exponents), scan)
            bounds = []
            if rset.members:
                bounds = list(zip(rset.members, compactness.correlation_lower_bounds(
                    sys_h, pos, exponents, eps, np.array(rset.members, dtype=object))))
            failures += [f"correlation lower bound failed at {g}"
                         for g, cb in bounds if not cb.holds]
            chain_ok = all(c.holds for _, cc in rset.chain_certificates for c in cc)
            if not chain_ok:
                failures.append("a return-set chain certificate failed")
            report["return_set"] = {
                "epsilon": eps_rs,
                "exponents": list(rset.exponents),
                "members": [list(g) for g in rset.members],
                "gap_witness": [list(g) for g in rset.gap_witness] if rset.gap_witness else None,
                "chain_ok": chain_ok,
                "note": rset.note,
            }
            report["correlation_bounds"] = [
                {"g": list(g), "value": cb.value, "bound": cb.bound, "holds": cb.holds}
                for g, cb in bounds]

    if "windows" in cfg and "candidates" in cfg:
        windows = parse_windows(cfg["windows"], q)
        cands = parse_candidates(cfg["candidates"], q)
        increasing = [m for m in exponents if m > 0]
        rep = compactness.szemeredi_average_compact(
            sys_h, pos, increasing, windows, cands)
        write_csv(out / "compact_szemeredi.csv", ["n", "window_size", "value"],
                  _window_rows(rep.averages))
        report["szemeredi"] = {
            "epsilon": rep.epsilon_total,
            "E_members": [list(g) for g in rep.members],
            "shifts_per_window": [[n, list(s), r] for n, s, r in rep.shifts_per_window],
            "averages": [[n, v] for n, v in rep.averages],
            "tail_min": rep.tail_min,
            "note": rep.note,
        }
        if rep.tail_min <= 0:
            failures.append("compact Szemeredi tail minimum was not positive")
    write_json(out / "compact.json", report)
    return report, failures


def run_split(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    sys_h = parse_system(cfg["system"])
    verdict = spectral.dichotomy_classify(sys_h)
    report = verdict.to_json()
    if verdict.ergodic and verdict.kind == "has-nontrivial-compact-factor":
        report["characters"] = [[c for c in ch] for ch in verdict.characters]
    write_json(out / "split.json", report)
    return report, []


def run_szemeredi(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    sys_h = parse_system(cfg["system"])
    q = sys_h.q
    a = parse_observable(cfg["observable"], sys_h)
    exponents = [_int(m, "exponents[]", 1) for m in _list(cfg["exponents"], "exponents")]
    windows = parse_windows(cfg["windows"], q)
    cands = parse_candidates(cfg["candidates"], q) if "candidates" in cfg else None

    rep = spectral.szemeredi_driver(sys_h, a, exponents, windows, candidates=cands)
    write_csv(out / "szemeredi.csv", ["n", "window_size", "value"],
              _window_rows(rep.averages))
    report = rep.to_json()
    failures = []
    if rep.tail_min <= 0:
        failures.append("Szemeredi tail minimum was not positive")
    if rep.branch == "weakly-mixing":
        for w, (n, v) in zip(windows, rep.averages):
            allowed = rep.deviation_constant / w.size + 1e-12
            if abs(v - rep.target) > allowed:
                failures.append(f"average at n={n} deviates beyond c/|window|")
    write_json(out / "szemeredi.json", report)
    return report, failures


def run_invariants(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    if seed is None:
        raise ConfigError("invariants: a seed is mandatory (config key or --seed)")
    scale = _num(cfg.get("scale", 1.0), "scale", 0)
    results = run_all(seed, scale)
    report = {
        "seed": seed,
        "scale": scale,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "passed": all(r.passed for r in results),
    }
    failures = [f"invariant failed: {r.name} {r.detail}" for r in results if not r.passed]
    write_json(out / "invariants.json", report)
    return report, failures


# subcommand -> (handler, required config keys, optional config keys); every
# subcommand also takes an optional "seed", an integer >= 0 that --seed overrides
COMMANDS = {
    "folner": (run_folner, {"group", "windows"}, {"shifts", "set", "candidates"}),
    "mix": (run_mix, {"system", "windows", "observables", "hom"}, {"statistics", "threshold"}),
    "higher": (run_higher, {"system", "windows", "observables", "homs"}, {"threshold", "gamma"}),
    "vdc": (run_vdc, {"sequence", "windows"}, {"h_max", "threshold"}),
    "compact": (run_compact, {"system", "observable", "epsilon", "exponents", "scan"},
                {"windows", "candidates", "positive_observable"}),
    "split": (run_split, {"system"}, set()),
    "szemeredi": (run_szemeredi, {"system", "observable", "exponents", "windows"},
                  {"candidates"}),
    "invariants": (run_invariants, set(), {"scale"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergodix",
        description="Desk-scale ergodic averaging experiments over Z^q.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="scheduling hint (>= 1); evaluation is single-threaded "
                            "and output bytes never depend on it")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized suites (overrides config)")
    args = parser.parse_args(argv)
    for flag, value, least in (("--threads", args.threads, 1), ("--seed", args.seed, 0)):
        if value is not None and value < least:
            print(f"error: {flag} must be >= {least}, got {value}", file=sys.stderr)
            return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        print(f"error: --out {out}: {exc.strerror}", file=sys.stderr)
        return 2
    handler, required, optional = COMMANDS[args.command]
    try:
        cfg = _load_config(args.config)
        _require_keys(cfg, required | optional | {"seed"}, required, "config")
        seed = _int(cfg["seed"], "seed", 0) if "seed" in cfg else None
        _, failures = handler(cfg, out, seed if args.seed is None else args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # the config is well formed but describes an invalid system
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (out / "failures.json").unlink(missing_ok=True)
    if failures:
        write_json(out / "failures.json", {"failures": failures})
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
