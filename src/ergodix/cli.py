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
import contextlib
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
from .report import Table, write_csv, write_json
from .systems import FiniteSystem


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _write_curve(path: Path, n: np.ndarray, value: np.ndarray) -> Table:
    """Write a per-window curve as the CSV columns n, window_size (as 2n + 1)
    and value; return the Table of the columns n and value."""
    write_csv(path, Table(n=n, window_size=2 * n + 1, value=value))
    return Table(n=n, value=value)


def _needs(cfg: dict, key: str, other: str) -> None:
    """Reject an optional key that is only read together with another."""
    if key in cfg and other not in cfg:
        raise ConfigError(f"{key}: only read together with {other}")


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report_dict, failures)
# --------------------------------------------------------------------------

def run_folner(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    q = parse_group(cfg["group"])
    windows = parse_windows(cfg["windows"], q)
    shifts = [_element(s, "shifts[]", q)
              for s in _list(cfg.get("shifts", [[1] + [0] * (q - 1)]), "shifts")]
    _needs(cfg, "candidates", "set")
    pred = parse_set(cfg["set"], q) if "set" in cfg else None
    cands = parse_candidates(cfg["candidates"], q) if "candidates" in cfg else None

    ratios = [folner.tempelman_ratio(w) for w in windows]
    defects = {"defect_" + "_".join(map(str, s)): [folner.folner_defect(w, s) for w in windows]
               for s in shifts}
    write_csv(out / "folner.csv", Table(n=[w.index for w in windows],
                                        window_size=[w.size for w in windows],
                                        tempelman_ratio=ratios, **defects))

    report: dict = {
        "q": q,
        "shifts": shifts,
        "tempelman_bound": 2 ** q,
        "tempelman_max": max(ratios),
    }
    failures = []
    # the bound is a law of boxes; a custom window may exceed it
    if all(w.shape == "box" for w in windows) and max(ratios) > 2 ** q:
        failures.append("tempelman ratio exceeded 2^q on a box schedule")

    if pred is not None:
        dens = folner.lower_density(pred, windows)
        report["density"] = {
            "set": pred.to_json(),
            "per_n": Table(n=dens.n, ratio=dens.ratios),
            "lower_density": dens.lower_density,
        }
        if cands is not None:
            scan = windows[-1]
            wit = folner.relative_density_witness(pred, scan, cands)
            shift, ratio = folner.best_shift_for_density(windows[-1], pred, cands)
            report["witness"] = {
                "accepted": wit.accepted,
                "failing_point": wit.failing_point,
                "best_shift": shift,
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
            write_csv(out / "mix_ergodic_average.csv", Table(
                n=ea.n, window_size=2 * ea.n + 1, re=ea.values.real, im=ea.values.imag))
            report["statistics"]["ergodic-average"] = {
                "product_value": ea.product_value,
                "last": ea.values[-1],
            }
            continue
        stat = _STATS[name](sys_h, a, b, hom, windows, threshold=threshold)
        _write_curve(out / f"mix_{name.replace('-', '_')}.csv", stat.n, stat.values)
        verdicts[name] = stat.verdict
        report["statistics"][name] = {
            "verdict": stat.verdict,
            "threshold": stat.verdict_threshold,
            "last": stat.values[-1],
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
    gamma = cfg.get("gamma", {})
    _require_keys(gamma, {"h_max"}, set(), "gamma")
    h_max = _int(gamma["h_max"], "gamma.h_max", 0) if "h_max" in gamma else None

    stat = mixing.higher_order_defect(sys_h, spec, windows, threshold=threshold)
    _write_curve(out / "higher.csv", stat.n, stat.values)
    report: dict = {
        "k": spec.k,
        # closure under differences: integer homomorphisms are torsion-free and
        # the spec's are nonzero and distinct, so only a singleton is closed
        "homs_translational": spec.k == 1,
        "verdict": stat.verdict,
        "threshold": stat.verdict_threshold,
        "last": stat.values[-1],
    }
    failures: list[str] = []
    if "gamma" in cfg:
        # every lag of W^-1 W on gamma_sequence's largest window, or those within h_max
        lags = None
        if h_max is not None:
            lags, _ = folner.difference_counts(max(windows, key=lambda w: w.size))
            lags = lags[np.abs(lags).max(axis=1) <= h_max]
        gam = mixing.gamma_sequence(sys_h, spec, windows, h_range=lags)
        difference = gam.difference
        write_csv(out / "higher_gamma.csv", Table(
            h=["_".join(map(str, h)) for h in gam.lags.tolist()],
            empirical_re=gam.empirical.real, empirical_im=gam.empirical.imag,
            closed_re=gam.closed_form.real, closed_im=gam.closed_form.imag,
            difference=difference))
        report["gamma"] = {
            "window_index": gam.window_index,
            "kappa": gam.kappa,
            "max_difference": difference.max(),
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
    write_csv(out / "vdc.csv", Table(n=rep.n, window_size=2 * rep.n + 1,
                                     statistic=rep.statistic, average_norm=rep.averages))
    report = {
        "gamma": Table(h=rep.lags, re=rep.gamma.real, im=rep.gamma.imag),
        "gamma_window_index": rep.gamma_window_index,
        "gamma_statistic": Table(n=rep.n, value=rep.statistic),
        "gamma_double_average": Table(n=rep.n, re=rep.double_average.real,
                                      im=rep.double_average.imag),
        "averages": Table(n=rep.n, value=rep.averages),
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
    _needs(cfg, "windows", "candidates")
    _needs(cfg, "candidates", "windows")

    cert = compactness.orbit_epsilon_structure(sys_h, a, eps, scan)
    report: dict = {
        "separated": {
            "epsilon": eps,
            "count": cert.count,
            "shifts": cert.shifts,
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
            if sys_h.is_tracial:
                # the correlation lower bound holds for tracial states only
                bounds = []
                if rset.members:
                    bounds = list(zip(rset.members, compactness.correlation_lower_bounds(
                        sys_h, pos, exponents, eps, np.array(rset.members, dtype=object))))
                failures += [f"correlation lower bound failed at {g}"
                             for g, cb in bounds if not cb.holds]
                report["correlation_bounds"] = [
                    {"g": g, "value": cb.value, "bound": cb.bound, "holds": cb.holds}
                    for g, cb in bounds]
            chain_ok = rset.chain_holds.all()
            if not chain_ok:
                failures.append("a return-set chain certificate failed")
            report["return_set"] = {
                "epsilon": eps_rs,
                "exponents": list(rset.exponents),
                "members": rset.members,
                "gap_witness": rset.gap_witness,
                "chain_ok": chain_ok,
                "note": rset.note,
            }

    if "windows" in cfg:
        windows = parse_windows(cfg["windows"], q)
        cands = parse_candidates(cfg["candidates"], q)
        increasing = [m for m in exponents if m > 0]
        rep = compactness.szemeredi_average_compact(
            sys_h, pos, increasing, windows, cands)
        report["szemeredi"] = {
            "epsilon": rep.epsilon_total,
            "E_members": rep.members,
            "shifts_per_window": Table(n=rep.n, shift=rep.shifts, ratio=rep.shift_ratios),
            "averages": _write_curve(out / "compact_szemeredi.csv", rep.n, rep.averages),
            "tail_min": rep.tail_min,
            "note": rep.note,
        }
        if rep.tail_min <= 0:
            failures.append("compact Szemeredi tail minimum was not positive")
    write_json(out / "compact.json", report)
    return report, failures


def run_split(cfg: dict, out: Path, seed) -> tuple[dict, list[str]]:
    sys_h = parse_system(cfg["system"])
    if not isinstance(sys_h, FiniteSystem):
        raise ConfigError("split needs a finite system; a shift system takes "
                          "szemeredi's weakly-mixing branch")
    verdict = spectral.dichotomy_classify(sys_h)
    report = verdict.to_json()
    if verdict.ergodic and verdict.kind == "has-nontrivial-compact-factor":
        report["characters"] = verdict.characters
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
    report = {**rep.to_json(),
              "averages": _write_curve(out / "szemeredi.csv", rep.n, rep.averages)}
    failures = []
    if rep.tail_min <= 0:
        failures.append("Szemeredi tail minimum was not positive")
    if rep.branch == "weakly-mixing":
        for w, n, v in zip(windows, rep.n, rep.averages):
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
    # the directories this run creates, deepest first
    fresh = [d for d in (out, *out.parents) if not d.exists()]
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
    except ValueError as exc:
        # a ConfigError, or a well-formed config that describes an invalid system
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        # remove the directories this run created, up to the first that is not
        # empty (a handler may have written a file before the error)
        with contextlib.suppress(OSError):
            for d in fresh:
                d.rmdir()
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
