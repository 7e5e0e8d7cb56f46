"""One benchmark pass in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py pass  --workload chain --seed 1 --out DIR [--traced]
    python3 perfbench/worker.py setup --workload chain --seed 1 --out DIR
    python3 perfbench/worker.py probe --out DIR

``pass`` imports ergodix from the checkout's ``src``, parses the workload's
configs with the ``config`` parsers (the end of set-up), then calls
``ergodix.cli.main`` once per invocation, each writing into ``DIR/<label>``.
``setup`` stops at the end of set-up.  ``probe`` runs ``ergodix mix`` on the
chain inputs with the weak-mixing statistic alone, at one thread and at
``max(2, nproc)`` threads.  Each mode writes ``DIR/result.json``.  BLAS must
already be pinned to one thread in the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_ergodix():
    import ergodix
    import ergodix.cli
    import ergodix.config
    import ergodix.invariants  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(ergodix.__file__).resolve().parents:
        raise SystemExit(f"ergodix imported from {ergodix.__file__}, not from {src}")
    return ergodix


def _parse(config, cfg: dict) -> None:
    """Build every object a config describes, through the config parsers."""
    q = 1
    system = None
    if "system" in cfg:
        system = config.parse_system(cfg["system"])
        q = system.q
    if "group" in cfg:
        q = config.parse_group(cfg["group"])
    if "windows" in cfg:
        config.parse_windows(cfg["windows"], q)
    if "scan" in cfg:
        config.parse_scan(cfg["scan"], q)
    if "set" in cfg:
        config.parse_set(cfg["set"])
    if "candidates" in cfg:
        config.parse_candidates(cfg["candidates"], q)
    observables = cfg.get("observables", [])
    if isinstance(observables, dict):
        observables = list(observables.values())
    for key in ("observable", "positive_observable"):
        if key in cfg:
            observables = observables + [cfg[key]]
    for obs in observables:
        config.parse_observable(obs, system)
    for hom in ([cfg["hom"]] if "hom" in cfg else []) + cfg.get("homs", []):
        config.parse_hom(hom, q)


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.25 only prints its build config
        deps = {}
    blas = deps.get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def run_pass(args) -> dict:
    import workloads

    ergodix = _import_ergodix()
    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    out = Path(args.out)
    runs = []
    for label, sub, cfg in workloads.invocations(args.workload):
        _parse(ergodix.config, cfg)
        cfg_path = out / "configs" / f"{label}.json"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [sub, "--config", str(cfg_path), "--out", str(out / label)]
        if sub in workloads.SEEDED:
            argv += ["--seed", str(args.seed)]
        runs.append((label, argv))
    setup_done = time.monotonic()
    if args.mode == "setup":
        return {"setup_done": setup_done}

    results = []
    for label, argv in runs:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = ergodix.cli.main(argv)
            else:
                code = tracer.span(f"cli.{label}", ergodix.cli.main, argv)
            error = None
        except Exception:  # an escaped exception fails the invocation
            code, error = None, traceback.format_exc()
        results.append({"label": label, "code": code, "error": error,
                        "seconds": time.perf_counter() - start})

    report = {
        "setup_done": setup_done,
        "invocations": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        **_blas(),
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counters"] = dict(tracer.counters)
        report["maxima"] = dict(tracer.maxima)
        report["missing_targets"] = missing
    return report


def run_probe(args) -> dict:
    import workloads

    ergodix = _import_ergodix()
    out = Path(args.out)
    cfg_path = out / "probe.json"
    cfg_path.write_text(json.dumps(workloads.thread_probe()), encoding="utf-8")
    many = max(2, len(os.sched_getaffinity(0)))
    times = {1: [], many: []}
    artifacts = set()
    for i, threads in enumerate((1, many, many, 1)):
        target = out / str(i)
        start = time.perf_counter()
        code = ergodix.cli.main(["mix", "--config", str(cfg_path), "--out", str(target),
                                 "--threads", str(threads)])
        times[threads].append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"thread probe exited {code} with {threads} threads")
        artifacts.add(tuple(p.read_bytes() for p in sorted(target.iterdir())))
    return {"threads": many, "t1": times[1], "tn": times[many],
            "identical": len(artifacts) == 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "setup", "probe"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    report = run_probe(args) if args.mode == "probe" else run_pass(args)
    Path(args.out, "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
