"""ergodix benchmark: CLI workloads timed end to end, or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Every pass is a fresh ``worker.py`` process that imports ergodix from
``src/`` and calls ``ergodix.cli.main`` once per invocation of the workload
(see ``workloads.py``), with BLAS pinned to one thread.  Passes repeat until
``--seconds`` is spent (at least three untraced passes, or two pairs of
untraced and traced passes), and each metric is the median over passes.
Set-up is also sampled on its own, twice per pass, by workers that stop
once the configs are parsed.

Every invocation is checked: it must exit 0, every CSV number must stay
within 1e-9 of the seed-commit artifacts under ``reference/``, and the exact
laws of the workload must hold.  A failed invocation counts in ``failed``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  The last stdout line is the result object; the line
before it carries run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = BENCH / "reference"
WORK = BENCH / "_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CSV_TOL = 1e-9
MIN_PASSES = 3
MIN_TRACED = 2
SETUPS_PER_PASS = 2
# A run must end within 180 s; stop waiting for a pass well before that.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# --------------------------------------------------------------------------
# correctness oracle
# --------------------------------------------------------------------------

def _number(cell: str):
    if "_" in cell:
        return None
    try:
        return complex(cell)
    except ValueError:
        return None


def compare_csv(got: str, ref: str, name: str) -> list[str]:
    """Cells must match the reference exactly or as numbers within CSV_TOL."""
    got_rows = [line.split(",") for line in got.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} lines, reference has {len(ref_rows)}"]
    for i, (g_row, r_row) in enumerate(zip(got_rows, ref_rows)):
        if len(g_row) != len(r_row):
            return [f"{name} line {i + 1}: {len(g_row)} cells, reference has {len(r_row)}"]
        for g, r in zip(g_row, r_row):
            if g == r:
                continue
            x, y = _number(g), _number(r)
            if x is None or y is None or abs(x - y) > CSV_TOL:
                return [f"{name} line {i + 1}: {g!r} differs from reference {r!r}"]
    return []


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _weak_mixing_law(out: Path) -> list[str]:
    """Z@0 against Z@0 on the chain: the defect is exactly 1/(2n+1)."""
    for n, _, value in _csv_rows(out / "mix_weak_mixing.csv"):
        if float(value) != 1 / (2 * int(n) + 1):
            return [f"weak-mixing law broken at n={n}: {value}"]
    return []


def _linear_phase_law(out: Path) -> list[str]:
    """Every lag of a linear phase has |gamma_h| = 1: statistic (4n+1)/(2n+1)."""
    n = workloads.VDC_CUSTOM_RADIUS
    want = (4 * n + 1) / (2 * n + 1)
    for _, _, stat, _ in _csv_rows(out / "vdc.csv"):
        if abs(float(stat) - want) > CSV_TOL:
            return [f"linear-phase statistic {stat} is not (4n+1)/(2n+1) = {want!r}"]
    return []


LAWS = {("chain", "mix"): _weak_mixing_law, ("lattice", "vdc_custom"): _linear_phase_law}


def check_invocation(workload: str, inv: dict, out: Path) -> list[str]:
    """Reasons the invocation failed; empty when it passed."""
    label = inv["label"]
    if inv["code"] != 0:
        return [f"{label}: exit code {inv['code']} {inv['error'] or ''}".rstrip()]
    problems = []
    for ref in sorted((REFERENCE / workload / label).glob("*.csv")):
        got = out / label / ref.name
        if not got.is_file():
            problems.append(f"{label}: {ref.name} missing")
            continue
        problems += compare_csv(got.read_text(encoding="utf-8"),
                                ref.read_text(encoding="utf-8"), f"{label}/{ref.name}")
    law = LAWS.get((workload, label))
    if law is not None:
        try:
            problems += law(out / label)
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: law check could not read output: {exc}")
    return problems


def self_check(workload: str) -> bool:
    """The CSV comparison accepts a reference file and catches a 1e-6 change."""
    ref = min((REFERENCE / workload).glob("*/*.csv"))
    text = ref.read_text(encoding="utf-8")
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[-1] = format(float(cells[-1]) + 1e-6, ".17g")
    perturbed = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    return not compare_csv(text, text, ref.name) and bool(compare_csv(perturbed, text, ref.name))


def artifact_digests(out: Path, labels) -> dict[str, str]:
    digests = {}
    for label in labels:
        for path in sorted((out / label).glob("*")):
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def changed_artifacts(workload: str, digests: dict[str, str]) -> dict[str, int]:
    """Count CSV and JSON artifacts whose bytes differ from the seed commit.

    Artifacts that depend on the run seed have no reference digest and are
    not compared."""
    ref = json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))[workload]
    seeded = tuple(f"{label}/" for label, sub, _ in workloads.invocations(workload)
                   if sub in workloads.SEEDED)
    counts = {"csv": 0, "json": 0}
    for key in set(ref["files"]) | set(digests):
        if key.startswith(seeded):
            continue
        if ref["files"].get(key) != digests.get(key):
            kind = key.rsplit(".", 1)[-1]
            if kind in counts:
                counts[kind] += 1
    return counts


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

class Runner:
    """Starts worker processes for one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.started = started
        self.labels = [label for label, _, _ in workloads.invocations(workload)]
        self.env = dict(os.environ, **BLAS_PIN)
        # Installed packages carry compiled bytecode; let warm() write it here.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, args: list[str]) -> tuple[dict, float, float]:
        """Run one worker; return its report, spawn time and wall time."""
        self.count += 1
        out = self.work / str(self.count)
        out.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(out)]
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the pass started")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(args)} timed out") from exc
        wall = time.monotonic() - spawned
        log = proc.stdout.decode("utf-8", "replace")
        if log:
            sys.stderr.write(log)
        result = out / "result.json"
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
        return json.loads(result.read_text(encoding="utf-8")), spawned, wall

    def run_pass(self, traced: bool) -> dict:
        args = ["pass", "--workload", self.workload, "--seed", str(self.seed)]
        report, spawned, wall = self.spawn(args + (["--traced"] if traced else []))
        out = self.work / str(self.count)
        for inv in report["invocations"]:
            self.attempted += 1
            problems = check_invocation(self.workload, inv, out)
            if problems:
                self.failures.append("; ".join(problems))
        report["wall_s"] = wall
        report["setup_s"] = report["setup_done"] - spawned
        report["digests"] = artifact_digests(out, self.labels)
        shutil.rmtree(out)
        return report

    def setup_time(self) -> float:
        """Seconds from spawning a worker to the end of its set-up."""
        report, spawned, _ = self.spawn(["setup", "--workload", self.workload,
                                         "--seed", str(self.seed)])
        shutil.rmtree(self.work / str(self.count))
        return report["setup_done"] - spawned

    def probe(self) -> dict:
        report, _, _ = self.spawn(["probe"])
        shutil.rmtree(self.work / str(self.count))
        return report

    def warm(self) -> None:
        """Compile ergodix's bytecode once, so no pass pays for it."""
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
                "import ergodix.cli, ergodix.invariants")
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                       timeout=HARD_LIMIT_S)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            WORK.rmdir()


def _loc() -> dict[str, int]:
    loc = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
           for p in sorted((ROOT / "src" / "ergodix").glob("*.py"))}
    loc["total"] = sum(loc.values())
    return loc


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    passes, setups = [], []
    start = time.monotonic()
    while True:
        # Set-up alone is short, so sample it more often than whole passes.
        setups += [runner.setup_time() for _ in range(SETUPS_PER_PASS)]
        passes.append(runner.run_pass(traced=False))
        elapsed = time.monotonic() - start
        typical = median([p["wall_s"] for p in passes])
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    info = {"pass_wall_s": [p["wall_s"] for p in passes], "setup_samples_s": setups,
            "invocation_s": {label: [inv["seconds"] for p in passes for inv in p["invocations"]
                                     if inv["label"] == label] for label in runner.labels}}
    return metrics, {**info, **_pass_meta(passes[0])}


def _pass_meta(report: dict) -> dict:
    return {key: report[key] for key in ("python", "numpy", "blas", "blas_version")}


def _counts(report: dict) -> dict:
    """The deterministic part of a traced pass: calls, counters, maxima."""
    calls = {name: row["calls"] for name, row in report["spans"].items()}
    return {"calls": calls, "counters": report["counters"], "maxima": report["maxima"]}


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, bool]:
    untraced, traced = [], []
    start = time.monotonic()
    while len(traced) < MIN_TRACED or time.monotonic() - start < seconds:
        untraced.append(runner.run_pass(traced=False))
        traced.append(runner.run_pass(traced=True))
    probe = runner.probe()

    repeatable = all(_counts(t) == _counts(traced[0]) for t in traced[1:])
    first = traced[0]
    metrics: dict[str, float] = {**first["counters"], **first["maxima"]}
    for name in first["spans"]:
        rows = [t["spans"][name] for t in traced]
        metrics[f"{name}.calls"] = rows[0]["calls"]
        metrics[f"{name}.s"] = median([r["s"] for r in rows])
        metrics[f"{name}.self_s"] = median([r["self_s"] for r in rows])
    metrics["mixing.self_s"] = median([
        sum(row["self_s"] for name, row in t["spans"].items() if name.startswith("mixing."))
        for t in traced])
    changed = changed_artifacts(runner.workload, traced[-1]["digests"])
    metrics["report.csv_changed"] = changed["csv"]
    metrics["report.json_changed"] = changed["json"]
    metrics["parallel.t2_over_t1"] = median(probe["tn"]) / median(probe["t1"])
    metrics["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                                   - median([u["wall_s"] for u in untraced]))
    metrics["loc.total"] = _loc()["total"]
    info = {"traced_passes": len(traced), "counts_repeat": repeatable,
            "missing_targets": first["missing_targets"],
            "probe_threads": probe["threads"], "probe_identical": probe["identical"],
            **_pass_meta(first)}
    return metrics, info, repeatable and probe["identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ergodix benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "ergodix" / "__init__.py").is_file():
        print(f"no ergodix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.workload, args.seed, started)
    try:
        runner.warm()
        if args.trace:
            values, info, consistent = per_layer(runner, args.seconds)
        else:
            values, info = end_to_end(runner, args.seconds)
            consistent = True
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    checked = self_check(args.workload)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not checked:
        print("self-check: the CSV comparison missed a perturbed file", file=sys.stderr)
    if not consistent:
        print("traced counts differ between passes, or threads changed results",
              file=sys.stderr)
    # A per-layer metric the workload never reaches (a span of another
    # backend, a subcommand it does not run) reads 0.
    unreached = [m["name"] for m in wanted if m["name"] not in values]
    if not args.trace and unreached:
        raise KeyError(f"end-to-end metrics not measured: {unreached}")
    meta = {"workload": args.workload, "seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
            "blas_pin": BLAS_PIN, "loc": _loc(), "unreached": unreached, **info}
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not runner.failures and checked and consistent,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
