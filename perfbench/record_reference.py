"""Record the artifacts that the benchmark's correctness oracle compares with.

Run from the root of a checkout of the commit whose outputs are the
reference (the seed commit)::

    python3 perfbench/record_reference.py

It runs one untraced pass per workload and writes ``reference/<workload>/
<label>/*.csv`` plus ``reference/digests.json``, the sha256 of every
artifact that does not depend on the run seed.  It refuses to record a pass
in which an invocation failed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    shutil.rmtree(run.REFERENCE, ignore_errors=True)
    digests = {}
    for workload in workloads.NAMES:
        runner = run.Runner(workload, seed=0, started=time.monotonic())
        try:
            report, _, _ = runner.spawn(["pass", "--workload", workload, "--seed", "0"])
            out = runner.work / str(runner.count)
            files = {}
            for label, sub, _ in workloads.invocations(workload):
                inv = next(i for i in report["invocations"] if i["label"] == label)
                if inv["code"] != 0:
                    print(f"{workload}/{label} exited {inv['code']}", file=sys.stderr)
                    return 1
                if sub in workloads.SEEDED:
                    continue
                target = run.REFERENCE / workload / label
                for path in sorted((out / label).glob("*")):
                    files[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                    if path.suffix == ".csv":
                        target.mkdir(parents=True, exist_ok=True)
                        shutil.copyfile(path, target / path.name)
                problems = run.check_invocation(workload, inv, out)
                if problems:
                    print(f"{workload}/{label}: {problems}", file=sys.stderr)
                    return 1
            digests[workload] = {"files": files}
        finally:
            runner.close()
    (run.REFERENCE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
