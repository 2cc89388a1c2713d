"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

For every workload, traced and untraced, run.py must exit 0 and print a
correct result whose metrics are exactly those BENCHMARK.json defines for
that mode, each with its unit.  Without the package sources it must exit
non-zero and print no result.  Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import OUT, ROOT
from workloads import WORKLOADS

RUN = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
       "--size", "tiny"]


def check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(RUN + ["--workload", workload, "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {proc.stderr[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names {sorted(got)}")
    for m in wanted:
        value = got.get(m["name"], {})
        if value.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {value.get('unit')}")
        if not isinstance(value.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} value {value.get('value')}")
    return errors


def check_bare() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail cleanly."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(RUN + ["--workload", WORKLOADS[0],
                                     "--trace", "0"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: expected a non-zero exit and no result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    errors = [] if names == list(WORKLOADS) else [f"workloads {names}"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check(workload, trace, spec)
    errors += check_bare()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
