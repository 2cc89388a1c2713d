"""Record the sweeps' output digests into perfbench/expected.json.

Runs one untraced repetition of every sweep workload at every size and
keeps each command's exit code and stdout sha256, with the kernel backend
they were recorded on.  Run it from the root of a checkout only when the
program's output is meant to change:

    python3 perfbench/record.py
"""

import argparse
import json
import platform
import sys

from run import EXPECTED, OUT, BenchError, spawn
from workloads import SWEEPS


def main() -> int:
    OUT.mkdir(exist_ok=True)
    sizes, backends = {}, set()
    try:
        for size in ("full", "tiny"):
            for workload in SWEEPS:
                args = argparse.Namespace(workload=workload, seed=0, size=size)
                rep = spawn(args, trace=0, timeout=170)
                if rep["failed"]:
                    raise BenchError(f"{workload} ({size}) failed: "
                                     f"{rep['failed']}")
                backends.add(rep["backend"])
                sizes.setdefault(size, {})[workload] = {
                    "outputs": rep["outputs"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (backend,) = backends
    EXPECTED.write_text(json.dumps(
        {"backend": backend, "python": platform.python_version(),
         "sizes": sizes}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
