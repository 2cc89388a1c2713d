"""Benchmark entry point: run one workload for a fixed time and print metrics.

Usage, from the root of a checkout (stdlib only, nothing installed):

    python3 perfbench/run.py --workload {conjecture,figure6,posets,queries}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Each repetition is a fresh interpreter (worker.py) with ``PYTHONPATH=src``,
``SKEWSUPPORT_JOBS=1`` and no other ``SKEWSUPPORT_*`` variable, so it runs
the kernel backend that ``skewsupport.kernels`` selects.  Repetitions run
one at a time, a closed loop with one client, until the next one would end
after ``--seconds``.  Timings are stated at a reference host speed (see
normalized) and taken from medians over repetitions (see end_to_end).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics,
including the tracing overhead.  Every repetition must reproduce the
recorded output digests (sweeps) and the first repetition's exact counters:
output digests, report counts, cache hits and misses and, between traced
repetitions, kernel calls and fillings.  A repetition that does not is
invalid and left out of the medians, and the run is reported as incorrect.

The last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}.  A record with the run metadata and every repetition goes to
perfbench/out/, and a one-line summary to stderr.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SWEEPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORKER = HERE / "worker.py"

# untraced runs take the median of at least three repetitions; traced runs
# need one untraced and one traced repetition
MIN_REPS = {0: 3, 1: 2}
TIME_LIMIT_S = 170  # one invocation must exit within 180 s
# worker.probe_host's task on the reference host (2-core Xeon VM at 2.0 GHz,
# Python 3.11.7) when it was least disturbed
REFERENCE_PROBE_S = 0.0067


class BenchError(Exception):
    """The benchmark cannot measure: missing sources or a worker crash."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SKEWSUPPORT_")}
    env["SKEWSUPPORT_JOBS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, trace: int, timeout: float) -> dict:
    """Run one repetition; set-up time counts from before the spawn."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.bin")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a repetition ran past {timeout:.0f} s") from None
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"worker exited with {proc.returncode}: {tail}")
    rep = json.loads(lines[-1])
    rep["trace"] = trace
    rep["setup_s"] = rep.pop("setup_done") - start
    rep["duration_s"] = end - start
    return rep


def run_reps(args) -> list[dict]:
    """Repetitions until the next would end after --seconds."""
    start = time.monotonic()
    deadline = start + args.seconds
    modes = (0, 1) if args.trace else (0,)
    reps = []
    while True:
        remaining = start + TIME_LIMIT_S - time.monotonic()
        reps.append(spawn(args, modes[len(reps) % len(modes)], remaining))
        longest = max(r["duration_s"] for r in reps)
        if (len(reps) >= MIN_REPS[args.trace]
                and time.monotonic() + longest > deadline):
            return reps
        if time.monotonic() + longest > start + TIME_LIMIT_S:
            return reps


def exact(rep: dict) -> dict:
    """What must repeat exactly between repetitions of the same inputs."""
    out = {"outputs": rep["outputs"], "counters": rep["counters"]}
    if "layers" in rep:
        out["layers"] = {name: [v["calls"], v["fillings"]]
                         for name, v in rep["layers"].items()}
    return out


def differences(a: dict, b: dict) -> list[str]:
    """Keys present in both exact-counter dicts whose values differ."""
    diffs = []
    for key in a.keys() & b.keys():
        if isinstance(a[key], dict) and isinstance(b[key], dict):
            diffs += [f"{key}.{d}" for d in differences(a[key], b[key])]
        elif a[key] != b[key]:
            diffs.append(f"{key}: {a[key]} != {b[key]}")
    return sorted(diffs)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_reps(args, reps, expected) -> tuple[dict, list[str]]:
    """Mark invalid repetitions; return failed operations and problems."""
    failed, problems = {}, []
    for i, rep in enumerate(reps):
        for op, reason in rep["failed"].items():
            failed[f"rep{i}:{op}"] = reason
        if args.workload in SWEEPS:
            recorded = expected["sizes"][args.size][args.workload]["outputs"]
            for key, out in rep["outputs"].items():
                if out["sha256"] != recorded[key]["sha256"]:
                    failed.setdefault(f"rep{i}:{key}", "output digest differs")
    # The first repetition of each mode is the reference; traced ones are
    # also held to the untraced reference on everything both record.
    refs = {}
    for i, rep in enumerate(reps):
        rep["invalid"] = []
        ref = refs.setdefault(rep["trace"], exact(rep))
        rep["invalid"] += differences(ref, exact(rep))
        if rep["trace"]:
            rep["invalid"] += differences(refs[0], exact(rep))
        if rep["invalid"]:
            problems.append(f"repetition {i} invalid: {rep['invalid'][:3]}")
    problems += check_ledger(args, reps[0]["backend"], refs)
    return failed, problems


def check_ledger(args, backend: str, refs) -> list[str]:
    """Compare exact counters with earlier runs of the same sources here.

    perfbench/out/ledger.json keeps the first run's counters per program
    and workload-definition digest, Python version, backend, workload, size
    and seed, so that runs of one checkout, traced or not, are held to each
    other.
    """
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    workloads = hashlib.sha256((HERE / "workloads.py").read_bytes())
    key = "|".join([src_digest(), workloads.hexdigest(),
                    platform.python_version(), backend,
                    args.workload, args.size, str(args.seed)])
    entry = ledger.setdefault(key, {})
    problems = []
    for trace, ref in refs.items():
        earlier = entry.setdefault(str(trace), ref)
        diffs = differences(earlier, ref)
        if trace and "0" in entry:
            diffs += differences(entry["0"], ref)
        if diffs:
            problems.append(f"counters differ from an earlier run: {diffs[:3]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger))
    tmp.replace(path)
    return problems


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalized(rep: dict) -> list[float]:
    """Operation latencies in ms, restated at the reference host speed.

    The shared 2-core host this benchmark was built on changed speed by up
    to 2x within seconds (other tenants; CPU time tracked wall time, so the
    process was not waiting), which moved a median over 30 s by 15-40%
    between runs.  The worker times a fixed task of the benchmark's own
    before the first operation and after every segment of operations; an
    operation's time multiplied by REFERENCE_PROBE_S over the mean of the
    two probes around it is its time at the reference host speed, which no
    change to the program can move.
    """
    probes, segment = rep["probe_s"], rep["segment"]
    return [lat * 2 * REFERENCE_PROBE_S
            / (probes[i // segment] + probes[i // segment + 1])
            for i, lat in enumerate(rep["latencies_ms"])]


def normalized_wall(rep: dict) -> float:
    return sum(normalized(rep)) / 1000


def end_to_end(reps) -> dict:
    """Timings at the reference host speed, from medians over repetitions.

    Each operation (a command, or a request) gets its median latency over
    the repetitions; wall_s is their sum and the percentiles are taken over
    operations.  Set-up time and peak RSS are medians over repetitions.
    """
    typical = [statistics.median(runs)
               for runs in zip(*(normalized(r) for r in reps))]
    return {
        "setup_s": statistics.median(
            r["setup_s"] * REFERENCE_PROBE_S / r["probe_s"][0] for r in reps),
        "wall_s": sum(typical) / 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "query_p50_ms": percentile(typical, 50),
        "query_p99_ms": percentile(typical, 99),
    }


def per_layer(names, reps) -> dict:
    """Per-layer values named "<module>.<function>.<stat>" in BENCHMARK.json."""
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    first = traced[0]
    caches = first["counters"]["caches"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(map(normalized_wall, traced))
                         - statistics.median(map(normalized_wall, plain)))
        elif name == "tableaux.cache_entries":
            out[name] = sum(size for key, (_, _, size) in caches.items()
                            if key.startswith("tableaux.")
                            and not key.split(".")[1].startswith("_"))
        elif name == "posets.pairs_checked":
            out[name] = first["counters"]["posets.pairs_checked"]
        else:
            layer, stat = name.rsplit(".", 1)
            if stat == "hit_ratio":
                hits, misses, _ = caches[layer]
                out[name] = hits / (hits + misses) if hits + misses else 0.0
            elif stat == "self_s":
                out[name] = statistics.median(
                    r["layers"][layer]["self_s"] * normalized_wall(r)
                    / r["wall_s"] for r in traced)
            else:
                out[name] = first["layers"][layer][stat]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny sizes serve the smoke check")
    args = ap.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (SRC / "skewsupport" / "__init__.py").is_file():
            raise BenchError(f"no package sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = json.loads(EXPECTED.read_text())
        OUT.mkdir(exist_ok=True)
        reps = run_reps(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed, problems = check_reps(args, reps, expected)
    valid = [r for r in reps if not r["invalid"]]
    if not any(r["trace"] == args.trace for r in valid):
        valid = reps  # nothing valid to measure; the run is reported incorrect
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer([m["name"] for m in defs], valid)
    else:
        values = end_to_end(valid)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in defs}

    backend = reps[0]["backend"]
    attempted = sum(r["attempted"] for r in reps)
    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": src_digest(),
        "backend": backend, "baseline_backend": expected["backend"],
        "comparable": backend == expected["backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "env": {k: v for k, v in worker_env().items()
                if k.startswith("SKEWSUPPORT_")},
        "repetitions": len(reps),
        "operations_per_repetition": len(reps[0]["latencies_ms"]),
        "error_rate": len(failed) / attempted,
    }
    record = {"meta": meta, "metrics": metrics, "failed": failed,
              "problems": problems, "repetitions": reps}
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record))

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not meta["comparable"]:
        print(f"perfbench: backend {backend} differs from the baseline's "
              f"{expected['backend']}; not comparable", file=sys.stderr)
    print(json.dumps({"meta": meta}), file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
