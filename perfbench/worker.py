"""One repetition of one workload, in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports the package, builds the inputs (and, when traced, installs the
span wrappers), stamps the end of set-up with ``time.monotonic()``, runs the
timed part, then checks what it can check by itself.  The last line of its
stdout is one JSON object with the raw facts; run.py compares them against
the recorded digests and across repetitions.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import skewsupport
import skewsupport.cli  # noqa: F401  imports every module of the package

from spans import Tracer
from workloads import (
    SWEEPS,
    WORKLOADS,
    answer,
    command_key,
    flags_hold,
    make_queries,
    query_failures,
)

# requests between two host probes; a probe takes about 20 ms
QUERY_SEGMENT = 100

# report fields that count work exactly; they must repeat across runs
REPORT_COUNTERS = ("shape_count", "pairs_checked", "class_count_suppf",
                   "class_count_nc", "multfree_count", "class_count")


def cache_stats() -> dict:
    """hits, misses and size of every lru cache the package defines."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("skewsupport."):
            continue
        for attr, obj in vars(mod).items():
            if (getattr(obj, "__module__", None) == mod_name
                    and getattr(obj, "__name__", None) == attr
                    and hasattr(obj, "cache_info")):
                info = obj.cache_info()
                short = mod_name.removeprefix("skewsupport.")
                out[f"{short}.{attr}"] = [info.hits, info.misses,
                                          info.currsize]
    return out


def _permutations(rest, prefix, tally) -> None:
    if not rest:
        key = tuple(prefix[:3])
        tally[key] = tally.get(key, 0) + 1
        return
    for i, value in enumerate(rest):
        prefix.append(value)
        _permutations(rest[:i] + rest[i + 1:], prefix, tally)
        prefix.pop()


def probe_host(runs: int = 3) -> float:
    """Seconds taken by a fixed pure-Python task, the benchmark's own code.

    The median of a few runs, taken between timed operations so that run.py
    can restate their times at a reference host speed (run.normalized).
    """
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _permutations(list(range(7)), [], {})
        times.append(time.perf_counter() - start)
    return sorted(times)[runs // 2]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed(ops, run_op, segment: int) -> dict:
    """Run and time every operation, probing the host every `segment` ops.

    Probes come before the first operation and after every `segment`-th and
    the last; operation i lies between probes i // segment and the next.
    Peak RSS and cache statistics are read right after the last operation,
    before the caller's checks.
    """
    results, latencies, probes = [], [], [probe_host()]
    clock = time.perf_counter
    for i, op in enumerate(ops):
        began = clock()
        results.append(run_op(op))
        latencies.append(clock() - began)
        if (i + 1) % segment == 0 or i + 1 == len(ops):
            probes.append(probe_host())
    return {
        "results": results,
        "wall_s": sum(latencies),
        "latencies_ms": [lat * 1000 for lat in latencies],
        "probe_s": probes,
        "segment": segment,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "counters": {"caches": cache_stats()},
    }


def run_command(cmd):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = skewsupport.cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command
            rc = f"raised {exc!r}"
    return rc, buf.getvalue()


def run_sweep(commands) -> dict:
    result = timed(commands, run_command, segment=1)
    outputs, reports, failed = {}, {}, {}
    posets_pairs = 0
    for cmd, (rc, text) in zip(commands, result.pop("results")):
        key = command_key(cmd)
        outputs[key] = {"rc": rc, "sha256": sha256(text)}
        report = json.loads(text) if text.startswith("{") else {}
        reports[key] = {k: report[k] for k in REPORT_COUNTERS if k in report}
        if cmd.posets_pairs:
            posets_pairs += report.get("pairs_checked", 0)
        if rc != 0:
            failed[key] = f"exit code {rc}"
        elif not flags_hold(report, cmd):
            failed[key] = "a pass flag is false"
    result["failed"] = failed
    result["outputs"] = outputs
    result["counters"]["reports"] = reports
    result["counters"]["posets.pairs_checked"] = posets_pairs
    return result


def run_request(request):
    try:
        obj = answer(skewsupport, request)
        return obj, json.dumps(obj)
    except Exception as exc:  # a crash is a failed request
        return None, f"raised {exc!r}"


def run_queries(requests) -> dict:
    result = timed(requests, run_request, segment=QUERY_SEGMENT)
    responses, texts = zip(*result.pop("results"))
    failed = {str(i): text for i, (obj, text)
              in enumerate(zip(responses, texts)) if obj is None}
    failed.update(query_failures(skewsupport, requests, responses))
    result["failed"] = failed
    result["outputs"] = {"responses": {"sha256": sha256("\n".join(texts))}}
    result["counters"]["posets.pairs_checked"] = 0
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="file for the span arrays of a traced run")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    if args.workload == "queries":
        requests = make_queries(skewsupport, args.seed, args.size)
    else:
        commands = SWEEPS[args.workload][args.size]
    setup_done = time.monotonic()

    if args.workload == "queries":
        result = run_queries(requests)
    else:
        result = run_sweep(commands)
    result["setup_done"] = setup_done
    result["backend"] = skewsupport.kernels.BACKEND
    if tracer:
        result["layers"] = tracer.layers()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
