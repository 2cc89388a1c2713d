"""Span-recording wrappers installed around the package's public functions.

A traced worker rebinds each target in TARGETS, in every loaded
``skewsupport`` module that holds it (``from ... import`` copies included),
with a wrapper that records one span per call: name, start, end and the
span that was open when the call began.  The wrapper returns the wrapped
value unchanged and keeps ``cache_info``/``cache_clear`` reachable, so
tracing changes timings only.  Nothing under ``src/`` is edited.

Spans stay in memory and are written once, by ``Tracer.write``, as one JSON
header line followed by four packed arrays in native byte order: name ids
(uint32), parent span indices (int32, -1 for a root), start and end times
(float64 seconds from ``time.perf_counter``).
"""

import functools
import json
import sys
import time
from array import array

# (module, attribute path, count fillings): every public function a layer
# metric in BENCHMARK.json is read from.
TARGETS = (
    ("shapes", "enumerate_shapes", False),
    ("kernels", "lr_tally", True),
    ("kernels", "descent_tally", True),
    ("tableaux", "schur_expansion", False),
    ("tableaux", "f_support_mask", False),
    ("tableaux", "f_expansion", False),
    ("tableaux", "is_f_multiplicity_free", False),
    ("bases", "expansion_of", False),
    ("overlaps", "OverlapProfile.of", False),
    ("relations", "relate", False),
    ("relations", "check_implications", False),
    ("relations", "verify_implications", False),
    ("posets", "verify_conjecture", False),
    ("posets", "saturation_check", False),
    ("posets", "build_suppf", False),
    ("posets", "build_nc", False),
    ("posets", "multfree_report", False),
    ("posets", "ShapeClassPoset.hasse_edges", False),
    ("posets", "ShapeClassPoset.to_json_obj", False),
    ("posets", "ShapeClassPoset.to_dot", False),
    ("cli", "main", False),
)


class Tracer:
    """Owns the span arrays and the per-name call, self-time and filling sums."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.fillings: list[int] = []
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, name: str, fn, count_fillings: bool = False):
        """A transparent wrapper around fn that records a span per call."""
        sid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.fillings.append(0)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s, fillings = self.calls, self.self_s, self.fillings
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(sid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                spent = end - start
                self_s[sid] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                calls[sid] += 1
            if count_fillings:
                fillings[sid] += sum(result.values())
            return result

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self, targets=TARGETS) -> None:
        """Rebind every target wherever a loaded skewsupport module holds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "skewsupport" or key.startswith("skewsupport.")
        ]
        for module_name, path, count_fillings in targets:
            owner = sys.modules[f"skewsupport.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{module_name}.{path}"
            if outer:  # a method or classmethod, rebound on its class
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw, count_fillings)
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count_fillings)
            rebound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"trace target {name} not found")

    def layers(self) -> dict:
        """{name: {"calls", "self_s", "fillings"}} for every wrapped name."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i],
                   "fillings": self.fillings[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:uint32", "parent:int32",
                             "start:float64", "end:float64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
