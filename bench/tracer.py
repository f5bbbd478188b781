"""Span tracing of the library's public functions, installed from outside.

``Tracer.install`` wraps every public function of the layer modules (and the
public classmethods of their classes) and rebinds each wrapper wherever the
original is bound: module globals and ``from ... import`` bindings alike.  A
call from one layer into another therefore becomes a child span.  Spans are
kept in memory (name, start, end, parent span, run id, CPU time and the RSS
high-water mark at both ends) and written out when the run ends.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its functions.  What no span covers is the
benchmark's own time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import re
import resource
import sys
import time

# module of gqcovers -> layer; cli and errors are not timed
LAYER_OF_MODULE = {
    "gf": "constructions",
    "constructions": "constructions",
    "incidence": "incidence",
    "subtension": "subtension",
    "covers": "covers",
    "autgroup": "autgroup",
    "spg": "spg",
    "kkcensus": "kkcensus",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

# permutation and coordinate arithmetic called from inner loops; a span
# per call would cost more than the call
UNTRACED = {
    "autgroup.identity_perm",
    "autgroup.compose",
    "autgroup.inverse",
    "autgroup.is_identity",
    "constructions.normalize_projective",
}


def layer_of(name):
    return LAYER_OF_MODULE[name.split(".", 1)[0]]


def _points_built(result):
    g = result[0] if isinstance(result, tuple) else getattr(result, "structure", result)
    count = getattr(g, "point_count", 0)
    return count if isinstance(count, int) else 0


# function -> counter taken from its return value
RESULT_COUNTERS = {
    "covers.enumerate_covers": len,
    "autgroup.setwise_stabilizer": lambda r: len(r.generators),
    "autgroup.extend_automorphism": lambda r: int(bool(r.extensions)),
}

NAME, PARENT, T0, T1, C0, C1, RSS0, RSS1, ERROR, COUNT = range(10)


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    # -- installation -------------------------------------------------------------

    def install(self):
        wrappers = {}
        for modname in LAYER_OF_MODULE:
            mod = importlib.import_module(f"gqcovers.{modname}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{modname}.{name}" not in UNTRACED:
                    wrappers[obj] = self._wrap(f"{modname}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, classmethod):
                            wrapped = self._wrap(f"{modname}.{name}.{attr}", raw.__func__)
                            setattr(obj, attr, classmethod(wrapped))
        for mod in list(sys.modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTERS.get(name)
        if layer_of(name) == "constructions":
            counter = _points_built

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0,
                    _maxrss_kb(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[C0] = time.process_time()
            span[T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[T1] = time.perf_counter()
                span[C1] = time.process_time()
                span[RSS1] = _maxrss_kb()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(result)
            return result

        return traced

    # -- output -------------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "span": i, "parent": s[PARENT], "name": s[NAME],
                    "start": s[T0], "end": s[T1], "cpu_s": s[C1] - s[C0],
                    "error": s[ERROR],
                }) + "\n")
        return path

    def summary(self, wall_s):
        """Per-function and per-layer statistics of the recorded spans."""
        spans = self.spans
        child_wall = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        top_wall = 0.0
        for s in spans:
            if s[PARENT] >= 0:
                child_wall[s[PARENT]] += s[T1] - s[T0]
                child_cpu[s[PARENT]] += s[C1] - s[C0]
            else:
                top_wall += s[T1] - s[T0]
        funcs = {}
        for i, s in enumerate(spans):
            f = funcs.setdefault(s[NAME], {
                "s": 0.0, "cpu_s": 0.0, "calls": 0, "errors": 0,
                "incl_s": 0.0, "incl_cpu_s": 0.0, "rss_mb": 0.0, "count": 0,
            })
            f["s"] += s[T1] - s[T0] - child_wall[i]
            f["cpu_s"] += s[C1] - s[C0] - child_cpu[i]
            f["calls"] += 1
            f["errors"] += s[ERROR]
            f["incl_s"] += s[T1] - s[T0]
            f["incl_cpu_s"] += s[C1] - s[C0]
            f["rss_mb"] += (s[RSS1] - s[RSS0]) / 1024.0
            # points built count once, at the outermost construction call
            nested = s[PARENT] >= 0 and layer_of(spans[s[PARENT]][NAME]) == layer_of(s[NAME])
            if s[COUNT] is not None and not (nested and layer_of(s[NAME]) == "constructions"):
                f["count"] += s[COUNT]
        layers = {layer: 0.0 for layer in LAYERS}
        for name, f in funcs.items():
            layers[layer_of(name)] += f["s"]
        record_ms = sorted(
            (s[T1] - s[T0]) * 1000.0 for s in spans if s[NAME] == "kkcensus.record_census"
        )
        return {
            "functions": funcs,
            "layers": layers,
            "bench_s": wall_s - top_wall,
            "spans": len(spans),
            "record_census_ms": record_ms,
        }


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def closures_from_log(line):
    """Closure count from the census log line 'pair k/N: x subGQs, y closures'."""
    m = re.search(r"(\d+) closures", line or "")
    return int(m.group(1)) if m else 0
