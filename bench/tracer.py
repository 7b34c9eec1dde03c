"""Spans around calls into the library's modules, recorded from outside.

The tracer wraps every public function of the traced modules at each
place it is looked up: the module globals of every ``flagsphere`` module
(``flagsphere.hasse.canonical_form``, ``flagsphere.sphere.from_faces``, and
so on) and the package namespace the benchmark itself calls through.
Nothing under ``src/`` changes; the wrappers exist only while installed.

A span is ``(name, site, start, end, parent, item, size)``: the wrapped
function as ``module.function``, the module whose lookup was wrapped, the
perf-counter interval, the index of the enclosing span (-1 at top level),
the benchmark item being processed, and a result size for the few
functions whose output length is a work count.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

MODULES = ("cli", "hasse", "expansion", "canonical", "sphere", "flags", "contraction", "oracle")

# Result sizes worth recording, keyed by span name.
SIZES = {
    "expansion.flag_expansions": len,
    "oracle.enumerate_all_spheres": len,
    "contraction.reduce_to_octahedron": lambda cert: len(cert.steps),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.item = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[int, str]:
        out = {}
        for short in MODULES:
            mod = getattr(self.package, short)
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == mod.__name__:
                    out[id(fn)] = f"{short}.{attr}"
        return out

    def install(self) -> None:
        targets = self._targets()
        pkg = self.package.__name__
        sites = [(pkg, self.package)] + [(short, getattr(self.package, short)) for short in MODULES]
        for site, mod in sites:
            for attr, fn in list(vars(mod).items()):
                name = targets.get(id(fn))
                if name is not None:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn, name, site))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            size = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, site, start, end, parent, self.item, size)

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-module calls, busy and self time, plus the work counters.

    Busy time counts only a module's outermost spans, so nested calls
    within one module are not counted twice.  Self time is a span's
    duration minus the time covered by its direct child spans.
    """
    child_time = [0.0] * len(spans)
    for name, site, start, end, parent, item, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for short in MODULES:
        out[f"{short}.calls"] = 0
        out[f"{short}.busy_s"] = 0.0
        out[f"{short}.self_s"] = 0.0
    calls: Counter = Counter()  # by (name, site)
    sizes: Counter = Counter()  # by (name, site)
    seconds: Counter = Counter()  # by name
    for sid, (name, site, start, end, parent, item, size) in enumerate(spans):
        short = name.split(".", 1)[0]
        dur = end - start
        out[f"{short}.calls"] += 1
        out[f"{short}.self_s"] += dur - child_time[sid]
        p = parent
        while p >= 0 and not spans[p][0].startswith(short + "."):
            p = spans[p][4]
        if p < 0:
            out[f"{short}.busy_s"] += dur
        calls[name, site] += 1
        sizes[name, site] += size or 0
        seconds[name] += dur

    def total(counter, name):
        return sum(c for (n, _), c in counter.items() if n == name)

    children = sizes["expansion.flag_expansions", "hasse"]
    new_classes = calls["canonical.sphere_from_form", "hasse"]
    candidates = calls["expansion.split_vertex", "oracle"]
    # every enumeration starts from the tetrahedron, which is no candidate
    classes = total(sizes, "oracle.enumerate_all_spheres") - total(calls, "oracle.enumerate_all_spheres")
    n_canon = total(calls, "canonical.canonical_form")
    n_faces = total(calls, "sphere.from_faces")
    out["hasse.children"] = children
    out["hasse.new_classes"] = new_classes
    out["hasse.useful_ratio"] = new_classes / children if children else 0.0
    out["oracle.candidates"] = candidates
    out["oracle.classes"] = classes
    out["oracle.useful_ratio"] = classes / candidates if candidates else 0.0
    out["oracle.brute_isomorphic.calls"] = total(calls, "oracle.brute_isomorphic")
    out["canonical.us_per_call"] = seconds["canonical.canonical_form"] / n_canon * 1e6 if n_canon else 0.0
    out["sphere.us_per_call"] = seconds["sphere.from_faces"] / n_faces * 1e6 if n_faces else 0.0
    out["contraction.steps"] = total(sizes, "contraction.reduce_to_octahedron")
    return out


def write_spans(path, passes) -> None:
    """One JSON object per span, tagged with its traced pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_no, spans in enumerate(passes):
            t0 = spans[0][2] if spans else 0.0
            for sid, (name, site, start, end, parent, item, size) in enumerate(spans):
                rec = {
                    "pass": pass_no, "id": sid, "name": name, "site": site,
                    "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                    "parent": parent, "item": item,
                }
                if size is not None:
                    rec["size"] = size
                fh.write(json.dumps(rec) + "\n")
