"""Benchmark command for flagsphere.

    python3 bench/run.py --workload {hasse,enumerate,certify,large} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` of the checkout this file sits in, never from an installed copy.
One process, one thread, one caller that starts the next item when the
previous one finishes.  Passes over the workload's fixed inputs repeat
until ``--seconds`` is used up.  Every output is checked; the first pass
in full, later passes against the first pass's fingerprints.  Set-up and
pass times are reported in seconds at a fixed reference speed (see
``refclock.py``), so that a shared machine's changing speed does not
show as a change of the program.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of traced passes (alternating with untraced passes, to
measure the tracing overhead).  Human-readable lines go first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every check passed, 1 when
one failed, 2 when the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from refclock import RefClock
from tracer import MODULES, Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, sha

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}


def load_library(src: Path):
    """Import ``flagsphere`` afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "flagsphere" or m.startswith("flagsphere.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = importlib.import_module("flagsphere")
    for short in MODULES:
        importlib.import_module(f"flagsphere.{short}")
    if not Path(lib.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"flagsphere was imported from {lib.__file__}, not from {src}")
    return lib


def setup(workload, seed: int, src: Path):
    """Import plus input generation, repeated; returns (lib, inputs, reference times)."""
    times, first = [], None
    with RefClock() as clock:
        for _ in range(SETUP_REPEATS):
            (lib, inputs), _, ref = clock.time(lambda: (load_library(src), workload.make_inputs(seed)))
            times.append(ref)
            if first is None:
                first = inputs
            elif inputs != first:
                raise RuntimeError("input generation is not deterministic for one seed")
    return lib, first, times


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A private directory inside the checkout, removed afterwards."""
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Run:
    """One benchmark run: passes, their timings and the check tally."""

    def __init__(self, workload, lib, inputs, seed, workdir):
        self.workload, self.lib, self.inputs, self.seed = workload, lib, inputs, seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: list | None = None

    def items(self, tracer=None):
        """Run every item once; returns (outputs, item seconds)."""
        outputs, item_times = [], []
        for idx, inp in enumerate(self.inputs):
            if tracer is not None:
                tracer.item = idx
            t = time.perf_counter()
            try:
                out = self.workload.run_item(self.lib, inp, self.workdir)
            except Exception:
                traceback.print_exc()
                out = None
            item_times.append(time.perf_counter() - t)
            outputs.append(out)
        return outputs, item_times

    def one_pass(self, tracer=None, clock=None):
        """Run every item once, then check the outputs.

        Returns (wall seconds, reference seconds, cpu seconds, item
        seconds); without a ``clock`` the reference seconds are the wall
        seconds.
        """
        cpu0 = time.process_time()
        if clock is None:
            t0 = time.perf_counter()
            outputs, item_times = self.items(tracer)
            wall = ref = time.perf_counter() - t0
        else:
            (outputs, item_times), wall, ref = clock.time(self.items)
        cpu = time.process_time() - cpu0
        self.check(outputs)
        return wall, ref, cpu, item_times

    def check(self, outputs) -> None:
        wl = self.workload
        prints = [None if out is None else wl.fingerprint(out) for out in outputs]
        failures = []
        if self.reference is None:
            self.reference = prints
            for idx, (inp, out) in enumerate(zip(self.inputs, outputs)):
                problems = ["raised"] if out is None else wl.check_item(self.lib, inp, out)
                failures += [f"item {idx}: {p}" for p in problems[:1]]
            pin = getattr(wl, "pass_pins", {}).get(self.seed)
            if pin is not None:
                self.attempted += 1
                digest = sha("".join(p or "" for p in prints))
                if digest != pin:
                    failures.append(f"pass digest {digest[:12]} != pinned {pin[:12]} for seed {self.seed}")
        else:
            failures += [
                f"item {idx}: output differs from the first pass"
                for idx, (p, ref) in enumerate(zip(prints, self.reference))
                if p is None or p != ref
            ]
        self.attempted += len(outputs)
        self.failed += len(failures)
        for line in failures:
            print(f"FAIL {wl.name}: {line}", file=sys.stderr)


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """Passes until the time is used up; end-to-end timings and run facts."""
    walls, refs, items = [], [], []
    start = time.perf_counter()
    with RefClock() as clock:
        while True:
            t = time.perf_counter()
            wall, ref, _, item_times = run.one_pass(clock=clock)
            walls.append(wall)
            refs.append(ref)
            items += item_times
            if run.failed or time.perf_counter() - start + (time.perf_counter() - t) > seconds:
                break
    metrics = {"wall_ref_s": statistics.median(refs)}
    info = {
        "wall_s": (statistics.median(walls), "s"),
        "passes": (len(walls), "count"),
        "items": (len(items), "count"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
    }
    if len(items) >= 100:
        # only with at least ten samples above it
        info["item_p90_ms"] = (statistics.quantiles(items, n=10)[-1] * 1e3, "ms")
    return metrics, info


def traced_run(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer numbers from the traced ones."""
    tracer = Tracer(run.lib)
    plain_walls, cpus, traced_walls, layers, kept = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        wall, _, cpu, _ = run.one_pass()
        plain_walls.append(wall)
        cpus.append(cpu)
        tracer.install()
        try:
            wall, _, _, _ = run.one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        spans = tracer.take()
        layers.append(layer_metrics(spans))
        kept.append(spans)
        if run.failed or time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            break
    write_spans(spans_path, kept)
    out = {}
    for key, first in layers[0].items():
        if isinstance(first, int):
            run.attempted += 1
            if any(layer[key] != first for layer in layers[1:]):
                run.failed += 1
                print(f"FAIL {run.workload.name}: count {key} differs between traced passes", file=sys.stderr)
            out[key] = first
        else:
            out[key] = statistics.median(layer[key] for layer in layers)
    plain = statistics.median(plain_walls)
    out["trace.overhead_frac"] = statistics.median(traced_walls) / plain - 1.0
    out["process.cpu_s"] = statistics.median(cpus)
    return out, {"traced_passes": (len(traced_walls), "count")}


def per_layer_unit(key: str) -> str:
    if key.endswith((".busy_s", ".self_s", ".cpu_s")):
        return "s"
    if key.endswith(".us_per_call"):
        return "us"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)


def execute(workload, seed: int, seconds: float, trace: bool, root: Path) -> int:
    src = root / "src"
    if not (src / "flagsphere" / "__init__.py").is_file():
        print(f"error: no flagsphere sources under {src}", file=sys.stderr)
        return 2
    try:
        lib, inputs, setup_times = setup(workload, seed, src)
    except ImportError as exc:
        print(f"error: cannot import flagsphere: {exc}", file=sys.stderr)
        return 2
    with scratch_dir(root) as workdir:
        run = Run(workload, lib, inputs, seed, workdir)
        if trace:
            values, info = traced_run(run, seconds, root / ".bench_out" / f"spans-{workload.name}-{seed}.jsonl")
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        else:
            values, info = timed_run(run, seconds)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
    info["fail_frac"] = (run.failed / max(run.attempted, 1), "ratio")
    lines = {k: (m["value"], m["unit"]) for k, m in metrics.items()} | info
    for key, (value, unit) in lines.items():
        print(f"{workload.name:10s} {key:32s} {value:<14.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
