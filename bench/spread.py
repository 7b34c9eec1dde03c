"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 bench/spread.py [--runs 10] [--workloads hasse,certify] [--out FILE]

Runs ``bench/run.py`` once per seed 1..runs on each workload, with the
run length from BENCHMARK.json, and prints per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  A spread must
stay below a third of the metric's bound (``setup_s`` excepted, whose
spread is not gated); the command exits 1 when one does not.

With ``--out`` it also makes one traced run per workload at seed 1 and
writes everything, with the machine, the Python version and the commit,
to FILE as a baseline later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which per-layer metric should move which end-to-end metric, on which
# workload, and where the prediction is no change.
LAYER_MAP = [
    {"layer": ["canonical.self_s", "canonical.calls"], "moves": ["wall_ref_s"],
     "mostly_on": ["hasse", "enumerate"], "nothing_on": ["certify"]},
    {"layer": ["hasse.useful_ratio", "hasse.children"], "moves": ["wall_ref_s", "peak_rss_mb"],
     "mostly_on": ["hasse"], "nothing_on": ["certify", "large"]},
    {"layer": ["oracle.useful_ratio", "oracle.self_s"], "moves": ["wall_ref_s", "peak_rss_mb"],
     "mostly_on": ["enumerate"], "nothing_on": ["hasse"]},
    {"layer": ["oracle.self_s"], "moves": ["wall_ref_s", "item_p50_ms"],
     "mostly_on": ["certify"], "nothing_on": ["hasse"]},
    {"layer": ["flags.self_s", "contraction.self_s"], "moves": ["item_p50_ms", "wall_ref_s"],
     "mostly_on": ["large"], "nothing_on": ["hasse"]},
    {"layer": ["sphere.self_s", "sphere.us_per_call"], "moves": ["wall_ref_s", "item_p50_ms"],
     "mostly_on": ["large", "hasse"], "nothing_on": ["certify"]},
    {"layer": ["expansion.self_s", "cli.self_s"], "moves": ["wall_ref_s"],
     "mostly_on": ["hasse"], "nothing_on": ["certify"]},
]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(), "commit": commit}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "runs": args.runs, "end_to_end": {}, "per_layer_seed1": {}, "layer_map": LAYER_MAP}
    steady = True
    for workload in args.workloads.split(","):
        results = [run_once(spec, workload, seed, 0) for seed in range(1, args.runs + 1)]
        table = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            table[name] = s
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"{workload:10s} {name:12s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bound} {'ok' if ok else 'WIDE'}")
        report["end_to_end"][workload] = table
        if args.out:
            traced = run_once(spec, workload, 1, 1)
            report["per_layer_seed1"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
