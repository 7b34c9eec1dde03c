"""Time ``canonical_form`` on the flag splits of the Hasse graph and on large spheres.

For each level N there are two rows.  ``build(N)`` counts the searches
``build`` makes (one ``canonical_form`` per split orbit, one
``canonical_automorphisms`` per parent) and the starts they try.
``n=N`` takes every flag split (not one per orbit) of each class on
N - 1 vertices.  The seed-1 spheres of the benchmark's ``large``
workload (``bench/inputs.py``: n = 100, 150 x 3, 200, each with a
relabeled copy) are one more row.  Each row reports the inputs, the
starts the search tries (``len(canonical._starts(K))`` summed) and the
microseconds per ``canonical_form`` call (for ``build`` rows, its
seconds), the least of three passes.  A run fails unless the level
counts of ``build`` and the distinct forms of each ``n=N`` row match
OEIS A007021, and each large sphere shares its form with its relabeled
copy.

    python3 tools/canonical_timings.py                      # levels 12 and 13, large
    python3 tools/canonical_timings.py --max-n 12
    python3 tools/canonical_timings.py --src OTHER/src --label parent --out BENCH_canonical.json

``--src`` selects the library tree to time (default: ``src/`` of this
checkout).  Each row prints one line of ``key=value`` pairs.  ``--out``
appends the run, under ``--label`` and with the machine and the Python
version, to the ``runs`` list of a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
LARGE_SIZES = (100, 150, 150, 150, 200)
A007021 = {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25, 12: 87, 13: 313}
LEVELS = (12, 13)
REPEATS = 3


def machine() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, {platform.system()}"


def least_time(call):
    """The least wall time of ``REPEATS`` calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t)
    return min(times), result


def timed_row(fs, canonical, name, spheres):
    """One row: inputs, distinct forms, starts tried and µs per call; the forms too."""
    best, forms = least_time(lambda: [fs.canonical_form(K) for K in spheres])
    row = {
        "inputs": name,
        "calls": len(spheres),
        "distinct_forms": len(set(forms)),
        "starts": sum(len(canonical._starts(K)) for K in spheres),
        "us_per_call": round(best / len(spheres) * 1e6, 1),
    }
    return row, forms


def build_row(fs, canonical, level):
    """Searches and starts of ``build(level)``, counted on a separate untimed build."""
    from flagsphere import hasse

    searched = []

    def counting(search):
        return lambda K: searched.append(K) or search(K)

    saved = hasse.canonical_form, hasse.canonical_automorphisms
    hasse.canonical_form, hasse.canonical_automorphisms = map(counting, saved)
    try:
        fs.build(level)
    finally:
        hasse.canonical_form, hasse.canonical_automorphisms = saved
    best, G = least_time(lambda: fs.build(level))
    counts = {n: c for n, c in A007021.items() if n <= level}
    if G.level_counts() != counts:
        raise SystemExit(f"build({level}): levels {G.level_counts()}, A007021 has {counts}")
    row = {
        "inputs": f"build({level})",
        "calls": len(searched),
        "starts": sum(len(canonical._starts(K)) for K in searched),
        "seconds": round(best, 4),
    }
    return row, G


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--max-n", type=int, default=13, choices=LEVELS)
    ap.add_argument("--out", help="JSON file to append this run to")
    ap.add_argument("--label", default="current", help="name of this run in --out")
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    import flagsphere as fs
    from flagsphere import canonical
    from inputs import flag_sphere_texts

    rows = []

    def report(row):
        rows.append(row)
        print(" ".join(f"{k}={v}" for k, v in row.items()), flush=True)

    G = fs.build(min(LEVELS) - 1)
    for level in range(min(LEVELS), args.max_n + 1):
        parents = [node.sphere for node in G.nodes.values() if node.n == level - 1]
        spheres = [fs.split_vertex(K, spec) for K in parents for spec in fs.flag_splits(K)]
        row, _ = timed_row(fs, canonical, f"n={level}", spheres)
        if row["distinct_forms"] != A007021[level]:
            raise SystemExit(f"n = {level}: {row['distinct_forms']} forms, A007021 has {A007021[level]}")
        report(row)
        row, G = build_row(fs, canonical, level)
        report(row)
    texts = flag_sphere_texts(LARGE_SIZES, SEED, relabeled_copy=True)
    spheres = [fs.parse_tri(text) for pair in texts for text in pair]
    row, forms = timed_row(fs, canonical, "large", spheres)
    if forms[0::2] != forms[1::2]:
        raise SystemExit("large: a sphere and its relabeled copy have different forms")
    report(row)

    if args.out:
        data = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data["runs"].append({
            "label": args.label,
            "machine": machine(),
            "python": platform.python_version(),
            "rows": rows,
        })
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
