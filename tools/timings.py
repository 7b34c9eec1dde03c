"""Time the canonical search, the oracle, from_faces and the certified reduction, one tree or two.

Canonical rows.  ``n=N`` takes every flag split (not one per orbit) of
each class on N - 1 vertices, for N = 12 and 13.  ``large`` takes the
seed-1 spheres of the benchmark's ``large`` workload (``bench/inputs.py``:
n = 100, 150 x 3, 200, each with a relabeled copy).  These rows report
the inputs, the starts the search tries (``len(canonical._starts(K))``
summed) and the microseconds per ``canonical_form`` call.  ``build(N)``
rows report its seconds and count, on a separate untimed build, what it
does: full searches (``canonical._min_code`` calls), tests of a child
against a known form that matched (``hits``) or not (``misses``;
``canonical._same_class`` calls) and starts walked
(``canonical._start_code`` calls).

``from_faces`` reads the face lists of the ``large`` texts and of the
certificate rows' texts (below) and reports the microseconds per
``from_faces`` call.  ``from_faces (lists)`` reads the same faces with
each face a list, as ``json.loads`` hands them to the JSON readers.
``enumerate(10)`` reports the seconds of ``enumerate_all_spheres(10)``,
the brute-force oracle.

Certificate rows.  The seed-1 sphere at n = 200, 400, 800 and 1600 goes
through ``reduce_to_octahedron``, ``certificate_to_json``,
``certificate_from_json``, ``verify_certificate`` and the
``python -m flagsphere verify-cert`` command (start-up included), each
timed in seconds.

Every time is the least of ``--rounds`` passes (default 4).  ``--src``
names the library tree (default: ``src/`` of this checkout).  Given
twice, both trees are loaded into this process under their own module
names and each row times them in alternating rounds: first then second,
then second then first.  The second tree's row adds ``ratio``, the
median over rounds of its time divided by the first tree's, ``won=k/R``,
the k of R rounds in which it took less time, and ``claim``: ``faster``
only when a one-sided sign test rejects chance at p <= 0.025, which at
``--rounds 20`` means 15 or more wins (p ~ 0.02); otherwise ``none``, no
gain claimed.

A run fails, naming the row, unless ``build``'s level counts and each
``n=N`` row's distinct forms match OEIS A007021, each large sphere shares
its form with its relabeled copy, ``enumerate(10)`` counts OEIS A000109,
and every certificate has n - 6 steps, round-trips through JSON byte for
byte and verifies.  Two trees must also give the same forms, the same
``export_json`` of each ``build(N)``, the same ``from_faces`` faces, the
same ``(n, faces)`` list from ``enumerate(10)`` and byte-identical
certificate JSON.  An exception in a tree, from
loading it to the last row, ends the run with one line naming the stage
and the tree.

    python3 tools/timings.py                                # levels 12 and 13
    python3 tools/timings.py --max-n 12
    python3 tools/timings.py --src PARENT/src --src src --out BENCH_canonical.json
    python3 tools/timings.py --rounds 20 --src PARENT/src --src src    # a claim needs 15 of 20 wins

Each row prints one line of ``key=value`` pairs per tree, led by the
tree's ``src`` when there are two.  ``--out`` appends one record per
tree, named by its ``--src`` path, with the machine and the Python
version, to the ``runs`` list of a JSON file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
LARGE_SIZES = (100, 150, 150, 150, 200)
CERT_SIZES = (200, 400, 800, 1600)
A007021 = {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25, 12: 87, 13: 313}
A000109 = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}
LEVELS = (12, 13)
ROUNDS = 4


def machine() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, {platform.system()}"


def load(src: str, name: str):
    """The ``flagsphere`` package under ``src``, imported as module ``name``.

    Every import inside the package is relative, so two trees load side by side.
    """
    path = os.path.join(os.path.abspath(src), "flagsphere")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clock(times: dict, key: str, call):
    """``call()``, with its wall time in seconds stored as ``times[key]``."""
    t = time.perf_counter()
    out = call()
    times[key] = time.perf_counter() - t
    return out


def paired(count: int, rounds: int, one_pass):
    """``rounds`` rounds of ``one_pass(i, times)`` for each tree i, in alternating order.

    ``one_pass`` returns a result and clocks its stages into ``times``.
    Returns each tree's least time per stage and last result, and per
    round the last tree's time for all stages divided by the first's.
    """
    best = [{} for _ in range(count)]
    results = [None] * count
    ratios = []
    for r in range(rounds):
        took = [0.0] * count
        for i in range(count) if r % 2 == 0 else reversed(range(count)):
            times = {}
            results[i] = one_pass(i, times)
            took[i] = sum(times.values())
            for key, t in times.items():
                best[i][key] = min(t, best[i].get(key, t))
        ratios.append(took[-1] / took[0])
    return best, results, ratios


def verdict(ratios) -> dict:
    """The median ratio, the wins and the claim that a one-sided sign test allows."""
    rounds, won = len(ratios), sum(q < 1 for q in ratios)
    p = sum(math.comb(rounds, k) for k in range(won, rounds + 1)) / 2 ** rounds
    return {"ratio": round(statistics.median(ratios), 3), "won": f"{won}/{rounds}",
            "claim": "faster" if p <= 0.025 else "none"}


def tri_faces(text: str):
    """The vertex count and the face triples of a ``.tri`` text, in text order."""
    (n,), *faces = (tuple(map(int, line.split())) for line in text.splitlines())
    return n, faces


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", help="library tree; give two to pair them")
    ap.add_argument("--max-n", type=int, default=13, choices=LEVELS)
    ap.add_argument("--out", help="JSON file to append this run to")
    ap.add_argument("--rounds", type=int, default=ROUNDS,
                    help="alternating rounds per row (default %(default)s); "
                         "a row is faster only when it wins 15 of 20")
    args = ap.parse_args()
    names = args.src or [os.path.relpath(os.path.join(ROOT, "src"))]
    if len(names) > 2:
        ap.error("--src may be given at most twice")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    def guard(stage, i, call):
        """``call()``; an exception ends the run with one line naming ``stage`` and tree ``i``."""
        try:
            return call()
        except Exception as exc:
            raise SystemExit(f"{stage}: {names[i]}: {type(exc).__name__}: {exc}") from None

    def per_tree(stage, call):
        """``call(i)`` for each tree i, each under :func:`guard`."""
        return [guard(stage, i, lambda: call(i)) for i in range(len(names))]

    trees = per_tree("load", lambda i: load(names[i], f"flagsphere_{i}"))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from inputs import flag_sphere_texts

    rows = [[] for _ in trees]

    def row(name, one_pass, key, fields):
        """Time ``one_pass`` on each tree, then print and keep ``fields(i, least, result)``.

        Returns each tree's result.  Fails unless ``key(i, result)`` agrees across trees.
        """
        least, results, ratios = paired(
            len(trees), args.rounds, lambda i, times: guard(name, i, lambda: one_pass(i, times)))
        if len({key(i, result) for i, result in enumerate(results)}) > 1:
            raise SystemExit(f"{name}: {names[0]} and {names[1]} differ")
        for i in range(len(trees)):
            kept = guard(name, i, lambda: fields(i, least[i], results[i]))
            rows[i].append(kept | (verdict(ratios) if i else {}))
            lead = f"src={names[i]} " if len(trees) > 1 else ""
            print(lead + " ".join(f"{k}={v}" for k, v in rows[i][-1].items()), flush=True)
        return results

    def forms_row(name, spheres):
        """``canonical_form`` on each tree's ``spheres[i]``; the first tree's forms."""
        def one_pass(i, times):
            return clock(times, "s", lambda: [trees[i].canonical_form(K) for K in spheres[i]])

        def fields(i, least, forms):
            return {"inputs": name, "calls": len(forms), "distinct_forms": len(set(forms)),
                    "starts": sum(len(trees[i].canonical._starts(K)) for K in spheres[i]),
                    "us_per_call": round(least["s"] / len(forms) * 1e6, 1)}
        return row(name, one_pass, lambda i, forms: tuple(forms), fields)[0]

    def build_row(level):
        """``build(level)`` on each tree; the graphs."""
        def one_pass(i, times):
            return clock(times, "s", lambda: trees[i].build(level))

        def fields(i, least, G):
            canonical = trees[i].canonical
            kinds = {"_min_code": "searches", "_same_class": None, "_start_code": "starts"}
            count = dict.fromkeys(("searches", "hits", "misses", "starts"), 0)
            saved = {name: getattr(canonical, name) for name in kinds}

            def counted(name, call):
                def wrapper(*args):
                    out = call(*args)
                    count[kinds[name] or ("hits" if out else "misses")] += 1
                    return out
                return wrapper
            for name, call in saved.items():
                setattr(canonical, name, counted(name, call))
            try:
                trees[i].build(level)
            finally:
                for name, call in saved.items():
                    setattr(canonical, name, call)
            return {"inputs": f"build({level})", **count, "seconds": round(least["s"], 4)}
        return row(f"build({level})", one_pass, lambda i, G: trees[i].export_json(G), fields)

    def cert_row(n, tmp):
        """The certificate stages at ``n`` on each tree, writing under ``tmp``."""
        text = flag_sphere_texts([n], SEED)[0][0]
        spheres = per_tree(f"n={n}", lambda i: trees[i].parse_tri(text))

        def one_pass(i, times):
            fs = trees[i]
            cert = clock(times, "reduce_s", lambda: fs.reduce_to_octahedron(spheres[i]))
            text = clock(times, "to_json_s", lambda: fs.certificate_to_json(cert))
            back = clock(times, "from_json_s", lambda: fs.certificate_from_json(text))
            check = clock(times, "verify_s", lambda: fs.verify_certificate(back))
            path = Path(tmp, f"cert{i}.json")
            path.write_text(text, encoding="utf-8")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(names[i]))
            out = clock(times, "cli_verify_s", lambda: subprocess.run(
                [sys.executable, "-m", "flagsphere", "verify-cert", str(path)],
                env=env, capture_output=True, text=True, check=False))
            return cert, text, back, check, out

        def fields(i, least, result):
            cert, text, back, check, out = result
            if len(cert.steps) != n - 6 or back != cert or not check:
                raise SystemExit(f"n={n}: wrong certificate ({check.reason})")
            if trees[i].certificate_to_json(back) != text:
                raise SystemExit(f"n={n}: certificate JSON does not round-trip")
            if out.returncode != 0 or out.stdout != "certificate: valid\n":
                raise SystemExit(f"n={n}: verify-cert failed: {out.stderr.strip()}")
            return {"n": n, **{k: round(t, 3) for k, t in least.items()}, "cert_bytes": len(text)}
        row(f"n={n}", one_pass, lambda i, result: result[1], fields)

    graphs = per_tree(f"build({min(LEVELS) - 1})", lambda i: trees[i].build(min(LEVELS) - 1))
    for level in range(min(LEVELS), args.max_n + 1):
        def splits(i):
            fs, G = trees[i], graphs[i]
            parents = [node.sphere for node in G.nodes.values() if node.n == level - 1]
            return [fs.split_vertex(K, spec) for K in parents for spec in fs.flag_splits(K)]
        forms = forms_row(f"n={level}", per_tree(f"n={level}", splits))
        if len(set(forms)) != A007021[level]:
            raise SystemExit(f"n={level}: {len(set(forms))} forms, A007021 has {A007021[level]}")
        graphs = build_row(level)
        counts, found = {n: c for n, c in A007021.items() if n <= level}, graphs[0].level_counts()
        if found != counts:
            raise SystemExit(f"build({level}): levels {found}, A007021 has {counts}")
    texts = [text for pair in flag_sphere_texts(LARGE_SIZES, SEED, relabeled_copy=True) for text in pair]
    forms = forms_row("large", per_tree("large", lambda i: [trees[i].parse_tri(t) for t in texts]))
    if forms[0::2] != forms[1::2]:
        raise SystemExit("large: a sphere and its relabeled copy have different forms")
    cert_texts = [pair[0] for pair in flag_sphere_texts(CERT_SIZES, SEED)]
    lists = [tri_faces(text) for text in texts + cert_texts]

    for name, face_lists in (
        ("from_faces", lists),
        ("from_faces (lists)", [(n, [list(f) for f in faces]) for n, faces in lists]),
    ):
        def faces_pass(i, times):
            return clock(times, "s", lambda: [trees[i].from_faces(n, faces) for n, faces in face_lists])
        row(name, faces_pass, lambda i, spheres: tuple(K.faces for K in spheres),
            lambda i, least, spheres: {
                "inputs": name, "calls": len(spheres),
                "us_per_call": round(least["s"] / len(spheres) * 1e6, 1)})

    def enumerate_pass(i, times):
        return clock(times, "s", lambda: trees[i].enumerate_all_spheres(10))

    def enumerate_fields(i, least, spheres):
        counts = {n: sum(K.n == n for K in spheres) for n in A000109}
        if counts != A000109:
            raise SystemExit(f"enumerate(10): counts {counts}, A000109 has {A000109}")
        return {"inputs": "enumerate(10)", "classes": len(spheres), "seconds": round(least["s"], 4)}
    row("enumerate(10)", enumerate_pass, lambda i, spheres: tuple((K.n, K.faces) for K in spheres),
        enumerate_fields)
    with tempfile.TemporaryDirectory() as tmp:
        for n in CERT_SIZES:
            cert_row(n, tmp)

    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
        data["runs"] += [{"src": name, "machine": machine(), "python": platform.python_version(),
                          "rows": tree_rows} for name, tree_rows in zip(names, rows)]
        out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
