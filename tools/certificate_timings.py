"""Time the certified-reduction path on large seeded flag spheres.

For each size, the seed-1 sphere is grown by the benchmark's input generator
(``bench/inputs.py``) and each stage is timed once, in this process:
``reduce_to_octahedron``, ``certificate_to_json``,
``certificate_from_json`` and ``verify_certificate``.  Then
``python -m flagsphere verify-cert`` is timed on the written certificate,
start-up included.  A run fails unless every certificate has n - 6 steps,
round-trips through JSON byte for byte and verifies.

    python3 tools/certificate_timings.py                    # n = 200, 400, 800, 1600
    python3 tools/certificate_timings.py --src OTHER/src

``--src`` selects the library tree to time (default: ``src/`` of this
checkout).  Each size prints one line of ``key=value`` pairs, times in
seconds.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SIZES = (200, 400, 800, 1600)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import flagsphere as fs
    from inputs import flag_sphere_texts

    for n in SIZES:
        K = fs.parse_tri(flag_sphere_texts([n], SEED)[0][0])
        row = {"n": n}
        t = time.perf_counter()
        cert = fs.reduce_to_octahedron(K)
        row["reduce_s"] = time.perf_counter() - t
        t = time.perf_counter()
        text = fs.certificate_to_json(cert)
        row["to_json_s"] = time.perf_counter() - t
        t = time.perf_counter()
        back = fs.certificate_from_json(text)
        row["from_json_s"] = time.perf_counter() - t
        t = time.perf_counter()
        check = fs.verify_certificate(back)
        row["verify_s"] = time.perf_counter() - t
        if len(cert.steps) != n - 6 or back != cert or not check:
            raise SystemExit(f"n = {n}: wrong certificate ({check.reason})")
        if fs.certificate_to_json(back) != text:
            raise SystemExit(f"n = {n}: certificate JSON does not round-trip")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cert.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            env = dict(os.environ, PYTHONPATH=src)
            t = time.perf_counter()
            out = subprocess.run(
                [sys.executable, "-m", "flagsphere", "verify-cert", path],
                env=env, capture_output=True, text=True, check=False,
            )
            row["cli_verify_s"] = time.perf_counter() - t
        if out.returncode != 0 or out.stdout != "certificate: valid\n":
            raise SystemExit(f"n = {n}: verify-cert failed: {out.stderr.strip()}")
        row["cert_bytes"] = len(text)
        print(" ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in row.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
