"""Self-check of the benchmark on tiny sizes (a few seconds).

    python3 bench/selfcheck.py

Each workload must pass on its tiny size, and a tampered known count or
pinned digest must make the run fail.  Also checks that the metric names
match BENCHMARK.json, that traced call counts repeat between passes, and
that the command fails without printing a result when the library's
sources are missing.  The tiny pins were taken at the same commit as the
full-size pins in workloads.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_HASSE_PINS = {
    "json": "788892d2310c4a515d59edb9159921903e37f1f13eb73ae33fa7fd9e6065bb2d",
    "dot": "f91cb6154d45a9a6dcfceee3b8148b4b4e514937043d6dfa3dde8fdd14735de3",
    "tsv": "2bcc9c9e1eb806f335deb9f3d380fec7a8fc1526d4c86a9006907dc745e99400",
}
TINY_ENUMERATE_PIN = "21d50d9ea5bf79034ec6c392736285125b3bd49c80a54fc269496a34bdc1813b"
TINY_CERTIFY_PIN = "ba331b5c52ed39736306c1b3e3555378dcfdb1030bb01d0653cc951007ee6c48"
TINY_LARGE_PIN = "b83c5aa82466097192853cf64d166cd76e24c44e7b92c53f18548d36c55dc70d"
TAMPERED = "0" * 64


def tiny_hasse(**kw):
    return W.Hasse(max_n=8, **{"pins": TINY_HASSE_PINS, **kw})


def tiny_enumerate(**kw):
    return W.Enumerate(max_n=7, **{"forms_pin": TINY_ENUMERATE_PIN, **kw})


def tiny_certify(pin=TINY_CERTIFY_PIN):
    return W.Certify(sizes=[7, 8, 9], pass_pins={W.DEFAULT_SEED: pin})


def tiny_large(pin=TINY_LARGE_PIN):
    return W.Large(sizes=(12, 14), pass_pins={W.DEFAULT_SEED: pin})


def execute(workload, trace=False, seconds=0.01):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.execute(workload, W.DEFAULT_SEED, seconds, trace, ROOT)
    return code, json.loads(out.getvalue().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):
    def assert_passes(self, workload, trace=False, seconds=0.01):
        code, result = execute(workload, trace, seconds)
        self.assertEqual((code, result["correct"], result["failed"]), (0, True, 0))
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[kind]})
        return result

    def assert_fails(self, workload):
        code, result = execute(workload)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_each_workload_passes(self):
        for workload in (tiny_hasse(), tiny_enumerate(), tiny_certify(), tiny_large()):
            with self.subTest(workload.name):
                self.assert_passes(workload)

    def test_tampered_counts_fail(self):
        self.assert_fails(tiny_hasse(levels="levels: 6:1 7:1 8:3"))
        with mock.patch.dict(W.SPHERE_COUNTS, {7: 6}):
            self.assert_fails(tiny_enumerate())
        with mock.patch.dict(W.FLAG_COUNTS, {7: 2}):
            self.assert_fails(tiny_enumerate())

    def test_tampered_digests_fail(self):
        self.assert_fails(tiny_hasse(pins={**TINY_HASSE_PINS, "json": TAMPERED}))
        self.assert_fails(tiny_enumerate(forms_pin=TAMPERED))
        self.assert_fails(tiny_certify(TAMPERED))
        self.assert_fails(tiny_large(TAMPERED))

    def test_traced_counts_repeat(self):
        # several traced passes; the run itself fails if a count differs
        result = self.assert_passes(tiny_hasse(), trace=True, seconds=0.5)
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        self.assertEqual(metrics["cli.calls"], 1)
        self.assertEqual(metrics["hasse.new_classes"], 3)
        self.assertGreater(metrics["canonical.self_s"], 0)

    def test_missing_sources_fail_without_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            cmd = SPEC["command"] + ["--workload", "hasse", "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    unittest.main()
