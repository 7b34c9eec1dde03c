"""The four benchmark workloads, their inputs and their correctness checks.

Each workload is a list of items run one after another by a single caller
(a closed loop with one client).  ``run_item`` is the timed part;
``check_item`` runs after the timed pass and returns the failed checks.
``fingerprint`` reduces one item's output to a digest, so later passes
are compared with the first and pinned digests can be checked.

Known counts are outside truth: flag spheres are OEIS A007021 and all
triangulated 2-spheres are OEIS A000109.  Digests were pinned at the
commit the benchmark was introduced on and hold the byte-identical
public outputs (exports, certificate JSON, canonical forms) in place.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

from inputs import flag_sphere_texts

DEFAULT_SEED = 1

# OEIS A007021 (flag 2-spheres = 4-connected triangulations) and A000109.
FLAG_COUNTS = {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25, 12: 87, 13: 313}
SPHERE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}


def sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def _faces_of(text: str) -> tuple[int, list[tuple[int, ...]]]:
    lines = text.split("\n")
    return int(lines[0]), [tuple(map(int, line.split())) for line in lines[1:] if line]


def _adjacency(n: int, faces) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b, c in faces:
        adj[a].update((b, c))
        adj[b].update((a, c))
        adj[c].update((a, b))
    return adj


def flag_sphere_problems(n: int, faces) -> list[str]:
    """Independent test that a face list is a flag 2-sphere on ``0..n-1``.

    Every edge in exactly two faces, Euler characteristic 2, every vertex
    of degree >= 4, and every edge with exactly two common neighbours (its
    two apexes), which rules out missing triangles.  Connectivity and
    link cycles are not re-checked; the library validated them on input.
    """
    edges: dict[tuple[int, int], int] = {}
    for f in faces:
        a, b, c = sorted(f)
        for e in ((a, b), (a, c), (b, c)):
            edges[e] = edges.get(e, 0) + 1
    if any(k != 2 for k in edges.values()):
        return ["edge not in exactly two faces"]
    if n - len(edges) + len(faces) != 2:
        return ["Euler characteristic is not 2"]
    adj = _adjacency(n, faces)
    if any(len(nb) < 4 for nb in adj):
        return ["vertex of degree < 4"]
    if any(len(adj[a] & adj[b]) != 2 for a, b in edges):
        return ["missing triangle"]
    return []


def replay_problems(n: int, faces, cert) -> list[str]:
    """Replay a certificate on a face list with no library code.

    Each step must contract an edge of the current sphere, leave a flag
    sphere (so the edge was in no belt) and match the recorded relabeling;
    the end must be the recorded end and the octahedron (the only sphere
    on 6 vertices with all degrees 4).
    """
    cur = [tuple(sorted(f)) for f in faces]
    for idx, step in enumerate(cert.steps):
        u, v = step.edge
        if not any(u in f and v in f for f in cur):
            return [f"step {idx}: not an edge"]
        relabel = tuple(w if w < v else (u if w == v else w - 1) for w in range(n))
        if relabel != step.relabel:
            return [f"step {idx}: relabeling differs"]
        cur = [tuple(sorted(relabel[x] for x in f)) for f in cur if not (u in f and v in f)]
        n -= 1
        problems = flag_sphere_problems(n, cur)
        if problems:
            return [f"step {idx}: {problems[0]}"]
    if sorted(cur) != sorted(cert.end.faces) or n != 6:
        return ["end differs from recorded end"]
    if any(len(nb) != 4 for nb in _adjacency(n, cur)):
        return ["end is not the octahedron"]
    return []


class Hasse:
    """The main user path: ``flagsphere hasse`` with all three exports."""

    name = "hasse"

    def __init__(self, max_n=12, levels=None, pins=None):
        self.max_n = max_n
        counts = {n: c for n, c in FLAG_COUNTS.items() if n <= max_n}
        self.levels = levels or "levels: " + " ".join(f"{n}:{c}" for n, c in counts.items())
        self.pins = pins if pins is not None else HASSE_PINS

    def make_inputs(self, seed):
        return [self.max_n]

    def run_item(self, lib, max_n, workdir):
        out, err = io.StringIO(), io.StringIO()
        paths = {ext: str(workdir / f"hasse.{ext}") for ext in ("json", "dot", "tsv")}
        argv = ["hasse", "--max-n", str(max_n)]
        for ext, path in paths.items():
            argv += [f"--{ext}", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.run(argv)
        exports = {ext: Path(p).read_text(encoding="utf-8") for ext, p in paths.items()}
        return code, out.getvalue(), err.getvalue(), exports

    def fingerprint(self, output):
        code, out, err, exports = output
        return sha(f"{code}\n{out}\n{err}\n" + "".join(sha(exports[k]) for k in sorted(exports)))

    def check_item(self, lib, max_n, output):
        code, out, err, exports = output
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()}")
        if out != f"{self.levels}\nbounds OK\n":
            problems.append(f"stdout {out!r}, expected {self.levels!r} and 'bounds OK'")
        for ext, digest in self.pins.items():
            if sha(exports[ext]) != digest:
                problems.append(f"{ext} export sha256 {sha(exports[ext])[:12]} != pinned {digest[:12]}")
        return problems


class Enumerate:
    """The brute-force oracle: every sphere class up to ``max_n``, then the flag ones."""

    name = "enumerate"

    def __init__(self, max_n=10, forms_pin=None):
        self.max_n = max_n
        self.forms_pin = forms_pin if forms_pin is not None else ENUMERATE_FORMS_PIN

    def make_inputs(self, seed):
        return [self.max_n]

    def run_item(self, lib, max_n, workdir):
        spheres = lib.enumerate_all_spheres(max_n)
        flag = [K for K in spheres if lib.is_flag(K)]
        return spheres, flag

    def fingerprint(self, output):
        spheres, flag = output
        return sha(repr([(K.n, K.faces) for K in spheres]) + repr([(K.n, K.faces) for K in flag]))

    def check_item(self, lib, max_n, output):
        spheres, flag = output
        problems = []
        for name, found, known in (("sphere", spheres, SPHERE_COUNTS), ("flag", flag, FLAG_COUNTS)):
            want = {n: c for n, c in known.items() if n <= max_n}
            got = {n: sum(K.n == n for K in found) for n in want}
            if got != want or len(found) != sum(want.values()):
                problems.append(f"{name} counts {got} != {want}")
        if [K for K in spheres if not flag_sphere_problems(K.n, K.faces)] != flag:
            problems.append("is_flag disagrees with the independent flag test")
        forms = sorted(lib.form_hex(lib.canonical_form(K)) for K in spheres)
        if len(set(forms)) != len(forms):
            problems.append("two enumerated spheres share a canonical form")
        digest = sha("\n".join(forms))
        if digest != self.forms_pin:
            problems.append(f"class-set digest {digest[:12]} != pinned {self.forms_pin[:12]}")
        return problems


class Certify:
    """``reduce`` then ``verify-cert`` on many small seeded flag spheres."""

    name = "certify"

    def __init__(self, sizes=None, pass_pins=None):
        # 30 spheres at n = 15 put the median inside one size, not between two
        self.sizes = sizes or [n for n in range(10, 21) for _ in range(30 if n == 15 else 8)]
        self.pass_pins = pass_pins if pass_pins is not None else CERTIFY_PINS

    def make_inputs(self, seed):
        return [texts[0] for texts in flag_sphere_texts(self.sizes, seed)]

    def run_item(self, lib, text, workdir):
        cert = lib.reduce_to_octahedron(lib.parse_tri(text))
        js = lib.certificate_to_json(cert)
        back = lib.certificate_from_json(js)
        check = lib.verify_certificate(back)
        return cert, js, back, check.ok, check.reason

    def fingerprint(self, output):
        return sha(output[1])

    def check_item(self, lib, text, output):
        cert, js, back, ok, reason = output
        n, faces = _faces_of(text)
        problems = []
        if not ok:
            problems.append(f"certificate does not verify: {reason}")
        if len(cert.steps) != n - 6:
            problems.append(f"{len(cert.steps)} steps for n={n}, expected {n - 6}")
        if sorted(tuple(sorted(f)) for f in faces) != list(back.start.faces):
            problems.append("certificate start is not the input sphere")
        if lib.certificate_to_json(back) != js:
            problems.append("certificate JSON does not round-trip")
        problems += replay_problems(n, faces, back)
        first = back.steps[0]
        forged = replace(back, steps=(replace(first, relabel=first.relabel[::-1]),) + back.steps[1:])
        if lib.verify_certificate(forged):
            problems.append("a certificate with a forged relabeling verifies")
        return problems


class Large:
    """Canonical form, belts and a certified reduction on large seeded spheres."""

    name = "large"

    def __init__(self, sizes=(100, 150, 150, 150, 200), pass_pins=None):
        self.sizes = list(sizes)
        self.pass_pins = pass_pins if pass_pins is not None else LARGE_PINS

    def make_inputs(self, seed):
        return flag_sphere_texts(self.sizes, seed, relabeled_copy=True)

    def run_item(self, lib, texts, workdir):
        K = lib.parse_tri(texts[0])
        K2 = lib.parse_tri(texts[1])
        form = lib.canonical_form(K)
        form2 = lib.canonical_form(K2)
        found = lib.belts(K)
        cert = lib.reduce_to_octahedron(K)
        js = lib.certificate_to_json(cert)
        back = lib.certificate_from_json(js)
        return form, form2, found, cert, js, back

    def fingerprint(self, output):
        form, form2, found, cert, js, back = output
        return sha(form + repr([b.cycle for b in found]).encode() + js.encode())

    def check_item(self, lib, texts, output):
        form, form2, found, cert, js, back = output
        n, faces = _faces_of(texts[0])
        problems = []
        if form != form2:
            problems.append("canonical form differs from that of a relabeling")
        if len(cert.steps) != n - 6:
            problems.append(f"{len(cert.steps)} steps for n={n}, expected {n - 6}")
        if lib.certificate_to_json(back) != js:
            problems.append("certificate JSON does not round-trip")
        adj = _adjacency(n, faces)
        for belt in found:
            a, b, c, d = belt.cycle
            if not (b in adj[a] and c in adj[b] and d in adj[c] and a in adj[d]) or c in adj[a] or d in adj[b]:
                problems.append(f"{belt.cycle} is not an induced 4-cycle")
                break
        problems += flag_sphere_problems(n, faces)
        problems += replay_problems(n, faces, cert)
        return problems


HASSE_PINS = {
    "json": "3b68244c34831d2ed03dcd16116fba2dfe5919ee319dd67c3a0c6cc9eaa257f8",
    "dot": "de03f5a545f0e38bc0669928f04acb7ac036dcefbd3fed038cccb10c33e84768",
    "tsv": "824c95c75c5500a71073481bd5db71fd7d81e69229bc022a4a52dab3dbb50f45",
}
# sha256 of the sorted form_hex digests of all 306 classes with n <= 10.
ENUMERATE_FORMS_PIN = "0f7a29937ac307eaea4f1f9e291e73b796db36776d14f20f4506a709d9c38018"
# sha256 over the concatenated item fingerprints of one pass, at DEFAULT_SEED.
CERTIFY_PINS = {DEFAULT_SEED: "bbb0375c708b6ef5919fe74e6e13b5493c182b7fc7deadcc9d41975597667489"}
LARGE_PINS = {DEFAULT_SEED: "48a82bf5dd3bd14d30d77bdd08f9e06b3503686f94e38602d2038b715e8a025e"}

WORKLOADS = {w.name: w for w in (Hasse(), Enumerate(), Certify(), Large())}
