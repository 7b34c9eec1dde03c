"""Command-line interface.

Every library operation is exposed on files and streams.  Inputs named
"-" read stdin; output options named "-" write stdout, and the command's
status lines then go to stderr, so stdout holds the output alone.
Domain errors exit 1 with a single machine-parseable line
`ERR <CODE>: <detail>` on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .canonical import canonical_form, form_hex
from .contraction import (
    certificate_from_json,
    certificate_to_json,
    contract,
    reduce_to_octahedron,
    verify_certificate,
)
from .errors import FlagsphereError, FormatError
from .expansion import expansion_bound, flag_splits, split_vertex
from .flags import belt_covered_edges, belts, is_flag, missing_triangles
from .hasse import build, export_dot, export_json, export_levels_tsv, verify_degree_bounds
from .oracle import enumerate_all_spheres
from .sphere import SimplicialSphere, dump_corpus, dump_tri, parse_tri

def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not valid UTF-8: {exc}") from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_sphere(path: str) -> SimplicialSphere:
    return parse_tri(_read_text(path))


def _cmd_validate(args) -> int:
    K = _load_sphere(args.file)
    print(f"V={K.n} E={K.n_edges} F={K.n_faces}")
    return 0


def _cmd_flag(args) -> int:
    K = _load_sphere(args.file)
    print(f"flag: {'true' if is_flag(K) else 'false'}")
    for a, b, c in missing_triangles(K):
        print(f"missing: {a} {b} {c}")
    return 0


def _cmd_belts(args) -> int:
    K = _load_sphere(args.file)
    for belt in belts(K):
        a, b, c, d = belt.cycle
        print(f"belt: {a} {b} {c} {d}")
    covered = belt_covered_edges(K)
    free = [e for e in K.edges if e not in covered]
    for u, v in free:
        print(f"belt-free: {u} {v}")
    print(f"belt-free edges: {len(free)}")
    return 0


def _cmd_contract(args) -> int:
    K = _load_sphere(args.file)
    sys.stdout.write(dump_tri(contract(K, (args.u, args.v))))
    return 0


def _status_stream(*outputs):
    """stderr when an export goes to stdout, so the export stays clean; else stdout."""
    return sys.stderr if "-" in outputs else sys.stdout


def _cmd_reduce(args) -> int:
    K = _load_sphere(args.file)
    cert = reduce_to_octahedron(K)
    print(f"steps: {len(cert.steps)}", file=_status_stream(args.cert))
    if args.cert:
        _write_text(args.cert, certificate_to_json(cert))
    return 0


def _cmd_verify_cert(args) -> int:
    cert = certificate_from_json(_read_text(args.file))
    check = verify_certificate(cert)
    if check:
        print("certificate: valid")
        return 0
    print(f"ERR CERT_INVALID: {check.reason}", file=sys.stderr)
    return 1


def _cmd_expand(args) -> int:
    K = _load_sphere(args.file)
    specs = list(flag_splits(K))
    print(f"bound: {expansion_bound(K)}")
    print(f"expansions: {len(specs)}")
    if args.all:
        for spec in specs:
            hx = form_hex(canonical_form(split_vertex(K, spec)))[:12]
            print(f"split: {spec.w} {spec.a} {spec.b} form={hx}")
    return 0


def _cmd_enumerate(args) -> int:
    spheres = enumerate_all_spheres(args.max_n, jobs=args.jobs)
    if args.flag_only:
        spheres = [K for K in spheres if is_flag(K)]
    _write_text(args.corpus, dump_corpus(spheres))
    counts = {n: 0 for n in range(4, args.max_n + 1)}
    for K in spheres:
        counts[K.n] += 1
    lines = ["n\tcount"]
    lines.extend(f"{n}\t{counts[n]}" for n in sorted(counts))
    sys.stderr.write("\n".join(lines) + "\n")
    return 0


def _cmd_hasse(args) -> int:
    outputs = (args.dot, args.json, args.tsv)
    if outputs.count("-") > 1:
        print("flagsphere hasse: error: only one export can go to stdout (-)", file=sys.stderr)
        return 2
    G = build(args.max_n, jobs=args.jobs)
    status = _status_stream(*outputs)
    print("levels: " + " ".join(f"{n}:{c}" for n, c in G.level_counts().items()), file=status)
    for path, export in zip(outputs, (export_dot, export_json, export_levels_tsv)):
        if path:
            _write_text(path, export(G))
    report = verify_degree_bounds(G)
    if report.ok:
        print("bounds OK", file=status)
        return 0
    for e in report.violations:
        print(
            f"bound violation: {e.form_hex[:12]} n={e.n}"
            f" in={e.in_degree}/{e.belt_free_edges}"
            f" out={e.out_degree}/{e.expansion_bound}",
            file=sys.stderr,
        )
    return 1


def _cmd_canon(args) -> int:
    print(form_hex(canonical_form(_load_sphere(args.file))))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flagsphere",
        description="Flag simplicial 2-spheres: contraction, expansion, and the Hasse graph.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("validate", help="check a .tri file and print V/E/F")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("flag", help="flagness verdict plus any missing triangles")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_flag)

    sp = sub.add_parser("belts", help="list belts and belt-free edges")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_belts)

    sp = sub.add_parser("contract", help="contract edge {u, v} and print the result")
    sp.add_argument("file")
    sp.add_argument("u", type=int)
    sp.add_argument("v", type=int)
    sp.set_defaults(handler=_cmd_contract)

    sp = sub.add_parser("reduce", help="contract down to the octahedron")
    sp.add_argument("file")
    sp.add_argument("--cert", metavar="OUT", help="write the certificate JSON here")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser("verify-cert", help="replay and check a certificate")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_verify_cert)

    sp = sub.add_parser("expand", help="count (and list) flag-preserving splits")
    sp.add_argument("file")
    sp.add_argument("--all", action="store_true", help="list every split")
    sp.set_defaults(handler=_cmd_expand)

    sp = sub.add_parser("enumerate", help="enumerate all sphere classes up to a budget")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--flag-only", action="store_true")
    sp.add_argument("--corpus", metavar="OUT", default="-", help="corpus output (default stdout)")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(handler=_cmd_enumerate)

    sp = sub.add_parser("hasse", help="build the contraction Hasse graph and check bounds")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--dot", metavar="OUT")
    sp.add_argument("--json", metavar="OUT")
    sp.add_argument("--tsv", metavar="OUT")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(handler=_cmd_hasse)

    sp = sub.add_parser("canon", help="print the canonical form digest")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_canon)

    return p


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except FlagsphereError as exc:
        print(f"ERR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERR IO: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
