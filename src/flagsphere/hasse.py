"""The Hasse graph of the contraction order on flag spheres.

Nodes are isomorphism classes of flag spheres with 6 <= n <= max_n, each
held as its canonical form; ``node.sphere`` decodes it on every access, so
hold the result to reuse it.  An arc runs from class A to class B when some
flag sphere in B has a flag-preserving contraction landing in A, so arcs
point from the smaller sphere to the larger and the octahedron is the
unique source.  The graph is grown breadth-first from the octahedron by
flag-preserving vertex splits; completeness follows from every flag
sphere's contraction path down to the octahedron, reversed.

Splits that an automorphism of the parent maps onto each other give
isomorphic children, hence the same arc, so each parent is split once per
orbit of its splits (w, {a, b}) under its group: the first split of an
orbit in :func:`flag_splits` order is made and the rest are skipped.
:func:`build` decodes each parent once, when it splits it; its group is
:func:`canonical_automorphisms` of that canonical representative, one
search per parent.  A child is matched against the classes of its level
found so far, and only a child of a new class is searched (see
``canonical._FormIndex``).  The first split of each orbit met its class
first, so nodes and arcs are as with every split made.

Two per-node degree bounds hold and are checked by verify_degree_bounds:
in-degree is at most the number of belt-free edges (each in-arc consumes a
flag-contractible edge of the representative) and out-degree is at most
the sum of link-polygon diagonal counts (each out-arc is a flag-preserving
split).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .canonical import (
    _FormIndex,
    canonical_automorphisms,
    canonical_form,
    decode_form,
    encode_face_set,
    form_hex,
    sphere_from_form,
)
from .contraction import _json_list
from .errors import BudgetTooSmall, FormatError
from .expansion import expansion_bound, flag_splits, split_vertex
from .flags import belt_covered_edges, is_flag
from .sphere import SimplicialSphere, from_faces, octahedron


@dataclass(frozen=True, slots=True)
class HasseNode:
    form: bytes
    n: int

    @property
    def sphere(self) -> SimplicialSphere:
        """The canonical representative, decoded anew on each access."""
        return sphere_from_form(self.form)


@dataclass(frozen=True)
class HasseGraph:
    max_n: int
    nodes: dict[bytes, HasseNode]
    arcs: frozenset[tuple[bytes, bytes]]

    def level_counts(self) -> dict[int, int]:
        """Node count per vertex count, keys ascending."""
        counts = Counter(node.n for node in self.nodes.values())
        return {n: counts[n] for n in sorted(counts)}


def build(max_n: int, jobs: int = 1) -> HasseGraph:
    """All flag-sphere classes with 6 <= n <= max_n and their contraction arcs.

    Breadth-first from the octahedron, splitting each parent once per
    orbit of its flag splits under the group of its own sphere.  Nodes
    hold canonical forms and arcs hold the very form objects keyed in
    ``nodes``; each parent is decoded once, to its canonical
    representative, when it is split, so that group is the parent's own.
    ``jobs`` is accepted for compatibility and has no effect: the work is
    pure Python, which threads cannot run in parallel.
    """
    if type(max_n) is not int or max_n < 6:
        raise BudgetTooSmall(f"need max_n >= 6, got {max_n!r}")
    f0 = canonical_form(octahedron())
    nodes = {f0: HasseNode(f0, 6)}
    arcs = []
    for n in range(6, max_n):
        index = _FormIndex()
        for parent in [f for f, node in nodes.items() if node.n == n]:
            K = sphere_from_form(parent)
            group = canonical_automorphisms(K)
            seen = set()
            children = set()
            for spec in flag_splits(K):
                w, a, b = spec.w, spec.a, spec.b
                if ((w, a, b) if a < b else (w, b, a)) in seen:
                    continue
                for p in group:
                    pa, pb = p[a], p[b]
                    seen.add((p[w], pa, pb) if pa < pb else (p[w], pb, pa))
                child = split_vertex(K, spec)
                cf = index.form(child)
                if cf not in nodes:
                    nodes[cf] = HasseNode(cf, n + 1)
                children.add(cf)
            arcs.extend((parent, cf) for cf in children)
    # A list, not a set, so that the frozenset is the only hash table of arcs.
    return HasseGraph(max_n, nodes, frozenset(arcs))


@dataclass(frozen=True)
class BoundEntry:
    form_hex: str
    n: int
    in_degree: int
    belt_free_edges: int
    out_degree: int
    expansion_bound: int
    out_checked: bool
    ok: bool


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple[BoundEntry, ...]

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def verify_degree_bounds(G: HasseGraph) -> BoundsReport:
    """Check both degree bounds on every node; violations become entries.

    The out-degree bound is only meaningful for nodes below the budget
    (nodes at max_n have no children in G); their entries carry
    out_checked=False.
    """
    in_deg = Counter(dst for _, dst in G.arcs)
    out_deg = Counter(src for src, _ in G.arcs)
    entries = []
    for form, node in sorted(G.nodes.items()):
        K = node.sphere
        belt_free = K.n_edges - len(belt_covered_edges(K))
        bound = expansion_bound(K)
        out_checked = node.n < G.max_n
        ok = in_deg[form] <= belt_free and (
            not out_checked or out_deg[form] <= bound
        )
        entries.append(
            BoundEntry(
                form_hex=form_hex(form),
                n=node.n,
                in_degree=in_deg[form],
                belt_free_edges=belt_free,
                out_degree=out_deg[form],
                expansion_bound=bound,
                out_checked=out_checked,
                ok=ok,
            )
        )
    return BoundsReport(tuple(entries))


def export_dot(G: HasseGraph) -> str:
    """Deterministic DOT rendering, nodes and arcs sorted by form."""
    lines = ["digraph hasse {"]
    for form in sorted(G.nodes):
        node = G.nodes[form]
        hx = form_hex(form)
        lines.append(f'  "{hx}" [label="{hx[:12]} n={node.n}"];')
    for src, dst in sorted(G.arcs):
        lines.append(f'  "{form_hex(src)}" -> "{form_hex(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPH_FORMAT = "hasse-graph"
_GRAPH_VERSION = 1


def export_json(G: HasseGraph) -> str:
    """Deterministic JSON rendering; import_json inverts it exactly.

    Written as ``json.dumps(obj, indent=2) + "\\n"`` would write it, one
    join per list, as :func:`certificate_to_json` is.
    """
    def node(form):
        faces = (_json_list(map(str, f), "        ") for f in decode_form(form)[1])
        return (
            f'{{\n      "form": "{form_hex(form)}",\n      "n": {G.nodes[form].n},'
            f'\n      "faces": {_json_list(faces, "      ")}\n    }}'
        )

    nodes = _json_list(map(node, sorted(G.nodes)), "  ")
    arcs = _json_list((
        _json_list((f'"{form_hex(a)}"', f'"{form_hex(b)}"'), "    ") for a, b in sorted(G.arcs)
    ), "  ")
    return (
        f'{{\n  "format": "{_GRAPH_FORMAT}",\n  "version": {_GRAPH_VERSION},'
        f'\n  "max_n": {G.max_n},\n  "nodes": {nodes},\n  "arcs": {arcs}\n}}\n'
    )


def import_json(text: str) -> HasseGraph:
    """Rebuild a graph from export_json output.

    Every node is revalidated as a sphere and its recomputed form must
    hash to the stored one, so a tampered file cannot round-trip.  What
    :func:`build` cannot write is rejected too: ``max_n < 6``, a node
    with ``n`` outside ``6..max_n``, a non-flag node, a node listed
    twice, an arc that does not go up exactly one level, and an arc
    listed twice.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"graph file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != _GRAPH_FORMAT:
        raise FormatError("not a hasse graph file")
    if type(obj.get("version")) is not int or obj["version"] != _GRAPH_VERSION:
        raise FormatError(f"unsupported graph version {obj.get('version')!r}")
    if (
        type(obj.get("max_n")) is not int
        or not isinstance(obj.get("nodes"), list)
        or not isinstance(obj.get("arcs"), list)
    ):
        raise FormatError("graph file must carry max_n, a node list and an arc list")
    max_n = obj["max_n"]
    if max_n < 6:
        raise FormatError(f"graph max_n must be at least 6, got {max_n}")
    nodes = {}
    by_hex = {}
    for entry in obj["nodes"]:
        if (
            not isinstance(entry, dict)
            or type(entry.get("n")) is not int
            or not isinstance(entry.get("faces"), list)
            or not isinstance(entry.get("form"), str)
        ):
            raise FormatError("graph node entry is malformed")
        if not 6 <= entry["n"] <= max_n:
            raise FormatError(f"graph node has n = {entry['n']}, outside 6..{max_n}")
        sphere = from_faces(entry["n"], entry["faces"])
        form = canonical_form(sphere)
        if form != encode_face_set(sphere.n, sphere.faces) or form_hex(form) != entry["form"]:
            raise FormatError(
                f"node {entry['form'][:12]} is not a canonically labeled"
                " representative of its own form"
            )
        if form in nodes:
            raise FormatError(f"node {entry['form'][:12]} is listed twice")
        if not is_flag(sphere):
            raise FormatError(f"node {entry['form'][:12]} is not a flag sphere")
        nodes[form] = HasseNode(form, sphere.n)
        by_hex[entry["form"]] = form
    arcs = set()
    for arc in obj["arcs"]:
        if (
            not isinstance(arc, list)
            or len(arc) != 2
            or not all(isinstance(h, str) and h in by_hex for h in arc)
        ):
            raise FormatError("graph arc references an unknown node")
        tail, head = by_hex[arc[0]], by_hex[arc[1]]
        if nodes[head].n != nodes[tail].n + 1:
            raise FormatError(
                f"graph arc {arc[0][:12]} -> {arc[1][:12]} does not go up one level"
            )
        if (tail, head) in arcs:
            raise FormatError(f"graph arc {arc[0][:12]} -> {arc[1][:12]} is listed twice")
        arcs.add((tail, head))
    return HasseGraph(max_n, nodes, frozenset(arcs))


def export_levels_tsv(G: HasseGraph) -> str:
    """Per-level summary: vertex count, class count, arcs entering the level."""
    arcs_into = Counter(G.nodes[dst].n for _, dst in G.arcs)
    lines = ["n\tcount\tarcs_in_level"]
    for n, count in G.level_counts().items():
        lines.append(f"{n}\t{count}\t{arcs_into[n]}")
    return "\n".join(lines) + "\n"
