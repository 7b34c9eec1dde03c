"""Edge contraction, contractibility predicates, and certified reduction.

Contracting an edge {u, v} merges its endpoints and deletes the two
incident triangles.  The result is again a simplicial sphere exactly when
the link condition holds (the endpoints have exactly two common
neighbours, the edge's two apexes, and the sphere is not the
tetrahedron); it is again flag exactly when the edge lies in no belt.
Every flag sphere reduces to the octahedron by repeatedly contracting
belt-free edges, and the reduction is recorded as a replayable
certificate.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

from .errors import (
    FlagsphereError,
    FormatError,
    InternalMinimalityViolation,
    LinkConditionViolated,
)
from .flags import _belt_side, _norm_edge, _require_flag, belt_covered_edges, edge_in_belt
from .oracle import (
    ReplayState,
    brute_is_flag,
    brute_isomorphic,
    clique_is_flag,
    clique_is_flag_at,
    edge_belts,
)
from .sphere import (
    SimplicialSphere,
    _compacted,
    _contract_rotations,
    _rotations,
    from_faces,
    octahedron,
)


def _link_ok(rot_u, rot_v, n: int) -> bool:
    """:func:`link_condition` from the rotations of u and v on an n-vertex sphere.

    The two apexes are always common neighbours, so "only the apexes" is
    "exactly two".  If u and v share only their apexes p and q, and u-p-q
    and v-p-q are both faces, every edge of uvp, uvq, upq and vpq lies in
    two of those four faces, which thus close up into a sphere; a sphere
    is connected, so it is the tetrahedron, on which every edge is such an
    edge.
    """
    return n > 4 and len(rot_u.keys() & rot_v.keys()) == 2


def link_condition(K: SimplicialSphere, e) -> bool:
    """True iff contracting ``e`` yields a simplicial sphere.

    Requires the endpoints to have exactly two common neighbors, which
    are then the two apexes of the edge's faces, and the sphere not to be
    the tetrahedron, whose contractions collapse.
    """
    u, v = _norm_edge(K, e)
    return _link_ok(K.rotation(u), K.rotation(v), K.n)


def _contract_step(succ, alive: list[int], u: int, v: int) -> CertStep:
    """Check the link condition, then contract {u, v}, u < v, in ``succ`` in place.

    ``alive`` lists the surviving labels in increasing order; a vertex's
    current label is its rank there, and ``v`` leaves it.  Returns the
    step, edge and relabeling, in current labels.
    """
    if not _link_ok(succ[u], succ[v], len(alive)):
        raise LinkConditionViolated(
            f"contracting {{{u}, {v}}} would not produce a simplicial sphere"
        )
    _contract_rotations(succ, u, v)
    i, j = bisect_left(alive, u), bisect_left(alive, v)
    del alive[j]
    return CertStep((i, j), (*range(j), i, *range(j, len(alive))))


def contract_mapped(K: SimplicialSphere, e) -> tuple[SimplicialSphere, tuple[int, ...]]:
    """Contract ``e``, returning the sphere and the old->new label map.

    The merged vertex keeps the smaller endpoint label and the remaining
    labels are compacted to 0..n-2.
    """
    u, v = _norm_edge(K, e)
    succ = [dict(r) for r in _rotations(K)]
    alive = list(range(K.n))
    relabel = _contract_step(succ, alive, u, v).relabel
    return _compacted(succ, alive), relabel


def contract(K: SimplicialSphere, e) -> SimplicialSphere:
    """Contract ``e`` (see contract_mapped; drops the relabeling map)."""
    return contract_mapped(K, e)[0]


def is_flag_contractible(K: SimplicialSphere, e) -> bool:
    """For flag ``K``: does contracting ``e`` keep the sphere flag?"""
    _require_flag(K)
    return not edge_in_belt(K, e)


def is_minimal(K: SimplicialSphere) -> bool:
    """True iff no flag-preserving contraction exists (every edge belted)."""
    _require_flag(K)
    return len(belt_covered_edges(K)) == K.n_edges


def square_link_vertices(K: SimplicialSphere) -> set[int]:
    """Vertices of degree 4 whose link 4-cycle has no chord."""
    out = set()
    for v in range(K.n):
        if K.degree(v) != 4:
            continue
        a, b, c, d = K.link_cycle(v)
        if not K.has_edge(a, c) and not K.has_edge(b, d):
            out.add(v)
    return out


@dataclass(frozen=True)
class CertStep:
    """One contraction: the edge (in the current labeling) and the label map."""

    edge: tuple[int, int]
    relabel: tuple[int, ...]


@dataclass(frozen=True)
class ContractionCertificate:
    start: SimplicialSphere
    steps: tuple[CertStep, ...]
    end: SimplicialSphere


@dataclass(frozen=True)
class CertificateCheck:
    """Boolean verdict plus a first-failure diagnostic."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def reduce_to_octahedron(K: SimplicialSphere) -> ContractionCertificate:
    """Greedily contract the first belt-free edge until 6 vertices remain.

    Edges are tried in lexicographic (min, max) order, each by the local
    belt-side test, and the first one on no belt is contracted, so the
    certificate is a pure function of the input labeling.  A flag sphere
    on more than 6 vertices always has a belt-free edge; running out of
    them is an internal failure, not a caller error.

    The reduction contracts in place, in the input's labels: it keeps one
    list of rotation maps, read directly by the belt tests, and contracts
    each edge by :func:`_contract_step`, as :func:`contract_mapped` does,
    which changes only the maps of the edge's ends, its two apexes and v's
    neighbors.  One sphere is built, at the end, by the same compaction,
    and it is recognised as the octahedron by its degrees: the only
    triangulated 2-sphere on 6 vertices with every degree 4.
    """
    _require_flag(K)
    succ = [dict(r) for r in _rotations(K)]
    alive = list(range(K.n))
    steps = []
    while len(alive) > 6:
        edge = next(
            (
                (u, v)
                for u in alive
                for v in sorted(w for w in succ[u] if w > u)
                if not _belt_side(succ, u, v)
            ),
            None,
        )
        if edge is None:
            raise InternalMinimalityViolation(
                f"flag sphere on {len(alive)} vertices has every edge in a belt"
            )
        steps.append(_contract_step(succ, alive, *edge))
    end = _compacted(succ, alive)
    if any(len(rot) != 4 for rot in end.adjacency):
        raise InternalMinimalityViolation(
            "reduction ended on a 6-vertex sphere that is not the octahedron"
        )
    return ContractionCertificate(K, tuple(steps), end)


def verify_certificate(cert: ContractionCertificate) -> CertificateCheck:
    """Replay a certificate against the oracle's literal predicates only.

    Checks the step count, flagness and belt-freeness at every step, the
    recorded relabelings, exact equality of the replayed end, and that the
    end is the octahedron.  The start's flagness is tested by listing the
    cliques of its edge graph (:func:`clique_is_flag`); after each step
    only the cliques through the merged vertex are new, and only those are
    listed (:func:`clique_is_flag_at`).  Belts are tested only on the
    4-sets through the contracted edge (:func:`edge_belts`).  These read
    the definitions literally and share no code with :mod:`flags`.  The
    replay contracts a :class:`ReplayState` in place, in the start's
    labels, and checks the sphere conditions at the vertices each step
    touches, so it shares no code with :func:`contract_mapped`; the
    recorded relabeling must be the rank compaction.  The 6-vertex end is
    checked by :func:`brute_is_flag` and :func:`brute_isomorphic`.  Never
    raises on bad certificates; the verdict carries the first failure.
    """

    def fail(reason: str) -> CertificateCheck:
        return CertificateCheck(False, reason)

    if cert.start.n < 6:
        return fail(
            f"start has {cert.start.n} vertices; a reduction to the octahedron"
            " needs at least 6"
        )
    if len(cert.steps) != cert.start.n - 6:
        return fail(
            f"expected {cert.start.n - 6} steps for {cert.start.n} vertices,"
            f" certificate has {len(cert.steps)}"
        )
    state = ReplayState(cert.start)
    alive = state.alive
    merged = None
    for idx, step in enumerate(cert.steps):
        if not (
            clique_is_flag(cert.start) if merged is None
            else clique_is_flag_at(state, merged)
        ):
            return fail(f"step {idx}: sphere is not flag")
        try:
            u, v = step.edge
        except (TypeError, ValueError):
            return fail(f"step {idx}: edge {step.edge!r} is not a vertex pair")
        m = len(alive)
        if (
            type(u) is not int or type(v) is not int
            or not (0 <= u < m and 0 <= v < m and state.has_edge(alive[u], alive[v]))
        ):
            return fail(f"step {idx}: {{{u}, {v}}} is not an edge")
        if edge_belts(state, alive[u], alive[v]):
            return fail(f"step {idx}: edge {{{u}, {v}}} lies in a belt")
        if u > v:
            u, v = v, u
        merged = alive[u]
        try:
            if not state.contract(merged, alive[v]):
                # the reason, as the full check reads it off the whole face list
                from_faces(m - 1, state.faces())
        except FlagsphereError as exc:
            return fail(f"step {idx}: contraction failed: {exc}")
        if (*range(v), u, *range(v, m - 1)) != step.relabel:
            return fail(f"step {idx}: recorded relabeling does not match replay")
    end = cert.end
    if not isinstance(end, SimplicialSphere) or (end.n, end.faces) != (
        len(alive), state.faces()
    ):
        return fail("replayed end sphere differs from recorded end")
    if not brute_is_flag(end):
        return fail("end sphere is not flag")
    if not brute_isomorphic(end, _OCTAHEDRON):
        return fail("end sphere is not the octahedron")
    return CertificateCheck(True, "ok")


_OCTAHEDRON = octahedron()

_CERT_FORMAT = "contraction-certificate"
_CERT_VERSION = 1


def _sphere_from_obj(obj, what: str) -> SimplicialSphere:
    if (
        not isinstance(obj, dict)
        or type(obj.get("n")) is not int
        or not isinstance(obj.get("faces"), list)
    ):
        raise FormatError(f"certificate {what} must be an object with n and faces")
    return from_faces(obj["n"], obj["faces"])


def _json_list(items, pad: str) -> str:
    """The JSON texts ``items`` as ``json.dumps(indent=2)`` writes a list
    opened at ``pad``: ``[]`` when there are none."""
    body = f",\n{pad}  ".join(items)
    return f"[\n{pad}  {body}\n{pad}]" if body else "[]"


def _sphere_json(K: SimplicialSphere) -> str:
    faces = _json_list((_json_list(map(str, f), "      ") for f in K.faces), "    ")
    return f'{{\n    "n": {K.n},\n    "faces": {faces}\n  }}'


def certificate_to_json(cert: ContractionCertificate) -> str:
    """The certificate as ``json.dumps(obj, indent=2) + "\\n"`` would write it.

    The fixed layout is written directly, one join per list, since
    ``indent`` always selects the pure-Python encoder.
    """
    steps = _json_list((
        f'{{\n      "edge": {_json_list(map(str, s.edge), "      ")},'
        f'\n      "relabel": {_json_list(map(str, s.relabel), "      ")}\n    }}'
        for s in cert.steps
    ), "  ")
    return (
        f'{{\n  "format": "{_CERT_FORMAT}",\n  "version": {_CERT_VERSION},'
        f'\n  "start": {_sphere_json(cert.start)},\n  "steps": {steps},'
        f'\n  "end": {_sphere_json(cert.end)}\n}}\n'
    )


def certificate_from_json(text: str) -> ContractionCertificate:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # RecursionError, arrays nested deeper than the parser's stack.
        raise FormatError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != _CERT_FORMAT:
        raise FormatError("not a contraction certificate")
    if type(obj.get("version")) is not int or obj["version"] != _CERT_VERSION:
        raise FormatError(f"unsupported certificate version {obj.get('version')!r}")
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise FormatError("certificate steps must be a list")
    steps = []
    for i, s in enumerate(raw_steps):
        if (
            not isinstance(s, dict)
            or not isinstance(s.get("edge"), list)
            or len(s["edge"]) != 2
            or not all(type(x) is int for x in s["edge"])
            or not isinstance(s.get("relabel"), list)
            or not all(type(x) is int for x in s["relabel"])
        ):
            raise FormatError(f"certificate step {i} is malformed")
        steps.append(CertStep((s["edge"][0], s["edge"][1]), tuple(s["relabel"])))
    return ContractionCertificate(
        _sphere_from_obj(obj.get("start"), "start"),
        tuple(steps),
        _sphere_from_obj(obj.get("end"), "end"),
    )
