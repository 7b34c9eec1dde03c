"""The in-place certificate replay against a full rebuild per step.

``verify_certificate`` contracts one ``ReplayState`` in place and tests
flagness after a step only at the merged vertex (``clique_is_flag_at``).
The reference replay here rebuilds each step's sphere from its relabeled
face list with ``from_faces`` and tests it with the brute predicates, as
the verifier did before it replayed in place.  Both must give the same
verdict and reason on every certificate, tampered ones included.
"""

from dataclasses import replace

import pytest

import flagsphere as fs
from flagsphere import contraction
from flagsphere.oracle import ReplayState


def reference_verify(cert, belts=True):
    """``(ok, reason)`` by a full rebuild and brute predicates at every step."""
    start = cert.start
    if start.n < 6:
        return False, (
            f"start has {start.n} vertices; a reduction to the octahedron needs at least 6"
        )
    if len(cert.steps) != start.n - 6:
        return False, (
            f"expected {start.n - 6} steps for {start.n} vertices,"
            f" certificate has {len(cert.steps)}"
        )
    cur = start
    for idx, step in enumerate(cert.steps):
        if not fs.brute_is_flag(cur):
            return False, f"step {idx}: sphere is not flag"
        try:
            u, v = step.edge
        except (TypeError, ValueError):
            return False, f"step {idx}: edge {step.edge!r} is not a vertex pair"
        if type(u) is not int or type(v) is not int or not cur.has_edge(u, v):
            return False, f"step {idx}: {{{u}, {v}}} is not an edge"
        if belts and any({u, v} <= b.vertices for b in fs.brute_belts(cur)):
            return False, f"step {idx}: edge {{{u}, {v}}} lies in a belt"
        u, v = min(u, v), max(u, v)
        relabel = tuple(w if w < v else (u if w == v else w - 1) for w in range(cur.n))
        faces = [
            tuple(relabel[x] for x in f) for f in cur.faces if not {u, v} <= set(f)
        ]
        try:
            nxt = fs.from_faces(cur.n - 1, faces)
        except fs.FlagsphereError as exc:
            return False, f"step {idx}: contraction failed: {exc}"
        if relabel != step.relabel:
            return False, f"step {idx}: recorded relabeling does not match replay"
        cur = nxt
    if cur != cert.end:
        return False, "replayed end sphere differs from recorded end"
    if not fs.brute_is_flag(cur):
        return False, "end sphere is not flag"
    if not fs.brute_isomorphic(cur, fs.octahedron()):
        return False, "end sphere is not the octahedron"
    return True, "ok"


def same_verdict(cert, belts=True):
    check = fs.verify_certificate(cert)
    assert (check.ok, check.reason) == reference_verify(cert, belts)
    return check.reason


def forced_step(K, edge):
    u, v = sorted(edge)
    return fs.CertStep(edge, tuple(w if w < v else (u if w == v else w - 1) for w in range(K.n)))


def with_step(cert, idx, step):
    return replace(cert, steps=cert.steps[:idx] + (step,) + cert.steps[idx + 1 :])


def tampered(cert):
    """Copies of ``cert`` with one step tampered, for every step: a non-edge,
    ends out of range, the edge reversed, the relabeling cut short and the
    least and greatest belt sides, if any."""
    cur = cert.start
    for idx, step in enumerate(cert.steps):
        u, v = step.edge
        non_edge = next(
            (a, b) for a in range(cur.n) for b in range(a + 1, cur.n) if not cur.has_edge(a, b)
        )
        yield with_step(cert, idx, forced_step(cur, non_edge))
        for edge in ((u, -1), (-1, v), (u, cur.n), (v, u)):
            yield with_step(cert, idx, replace(step, edge=edge))
        yield with_step(cert, idx, replace(step, relabel=step.relabel[:-1]))
        sides = sorted({s for belt in fs.brute_belts(cur) for s in belt.sides})
        for side in sides[:1] + sides[-1:]:
            yield with_step(cert, idx, forced_step(cur, side))
        cur = fs.contract(cur, step.edge)


def test_clique_is_flag_at_matches_brute_after_each_contraction(
    corpus9, flag_corpus10, graph11
):
    spheres = corpus9 + flag_corpus10 + [node.sphere for node in graph11.nodes.values()]
    seen = {True: 0, False: 0}
    for K in spheres:
        if not fs.brute_is_flag(K):
            continue
        for u, v in K.edges:
            if not fs.link_condition(K, (u, v)):
                continue
            result = fs.contract(K, (u, v))
            want = fs.brute_is_flag(result)
            assert fs.clique_is_flag_at(result, min(u, v)) == want, (K, u, v)
            seen[want] += 1
    # belt sides give non-flag results, the other edges flag ones
    assert seen[True] and seen[False]


def test_replay_matches_full_rebuild_on_tampered_graph11_certificates(graph11):
    reasons = set()
    for node in graph11.nodes.values():
        cert = fs.reduce_to_octahedron(node.sphere)
        reasons.add(same_verdict(cert))
        for forged in tampered(cert):
            reasons.add(same_verdict(forged))
    for kind in ("ok", "is not an edge", "lies in a belt", "relabeling"):
        assert any(kind in reason for reason in reasons), kind


def test_replay_matches_full_rebuild_on_non_flag_starts(corpus9):
    reasons = set()
    for K in corpus9:
        if K.n < 6 or fs.brute_is_flag(K):
            continue
        for pick in range(3):
            cur, steps = K, []
            while cur.n > 6:
                edges = [e for e in cur.edges if fs.link_condition(cur, e)]
                edge = edges[pick % len(edges)]
                cur, relabel = fs.contract_mapped(cur, edge)
                steps.append(fs.CertStep(edge, relabel))
            reasons.add(same_verdict(fs.ContractionCertificate(K, tuple(steps), cur)))
    assert reasons == {"step 0: sphere is not flag", "end sphere is not flag"}


def test_replay_matches_full_rebuild_with_the_belt_test_off(graph11):
    """Contracting a belt side makes the sphere non-flag at the next step,
    which only the merged vertex's cliques can show."""
    reasons = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "edge_belts", lambda K, u, v: set())
        for node in graph11.nodes.values():
            cert = fs.reduce_to_octahedron(node.sphere)
            for forged in tampered(cert):
                reasons.add(same_verdict(forged, belts=False))
    assert any(r.startswith("step ") and r.endswith("sphere is not flag") for r in reasons)


def test_replay_state_contracts_as_a_rebuild_does(corpus9):
    """Every edge of every sphere: the local checks accept exactly the
    contractions that ``from_faces`` accepts, those under the link condition,
    and the faces left are those of ``contract``."""
    for K in corpus9:
        if K.n < 5:
            continue
        for u, v in K.edges:
            state = ReplayState(K)
            local = state.contract(u, v)
            assert local == fs.link_condition(K, (u, v)), (K, u, v)
            if local:
                assert state.faces() == fs.contract(K, (u, v)).faces
            else:
                with pytest.raises(fs.NotASphere):
                    fs.from_faces(K.n - 1, state.faces())


def test_link_condition_and_replay_agree_with_the_rebuild(corpus10):
    """Every edge of every sphere with n <= 10, the tetrahedron included:
    the contracted face list, relabeled to ranks, is a sphere exactly when
    the link condition holds and exactly when the replay accepts the step."""
    for K in corpus10:
        for u, v in K.edges:
            relabel = tuple(w if w < v else (u if w == v else w - 1) for w in range(K.n))
            faces = [tuple(relabel[x] for x in f) for f in K.faces if not {u, v} <= set(f)]
            try:
                fs.from_faces(K.n - 1, faces)
                rebuilt = True
            except fs.NotASphere:
                rebuilt = False
            assert fs.link_condition(K, (u, v)) == rebuilt, (K, u, v)
            assert ReplayState(K).contract(u, v) == rebuilt, (K, u, v)


def test_verifier_reports_a_failed_contraction_with_the_rebuild_reason(corpus9):
    """With the flag and belt tests out of the way, a step on an edge that
    fails the link condition is refused with the reason ``from_faces`` gives
    for the contracted face list."""
    codes = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "clique_is_flag", lambda K: True)
        mp.setattr(contraction, "clique_is_flag_at", lambda state, x: True)
        mp.setattr(contraction, "edge_belts", lambda K, u, v: set())
        for K in corpus9:
            if K.n < 7:
                continue
            for u, v in K.edges:
                if fs.link_condition(K, (u, v)):
                    continue
                relabel = tuple(w if w < v else (u if w == v else w - 1) for w in range(K.n))
                faces = sorted(
                    tuple(sorted(relabel[x] for x in f)) for f in K.faces if not {u, v} <= set(f)
                )
                with pytest.raises(fs.NotASphere) as exc:
                    fs.from_faces(K.n - 1, faces)
                step = forced_step(K, (u, v))
                cert = fs.ContractionCertificate(K, (step,) * (K.n - 6), K)
                check = fs.verify_certificate(cert)
                assert not check.ok
                assert check.reason == f"step 0: contraction failed: {exc.value}", (K, u, v)
                codes.add(check.reason.split(": ")[2])
    assert codes == {"duplicate-face", "edge-degree"}
