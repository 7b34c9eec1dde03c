"""The verifier's local predicates against the brute-force oracle.

``verify_certificate`` tests flagness by listing cliques
(``clique_is_flag``) and belts only on the 4-sets through the contracted
edge (``edge_belts``).  These tests check both predicates against
``brute_is_flag`` and ``brute_belts`` on the small corpora (the n = 20..40
spheres are checked in test_belt_locality.py), and check that the
verifier gives the same verdict and reason as a replay that calls the
brute predicates at every step.
"""

from dataclasses import replace

import pytest

import flagsphere as fs
from flagsphere import contraction


def brute_verify(cert):
    """The verifier with its per-step predicates swapped for the brute ones."""
    calls = []

    def edge_belts(K, u, v):
        calls.append((u, v))
        return {b for b in fs.brute_belts(K) if {u, v} <= b.vertices}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "clique_is_flag", fs.brute_is_flag)
        mp.setattr(contraction, "edge_belts", edge_belts)
        return fs.verify_certificate(cert), calls


def assert_same_verdict(cert):
    got = fs.verify_certificate(cert)
    want, _ = brute_verify(cert)
    assert (got.ok, got.reason) == (want.ok, want.reason)
    return got


def replay(cert, steps):
    """The sphere reached after contracting the first ``steps`` edges."""
    cur = cert.start
    for step in cert.steps[:steps]:
        cur = fs.contract(cur, step.edge)
    return cur


def forced_step(K, edge):
    u, v = edge
    relabel = tuple(w if w < v else (u if w == v else w - 1) for w in range(K.n))
    return fs.CertStep(edge, relabel)


def with_step(cert, idx, step):
    return replace(cert, steps=cert.steps[:idx] + (step,) + cert.steps[idx + 1 :])


def check_predicates(K):
    assert fs.clique_is_flag(K) == fs.brute_is_flag(K)
    belts = fs.brute_belts(K)
    for u, v in K.edges:
        want = {b for b in belts if {u, v} <= b.vertices}
        assert fs.edge_belts(K, u, v) == want == fs.edge_belts(K, v, u)


def test_predicates_match_oracle_on_corpus9(corpus9):
    assert any(not fs.brute_is_flag(K) for K in corpus9)
    for K in corpus9:
        check_predicates(K)


def test_predicates_match_oracle_on_flag_corpus10(flag_corpus10):
    for K in flag_corpus10:
        check_predicates(K)


def test_edge_belts_rejects_non_edges(octa):
    with pytest.raises(fs.NotAnEdge):
        fs.edge_belts(octa, 0, 5)
    with pytest.raises(fs.BadVertex):
        fs.edge_belts(octa, True, 2)


def test_same_verdict_on_graph11(graph11):
    for node in graph11.nodes.values():
        cert = fs.reduce_to_octahedron(node.sphere)
        assert assert_same_verdict(cert).ok


def test_reference_replay_uses_brute_predicates(s7):
    cert = fs.reduce_to_octahedron(s7)
    check, calls = brute_verify(cert)
    assert check.ok and calls == [step.edge for step in cert.steps]


def forgeries(cert):
    """Tampered copies of ``cert``, each failing at a known check."""
    steps = cert.steps
    first = steps[0]
    yield with_step(cert, 0, replace(first, relabel=first.relabel[::-1]))
    yield replace(cert, steps=steps[:-1])
    yield replace(cert, steps=steps + steps[-1:])
    # swapping the labels of adjacent vertices changes the octahedron's faces
    a, b = cert.end.edges[0]
    swap = {a: b, b: a}
    swapped = [tuple(swap.get(v, v) for v in f) for f in cert.end.faces]
    yield replace(cert, end=fs.from_faces(6, swapped))
    mid = len(steps) // 2
    cur = replay(cert, mid)
    non_edge = next(
        (a, b) for a in range(cur.n) for b in range(a + 1, cur.n) if not cur.has_edge(a, b)
    )
    yield with_step(cert, mid, forced_step(cur, non_edge))
    sides = sorted({s for belt in fs.brute_belts(cur) for s in belt.sides})
    if sides:
        yield with_step(cert, mid, forced_step(cur, sides[0]))
    for edge in ((True, first.edge[1]), (float(first.edge[0]), first.edge[1])):
        yield with_step(cert, 0, replace(first, edge=edge))


def non_flag_certificate(K):
    """n - 6 link-condition contractions of a (non-flag) sphere, end as reached."""
    cur, steps = K, []
    while cur.n > 6:
        edge = next(e for e in cur.edges if fs.link_condition(cur, e))
        cur, relabel = fs.contract_mapped(cur, edge)
        steps.append(fs.CertStep(edge, relabel))
    return fs.ContractionCertificate(K, tuple(steps), cur)


def test_same_verdict_on_forged_certificates(graph11):
    reasons = set()
    for node in graph11.nodes.values():
        if node.n < 8:
            continue
        for forged in forgeries(fs.reduce_to_octahedron(node.sphere)):
            check = assert_same_verdict(forged)
            assert not check.ok
            reasons.add(check.reason)
    for kind in ("relabeling", "is not an edge", "lies in a belt", "end sphere", "steps for"):
        assert any(kind in reason for reason in reasons), kind


def test_same_verdict_on_non_flag_starts(corpus9):
    non_flag = [K for K in corpus9 if K.n >= 6 and not fs.brute_is_flag(K)]
    assert non_flag
    for K in non_flag:
        check = assert_same_verdict(non_flag_certificate(K))
        want = "step 0: sphere is not flag" if K.n > 6 else "end sphere is not flag"
        assert check.reason == want


def test_non_int_edge_fails_without_raising(s7):
    cert = fs.reduce_to_octahedron(s7)
    step = cert.steps[0]
    for edge in ((True, 2), (1.0, 2), (2, "0")):
        check = fs.verify_certificate(with_step(cert, 0, replace(step, edge=edge)))
        assert (check.ok, check.reason) == (False, f"step 0: {{{edge[0]}, {edge[1]}}} is not an edge")


def test_verifier_scales_to_n100(random_flag_sphere):
    K = random_flag_sphere(7, 100)
    assert fs.is_flag(K) and fs.clique_is_flag(K)
    cert = fs.reduce_to_octahedron(K)
    assert fs.verify_certificate(cert).ok
    idx = len(cert.steps) - 3
    cur = replay(cert, idx)
    assert cur.n == 9
    sides = sorted({s for belt in fs.brute_belts(cur) for s in belt.sides})
    assert sides
    check = fs.verify_certificate(with_step(cert, idx, forced_step(cur, sides[0])))
    u, v = sides[0]
    assert (check.ok, check.reason) == (False, f"step {idx}: edge {{{u}, {v}}} lies in a belt")


def test_malformed_edge_fails_without_raising(s7):
    cert = fs.reduce_to_octahedron(s7)
    step = cert.steps[0]
    for edge in ((0, 1, 2), (0,), 5, None):
        check = fs.verify_certificate(with_step(cert, 0, replace(step, edge=edge)))
        assert (check.ok, check.reason) == (False, f"step 0: edge {edge!r} is not a vertex pair")


def test_non_octahedral_end_is_refused(corpus9, monkeypatch):
    """With every flag and belt check passed, the end's isomorphism type still fails."""
    K, edge = next(
        (K, e)
        for K in corpus9
        if K.n == 7
        for e in K.edges
        if fs.link_condition(K, e) and fs.contract(K, e).r_vector() != {4: 6}
    )
    end, relabel = fs.contract_mapped(K, edge)
    cert = fs.ContractionCertificate(K, (fs.CertStep(edge, relabel),), end)
    monkeypatch.setattr(contraction, "clique_is_flag", lambda K: True)
    monkeypatch.setattr(contraction, "clique_is_flag_at", lambda state, u: True)
    monkeypatch.setattr(contraction, "edge_belts", lambda state, u, v: set())
    monkeypatch.setattr(contraction, "brute_is_flag", lambda K: True)
    check = fs.verify_certificate(cert)
    assert (check.ok, check.reason) == (False, "end sphere is not the octahedron")
