import random

import pytest

import flagsphere as fs
from flagsphere.canonical import canonical_form


def test_link_condition_examples(octa, s7, bipyramid):
    assert not fs.link_condition(bipyramid, (1, 2))
    assert fs.link_condition(octa, (0, 1))
    assert fs.link_condition(s7, (0, 6))


def test_link_condition_fails_on_tetrahedron(tetra):
    # contracting any tetrahedron edge collapses the complex, so no edge
    # may pass even though common neighbors equal the two apexes
    for e in tetra.edges:
        assert not fs.link_condition(tetra, e)


def test_link_condition_requires_edge(octa):
    with pytest.raises(fs.NotAnEdge):
        fs.link_condition(octa, (0, 5))


def test_contract_s7_restores_octahedron(s7, octa):
    result, relabel = fs.contract_mapped(s7, (0, 6))
    assert result == octa
    assert relabel == (0, 1, 2, 3, 4, 5, 0)
    assert fs.contract(s7, (0, 6)) == octa


def test_contract_octahedron_gives_bipyramid_class(octa, bipyramid):
    out = fs.contract(octa, (0, 1))
    assert (out.n, out.n_edges, out.n_faces) == (5, 9, 6)
    assert fs.brute_isomorphic(out, bipyramid)
    assert not fs.is_flag(out)


def test_contract_refuses_bad_edges(octa, bipyramid):
    with pytest.raises(fs.LinkConditionViolated):
        fs.contract(bipyramid, (1, 2))
    with pytest.raises(fs.NotAnEdge):
        fs.contract(octa, (2, 3))
    with pytest.raises(fs.NotAnEdge):  # compares equal to the edge {1, 2}
        fs.contract(octa, (True, 2))
    with pytest.raises(fs.NotAnEdge):
        fs.contract(octa, 5)


def test_contract_counts_and_relabel(flag_corpus10):
    for K in flag_corpus10:
        if K.n > 8:
            continue
        for e in K.edges:
            out, relabel = fs.contract_mapped(K, e)
            assert (out.n, out.n_edges, out.n_faces) == (
                K.n - 1,
                K.n_edges - 3,
                K.n_faces - 2,
            )
            u, v = e
            kept = {tuple(sorted((relabel[x], relabel[y], relabel[z])))
                    for x, y, z in K.faces if not (u in (x, y, z) and v in (x, y, z))}
            assert kept == set(out.faces)


def test_flag_contractible(octa, s7):
    assert not fs.is_flag_contractible(octa, (0, 1))
    assert fs.is_flag_contractible(s7, (0, 6))


def test_flag_contractible_guards(tetra, octa):
    with pytest.raises(fs.NotFlag):
        fs.is_flag_contractible(tetra, (0, 1))
    with pytest.raises(fs.NotAnEdge):
        fs.is_flag_contractible(octa, (0, 5))


def test_minimality(octa, s7, tetra):
    assert fs.is_minimal(octa)
    assert not fs.is_minimal(s7)
    with pytest.raises(fs.NotFlag):
        fs.is_minimal(tetra)


def test_octahedron_is_the_only_minimal_class(graph11):
    for node in graph11.nodes.values():
        assert fs.is_minimal(node.sphere) == (node.n == 6)


def test_square_link_vertices(octa, tetra, s7):
    assert fs.square_link_vertices(octa) == {0, 1, 2, 3, 4, 5}
    assert fs.square_link_vertices(tetra) == set()
    assert fs.square_link_vertices(s7) == {0, 2, 3, 5, 6}


def test_every_flag_sphere_has_a_square_link_vertex(flag_corpus10):
    for K in flag_corpus10:
        assert fs.square_link_vertices(K)


def test_reduce_octahedron_is_zero_steps(octa):
    cert = fs.reduce_to_octahedron(octa)
    assert cert.steps == ()
    assert cert.start == octa
    assert cert.end == octa
    assert fs.verify_certificate(cert)


def test_reduce_s7(s7, octa):
    cert = fs.reduce_to_octahedron(s7)
    assert len(cert.steps) == 1
    assert cert.steps[0].edge == (0, 2)
    assert not fs.edge_in_belt(s7, cert.steps[0].edge)
    assert fs.isomorphic(cert.end, octa)
    check = fs.verify_certificate(cert)
    assert check.ok and bool(check)
    assert check.reason == "ok"


def test_reduce_is_deterministic(s7):
    assert fs.reduce_to_octahedron(s7) == fs.reduce_to_octahedron(s7)


def test_reduce_rejects_non_flag(tetra):
    with pytest.raises(fs.NotFlag):
        fs.reduce_to_octahedron(tetra)


@pytest.mark.parametrize(
    "call",
    [
        fs.reduce_to_octahedron,
        fs.is_minimal,
        lambda K: fs.is_flag_contractible(K, (0, 1)),
        fs.flag_splits,  # raises at the call, before any split is iterated
    ],
    ids=["reduce_to_octahedron", "is_minimal", "is_flag_contractible", "flag_splits"],
)
def test_flag_guard_names_the_vertex_count(call, tetra, bipyramid):
    for K in (tetra, bipyramid):
        with pytest.raises(fs.NotFlag) as info:
            call(K)
        assert str(info.value) == f"sphere on {K.n} vertices is not flag"


def test_verify_rejects_tampered_edge(s7):
    cert = fs.reduce_to_octahedron(s7)
    bad = fs.ContractionCertificate(
        cert.start,
        (fs.CertStep((1, 3), cert.steps[0].relabel),),
        cert.end,
    )
    check = fs.verify_certificate(bad)
    assert not check
    assert check.reason.startswith("step 0:")


def test_verify_rejects_empty_steps(s7):
    check = fs.verify_certificate(fs.ContractionCertificate(s7, (), s7))
    assert not check
    assert "expected 1 steps" in check.reason


def test_verify_rejects_wrong_relabel(s7):
    cert = fs.reduce_to_octahedron(s7)
    step = cert.steps[0]
    twisted = tuple(reversed(step.relabel))
    bad = fs.ContractionCertificate(
        cert.start, (fs.CertStep(step.edge, twisted),), cert.end
    )
    check = fs.verify_certificate(bad)
    assert not check
    assert "relabel" in check.reason


def test_verify_rejects_wrong_end(s7, octa, relabel):
    cert = fs.reduce_to_octahedron(s7)
    other = relabel(octa, [5, 4, 3, 2, 1, 0])
    assert other != cert.end
    bad = fs.ContractionCertificate(cert.start, cert.steps, other)
    check = fs.verify_certificate(bad)
    assert not check
    assert "end" in check.reason


def test_certificate_json_round_trip(s7):
    cert = fs.reduce_to_octahedron(s7)
    text = fs.certificate_to_json(cert)
    assert fs.certificate_from_json(text) == cert
    assert text.endswith("\n")


def test_certificate_json_rejects_garbage():
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json("not json at all")
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json('{"format": "something-else"}')
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json(
            '{"format": "contraction-certificate", "version": 99}'
        )


def test_certificate_json_rejects_malformed_steps(s7):
    import json

    cert = fs.reduce_to_octahedron(s7)
    obj = json.loads(fs.certificate_to_json(cert))
    obj["steps"][0]["edge"] = [0]
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json(json.dumps(obj))
    obj = json.loads(fs.certificate_to_json(cert))
    obj["start"] = {"n": 7}
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json(json.dumps(obj))


def test_certificate_json_rejects_wrong_types(s7):
    import json

    text = fs.certificate_to_json(fs.reduce_to_octahedron(s7))
    obj = json.loads(text)
    obj["start"]["faces"] = [1, 2]
    with pytest.raises(fs.NotASphere):
        fs.certificate_from_json(json.dumps(obj))
    obj = json.loads(text)
    obj["steps"][0]["edge"] = [True, 2]
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json(json.dumps(obj))
    obj = json.loads(text)
    obj["end"]["n"] = True
    with pytest.raises(fs.FormatError):
        fs.certificate_from_json(json.dumps(obj))


def grow_flag_sphere(seed, target_n):
    """Grow a flag sphere from the octahedron by seeded flag-preserving splits."""
    rng = random.Random(seed)
    K = fs.octahedron()
    while K.n < target_n:
        K = fs.split_vertex(K, rng.choice(list(fs.flag_splits(K))))
    return K


def reference_reduce(K):
    """One sphere per step: the first edge on no belt, by public calls only."""
    cur, steps = K, []
    while cur.n > 6:
        edge = next(e for e in cur.edges if not fs.edge_in_belt(cur, e))
        cur, relabel = fs.contract_mapped(cur, edge)
        steps.append(fs.CertStep(edge, relabel))
    return fs.ContractionCertificate(K, tuple(steps), cur)


def test_reduce_builds_one_sphere_and_no_canonical_form(monkeypatch):
    K = grow_flag_sphere(40, 40)
    built, searched = [], []
    init = fs.SimplicialSphere.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def counting_form(*args, **kwargs):
        searched.append(args)
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(fs.SimplicialSphere, "__init__", counting_init)
    for mod in (fs, fs.canonical):
        monkeypatch.setattr(mod, "canonical_form", counting_form)
    cert = fs.reduce_to_octahedron(K)
    assert len(cert.steps) == 34
    assert built == [6]
    assert searched == []


@pytest.mark.parametrize("seed, n", [(60, 60), (100, 100), (150, 150)])
def test_reduce_matches_per_step_reference_at_scale(seed, n):
    K = grow_flag_sphere(seed, n)
    cert = fs.reduce_to_octahedron(K)
    assert fs.certificate_to_json(cert) == fs.certificate_to_json(reference_reduce(K))
    assert fs.verify_certificate(cert)
