"""The certificate writer against the standard library's indent-2 encoder."""

import json

import pytest

import flagsphere as fs


def reference_json(cert):
    obj = {
        "format": "contraction-certificate",
        "version": 1,
        "start": {"n": cert.start.n, "faces": [list(f) for f in cert.start.faces]},
        "steps": [
            {"edge": list(s.edge), "relabel": list(s.relabel)} for s in cert.steps
        ],
        "end": {"n": cert.end.n, "faces": [list(f) for f in cert.end.faces]},
    }
    return json.dumps(obj, indent=2) + "\n"


def assert_written_as_reference(cert):
    text = fs.certificate_to_json(cert)
    assert text == reference_json(cert)
    assert fs.certificate_from_json(text) == cert


def test_octahedron_certificate_has_empty_steps(octa):
    cert = fs.reduce_to_octahedron(octa)
    assert cert.steps == ()
    assert '\n  "steps": [],\n' in fs.certificate_to_json(cert)
    assert_written_as_reference(cert)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_certificates_match_reference(seed, random_flag_sphere):
    K = random_flag_sphere(seed, 10 + seed % 11)
    assert_written_as_reference(fs.reduce_to_octahedron(K))


def test_hub_heavy_certificate_matches_reference(random_flag_sphere):
    cert = fs.reduce_to_octahedron(random_flag_sphere(200, 200))
    assert len(cert.steps) == 194
    # the greedy merges into label 0 again and again, growing a hub there
    assert sum(s.edge[0] == 0 for s in cert.steps) >= len(cert.steps) // 5
    assert_written_as_reference(cert)


def test_empty_relabel_is_written_as_the_reference(s7):
    """A step read with ``"relabel": []`` is written as ``json.dumps`` writes
    it, and the verifier refuses it."""
    obj = json.loads(fs.certificate_to_json(fs.reduce_to_octahedron(s7)))
    obj["steps"][0]["relabel"] = []
    cert = fs.certificate_from_json(json.dumps(obj))
    assert cert.steps[0].relabel == ()
    assert fs.certificate_to_json(cert) == json.dumps(obj, indent=2) + "\n"
    check = fs.verify_certificate(cert)
    assert not check
    assert check.reason == "step 0: recorded relabeling does not match replay"
