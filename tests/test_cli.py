import io
import json
import os
import subprocess
import sys

import pytest

import flagsphere as fs
from flagsphere import cli
from flagsphere.cli import run


@pytest.fixture
def tri(tmp_path):
    def write(K, name="sphere.tri"):
        path = tmp_path / name
        path.write_text(fs.dump_tri(K), encoding="utf-8")
        return str(path)

    return write


def test_validate(tri, octa, capsys):
    assert run(["validate", tri(octa)]) == 0
    assert capsys.readouterr().out == "V=6 E=12 F=8\n"


def test_validate_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.tri"
    bad.write_text("4\n0 1 2\n0 1 3\n0 2 3\n", encoding="utf-8")
    assert run(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERR NOT_A_SPHERE: edge-degree")


def test_validate_huge_vertex_count(tmp_path, capsys):
    bad = tmp_path / "huge.tri"
    bad.write_text("100000000\n0 1 2\n", encoding="utf-8")
    assert run(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("ERR NOT_A_SPHERE: bad-index")


def test_validate_missing_file(capsys):
    assert run(["validate", "/no/such/file.tri"]) == 1
    assert capsys.readouterr().err.startswith("ERR IO:")


def test_validate_stdin(octa, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(fs.dump_tri(octa)))
    assert run(["validate", "-"]) == 0
    assert capsys.readouterr().out == "V=6 E=12 F=8\n"


def test_flag_true(tri, octa, capsys):
    assert run(["flag", tri(octa)]) == 0
    assert capsys.readouterr().out == "flag: true\n"


def test_flag_false_with_missing(tri, bipyramid, capsys):
    assert run(["flag", tri(bipyramid)]) == 0
    assert capsys.readouterr().out == "flag: false\nmissing: 1 2 3\n"


def test_belts_octahedron(tri, octa, capsys):
    assert run(["belts", tri(octa)]) == 0
    assert capsys.readouterr().out == (
        "belt: 0 1 5 4\nbelt: 0 2 5 3\nbelt: 1 2 4 3\nbelt-free edges: 0\n"
    )


def test_belts_s7_lists_free_edges(tri, s7, capsys):
    assert run(["belts", tri(s7)]) == 0
    out = capsys.readouterr().out
    assert "belt-free: 0 6\n" in out
    free = [ln for ln in out.splitlines() if ln.startswith("belt-free: ")]
    assert out.strip().splitlines()[-1] == f"belt-free edges: {len(free)}"


def test_contract(tri, s7, octa, capsys):
    assert run(["contract", tri(s7), "0", "6"]) == 0
    assert capsys.readouterr().out == fs.dump_tri(octa)


def test_contract_errors(tri, octa, bipyramid, capsys):
    assert run(["contract", tri(octa), "0", "5"]) == 1
    assert capsys.readouterr().err.startswith("ERR NOT_AN_EDGE:")
    assert run(["contract", tri(bipyramid, "b.tri"), "1", "2"]) == 1
    assert capsys.readouterr().err.startswith("ERR LINK_CONDITION:")


def test_reduce_octahedron(tri, octa, capsys):
    assert run(["reduce", tri(octa)]) == 0
    assert capsys.readouterr().out == "steps: 0\n"


def test_reduce_and_verify_cert(tri, s7, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["reduce", tri(s7), "--cert", str(cert_path)]) == 0
    assert capsys.readouterr().out == "steps: 1\n"
    assert run(["verify-cert", str(cert_path)]) == 0
    assert capsys.readouterr().out == "certificate: valid\n"


def test_reduce_cert_to_stdout_pipes_into_verify_cert(tri, s7, capsys, monkeypatch):
    assert run(["reduce", tri(s7), "--cert", "-"]) == 0
    piped = capsys.readouterr()
    assert piped.err == "steps: 1\n"
    assert piped.out == fs.certificate_to_json(fs.reduce_to_octahedron(s7))
    monkeypatch.setattr("sys.stdin", io.StringIO(piped.out))
    assert run(["verify-cert", "-"]) == 0
    assert capsys.readouterr().out == "certificate: valid\n"


def test_verify_cert_rejects_tampered(tri, s7, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(["reduce", tri(s7), "--cert", str(cert_path)])
    capsys.readouterr()
    obj = json.loads(cert_path.read_text(encoding="utf-8"))
    obj["steps"][0]["edge"] = [1, 3]
    cert_path.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["verify-cert", str(cert_path)]) == 1
    assert capsys.readouterr().err.startswith("ERR CERT_INVALID:")


def test_verify_cert_rejects_start_below_six_vertices(tetra, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert = fs.ContractionCertificate(tetra, (), tetra)
    cert_path.write_text(fs.certificate_to_json(cert), encoding="utf-8")
    assert run(["verify-cert", str(cert_path)]) == 1
    assert capsys.readouterr().err == (
        "ERR CERT_INVALID: start has 4 vertices;"
        " a reduction to the octahedron needs at least 6\n"
    )


def test_verify_cert_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("{", encoding="utf-8")
    assert run(["verify-cert", str(path)]) == 1
    assert capsys.readouterr().err.startswith("ERR FORMAT:")


@pytest.mark.parametrize("steps", [None, {}, "[]"], ids=["missing", "object", "string"])
def test_verify_cert_rejects_steps_that_are_not_a_list(s7, tmp_path, capsys, steps):
    obj = json.loads(fs.certificate_to_json(fs.reduce_to_octahedron(s7)))
    if steps is None:
        del obj["steps"]
    else:
        obj["steps"] = steps
    text = json.dumps(obj)
    with pytest.raises(fs.FormatError, match="^certificate steps must be a list$"):
        fs.certificate_from_json(text)
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    assert run(["verify-cert", str(path)]) == 1
    assert capsys.readouterr().err == "ERR FORMAT: certificate steps must be a list\n"


def test_expand(tri, octa, capsys):
    assert run(["expand", tri(octa)]) == 0
    assert capsys.readouterr().out == "bound: 12\nexpansions: 12\n"


def test_expand_all(tri, octa, capsys):
    assert run(["expand", tri(octa), "--all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    split_lines = [ln for ln in lines if ln.startswith("split: ")]
    assert len(split_lines) == 12
    forms = {ln.split("form=")[1] for ln in split_lines}
    assert len(forms) == 1


def test_expand_rejects_non_flag(tri, tetra, capsys):
    assert run(["expand", tri(tetra, "t.tri")]) == 1
    assert capsys.readouterr().err.startswith("ERR NOT_FLAG:")


def test_enumerate_smallest(tetra, capsys):
    assert run(["enumerate", "--max-n", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == fs.dump_tri(tetra)
    assert captured.err == "n\tcount\n4\t1\n"


def test_enumerate_corpus_parses(capsys):
    assert run(["enumerate", "--max-n", "6"]) == 0
    captured = capsys.readouterr()
    spheres = fs.parse_corpus(captured.out)
    assert [K.n for K in spheres] == [4, 5, 6, 6]
    assert captured.err == "n\tcount\n4\t1\n5\t1\n6\t2\n"


def test_enumerate_flag_only(capsys):
    assert run(["enumerate", "--max-n", "6", "--flag-only"]) == 0
    captured = capsys.readouterr()
    spheres = fs.parse_corpus(captured.out)
    assert len(spheres) == 1
    assert fs.is_flag(spheres[0])
    assert captured.err == "n\tcount\n4\t0\n5\t0\n6\t1\n"


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "corpus.tri"
    assert run(["enumerate", "--max-n", "5", "--corpus", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(fs.parse_corpus(out.read_text(encoding="utf-8"))) == 2


def test_enumerate_budget_errors(capsys):
    assert run(["enumerate", "--max-n", "3"]) == 1
    assert capsys.readouterr().err.startswith("ERR BUDGET_TOO_SMALL:")
    assert run(["enumerate", "--max-n", "12"]) == 1
    assert capsys.readouterr().err.startswith("ERR BUDGET_TOO_LARGE:")


def test_hasse_small(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    tsv = tmp_path / "g.tsv"
    rc = run(
        ["hasse", "--max-n", "7", "--dot", str(dot), "--json", str(js), "--tsv", str(tsv)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "levels: 6:1 7:1\nbounds OK\n"
    G = fs.build(7)
    assert dot.read_text(encoding="utf-8") == fs.export_dot(G)
    assert js.read_text(encoding="utf-8") == fs.export_json(G)
    assert tsv.read_text(encoding="utf-8") == fs.export_levels_tsv(G)


def test_hasse_json_to_stdout_pipes_into_import_json(capsys):
    assert run(["hasse", "--max-n", "8", "--json", "-"]) == 0
    piped = capsys.readouterr()
    assert piped.err == "levels: 6:1 7:1 8:2\nbounds OK\n"
    assert piped.out == fs.export_json(fs.build(8))
    assert fs.import_json(piped.out).level_counts() == {6: 1, 7: 1, 8: 2}


def test_hasse_refuses_two_exports_to_stdout(capsys):
    assert run(["hasse", "--max-n", "7", "--json", "-", "--tsv", "-"]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert "stdout" in refused.err


def test_hasse_prints_each_bound_violation(capsys, monkeypatch):
    entry = fs.BoundEntry(
        form_hex="0123456789abcdef" * 4,
        n=7,
        in_degree=3,
        belt_free_edges=2,
        out_degree=5,
        expansion_bound=4,
        out_checked=True,
        ok=False,
    )
    monkeypatch.setattr(cli, "verify_degree_bounds", lambda G: fs.BoundsReport((entry,)))
    assert run(["hasse", "--max-n", "7"]) == 1
    printed = capsys.readouterr()
    assert printed.out == "levels: 6:1 7:1\n"
    assert printed.err == "bound violation: 0123456789ab n=7 in=3/2 out=5/4\n"


def test_hasse_budget_error(capsys):
    assert run(["hasse", "--max-n", "5"]) == 1
    assert capsys.readouterr().err.startswith("ERR BUDGET_TOO_SMALL:")


def test_canon(tri, s7, relabel, capsys):
    assert run(["canon", tri(s7)]) == 0
    first = capsys.readouterr().out
    assert first == fs.form_hex(fs.canonical_form(s7)) + "\n"
    perm = [6, 2, 4, 0, 5, 1, 3]
    assert run(["canon", tri(relabel(s7, perm), "r.tri")]) == 0
    assert capsys.readouterr().out == first


def test_usage_errors(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run(["enumerate"]) == 2
    capsys.readouterr()
    assert run(["contract", "x.tri", "0", "oops"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_python_dash_m_runs_cli(tri, octa):
    src = os.path.dirname(os.path.dirname(fs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "flagsphere", "validate", tri(octa)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "V=6 E=12 F=8\n", "")


@pytest.mark.parametrize("command", ["validate", "verify-cert"])
def test_non_utf8_input_is_a_format_error(tmp_path, capsys, monkeypatch, command):
    raw = b"\xff\xfe6\n0 1 2\n"
    bad = tmp_path / "bad.tri"
    bad.write_bytes(raw)
    assert run([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERR FORMAT:") and err.count("\n") == 1
    # stdin decoded strictly, as under a UTF-8 locale
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run([command, "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERR FORMAT:") and err.count("\n") == 1



def test_each_error_class_names_its_cli_code(capsys, monkeypatch):
    codes = {
        "FlagsphereError": "ERROR",
        "NotASphere": "NOT_A_SPHERE",
        "FormatError": "FORMAT",
        "NotAnEdge": "NOT_AN_EDGE",
        "BadVertex": "BAD_VERTEX",
        "NotFlag": "NOT_FLAG",
        "LinkConditionViolated": "LINK_CONDITION",
        "BadSplitSpec": "BAD_SPLIT",
        "BudgetTooSmall": "BUDGET_TOO_SMALL",
        "BudgetTooLarge": "BUDGET_TOO_LARGE",
        "TooLarge": "TOO_LARGE",
        "InternalMinimalityViolation": "MINIMALITY",
    }
    exported = {
        name
        for name in fs.__all__
        if isinstance(getattr(fs, name), type)
        and issubclass(getattr(fs, name), fs.FlagsphereError)
    }
    assert exported == set(codes)
    for name, code in codes.items():
        cls = getattr(fs, name)
        assert cls.code == code
        exc = cls("edge-degree", "detail") if cls is fs.NotASphere else cls("detail")

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "enumerate_all_spheres", fail)
        assert run(["enumerate", "--max-n", "5"]) == 1
        assert capsys.readouterr().err == f"ERR {code}: {exc}\n"
