import random

import pytest

import flagsphere as fs


def test_build_octahedron_only(octa):
    G = fs.build(6)
    assert G.level_counts() == {6: 1}
    assert G.arcs == frozenset()
    (node,) = G.nodes.values()
    assert node.n == 6
    assert fs.isomorphic(node.sphere, octa)


def test_build_seven(s7):
    G = fs.build(7)
    assert G.level_counts() == {6: 1, 7: 1}
    assert len(G.arcs) == 1
    ((src, dst),) = G.arcs
    assert G.nodes[src].n == 6
    assert G.nodes[dst].n == 7
    assert fs.isomorphic(G.nodes[dst].sphere, s7)


def test_build_budget_guard():
    with pytest.raises(fs.BudgetTooSmall):
        fs.build(5)


def test_build_rejects_non_int_budget():
    for max_n in (7.5, "7", None, 7.0):
        with pytest.raises(fs.BudgetTooSmall):
            fs.build(max_n)


def test_levels_match_oracle_filter(corpus9):
    want = {}
    for K in corpus9:
        if fs.is_flag(K):
            want[K.n] = want.get(K.n, 0) + 1
    assert fs.build(9).level_counts() == want


def test_levels_match_a007021(graph11):
    # OEIS A007021: 4-connected triangulations of the sphere, i.e. flag spheres.
    assert graph11.level_counts() == {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25}


def test_arcs_step_one_level(graph11):
    for src, dst in graph11.arcs:
        assert graph11.nodes[dst].n == graph11.nodes[src].n + 1


def test_unique_source_is_octahedron(graph11, octa):
    targets = {dst for _, dst in graph11.arcs}
    sources = [f for f in graph11.nodes if f not in targets]
    assert len(sources) == 1
    assert fs.isomorphic(graph11.nodes[sources[0]].sphere, octa)


def test_arc_sample_is_sound(graph11):
    arcs = sorted(graph11.arcs)
    rng = random.Random(29)
    sample = rng.sample(arcs, max(1, len(arcs) // 20))
    for small_form, large_form in sample:
        large = graph11.nodes[large_form].sphere
        reachable = set()
        for e in large.edges:
            if fs.is_flag_contractible(large, e):
                reachable.add(fs.canonical_form(fs.contract(large, e)))
        assert small_form in reachable


def test_degree_bounds_on_small_graph():
    G = fs.build(7)
    report = fs.verify_degree_bounds(G)
    assert report.ok and bool(report)
    by_n = {e.n: e for e in report.entries}
    octa_entry = by_n[6]
    assert octa_entry.in_degree == 0
    assert octa_entry.belt_free_edges == 0
    assert octa_entry.out_degree == 1
    assert octa_entry.expansion_bound == 12
    assert octa_entry.out_checked
    s7_entry = by_n[7]
    assert s7_entry.in_degree == 1
    assert s7_entry.in_degree <= s7_entry.belt_free_edges
    assert not s7_entry.out_checked


def test_dot_export(s7):
    G = fs.build(7)
    dot = fs.export_dot(G)
    assert dot == fs.export_dot(fs.build(7))
    lines = dot.splitlines()
    assert lines[0] == "digraph hasse {"
    assert lines[-1] == "}"
    assert sum("label=" in ln for ln in lines) == 2
    assert sum("->" in ln for ln in lines) == 1
    hx = fs.form_hex(fs.canonical_form(s7))
    assert f'"{hx}"' in dot


def test_json_round_trip(graph11):
    text = fs.export_json(graph11)
    back = fs.import_json(text)
    assert back.max_n == graph11.max_n
    assert set(back.nodes) == set(graph11.nodes)
    assert back.arcs == graph11.arcs
    for form, node in back.nodes.items():
        assert node.sphere == graph11.nodes[form].sphere
    assert fs.export_json(back) == text


def test_nodes_hold_forms_and_build_decodes_only_split_parents(monkeypatch, graph11):
    import dataclasses

    import flagsphere.hasse

    assert [f.name for f in dataclasses.fields(fs.HasseNode)] == ["form", "n"]
    for node in graph11.nodes.values():
        assert node.sphere == fs.sphere_from_form(node.form)
    decoded = []

    def counting(form):
        decoded.append(form)
        return fs.sphere_from_form(form)

    monkeypatch.setattr(flagsphere.hasse, "sphere_from_form", counting)
    G = fs.build(12)
    assert len(decoded) == 43 == sum(node.n < 12 for node in G.nodes.values())
    assert sorted(decoded) == sorted(f for f, node in G.nodes.items() if node.n < 12)


def test_arcs_hold_the_node_table_forms(graph11):
    # one bytes object per class: every arc end is a key of G.nodes itself
    for G in (graph11, fs.import_json(fs.export_json(graph11))):
        keys = {id(f) for f in G.nodes}
        assert all(id(tail) in keys and id(head) in keys for tail, head in G.arcs)


def test_import_rejects_tampering():
    import json

    G = fs.build(7)
    text = fs.export_json(G)
    with pytest.raises(fs.FormatError):
        fs.import_json("[]")
    with pytest.raises(fs.FormatError):
        fs.import_json('{"format": "hasse-graph", "version": 2}')
    obj = json.loads(text)
    obj["nodes"][0]["faces"][0] = [0, 1, 5]
    with pytest.raises((fs.FormatError, fs.NotASphere)):
        fs.import_json(json.dumps(obj))
    obj = json.loads(text)
    obj["arcs"] = [["00" * 32, obj["nodes"][0]["form"]]]
    with pytest.raises(fs.FormatError):
        fs.import_json(json.dumps(obj))


def test_import_rejects_wrong_types():
    import json

    text = fs.export_json(fs.build(7))
    obj = json.loads(text)
    obj["nodes"][0]["faces"] = [1, 2]
    with pytest.raises(fs.NotASphere):
        fs.import_json(json.dumps(obj))
    obj = json.loads(text)
    obj["nodes"][0]["n"] = True
    with pytest.raises(fs.FormatError):
        fs.import_json(json.dumps(obj))
    obj = json.loads(text)
    obj["arcs"][0][0] = [1]
    with pytest.raises(fs.FormatError):
        fs.import_json(json.dumps(obj))
    obj = json.loads(text)
    obj["arcs"] = 3
    with pytest.raises(fs.FormatError):
        fs.import_json(json.dumps(obj))


def test_import_requires_an_arc_list():
    import json

    obj = json.loads(fs.export_json(fs.build(7)))
    del obj["arcs"]
    with pytest.raises(fs.FormatError, match="must carry max_n, a node list and an arc list"):
        fs.import_json(json.dumps(obj))
    text = fs.export_json(fs.build(6))
    assert '"arcs": []' in text
    assert fs.export_json(fs.import_json(text)) == text


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_json_readers_take_only_the_int_version_1(octa, version):
    import json

    graph = json.loads(fs.export_json(fs.build(6)))
    cert = json.loads(fs.certificate_to_json(fs.reduce_to_octahedron(octa)))
    for obj, read, noun in (
        (graph, fs.import_json, "graph"),
        (cert, fs.certificate_from_json, "certificate"),
    ):
        read(json.dumps(obj))
        obj["version"] = version
        with pytest.raises(fs.FormatError) as exc:
            read(json.dumps(obj))
        assert str(exc.value) == f"unsupported {noun} version {version!r}"


def test_import_rejects_non_canonical_labeling():
    import itertools
    import json

    G = fs.build(6)
    obj = json.loads(fs.export_json(G))
    base = sorted(tuple(f) for f in obj["nodes"][0]["faces"])
    # first permutation that is not an automorphism of the representative
    twisted = None
    for perm in itertools.permutations(range(6)):
        cand = sorted(tuple(sorted(perm[v] for v in f)) for f in base)
        if cand != base:
            twisted = cand
            break
    assert twisted is not None
    obj["nodes"][0]["faces"] = [list(f) for f in twisted]
    with pytest.raises(fs.FormatError):
        fs.import_json(json.dumps(obj))


def test_levels_tsv():
    G = fs.build(7)
    assert fs.export_levels_tsv(G) == "n\tcount\tarcs_in_level\n6\t1\t0\n7\t1\t1\n"


def test_worker_count_does_not_change_exports():
    seq = fs.build(9, jobs=1)
    par = fs.build(9, jobs=4)
    assert fs.export_json(seq) == fs.export_json(par)
    assert fs.export_dot(seq) == fs.export_dot(par)
    assert fs.export_levels_tsv(seq) == fs.export_levels_tsv(par)


def test_levels_match_a007021_through_13():
    # OEIS A007021 at n = 12 and 13: 87 and 313 flag spheres
    want = {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25, 12: 87, 13: 313}
    assert fs.build(13).level_counts() == want


def graph7_json():
    import json

    return json.loads(fs.export_json(fs.build(7)))


def assert_import_rejects(obj):
    import json

    with pytest.raises(fs.FormatError):
        fs.import_json(json.dumps(obj))


def node_entry(K):
    """A well-formed graph node for the class of ``K``."""
    rep = fs.canonical_sphere(K)
    return {
        "form": fs.form_hex(fs.canonical_form(rep)),
        "n": rep.n,
        "faces": [list(f) for f in rep.faces],
    }


def test_import_rejects_duplicate_node():
    obj = graph7_json()
    obj["nodes"].append(obj["nodes"][0])
    assert_import_rejects(obj)


def test_import_rejects_max_n_below_six():
    for max_n in (-1, 0, 5):
        obj = graph7_json()
        obj["nodes"], obj["arcs"], obj["max_n"] = [], [], max_n
        assert_import_rejects(obj)


def test_import_rejects_node_outside_levels():
    obj = graph7_json()
    obj["max_n"] = 6
    assert_import_rejects(obj)
    bipyramid = fs.from_faces(
        5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )
    obj = graph7_json()
    obj["nodes"].append(node_entry(bipyramid))
    assert_import_rejects(obj)


def test_import_rejects_non_flag_node():
    # the octahedron with one face stacked: n = 7, a degree-3 vertex
    octa = fs.octahedron()
    a, b, c = octa.faces[0]
    faces = [f for f in octa.faces if f != (a, b, c)]
    faces += [(a, b, 6), (a, c, 6), (b, c, 6)]
    K = fs.from_faces(7, faces)
    assert not fs.is_flag(K)
    obj = graph7_json()
    obj["nodes"].append(node_entry(K))
    assert_import_rejects(obj)


def test_import_rejects_arc_not_one_level_up():
    obj = graph7_json()
    [[tail, head]] = obj["arcs"]
    for arc in ([head, tail], [tail, tail], [head, head]):
        obj["arcs"] = [arc]
        assert_import_rejects(obj)


def test_import_rejects_duplicate_arc():
    import json

    obj = graph7_json()
    [[tail, head]] = obj["arcs"]
    obj["arcs"].append([tail, head])
    with pytest.raises(fs.FormatError, match=f"arc {tail[:12]} -> {head[:12]} is listed twice"):
        fs.import_json(json.dumps(obj))
