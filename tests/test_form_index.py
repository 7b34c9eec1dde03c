"""The per-level form index that ``build`` matches its children against.

A child whose class is already known is matched against the stored form
rather than searched, so the index must give exactly ``canonical_form``
on any sphere, flag or not, in any order, however it is labeled or
oriented, and give a known class its stored form object.
"""

import random
from itertools import combinations

import flagsphere as fs
from flagsphere import canonical


def every_split(K):
    """The child of every junction pair {a, b} at every vertex, flag or not."""
    return [
        fs.split_vertex(K, fs.SplitSpec(w, a, b))
        for w in range(K.n)
        for a, b in combinations(K.link_cycle(w), 2)
    ]


def copies(K, relabel, rng):
    """A relabeled copy of ``K`` with its orientation, and a mirrored one."""
    found = {}
    while len(found) < 2:
        perm = list(range(K.n))
        rng.shuffle(perm)
        image = relabel(K, perm)
        y, z = next(iter(K.rotation(0).items()))
        found.setdefault(image.rotation(perm[0])[perm[y]] == perm[z], image)
    return found[True], found[False]


def key(K):
    """The sorted pairs (deg v, sum of v's neighbours' degrees)."""
    deg = [len(nbrs) for nbrs in K.adjacency]
    return sorted((deg[v], sum(deg[w] for w in nbrs)) for v, nbrs in enumerate(K.adjacency))


def test_index_agrees_with_canonical_form_on_every_split(graph11, corpus9, relabel):
    rng = random.Random(31)
    parents = [node.sphere for node in graph11.nodes.values()] + list(corpus9)
    children = [child for K in parents for child in every_split(K)]
    assert not all(map(fs.is_flag, children))
    forms = [fs.canonical_form(child) for child in children]
    index = canonical._FormIndex()
    known = set()
    for child, form in zip(children, forms):
        got = index.form(child)
        assert got == form
        if form not in known:  # each class's first child, relabeled and mirrored
            known.add(form)
            for copy in copies(child, relabel, rng):
                assert index.form(copy) is got
    index = canonical._FormIndex()
    for child, form in zip(reversed(children), reversed(forms)):
        assert index.form(child) == form


def test_key_sharing_pair_at_12_gets_two_forms():
    level = [node for node in fs.build(12).nodes.values() if node.n == 12]
    keys = {}
    for node in level:
        keys.setdefault(tuple(key(node.sphere)), []).append(node)
    assert len(level) == 87 and len(keys) == 86
    (pair,) = (nodes for nodes in keys.values() if len(nodes) == 2)
    index = canonical._FormIndex()
    assert [index.form(node.sphere) for node in pair] == [node.form for node in pair]
    assert pair[0].form != pair[1].form
    assert [len(bucket) for bucket in index._buckets.values()] == [2]


def test_build_12_searches_only_new_children(monkeypatch):
    searches, children = [], []
    min_code, canonical_form = canonical._min_code, canonical.canonical_form
    monkeypatch.setattr(canonical, "_min_code", lambda K: searches.append(K) or min_code(K))
    monkeypatch.setattr(
        canonical, "canonical_form", lambda K: children.append(K) or canonical_form(K))
    G = fs.build(12)
    # the octahedron, one group per parent below 12, one form per new class
    assert len(children) == 129 == len(G.nodes) - 1
    assert len(searches) == 1 + 43 + 129


def test_match_is_exact_on_every_graph11_pair(graph11):
    # a form of another size never matches either: buckets are keyed by a
    # hash, so two sizes could share one
    nodes = list(graph11.nodes.values())
    for own in nodes:
        succ = fs.sphere._rotations(own.sphere)
        deg = [len(r) for r in succ]
        assert [canonical._same_class(succ, deg, node.form) for node in nodes] == [
            node is own for node in nodes]
