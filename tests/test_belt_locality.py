"""Local belt search against the brute-force oracle on spheres with n = 20..40.

Below n = 10 nearly every vertex pair is at distance at most two, so the
corpus hardly tells a distance-two search from a scan of all pairs; these
spheres are large enough to have many pairs farther apart.
"""

import random

import pytest

import flagsphere as fs
from flagsphere.flags import _belt_side
from flagsphere.oracle import _belt_on

# (seed, vertex counts at which the growing chain is sampled)
FLAG_CHAINS = [(1, (20, 25, 30, 35, 40)), (2, (24,))]
NON_FLAG = [(1, 20), (2, 26), (3, 33), (4, 40)]


@pytest.fixture(scope="module")
def flag_spheres():
    """Flag spheres grown from the octahedron by seeded flag-preserving splits."""
    out = []
    for seed, sizes in FLAG_CHAINS:
        rng = random.Random(seed)
        K = fs.octahedron()
        while K.n < max(sizes):
            _, K = rng.choice(fs.flag_expansions(K))
            if K.n in sizes:
                out.append(K)
    return out


@pytest.fixture(scope="module")
def non_flag_spheres(random_sphere):
    spheres = [random_sphere(seed, n) for seed, n in NON_FLAG]
    assert not any(fs.is_flag(K) for K in spheres)
    return spheres


@pytest.fixture(scope="module")
def hub_states(random_flag_sphere):
    """An n = 60 flag sphere, then the belt-free contraction of highest degree
    sum, repeated until some edge's ends differ threefold in degree."""
    K = random_flag_sphere(7, 60)
    states = [K]
    while degree_skew(K) < 3:
        edge = max(
            (e for e in K.edges if not fs.edge_in_belt(K, e)),
            key=lambda e: K.degree(e[0]) + K.degree(e[1]),
        )
        K, _ = fs.contract_mapped(K, edge)
        states.append(K)
    return states


def degree_skew(K):
    return max(
        max(K.degree(u), K.degree(v)) / min(K.degree(u), K.degree(v))
        for u, v in K.edges
    )


def brute_sides(K):
    return {side for belt in fs.brute_belts(K) for side in belt.sides}


def reference_reduce(K):
    """Greedy reduction written on the oracle: first edge on no brute belt."""
    cur, steps = K, []
    while cur.n > 6:
        covered = brute_sides(cur)
        edge = next(e for e in cur.edges if e not in covered)
        cur, relabel = fs.contract_mapped(cur, edge)
        steps.append(fs.CertStep(edge, relabel))
    return fs.ContractionCertificate(K, tuple(steps), cur)


def test_samples_are_flag_and_sized(flag_spheres):
    assert sorted(K.n for K in flag_spheres) == [20, 24, 25, 30, 35, 40]
    assert all(fs.is_flag(K) for K in flag_spheres)


def test_belts_match_oracle(flag_spheres, non_flag_spheres):
    for K in flag_spheres + non_flag_spheres:
        assert list(fs.belts(K)) == sorted(fs.brute_belts(K), key=lambda b: b.cycle)


def test_belt_sides_match_oracle(flag_spheres, non_flag_spheres, hub_states):
    for K in flag_spheres + non_flag_spheres + hub_states:
        sides = brute_sides(K)
        assert fs.belt_covered_edges(K) == sides
        assert [fs.edge_in_belt(K, e) for e in K.edges] == [
            e in sides for e in K.edges
        ]
        assert [fs.edge_in_belt(K, (v, u)) for u, v in K.edges] == [
            e in sides for e in K.edges
        ]


def test_reduction_matches_oracle_greedy(flag_spheres):
    for K in flag_spheres:
        got = fs.certificate_to_json(fs.reduce_to_octahedron(K))
        assert got == fs.certificate_to_json(reference_reduce(K))


def test_verifier_predicates_match_oracle(flag_spheres, non_flag_spheres):
    for K in flag_spheres + non_flag_spheres:
        assert fs.clique_is_flag(K) == fs.brute_is_flag(K) == (K in flag_spheres)
        belts = fs.brute_belts(K)
        for u, v in K.edges:
            want = {b for b in belts if {u, v} <= b.vertices}
            assert fs.edge_belts(K, u, v) == want == fs.edge_belts(K, v, u)



def reduction_states(K):
    """``K`` and every sphere its reduction passes through."""
    states = [K]
    for step in fs.reduce_to_octahedron(K).steps:
        states.append(fs.contract(states[-1], step.edge))
    return states


def test_belt_side_witnesses(flag_spheres, non_flag_spheres, hub_states, random_flag_sphere):
    spheres = flag_spheres + non_flag_spheres + hub_states
    for K in spheres + reduction_states(random_flag_sphere(5, 60)):
        sides = brute_sides(K) if K.n <= 40 else fs.belt_covered_edges(K)
        adj = K.adjacency
        for u, v in K.edges:
            assert fs.edge_in_belt(K, (u, v)) is ((u, v) in sides)
            for a, b in ((u, v), (v, u)):
                far = _belt_side(adj, a, b)
                assert (far is not None) == ((u, v) in sides)
                if far is not None:
                    p, q = far
                    assert p in adj[a] and q in adj[b]
                    belt = _belt_on(adj, sorted((a, b, p, q)))
                    cycle = ((a, b), (b, q), (q, p), (p, a))
                    assert belt is not None
                    assert set(belt.sides) == {(x, y) if x < y else (y, x) for x, y in cycle}


def diagonal_belts(K):
    """The belts as the diagonal enumeration lists them, sorted by cycle."""
    adj = K.adjacency
    found = []
    for a in range(K.n):
        near = adj[a]
        far = {c for b in near for c in adj[b] if c > a} - near
        for c in far:
            common = sorted(x for x in near & adj[c] if x > a)
            for i, b in enumerate(common):
                for d in common[i + 1 :]:
                    if d not in adj[b]:
                        found.append(fs.Belt((a, b, c, d)))
    return tuple(sorted(found, key=lambda belt: belt.cycle))


def uncached_reduce(K):
    """The greedy reduction with no witness cache: every edge tested afresh."""
    cur, steps = K, []
    while cur.n > 6:
        edge = next(e for e in cur.edges if not fs.edge_in_belt(cur, e))
        cur, relabel = fs.contract_mapped(cur, edge)
        steps.append(fs.CertStep(edge, relabel))
    return fs.ContractionCertificate(K, tuple(steps), cur)


def test_witness_cache_and_belts_at_scale(hub_states, random_flag_sphere):
    spheres = [random_flag_sphere(seed, n) for seed, n in ((1, 60), (2, 100), (3, 200))]
    for K in spheres + hub_states[:1]:
        got = fs.certificate_to_json(fs.reduce_to_octahedron(K))
        assert got == fs.certificate_to_json(uncached_reduce(K))
        assert fs.belts(K) == diagonal_belts(K)
