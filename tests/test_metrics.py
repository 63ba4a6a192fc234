import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from bruteforce import (_connected_on, brute_lex_min_cut, brute_min_separator,
                        brute_vertex_connectivity, fw_diameter, random_graph)
from oremax import (DISCONNECTED, ConnectivityResult, FamilyMemberSpec,
                    ParameterError, Parameters, Side, bfs_layers, bits,
                    build_backbone, build_family_member, connectivity,
                    diameter, empty_graph, from_edges, is_connected,
                    is_k_connected, layer_structure_check,
                    local_connectivity, to_graph6, vertex_connectivity)
from oremax import metrics
from oremax.metrics import induced_disconnected


def k_n(n):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return from_edges(n, list(zip(range(n - 1), range(1, n))))


def cycle(n):
    return from_edges(n, list(zip(range(n), [*range(1, n), 0])))


def two_k4():
    return from_edges(8, [(u, v) for u, v in combinations(range(8), 2)
                          if u // 4 == v // 4])


# --- layers and diameter ----------------------------------------------------


def test_bfs_layers_basics():
    prof = bfs_layers(k_n(3), 0)
    assert prof.layers == (0b001, 0b110)
    assert prof.eccentricity == 1
    prof = bfs_layers(path(4), 0)
    assert prof.layers == (0b0001, 0b0010, 0b0100, 0b1000)
    assert prof.eccentricity == 3
    with pytest.raises(IndexError):
        bfs_layers(path(4), 4)


def test_bfs_layers_unreachable_excluded():
    g = from_edges(4, [(0, 1)])
    prof = bfs_layers(g, 0)
    assert prof.reached() == 0b0011
    assert prof.layer_of(3) is None


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bfs_layers_match_backbone_blocks(k, d):
    t, bm = build_backbone(k, d)
    prof = bfs_layers(t, bm.poles[0])
    assert prof.layers == bm.blocks
    assert prof.eccentricity == d


def test_diameter_basics():
    assert diameter(k_n(2)) == 1
    assert diameter(k_n(5)) == 1
    assert diameter(path(5)) == 4
    t, _ = build_backbone(2, 3)
    assert diameter(t) == 3
    assert diameter(empty_graph(2)) is DISCONNECTED
    with pytest.raises(ParameterError):
        diameter(empty_graph(0))


def test_diameter_matches_floyd_warshall_corpus():
    rng = random.Random(600)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        assert diameter(g) == fw_diameter(g)


def test_is_connected():
    assert is_connected(k_n(1))
    assert is_connected(path(6))
    assert not is_connected(from_edges(3, [(0, 1)]))


# --- connectivity -----------------------------------------------------------


def test_local_connectivity_basics():
    assert local_connectivity(path(3), 0, 2) == 1
    assert local_connectivity(cycle(5), 0, 2) == 2
    t, bm = build_backbone(2, 4)
    assert local_connectivity(t, *bm.poles) == 2


def test_local_connectivity_preconditions():
    g = path(3)
    with pytest.raises(ParameterError):
        local_connectivity(g, 1, 1)
    with pytest.raises(ParameterError):
        local_connectivity(g, 0, 1)  # adjacent
    with pytest.raises(IndexError):
        local_connectivity(g, 0, 9)


def test_local_connectivity_matches_brute_separators():
    rng = random.Random(71)
    seen = 0
    while seen < 120:
        g = random_graph(rng, rng.randrange(4, 8), rng.random())
        for s, t in combinations(range(g.order), 2):
            if not g.has_edge(s, t):
                assert local_connectivity(g, s, t) == \
                    brute_min_separator(g, s, t)
                seen += 1


def test_local_connectivity_backs_over_a_loaded_vertex():
    # the third 2-5 path is only found by an augmenting path that leaves
    # a vertex's exit against its loaded split arc; random graphs of
    # order <= 10 need that step about once in 20,000
    g = from_edges(10, [(0, 2), (0, 4), (0, 7), (1, 4), (1, 5), (1, 6),
                        (1, 9), (2, 3), (2, 6), (3, 9), (5, 6), (5, 8),
                        (6, 8), (6, 9), (7, 8)])
    assert local_connectivity(g, 2, 5) == brute_min_separator(g, 2, 5) == 3


def test_local_connectivity_limit_caps_the_flow():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randrange(2, 10)
        g = random_graph(rng, n, rng.random())
        for s, t in combinations(range(n), 2):
            if not g.has_edge(s, t):
                exact = brute_min_separator(g, s, t)
                for limit in range(n + 1):
                    assert local_connectivity(g, s, t, limit=limit) == \
                        min(limit, exact)


def test_induced_disconnected_matches_brute():
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.random())
        keep = rng.randrange(1 << n)
        assert induced_disconnected(g.rows, keep) == (not _connected_on(g, keep))


def test_vertex_connectivity_basics():
    assert vertex_connectivity(k_n(5)) == ConnectivityResult(4, 0)
    assert vertex_connectivity(k_n(1)) == ConnectivityResult(0, 0)
    r = vertex_connectivity(path(4))
    assert r.kappa == 1
    assert r.witness_cut == 0b0010  # vertex 1, the lex-least cut vertex
    assert vertex_connectivity(empty_graph(3)).kappa == 0
    assert vertex_connectivity(empty_graph(2)) == ConnectivityResult(0, 0)
    assert vertex_connectivity(k_n(2)) == ConnectivityResult(1, 0)
    # minimum degree 3 but no path between the two cliques
    assert vertex_connectivity(two_k4()) == ConnectivityResult(0, 0)
    t, _ = build_backbone(3, 4)
    assert vertex_connectivity(t).kappa == 3
    with pytest.raises(ParameterError):
        vertex_connectivity(empty_graph(0))


def test_vertex_connectivity_matches_brute_corpus():
    rng = random.Random(88)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        assert vertex_connectivity(g).kappa == brute_vertex_connectivity(g)


def test_witness_cut_disconnects():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        r = vertex_connectivity(g)
        full = (1 << g.order) - 1
        if r.witness_cut == 0:
            continue
        keep = full & ~r.witness_cut
        sub = [v for v in range(g.order) if keep >> v & 1]
        comp = {sub[0]}
        grew = True
        while grew:
            grew = False
            for u in list(comp):
                for v in bits(g.rows[u]):
                    if v in sub and v not in comp:
                        comp.add(v)
                        grew = True
        assert len(comp) < len(sub)
        assert bin(r.witness_cut).count("1") == r.kappa
        checked += 1


def test_witness_cut_is_lexicographically_least():
    # both {1} and {2} cut this path; the witness must be {1}
    assert vertex_connectivity(path(4)).witness_cut == 1 << 1
    # K4 minus a perfect matching = C4: cuts are the two diagonals
    c4 = cycle(4)
    assert vertex_connectivity(c4).kappa == 2
    assert vertex_connectivity(c4).witness_cut == (1 << 0 | 1 << 2)


def test_witness_matches_the_subset_scan():
    rng = random.Random(19)
    kappas = set()
    for _ in range(600):
        n = rng.randrange(2, 10)
        g = random_graph(rng, n, 1 - rng.random() ** 2)
        r = vertex_connectivity(g)
        assert r.kappa == connectivity(g) == brute_vertex_connectivity(g)
        if r.kappa < n - 1:
            assert r.witness_cut == brute_lex_min_cut(g, r.kappa)
            kappas.add(r.kappa)
    assert kappas == set(range(8))


def _complete_bipartite(a, b):
    # the b-vertex side takes the labels a..a+b-1
    return from_edges(a + b, [(u, v) for u in range(a)
                              for v in range(a, a + b)])


@pytest.mark.parametrize("g, kappa, witness", [
    (_complete_bipartite(21, 9), 9, ((1 << 9) - 1) << 21),
    (_complete_bipartite(58, 4), 4, ((1 << 4) - 1) << 58),
    # G(30, 1/2); this witness was found by the C(30, 9) subset scan
    (random_graph(random.Random(2), 30, 0.5), 9, 144998684),
], ids=["K(21,9)", "K(58,4)", "G(30,1/2)"])
def test_witness_is_polynomial(monkeypatch, g, kappa, witness):
    # the subset scan needs about 14.3 million checks on K(21, 9)
    calls = 0

    def capped(fn):
        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            assert calls <= 20_000, "exponential witness search"
            return fn(*args, **kwargs)
        return counted

    for name in ("induced_disconnected", "local_connectivity"):
        monkeypatch.setattr(metrics, name, capped(getattr(metrics, name)))
    assert vertex_connectivity(g) == ConnectivityResult(kappa, witness)


@pytest.mark.parametrize("g", [
    two_k4(),
    from_edges(6, [(u, v) for u, v in combinations(range(5), 2)]),
], ids=["two K4", "K5 and an isolated top vertex"])
def test_disconnected_graph_runs_no_flow(monkeypatch, g):
    def no_flow(*args, **kwargs):
        raise AssertionError("flow on a disconnected graph")

    monkeypatch.setattr(metrics, "local_connectivity", no_flow)
    assert vertex_connectivity(g) == ConnectivityResult(0, 0)
    for k in range(1, g.order + 1):
        assert not is_k_connected(g, k)


def test_kappa_at_most_one_runs_no_flow(monkeypatch):
    # one BFS settles kappa <= 1: a connected graph has no empty separator
    def no_flow(*args, **kwargs):
        raise AssertionError("flow once connectivity settles kappa <= 1")

    star = from_edges(5, [(v, 4) for v in range(4)])  # centre last
    member, _ = build_family_member(
        Parameters(6, 1, 3), FamilyMemberSpec(1, 3, (Side.FIRST_THREE,) * 2))
    monkeypatch.setattr(metrics, "local_connectivity", no_flow)
    for g in (path(5), star, member):
        assert connectivity(g) == 1
        assert is_k_connected(g, 1)
    assert is_k_connected(cycle(6), 1)


def test_is_k_connected():
    assert is_k_connected(k_n(4), 3)
    assert not is_k_connected(k_n(4), 4)  # order must exceed k
    assert not is_k_connected(path(4), 2)
    assert is_k_connected(cycle(5), 2)
    assert not is_k_connected(from_edges(3, [(0, 1)]), 1)
    assert not is_k_connected(two_k4(), 1)
    assert not is_k_connected(empty_graph(2), 1)
    assert is_k_connected(k_n(2), 1)
    assert not is_k_connected(k_n(2), 2)
    assert not is_k_connected(empty_graph(0), 1)
    with pytest.raises(ParameterError):
        is_k_connected(k_n(4), 0)


@pytest.mark.parametrize("kappa, g", [
    (3, build_backbone(3, 4)[0]),
    (3, from_edges(43, [(u, v) for u in range(3) for v in range(3, 43)])),
])
def test_flows_follow_the_esfahanian_hakimi_pairs(monkeypatch, kappa, g):
    # each kappa loop pairs v, the least vertex of least degree, with its
    # non-neighbours, then pairs v's non-adjacent neighbours, and runs at
    # most (n - 1 - delta) + C(delta, 2) flows
    calls = []
    inner_kappa, inner_flow = metrics._kappa, metrics.local_connectivity

    def kappa_call(h, *args, **kwargs):
        calls.append((h, []))
        return inner_kappa(h, *args, **kwargs)

    def flow_call(h, s, t, **kwargs):
        assert h is calls[-1][0]
        calls[-1][1].append((s, t))
        return inner_flow(h, s, t, **kwargs)

    def check_calls():
        count = 0
        for h, flows in calls:
            delta = min(map(h.degree, h.vertices()))
            v = min(h.vertices(), key=h.degree)
            for s, t in flows:
                if s == v:
                    assert t != v and not h.has_edge(v, t)
                else:
                    assert s < t and h.has_edge(v, s) and h.has_edge(v, t)
                    assert not h.has_edge(s, t)
            assert len(flows) == len(set(flows))
            assert len(flows) <= h.order - 1 - delta + comb(delta, 2)
            count += len(flows)
        calls.clear()
        return count

    monkeypatch.setattr(metrics, "_kappa", kappa_call)
    monkeypatch.setattr(metrics, "local_connectivity", flow_call)
    assert vertex_connectivity(g).kappa == kappa
    assert check_calls()
    for k in range(1, kappa + 2):
        assert is_k_connected(g, k) == (k <= kappa)
        check_calls()


@pytest.mark.parametrize("first", [0, 12])
def test_least_degree_vertex_in_every_minimum_cut(first):
    # two K6 joined through two degree-4 connectors with disjoint
    # neighbourhoods: the connectors are the only 2-cut, so v (a
    # connector) is cut from no non-neighbour by fewer than 3 paths and
    # only a pair of its own neighbours finds kappa = 2
    c1, c2 = first, first + 1
    rest = [u for u in range(14) if u not in (c1, c2)]
    left, right = rest[:6], rest[6:]
    g = from_edges(14, [*combinations(left, 2), *combinations(right, 2),
                        *((c1, u) for u in left[:2] + right[:2]),
                        *((c2, u) for u in left[2:4] + right[2:4])])
    assert min(g.vertices(), key=g.degree) == c1
    assert vertex_connectivity(g) == ConnectivityResult(2, 1 << c1 | 1 << c2)
    assert connectivity(g) == 2
    assert is_k_connected(g, 2)
    assert not is_k_connected(g, 3)
    assert min(local_connectivity(g, c1, t) for t in g.vertices()
               if t != c1 and not g.has_edge(c1, t)) == 3


def test_connectivity_matches_networkx():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randrange(15, 41)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices())
        ref.add_edges_from((u, v) for u in g.vertices() for v in bits(g.rows[u])
                           if u < v)
        kappa = nx.node_connectivity(ref)
        assert connectivity(g) == kappa, to_graph6(g)
        assert kappa == 0 or is_k_connected(g, kappa)
        assert not is_k_connected(g, kappa + 1)


@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
def test_separator_on_the_lowest_labels(kappa):
    # two cliques joined through the clique {0, ..., kappa - 1}, the only
    # minimum cut; the lowest labels are the cut itself
    n = kappa + 3 + 4
    left = range(kappa, kappa + 3)
    g = from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                       if u < kappa or (u in left) == (v in left)])
    assert vertex_connectivity(g) == ConnectivityResult(kappa, (1 << kappa) - 1)
    assert is_k_connected(g, kappa)
    assert not is_k_connected(g, kappa + 1)


def _check_known_connectivity(g, kappa):
    r = vertex_connectivity(g)
    assert r.kappa == kappa
    assert r.witness_cut.bit_count() == kappa
    assert not _connected_on(g, (1 << g.order) - 1 & ~r.witness_cut)
    assert is_k_connected(g, kappa)
    assert not is_k_connected(g, kappa + 1)


@pytest.mark.parametrize("n, k, d, window_len", [
    (20, 1, 4, 3), (30, 2, 3, 3), (41, 3, 5, 3), (50, 4, 3, 3),
    (62, 2, 6, 3), (24, 1, 8, 4), (37, 3, 4, 4), (62, 4, 5, 4),
])
def test_known_connectivity_of_large_family_members(n, k, d, window_len):
    # windows start at block 2, so pole 0 keeps its k neighbours
    p = Parameters(n, k, d)
    first = p.outside_count // 2 if window_len == 4 else p.outside_count
    sides = ((Side.FIRST_THREE,) * first
             + (Side.LAST_THREE,) * (p.outside_count - first))
    g, _ = build_family_member(p, FamilyMemberSpec(2, window_len, sides))
    _check_known_connectivity(g, k)


@pytest.mark.parametrize("a, b", [(1, 19), (30, 2), (3, 40), (4, 58),
                                  (20, 3), (31, 31)])
def test_known_connectivity_of_complete_bipartite(a, b):
    g = from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])
    _check_known_connectivity(g, min(a, b))


def test_is_k_connected_matches_kappa_corpus():
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        kappa = brute_vertex_connectivity(g)
        for k in range(1, g.order + 1):
            assert is_k_connected(g, k) == (g.order > k and kappa >= k)


# --- layer structure --------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_layer_structure_on_backbone_poles(k, d):
    t, bm = build_backbone(k, d)
    assert layer_structure_check(t, *bm.poles, k)


def test_layer_structure_path_and_cycle():
    assert layer_structure_check(path(5), 0, 4, 1)
    # antipodal pair on C6: the union of layers 1 and 2 is not a clique
    assert not layer_structure_check(cycle(6), 0, 3, 1)


def test_layer_structure_preconditions():
    with pytest.raises(ParameterError):
        layer_structure_check(path(5), 0, 2, 1)  # pair below the diameter
    with pytest.raises(ParameterError):
        layer_structure_check(empty_graph(2), 0, 1, 1)
    with pytest.raises(ParameterError):
        layer_structure_check(path(5), 0, 4, 0)
