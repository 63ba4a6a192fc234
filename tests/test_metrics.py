import random
from itertools import combinations, product
from math import comb
from pathlib import Path

import networkx as nx
import pytest

from bruteforce import (_connected_on, brute_lex_min_cut, brute_min_separator,
                        brute_vertex_connectivity, edges, fw_diameter,
                        fw_distances, random_graph, ref_layer_structure,
                        ref_layered_graph, relabel)
from oremax import (DISCONNECTED, ConnectivityResult, FamilyMemberSpec,
                    Graph, ParameterError, Parameters, Side, backbone_order,
                    bfs_layers, bits, build_backbone, build_family_member,
                    connectivity, diameter, from_edges, is_connected,
                    is_k_connected, layer_structure_check, local_connectivity,
                    to_graph6, vertex_connectivity)
from oremax import metrics


def k_n(n):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return from_edges(n, list(zip(range(n - 1), range(1, n))))


def cycle(n):
    return from_edges(n, list(zip(range(n), [*range(1, n), 0])))


def two_k4():
    return from_edges(8, [(u, v) for u, v in combinations(range(8), 2)
                          if u // 4 == v // 4])


def flow_paths(rows, keep, s, t, pred):
    """The s-t paths a flow list carries, each without its ends.

    pred[v] == v for a free vertex, else v's predecessor on its path.
    Asserts that the loaded vertices lie in ``keep`` and form internally
    disjoint s-t paths of G[keep], with none left over on a cycle.
    """
    after = {}
    starts = []
    for v, u in enumerate(pred):
        if u != v:
            assert v not in (s, t) and keep >> v & 1 and rows[u] >> v & 1
            if u == s:
                starts.append(v)
            else:
                assert u not in after, "two units leave one vertex"
                after[u] = v
    paths = []
    for v in starts:
        path = [v]
        while path[-1] in after:
            path.append(after[path[-1]])
        assert rows[path[-1]] >> t & 1
        paths.append(path)
    assert sum(map(len, paths)) == sum(u != v for v, u in enumerate(pred))
    return paths


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
    assert prof.layers == (0b0001, 0b0010)
    assert prof.layer_of(3) is None
    # a vertex outside 0..n - 1 is in no layer either
    assert prof.layer_of(4) is None
    assert prof.layer_of(-1) is None


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
    assert diameter(from_edges(2, ())) is DISCONNECTED
    assert repr(DISCONNECTED) == "DISCONNECTED"
    with pytest.raises(ParameterError):
        diameter(from_edges(0, ()))


def test_diameter_matches_floyd_warshall_corpus():
    rng = random.Random(600)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        assert diameter(g) == fw_diameter(g)


def test_diameter_ratchet_matches_floyd_warshall():
    # the ratchet ``diameter`` and the oracle's screen share: from a
    # floor best, max(best, diameter) while that is at most cap, else None
    rng = random.Random(2203)
    seen = set()
    for _ in range(2500):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.8, 0.95]))
        cap = rng.randrange(n + 1)
        best = rng.randrange(cap + 1)
        dia = fw_diameter(g)
        if dia is DISCONNECTED:
            want, case = None, "disconnected"
        elif max(best, dia) > cap:
            want, case = None, "over cap"
        else:
            want, case = max(best, dia), "floor" if best > dia else "diameter"
        assert metrics._diameter(g.rows, best, cap, (1 << n) - 1) == want, (
            to_graph6(g), best, cap)
        seen.add(case)
    assert seen == {"disconnected", "over cap", "floor", "diameter"}


def test_diameter_ratchet_from_a_source_mask_matches_floyd_warshall():
    # from the sources in todo: max(best, their greatest eccentricity)
    # while that is at most cap, else None; None too if disconnected
    rng = random.Random(3517)
    seen = set()
    for _ in range(2500):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.8, 0.95]))
        todo = rng.randrange(1, 1 << n)
        cap = rng.randrange(n + 1)
        best = rng.randrange(cap + 1)
        dist = fw_distances(g)
        ecc = max(max(dist[v]) for v in bits(todo))
        if fw_diameter(g) is DISCONNECTED:
            want, case = None, "disconnected"
        elif max(best, ecc) > cap:
            want, case = None, "over cap"
        else:
            want = max(best, ecc)
            case = "below the diameter" if want < fw_diameter(g) else "exact"
        assert metrics._diameter(g.rows, best, cap, todo) == want, (
            to_graph6(g), best, cap, bin(todo))
        seen.add(case)
    assert seen == {"disconnected", "over cap", "below the diameter",
                    "exact"}


class CountingRows(tuple):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, v):
        type(self).reads += 1
        return super().__getitem__(v)


def test_diameter_ratchet_reads_each_row_once_per_source(monkeypatch):
    # raising best takes the stopped flood one layer on instead of
    # flooding again from v: on P62 the first source would otherwise
    # read about 62^2 / 2 rows by itself
    rows = CountingRows(path(62).rows)
    monkeypatch.setattr(CountingRows, "reads", 0)
    assert metrics._diameter(rows, 0, 61, (1 << 62) - 1) == 61
    assert CountingRows.reads <= 62 * 62


def flooded_sources(monkeypatch, rows, best, cap):
    """_diameter's value and the sources it floods from."""
    sources = []
    flood = metrics.reach

    def spy(rows, seed, allowed=-1, depth=-1):
        if allowed == -1:  # a fresh flood, not a raise's one more layer
            sources.append(seed.bit_length() - 1)
        return flood(rows, seed, allowed, depth)

    monkeypatch.setattr(metrics, "reach", spy)
    return metrics._diameter(rows, best, cap, (1 << len(rows)) - 1), sources


def test_diameter_ratchet_skips_the_neighbours_of_a_central_vertex(
        monkeypatch):
    # a flood that covers the graph short of depth best shows ecc(v) <
    # best, so no neighbour of v can raise it.  On P62 vertex 0 raises
    # best to 61, and each odd vertex after it then clears both its
    # neighbours; a star's centre, flooded second, clears every leaf
    assert flooded_sources(monkeypatch, path(62).rows, 0, 61) == (
        61, [0, *range(1, 61, 2), 61])
    star = from_edges(40, [(1, v) for v in range(40) if v != 1])
    assert flooded_sources(monkeypatch, star.rows, 0, 39) == (2, [0, 1])


@pytest.mark.parametrize("lone", [0, 61])
def test_diameter_of_a_path_and_an_isolated_vertex(lone):
    # the ratchet's own flood finds the graph disconnected
    others = [v for v in range(62) if v != lone]
    g = from_edges(62, list(zip(others, others[1:])))
    assert diameter(g) is DISCONNECTED


def test_is_connected():
    assert is_connected(k_n(1))
    assert is_connected(path(6))
    assert not is_connected(from_edges(3, [(0, 1)]))
    with pytest.raises(ParameterError):
        is_connected(from_edges(0, ()))


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


def test_local_connectivity_rejects_a_negative_limit():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert local_connectivity(g, 0, 3, limit=0) == 0
    with pytest.raises(ParameterError, match="limit"):
        local_connectivity(g, 0, 3, limit=-1)


def test_flow_matches_brute_separators_inside_keep():
    # _flow's one-walk preload of short paths stays inside keep and under
    # limit, and _augment completes it to min(limit, kappa(s, t; G[keep]))
    rng = random.Random(29)
    preloaded = 0
    for _ in range(150):
        n = rng.randrange(2, 13)
        g = random_graph(rng, n, rng.random())
        pairs = [(s, t) for s, t in combinations(range(n), 2)
                 if not g.has_edge(s, t)]
        if not pairs:
            continue
        s, t = rng.choice(pairs)
        keep = rng.getrandbits(n) | 1 << s | 1 << t
        induced = Graph(n, tuple(row & keep if keep >> v & 1 else 0
                                 for v, row in enumerate(g.rows)))
        exact = brute_min_separator(induced, s, t)
        preloaded += (g.rows[s] & g.rows[t] & keep).bit_count() > 0
        for limit in range(n + 1):
            flow, pred = metrics._flow(g.rows, keep, s, t, limit)
            assert flow == min(limit, exact), (to_graph6(g), keep, s, t)
            assert len(flow_paths(g.rows, keep, s, t, pred)) == flow
    assert preloaded >= 30


def test_flow_loads_three_edge_paths_before_any_search(monkeypatch):
    # s = 0 and t = 10 share one neighbour, 1; every other 0-10 path has
    # three edges, 0-a-b-10 with a in 2..5 and b in 6..9, each a
    # adjacent to each b.  1 is also adjacent to 2 but, being a
    # neighbour of s, is no b.  The preload pairs each a with the least
    # unused b, so the flow reaches its limit before _augment searches
    g = from_edges(11, [(0, 1), (1, 10), (1, 2),
                        *((0, a) for a in range(2, 6)),
                        *((b, 10) for b in range(6, 10)),
                        *product(range(2, 6), range(6, 10))])
    entered = []
    augment = metrics._augment

    def spy(rows, keep, s, t, pred, flow, limit):
        entered.append((flow, limit))
        return augment(rows, keep, s, t, pred, flow, limit)

    monkeypatch.setattr(metrics, "_augment", spy)
    full = (1 << 11) - 1
    flow, pred = metrics._flow(g.rows, full, 0, 10, 5)
    assert (flow, entered) == (5, [(5, 5)])
    assert flow_paths(g.rows, full, 0, 10, pred) == [
        [1], [2, 6], [3, 7], [4, 8], [5, 9]]
    # the preload stops at the limit and stays inside keep: without 6
    # the last a has no b left, and one search finds no path for it
    assert metrics._flow(g.rows, full, 0, 10, 3)[0] == 3
    flow, pred = metrics._flow(g.rows, full ^ 1 << 6, 0, 10, 5)
    assert flow == 4 and entered[-1] == (4, 5)
    assert flow_paths(g.rows, full ^ 1 << 6, 0, 10, pred) == [
        [1], [2, 7], [3, 8], [4, 9]]


def test_in_min_cut_skips_a_unit_that_only_circles():
    # a max flow may carry a circulation besides its paths; a vertex on
    # it alone lies in no minimum cut.  C6 with s = 0, t = 3 has two
    # paths; the triangle 6, 7, 8 hangs off vertex 1 and circles
    g = from_edges(9, [*zip(range(6), [1, 2, 3, 4, 5, 0]),
                       (6, 7), (7, 8), (8, 6), (1, 6)])
    full = (1 << 9) - 1
    pred = [0, 0, 1, 3, 5, 0, 8, 6, 7]
    assert len(flow_paths(g.rows, full, 0, 3, pred[:6] + [6, 7, 8])) == 2
    tight = [(0, 3, pred, 2)]
    assert metrics._in_min_cut(g.rows, full, 1 << 1, tight)
    for v in (6, 7, 8):
        assert not metrics._in_min_cut(g.rows, full, 1 << v, tight)


def test_vertex_connectivity_basics():
    assert vertex_connectivity(k_n(5)) == ConnectivityResult(4, 0)
    assert vertex_connectivity(k_n(1)) == ConnectivityResult(0, 0)
    r = vertex_connectivity(path(4))
    assert r.kappa == 1
    assert r.witness_cut == 0b0010  # vertex 1, the lex-least cut vertex
    assert vertex_connectivity(from_edges(3, ())).kappa == 0
    assert vertex_connectivity(from_edges(2, ())) == ConnectivityResult(0, 0)
    assert vertex_connectivity(k_n(2)) == ConnectivityResult(1, 0)
    # minimum degree 3 but no path between the two cliques
    assert vertex_connectivity(two_k4()) == ConnectivityResult(0, 0)
    t, _ = build_backbone(3, 4)
    assert vertex_connectivity(t).kappa == 3
    with pytest.raises(ParameterError):
        vertex_connectivity(from_edges(0, ()))
    with pytest.raises(ParameterError):
        connectivity(from_edges(0, ()))


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


def test_witness_matches_the_subset_scan_at_kappa_3_to_5():
    # every position but the last two tests its candidates against the
    # flows of G minus the chosen vertices, which the test above meets
    # only at n <= 9
    rng = random.Random(1984)
    count = dict.fromkeys(range(3, 6), 0)
    while min(count.values()) < 15:
        g = random_graph(rng, rng.randrange(10, 15), rng.uniform(0.4, 0.75))
        r = vertex_connectivity(g)
        if r.kappa in count and count[r.kappa] < 15:
            assert r.kappa == brute_vertex_connectivity(g)
            assert r.witness_cut == brute_lex_min_cut(g, r.kappa), \
                to_graph6(g)
            count[r.kappa] += 1


def _complete_bipartite(a, b):
    # the b-vertex side takes the labels a..a+b-1
    return from_edges(a + b, [(u, v) for u in range(a)
                              for v in range(a, a + b)])


WITNESS_TABLE = Path(__file__).parent / "data" / "witness.tsv"


def _shuffled(rng, g):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, perm)


def _planted(rng, n, kappa):
    # a circulant core on n - 1 vertices with offsets 1..ceil(kappa / 2)
    # and n random chords, plus one vertex joined to kappa of it
    core = n - 1
    edges = {(i, (i + off) % core) for off in range(1, (kappa + 1) // 2 + 1)
             for i in range(core)}
    edges |= set(rng.sample(list(combinations(range(core), 2)), n))
    edges |= {(core, u) for u in rng.sample(range(core), kappa)}
    return _shuffled(rng, from_edges(n, edges))


def _split(rng, n, kappa):
    # two G(a, 1/2) halves joined only through kappa vertices, each with
    # kappa + 1 neighbours on either side
    a = rng.randrange(kappa + 2, n - 2 * kappa)
    left, cut, right = range(a), range(a, a + kappa), range(a + kappa, n)
    edges = {e for part in (left, right) for e in combinations(part, 2)
             if rng.random() < 0.5}
    for s in cut:
        edges |= {(s, u) for side in (left, right)
                  for u in rng.sample(side, kappa + 1)}
    return _shuffled(rng, from_edges(n, edges))


def _member(rng, k, d):
    # a family member with a random window, relabelled half of the time
    n = rng.randrange(max(20, backbone_order(k, d) + 2), 63)
    p = Parameters(n, k, d)
    length = rng.choice((3, 4))
    start = rng.randrange(1, d + 3 - length)
    first = (rng.randrange(1, p.outside_count) if length == 4
             else p.outside_count)
    sides = ((Side.FIRST_THREE,) * first
             + (Side.LAST_THREE,) * (p.outside_count - first))
    g, _ = build_family_member(p, FamilyMemberSpec(start, length, sides))
    return _shuffled(rng, g) if rng.random() < 0.5 else g


def witness_graphs():
    """The graphs of tests/data/witness.tsv, all of order 20-62."""
    rng = random.Random(2074)
    for i in range(42):
        yield _planted(rng, rng.randrange(20, 63), 1 + i % 6)
    for i in range(24):
        yield _split(rng, rng.randrange(20, 63), 2 + i % 4)
    for i in range(30):
        yield _member(rng, 1 + i % 5, 3 + i % 4)
    for _ in range(12):
        yield random_graph(rng, rng.randrange(20, 41),
                           rng.choice((0.2, 0.3, 0.5)))
    yield _complete_bipartite(21, 9)
    yield _complete_bipartite(58, 4)
    yield random_graph(random.Random(2), 30, 0.5)


def witness_row(g):
    r = vertex_connectivity(g)
    cut = ",".join(map(str, bits(r.witness_cut))) or "-"
    return f"{to_graph6(g)}\t{r.kappa}\t{cut}"


def test_witness_matches_the_pinned_table():
    # the table pins graph6, kappa and the witness's vertices ("-" for
    # none), as the greedy search with one connectivity test per
    # candidate wrote them; `python tests/test_metrics.py` rewrites it
    want = WITNESS_TABLE.read_text().splitlines()
    assert len(want) >= 100
    assert [witness_row(g) for g in witness_graphs()] == want


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

    for name in ("local_connectivity", "_augment"):
        monkeypatch.setattr(metrics, name, capped(getattr(metrics, name)))
    assert vertex_connectivity(g) == ConnectivityResult(kappa, witness)


def test_witness_builds_no_graph(monkeypatch):
    # the witness's flows run on vertex masks of the input's rows
    built = []
    check = Graph.__post_init__

    def counting_check(g):
        built.append(g.order)
        check(g)

    g = _complete_bipartite(58, 4)
    monkeypatch.setattr(Graph, "__post_init__", counting_check)
    assert vertex_connectivity(g) == ConnectivityResult(4, 15 << 58)
    assert built == []


@pytest.mark.parametrize("g", [
    two_k4(),
    from_edges(6, [(u, v) for u, v in combinations(range(5), 2)]),
], ids=["two K4", "K5 and an isolated top vertex"])
def test_disconnected_graph_runs_no_flow(monkeypatch, g):
    def no_flow(*args, **kwargs):
        raise AssertionError("flow on a disconnected graph")

    monkeypatch.setattr(metrics, "local_connectivity", no_flow)
    monkeypatch.setattr(metrics, "_augment", no_flow)
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
    assert not is_k_connected(from_edges(2, ()), 1)
    assert is_k_connected(k_n(2), 1)
    assert not is_k_connected(k_n(2), 2)
    assert not is_k_connected(from_edges(0, ()), 1)
    with pytest.raises(ParameterError):
        is_k_connected(k_n(4), 0)


@pytest.mark.parametrize("kappa, g", [
    (3, build_backbone(3, 4)[0]),
    (3, from_edges(43, [(u, v) for u in range(3) for v in range(3, 43)])),
])
def test_flows_follow_the_esfahanian_hakimi_pairs(monkeypatch, kappa, g):
    # each pair loop on G[keep] pairs v, its least vertex of least
    # degree, with its non-neighbours, then pairs v's non-adjacent
    # neighbours, and runs at most (n - 1 - delta) + C(delta, 2) flows:
    # vertex_connectivity's loops are _tight_flows calls, each flow one
    # fresh _flow; is_k_connected's are _kappa calls, each flow one
    # local_connectivity
    calls = []  # (rows, keep, flows) per loop
    inner = {name: getattr(metrics, name) for name in
             ("_kappa", "local_connectivity", "_tight_flows", "_flow")}
    in_loop = False

    def kappa_call(h, *args, **kwargs):
        calls.append((h.rows, (1 << h.order) - 1, []))
        return inner["_kappa"](h, *args, **kwargs)

    def flow_call(h, s, t, **kwargs):
        assert h.rows is calls[-1][0]
        calls[-1][2].append((s, t))
        return inner["local_connectivity"](h, s, t, **kwargs)

    def tight_call(rows, keep, cap):
        nonlocal in_loop
        calls.append((rows, keep, []))
        in_loop = True
        try:
            return inner["_tight_flows"](rows, keep, cap)
        finally:
            in_loop = False

    def fresh_call(rows, keep, s, t, limit):
        if in_loop:
            assert rows is calls[-1][0] and keep == calls[-1][1]
            calls[-1][2].append((s, t))
        return inner["_flow"](rows, keep, s, t, limit)

    def check_calls():
        count = 0
        for rows, keep, flows in calls:
            def degree(u):
                return (rows[u] & keep).bit_count()
            delta = min(map(degree, bits(keep)))
            v = min(bits(keep), key=degree)
            for s, t in flows:
                assert keep >> s & 1 and keep >> t & 1
                if s == v:
                    assert t != v and not rows[v] >> t & 1
                else:
                    assert s < t and rows[v] >> s & 1 and rows[v] >> t & 1
                    assert not rows[s] >> t & 1
            assert len(flows) == len(set(flows))
            assert len(flows) <= keep.bit_count() - 1 - delta + comb(delta, 2)
            count += len(flows)
        calls.clear()
        return count

    for name, hook in (("_kappa", kappa_call), ("local_connectivity", flow_call),
                       ("_tight_flows", tight_call), ("_flow", fresh_call)):
        monkeypatch.setattr(metrics, name, hook)
    assert vertex_connectivity(g).kappa == kappa
    assert calls[0][1] == (1 << g.order) - 1  # G itself first
    assert check_calls()
    for k in range(1, kappa + 2):
        assert is_k_connected(g, k) == (k <= kappa)
        check_calls()


def test_vertex_connectivity_walks_the_pairs_of_g_once(monkeypatch):
    # kappa and the first position's tight flows come from one pass
    full_passes = []
    inner = metrics._pairs

    def pairs_call(rows, keep):
        full_passes.append(keep == (1 << len(rows)) - 1)
        return inner(rows, keep)

    monkeypatch.setattr(metrics, "_pairs", pairs_call)
    for g, kappa in ((build_backbone(3, 4)[0], 3),
                     (_complete_bipartite(21, 9), 9),
                     (random_graph(random.Random(2), 30, 0.5), 9)):
        full_passes.clear()
        assert vertex_connectivity(g).kappa == kappa
        assert full_passes.count(True) == 1
        assert len(full_passes) == kappa - 2  # one per position with c >= 2


def test_tight_flows_keep_exactly_the_pairs_at_kappa():
    # the running cap reads every pair at or below the final kappa
    # exactly, so the kept pairs are those whose flow is kappa
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(2, 15)
        g = random_graph(rng, n, rng.random())
        full = (1 << n) - 1
        kappa, tight = metrics._tight_flows(g.rows, full, n - 1)
        assert kappa == brute_vertex_connectivity(g)
        assert [(s, t) for s, t, _, _ in tight] == [
            (s, t) for s, t in metrics._pairs(g.rows, full)
            if local_connectivity(g, s, t) == kappa]
        for s, t, pred, flow in tight:
            assert flow == kappa
            assert len(flow_paths(g.rows, full, s, t, pred)) == kappa


def test_a_pair_below_the_running_minimum_restarts_the_tight_list():
    # vertex 4 has degree 4 and is v; its pairs with 5, 6 and 7 read
    # exactly 4 before a pair of its neighbours finds kappa = 3, and
    # those stale pairs would put vertex 0 in the witness
    g = from_edges(13, [*combinations(range(4), 2),
                        *((4, a) for a in range(4)),
                        *((a, s) for a in range(4) for s in (5, 6, 7)),
                        *combinations(range(8, 13), 2),
                        *((b, s) for b in range(8, 13) for s in (5, 6, 7))])
    assert vertex_connectivity(g) == ConnectivityResult(3, 0b11100000)
    assert vertex_connectivity(g).witness_cut == brute_lex_min_cut(g, 3)


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
    assert min(range(14), key=lambda v: g.rows[v].bit_count()) == c1
    assert vertex_connectivity(g) == ConnectivityResult(2, 1 << c1 | 1 << c2)
    assert connectivity(g) == 2
    assert is_k_connected(g, 2)
    assert not is_k_connected(g, 3)
    assert min(local_connectivity(g, c1, t) for t in range(14)
               if t != c1 and not g.has_edge(c1, t)) == 3


def test_connectivity_matches_networkx():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randrange(15, 41)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges(g))
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
        layer_structure_check(from_edges(2, ()), 0, 1, 1)
    with pytest.raises(ParameterError):
        layer_structure_check(path(5), 0, 4, 0)


def test_layer_structure_matches_the_reference():
    # seeded random graphs and complete layered graphs with at most one
    # pair flipped, judged at every diametral pair for k = 1..3
    rng = random.Random(71)
    graphs = [random_graph(rng, rng.randrange(1, 11),
                           rng.choice([0.3, 0.6, 0.9, rng.random()]))
              for _ in range(300)]
    for _ in range(400):
        sizes = [1] + [rng.randrange(1, 4) for _ in range(rng.randrange(1, 6))]
        if sum(sizes) > 10:
            continue
        labels = rng.sample(range(sum(sizes)), sum(sizes))
        cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        g = ref_layered_graph([labels[a:b] for a, b in zip(cuts, cuts[1:])])
        if rng.random() < 0.7:
            u, v = rng.sample(range(g.order), 2)
            rows = list(g.rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            g = Graph(g.order, tuple(rows))
        graphs.append(g)
    verdicts = {True: 0, False: 0}
    for g in graphs:
        dia = fw_diameter(g)
        if dia is DISCONNECTED:
            continue
        dist = fw_distances(g)
        for x, y in product(range(g.order), repeat=2):
            if dist[x][y] == dia:
                for k in (1, 2, 3):
                    want = ref_layer_structure(g, x, y, k)
                    assert layer_structure_check(g, x, y, k) == want, \
                        (to_graph6(g), x, y, k)
                    verdicts[want] += 1
    assert min(verdicts.values()) > 1000, verdicts


if __name__ == "__main__":
    WITNESS_TABLE.write_text("".join(witness_row(g) + "\n"
                                     for g in witness_graphs()))
