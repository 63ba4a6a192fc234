import random
import re
from itertools import combinations

import networkx as nx
import pytest

from bruteforce import (_connected_on, fw_distances, random_graph,
                        ref_canonical_code, ref_certificate)
from oremax import (CANONICAL_MAX_ORDER, MAX_ORDER, CapacityError, Graph,
                    Graph6ParseError, ParameterError, add_edge, bit_code,
                    bits, build_backbone, canonical_form, empty_graph,
                    from_bit_code, from_edges, from_graph6, induced_subgraph,
                    is_clique, is_isomorphic, relabel, relabeling_codes,
                    to_dot, to_edge_list, to_graph6)
from oremax.graphs import (_certificate, _refine, cut_vertices, lower_twins,
                           reach, subset_masks)


def k_n(n):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return from_edges(n, list(zip(range(n - 1), range(1, n))))


def cycle(n):
    return from_edges(n, list(zip(range(n), [*range(1, n), 0])))


def cube():
    return from_edges(8, [(u, u | 1 << b) for u in range(8) for b in range(3)
                          if not u >> b & 1])


# --- construction -----------------------------------------------------------


def test_empty_graph():
    assert empty_graph(0).order == 0
    assert empty_graph(0).size == 0
    g = empty_graph(4)
    assert g.order == 4 and g.size == 0
    assert all(g.degree(v) == 0 for v in g.vertices())


def test_empty_graph_capacity():
    empty_graph(62)
    with pytest.raises(CapacityError):
        empty_graph(63)
    with pytest.raises(ParameterError):
        empty_graph(-1)


def test_add_edge():
    g = add_edge(empty_graph(2), 0, 1)
    assert g.size == 1 and g.has_edge(0, 1) and g.has_edge(1, 0)
    assert add_edge(g, 1, 0).size == 1  # idempotent
    with pytest.raises(ParameterError):
        add_edge(empty_graph(4), 3, 3)
    with pytest.raises(IndexError):
        add_edge(empty_graph(4), 0, 4)


def test_graph_invariants_rejected():
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ParameterError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ParameterError):
        Graph(2, (0b110, 0b001))  # bit beyond order
    with pytest.raises(ParameterError):
        Graph(3, (0, 0))  # row count


def test_size_examples():
    assert k_n(4).size == 6
    assert empty_graph(5).size == 0
    t, _ = build_backbone(2, 3)
    assert t.size == 10


def test_size_is_half_degree_sum_random():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9))
        assert g.size * 2 == sum(g.degree(v) for v in g.vertices())


def test_symmetry_after_random_add_sequences():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 8)
        g = empty_graph(n)
        for _ in range(rng.randrange(0, 12)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                g = add_edge(g, u, v)
        for u in g.vertices():
            assert not g.rows[u] >> u & 1
            for v in bits(g.rows[u]):
                assert g.has_edge(v, u)


def test_induced_subgraph():
    assert is_clique(induced_subgraph(k_n(4), [0, 1, 2]), [0, 1, 2])
    assert induced_subgraph(k_n(4), []).order == 0
    with pytest.raises(IndexError):
        induced_subgraph(k_n(4), [0, 4])


def test_induced_subgraph_backbone_middle_blocks():
    # consecutive K2 blocks with the full join between them give K4
    t, bm = build_backbone(2, 3)
    inner = induced_subgraph(t, bits(bm.blocks[1] | bm.blocks[2]))
    assert inner.order == 4 and inner.size == 6


def test_induced_subgraph_matches_pairwise_definition():
    rng = random.Random(29)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 12), rng.random())
        kept = sorted(rng.sample(range(g.order), rng.randrange(g.order + 1)))
        want = from_edges(len(kept), [(i, j) for (i, u), (j, v)
                                      in combinations(enumerate(kept), 2)
                                      if g.has_edge(u, v)])
        assert induced_subgraph(g, reversed(kept)) == want


def test_is_clique():
    g = k_n(4)
    assert is_clique(g, [2])
    assert is_clique(g, [])
    assert is_clique(g, range(4))
    assert not is_clique(cycle(4), range(4))


def test_is_clique_matches_pairwise_random():
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, 7)
        s = [v for v in range(7) if rng.random() < 0.5]
        expect = all(g.has_edge(u, v)
                     for i, u in enumerate(s) for v in s[i + 1:])
        assert is_clique(g, s) == expect


def test_relabel():
    g = path(3)
    h = relabel(g, [2, 0, 1])  # old 0 -> 2, old 1 -> 0, old 2 -> 1
    assert h.has_edge(2, 0) and h.has_edge(0, 1) and not h.has_edge(2, 1)
    with pytest.raises(ParameterError):
        relabel(g, [0, 0, 1])


# --- traversal kernel and subset masks -------------------------------------


def test_reach_matches_floyd_warshall_distances():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.random())
        dist = fw_distances(g)
        seed = rng.randrange(1, 1 << n)
        from_seed = [min(dist[s][v] for s in bits(seed)) for v in range(n)]
        for depth in (0, 1, rng.randrange(2, n + 2), -1):
            limit = depth if depth >= 0 else n
            within = sum(1 << v for v in range(n) if from_seed[v] <= limit)
            exact = sum(1 << v for v in range(n) if from_seed[v] == depth)
            assert reach(g.rows, seed, depth=depth) == (within, exact)


def test_reach_within_allowed_matches_induced_connectivity():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.random())
        keep = rng.randrange(1 << n)
        reached, frontier = reach(g.rows, keep & -keep, keep)
        assert (reached == keep) == _connected_on(g, keep)
        assert frontier == 0


def test_cut_vertices_match_brute_removal():
    rng = random.Random(45)
    checked = 0
    while checked < 400:
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, rng.random())
        keep = rng.randrange(1, 1 << n)
        if not _connected_on(g, keep):
            continue
        expect = sum(1 << v for v in bits(keep)
                     if not _connected_on(g, keep & ~(1 << v)))
        assert cut_vertices(g.rows, keep) == expect
        checked += 1
    assert cut_vertices(path(5).rows, 0) == 0


def test_subset_masks_follow_combinations_order():
    for n in range(8):
        for size in range(n + 2):
            expect = [sum(1 << v for v in combo)
                      for combo in combinations(range(n), size)]
            assert list(subset_masks(n, size)) == expect


def test_lower_twins_match_definition():
    # v's lower twins: every u < v with N(u) - {v} == N(v) - {u}
    def want(g):
        return [sum(1 << u for u in range(v)
                    if g.neighbors(u) - {v} == g.neighbors(v) - {u})
                for v in range(g.order)]

    rng = random.Random(53)
    graphs = [random_graph(rng, rng.randrange(0, 10),
                           rng.choice([0.1, 0.5, 0.9, rng.random()]))
              for _ in range(300)]
    backbone = build_backbone(2, 3)[0]
    # {0, 3, 6} share N = {1, 2, 4} and are pairwise non-adjacent; 1 and
    # 4 are adjacent with equal closed neighbourhoods {0, 1, 3, 4, 6};
    # 2 has the open class's neighbours plus 5, so it twins with no one
    mixed = from_edges(7, [(1, 4), (2, 5),
                           *((u, w) for u in (0, 3, 6) for w in (1, 2, 4))])
    flipped = relabel(mixed, [6 - v for v in range(7)])
    for g in graphs + [backbone, mixed, flipped]:
        assert lower_twins(g.rows) == want(g), to_graph6(g)
    # K1 v K2 v K2 v K1: each middle block is one twin class
    assert lower_twins(backbone.rows) == [0, 0, 1 << 1, 0, 1 << 3, 0]
    assert lower_twins(mixed.rows) == [0, 0, 0, 1 << 0, 1 << 1, 0,
                                       1 << 0 | 1 << 3]
    for n in range(8):
        assert lower_twins(k_n(n).rows) == [(1 << v) - 1 for v in range(n)]


# --- canonical forms --------------------------------------------------------


def test_canonical_form_label_invariance():
    p3a = from_edges(3, [(0, 1), (1, 2)])
    p3b = from_edges(3, [(0, 2), (2, 1)])
    assert canonical_form(p3a) == canonical_form(p3b)
    assert canonical_form(k_n(3)) != canonical_form(p3a)


def test_canonical_form_random_relabelings_of_backbone():
    t, _ = build_backbone(2, 3)
    want = canonical_form(t)
    rng = random.Random(9)
    for _ in range(100):
        perm = list(range(t.order))
        rng.shuffle(perm)
        assert canonical_form(relabel(t, perm)) == want


def test_canonical_form_against_reference():
    rng = random.Random(31)
    graphs = [random_graph(rng, rng.randrange(0, 7)) for _ in range(40)]
    # twin-free and vertex-transitive: the prefix search keeps many ties
    graphs += [cycle(8), cube()]
    for g in graphs:
        got = bit_code(from_graph6(canonical_form(g).g6))
        assert got == ref_canonical_code(g)


def test_canonical_form_separates_nonisomorphic():
    pairs = [
        (path(4), cycle(4)),
        (k_n(4), cycle(4)),
        (path(5), cycle(5)),
        (from_edges(6, [(0, 1), (2, 3), (4, 5)]), path(6)),
    ]
    for g, h in pairs:
        assert canonical_form(g) != canonical_form(h)


def test_canonical_form_guard():
    with pytest.raises(CapacityError):
        canonical_form(empty_graph(CANONICAL_MAX_ORDER + 1))


def test_is_isomorphic():
    assert not is_isomorphic(cycle(4), path(4))
    g = random_graph(random.Random(1), 7)
    perm = list(range(7))
    random.Random(2).shuffle(perm)
    assert is_isomorphic(g, relabel(g, perm))


def test_relabeling_codes_is_full_orbit():
    from itertools import permutations
    rng = random.Random(47)
    graphs = [path(4)]
    graphs += [random_graph(rng, rng.randrange(0, 7), rng.random())
               for _ in range(30)]
    # twin-heavy: a star, K2,3 and a backbone, where twin classes prune
    graphs += [from_edges(5, [(0, v) for v in range(1, 5)]),
               from_edges(5, [(u, v) for u in range(2) for v in range(2, 5)]),
               build_backbone(2, 3)[0]]
    for g in graphs:
        want = {bit_code(relabel(g, perm))
                for perm in permutations(range(g.order))}
        assert relabeling_codes(g) == want


def cycle_unions():
    """C_a + C_b with 3 <= a < b and a + b <= 9, and their complements.

    Each is regular, so refinement leaves one cell, yet it has two
    orbits: the certificate must not depend on which vertex is tried
    first.
    """
    for a in range(3, 5):
        for b in range(a + 1, 10 - a):
            g = from_edges(a + b, [*zip(range(a), [*range(1, a), 0]),
                                   *zip(range(a, a + b),
                                        [*range(a + 1, a + b), a])])
            yield g
            yield from_edges(g.order, [(u, v) for u, v in combinations(
                range(g.order), 2) if not g.has_edge(u, v)])


def test_refine_is_equitable_and_equivariant():
    rng = random.Random(59)
    for g in [*(random_graph(rng, rng.randrange(1, 10), rng.random())
                for _ in range(300)), path(9), *cycle_unions()]:
        n = g.order
        # a random ordered partition into consecutive runs of a shuffle
        vertices = rng.sample(range(n), n)
        cuts = sorted({0, n, *rng.sample(range(1, n + 1), rng.randrange(n))})
        cells = [sum(1 << v for v in vertices[i:j])
                 for i, j in zip(cuts, cuts[1:])]
        out = _refine(g.rows, cells)
        assert sum(out) == (1 << n) - 1 and all(out)
        # each output cell lies in one input cell, in the input's order
        owner = [next(i for i, c in enumerate(cells) if cell & c == cell)
                 for cell in out]
        assert owner == sorted(owner)
        for cell in out:
            assert len({tuple((g.rows[v] & c).bit_count() for c in out)
                        for v in bits(cell)}) == 1
        perm = rng.sample(range(n), n)

        def moved(mask):
            return sum(1 << perm[v] for v in bits(mask))

        assert _refine(relabel(g, perm).rows, [*map(moved, cells)]) == [
            *map(moved, out)]


def test_certificate_classes_are_isomorphism_classes():
    # equal certificates <=> equal canonical forms, on relabelled pairs
    rng = random.Random(61)
    graphs = [random_graph(rng, n, rng.random())
              for n in (rng.randrange(0, 10) for _ in range(1500))]
    graphs += [g for g in cycle_unions() for _ in range(10)]
    pairs = set()
    for g in graphs:
        cert = _certificate(g.rows)
        perm = rng.sample(range(g.order), g.order)
        assert _certificate(relabel(g, perm).rows) == cert, to_graph6(g)
        pairs.add(((g.order, cert), canonical_form(g)))
    assert len({c for c, _ in pairs}) == len({f for _, f in pairs}) == len(pairs)
    assert len(pairs) > 400


def test_certificate_against_reference():
    # every graph of order <= 5 and random ones of order 6 against the
    # permutation scan's classes; the value is the unpruned tree's least
    # leaf on those and on the cycle unions
    rng = random.Random(67)
    graphs = [from_edges(n, edges) for n in range(6)
              for size in range(n * (n - 1) // 2 + 1)
              for edges in combinations(combinations(range(n), 2), size)]
    graphs += [random_graph(rng, 6, rng.random()) for _ in range(60)]
    pairs = set()
    for g in graphs:
        cert = _certificate(g.rows)
        assert cert == ref_certificate(g), to_graph6(g)
        pairs.add(((g.order, cert), (g.order, ref_canonical_code(g))))
    assert len({c for c, _ in pairs}) == len({r for _, r in pairs}) == len(pairs)
    for g in cycle_unions():
        assert _certificate(g.rows) == ref_certificate(g), to_graph6(g)


def test_bit_code_round_trip():
    rng = random.Random(12)
    for n in [*(rng.randrange(0, 9) for _ in range(80)),
              *range(9, MAX_ORDER + 1)]:
        g = random_graph(rng, n, rng.random())
        assert from_bit_code(n, bit_code(g)) == g
    with pytest.raises(ParameterError):
        from_bit_code(3, 8)  # only 3 cells


# --- graph6 -----------------------------------------------------------------


def test_graph6_known_bytes():
    assert to_graph6(k_n(2)) == "A_"
    assert to_graph6(k_n(3)) == "Bw"
    assert from_graph6("A_") == k_n(2)
    assert from_graph6("Bw") == k_n(3)


def test_graph6_matches_networkx():
    rng = random.Random(404)
    orders = [*(rng.randrange(0, 9) for _ in range(60)),
              *range(9, MAX_ORDER + 1)]
    # every padding width: n(n-1)/2 takes only these residues mod 6
    assert {n * (n - 1) // 2 % 6 for n in orders} == {0, 1, 3, 4}
    for n in orders:
        g = random_graph(rng, n, rng.random())
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from((u, v) for u in range(n) for v in bits(g.rows[u])
                           if u < v)
        want = nx.to_graph6_bytes(ref, header=False).rstrip(b"\n")
        assert to_graph6(g).encode("ascii") == want
        assert from_graph6(want) == g


def test_graph6_round_trip_corpus():
    rng = random.Random(55)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(0, 9), rng.random())
        assert from_graph6(to_graph6(g)) == g


def test_graph6_header_accepted():
    assert from_graph6(">>graph6<<Bw") == k_n(3)


def test_graph6_parse_errors():
    line62 = to_graph6(random_graph(random.Random(62), 62))
    cases = [
        ("", "missing order byte", 0),
        (">>graph6<<", "missing order byte", 10),
        ("~??", "multi-byte order not supported (order > 62)", 0),
        ("B", "truncated: expected 1 data bytes, got 0", 1),
        ("A_o", "trailing bytes after adjacency data", 2),
        ("A" + chr(62), "byte '>' outside graph6 range", 1),
        ("Ao", "non-zero padding bits", 1),
        ("Bx", "non-zero padding bits", 1),  # three padding bits, last set
        (chr(127) + "x", "invalid order byte '\\x7f'", 0),
        (b"A\xff", "non-ASCII byte", 1),
        (line62[:100] + chr(127) + line62[101:],
         "byte '\\x7f' outside graph6 range", 100),
    ]
    for text, message, offset in cases:
        with pytest.raises(Graph6ParseError, match=re.escape(
                f"{message} (byte offset {offset})")) as err:
            from_graph6(text)
        assert err.value.offset == offset


# --- text formats -----------------------------------------------------------


def test_to_edge_list():
    assert to_edge_list(k_n(2)) == "0 1"
    assert to_edge_list(empty_graph(3)) == ""
    t, _ = build_backbone(1, 2)
    assert to_edge_list(t) == "0 1\n1 2"


def test_to_dot():
    text = to_dot(empty_graph(3))
    assert text == "graph g {\n  0;\n  1;\n  2;\n}"
    text = to_dot(path(3))
    assert "0 -- 1;" in text and "1 -- 2;" in text
    # deterministic output
    assert text == to_dot(path(3))
