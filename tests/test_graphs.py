import random
import re
from itertools import combinations

import networkx as nx
import pytest

from bruteforce import (_code_rows, _connected_on, _order_code, fw_distances,
                        is_isomorphic, random_graph, random_rows,
                        ref_canonical_code, ref_certificate, ref_graph6,
                        ref_graph_error, ref_layered_graph, relabel)
from oremax import graphs
from oremax import (CANONICAL_MAX_ORDER, MAX_ORDER, CapacityError, Graph,
                    Graph6ParseError, ParameterError, bit_code, bits,
                    build_backbone, canonical_form, from_bit_code, from_edges,
                    from_graph6, relabeling_codes, to_dot, to_edge_list,
                    to_graph6)
from oremax.graphs import (_certificate, _refine, cut_vertices, layered_rows,
                           lower_twins, reach)


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
    assert from_edges(0, ()).order == 0
    assert from_edges(0, ()).size == 0
    g = from_edges(4, ())
    assert g.order == 4 and g.size == 0
    assert g.rows == (0, 0, 0, 0)


def test_empty_graph_capacity():
    from_edges(62, ())
    with pytest.raises(CapacityError):
        from_edges(63, ())
    with pytest.raises(ParameterError):
        from_edges(-1, ())
    with pytest.raises(CapacityError):
        to_graph6(Graph(63, (0,) * 63))


def test_add_edge():
    # from_edges takes each edge once, in either direction
    g = from_edges(2, [(0, 1)])
    assert g.size == 1 and g.has_edge(0, 1) and g.has_edge(1, 0)
    assert from_edges(2, [(0, 1), (1, 0)]) == g
    with pytest.raises(ParameterError):
        from_edges(4, [(3, 3)])
    with pytest.raises(IndexError):
        from_edges(4, [(0, 4)])


def test_graph_invariants_rejected():
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ParameterError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ParameterError):
        Graph(2, (0b110, 0b001))  # bit beyond order
    with pytest.raises(ParameterError):
        Graph(3, (0, 0))  # row count
    with pytest.raises(ParameterError):
        Graph(-1, ())  # negative order
    with pytest.raises(ParameterError, match="row 1 has bits outside 0..1"):
        Graph(2, (0b10, -3))  # negative row, its bit 0 symmetric
    # one pass over the rows: the first defective row reports its first
    # defect, here row 0's missing partner before row 2's self-loop
    with pytest.raises(ParameterError, match="asymmetric adjacency"):
        Graph(3, (0b010, 0b000, 0b100))


def test_graph_validation_matches_reference():
    # random rows at orders either side of a power of two, where the
    # packed stride doubles, each with zero or more planted defects:
    # Graph accepts what the reference accepts and raises its message
    rng = random.Random(2032)
    outcomes = set()
    for n in (0, 1, 2, 3, 31, 32, 33, 62, 63, 64, 65, 127, 128, 129):
        for _ in range(60):
            rows = random_rows(rng, n, rng.random())
            for _ in range(rng.randrange(4) if n else 0):  # 0: a control
                v = rng.randrange(n)
                kind = rng.randrange(4)
                if kind == 0 and n > 1:  # one half of a pair flipped
                    rows[v] ^= 1 << rng.choice([u for u in range(n) if u != v])
                elif kind == 1:
                    rows[v] |= 1 << v
                elif kind == 2:  # a bit at or past the order
                    rows[v] |= 1 << n + rng.randrange(3)
                elif rng.random() < 0.5:  # a negative row
                    rows[v] = ~rows[v]
                else:
                    rows[v] = -1 - rng.randrange(n + 1)
            want = ref_graph_error(n, rows)
            outcomes.add(want.split()[0] if want else None)
            if want is None:
                assert Graph(n, rows).rows == tuple(rows)
                continue
            with pytest.raises(ParameterError) as info:
                Graph(n, rows)
            assert str(info.value) == want
    assert outcomes == {None, "row", "self-loop", "asymmetric"}


def test_graph_keeps_list_rows_as_a_tuple():
    # a list of rows is copied: the graph stays hashable, equal to its
    # tuple form, and deaf to later writes to the caller's list
    rows = [0b10, 0b01]
    g = Graph(2, rows)
    assert g.rows == (0b10, 0b01)
    assert g == Graph(2, (0b10, 0b01))
    assert hash(g) == hash(Graph(2, (0b10, 0b01)))
    rows[0] = 0
    assert g.rows == (0b10, 0b01) and g.size == 1


def test_bits_rejects_a_negative_mask():
    # a negative mask has infinitely many set bits: the walk would never
    # end, so it raises before the first index
    assert list(bits(0b101100)) == [2, 3, 5]
    assert list(bits(0)) == []
    with pytest.raises(ParameterError, match="negative"):
        next(bits(-1))
    with pytest.raises(ParameterError, match="negative"):
        next(bits(-1 << 70))


def test_size_examples():
    assert k_n(4).size == 6
    assert from_edges(5, ()).size == 0
    t, _ = build_backbone(2, 3)
    assert t.size == 10


def test_size_is_half_degree_sum_random():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9))
        n = g.order
        assert g.size * 2 == sum(g.has_edge(u, v) for u in range(n)
                                 for v in range(n))


def test_symmetry_after_random_add_sequences():
    # random edge sequences, repeats and both directions included
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 8)
        pairs = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randrange(0, 12)))
                 if u != v]
        g = from_edges(n, pairs)
        assert g.size == len({frozenset(p) for p in pairs})
        for u in range(n):
            assert not g.rows[u] >> u & 1
            for v in bits(g.rows[u]):
                assert g.has_edge(v, u)


def test_induced_subgraph_backbone_middle_blocks():
    # consecutive K2 blocks with the full join between them give K4
    t, bm = build_backbone(2, 3)
    inner = bm.blocks[1] | bm.blocks[2]
    assert inner.bit_count() == 4
    assert all(t.rows[v] & inner == inner ^ 1 << v for v in bits(inner))


def test_relabel():
    # the test-side relabelling that the invariance tests below rely on
    g = path(3)
    h = relabel(g, [2, 0, 1])  # old 0 -> 2, old 1 -> 0, old 2 -> 1
    assert h.has_edge(2, 0) and h.has_edge(0, 1) and not h.has_edge(2, 1)
    with pytest.raises(ValueError):
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


def test_cut_vertices_on_deep_search_trees():
    # paths and cycles take the search to depth n - 1, where the
    # bisection over the stack has the most ground to cover; chords
    # reach back to every depth, and random keep masks cut the rest
    rng = random.Random(62)
    checked = 0
    for n in (*range(3, 62, 4), 62):
        full = (1 << n) - 1
        for labels in (list(range(n)), rng.sample(range(n), n)):
            line = list(zip(labels, labels[1:]))
            ring = [*line, (labels[-1], labels[0])]
            chords = [tuple(rng.sample(range(n), 2))
                      for _ in range(rng.randrange(1, n // 3 + 2))]
            for edges in (line, ring, ring + chords):
                g = from_edges(n, edges)
                drops = (rng.getrandbits(n) & rng.getrandbits(n)
                         & rng.getrandbits(n) for _ in range(4))
                for keep in (full, *(full & ~drop for drop in drops)):
                    if not _connected_on(g, keep):
                        continue
                    expect = sum(1 << v for v in bits(keep)
                                 if not _connected_on(g, keep & ~(1 << v)))
                    assert cut_vertices(g.rows, keep) == expect
                    checked += 1
    assert checked >= 200
    assert cut_vertices(path(62).rows, (1 << 62) - 1) == (1 << 61) - 2
    assert cut_vertices(cycle(62).rows, (1 << 62) - 1) == 0


def test_lower_twins_match_definition():
    # v's lower twins: every u < v with N(u) - {v} == N(v) - {u}
    def want(g):
        return [sum(1 << u for u in range(v)
                    if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u))
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


def test_layered_rows_match_an_edge_list():
    # seeded size vectors; shuffled labels give non-contiguous layers,
    # the kind build_family_member passes when it adds outside vertices
    rng = random.Random(67)
    scattered = 0
    for trial in range(300):
        sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 12))]
        labels = list(range(sum(sizes)))
        if trial % 2:
            rng.shuffle(labels)
        cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        layers = [labels[a:b] for a, b in zip(cuts, cuts[1:])]
        masks = [sum(1 << v for v in layer) for layer in layers]
        scattered += any(max(layer) - min(layer) >= len(layer)
                         for layer in layers)
        assert layered_rows(masks) == ref_layered_graph(layers).rows, layers
    assert scattered > 100
    assert layered_rows([]) == ()
    # K1 v K2 v K1, the backbone for k = 2, d = 2
    assert layered_rows([0b1, 0b110, 0b1000]) == \
        (0b110, 0b1101, 0b1011, 0b110)

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
    graphs += [random_graph(rng, n, rng.random()) for n in [7] * 6 + [8] * 6]
    # twin-free and vertex-transitive: the prefix search keeps many ties
    graphs += [cycle(8), cube()]
    for g in graphs:
        got = bit_code(from_graph6(canonical_form(g).g6))
        assert got == ref_canonical_code(g), to_graph6(g)


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
        canonical_form(from_edges(CANONICAL_MAX_ORDER + 1, ()))


def test_is_isomorphic():
    # canonical_form(g) == canonical_form(h) is the isomorphism test: it
    # agrees with networkx on relabelled copies and on random graphs of
    # the same order and size
    rng = random.Random(2)
    matched = 0
    for _ in range(300):
        n = rng.randrange(0, 8)
        g = random_graph(rng, n, rng.random())
        h = from_edges(n, rng.sample(list(combinations(range(n), 2)), g.size))
        for other in (relabel(g, rng.sample(range(n), n)), h):
            same = is_isomorphic(g, other)
            assert (canonical_form(g) == canonical_form(other)) == same
        matched += same
    assert 0 < matched < 300
    assert not is_isomorphic(cycle(4), path(4))


def test_relabeling_codes_is_full_orbit():
    from itertools import permutations
    rng = random.Random(47)
    # orders 0-2 have no swap that moves a cell
    graphs = [from_edges(0, ()), from_edges(1, ()), from_edges(2, ()),
              from_edges(2, [(0, 1)]), path(4), cycle(7)]
    graphs += [random_graph(rng, rng.randrange(0, 7), rng.random())
               for _ in range(30)]
    graphs += [random_graph(rng, 7, rng.random()) for _ in range(4)]
    # twin-heavy: a star, K2,3, a backbone, a complete layered graph
    # (adjacent twins) and K3,4 (non-adjacent ones), where twins prune
    graphs += [from_edges(5, [(0, v) for v in range(1, 5)]),
               from_edges(5, [(u, v) for u in range(2) for v in range(2, 5)]),
               build_backbone(2, 3)[0],
               Graph(7, layered_rows([0b1, 0b110, 0b111000, 0b1000000])),
               from_edges(7, [(u, v) for u in range(3) for v in range(3, 7)])]
    for g in graphs:
        want = {bit_code(relabel(g, perm))
                for perm in permutations(range(g.order))}
        assert relabeling_codes(g) == want, to_graph6(g)


def test_relabeling_codes_orbit_stabiliser_at_order_8():
    # |orbit| x |Aut| = 8!, with Aut counted by networkx's matcher
    rng = random.Random(59)
    graphs = [path(8), cycle(8), cube(), random_graph(rng, 8, 0.4),
              from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])]
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.order))
        ref.add_edges_from((u, v) for u, v in combinations(range(8), 2)
                           if g.rows[u] >> v & 1)
        automorphisms = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(
            ref, ref).isomorphisms_iter())
        assert len(relabeling_codes(g)) * automorphisms == 40320, (
            to_graph6(g))


def check_least_codes(n: int) -> int:
    """Check every labelled graph of order n: ``canonical_form(g)`` is g
    itself iff no relabelling of g has a smaller code, the orbit's
    minimum by ``relabeling_codes``.  Returns how many of them are
    canonical, one per isomorphism class."""
    canonical = 0
    for code in range(1 << n * (n - 1) // 2):
        g = from_bit_code(n, code)
        fixed = canonical_form(g).g6 == to_graph6(g)
        assert fixed == (code == min(relabeling_codes(g))), to_graph6(g)
        canonical += fixed
    return canonical


def test_canonical_form_fixes_exactly_the_least_codes():
    # the oracle's post-check above order 6: canonical_form(g) is g
    # itself iff no relabelling of g has a smaller code; every labelled
    # graph of order <= 5 (order 6, 32,768 graphs, runs in CI), one
    # canonical per class (OEIS A000088), then seeded random graphs of
    # order 6-8 in a random and in their canonical labelling
    assert [check_least_codes(n) for n in range(6)] == [1, 1, 2, 4, 11, 34]
    rng = random.Random(1729)
    for n, count in [(6, 60), (7, 20), (8, 6)]:
        for _ in range(count):
            g = random_graph(rng, n, rng.random())
            least = min(relabeling_codes(g))
            for h in (g, from_graph6(canonical_form(g).g6)):
                fixed = canonical_form(h).g6 == to_graph6(h)
                assert fixed == (bit_code(h) == least), to_graph6(g)
    # past the orbit list: P9's orbit holds 181,440 codes, P10's 1,814,400
    for n in (9, 10):
        least = from_graph6(canonical_form(path(n)).g6)
        assert canonical_form(least).g6 == to_graph6(least)
        assert canonical_form(path(n)).g6 != to_graph6(path(n))


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


def test_certificate_reads_twin_cells_without_branching(monkeypatch):
    # K8 minus an edge refines to two cells of twins, {0, 1} and the
    # rest: each is read in label order with no individualisation
    calls = 0

    def counting_refine(rows, cells):
        nonlocal calls
        calls += 1
        return _refine(rows, cells)

    monkeypatch.setattr(graphs, "_refine", counting_refine)
    g = from_edges(8, [e for e in combinations(range(8), 2) if e != (0, 1)])
    assert _certificate(g.rows) == ref_certificate(g)
    assert calls == 1


def test_bit_code_round_trip():
    rng = random.Random(12)
    for n in [*(rng.randrange(0, 9) for _ in range(80)),
              *range(9, MAX_ORDER + 1)]:
        g = random_graph(rng, n, rng.random())
        assert from_bit_code(n, bit_code(g)) == g
    with pytest.raises(ParameterError):
        from_bit_code(3, 8)  # only 3 cells


def test_bit_code_past_the_graph6_cap():
    # Graph and the codec have no order cap: the code equals the cells
    # read one by one in column order, and decodes to the same graph
    rng = random.Random(63)
    for n in range(63, 131):
        rows = random_rows(rng, n, rng.random())
        g = Graph(n, rows)
        code = bit_code(g)
        assert code == _order_code(rows, range(n))
        assert _code_rows(n, code) == rows
        assert from_bit_code(n, code) == g


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


def test_graph6_encode_matches_the_per_group_reference():
    # one base64 pass against one character per six-bit group
    rng = random.Random(6363)
    for n in range(MAX_ORDER + 1):
        n_cells = n * (n - 1) // 2
        for code in [0, (1 << n_cells) - 1,
                     *(rng.getrandbits(n_cells) for _ in range(20))]:
            assert graphs._graph6(n, code) == ref_graph6(n, code), (n, code)


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
        # int(..., 2) would read these two as binary digits
        ("A0", "byte '0' outside graph6 range", 1),
        ("D?1", "byte '1' outside graph6 range", 2),
        ("Ao", "non-zero padding bits", 1),
        ("Bx", "non-zero padding bits", 1),  # three padding bits, last set
        (chr(127) + "x", "invalid order byte '\\x7f'", 0),
        (b"A\xff", "non-ASCII byte", 1),
        # text reports past-ASCII characters as bytes input does
        ("A\xff", "non-ASCII byte", 1),
        ("\udcff", "non-ASCII byte", 0),  # 0xff read with surrogateescape
        (">>graph6<<B\x80", "non-ASCII byte", 11),
        (chr(128) + "x", "non-ASCII byte", 0),
        # the first byte past ASCII is reported before the length check
        ("A\xff\xff", "non-ASCII byte", 1),
        (b"A\xff\xff", "non-ASCII byte", 1),
        ("C\xffxx", "non-ASCII byte", 1),
        (b"C\xffxx", "non-ASCII byte", 1),
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
    assert to_edge_list(from_edges(3, ())) == ""
    t, _ = build_backbone(1, 2)
    assert to_edge_list(t) == "0 1\n1 2"


def test_to_dot():
    text = to_dot(from_edges(3, ()))
    assert text == "graph g {\n  0;\n  1;\n  2;\n}"
    text = to_dot(path(3))
    assert "0 -- 1;" in text and "1 -- 2;" in text
    # deterministic output
    assert text == to_dot(path(3))
