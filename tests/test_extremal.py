import random
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

import oremax.extremal
from bruteforce import (brute_vertex_connectivity, candidate_specs,
                        fw_diameter, is_isomorphic, ref_layered_graph)
from oremax import (DISCONNECTED, CapacityError, FamilyMemberSpec,
                    FormulaMode, Graph, ParameterError, Parameters, Side,
                    attachment_cap, backbone_order, backbone_size,
                    bfs_layers, bits, build_backbone, build_family_member,
                    canonical_form, diameter, enumerate_family, from_edges,
                    from_graph6, is_extremal, is_k_connected,
                    max_size_formula, to_graph6, vertex_connectivity)

FIRST = Side.FIRST_THREE
LAST = Side.LAST_THREE

# instances small enough for the exhaustive machinery, with the sizes
# the closed form must produce
KNOWN_SIZES = {
    (4, 1, 2): 5, (5, 1, 2): 9, (5, 1, 3): 6, (6, 1, 4): 7, (7, 1, 5): 8,
    (5, 2, 2): 9, (6, 2, 2): 14, (6, 2, 3): 10, (7, 2, 3): 15,
    (8, 2, 3): 21, (8, 3, 2): 27,
}


def k_n(n):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return from_edges(n, list(zip(range(n - 1), range(1, n))))


# --- parameters -------------------------------------------------------------


def test_parameters_validation():
    Parameters(6, 2, 3)
    with pytest.raises(ParameterError, match="^k must be at least 1$"):
        Parameters(6, 0, 3)
    with pytest.raises(ParameterError, match="^d must be at least 2$"):
        Parameters(6, 2, 1)
    with pytest.raises(ParameterError):
        Parameters(5, 2, 3)  # backbone alone needs 6 vertices
    with pytest.raises(ParameterError, match="^n must be at most 62$"):
        Parameters(63, 1, 2)
    with pytest.raises(ParameterError, match="^k must be at least 1$"):
        Parameters(63, 0, 2)  # k is checked before n


def test_outside_count():
    assert Parameters(6, 2, 3).outside_count == 0
    assert Parameters(8, 2, 3).outside_count == 2


# --- closed-form counts -----------------------------------------------------


def test_backbone_order_values():
    assert backbone_order(1, 2) == 3
    assert backbone_order(2, 3) == 6
    assert backbone_order(3, 5) == 14
    with pytest.raises(ParameterError):
        backbone_order(0, 3)
    with pytest.raises(ParameterError):
        backbone_order(1, 1)


def test_backbone_size_values():
    for d in range(2, 9):
        assert backbone_size(1, d) == d  # the path
    assert backbone_size(2, 3) == 10
    assert backbone_size(3, 2) == 9


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_counts_match_construction(k, d):
    t, _ = build_backbone(k, d)
    assert t.order == backbone_order(k, d)
    assert t.size == backbone_size(k, d)


def test_attachment_cap_values():
    assert attachment_cap(3, 5) == 9
    assert attachment_cap(2, 2) == 4
    assert attachment_cap(1, 3) == 3
    # the d >= 4 and d = 3 expressions agree at k = 1
    assert attachment_cap(1, 4) == attachment_cap(1, 3)


# --- backbone construction --------------------------------------------------


def test_backbone_small_shapes():
    t, _ = build_backbone(1, 3)
    assert is_isomorphic(t, path(4))
    t, _ = build_backbone(2, 2)
    k4_minus_pole_edge = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3),
                                        (2, 3)])
    assert is_isomorphic(t, k4_minus_pole_edge)
    t, _ = build_backbone(2, 4)
    assert t.order == 8 and t.size == 15
    assert diameter(t) == 4
    assert vertex_connectivity(t).kappa == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_backbone_invariants(k, d):
    t, bm = build_backbone(k, d)
    assert diameter(t) == d
    assert vertex_connectivity(t).kappa == k
    assert bfs_layers(t, bm.poles[0]).layers == bm.blocks
    for block in bm.blocks:
        assert all(t.rows[v] & block == block ^ 1 << v for v in bits(block))
    for i, left in enumerate(bm.blocks):
        for j in range(i + 1, len(bm.blocks)):
            for u in bits(left):
                for v in bits(bm.blocks[j]):
                    assert t.has_edge(u, v) == (j == i + 1)


# --- size formula -----------------------------------------------------------


def test_formula_known_values():
    for (n, k, d), want in KNOWN_SIZES.items():
        assert max_size_formula(Parameters(n, k, d)) == want


def test_formula_literal_mode_overshoots():
    p = Parameters(4, 1, 2)
    assert max_size_formula(p, FormulaMode.PAPER_LITERAL) == 11
    assert 11 > comb(4, 2)  # more edges than the complete graph
    with pytest.raises(ParameterError):
        max_size_formula(p, "paper-literal")  # a mode's value, not the mode
    with pytest.raises(ParameterError):
        max_size_formula(Parameters(7, 2, 3), "corrected")


def test_formula_zero_outside_collapses_to_backbone():
    p = Parameters(6, 2, 3)
    assert max_size_formula(p) == backbone_size(2, 3)


def test_formula_strictly_increasing_in_n():
    for k in range(1, 4):
        for d in range(2, 6):
            low = backbone_order(k, d)
            sizes = [max_size_formula(Parameters(n, k, d))
                     for n in range(low, low + 6)]
            assert all(a < b for a, b in zip(sizes, sizes[1:]))


# --- family members ---------------------------------------------------------


def test_family_member_single_attachment():
    p = Parameters(6, 1, 4)
    g, _ = build_family_member(p, FamilyMemberSpec(2, 3, (FIRST,)))
    assert g.size == 7 == max_size_formula(p)
    assert diameter(g) == 4
    assert is_k_connected(g, 1)


def test_family_member_d2_is_near_complete():
    p = Parameters(5, 2, 2)
    g, _ = build_family_member(p, FamilyMemberSpec(1, 3, (FIRST,)))
    k5_minus_edge = from_edges(5, [(u, v) for u in range(5)
                                   for v in range(u + 1, 5)
                                   if (u, v) != (0, 4)])
    assert is_isomorphic(g, k5_minus_edge)
    assert g.size == 9 == max_size_formula(p)


def test_family_member_empty_outside_is_backbone():
    p = Parameters(6, 2, 3)
    g, _ = build_family_member(p, FamilyMemberSpec(1, 3, ()))
    assert g == build_backbone(2, 3)[0]


def test_family_member_spec_errors():
    with pytest.raises(ParameterError):
        FamilyMemberSpec(1, 5, ())
    with pytest.raises(ParameterError):
        FamilyMemberSpec(0, 3, ())
    with pytest.raises(ParameterError):
        FamilyMemberSpec(1, 3, (LAST,))
    with pytest.raises(ParameterError):
        FamilyMemberSpec(1, 4, (FIRST, FIRST))  # a side left empty
    with pytest.raises(ParameterError):
        FamilyMemberSpec(1, 4, ("x", LAST))  # not a Side
    p = Parameters(6, 1, 4)
    with pytest.raises(ParameterError):
        build_family_member(p, FamilyMemberSpec(4, 3, (FIRST,)))  # past y
    with pytest.raises(ParameterError):
        build_family_member(p, FamilyMemberSpec(1, 3, ()))  # side count


def test_family_member_split_window():
    p = Parameters(8, 2, 3)
    g, bm = build_family_member(p, FamilyMemberSpec(1, 4, (FIRST, LAST)))
    assert g.size == max_size_formula(p) == 21
    assert diameter(g) == 3 and is_k_connected(g, 2)
    first_mask = bm.blocks[0] | bm.blocks[1] | bm.blocks[2]
    last_mask = bm.blocks[1] | bm.blocks[2] | bm.blocks[3]
    backbone_vertices = (1 << 6) - 1
    assert g.rows[6] & backbone_vertices == first_mask
    assert g.rows[7] & backbone_vertices == last_mask
    assert g.has_edge(6, 7)


def member_from_edges(k, d, spec):
    # pole x = 0, middle block i holds 1 + ik .. (i + 1)k, pole y last,
    # then one outside vertex per entry of spec.side_of
    t = k * d - k + 2
    blocks = [[0], *(list(range(1 + i * k, 1 + (i + 1) * k))
                     for i in range(d - 1)), [t - 1]]
    outside = range(t, t + len(spec.side_of))
    edges = [e for block in blocks for e in combinations(block, 2)]
    edges += [(u, v) for left, right in zip(blocks, blocks[1:])
              for u in left for v in right]
    edges += combinations(outside, 2)
    for u, side in zip(outside, spec.side_of):
        lo = spec.window_start - 1 + (side is LAST)
        edges += [(u, v) for block in blocks[lo:lo + 3] for v in block]
    return from_edges(t + len(spec.side_of), edges)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_member_rows_exact(k):
    split_sides = set()
    for d in range(2, 7):
        for r in range(4):
            p = Parameters(backbone_order(k, d) + r, k, d)
            for spec in candidate_specs(p):
                g, _ = build_family_member(p, spec)
                assert g.rows == member_from_edges(k, d, spec).rows, spec
                if spec.window_len == 4:
                    split_sides.add(spec.side_of)
    # both sides of 4-block windows, in either proportion
    assert {(FIRST, LAST), (FIRST, FIRST, LAST), (FIRST, LAST, LAST)} \
        <= split_sides


def test_family_member_builds_one_graph(monkeypatch):
    # the member shares the backbone's block layout, not a backbone Graph
    built = []
    check = Graph.__post_init__

    def counting_check(g):
        built.append(g.order)
        check(g)

    monkeypatch.setattr(Graph, "__post_init__", counting_check)
    for k, d, spec in [(1, 4, FamilyMemberSpec(2, 3, (FIRST,))),
                       (2, 3, FamilyMemberSpec(1, 4, (FIRST, LAST))),
                       (3, 5, FamilyMemberSpec(1, 3, ()))]:
        p = Parameters(backbone_order(k, d) + len(spec.side_of), k, d)
        built.clear()
        _, bmap = build_family_member(p, spec)
        assert built == [p.n]
        assert bmap == build_backbone(k, d)[1]


# --- family enumeration -----------------------------------------------------


def test_enumerate_family_smallest():
    fam = enumerate_family(Parameters(4, 1, 2))
    assert len(fam) == 1
    k4_minus_edge = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_isomorphic(fam[0], k4_minus_edge)


def test_enumerate_family_backbone_only():
    fam = enumerate_family(Parameters(6, 2, 3))
    assert len(fam) == 1
    assert is_isomorphic(fam[0], build_backbone(2, 3)[0])


def test_enumerate_family_members_are_valid():
    for (n, k, d) in KNOWN_SIZES:
        p = Parameters(n, k, d)
        members = enumerate_family(p)
        assert members
        texts = [to_graph6(g) for g in members]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for g in members:
            assert g.order == n
            assert g.size == max_size_formula(p)
            assert diameter(g) == d
            assert is_k_connected(g, k)


def test_family_matches_the_committed_table():
    # tests/data/family10.tsv: the members of every valid instance with
    # n <= 10, one row each, in enumerate_family's order
    lines = (Path(__file__).parent / "data" / "family10.tsv").read_text() \
        .splitlines()
    assert lines[0] == "n\tk\td\tgraph6"
    table = {}
    for line in lines[1:]:
        n, k, d, text = line.split("\t")
        table.setdefault((int(n), int(k), int(d)), []).append(text)
    assert (len(table), len(lines) - 1) == (77, 142)
    assert list(table) == [(n, k, d) for n in range(11) for k in range(1, n)
                           for d in range(2, n) if backbone_order(k, d) <= n]
    for (n, k, d), members in table.items():
        p = Parameters(n, k, d)
        assert [to_graph6(g) for g in enumerate_family(p)] == members
        # the raw constructions of formula size are the family already
        built = (build_family_member(p, spec)[0]
                 for spec in candidate_specs(p))
        assert {canonical_form(g).g6 for g in built
                if g.size == max_size_formula(p)} == set(members), (n, k, d)

def test_enumerate_family_guard():
    with pytest.raises(CapacityError):
        enumerate_family(Parameters(11, 1, 10))


@pytest.mark.parametrize("n, k, d", [(10, 1, 5), (10, 2, 3), (9, 2, 4)])
def test_enumerate_family_runs_one_diameter_per_candidate(monkeypatch,
                                                          n, k, d):
    # one L(1, n_1, ..., n_{d-1}, 1) per split with every n_i >= k, one
    # of each mirror pair, and one diameter (is_extremal's) per split
    built = []
    calls = 0
    rows_of = oremax.extremal.layered_rows

    def recording_rows(masks):
        built.append(tuple(m.bit_count() for m in masks))
        return rows_of(masks)

    def counting_diameter(g):
        nonlocal calls
        calls += 1
        return diameter(g)

    monkeypatch.setattr(oremax.extremal, "layered_rows", recording_rows)
    monkeypatch.setattr(oremax.extremal, "diameter", counting_diameter)
    assert enumerate_family(Parameters(n, k, d))
    inner = (v for v in product(range(k, n - 1), repeat=d - 1)
             if sum(v) == n - 2)
    expected = [w for w in ((1, *v, 1) for v in inner) if w <= w[::-1]]
    assert sorted(built) == expected
    assert calls == len(expected) == {(10, 1, 5): 19, (10, 2, 3): 3,
                                      (9, 2, 4): 2}[n, k, d]


def test_family_is_every_formula_sized_layering():
    # complete layered graphs on d + 1 nonempty layers of any sizes, the
    # poles' layers included: those the slow references call extremal
    # are the family, so fixing the end layers at 1 and the inner ones
    # at >= k loses no class
    found = {}
    for n in range(3, 11):
        for d in range(2, n):
            for cuts in combinations(range(1, n), d):
                bounds = (0, *cuts, n)
                g = ref_layered_graph([list(range(a, b))
                                       for a, b in zip(bounds, bounds[1:])])
                for k in range(1, n):
                    if backbone_order(k, d) > n:
                        break
                    if (g.size == max_size_formula(Parameters(n, k, d))
                            and fw_diameter(g) == d
                            and brute_vertex_connectivity(g) >= k):
                        found.setdefault((n, k, d), set()).add(
                            canonical_form(g).g6)
    valid = [(n, k, d) for n in range(11) for k in range(1, n)
             for d in range(2, n) if backbone_order(k, d) <= n]
    assert len(valid) == 77
    for n, k, d in valid:
        family = enumerate_family(Parameters(n, k, d))
        assert found[n, k, d] == {to_graph6(g) for g in family}, (n, k, d)


def test_candidate_windows_respect_caps():
    # whatever enumeration keeps, the raw constructions already bound
    # each outside vertex by the cap and by three consecutive blocks
    for (n, k, d) in KNOWN_SIZES:
        p = Parameters(n, k, d)
        cap = attachment_cap(k, d)
        for spec in candidate_specs(p):
            g, bm = build_family_member(p, spec)
            t_order = backbone_order(k, d)
            t_mask = (1 << t_order) - 1
            union = 0
            for r_vertex in range(t_order, n):
                hood = g.rows[r_vertex] & t_mask
                union |= hood
                assert bin(hood).count("1") <= cap
                touched = [i for i, block in enumerate(bm.blocks)
                           if block & hood]
                assert touched == list(range(touched[0], touched[0] + 3))
            touched = [i for i, block in enumerate(bm.blocks) if block & union]
            assert len(touched) <= 4
            if touched:
                assert touched == list(range(touched[0],
                                             touched[0] + len(touched)))


# --- extremality check ------------------------------------------------------


def test_is_extremal_positive():
    k4_minus_edge = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_extremal(k4_minus_edge, 1)
    assert is_extremal(path(4), 1)  # bare backbone for (4,1,3)


def test_is_extremal_negative():
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_extremal(c4, 1)  # diameter 2 but one edge short
    assert not is_extremal(k_n(4), 1)  # diameter 1 is out of domain
    assert not is_extremal(from_edges(4, [(0, 1)]), 1)  # disconnected
    assert not is_extremal(path(4), 2)  # not 2-connected
    # a (7, 1, 3) family member: 15 edges and diameter 3 like the
    # (7, 2, 3) maximum, but kappa = 1
    g = from_graph6("FJ\\|w")
    assert (g.size, diameter(g), vertex_connectivity(g).kappa) == (15, 3, 1)
    assert is_extremal(g, 1)
    assert not is_extremal(g, 2)


def test_is_extremal_has_no_order_guard_and_validates_k():
    assert not is_extremal(k_n(11), 1)  # diameter 1 is out of domain
    assert is_extremal(path(11), 1)  # bare backbone for (11,1,10)
    assert not is_extremal(path(11), 2)
    with pytest.raises(ParameterError):
        is_extremal(path(4), 0)


def test_is_extremal_is_false_on_the_order_0_graph():
    # below every backbone, like is_k_connected; diameter would raise
    assert not is_extremal(from_edges(0, ()), 1)
    assert not is_k_connected(from_edges(0, ()), 1)
    with pytest.raises(ParameterError):
        is_extremal(from_edges(0, ()), 0)


def test_is_extremal_tests_kappa_only_at_the_formula_size(monkeypatch):
    # a (6, 2, 3) maximizer less one edge, at diameter 3 still, is
    # refused by its size before kappa runs
    p = Parameters(6, 2, 3)
    g = enumerate_family(p)[0]
    short = next(h for u, v in combinations(range(6), 2) if g.rows[u] >> v & 1
                 for h in [_flip(g, u, v)] if diameter(h) == 3)
    assert short.size == max_size_formula(p) - 1

    def no_kappa(*args):
        raise AssertionError("kappa tested off the formula's size")

    monkeypatch.setattr(oremax.extremal, "is_k_connected", no_kappa)
    assert not is_extremal(short, 2)
    with pytest.raises(AssertionError):
        is_extremal(g, 2)


def test_family_members_are_extremal():
    for (n, k, d) in [(4, 1, 2), (6, 1, 4), (6, 2, 3), (7, 2, 3)]:
        for g in enumerate_family(Parameters(n, k, d)):
            assert is_extremal(g, k)


def _flip(g, u, v):
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.order, tuple(rows))


def test_is_extremal_equals_family_membership():
    # the definition against the generated family: every member and five
    # seeded one-pair flips of each, judged at k = 1..3 against the family
    # of the graph's own (order, k, diameter)
    families = {}

    def member_texts(n, k, d):
        if (n, k, d) not in families:
            try:
                p = Parameters(n, k, d)
            except ParameterError:
                families[n, k, d] = set()
            else:
                families[n, k, d] = {to_graph6(m)
                                     for m in enumerate_family(p)}
        return families[n, k, d]

    rng = random.Random(11)
    graphs = []
    for n in range(3, 11):
        for k in range(1, n):
            for d in range(2, n):
                for m in member_texts(n, k, d):
                    g = from_graph6(m)
                    graphs.append(g)
                    for _ in range(5):
                        u, v = rng.sample(range(n), 2)
                        graphs.append(_flip(g, u, v))
    checks = positives = 0
    for g in graphs:
        d = diameter(g)
        for k in (1, 2, 3):
            member = (d is not DISCONNECTED
                      and canonical_form(g).g6 in member_texts(g.order, k, d))
            assert is_extremal(g, k) == member
            checks += 1
            positives += member
    assert checks == 2556 and positives > 0


@pytest.mark.parametrize("n, k, d", [(30, 2, 5), (62, 4, 6), (62, 1, 20)])
def test_is_extremal_past_order_10(n, k, d):
    p = Parameters(n, k, d)
    members = (build_family_member(p, spec)[0] for spec in candidate_specs(p))
    g = next(g for g in members if g.size == max_size_formula(p))
    assert is_extremal(g, k)
    assert not is_extremal(g, k + 1)
    u = next(u for u in range(n) if g.rows[u])
    v = g.rows[u].bit_length() - 1
    assert not is_extremal(_flip(g, u, v), k)  # one edge deleted


def _layer_vectors(total, parts, k):
    """Sizes (n_1, ..., n_parts) summing to total, n_i >= k except n_parts."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(k, total - k * (parts - 2)):
        for rest in _layer_vectors(total - first, parts - 1, k):
            yield (first, *rest)


def test_formula_is_the_best_layering():
    # BFS layers from a vertex of eccentricity d: edges join equal or
    # consecutive layers, and each inner layer separates the ends, so it
    # has at least k vertices.  The complete layered graph on such a
    # vector is k-connected with diameter d, so the maximum size is the
    # largest layered edge count.
    instances = vectors = 0
    for n in range(3, 17):
        for k in range(1, n):
            for d in range(2, n):
                sizes = [sum(comb(a, 2) for a in v)
                         + sum(a * b for a, b in zip(v, v[1:]))
                         for v in ((1, *tail)
                                   for tail in _layer_vectors(n - 1, d, k))]
                if not sizes:
                    continue  # no layering: (n, k, d) is not an instance
                assert max(sizes) == max_size_formula(Parameters(n, k, d))
                instances += 1
                vectors += len(sizes)
    assert (instances, vectors) == (269, 35154)
