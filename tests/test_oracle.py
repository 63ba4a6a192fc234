import random
from itertools import combinations
from math import comb
from unittest import mock

import networkx as nx
import pytest

from bruteforce import (_top_move, brute_vertex_connectivity, candidate_ok,
                        cells, dedup_canonical, fw_diameter, is_isomorphic,
                        keep_masks, labelled_search, random_graph,
                        ref_canonical_code, relabel, scan_level)
from oremax import (DISCONNECTED, CapacityError, ParameterError, Parameters,
                    bfs_layers, canonical_form, diameter, enumerate_family,
                    from_graph6, is_k_connected, layer_structure_check,
                    max_size_bruteforce, sweep, to_graph6, verify_theorem)
from oremax import oracle
from oremax.graphs import (CanonicalForm, Graph, _certificate, _invariant,
                          bit_code, from_bit_code, from_edges, reach,
                          relabeling_codes)
from oremax.oracle import (_classes, _climb, _deletions, _flood, _levels,
                           _top_moves, _trees)

#: every (n, k, d) that ``sweep(7)`` verifies
SWEEP_7 = [(n, k, d) for n in range(3, 8) for k in range(1, 8)
           for d in range(2, 8) if n >= k * d - k + 2]


def test_candidate_ok_equals_public_invariants():
    # the labelled scan's screens must agree with the slow references
    rng = random.Random(2718)
    for _ in range(250):
        n = rng.randrange(4, 8)
        g = random_graph(rng, n, rng.random())
        k = rng.randrange(1, min(3, n - 1) + 1)
        d = rng.randrange(2, 5)
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if not g.has_edge(u, v)]
        got = candidate_ok(list(g.rows), missing, d, keep_masks(n, k))
        want = fw_diameter(g) == d and brute_vertex_connectivity(g) >= k
        assert got == want, (to_graph6(g), k, d)


def test_alive_screen_equals_public_invariants():
    # alive: diameter <= d; the verdict says diameter == d and kappa >= k,
    # which the down climb tests by is_k_connected on the exact-d graphs
    rng = random.Random(3141)
    for _ in range(250):
        n = rng.randrange(4, 8)
        g = random_graph(rng, n, rng.random())
        k = rng.randrange(1, min(3, n - 1) + 1)
        d = rng.randrange(2, 5)
        exact = _flood(g.rows, d, (1 << n) - 1)
        got = None if exact is None else (
            exact is True and is_k_connected(g, k))
        dia = fw_diameter(g)
        if dia is DISCONNECTED or dia > d:
            assert got is None, (to_graph6(g), k, d)
        else:
            assert got == (dia == d and is_k_connected(g, k)), (
                to_graph6(g), k, d)


def test_far_screen_equals_public_invariants():
    # far: diameter >= d; the verdict says diameter == d and kappa >= k,
    # which the up climb tests by is_k_connected on the exact-d graphs
    rng = random.Random(2236)
    for _ in range(250):
        n = rng.randrange(4, 8)
        g = random_graph(rng, n, rng.random())
        k = rng.randrange(1, min(3, n - 1) + 1)
        d = rng.randrange(2, 6)
        exact = _flood(g.rows, d, (1 << n) - 1)
        got = None if exact is False else (
            exact is True and is_k_connected(g, k))
        dia = fw_diameter(g)
        if dia is not DISCONNECTED and dia < d:
            assert got is None, (to_graph6(g), k, d)
        else:
            assert got == (dia == d and is_k_connected(g, k)), (
                to_graph6(g), k, d)


def test_twin_deletions_reach_every_child_class():
    # one edge (down) or non-edge (up) per pair of twin classes gives the
    # same child classes as deleting every edge or adding every non-edge
    for up, densities in ((False, [0.5, 0.8, 0.95]), (True, [0.05, 0.2, 0.5])):
        rng = random.Random(1618)
        for _ in range(150):
            n = rng.randrange(3, 8)
            g = random_graph(rng, n, rng.choice(densities))

            def child(u, v):
                # g with the pair uv toggled
                return canonical_form(from_edges(
                    n, [e for e in cells(n)
                        if g.has_edge(*e) != (e == (u, v))]))

            movable = [e for e in cells(n) if g.has_edge(*e) != up]
            kept = _deletions(g.rows, up)
            assert set(kept) <= set(movable)
            assert {child(u, v) for u, v in kept} == {
                child(u, v) for u, v in movable}, (to_graph6(g), up)


def test_trees_one_per_class():
    # against networkx's trees, sorted by diameter
    for n in range(2, 10):
        diameters = [nx.diameter(t) for t in nx.nonisomorphic_trees(n)]
        for d in range(1, n):
            trees = _trees(n, d)
            assert len(trees) == sum(dia >= d for dia in diameters), (n, d)
            assert len({canonical_form(Graph(n, rows))
                        for rows in trees}) == len(trees)
            for rows in trees:
                g = Graph(n, rows)
                dia = diameter(g)
                assert g.size == n - 1 and dia is not DISCONNECTED
                assert dia >= d


def test_bruteforce_smallest_instances():
    r = max_size_bruteforce(Parameters(4, 1, 2))
    assert r.max_size == 5
    assert len(r.extremal) == 1
    k4_minus_edge = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_isomorphic(from_graph6(r.extremal[0]), k4_minus_edge)
    assert r.corrected_match is None  # comparisons belong to verify

    r = max_size_bruteforce(Parameters(5, 1, 4))
    assert r.max_size == 4
    p5 = from_edges(5, list(zip(range(4), range(1, 5))))
    assert [is_isomorphic(from_graph6(t), p5) for t in r.extremal] == [True]

    r = max_size_bruteforce(Parameters(6, 2, 3))
    assert r.max_size == 10
    assert len(r.extremal) == 1


def test_extremal_lists_are_canonical_and_sorted():
    r = max_size_bruteforce(Parameters(6, 1, 4))
    assert list(r.extremal) == sorted(r.extremal)
    assert len(set(r.extremal)) == len(r.extremal)
    for text in r.extremal:
        g = from_graph6(text)
        assert g.order == 6 and g.size == r.max_size
        assert diameter(g) == 4
        assert is_k_connected(g, 1)
        assert canonical_form(g).g6 == text


def test_guards():
    with pytest.raises(CapacityError):
        max_size_bruteforce(Parameters(10, 1, 2))


def counting_moves(monkeypatch, n):
    # edge moves per level that twin pruning leaves, before the
    # canonical-deletion filter; level i holds the graphs i edge moves
    # from K_n (down) or from the trees (up)
    top = n * (n - 1) // 2
    tried = {}

    def counting_deletions(rows, up):
        edges = _deletions(rows, up)
        # a graph of size m is level top - m down and m - (n - 1) up.
        # Its moves make the next level.
        m = sum(row.bit_count() for row in rows) // 2
        level = (m - (n - 1) if up else top - m) + 1
        tried[level] = tried.get(level, 0) + len(edges)
        return edges

    monkeypatch.setattr(oracle, "_deletions", counting_deletions)
    return tried


def test_budget_counts_edge_deletions(monkeypatch):
    # the edge moves the removed budget counted: (6,2,3) deletes 85
    # edges of alive classes over levels 1..5.  Level 4 keeps its class
    # of kappa 1 too, whose 3 moves level 5 tries
    tried = counting_moves(monkeypatch, 6)
    r = max_size_bruteforce(Parameters(6, 2, 3))
    assert r.max_size == 10
    assert tried == {1: 1, 2: 2, 3: 8, 4: 23, 5: 51}
    assert sum(tried.values()) == 85


def test_budget_counts_edge_additions_on_an_up_climb(monkeypatch):
    # (7,1,5) climbs up from its 3 trees of diameter >= 5 and adds 121
    # edges over levels 1..3; level 3 holds no class
    tried = counting_moves(monkeypatch, 7)
    r = max_size_bruteforce(Parameters(7, 1, 5))
    assert (r.max_size, len(r.extremal)) == (8, 2)
    assert tried == {1: 41, 2: 60, 3: 20}
    assert sum(tried.values()) == 121


def test_climb_direction_is_up_iff_d_at_least_4(monkeypatch):
    seen = []

    def recording_climb(n, k, d, up):
        seen.append((d, up))
        return _climb(n, k, d, up)

    monkeypatch.setattr(oracle, "_climb", recording_climb)
    for n, k, d in [(5, 1, 3), (5, 1, 4), (6, 2, 3), (6, 1, 4), (7, 1, 6),
                    (6, 1, 5), (7, 2, 3), (4, 2, 2)]:
        max_size_bruteforce(Parameters(n, k, d))
    assert seen == [(d, d >= 4) for d, _ in seen]
    assert {up for _, up in seen} == {False, True}


def test_infeasible_search_path():
    # no graph on 3 vertices has diameter 3; unreachable through
    # Parameters, so exercised on the labelled referee
    assert labelled_search(3, 1, 3) == (None, [])


def test_infeasible_climb():
    for up in (False, True):
        assert _climb(3, 1, 3, up) == (None, [])


def test_climb_matches_labelled_scan():
    # the labelled scan in bruteforce shares no code with the climb
    assert len(SWEEP_7) == 27
    for n, k, d in SWEEP_7:
        max_size, codes = labelled_search(n, k, d)
        want = max_size, dedup_canonical(n, codes)
        for up in (False, True):
            assert _climb(n, k, d, up) == want, (n, k, d, up)


def toggled(rows, u, v):
    """``rows`` with the pair uv moved: an edge deleted or a non-edge
    added."""
    child = list(rows)
    child[u] ^= 1 << v
    child[v] ^= 1 << u
    return tuple(child)


def test_certificate_splits_climbed_graphs_like_canonical_form(monkeypatch):
    # every labelled child that _deletions makes from a parent of the
    # SWEEP_7 climbs, down and up, and that the full flood passes,
    # recorded before the canonical-deletion filter
    visited = set()
    depth = 0

    def recording_deletions(rows, up):
        moves = _deletions(rows, up)
        for u, v in moves:
            child = toggled(rows, u, v)
            if _flood(child, depth, (1 << len(rows)) - 1) is not None:
                visited.add(child)
        return moves

    monkeypatch.setattr(oracle, "_deletions", recording_deletions)
    for n, k, d in SWEEP_7:
        depth = d
        for up in (False, True):
            _climb(n, k, d, up)
    pairs = {((len(rows), _certificate(rows)),
              canonical_form(Graph(len(rows), rows))) for rows in visited}
    assert len({c for c, _ in pairs}) == len({f for _, f in pairs}) == len(pairs)
    assert len(visited) > 5000


def test_climb_canonicalises_only_the_winners(monkeypatch):
    # the level dedup runs on certificates: canonical forms are made
    # for the exact-d graphs of the answer level at most
    calls = exact = 0

    def counting_form(g):
        nonlocal calls
        calls += 1
        return canonical_form(g)

    def counting_alive(*args):
        nonlocal exact
        verdict = _flood(*args)
        exact += verdict is True
        return verdict

    monkeypatch.setattr(oracle, "canonical_form", counting_form)
    monkeypatch.setattr(oracle, "_flood", counting_alive)
    for up in (False, True):
        calls = exact = 0
        max_size, extremal = _climb(7, 1, 5, up)
        assert (max_size, len(extremal)) == (8, 2)
        assert calls == len(extremal) <= exact < 100


@pytest.mark.parametrize("k", [2, 3])
def test_down_climb_tests_kappa_once_per_class(monkeypatch, k):
    # (8,2,3) and (8,3,3): kappa runs once per class of diameter exactly
    # 3, on the 3 such classes of the answer level, never once per
    # labelled child and never on a graph of smaller diameter
    tested = []

    def recording_kappa(g, *args):
        tested.append(g.rows)
        return is_k_connected(g, *args)

    monkeypatch.setattr(oracle, "is_k_connected", recording_kappa)
    max_size, extremal = _climb(8, k, 3, False)
    assert (max_size, len(extremal)) == (21, {2: 2, 3: 1}[k])
    assert all(diameter(Graph(8, rows)) == 3 for rows in tested)
    classes = {(sum(row.bit_count() for row in rows), _certificate(rows))
               for rows in tested}
    assert len(classes) == len(tested) == 3


def test_invariant_ignores_labels():
    rng = random.Random(1998)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(3, 11), rng.random())
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert _invariant(relabel(g, perm).rows) == _invariant(g.rows)


def climb_parents(monkeypatch, n, k, d, up):
    """The climb's result and the labelled parents it hands to
    ``_deletions``, in order."""
    parents = []

    def recording_deletions(rows, up):
        parents.append(rows)
        return _deletions(rows, up)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_deletions", recording_deletions)
        return _climb(n, k, d, up), parents


def test_invariant_gate_keeps_the_parent_sequence(monkeypatch):
    # with every invariant equal, every graph of a level is certified,
    # as before the gate; the classes, their order and their labelled
    # representatives must not change
    climbs = [(n, k, d, up) for n, k, d in SWEEP_7 for up in (False, True)]
    climbs += [(8, 2, 3, False), (8, 3, 2, False)]
    gated = [climb_parents(monkeypatch, *climb) for climb in climbs]
    monkeypatch.setattr(oracle, "_invariant", lambda rows: ())
    for climb, want in zip(climbs, gated):
        assert climb_parents(monkeypatch, *climb) == want, climb


@pytest.mark.parametrize("n, certified", [
    (6, {11: 2}),
    (8, {22: 27, 23: 8, 24: 2}),
])
def test_certificates_only_where_invariants_collide(monkeypatch, n,
                                                    certified):
    # (6,2,3) certified 20 graphs and (8,2,3) 123 before the invariant
    # gate; now only those whose invariant another graph of their level
    # shares, counted by size
    counted = {}

    def counting_certificate(rows):
        m = sum(row.bit_count() for row in rows) // 2
        counted[m] = counted.get(m, 0) + 1
        return _certificate(rows)

    monkeypatch.setattr(oracle, "_certificate", counting_certificate)
    r = max_size_bruteforce(Parameters(n, 2, 3))
    assert r.max_size == {6: 10, 8: 21}[n]
    assert counted == certified


@pytest.mark.parametrize("n, d, certified", [
    (8, 4, {6: 4, 7: 13, 8: 46}),
    (8, 5, {7: 6, 8: 15}),
])
def test_tree_certificates_only_where_invariants_collide(monkeypatch, n, d,
                                                         certified):
    # the tree seeds share the levels' dedup: (8,4) certified 71 trees
    # and (8,5) 26 when every grown tree was certified; now only those
    # whose invariant another tree of their order shares, counted by order
    counted = {}

    def counting_certificate(rows):
        counted[len(rows)] = counted.get(len(rows), 0) + 1
        return _certificate(rows)

    monkeypatch.setattr(oracle, "_certificate", counting_certificate)
    _trees(n, d)
    assert counted == certified


def test_post_check_rejects_labelled_maximizers(monkeypatch):
    # a climb that reports its winners in their own labelling is caught
    # by the canonicity check: by the orbit list on (6,1,4) up and
    # (6,2,3) down, by the canonical form on (7,1,5) up and (7,2,3) down
    climb = oracle._climb
    winners = []

    def labelled_form(g):
        # the climb's winners may already be canonical: report each
        # under its greatest code instead of its least
        g = from_bit_code(g.order, max(relabeling_codes(g)))
        winners.append(g)
        return CanonicalForm(to_graph6(g))

    def labelled_climb(*args):
        with monkeypatch.context() as m:
            m.setattr(oracle, "canonical_form", labelled_form)
            return climb(*args)

    monkeypatch.setattr(oracle, "_climb", labelled_climb)
    for n, k, d in [(6, 1, 4), (6, 2, 3), (7, 1, 5), (7, 2, 3)]:
        winners.clear()
        with pytest.raises(RuntimeError, match="invalid graph"):
            max_size_bruteforce(Parameters(n, k, d))
        # valid maximizers in all but their labels
        assert winners and all(diameter(g) == d and is_k_connected(g, k)
                               for g in winners)
        assert any(bit_code(g) != min(relabeling_codes(g)) for g in winners)


def full_enumeration():
    """(n, k, d, maximizers) for each SWEEP_7 instance with n <= 5.

    Every labelled graph of order n goes through the slow reference
    code; the maximizers are the valid ones of the largest size.
    """
    for n in range(3, 6):
        graphs = []
        for size in range(comb(n, 2) + 1):
            for edges in combinations(cells(n), size):
                g = from_edges(n, edges)
                graphs.append((g, fw_diameter(g),
                               brute_vertex_connectivity(g)))
        for k, d in [(k, d) for order, k, d in SWEEP_7 if order == n]:
            valid = [g for g, dia, kappa in graphs
                     if dia == d and kappa >= k]
            top = max(g.size for g in valid)
            yield n, k, d, [g for g in valid if g.size == top]


def test_climb_matches_full_enumeration():
    for n, k, d, maximizers in full_enumeration():
        for up in (False, True):
            max_size, extremal = _climb(n, k, d, up)
            assert max_size == maximizers[0].size, (n, k, d, up)
            assert {bit_code(from_graph6(t)) for t in extremal} == {
                ref_canonical_code(g) for g in maximizers}


def test_climb_levels_hold_every_class():
    # each level of _levels against every labelled graph of order <= 6,
    # deduped by orbit listing.  kept holds the connected classes of
    # diameter >= d up and < d down.  exact holds the classes of
    # diameter d: all of them up; down, some of them, and all of them at
    # the largest size that has any.  Below it, down reaches a class only
    # from a top-key non-edge that lowers its diameter (see census.graded)
    def forms(graphs):
        # the canonical forms of one labelled graph per class
        texts = [canonical_form(Graph(len(rows), rows)).g6 for rows in graphs]
        assert len(set(texts)) == len(texts)
        return set(texts)

    for n in range(3, 7):
        table = {}
        for text in dedup_canonical(n, list(range(1 << comb(n, 2)))):
            g = from_graph6(text)
            dia = fw_diameter(g)
            table[text] = g.size, None if dia is DISCONNECTED else dia
        for d in range(2, n):
            first = max(m for m, dia in table.values() if dia == d)
            for up in (False, True):
                levels = {size: (forms(exact), forms(kept()))
                          for size, exact, kept in _levels(n, d, up)}
                for size in range(comb(n, 2) + 1):
                    exact, kept = levels.get(size, (set(), set()))
                    graded = [(t, dia) for t, (m, dia) in table.items()
                              if m == size and dia is not None]
                    want = {t for t, dia in graded if dia == d}
                    assert exact == want if up or size == first else (
                        exact <= want), (n, d, up, size)
                    assert kept == {t for t, dia in graded
                                    if (dia >= d) == up}, (n, d, up, size)


def test_down_climb_dedups_only_the_exact_graphs_of_its_answer_level(
        monkeypatch):
    # (8,2,3) stops at size 21, and no level grows from its graphs of
    # diameter below 3 there: they are never deduped.  The outputs are
    # the same either way, so the calls to _classes show it
    deduped = []

    def recording_classes(graphs):
        deduped.append(graphs)
        return _classes(graphs)

    monkeypatch.setattr(oracle, "_classes", recording_classes)
    max_size, extremal = _climb(8, 2, 3, False)
    assert (max_size, len(extremal)) == (21, 2)
    at_answer = [rows for graphs in deduped for rows in graphs
                 if sum(row.bit_count() for row in rows) == 2 * max_size]
    assert at_answer
    assert all(fw_diameter(Graph(8, rows)) == 3 for rows in at_answer)


def check_down_screens(n: int) -> int:
    """Check the down screen's source masks on the full down closure of
    order n, ``_levels(n, d, False)`` for d = 2..n - 1, which expands
    every class of diameter below d.  Every
    mask the walk passes to ``_flood`` must give the verdict of the full
    mask, and so must every child that ``_deletions`` makes from a class
    it expands, flooded from the vertices within (d - 2) // 2 of the
    deleted pair.  Returns the number of those children."""
    full = (1 << n) - 1
    flood = oracle._flood

    def checked_flood(rows, d, todo):
        verdict = flood(rows, d, todo)
        assert verdict == flood(rows, d, full), (rows, d, bin(todo))
        return verdict

    children = 0
    with mock.patch.object(oracle, "_flood", checked_flood):
        for d in range(2, n):
            for _, _, kept in _levels(n, d, False):
                for rows in kept():
                    for u, v in _deletions(rows, False):
                        checked_flood(toggled(rows, u, v), d, reach(
                            rows, 1 << u | 1 << v, depth=(d - 2) // 2)[0])
                        children += 1
    return children


@pytest.mark.parametrize("n, children", [(5, 118), (6, 1502), (7, 23718)])
def test_masked_down_screen_equals_the_full_one(n, children):
    # the whole order-8 closure, 568,335 children, runs in CI
    assert check_down_screens(n) == children


def check_top_moves(n: int) -> int:
    """Check the canonical-deletion test on every closure of order n,
    ``_levels(n, d, up)`` for d = 2..n - 1, both ways.  Of the moves that
    ``_deletions`` makes from each class a level expands, ``_top_moves``
    must keep, each with its child, exactly those that the reference
    ``_top_move`` passes on the child.  Returns the number of those
    children."""
    children = 0
    for up in (False, True):
        for d in range(2, n):
            for _, _, kept in _levels(n, d, up):
                for rows in kept():
                    got = list(_top_moves(rows, up))
                    want = [(u, v, toggled(rows, u, v))
                            for u, v in _deletions(rows, up)]
                    children += len(want)
                    assert got == [(u, v, child) for u, v, child in want
                                   if _top_move(child, u, v, up)], (rows, up)
    return children


@pytest.mark.parametrize("n, children", [(3, 2), (4, 20), (5, 203), (6, 2406),
                                         (7, 35341)])
def test_top_moves_equal_the_reference(n, children):
    # the order-8 closures run in CI
    assert check_top_moves(n) == children


def test_labelled_scan_matches_full_enumeration():
    # the referee's labelled winners, each once and in graphs' cell order
    for n, k, d, maximizers in full_enumeration():
        max_size, codes = labelled_search(n, k, d)
        assert max_size == maximizers[0].size, (n, k, d)
        assert sorted(codes) == sorted(bit_code(g) for g in maximizers), (
            n, k, d)


def test_no_denser_graph_exists():
    # re-scan one complement level below the reported optimum: it must
    # be empty, re-proving maximality independently of the ascent order
    for (n, k, d) in [(4, 1, 2), (5, 1, 3), (6, 2, 3), (5, 2, 2)]:
        p = Parameters(n, k, d)
        r = max_size_bruteforce(p)
        level = comb(n, 2) - r.max_size
        if level == 0:
            continue
        assert scan_level(n, k, d, level - 1) == []


def test_dedup_collapses_orbits():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    codes = set()
    from itertools import permutations
    for perm in permutations(range(4)):
        codes.add(bit_code(relabel(g, perm)))
    out = dedup_canonical(4, list(codes))
    assert len(out) == 1
    assert is_isomorphic(from_graph6(out[0]), g)
    # a labelled set that is not closed under relabelling is a search bug
    with pytest.raises(RuntimeError):
        dedup_canonical(4, [min(codes)])


def test_verify_theorem_smallest():
    r = verify_theorem(Parameters(4, 1, 2))
    assert r.max_size == 5
    assert r.corrected_match is True
    assert r.paper_literal_match is False
    assert r.family_match is True


def test_verify_matches_family_set():
    for (n, k, d) in [(5, 1, 3), (6, 2, 2), (6, 1, 4)]:
        p = Parameters(n, k, d)
        r = verify_theorem(p)
        fam = {to_graph6(g) for g in enumerate_family(p)}
        assert set(r.extremal) == fam
        assert r.family_match


def test_maximizers_have_pole_structure():
    for (n, k, d) in [(4, 1, 2), (5, 1, 3), (6, 2, 3)]:
        r = max_size_bruteforce(Parameters(n, k, d))
        for text in r.extremal:
            g = from_graph6(text)
            poles = [(x, y) for x in range(n) for y in range(n)
                     if bfs_layers(g, x).layer_of(y) == d]
            assert poles
            assert any(layer_structure_check(g, x, y, k) for x, y in poles)


def test_report_serialization():
    r = verify_theorem(Parameters(4, 1, 2))
    doc = r.to_dict()
    assert doc["schema_version"] == 1
    assert doc["params"] == {"n": 4, "k": 1, "d": 2}
    assert doc["max_size"] == 5
    assert doc["extremal"] == list(r.extremal)
    assert doc["corrected_match"] and not doc["paper_literal_match"]
    assert doc["elapsed_seconds"] >= 0


def test_determinism_modulo_elapsed():
    def stripped(report):
        doc = report.to_dict()
        doc.pop("elapsed_seconds")
        return doc

    a = verify_theorem(Parameters(6, 2, 3))
    b = verify_theorem(Parameters(6, 2, 3))
    assert stripped(a) == stripped(b)


def test_sweep_covers_lexicographic_instances():
    reports = sweep(5, 1, 3)
    params = [(r.params.n, r.params.k, r.params.d) for r in reports]
    assert params == [(3, 1, 2), (4, 1, 2), (4, 1, 3), (5, 1, 2), (5, 1, 3)]
    assert all(r.corrected_match and r.family_match for r in reports)


def test_sweep_defaults_and_guard():
    reports = sweep(4)
    params = [(r.params.n, r.params.k, r.params.d) for r in reports]
    assert params == [(3, 1, 2), (4, 1, 2), (4, 1, 3), (4, 2, 2)]
    with pytest.raises(CapacityError):
        sweep(10)


@pytest.mark.parametrize("bounds", [(2,), (0,), (-3,), (5, 0), (5, 1, 1),
                                    (10, 0)])
def test_sweep_rejects_bounds_that_admit_no_instance(bounds):
    # (10, 0) is past the guard as well; the guard is checked first
    error = CapacityError if bounds[0] > 9 else ParameterError
    with pytest.raises(error):
        sweep(*bounds)
