"""The climbs' class counts against published graph counts (see
``census``): connected, 2-connected and 3-connected graphs, trees, and
at orders up to 7 every graph of networkx's atlas, by size and
diameter; and, up to order 7, every walk and every answer of the
oracle against the census."""

from collections import Counter
from math import comb

import networkx as nx
import pytest

from census import (CONNECTED, K_CONNECTED, TREES, census, check_answers,
                    check_walks, graded, k_connected, levels)
from oremax.graphs import bits
from oremax.oracle import _trees


def to_nx(rows):
    g = nx.empty_graph(len(rows))
    g.add_edges_from((u, v) for u, row in enumerate(rows) for v in bits(row))
    return g


def by_size_and_diameter(graphs):
    return Counter((g.number_of_edges(), nx.diameter(g)) for g in graphs)


@pytest.mark.parametrize("n", range(3, 9))
def test_census_counts_every_connected_class(n):
    up = census(n, True)
    assert sorted(up) == list(range(n - 1, comb(n, 2) + 1))
    assert len(up[n - 1]) == TREES[n]
    assert sum(map(len, up.values())) == CONNECTED[n]
    # down keeps every connected class but the path, which is the one
    # class of diameter n - 1
    walk = levels(n, n - 1, False)
    for size, kept in up.items():
        assert len(walk[size][1]) == len(kept) - (size == n - 1), size
    assert [size for size, (exact, _) in walk.items() if exact] == [n - 1]
    (path,) = walk[n - 1][0]
    assert nx.diameter(to_nx(path)) == n - 1


@pytest.mark.parametrize("n", range(2, 11))
def test_trees_count_every_tree(n):
    assert len(_trees(n, 1)) == TREES[n]


@pytest.mark.parametrize("n", range(3, 8))
def test_census_matches_the_atlas_by_size_and_diameter(n):
    atlas = by_size_and_diameter(
        g for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and nx.is_connected(g))
    up = census(n, True)
    assert by_size_and_diameter(
        to_nx(rows) for kept in up.values() for rows in kept) == atlas
    down = census(n, False)
    assert by_size_and_diameter(
        to_nx(rows) for kept in down.values() for rows in kept) == \
        atlas - Counter({(n - 1, n - 1): 1})


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(3, 9))
def test_k_census_counts_every_k_connected_class(n, k):
    # the climbs test kappa by is_k_connected alone, once per class: over
    # the up census it must pass exactly the k-connected classes
    up = k_connected(census(n, True), k)
    assert sum(map(len, up.values())) == K_CONNECTED[k].get(n, 0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(3, 8))
def test_k_census_matches_the_atlas_by_size_and_diameter(n, k):
    atlas = by_size_and_diameter(
        g for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and nx.node_connectivity(g) >= k)
    up = k_connected(census(n, True), k)
    assert by_size_and_diameter(
        to_nx(rows) for kept in up.values() for rows in kept) == atlas


@pytest.mark.parametrize("n", range(3, 8))
def test_census_referees_every_walk_and_every_answer(n):
    # every d-restricted walk and every answer, both directions; order 8
    # runs in CI, its answers in the oracle's direction
    table = graded(n)
    assert len(table) == CONNECTED[n]
    check_walks(n, table)
    check_answers(n, table, both=True)
