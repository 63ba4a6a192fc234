"""Slow reference implementations used only by the tests.

Deliberately dumb: all-pairs relaxation for distances, subset
enumeration for cuts, full permutation scans for canonical codes, and
the individualisation-refinement tree with no pruning for the
certificate.  They share no code with the package so disagreements
mean real bugs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from oremax import DISCONNECTED, Graph, from_edges

INF = float("inf")


def random_graph(rng, order: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(order) for v in range(u + 1, order)
             if rng.random() < p]
    return from_edges(order, edges)


def fw_distances(g: Graph) -> list[list[float]]:
    n = g.order
    dist = [[0 if i == j else (1 if g.rows[i] >> j & 1 else INF)
             for j in range(n)] for i in range(n)]
    for w in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][w] + dist[w][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def fw_diameter(g: Graph):
    worst = max(max(row) for row in fw_distances(g))
    return DISCONNECTED if worst == INF else int(worst)


def _connected_on(g: Graph, keep: int) -> bool:
    verts = [v for v in range(g.order) if keep >> v & 1]
    if len(verts) <= 1:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for v in verts:
            if v not in seen and g.rows[u] >> v & 1:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(verts)


def brute_vertex_connectivity(g: Graph) -> int:
    n = g.order
    full = (1 << n) - 1
    if all(g.rows[v] == full ^ (1 << v) for v in range(n)):
        return n - 1
    for size in range(n - 1):
        for cut in combinations(range(n), size):
            mask = 0
            for v in cut:
                mask |= 1 << v
            if not _connected_on(g, full & ~mask):
                return size
    raise AssertionError("non-complete graph with no separating subset")


def brute_lex_min_cut(g: Graph, kappa: int) -> int:
    """First kappa-vertex cut in the lexicographic order of sorted vertex
    tuples (0 for kappa = 0 on a disconnected graph)."""
    full = (1 << g.order) - 1
    for cut in combinations(range(g.order), kappa):
        mask = 0
        for v in cut:
            mask |= 1 << v
        if not _connected_on(g, full & ~mask):
            return mask
    raise AssertionError("no separating subset of the given size")


def _st_connected(g: Graph, s: int, t: int, removed: int) -> bool:
    seen = 1 << s
    stack = [s]
    while stack:
        u = stack.pop()
        m = g.rows[u] & ~removed & ~seen
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            seen |= 1 << v
            stack.append(v)
    return bool(seen >> t & 1)


def brute_min_separator(g: Graph, s: int, t: int) -> int:
    """Smallest vertex set whose removal parts non-adjacent s and t."""
    others = [v for v in range(g.order) if v not in (s, t)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            mask = 0
            for v in cut:
                mask |= 1 << v
            if not _st_connected(g, s, t, mask):
                return size
    raise AssertionError("removing all interior vertices must separate")


def _order_code(g: Graph, order) -> int:
    # the upper-triangle cells, column by column, of g relabelled so
    # that order[i] becomes vertex i
    code = 0
    for j in range(len(order)):
        for i in range(j):
            code = code << 1 | (g.rows[order[i]] >> order[j] & 1)
    return code


def ref_canonical_code(g: Graph) -> int:
    """Minimum relabelled bit code by plain permutation scanning."""
    return min(_order_code(g, perm) for perm in permutations(range(g.order)))


def ref_certificate(g: Graph) -> int:
    """Least leaf code of the full individualisation-refinement tree.

    Cells are lists of vertices; refinement splits each cell by the
    neighbour counts into every cell, in sorted signature order, until
    none splits; every vertex of the first non-singleton cell is
    individualised in turn, with no pruning of any kind.
    """
    def refine(cells):
        while True:
            split = []
            for cell in cells:
                sig = {v: tuple(sum(g.rows[v] >> u & 1 for u in c)
                                for c in cells) for v in cell}
                split += [[v for v in cell if sig[v] == s]
                          for s in sorted(set(sig.values()))]
            if len(split) == len(cells):
                return cells
            cells = split

    def leaves(cells):
        cells = refine(cells)
        wide = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not wide:
            yield _order_code(g, [cell[0] for cell in cells])
            return
        i = wide[0]
        for v in cells[i]:
            rest = [u for u in cells[i] if u != v]
            yield from leaves(cells[:i] + [[v], rest] + cells[i + 1:])

    return min(leaves([list(range(g.order))] if g.order else []))
