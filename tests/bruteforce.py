"""Slow reference implementations used only by the tests.

Deliberately dumb: all-pairs relaxation for distances, subset
enumeration for cuts, full permutation scans for canonical codes.
They share no code with the package so disagreements mean real bugs.
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


def ref_canonical_code(g: Graph) -> int:
    """Minimum relabelled bit code by plain permutation scanning."""
    n = g.order
    cells = [(i, j) for j in range(n) for i in range(j)]
    best = None
    for perm in permutations(range(n)):
        code = 0
        for i, j in cells:
            code = code << 1 | (g.rows[perm[i]] >> perm[j] & 1)
        if best is None or code < best:
            best = code
    return 0 if best is None else best
