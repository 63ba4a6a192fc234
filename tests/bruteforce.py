"""Slow reference implementations used only by the tests.

Deliberately dumb: all-pairs relaxation for distances and the layer
structure, an edge list for the complete layered graph, subset
enumeration for cuts, full permutation scans for canonical codes, one
character per six-bit group for graph6, the
individualisation-refinement tree with no pruning for the certificate,
networkx for isomorphism, the labelled scan over every complement of
each size for the oracle's maximum and maximizers, and every pair of
the child, each edge deleted and flooded, for the canonical-deletion
test.  They share no code with the package beyond building a graph
from its edges or rows, so disagreements mean real bugs.
``candidate_specs`` lists the window specs of the package's
``build_family_member``, the one constructor left that takes them.
"""

from __future__ import annotations

from itertools import combinations, permutations

import networkx as nx

from oremax import (DISCONNECTED, FamilyMemberSpec, Graph, Parameters, Side,
                    from_edges, to_graph6)

INF = float("inf")


def random_rows(rng, order: int, p: float = 0.5) -> list[int]:
    """Symmetric adjacency rows of a random graph of any order, each pair
    an edge with probability ``p``."""
    rows = [0] * order
    for u, v in combinations(range(order), 2):
        if rng.random() < p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def random_graph(rng, order: int, p: float = 0.5) -> Graph:
    return Graph(order, random_rows(rng, order, p))


def ref_graph_error(order: int, rows) -> str | None:
    """The message ``Graph(order, rows)`` raises, or None if it accepts.

    ``rows`` has one int per vertex.  Rows are read in turn, and the
    first with a defect reports it: bits below 0 or at ``order`` and
    above, else a self-loop, else the least neighbour u whose own row
    lacks the row's vertex.
    """
    for v, row in enumerate(rows):
        if row < 0 or row >> order:
            return f"row {v} has bits outside 0..{order - 1}"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
        for u, ch in enumerate(reversed(bin(row))):
            if ch == "1" and not rows[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge (u, v) with u < v, in :func:`cells` order."""
    return [(u, v) for u, v in cells(g.order) if g.rows[u] >> v & 1]


def relabel(g: Graph, perm) -> Graph:
    """Copy of ``g`` in which old vertex v is ``perm[v]``."""
    if sorted(perm) != list(range(g.order)):
        raise ValueError("perm must be a permutation of 0..order-1")
    return from_edges(g.order, [(perm[u], perm[v]) for u, v in edges(g)])


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by networkx's VF2 matcher."""
    def nx_graph(x: Graph) -> nx.Graph:
        ref = nx.Graph()
        ref.add_nodes_from(range(x.order))
        ref.add_edges_from(edges(x))
        return ref

    return nx.is_isomorphic(nx_graph(g), nx_graph(h))


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


def ref_layered_graph(layers: list[list[int]]) -> Graph:
    """Each layer (a list of vertices) a clique, joined to the next one."""
    edges = [e for layer in layers for e in combinations(layer, 2)]
    edges += [(u, v) for here, there in zip(layers, layers[1:])
              for u in here for v in there]
    return from_edges(sum(map(len, layers)), edges)


def candidate_specs(p: Parameters):
    """Every 3-block window, and every 4-block window with both sides
    taken, whose blocks lie on the backbone of ``p``."""
    r = p.outside_count
    for start in range(1, p.d):
        yield FamilyMemberSpec(start, 3, (Side.FIRST_THREE,) * r)
    if r >= 2:
        for start in range(1, p.d - 1):
            for c in range(1, r):
                sides = (Side.FIRST_THREE,) * c + (Side.LAST_THREE,) * (r - c)
                yield FamilyMemberSpec(start, 4, sides)


def ref_layer_structure(g: Graph, x: int, y: int, k: int) -> bool:
    """True iff every distance class from x strictly between x and y has
    at least k vertices, and two vertices are adjacent exactly when
    their distances from x differ by at most one."""
    dist = fw_distances(g)[x]
    between = range(1, int(dist[y]))
    if any(sum(1 for r in dist if r == i) < k for i in between):
        return False
    return all(bool(g.rows[u] >> v & 1) == (abs(dist[u] - dist[v]) <= 1)
               for u in range(g.order) for v in range(g.order) if u != v)


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


def _flood(rows, seed: int, allowed: int = -1, depth: int = -1):
    # (reached, last frontier) of a breadth-first flood from the mask
    # seed inside allowed, at most depth steps (no limit if negative)
    reached = frontier = seed
    while depth and frontier:
        grown = 0
        m = frontier
        while m:
            low = m & -m
            grown |= rows[low.bit_length() - 1]
            m ^= low
        frontier = grown & allowed & ~reached
        reached |= frontier
        depth -= 1
    return reached, frontier


def _top_move(rows, u: int, v: int, up: bool) -> bool:
    """The canonical-deletion test on the child ``rows`` alone: whether
    the pair uv just moved has the greatest key (deg x + deg y,
    |N(x) & N(y)|), ties allowed, among the movable pairs of ``rows``.
    Down those are the non-edges; up, the edges whose deletion leaves y
    reachable from x, found by deleting the edge and flooding."""
    def key(x, y):
        return (rows[x].bit_count() + rows[y].bit_count(),
                (rows[x] & rows[y]).bit_count())

    def movable(x, y):
        if rows[x] >> y & 1 != up:
            return False
        if not up:
            return True
        cut = list(rows)
        cut[x] ^= 1 << y
        cut[y] ^= 1 << x
        return bool(_flood(cut, 1 << x)[0] >> y & 1)

    top = key(u, v)
    return not any(key(x, y) > top and movable(x, y)
                   for x, y in combinations(range(len(rows)), 2))


def brute_min_separator(g: Graph, s: int, t: int) -> int:
    """Smallest vertex set whose removal parts non-adjacent s and t."""
    others = [v for v in range(g.order) if v not in (s, t)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            mask = 0
            for v in cut:
                mask |= 1 << v
            if not _flood(g.rows, 1 << s, ~mask)[0] >> t & 1:
                return size
    raise AssertionError("removing all interior vertices must separate")


def cells(order: int) -> list[tuple[int, int]]:
    """Upper-triangle cells in column order: (0,1), (0,2), (1,2), ..."""
    return [(i, j) for j in range(order) for i in range(j)]


def _order_code(rows, order) -> int:
    # the upper-triangle cells, column by column, of the graph relabelled
    # so that order[i] becomes vertex i
    code = 0
    for j in range(len(order)):
        for i in range(j):
            code = code << 1 | (rows[order[i]] >> order[j] & 1)
    return code


def _code_rows(order: int, code: int) -> list[int]:
    # the adjacency rows whose identity-order code is ``code``
    rows = [0] * order
    for i, j in reversed(cells(order)):
        if code & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        code >>= 1
    return rows


def ref_graph6(order: int, code: int) -> str:
    """graph6 line of the cell-order ``code``: one character per six-bit
    group, zero-padded on the right."""
    n_cells = order * (order - 1) // 2
    pad = -n_cells % 6
    code <<= pad
    return chr(63 + order) + "".join(
        chr(63 + (code >> shift & 63))
        for shift in range(n_cells + pad - 6, -1, -6))


def ref_canonical_code(g: Graph) -> int:
    """Minimum relabelled bit code by plain permutation scanning."""
    return min(_order_code(g.rows, perm)
               for perm in permutations(range(g.order)))


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
            yield _order_code(g.rows, [cell[0] for cell in cells])
            return
        i = wide[0]
        for v in cells[i]:
            rest = [u for u in cells[i] if u != v]
            yield from leaves(cells[:i] + [[v], rest] + cells[i + 1:])

    return min(leaves([list(range(g.order))] if g.order else []))


def keep_masks(order: int, k: int) -> list[int]:
    """The vertex masks left by removing each subset of 1..k-1 vertices."""
    full = (1 << order) - 1
    return [full & ~sum(1 << v for v in cut) for size in range(1, k)
            for cut in combinations(range(order), size)]


def candidate_ok(rows: list[int], missing, d: int, keeps: list[int]) -> bool:
    """True iff the graph has diameter exactly d and no mask of ``keeps``
    induces a disconnected graph.

    ``missing`` must be exactly the non-adjacent pairs.  A missing pair
    with a common neighbour is at distance 2, so d = 2 needs every
    missing pair to have one and d >= 3 needs a pair without one (a far
    pair) at distance d and every far pair within d.  Passing that
    makes the graph connected, so ``keep_masks(order, k)`` then decides
    connectivity >= k.
    """
    if d == 2:
        if not missing:
            return False
        for u, v in missing:
            if not rows[u] & rows[v]:
                return False
    else:
        far: dict[int, int] = {}
        for u, v in missing:
            if not rows[u] & rows[v]:
                far[u] = far.get(u, 0) | 1 << v
        hit_d = False
        for u, targets in far.items():
            reached, at_d = _flood(rows, 1 << u, depth=d)
            if targets & ~reached:
                return False
            hit_d = hit_d or bool(targets & at_d)
        if not hit_d:
            return False
    for keep in keeps:
        if _flood(rows, keep & -keep, keep)[0] != keep:
            return False
    return True


def scan_level(order: int, k: int, d: int, level: int) -> list[int]:
    """Codes of the labelled graphs with diameter d and connectivity >= k
    whose complement has ``level`` edges."""
    full = (1 << order) - 1
    base = [full ^ 1 << v for v in range(order)]
    keeps = keep_masks(order, k)
    winners = []
    for missing in combinations(cells(order), level):
        rows = base[:]
        for u, v in missing:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        if candidate_ok(rows, missing, d, keeps):
            winners.append(_order_code(rows, range(order)))
    return winners


def labelled_search(order: int, k: int, d: int) -> tuple[int | None, list[int]]:
    """Maximum size and its labelled winners' codes, (None, []) if none:
    complement levels ascend, and the first with a winner gives both."""
    m = order * (order - 1) // 2
    for level in range(m + 1):
        winners = scan_level(order, k, d, level)
        if winners:
            return m - level, winners
    return None, []


def dedup_canonical(order: int, codes: list[int]) -> list[str]:
    """Sorted graph6 strings, one per isomorphism class of ``codes``.

    The least code left is printed once its orbit, expanded over all
    relabellings, lies in the set: it is then the least of that orbit.
    A set of codes not closed under relabelling raises RuntimeError.
    """
    remaining = set(codes)
    out = []
    while remaining:
        rows = _code_rows(order, min(remaining))
        orbit = {_order_code(rows, perm) for perm in permutations(range(order))}
        if not orbit <= remaining:
            raise RuntimeError("winner set not closed under relabelling")
        remaining -= orbit
        out.append(to_graph6(Graph(order, tuple(rows))))
    return sorted(out)
