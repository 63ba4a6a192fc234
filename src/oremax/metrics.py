"""Distance and connectivity invariants.

BFS layer profiles, diameter with a typed sentinel for disconnected
graphs, and vertex connectivity by Menger's theorem: the maximum number
of internally disjoint paths between a non-adjacent pair equals the
minimum separator size.  Each pair is a unit-capacity max flow on the
vertex-split digraph, found by augmenting paths that step along the
adjacency bitmask rows.  ``connectivity`` and ``is_k_connected`` share
one loop (Esfahanian & Hakimi's pairs): one BFS rules out a
disconnected graph and settles kappa <= 1 with no flow; past that it
starts from the minimum degree delta, takes a vertex v of that degree,
and tries v against each non-neighbour and then each non-adjacent pair
of v's neighbours, at most (n - 1 - delta) + C(delta, 2) flows, each
capped at the best value so far; ``is_k_connected`` stops at the first
value below k.
``vertex_connectivity`` adds the lexicographically least minimum
cut, chosen greedily one vertex at a time: each candidate costs one
connectivity test of G minus the chosen vertices and it, and the least
candidate at each position goes in, so at most n tests in all.  The
last two positions are settled by cut vertices.  Every other traversal
over adjacency rows is a call to :func:`oremax.graphs.reach` or
:func:`oremax.graphs.cut_vertices`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError
from .graphs import (Graph, bits, cut_vertices, induced_subgraph, is_clique,
                     reach)


class Disconnected:
    """Diameter sentinel; a single shared instance, never equal to an int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DISCONNECTED"


DISCONNECTED = Disconnected()


@dataclass(frozen=True)
class LayerProfile:
    """BFS layering from one source.

    ``layers[r]`` is the bitmask of vertices at distance exactly r from
    the source; unreachable vertices appear in no layer.  The
    eccentricity is the largest finite distance, ``len(layers) - 1``.
    """

    source: int
    layers: tuple[int, ...]
    eccentricity: int

    def reached(self) -> int:
        """Bitmask of the source's component."""
        mask = 0
        for layer in self.layers:
            mask |= layer
        return mask

    def layer_of(self, v: int) -> int | None:
        """Distance from the source to v, or None if unreachable."""
        for r, layer in enumerate(self.layers):
            if layer >> v & 1:
                return r
        return None


@dataclass(frozen=True)
class ConnectivityResult:
    """Vertex connectivity plus a witness.

    ``witness_cut`` is a vertex bitmask whose removal disconnects the
    graph; it is empty (0) for complete graphs, where no cut exists and
    kappa is order - 1 by convention.  Among all minimum cuts the
    witness is the one whose sorted vertex tuple is lexicographically
    smallest.
    """

    kappa: int
    witness_cut: int


def bfs_layers(g: Graph, source: int) -> LayerProfile:
    """Layers of vertices by exact distance from ``source``."""
    if not 0 <= source < g.order:
        raise IndexError(f"vertex {source} out of range for order {g.order}")
    seen = layer = 1 << source
    layers = []
    while layer:
        layers.append(layer)
        _, layer = reach(g.rows, layer, ~seen, 1)
        seen |= layer
    return LayerProfile(source, tuple(layers), len(layers) - 1)


def is_connected(g: Graph) -> bool:
    """True iff the graph has one component (vacuously true for order 1)."""
    if g.order == 0:
        raise ParameterError("connectivity undefined for order-0 graph")
    return reach(g.rows, 1)[0] == (1 << g.order) - 1


def diameter(g: Graph) -> int | Disconnected:
    """Greatest distance between two vertices, or DISCONNECTED."""
    if g.order == 0:
        raise ParameterError("diameter undefined for order-0 graph")
    if not is_connected(g):
        return DISCONNECTED
    return max(bfs_layers(g, v).eccentricity for v in range(g.order))


# ---------------------------------------------------------------------------
# connectivity via max flow

# Vertex v splits into an entry and an exit node joined by a capacity-1
# split arc; edge uv becomes the arcs exit(u) -> entry(v) and exit(v) ->
# entry(u), so a path uses each intermediate vertex at most once.  The
# flow is the list ``pred``: pred[v] == v for a free vertex, else v's
# predecessor on its path.  In the residual digraph entry(v) then has
# one way out, to exit(pred[v]): across a free split arc, or back
# against the unit that pred[v] sends into v.


def local_connectivity(g: Graph, s: int, t: int, *,
                       limit: int | None = None) -> int:
    """Maximum number of internally vertex-disjoint s-t paths.

    Requires a non-adjacent pair; adjacent pairs have no finite
    separator and are the caller's business to skip.  ``limit`` stops
    the augmentation early once that many paths are found.
    """
    g._check_vertex(s)
    g._check_vertex(t)
    if s == t:
        raise ParameterError("endpoints must be distinct")
    if g.has_edge(s, t):
        raise ParameterError("endpoints must be non-adjacent")
    rows = g.rows
    pred = list(range(g.order))
    flow = 0
    while limit is None or flow < limit:
        # BFS over exit nodes: via[x] = (u, v) when exit(x) is first
        # reached from exit(u) through entry(v).  Exit(u) leads to its
        # neighbours' entries and, backing over a loaded split arc, to
        # entry(u).  A loaded arc u -> v, or entry(u) of a free u, leads
        # only back to exit(u), so neither is filtered out.
        via = {s: None}
        seen_in = 1 << s
        queue = [s]
        for u in queue:  # grows while it is walked
            step = (rows[u] | 1 << u) & ~seen_in
            if step >> t & 1:
                break
            seen_in |= step
            for v in bits(step):
                if pred[v] not in via:
                    via[pred[v]] = (u, v)
                    queue.append(pred[v])
        else:
            return flow
        while u != s:  # entry(v) now takes its unit from exit(u)
            u, v = via[u]
            pred[v] = u
        flow += 1
    return flow


def induced_disconnected(rows: Sequence[int], keep: int) -> bool:
    """True iff the graph induced on the vertex mask ``keep`` is
    disconnected (never for fewer than two vertices)."""
    return reach(rows, keep & -keep, keep)[0] != keep


def _kappa(g: Graph, cap: int, exact: bool = True) -> int:
    # min(kappa, cap), with kappa(K_n) = n - 1; no flow exceeds the
    # minimum degree or order - 1.  One BFS settles best <= 1 with no
    # flow (no separator is empty).  Past that, with v of least degree,
    # a minimum separator S either misses v and cuts it from a
    # non-neighbour, or holds v, and then (being minimal) cuts two
    # non-adjacent neighbours of v apart (Esfahanian & Hakimi).
    # Without ``exact``, stop once best < cap.
    degrees = [row.bit_count() for row in g.rows]
    best = min(cap, g.order - 1, *degrees)
    if best > 0 and not is_connected(g):
        return 0
    if best <= 1:
        return best
    v = degrees.index(min(degrees))
    near = g.rows[v]
    pairs = itertools.chain(
        ((v, t) for t in bits((1 << g.order) - 1 ^ near ^ 1 << v)),
        ((a, b) for a in bits(near) for b in bits(near & ~g.rows[a] & -2 << a)))
    for s, t in pairs:
        if best < cap and not exact:
            break
        # values above the running minimum cannot matter
        best = min(best, local_connectivity(g, s, t, limit=best))
    return best


def _lex_min_cut(g: Graph, kappa: int) -> int:
    # One vertex at a time, least first: the next is the least v above
    # the last for which some minimum cut holds the vertices chosen so
    # far and v, that is, for which G minus them still has a cut of the
    # c vertices left to choose (none smaller, or G would have a cut
    # below kappa).  G minus them keeps at least c + 2 vertices, so a
    # complete one reads c + 1 and fails the test.  No vertex below the
    # last one chosen passes, or the cut would come earlier, so the last
    # vertex is the least cut vertex of G minus the others.
    keep = full = (1 << g.order) - 1
    pick = 1
    for c in range(kappa - 1, 0, -1):
        while not (cut_vertices(g.rows, keep ^ pick) if c == 1 else
                   _kappa(induced_subgraph(g, bits(keep ^ pick)), c + 1,
                          exact=False) <= c):
            pick <<= 1
        keep ^= pick
        pick <<= 1
    if kappa:
        cuts = cut_vertices(g.rows, keep)
        keep ^= cuts & -cuts
    return full ^ keep


def connectivity(g: Graph) -> int:
    """Minimum separating set size; order - 1 for complete graphs."""
    if g.order == 0:
        raise ParameterError("connectivity undefined for order-0 graph")
    return _kappa(g, g.order - 1)


def vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Minimum separating set size (order - 1 for complete graphs) and
    the lexicographically least minimum cut."""
    kappa = connectivity(g)
    if kappa == g.order - 1:
        return ConnectivityResult(kappa, 0)
    return ConnectivityResult(kappa, _lex_min_cut(g, kappa))


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff order > k and every separator has at least k vertices."""
    if k < 1:
        raise ParameterError("connectivity level must be at least 1")
    return _kappa(g, k, exact=False) == k


def layer_structure_check(g: Graph, x: int, y: int, k: int) -> bool:
    """Structural test along a diameter-realizing pair.

    With d the diameter and x, y at distance d, checks that every
    intermediate layer from x has at least k vertices and that each
    union of consecutive layers N_i(x) | N_{i+1}(x), i = 1..d-1, is a
    clique.  Maximum-size graphs satisfy this; it prunes impostors.
    """
    g._check_vertex(x)
    g._check_vertex(y)
    if k < 1:
        raise ParameterError("connectivity level must be at least 1")
    dia = diameter(g)
    if dia is DISCONNECTED:
        raise ParameterError("graph must be connected")
    profile = bfs_layers(g, x)
    if profile.layer_of(y) != dia:
        raise ParameterError("x and y must be at distance exactly the diameter")
    for i in range(1, dia):
        if profile.layers[i].bit_count() < k:
            return False
        if not is_clique(g, bits(profile.layers[i] | profile.layers[i + 1])):
            return False
    return True
