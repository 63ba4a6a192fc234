"""Distance and connectivity invariants.

BFS layer profiles, diameter with a typed sentinel for disconnected
graphs (one depth-capped flood per vertex, taken one layer further each
time the cap is raised until it covers the graph; a flood that dies
short of it finds the graph disconnected; a flood that covers the graph
short of its depth skips the source's neighbours, whose eccentricities
are at most one more: ``_diameter``, run from a mask of sources, every
vertex for ``diameter``, and by the oracle's screen from d - 1 with cap d),
``layer_structure_check`` (is the graph the complete layered graph on
its BFS layers, as :func:`oremax.graphs.layered_rows` writes it), and
vertex connectivity by Menger's theorem: the maximum number of
internally disjoint paths between a non-adjacent pair equals the
minimum separator size.  Each pair is a unit-capacity max flow on the
vertex-split digraph: ``_flow`` walks the neighbours a of s once,
loading the path s-a-t when a is a neighbour of t and otherwise,
greedily, s-a-b-t through the least unused neighbour b of t alone
adjacent to a; augmenting paths, found by ``_augment``'s own
breadth-first search along the adjacency bitmask rows of the vertices
in a mask, find the rest.
Every connectivity function walks Esfahanian & Hakimi's pairs: one BFS
rules out a disconnected graph and settles kappa <= 1 with no flow;
past that it starts from the minimum degree delta, takes a vertex v of
that degree, and tries v against each non-neighbour and then each
non-adjacent pair of v's neighbours, at most (n - 1 - delta) +
C(delta, 2) flows.  ``connectivity`` and
``is_k_connected`` cap each flow at the best value so far;
``is_k_connected`` starts that value at k and asks whether
min(kappa, k) is k.
``vertex_connectivity`` caps each at one more than the best, so every
pair that reads the final kappa is read exactly: the same pass yields
kappa and the tight flows, the pairs whose flow is exactly kappa.  It
then builds the lexicographically least minimum cut greedily, one
vertex at a time: the next is the least candidate above the last that
lies in a minimum cut of G minus the vertices chosen so far.  While
that graph's connectivity c + 1 is at least 3, one set of tight flows
on its vertex mask decides every candidate; G's own serve the first
position.  Every minimum cut is a minimum s-t cut of a tight pair, and
v lies in one iff the s-t flow drops when v goes (Picard & Queyranne).
A tight flow is kept as its bare ``pred`` list; only a candidate loaded
on it has its one path traced and unloaded, and then one augmenting
search settles that.  Cut vertices settle the last two positions,
by :func:`oremax.graphs.cut_vertices`; every flood outside the flow
is a call to :func:`oremax.graphs.reach`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ParameterError
from .graphs import Graph, bits, cut_vertices, layered_rows, reach


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

    def layer_of(self, v: int) -> int | None:
        """Distance from the source to v, or None if v is in no layer."""
        for r, layer in enumerate(self.layers):
            if v >= 0 and layer >> v & 1:
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
    g._check_vertex(source)
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


def _diameter(rows: Sequence[int], best: int, cap: int,
              todo: int) -> int | None:
    # max(best, the greatest eccentricity of a source in the non-empty
    # mask ``todo``), or None once that would pass ``cap`` or a flood
    # dies short of the graph; best <= cap.  The flood from v at depth
    # best misses a vertex iff v's eccentricity exceeds best, and each
    # raise of best takes that flood one layer further.  A flood that
    # covers the graph and stops short of depth best shows ecc(v) <
    # best, so no neighbour w of v, with ecc(w) <= ecc(v) + 1, can
    # raise best: they leave ``todo`` unflooded (Takes & Kosters).
    full = (1 << len(rows)) - 1
    while todo:
        v = (todo & -todo).bit_length() - 1
        reached, frontier = reach(rows, 1 << v, depth=best)
        while reached != full:
            if not frontier or best == cap:
                return None
            best += 1
            frontier = reach(rows, frontier, ~reached, 1)[1]
            reached |= frontier
        todo &= ~(1 << v if frontier else rows[v] | 1 << v)
    return best


def diameter(g: Graph) -> int | Disconnected:
    """Greatest distance between two vertices, or DISCONNECTED."""
    if g.order == 0:
        raise ParameterError("diameter undefined for order-0 graph")
    dia = _diameter(g.rows, 0, g.order - 1, (1 << g.order) - 1)
    return DISCONNECTED if dia is None else dia


# ---------------------------------------------------------------------------
# connectivity via max flow

# Vertex v splits into an entry and an exit node joined by a capacity-1
# split arc; edge uv becomes the arcs exit(u) -> entry(v) and exit(v) ->
# entry(u), so a path uses each intermediate vertex at most once.  The
# flow is the list ``pred``: pred[v] == v for a free vertex, else v's
# predecessor on its path.  In the residual digraph entry(v) then has
# one way out, to exit(pred[v]): across a free split arc, or back
# against the unit that pred[v] sends into v.


def _augment(rows: Sequence[int], keep: int, s: int, t: int,
             pred: list[int], flow: int, limit: int) -> int:
    # Raise ``flow``, the value of the s-t flow ``pred`` inside the
    # vertex mask ``keep``, one augmenting path at a time until it
    # reaches ``limit`` or no path is left; return the value reached.
    while flow < limit:
        # BFS over exit nodes: via[x] = (u, v) when exit(x) is first
        # reached from exit(u) through entry(v).  Exit(u) leads to its
        # neighbours' entries and, backing over a loaded split arc, to
        # entry(u).  A loaded arc u -> v, or entry(u) of a free u, leads
        # only back to exit(u), so neither is filtered out.  Entries
        # outside ``keep`` count as seen from the start.
        via = {s: None}
        seen_in = 1 << s | ~keep
        queue = [s]
        for u in queue:  # grows while it is walked
            step = (rows[u] | 1 << u) & ~seen_in
            if step >> t & 1:
                break
            seen_in |= step
            while step:
                low = step & -step
                v = low.bit_length() - 1
                step ^= low
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


def _flow(rows: Sequence[int], keep: int, s: int, t: int,
          limit: int) -> tuple[int, list[int]]:
    # A fresh s-t flow inside ``keep`` capped at ``limit``, as (value,
    # pred).  One walk over the neighbours a of s in ``keep`` loads the
    # short paths: a neighbour of t is the path s-a-t, and any other a
    # takes the least unused b in N(t) - N(s) adjacent to it, as the
    # path s-a-b-t.  No b is a neighbour of s, so only the used b need
    # leave.  ``_augment`` finds the rest, backing over a poor pick.
    pred = list(range(len(rows)))
    near = rows[s] & keep
    ends = rows[t] & keep & ~near
    flow = 0
    while near and flow < limit:
        low = near & -near
        a = low.bit_length() - 1
        near ^= low
        if rows[t] & low:
            pred[a] = s
            flow += 1
        elif b := rows[a] & ends:
            b &= -b
            ends ^= b
            pred[a] = s
            pred[b.bit_length() - 1] = a
            flow += 1
    return _augment(rows, keep, s, t, pred, flow, limit), pred


def local_connectivity(g: Graph, s: int, t: int, *,
                       limit: int | None = None) -> int:
    """Maximum number of internally vertex-disjoint s-t paths.

    Requires a non-adjacent pair; adjacent pairs have no finite
    separator and are the caller's business to skip.  ``limit``, if
    given, must be non-negative; it stops the augmentation early once
    that many paths are found.
    """
    g._check_vertex(s)
    g._check_vertex(t)
    if s == t:
        raise ParameterError("endpoints must be distinct")
    if limit is not None and limit < 0:
        raise ParameterError("limit must be non-negative")
    if g.has_edge(s, t):
        raise ParameterError("endpoints must be non-adjacent")
    return _flow(g.rows, (1 << g.order) - 1, s, t,
                 g.order if limit is None else limit)[0]


def _pairs(rows: Sequence[int], keep: int) -> Iterator[tuple[int, int]]:
    # Esfahanian & Hakimi's pairs of G[keep]: with v its least vertex of
    # least degree, v against each non-neighbour, then each non-adjacent
    # pair of v's neighbours.  A minimum separator S separates one of
    # them: if it misses v it cuts v from a non-neighbour, and if it
    # holds v then (being minimal) it cuts two neighbours of v apart.
    v = min(bits(keep), key=lambda u: (rows[u] & keep).bit_count())
    near = rows[v] & keep
    return itertools.chain(
        ((v, t) for t in bits(keep ^ near ^ 1 << v)),
        ((a, b) for a in bits(near) for b in bits(near & ~rows[a] & -2 << a)))


def _kappa(g: Graph, cap: int) -> int:
    # min(kappa, cap), with kappa(K_n) = n - 1; no flow exceeds the
    # minimum degree or order - 1.  One BFS settles best <= 1 with no
    # flow (no separator is empty); past that, the pairs decide.
    best = min(cap, g.order - 1, *(row.bit_count() for row in g.rows))
    if best > 0 and not is_connected(g):
        return 0
    if best <= 1:
        return best
    for s, t in _pairs(g.rows, (1 << g.order) - 1):
        # values above the running minimum cannot matter
        best = min(best, local_connectivity(g, s, t, limit=best))
    return best


def _tight_flows(rows: Sequence[int], keep: int, cap: int
                 ) -> tuple[int, list[tuple[int, int, list[int], int]]]:
    # (min(kappa, cap), tight) for G[keep], with kappa(K_n) = n - 1.
    # Each pair's flow is capped at best + 1, so it reads its exact
    # value whenever that is at most best: a pair is kept iff its flow
    # is exactly the final best, and a lower reading restarts the list.
    # ``tight`` holds (s, t, pred, flow) for the kept pairs.
    best = min(cap, keep.bit_count() - 1,
               *((rows[v] & keep).bit_count() for v in bits(keep)))
    tight = []
    for s, t in _pairs(rows, keep):
        flow, pred = _flow(rows, keep, s, t, best + 1)
        if flow < best:
            best, tight = flow, []
        if flow == best:
            tight.append((s, t, pred, flow))
    return best, tight


def _in_min_cut(rows: Sequence[int], keep: int, pick: int,
                tight: list[tuple[int, int, list[int], int]]) -> bool:
    # True iff the vertex ``pick`` (a one-bit mask) lies in a minimum
    # cut of G[keep].  Every minimum cut is a minimum s-t cut of some
    # tight pair, and v lies in one iff G[keep] - v carries one s-t
    # path fewer (Picard & Queyranne): so iff v is on a path, and once
    # that path is unloaded one search in G[keep] - v finds none.  The
    # path runs back from v along pred to s and on through each
    # successor, the u whose pred is the vertex before it; a unit that
    # only circles back to v is on no path.
    v = pick.bit_length() - 1
    for s, t, pred, kappa in tight:
        if pred[v] == v:
            continue
        rest = pred[:]
        u = v
        while rest[u] != u:
            rest[u], u = u, rest[u]
        if u != s:
            continue
        u = v
        while u in pred:
            u = pred.index(u)
            rest[u] = u
        if _augment(rows, keep ^ pick, s, t, rest, kappa - 1, kappa) < kappa:
            return True
    return False


def _lex_min_cut(rows: Sequence[int], kappa: int,
                 tight: list[tuple[int, int, list[int], int]]) -> int:
    # One vertex at a time, least first: the next is the least v above
    # the last for which some minimum cut holds the vertices chosen so
    # far and v, that is, v lies in a minimum cut of G[keep], G minus
    # the chosen vertices, whose connectivity is the c + 1 vertices left
    # to choose.  ``tight`` is G's own set of tight flows, which serves
    # the first position; a cut-vertex search settles c = 1.  No vertex
    # below the last one chosen passes, or the cut would come earlier,
    # so the last vertex is the least cut vertex of G[keep].
    keep = full = (1 << len(rows)) - 1
    pick = 1
    for c in range(kappa - 1, 0, -1):
        if c > 1 and keep != full:
            tight = _tight_flows(rows, keep, c + 1)[1]
        while not (cut_vertices(rows, keep ^ pick) if c == 1
                   else _in_min_cut(rows, keep, pick, tight)):
            pick <<= 1
            if pick > keep:
                raise RuntimeError(f"no vertex of G[{keep:#x}] lies in a "
                                   f"minimum cut of size {c + 1}")
        keep ^= pick
        pick <<= 1
    if kappa:
        cuts = cut_vertices(rows, keep)
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
    if g.order == 0:
        raise ParameterError("connectivity undefined for order-0 graph")
    full = (1 << g.order) - 1
    delta = min(row.bit_count() for row in g.rows)
    if delta and not is_connected(g):
        return ConnectivityResult(0, 0)
    kappa, tight = ((delta, []) if delta <= 1
                    else _tight_flows(g.rows, full, g.order - 1))
    if kappa == g.order - 1:
        return ConnectivityResult(kappa, 0)
    return ConnectivityResult(kappa, _lex_min_cut(g.rows, kappa, tight))


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff order > k and every separator has at least k vertices."""
    if k < 1:
        raise ParameterError("connectivity level must be at least 1")
    return _kappa(g, k) == k


def layer_structure_check(g: Graph, x: int, y: int, k: int) -> bool:
    """Structural test along a diameter-realizing pair.

    With d the diameter and x, y at distance d, checks that every
    intermediate layer N_i(x), i = 1..d-1, has at least k vertices and
    that g is the complete layered graph on its BFS layers from x: each
    layer a clique joined to the layers on either side.  Maximum-size
    graphs satisfy this; it prunes impostors.
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
    return (all(layer.bit_count() >= k for layer in profile.layers[1:-1])
            and g.rows == layered_rows(profile.layers))
