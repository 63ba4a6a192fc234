"""Simple undirected graphs as bitmask adjacency rows.

Vertices are dense integers ``0..order-1``.  Each adjacency row is an int
whose set bits are the neighbours of that vertex, so neighbourhood algebra
(unions, intersections, clique tests) is plain integer arithmetic.  Graph
values are immutable; every mutator returns a new value.

Everything is sized for desk-scale work: serialization uses the graph6
format and therefore caps the order at 62, and canonical forms are found
by a prefix-pruned search over vertex orders that keeps twins sorted,
guarded to order 10.

Bit conventions used throughout (they match graph6): the upper-triangle
adjacency cells are ordered column by column,

    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...

and the first cell in that list is the most significant bit of the
integer encoding produced by :func:`bit_code`.  A graph6 line is that
integer in six-bit groups: the order byte, then the bit code
zero-padded on the right to a multiple of six bits, each group offset
by 63.  Only :func:`bit_code` and :func:`from_bit_code` convert between
that cell order and adjacency rows; the two vertex-order searches
behind :func:`canonical_form` and :func:`_certificate` append the same
columns, one vertex at a time.

The package's only bitmask loops live here: :func:`bits` lists a mask's
set bits, :func:`reach` floods breadth-first over adjacency rows (every
BFS layering, connectedness test and oracle screen goes through it),
:func:`cut_vertices` finds the cut vertices of an induced subgraph by one
depth-first search, :func:`subset_masks` builds vertex-subset masks in
lexicographic order, :func:`lower_twins` is the one twin test, and
:func:`_refine` splits an ordered partition into cells until it is
equitable.  On that refinement :func:`_certificate` builds the oracle's
private isomorphism certificate, which only dedups the climb's levels:
every printed form is still the least code from :func:`canonical_form`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, Graph6ParseError, ParameterError

#: Largest order representable in single-byte-header graph6.
MAX_ORDER = 62

#: Largest order accepted by the exhaustive canonical-form search.
CANONICAL_MAX_ORDER = 10

_GRAPH6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[v]`` is the neighbour bitmask of v."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ParameterError("order must be non-negative")
        if len(self.rows) != self.order:
            raise ParameterError("adjacency must have one row per vertex")
        full = (1 << self.order) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ParameterError(f"row {v} has bits outside 0..{self.order - 1}")
            if row >> v & 1:
                raise ParameterError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.rows):
            for u in bits(row):
                if not self.rows[u] >> v & 1:
                    raise ParameterError(f"asymmetric adjacency between {u} and {v}")

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.rows) // 2

    def vertices(self) -> range:
        return range(self.order)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(bits(self.rows[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise IndexError(f"vertex {v} out of range for order {self.order}")


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Labelling-independent encoding: the graph6 string of the relabelling
    that minimises the upper-triangle bit string.  Equal exactly for
    isomorphic graphs."""

    g6: str


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach(rows: Sequence[int], seed: int, allowed: int = -1,
          depth: int = -1) -> tuple[int, int]:
    """Breadth-first flood from the vertex mask ``seed``.

    Each step adds the neighbours (by ``rows``) of the last frontier that
    lie in ``allowed`` and are not yet reached; the seed itself is always
    reached.  At most ``depth`` steps are taken (no limit if negative).
    Returns ``(reached, frontier)``: every vertex reached, and the
    vertices first reached at step ``depth`` -- the seed for depth 0,
    and 0 if the flood died out sooner or the depth is unlimited.
    """
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


def cut_vertices(rows: Sequence[int], keep: int) -> int:
    """Mask of the cut vertices of the graph induced on ``keep``.

    For a connected ``keep`` these are the vertices whose removal
    disconnects it.  A depth-first search from the lowest vertex keeps,
    for each vertex, the least depth its subtree reaches by one back
    edge: a non-root u is a cut vertex iff some child's subtree reaches
    no higher than u, and the root iff it has two children.
    """
    seen = root = keep & -keep
    if not root:
        return 0
    stack = [root.bit_length() - 1]
    depth = [0] * len(rows)
    low = [0] * len(rows)
    cuts = root_children = 0
    while stack:
        u = stack[-1]
        todo = rows[u] & keep & ~seen
        if todo:
            low_bit = todo & -todo
            w = low_bit.bit_length() - 1
            depth[w] = len(stack)
            # every neighbour seen before w is an ancestor of w
            low[w] = min(depth[a] for a in bits(rows[w] & seen))
            seen |= low_bit
            stack.append(w)
            continue
        stack.pop()
        if len(stack) > 1:
            parent = stack[-1]
            if low[u] >= depth[parent]:
                cuts |= 1 << parent
            low[parent] = min(low[parent], low[u])
        elif stack:
            root_children += 1
    if root_children > 1:
        cuts |= root
    return cuts


def subset_masks(order: int, size: int) -> Iterator[int]:
    """Masks of the ``size``-vertex subsets of ``0..order-1``, in the
    lexicographic order of their sorted vertex tuples."""
    return map(sum, itertools.combinations([1 << v for v in range(order)],
                                           size))


def lower_twins(rows: Sequence[int]) -> list[int]:
    """For each vertex v, the mask of its twins u < v: the vertices whose
    neighbourhood equals v's apart from u and v themselves.  Such u and
    v have equal rows when non-adjacent and equal rows plus themselves
    when adjacent, so one pass keyed by both finds every class."""
    apart: dict[int, int] = {}
    joined: dict[int, int] = {}
    twins = []
    for v, row in enumerate(rows):
        closed = row | 1 << v
        twins.append(apart.get(row, 0) | joined.get(closed, 0))
        apart[row] = apart.get(row, 0) | 1 << v
        joined[closed] = joined.get(closed, 0) | 1 << v
    return twins


def _mask_from(vertices: Iterable[int], order: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < order:
            raise IndexError(f"vertex {v} out of range for order {order}")
        mask |= 1 << v
    return mask


# ---------------------------------------------------------------------------
# construction


def empty_graph(order: int) -> Graph:
    """Graph with ``order`` vertices and no edges."""
    return from_edges(order, ())


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """New graph with the edge uv added (idempotent)."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ParameterError(f"self-loop at vertex {u} not allowed")
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.order, tuple(rows))


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on ``order`` vertices with the given edges."""
    if order < 0:
        raise ParameterError("order must be non-negative")
    if order > MAX_ORDER:
        raise CapacityError(f"order {order} exceeds cap {MAX_ORDER}")
    rows = [0] * order
    for u, v in edges:
        if not 0 <= u < order or not 0 <= v < order:
            raise IndexError(f"edge ({u}, {v}) out of range for order {order}")
        if u == v:
            raise ParameterError(f"self-loop at vertex {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabelled by ascending original index."""
    mask = _mask_from(vertices, g.order)
    kept = list(bits(mask))
    label = {old: 1 << new for new, old in enumerate(kept)}
    return Graph(len(kept), tuple(sum(map(label.__getitem__,
                                          bits(g.rows[u] & mask)))
                                  for u in kept))


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every pair in ``vertices`` is adjacent (true for size <= 1)."""
    mask = _mask_from(vertices, g.order)
    for v in bits(mask):
        if g.rows[v] & mask != mask ^ (1 << v):
            return False
    return True


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabelled copy: old vertex v becomes ``perm[v]``."""
    p = tuple(perm)
    if sorted(p) != list(range(g.order)):
        raise ParameterError("perm must be a permutation of 0..order-1")
    rows = [0] * g.order
    for v in range(g.order):
        row = 0
        for u in bits(g.rows[v]):
            row |= 1 << p[u]
        rows[p[v]] = row
    return Graph(g.order, tuple(rows))


# ---------------------------------------------------------------------------
# bit encodings and canonical forms


def bit_code(g: Graph) -> int:
    """Upper-triangle adjacency as an integer; cell (0,1) is the top bit."""
    # column j is row j's low j bits, vertex 0 first
    return int("".join(f"{row:0{g.order}b}"[::-1][:j]
                       for j, row in enumerate(g.rows)) or "0", 2)


def from_bit_code(order: int, code: int) -> Graph:
    """Inverse of :func:`bit_code`."""
    n_cells = order * (order - 1) // 2
    if code < 0 or code >> n_cells:
        raise ParameterError(f"code out of range for order {order}")
    text = f"{code:0{n_cells}b}"
    # column j, vertex 0 first, widened to a row; the transpose of these
    # lower-triangle rows is the upper triangle
    cols = [text[j * (j - 1) // 2:j * (j + 1) // 2].ljust(order, "0")
            for j in range(order)]
    return Graph(order, tuple(int(col[::-1], 2) | int("".join(up)[::-1], 2)
                              for col, up in zip(cols, zip(*cols))))


def check_canonical_order(order: int) -> None:
    """Raise CapacityError past the exhaustive canonical-form guard."""
    if order > CANONICAL_MAX_ORDER:
        raise CapacityError(
            f"order {order} exceeds canonical-form guard {CANONICAL_MAX_ORDER}")


def _order_codes(g: Graph, least: bool) -> set[int]:
    """Bit codes of ``g`` under the vertex orders that keep twins sorted.

    Orders grow one position at a time: placing w at position j appends
    column j of the code, w's adjacency to positions 0..j-1 with
    position 0 first.  Twins (equal neighbourhoods apart from each
    other) are placed in ascending label order; swapping twins is an
    automorphism, so every code of the full orbit is still reached.
    With ``least``, only the orders whose prefix equals the least
    prefix so far are kept, so the result is the minimum alone.
    """
    rows = g.rows
    n = g.order
    earlier = lower_twins(rows)
    level = [(0, 0, ())]
    for j in range(n):
        grown = []
        for code, placed, order in level:
            code <<= j
            for w in range(n):
                if placed >> w & 1 or earlier[w] & ~placed:
                    continue
                row = rows[w]
                col = 0
                for x in order:
                    col = col << 1 | row >> x & 1
                grown.append((code | col, placed | 1 << w, order + (w,)))
        if least:
            best = min(code for code, _, _ in grown)
            grown = [state for state in grown if state[0] == best]
        level = grown
    return {code for code, _, _ in level}


def canonical_form(g: Graph) -> CanonicalForm:
    """Minimum bit code over all vertex relabellings, as a graph6 string.

    Found by a prefix-pruned search over twin-sorted vertex orders,
    still guarded by order.  Two graphs have equal canonical forms iff
    they are isomorphic.
    """
    check_canonical_order(g.order)
    (best,) = _order_codes(g, least=True)
    return CanonicalForm(_graph6(g.order, best))


def relabeling_codes(g: Graph) -> set[int]:
    """Set of bit codes of all relabellings of ``g`` (its labelled orbit)."""
    check_canonical_order(g.order)
    return _order_codes(g, least=False)


def _refine(rows: Sequence[int], cells: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition into vertex masks.

    Each cell splits by how many neighbours its vertices have in each
    cell, the parts in sorted signature order, until no cell splits:
    then any two vertices of one cell have as many neighbours as each
    other in every cell.  Relabelling the input relabels the output.
    """
    while True:
        split = []
        for cell in cells:
            if not cell & cell - 1:
                split.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                row = rows[v]
                sig = tuple([(row & c).bit_count() for c in cells])
                groups[sig] = groups.get(sig, 0) | 1 << v
            split += [groups[sig] for sig in sorted(groups)]
        if len(split) == len(cells):
            return cells
        cells = split


def _certificate(rows: Sequence[int]) -> int:
    """Isomorphism certificate: equal exactly for isomorphic graphs.

    Individualisation-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014) without automorphism pruning: after
    :func:`_refine`, each vertex of the first cell with more than one
    vertex is made a cell of its own, and the search recurses.  A vertex
    with a lower twin in that cell is skipped, since swapping the two is
    an automorphism that fixes the partition.  The result is the least
    bit code (as :func:`bit_code` writes it) over the leaves, the
    discrete partitions read as vertex orders.  It is one relabelling's
    code, not always the least, so it is never printed.
    """
    earlier = lower_twins(rows)

    def least(cells: list[int]) -> int:
        cells = _refine(rows, cells)
        for i, cell in enumerate(cells):
            if cell & cell - 1:
                return min(least([*cells[:i], 1 << v, cell ^ 1 << v,
                                  *cells[i + 1:]])
                           for v in bits(cell) if not earlier[v] & cell)
        order = [cell.bit_length() - 1 for cell in cells]
        code = 0
        for j, w in enumerate(order):
            for x in order[:j]:
                code = code << 1 | rows[w] >> x & 1
        return code

    return least([(1 << len(rows)) - 1])


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff the two graphs are isomorphic (orders <= 10)."""
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# serialization


def _graph6(order: int, code: int) -> str:
    n_cells = order * (order - 1) // 2
    pad = -n_cells % 6
    code <<= pad
    return chr(63 + order) + "".join(
        chr(63 + (code >> shift & 63))
        for shift in range(n_cells + pad - 6, -1, -6))


def to_graph6(g: Graph) -> str:
    """graph6 line for ``g`` (no ``>>graph6<<`` header)."""
    if g.order > MAX_ORDER:
        raise CapacityError(f"graph6 supports order <= {MAX_ORDER}")
    return _graph6(g.order, bit_code(g))


def from_graph6(text: str | bytes) -> Graph:
    """Parse one graph6 line; accepts and strips the ``>>graph6<<`` header."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6ParseError("non-ASCII byte", exc.start) from None
    base = 0
    if text.startswith(_GRAPH6_HEADER):
        base = len(_GRAPH6_HEADER)
        text = text[base:]
    if not text:
        raise Graph6ParseError("missing order byte", base)
    first = ord(text[0])
    if first == 126:
        raise Graph6ParseError("multi-byte order not supported (order > 62)", base)
    order = first - 63
    if not 0 <= order <= MAX_ORDER:
        raise Graph6ParseError(f"invalid order byte {text[0]!r}", base)
    n_cells = order * (order - 1) // 2
    need = (n_cells + 5) // 6
    data = text[1:]
    if len(data) < need:
        raise Graph6ParseError(
            f"truncated: expected {need} data bytes, got {len(data)}",
            base + len(text))
    if len(data) > need:
        raise Graph6ParseError("trailing bytes after adjacency data",
                               base + 1 + need)
    code = 0
    for ofs, ch in enumerate(data):
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise Graph6ParseError(f"byte {ch!r} outside graph6 range",
                                   base + 1 + ofs)
        code = code << 6 | group
    pad = 6 * need - n_cells
    if code & ((1 << pad) - 1):  # padding lies in the last byte
        raise Graph6ParseError("non-zero padding bits", base + need)
    return from_bit_code(order, code >> pad)


def _edges(g: Graph) -> Iterator[tuple[int, int]]:
    # every edge (u, v) with u < v, sorted
    for u, row in enumerate(g.rows):
        for v in bits(row >> (u + 1) << (u + 1)):
            yield u, v


def to_edge_list(g: Graph) -> str:
    """One ``u v`` pair per line with u < v, sorted; empty string if no edges."""
    return "\n".join(f"{u} {v}" for u, v in _edges(g))


def to_dot(g: Graph) -> str:
    """Deterministic DOT text; every vertex declared, edges sorted."""
    return "\n".join(["graph g {", *(f"  {v};" for v in range(g.order)),
                      *(f"  {u} -- {v};" for u, v in _edges(g)), "}"])
