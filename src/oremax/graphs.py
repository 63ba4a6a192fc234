"""Simple undirected graphs as bitmask adjacency rows.

Vertices are dense integers ``0..order-1``.  Each adjacency row is an int
whose set bits are the neighbours of that vertex, so neighbourhood algebra
(unions, intersections, degrees) is plain integer arithmetic.  Graph
values are immutable: :func:`from_edges` builds one from an edge list.

Everything is sized for desk-scale work: serialization uses the graph6
format and therefore caps the order at 62, and canonical forms are found
by a prefix-pruned search over vertex orders that keeps twins sorted,
guarded to order 10.  :func:`relabeling_codes`, the orbit that referees
it, shares only :func:`bit_code` with it: the orbit is the closure of
one code under the swaps of adjacent labels, each two masked bit swaps.

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
columns, one vertex at a time.  :func:`_transpose`, log2(width) masked
block swaps on rows packed into one int, is the codec's and ``Graph``
validation's one transposition: a row's missing partner is one bit.

The package's shared bitmask loops live here: :func:`bits` lists a mask's
set bits, :func:`reach` floods breadth-first over adjacency rows (every
BFS layering, connectedness test and the oracle's diameter screen goes
through it), :func:`cut_vertices` finds the cut vertices of an induced
subgraph by one depth-first search, :func:`lower_twins` is the one twin
test, :func:`layered_rows` writes the complete layered graph (each
layer a clique joined to the layers on either side) from its layer
masks, and :func:`_refine` splits an ordered partition into cells until
it is equitable.  On that refinement :func:`_certificate` builds the
oracle's private isomorphism certificate, which only dedups the
climb's tree seeds and levels, and only the graphs of one such list
whose cheap invariant :func:`_invariant` (the sorted degree and
neighbour-degree-sum pairs) another graph of that list shares: every
printed form is still the least code from :func:`canonical_form`.
"""

from __future__ import annotations

from binascii import b2a_base64
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, Graph6ParseError, ParameterError

#: Largest order representable in single-byte-header graph6.
MAX_ORDER = 62

#: Largest order accepted by the exhaustive canonical-form search.
CANONICAL_MAX_ORDER = 10

_GRAPH6_HEADER = ">>graph6<<"
#: ``str.translate`` table: each graph6 data character to its six bits
_GRAPH6_BITS = {63 + group: f"{group:06b}" for group in range(64)}
_GRAPH6_CHARS = bytes.maketrans(  # base64's alphabet to graph6's
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[v]`` is the neighbour bitmask of v."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        # a list would leave the graph unhashable and open to writes
        object.__setattr__(self, "rows", rows := tuple(self.rows))
        n = self.order
        if n < 0:
            raise ParameterError("order must be non-negative")
        if len(rows) != n:
            raise ParameterError("adjacency must have one row per vertex")
        # the rows' in-range parts as one bit matrix: a bit whose
        # transposed partner is clear, or on the diagonal, is a defect
        full = (1 << n) - 1
        width = 1 << (n - 1).bit_length()
        packed = 0
        for v, row in enumerate(rows):
            packed |= (row & full) << v * width
        wrong = packed & (~_transpose(packed, width) | _masks(width)[1])
        if (not wrong and 0 <= min(rows, default=0)
                and max(rows, default=0) <= full):
            return
        # the first defective row reports its first defect: its range,
        # then a self-loop, then the least u missing its partner
        ranged = next((v for v, row in enumerate(rows)
                       if not 0 <= row <= full), n)
        v, u = divmod((wrong & -wrong).bit_length() - 1, width)
        if not 0 <= v < ranged:
            raise ParameterError(f"row {ranged} has bits outside 0..{n - 1}")
        if wrong >> v * (width + 1) & 1:
            raise ParameterError(f"self-loop at vertex {v}")
        raise ParameterError(f"asymmetric adjacency between {u} and {v}")

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

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
    """Indices of the set bits of ``mask``, ascending; ``mask`` >= 0."""
    if mask < 0:
        raise ParameterError(f"mask {mask} is negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _masks(width: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """:func:`_transpose`'s rounds, j descending, as (shift, mask): the
    mask holds each cell (r, c) with bit j clear in r and set in c, which
    trades places with (r + j, c - j); and the diagonal mask."""
    swaps = []
    for j in reversed([1 << i for i in range(width.bit_length() - 1)]):
        col = sum(1 << c for c in range(width) if c & j)
        mask = sum(col << r * width for r in range(width) if not r & j)
        swaps.append((j * (width - 1), mask))
    return tuple(swaps), sum(1 << v * (width + 1) for v in range(width))


def _transpose(packed: int, width: int) -> int:
    """Transpose of the bit matrix whose row r is ``packed``'s bits from
    ``r * width``, ``width`` a power of two: each round swaps the corner
    blocks of every 2j x 2j block, j halving from width / 2 to 1
    (Warren, Hacker's Delight, 2nd ed., section 7-3)."""
    for shift, mask in _masks(width)[0]:
        swap = (packed ^ packed >> shift) & mask
        packed ^= swap ^ swap << shift
    return packed


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
    no higher than u, and the root iff it has two children.  Every
    neighbour seen before a vertex w is an ancestor of w, and
    ``above[i]`` masks the stack's first i + 1 vertices, so the least
    depth w reaches itself is the least i with ``rows[w] & above[i]``,
    found by bisection; the parent, at depth ``len(stack) - 1``, always
    passes.
    """
    seen = root = keep & -keep
    if not root:
        return 0
    stack = [root.bit_length() - 1]
    above = [root]
    low = [0] * len(rows)
    cuts = root_children = 0
    while stack:
        u = stack[-1]
        todo = rows[u] & keep & ~seen
        if todo:
            low_bit = todo & -todo
            w = low_bit.bit_length() - 1
            row = rows[w]
            lo, hi = 0, len(stack) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if row & above[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            low[w] = lo
            seen |= low_bit
            stack.append(w)
            above.append(above[-1] | low_bit)
            continue
        stack.pop()
        above.pop()
        if len(stack) > 1:
            parent = stack[-1]
            if low[u] >= len(stack) - 1:  # the parent's depth
                cuts |= 1 << parent
            low[parent] = min(low[parent], low[u])
        elif stack:
            root_children += 1
    if root_children > 1:
        cuts |= root
    return cuts


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


def layered_rows(layers: Sequence[int]) -> tuple[int, ...]:
    """Rows of the complete layered graph on ``layers``, vertex masks
    that partition ``0..n-1``: each vertex is joined to the rest of its
    own layer and to the layers on either side, and to nothing else."""
    rows = [0] * sum(layer.bit_count() for layer in layers)
    padded = (0, *layers, 0)
    for before, layer, after in zip(padded, padded[1:], padded[2:]):
        for v in bits(layer):
            rows[v] = (before | layer | after) ^ 1 << v
    return tuple(rows)


# ---------------------------------------------------------------------------
# construction


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


# ---------------------------------------------------------------------------
# bit encodings and canonical forms


def bit_code(g: Graph) -> int:
    """Upper-triangle adjacency as an integer; cell (0,1) is the top bit."""
    # row j's low j bits are column j, cells j(j-1)/2 on; cell 0 goes on top
    cells = base = 0
    for j, row in enumerate(g.rows):
        cells |= (row & (1 << j) - 1) << base
        base += j
    return int(f"{cells:0{base}b}"[::-1], 2)


def from_bit_code(order: int, code: int) -> Graph:
    """Inverse of :func:`bit_code`."""
    n_cells = order * (order - 1) // 2
    if code < 0 or code >> n_cells:
        raise ParameterError(f"code out of range for order {order}")
    cells = int(f"{code:0{n_cells}b}"[::-1], 2)  # cell p is bit p
    # column j, at stride width, holds row j's lower neighbours
    width = 1 << (order - 1).bit_length()
    lower = 0
    for j in range(order):
        lower |= (cells & (1 << j) - 1) << j * width
        cells >>= j
    packed = lower | _transpose(lower, width)  # and the upper ones
    return Graph(order, tuple([packed >> v * width & (1 << width) - 1
                               for v in range(order)]))


def check_canonical_order(order: int) -> None:
    """Raise CapacityError past the exhaustive canonical-form guard."""
    if order > CANONICAL_MAX_ORDER:
        raise CapacityError(
            f"order {order} exceeds canonical-form guard {CANONICAL_MAX_ORDER}")


def _least_code(g: Graph) -> int:
    """Least bit code of ``g`` over the vertex orders that keep twins sorted.

    Orders grow one position at a time: placing w at position j appends
    column j of the code, w's adjacency to positions 0..j-1 with
    position 0 first.  Twins (equal neighbourhoods apart from each
    other) are placed in ascending label order; swapping twins is an
    automorphism, so the least code of the full orbit is still reached.
    Every order kept at a level has the same prefix, so each level keeps
    only the orders whose new column is the least one, and appends it.
    """
    rows = g.rows
    n = g.order
    earlier = lower_twins(rows)
    code = 0
    level = [(0, ())]
    for j in range(n):
        best = 1 << j  # above every j-bit column
        kept = []
        for placed, order in level:
            for w in range(n):
                if placed >> w & 1 or earlier[w] & ~placed:
                    continue
                row = rows[w]
                col = 0
                for x in order:
                    col = col << 1 | row >> x & 1
                if col < best:
                    best = col
                    kept = []
                if col == best:
                    kept.append((placed | 1 << w, order + (w,)))
        code = code << j | best
        level = kept
    return code


def canonical_form(g: Graph) -> CanonicalForm:
    """Minimum bit code over all vertex relabellings, as a graph6 string.

    Found by a prefix-pruned search over twin-sorted vertex orders,
    still guarded by order.  Two graphs have equal canonical forms iff
    they are isomorphic.
    """
    check_canonical_order(g.order)
    return CanonicalForm(_graph6(g.order, _least_code(g)))


@cache
def _label_swaps(order: int) -> tuple[tuple[int, int, int], ...]:
    """For each i < order - 1, the swap of labels i and i + 1 on a bit
    code as two delta swaps, ``(i, cols, rows)``: the cells (x, i) and
    (x, i + 1), x < i, lie i apart in the code, and the cells (i, y) and
    (i + 1, y), y > i + 1, lie 1 apart.  ``cols`` and ``rows`` mask the
    lower bit of each pair."""
    top = order * (order - 1) // 2 - 1

    def bit(x: int, y: int) -> int:  # cell (x, y), x < y
        return 1 << top - (y * (y - 1) // 2 + x)

    return tuple((i, sum(bit(x, i + 1) for x in range(i)),
                  sum(bit(i + 1, y) for y in range(i + 2, order)))
                 for i in range(order - 1))


def relabeling_codes(g: Graph) -> set[int]:
    """Set of bit codes of all relabellings of ``g`` (its labelled orbit):
    the closure of its own code under the swaps of adjacent labels."""
    check_canonical_order(g.order)
    swaps = _label_swaps(g.order)
    orbit = {bit_code(g)}
    todo = list(orbit)
    while todo:
        code = todo.pop()
        for shift, cols, rows in swaps:
            by_col = (code ^ code >> shift) & cols
            by_row = (code ^ code >> 1) & rows
            swapped = code ^ by_col ^ by_col << shift ^ by_row ^ by_row << 1
            if swapped not in orbit:
                orbit.add(swapped)
                todo.append(swapped)
    return orbit


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
    an automorphism that fixes the partition.  A cell of twins alone
    thus has one branch, and splitting it leaves the partition
    equitable, so it is read as its vertices in label order with no
    recursion and no further refinement.  The result is the least
    bit code (as :func:`bit_code` writes it) over the leaves, the
    discrete partitions read as vertex orders.  It is one relabelling's
    code, not always the least, so it is never printed.
    """
    earlier = lower_twins(rows)

    def least(cells: list[int]) -> int:
        cells = _refine(rows, cells)
        for i, cell in enumerate(cells):
            if not cell & cell - 1:
                continue
            heads = [v for v in bits(cell) if not earlier[v] & cell]
            if len(heads) > 1:
                return min(least([*cells[:i], 1 << v, cell ^ 1 << v,
                                  *cells[i + 1:]]) for v in heads)
        order = [v for cell in cells for v in bits(cell)]
        code = 0
        for j, w in enumerate(order):
            for x in order[:j]:
                code = code << 1 | rows[w] >> x & 1
        return code

    return least([(1 << len(rows)) - 1])


def _invariant(rows: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """A cheap isomorphism invariant: the sorted pairs (deg v, sum of
    the degrees of v's neighbours).  Isomorphic graphs share it, so a
    graph whose invariant no other graph in a set has is in a class of
    its own there, with no :func:`_certificate` needed."""
    degree = [row.bit_count() for row in rows]
    # the vertices of each degree, to sum a neighbourhood's degrees by
    # one popcount per distinct degree
    by_degree: dict[int, int] = {}
    for v, dv in enumerate(degree):
        by_degree[dv] = by_degree.get(dv, 0) | 1 << v
    return tuple(sorted(
        (dv, sum(du * (row & mask).bit_count()
                 for du, mask in by_degree.items()))
        for dv, row in zip(degree, rows)))


# ---------------------------------------------------------------------------
# serialization


def _graph6(order: int, code: int) -> str:
    # base64's six-bit groups offset by 63, over whole 24-bit quanta
    n_cells = order * (order - 1) // 2
    pad = -n_cells % 24
    data = b2a_base64((code << pad).to_bytes((n_cells + pad) // 8, "big"),
                      newline=False).translate(_GRAPH6_CHARS)
    return chr(63 + order) + data[:(n_cells + 5) // 6].decode("ascii")


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
    elif not text.isascii():
        # the first character past ASCII, where decoding bytes stops
        raise Graph6ParseError("non-ASCII byte", next(
            ofs for ofs, ch in enumerate(text) if ch > "\x7f"))
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
    digits = data.translate(_GRAPH6_BITS)
    if len(digits) < 6 * need:  # an unmapped character stays one long
        ofs = next(ofs for ofs, ch in enumerate(data)
                   if ord(ch) not in _GRAPH6_BITS)
        raise Graph6ParseError(f"byte {data[ofs]!r} outside graph6 range",
                               base + 1 + ofs)
    code = int(digits or "0", 2)
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
