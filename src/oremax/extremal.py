"""Maximum-size formula and extremal constructions.

Centers on the classical extremal result for k-connected graphs of
order n and diameter d (Ore, 1968).  The densest such graphs contain a
backbone: the sequential join K1 v Kk v ... v Kk v K1 with d - 1 middle
blocks, whose two end vertices (the poles) realize the diameter.  The
remaining n - (kd - k + 2) vertices form a clique and attach to a short
window of consecutive blocks.

The closed-form maximum comes in two modes.  The attachment term is
cap * multiplier where cap is the per-vertex attachment bound:

* CORRECTED multiplies by the number of vertices outside the backbone,
  which is what a per-vertex bound supports.  This is the default and
  the mode the exhaustive oracle confirms.
* PAPER_LITERAL multiplies by the backbone order kd - k + 2, mirroring
  the statement as it is sometimes printed.  For small instances this
  overshoots, even past the complete graph.

``is_extremal`` tests the definition: diameter d, connectivity at least
k, and the CORRECTED maximum size, at any order up to 62.  The family
follows the proof: BFS layers of sizes (n_0, ..., n_d) from a vertex of
eccentricity d allow at most sum C(n_i, 2) + sum n_i * n_{i+1} edges,
reached only by the complete layered graph L(n_0, ..., n_d).  So each
member is some L(1, n_1, ..., n_{d-1}, 1) with every n_i >= k, and
``enumerate_family`` keeps the L(v) for which ``is_extremal`` holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import CapacityError, ParameterError
from .graphs import (MAX_ORDER, Graph, canonical_form, check_canonical_order,
                     from_graph6, layered_rows)
from .metrics import DISCONNECTED, Disconnected, diameter, is_k_connected


@dataclass(frozen=True)
class Parameters:
    """Validated problem instance (order n, connectivity k, diameter d)."""

    n: int
    k: int
    d: int

    def __post_init__(self):
        least = backbone_order(self.k, self.d)  # checks k, then d
        if self.n > MAX_ORDER:
            raise ParameterError(f"n must be at most {MAX_ORDER}")
        if self.n < least:
            raise ParameterError(
                f"n must be at least {least} for k={self.k}, d={self.d}")

    @property
    def outside_count(self) -> int:
        """Vertices beyond the backbone."""
        return self.n - backbone_order(self.k, self.d)


class FormulaMode(enum.Enum):
    """Multiplier choice for the attachment term of the size formula."""

    CORRECTED = "corrected"
    PAPER_LITERAL = "paper-literal"


class Side(enum.Enum):
    """Which three blocks of a four-block window a vertex attaches to."""

    FIRST_THREE = "first-three"
    LAST_THREE = "last-three"


@dataclass(frozen=True)
class FamilyMemberSpec:
    """One extremal-family candidate.

    ``window_start`` indexes the backbone blocks 1-based (block 1 is the
    pole x, block d+1 is the pole y).  A window of length 3 joins every
    outside vertex to all three blocks; a window of length 4 splits the
    outside clique between its first three and last three blocks, as
    recorded per vertex in ``side_of``.
    """

    window_start: int
    window_len: int
    side_of: tuple[Side, ...] = field(default=())

    def __post_init__(self):
        if self.window_len not in (3, 4):
            raise ParameterError("window length must be 3 or 4")
        if self.window_start < 1:
            raise ParameterError("window start must be at least 1")
        if not all(isinstance(s, Side) for s in self.side_of):
            raise ParameterError("side_of entries must be Side members")
        if self.window_len == 3:
            if any(s is not Side.FIRST_THREE for s in self.side_of):
                raise ParameterError(
                    "3-block windows admit only FIRST_THREE assignments")
        else:
            sides = set(self.side_of)
            if len(sides) < 2:
                raise ParameterError(
                    "4-block windows need both sides non-empty")


@dataclass(frozen=True)
class BlockMap:
    """Backbone block layout inside a constructed graph.

    ``blocks[i]`` is the vertex bitmask of block i+1; blocks partition
    the backbone's vertices; ``poles`` are its two end vertices.
    """

    blocks: tuple[int, ...]
    poles: tuple[int, int]


def _check_kd(k: int, d: int) -> None:
    if k < 1:
        raise ParameterError("k must be at least 1")
    if d < 2:
        raise ParameterError("d must be at least 2")


def backbone_order(k: int, d: int) -> int:
    """Vertex count of the backbone: k*d - k + 2."""
    _check_kd(k, d)
    return k * d - k + 2


def backbone_size(k: int, d: int) -> int:
    """Edge count of the backbone: ((3d-5)k^2 + (5-d)k) / 2."""
    _check_kd(k, d)
    value = (3 * d - 5) * k * k + (5 - d) * k
    assert value % 2 == 0
    return value // 2


def attachment_cap(k: int, d: int) -> int:
    """Most backbone vertices one outside vertex may attach to.

    3k for d >= 4; (d-1)k + 4 - d for d in {2, 3}.  The two expressions
    agree at k = 1.
    """
    _check_kd(k, d)
    if d >= 4:
        return 3 * k
    return (d - 1) * k + 4 - d


def max_size_formula(p: Parameters,
                     mode: FormulaMode = FormulaMode.CORRECTED) -> int:
    """Closed-form maximum edge count for the instance, by mode."""
    outside = p.outside_count
    if mode is FormulaMode.CORRECTED:
        multiplier = outside
    elif mode is FormulaMode.PAPER_LITERAL:
        multiplier = backbone_order(p.k, p.d)
    else:
        raise ParameterError(f"unknown formula mode {mode!r}")
    return (backbone_size(p.k, p.d) + comb(outside, 2)
            + attachment_cap(p.k, p.d) * multiplier)


def _backbone_layout(k: int, d: int) -> BlockMap:
    # pole x = 0, middle blocks in order, pole y last
    blocks = [1]
    start = 1
    for _ in range(d - 1):
        blocks.append(((1 << k) - 1) << start)
        start += k
    blocks.append(1 << start)
    return BlockMap(tuple(blocks), (0, start))


def build_backbone(k: int, d: int) -> tuple[Graph, BlockMap]:
    """The sequential join K1 v Kk v ... v Kk v K1 with d - 1 middle blocks.

    Vertex layout: pole x = 0, middle blocks in order, pole y last.
    The result has diameter d and vertex connectivity k.
    """
    order = backbone_order(k, d)
    if order > MAX_ORDER:
        raise CapacityError(f"backbone order {order} exceeds cap {MAX_ORDER}")
    bmap = _backbone_layout(k, d)
    return Graph(order, layered_rows(bmap.blocks)), bmap


def build_family_member(p: Parameters,
                        spec: FamilyMemberSpec) -> tuple[Graph, BlockMap]:
    """Backbone plus an outside clique attached per ``spec``.

    Outside vertices occupy labels backbone_order .. n-1; each is joined
    to every vertex of its assigned three consecutive blocks and to the
    rest of the outside clique, and to nothing else.
    """
    if spec.window_start + spec.window_len - 1 > p.d + 1:
        raise ParameterError("window runs past the last block")
    if len(spec.side_of) != p.outside_count:
        raise ParameterError(
            f"need one side per outside vertex ({p.outside_count})")
    bmap = _backbone_layout(p.k, p.d)
    layers = list(bmap.blocks)
    for u, side in enumerate(spec.side_of, bmap.poles[1] + 1):
        # joined to three blocks and the clique, u twins the middle block
        layers[spec.window_start + (side is Side.LAST_THREE)] |= 1 << u
    return Graph(p.n, layered_rows(layers)), bmap


def enumerate_family(p: Parameters) -> list[Graph]:
    """All graphs attaining the CORRECTED maximum, from layer splits.

    Splits the n - 2 vertices between the two poles into d - 1
    consecutive layers of at least k vertices each, builds the complete
    layered graph L(1, n_1, ..., n_{d-1}, 1) once for each split and
    its reversal, keeps those for which ``is_extremal`` holds, and
    returns one canonically relabelled graph per isomorphism class,
    sorted by canonical encoding.
    """
    check_canonical_order(p.n)
    seen: set[str] = set()
    for inner in combinations(range(2, p.n - 1), p.d - 2):
        cuts = (0, 1, *inner, p.n - 1, p.n)
        sizes = [b - a for a, b in zip(cuts, cuts[1:])]
        if min(sizes[1:-1]) < p.k or sizes > sizes[::-1]:
            continue
        masks = [(1 << b) - (1 << a) for a, b in zip(cuts, cuts[1:])]
        g = Graph(p.n, layered_rows(masks))
        if is_extremal(g, p.k):
            seen.add(canonical_form(g).g6)
    return [from_graph6(text) for text in sorted(seen)]


def is_extremal(g: Graph, k: int) -> bool:
    """True iff g is k-connected with the maximum size for its diameter.

    Tests the definition: g has diameter d, connectivity at least k and
    exactly the CORRECTED maximum size for (order, k, d).  Instances
    outside the formula's domain (complete graphs, disconnected graphs,
    order too small for the backbone) return False rather than raising.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    return (g.order > 0 and _formula_sized(g, k, diameter(g))
            and is_k_connected(g, k))


def _formula_sized(g: Graph, k: int, dia: int | Disconnected) -> bool:
    # whether g, of diameter dia, has the CORRECTED maximum size for
    # (order, k, dia); is_extremal less its kappa test, which its
    # callers put after it so that kappa runs only at this size
    if dia is DISCONNECTED:
        return False
    try:
        p = Parameters(g.order, k, dia)
    except ParameterError:
        return False
    return g.size == max_size_formula(p)
