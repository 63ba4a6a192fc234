"""Exhaustive-search ground truth for small instances.

Independently recomputes the maximum size over all simple graphs with a
given order, exact diameter, and connectivity level, then compares the
answer against the closed-form modes and the generated family.

The search walks the levels of a closed set of graphs one edge at a
time and keeps, at each level, one graph per isomorphism class.  One
loop, ``_levels``, yields the levels, by n, d and direction alone, and
``_climb``, its one reader, tests connectivity and stops it.  It runs
in one of two directions:

* down, for d <= 3: from the complete graph, deleting edges, through
  the *alive* graphs: those of diameter <= d.  Adding an edge never
  raises the diameter, so every graph between K_n and a maximizer is
  alive, and deleting each edge of every alive class reaches every
  alive class of the next level.  The first level that holds a class
  of diameter exactly d and connectivity >= k gives the maximum and
  ends the climb.
* up, for d >= 4: from the trees of diameter >= d, adding edges,
  through the graphs of diameter >= d.  Every such graph has a spanning
  tree of diameter at least its own, and every graph between the two
  keeps diameter >= d, so adding each non-edge of every class reaches
  every class of the next level.  The highest level that holds a class
  of diameter exactly d and connectivity >= k gives the maximum.

Sparse instances are cheap up and dense ones down.  Either way the
maximizers are the winning classes of the answer level.  Swapping twins
is an automorphism, so one edge per pair of twin classes is deleted, or
one non-edge added, read straight off the graph's rows.

Most labelled children are copies of a class met before, so a
canonical-deletion test (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998) drops them first.  A child is kept only if the
pair just moved has the greatest isomorphism-invariant key
(deg x + deg y, |N(x) & N(y)|) among the child's movable pairs, ties
kept.  Down, those are its non-edges; up, its edges whose removal
leaves it connected, which an edge with a common neighbour, on a
triangle, needs no search to show.  No class is lost: for a class X
of the next level and a top-key movable pair e, X + e has diameter
below d down (adding an edge loses no connectivity, so an X + e of
diameter d would have won at its level and stopped the climb), and
X - e is connected with diameter >= d up.  Either way it is in the
previous level, whose representative makes a copy of X by the move
that corresponds to e, or by a twin of it, and that move carries the
top key.  ``_top_moves`` settles the test from the parent: a move
leaves the key of every pair apart from it as it was, so the parent's
movable pairs, ranked by key once, reject most moves before their child
is built, and a child that passes needs only its O(n) pairs with an end
at the moved pair tested.

Each child kept gets one screen, ``metrics``' diameter ratchet run from
d - 1 and capped at d, which tells a diameter below, at or above d.
Up it floods from every vertex.  Down, the parent's diameter is below
d, so only a pair with a shortest path through the deleted edge uv can
reach d, and one of its ends lies within (d - 2) // 2 of u or v: the
flood runs from those vertices alone, u and v at d <= 3.
The children it keeps are deduped first by a cheap invariant,
``graphs._invariant``, the sorted pairs (deg v, sum of the degrees of
v's neighbours).  A child whose invariant no other child of its level
shares is a class of its own; only the rest pay for the
partition-refinement certificate ``graphs._certificate`` (the order of
work in McKay & Piperno, "Practical graph isomorphism II", J. Symb.
Comput. 60, 2014).  The trees that seed the up climb share this dedup,
``_classes``, one order at a time.
``_climb`` tests connectivity >= k once per class of diameter exactly
d, by ``metrics.is_k_connected``, and on no other class.  At k = 1 the
screen settles it: every graph it keeps is connected.  Only the
maximizers, one per class, get a canonical form.

The tests referee both directions with a labelled scan of their own,
over every complement of each size, that shares none of its code.
Every maximizer is checked again before it is reported: size, diameter
and connectivity by ``metrics``, and that it is the least code of its
orbit.  Up to order 6 that test takes the minimum over the whole orbit
(``relabeling_codes``, at most 720 codes), the closure of the
maximizer's code under the swaps of adjacent labels, which shares only
``bit_code`` with the canonical form it checks; at orders 7 to 9,
where an orbit holds up to 362,880 codes, it recomputes the pruned
``canonical_form`` and compares.

The search's one guard is order 9: past it, CapacityError before any
work.  Inside it, the largest climbs are (9,1,4) and (9,2,4), up.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Iterator

from .errors import CapacityError, ParameterError
from .extremal import (FormulaMode, Parameters, backbone_order,
                       enumerate_family, max_size_formula)
from .graphs import (Graph, _certificate, _invariant, bit_code,
                     canonical_form, from_graph6, layered_rows, lower_twins,
                     reach, relabeling_codes, to_graph6)
from .metrics import _diameter, diameter, is_k_connected

DEFAULT_ORDER_GUARD = 9
#: up to this order (at most 6! = 720 codes) the post-check lists each
#: maximizer's whole orbit; above it, it recomputes the canonical form
_ORBIT_LIST_ORDER = 6


@dataclass(frozen=True)
class OracleReport:
    """Search result plus (optionally) agreement verdicts.

    ``max_size`` is None when no graph meets the constraints at all.
    ``extremal`` holds the maximizers up to isomorphism as sorted
    canonical graph6 strings.  The three match fields stay None until
    ``verify_theorem`` fills them.
    """

    params: Parameters
    max_size: int | None
    extremal: tuple[str, ...]
    corrected_match: bool | None = None
    paper_literal_match: bool | None = None
    family_match: bool | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": {"n": self.params.n, "k": self.params.k,
                       "d": self.params.d},
            "max_size": self.max_size,
            "extremal": list(self.extremal),
            "corrected_match": self.corrected_match,
            "paper_literal_match": self.paper_literal_match,
            "family_match": self.family_match,
            "elapsed_seconds": self.elapsed,
        }


def _flood(rows: tuple[int, ...], d: int, todo: int) -> bool | None:
    """The climbs' one screen, the diameter ratchet from d - 1 capped
    at d, run from the sources in ``todo``: None if one has eccentricity
    above d, else whether one has exactly d.  Up, every vertex is a
    source; down, those within (d - 2) // 2 of the pair uv just deleted
    from a parent of diameter < d: a pair the deletion moves had a
    shortest path x..u-v..y there, so d(x, u) + d(v, y) <= d - 2."""
    best = _diameter(rows, d - 1, d, todo)
    return None if best is None else best == d


def _top_moves(rows: tuple[int, ...],
               up: bool) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The canonical-deletion test, settled from the parent ``rows``:
    each move uv of ``_deletions`` whose pair has the greatest key
    (deg x + deg y, |N(x) & N(y)|) among the movable pairs of its child,
    ties kept, as (u, v, child).  Down the movable pairs are the
    non-edges; up, the edges whose removal leaves the graph connected.

    A pair of the parent with no end at u or v keeps its key in the
    child, and its movability too, except that up a bridge of the parent
    becomes movable when u and v lie on its two sides.  So a move is
    rejected, before its child is built, by the parent's movable pairs
    ranked by key once: the first one apart from uv whose key beats
    uv's.  A child that passes needs only its pairs with an end at u or
    v tested, O(n) of them."""
    n = len(rows)
    full = (1 << n) - 1
    degree = [row.bit_count() for row in rows]
    step = 1 if up else -1
    # (key, pair, x, y), the key as one int, its common count below n;
    # the key -1 ends every walk
    ranked = [(-1, 0, 0, 0)]
    for y in range(n):
        m = (rows[y] if up else ~rows[y]) & ((1 << y) - 1)
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            ranked.append(((degree[x] + degree[y]) * n
                           + (rows[x] & rows[y]).bit_count(), low | 1 << y,
                           x, y))
    ranked.sort(reverse=True)
    # up: parent edge -> x's side of it, with y too iff it is no bridge
    sides: dict[int, int] = {}

    def joined(x: int, y: int, u: int, v: int) -> bool:
        # up: whether the parent edge xy, with no common neighbour, is no
        # bridge once uv is added
        pair = 1 << x | 1 << y
        side = sides.get(pair)
        if side is None:
            side = sides[pair] = reach(rows, rows[x] ^ 1 << y,
                                       ~(1 << x))[0] | 1 << x
        return side & pair == pair or bool((side >> u ^ side >> v) & 1)

    for u, v in _deletions(rows, up):
        moved = 1 << u | 1 << v
        du, dv = degree[u] + step, degree[v] + step
        top = (du + dv) * n + (rows[u] & rows[v]).bit_count()
        # the first pair apart from uv that beats it and stays movable
        for key, pair, x, y in ranked:
            if key <= top or not pair & moved and (
                    not up or rows[x] & rows[y] or joined(x, y, u, v)):
                break
        if key > top:
            continue
        child = list(rows)
        child[u] ^= 1 << v
        child[v] ^= 1 << u
        # the child's pairs with an end z at u or v, the pair uv aside
        for z, dz in (u, du), (v, dv):
            row = child[z]
            m = (row if up else full & ~row) & ~moved
            while m:
                low = m & -m
                m ^= low
                y = low.bit_length() - 1
                common = row & child[y]
                if (dz + degree[y]) * n + common.bit_count() > top and (
                        not up or common or joined(z, y, u, v)):
                    break
            else:
                continue  # no pair at z beats uv
            break
        else:
            yield u, v, tuple(child)


def _deletions(rows: tuple[int, ...], up: bool) -> list[tuple[int, int]]:
    """One edge (down) or non-edge (up) of ``rows`` per pair of twin
    classes joined by one.

    Twins have equal neighbourhoods apart from each other, so swapping
    two is an automorphism: every such pair between two classes, or
    inside one, is moved to the same child up to isomorphism.  The pair
    kept joins the least vertices of the two classes, or the two least
    of one class.
    """
    earlier = lower_twins(rows)
    moves = []
    for v, row in enumerate(rows):
        m = (~row if up else row) & ((1 << v) - 1)
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if not earlier[u] and earlier[v] in (0, low):
                moves.append((u, v))
    return moves


def _classes(graphs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The last graph of each isomorphism class in ``graphs``, in the
    order the classes are first met.  A graph is certified only if
    another graph of the list shares its invariant."""
    keys = [_invariant(rows) for rows in graphs]
    shared = Counter(keys)
    return list({(key, _certificate(rows) if shared[key] > 1 else None): rows
                 for key, rows in zip(keys, graphs)}.values())


def _trees(n: int, d: int) -> list[tuple[int, ...]]:
    """One labelled tree per isomorphism class of order n and diameter
    >= d, for 1 <= d < n.  Each holds a path on d + 1 vertices and is
    grown from it leaf by leaf: vertex m joins one vertex of each twin
    class of every tree of order m, and each order is deduped by
    ``_classes``."""
    # the path: a complete layered graph with one vertex per layer
    trees = [layered_rows([1 << v for v in range(d + 1)])]
    for m in range(d + 1, n):
        grown = []
        for rows in trees:
            earlier = lower_twins(rows)
            for u in range(m):
                if not earlier[u]:
                    child = [*rows, 1 << u]
                    child[u] |= 1 << m
                    grown.append(tuple(child))
        trees = _classes(grown)
    return trees


def _levels(n: int, d: int,
            up: bool) -> Iterator[tuple[int, list[tuple], Callable[[], list]]]:
    """The levels of one closure, one edge apart, from the start level
    on, as (size, exact, kept).  ``exact`` holds one labelled graph per
    class of diameter exactly d.  ``kept()`` gives the classes the next
    level grows from: up, every class of diameter >= d, ``exact`` among
    them; down, every class of diameter below d, deduped only when the
    reader asks for the next level.  Each class kept hands its children
    through ``_top_moves``, which keeps those whose moved pair has the
    top key.  A down child is flooded only near the pair deleted from
    its parent (see ``_flood``), any other from every vertex."""
    full = (1 << n) - 1
    if up:
        start = _trees(n, d) if d < n else []
        size, step = n - 1, 1
    else:
        start = [tuple(full ^ 1 << v for v in range(n))]
        size, step = n * (n - 1) // 2, -1
    # labelled graph -> its flood verdict
    verdicts = {rows: _flood(rows, d, full) for rows in start}

    def classes(*hits):
        # one labelled graph per class among the flood verdicts ``hits``
        return _classes([rows for rows, hit in verdicts.items()
                         if hit in hits])

    while verdicts:
        if up:
            kept = classes(True, None).copy
            exact = [rows for rows in kept() if verdicts[rows]]
        else:
            exact, kept = classes(True), cache(partial(classes, False))
        yield size, exact, kept
        size += step
        parents, verdicts = kept(), {}
        for rows in parents:
            # a child the filter drops is not stored: a later copy of it
            # may have moved its top-key pair
            for u, v, child in _top_moves(rows, up):
                if child not in verdicts:
                    verdicts[child] = _flood(child, d, full if up else reach(
                        rows, 1 << u | 1 << v, depth=(d - 2) // 2)[0])


def _climb(n: int, k: int, d: int, up: bool) -> tuple[int | None, list[str]]:
    """The maximum size and the sorted canonical graph6 strings of the
    maximizers, the classes of ``exact`` with connectivity >= k at the
    last level of ``_levels`` that has any, or (None, []) if no graph
    qualifies.  Down, that is the first such level, which stops the
    walk.  Only the maximizers, one per class, pay for a canonical
    form."""
    max_size, winners = None, []
    for size, exact, _ in _levels(n, d, up):
        # every graph that passed the flood is connected
        found = [rows for rows in exact
                 if k == 1 or is_k_connected(Graph(n, rows), k)]
        if found:
            max_size, winners = size, found
            if not up:
                break
    return max_size, sorted(canonical_form(Graph(n, rows)).g6
                            for rows in winners)


def max_size_bruteforce(p: Parameters) -> OracleReport:
    """Exact maximum size and all maximizers up to isomorphism.

    Climbs up from the trees when d >= 4 and down from K_n otherwise.
    Each maximizer is checked again before it is reported: its size,
    diameter and connectivity, and that it is the least code of its
    orbit: up to order 6 by the minimum over ``relabeling_codes``, the
    closure of its code under adjacent label swaps, and above by its
    own canonical form.
    """
    if p.n > DEFAULT_ORDER_GUARD:
        raise CapacityError(
            f"order {p.n} exceeds search guard {DEFAULT_ORDER_GUARD}")
    start = time.perf_counter()
    max_size, extremal = _climb(p.n, p.k, p.d, p.d >= 4)
    for text in extremal:
        g = from_graph6(text)
        # canonical: the least code of its orbit
        if g.order <= _ORBIT_LIST_ORDER:
            least = bit_code(g) == min(relabeling_codes(g))
        else:
            least = canonical_form(g).g6 == text
        if (g.size != max_size or diameter(g) != p.d
                or not is_k_connected(g, p.k) or not least):
            raise RuntimeError(f"search accepted an invalid graph {text}")
    return OracleReport(params=p, max_size=max_size, extremal=tuple(extremal),
                        elapsed=time.perf_counter() - start)


def verify_theorem(p: Parameters) -> OracleReport:
    """Brute-force the instance and compare every made claim against it.

    corrected_match / paper_literal_match report formula agreement;
    family_match reports that the generated family and the found
    maximizers coincide as sets of isomorphism classes.
    """
    start = time.perf_counter()
    report = max_size_bruteforce(p)
    family = {to_graph6(g) for g in enumerate_family(p)}
    return replace(
        report,
        corrected_match=report.max_size == max_size_formula(
            p, FormulaMode.CORRECTED),
        paper_literal_match=report.max_size == max_size_formula(
            p, FormulaMode.PAPER_LITERAL),
        family_match=set(report.extremal) == family,
        elapsed=time.perf_counter() - start,
    )


def sweep(n_max: int, k_max: int | None = None,
          d_max: int | None = None) -> list[OracleReport]:
    """verify_theorem over every valid instance within the bounds.

    Instances run in lexicographic (n, k, d) order; k_max and d_max
    default to n_max.  Bounds that admit no instance (n_max < 3,
    k_max < 1 or d_max < 2) raise ParameterError.
    """
    if n_max > DEFAULT_ORDER_GUARD:
        raise CapacityError(
            f"n_max {n_max} exceeds search guard {DEFAULT_ORDER_GUARD}")
    if k_max is None:
        k_max = n_max
    if d_max is None:
        d_max = n_max
    if n_max < 3 or k_max < 1 or d_max < 2:
        raise ParameterError(
            f"bounds n_max {n_max}, k_max {k_max}, d_max {d_max} admit no "
            "instance: need n_max >= 3, k_max >= 1 and d_max >= 2")
    reports = []
    for n in range(3, n_max + 1):
        for k in range(1, k_max + 1):
            for d in range(2, d_max + 1):
                if n >= backbone_order(k, d):
                    reports.append(verify_theorem(Parameters(n, k, d)))
    return reports
