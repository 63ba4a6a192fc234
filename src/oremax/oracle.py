"""Exhaustive-search ground truth for small instances.

Independently recomputes the maximum size over all simple graphs with a
given order, exact diameter, and connectivity level, then compares the
answer against the closed-form modes and the generated family.

The search walks the levels of a closed set of graphs one edge at a
time and keeps, at each level, one graph per isomorphism class.  It
runs in one of two directions:

* down, for d <= 3: from the complete graph, deleting edges, through
  the *alive* graphs: those with connectivity >= k and diameter <= d.
  Both conditions survive adding an edge, so every graph between K_n
  and a maximizer is alive, and deleting each edge of every alive class
  reaches every alive class of the next level.  The first level that
  holds an alive class of diameter exactly d gives the maximum.
* up, for d >= 4: from the trees of diameter >= d, adding edges,
  through the graphs of diameter >= d.  Every such graph has a spanning
  tree of diameter at least its own, and every graph between the two
  keeps diameter >= d, so adding each non-edge of every class reaches
  every class of the next level.  The highest level that holds a class
  of diameter exactly d and connectivity >= k gives the maximum.

Sparse instances are cheap up and dense ones down.  Either way the
maximizers are the winning classes of the answer level.  Swapping twins
is an automorphism, and twins of a graph are twins of its complement,
so one edge per pair of twin classes is deleted or added.  Each level
is deduped by the partition-refinement certificate
``graphs._certificate``, and only the maximizers, one per class, get a
canonical form.

The tests referee both directions with a labelled scan of their own,
over every complement of each size, that shares none of its code.
Every maximizer is checked again before it is reported: size, diameter
and connectivity by ``metrics``, and that it is the least code of its
orbit.  Up to order 6 that test takes the minimum over the whole orbit
(``relabeling_codes``, no pruning, at most 720 codes); at orders 7 and
8, where an orbit holds up to 40,320 codes, it recomputes the pruned
``canonical_form`` and compares.

Everything is guarded: order 8, and a budget on edge moves (deletions
or additions) that aborts loudly before a level instead of truncating
silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .errors import BudgetError, CapacityError
from .extremal import (FormulaMode, Parameters, backbone_order,
                       enumerate_family, max_size_formula)
from .graphs import (Graph, _certificate, bit_code, bits, canonical_form,
                     from_graph6, layered_rows, lower_twins, reach,
                     relabeling_codes, subset_masks, to_graph6)
from .metrics import diameter, induced_disconnected, is_k_connected

DEFAULT_ORDER_GUARD = 8
#: up to this order (at most 6! = 720 codes) the post-check lists each
#: maximizer's whole orbit; above it, it recomputes the canonical form
_ORBIT_LIST_ORDER = 6
DEFAULT_BUDGET = 10**9


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


def _cut_masks(n: int, k: int) -> list[int]:
    """Bitmasks of every vertex subset of size 1..k-1."""
    return [mask for size in range(1, k) for mask in subset_masks(n, size)]


def _k_connected(rows: tuple[int, ...], full: int,
                 cut_masks: list[int]) -> bool:
    """No mask of ``cut_masks`` disconnects the graph: for a graph that
    is not complete, connectivity >= k with ``_cut_masks(n, k)``."""
    return not any(induced_disconnected(rows, full & ~cut)
                   for cut in cut_masks)


def _alive(rows: tuple[int, ...], d: int, full: int,
           cut_masks: list[int]) -> bool | None:
    """None unless the graph is alive; else whether its diameter is d.

    Alive means diameter <= d (one depth-d flood per vertex) and
    ``_k_connected``.  With no cut masks this is the flood alone: None
    for diameter > d, True for d, False for less.
    """
    exact = False
    for v in range(len(rows)):
        reached, at_d = reach(rows, 1 << v, depth=d)
        if reached != full:
            return None
        exact = exact or bool(at_d)
    return exact if _k_connected(rows, full, cut_masks) else None


def _far(rows: tuple[int, ...], d: int, full: int,
         cut_masks: list[int]) -> bool | None:
    """The up climb's screen: None unless the diameter is at least d;
    else whether it is exactly d and the graph is ``_k_connected``.
    Its one depth-d flood per vertex is ``_alive`` with no cut masks."""
    exact = _alive(rows, d, full, [])
    if exact is False:
        return None
    return exact is True and _k_connected(rows, full, cut_masks)


def _deletions(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """One edge per pair of twin classes joined by an edge.

    Twins have equal neighbourhoods apart from each other, so swapping
    two is an automorphism: every edge between two classes, or inside
    one, is deleted to the same child up to isomorphism.  The edge kept
    joins the least vertices of the two classes, or the two least of
    one class.  Twins of a graph are twins of its complement, so on the
    complement's rows this gives one addition per pair of twin classes.
    """
    earlier = lower_twins(rows)
    return [(u, v) for v in range(len(rows))
            for u in bits(rows[v] & ((1 << v) - 1))
            if not earlier[u] and earlier[v] in (0, 1 << u)]


def _trees(n: int, d: int) -> list[tuple[int, ...]]:
    """One labelled tree per isomorphism class of order n and diameter
    >= d, for 1 <= d < n.  Each holds a path on d + 1 vertices and is
    grown from it leaf by leaf: vertex m joins one vertex of each twin
    class of every tree of order m."""
    # the path: a complete layered graph with one vertex per layer
    trees = [layered_rows([1 << v for v in range(d + 1)])]
    for m in range(d + 1, n):
        grown = {}
        for rows in trees:
            earlier = lower_twins(rows)
            for u in range(m):
                if not earlier[u]:
                    child = [*rows, 1 << u]
                    child[u] |= 1 << m
                    grown[_certificate(child)] = tuple(child)
        trees = list(grown.values())
    return trees


def _climb(n: int, k: int, d: int, up: bool,
           budget: int) -> tuple[int | None, list[str]]:
    """Walk the levels of one closure, one edge per level.

    Returns the maximum size and the sorted canonical graph6 strings of
    the maximizers, or (None, []) if no graph qualifies.  ``budget``
    caps the edge moves tried; a level that would pass it raises
    BudgetError before any of its moves.
    """
    full = (1 << n) - 1
    cut_masks = _cut_masks(n, k)
    screen = _far if up else _alive
    if up:
        start = _trees(n, d) if d < n else []
        size, step = n - 1, 1
    else:
        # K_n is alive iff n - 1 >= k
        start = [tuple(full ^ 1 << v for v in range(n))] if n > k else []
        size, step = n * (n - 1) // 2, -1
    # labelled graph -> None (screened out) or whether it is a winner
    verdicts = {rows: screen(rows, d, full, cut_masks) for rows in start}
    max_size, winners = None, []
    moved = used = 0
    while True:
        # classes are told apart by certificate; only the winners of
        # the answer level, one per class, pay for a canonical form
        found = {_certificate(rows): rows
                 for rows, hit in verdicts.items() if hit}
        if found:
            max_size, winners = size, [*found.values()]
            if not up:
                break
        rest = {_certificate(rows): rows
                for rows, hit in verdicts.items() if hit is False}
        level = [*found.values(), *rest.values()]
        if not level:
            break
        moves = [(rows, _deletions(tuple(full ^ row ^ 1 << v for v, row
                                         in enumerate(rows)) if up else rows))
                 for rows in level]
        moved += 1
        size += step
        used += sum(len(edges) for _, edges in moves)
        if used > budget:
            raise BudgetError(f"level {moved} would push the climb past "
                              f"{budget} edge moves")
        verdicts = {}
        for rows, edges in moves:
            for u, v in edges:
                child = list(rows)
                child[u] ^= 1 << v
                child[v] ^= 1 << u
                child = tuple(child)
                if child not in verdicts:
                    verdicts[child] = screen(child, d, full, cut_masks)
    return max_size, sorted(canonical_form(Graph(n, rows)).g6
                            for rows in winners)


def max_size_bruteforce(p: Parameters, *,
                        budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Exact maximum size and all maximizers up to isomorphism.

    Climbs up from the trees when d >= 4 and down from K_n otherwise.
    ``budget`` caps the edge moves tried.  Each maximizer is checked
    again before it is reported: its size, diameter and connectivity,
    and that it is the least code of its orbit, by the minimum over
    ``relabeling_codes`` up to order 6 and by its own canonical form
    above.
    """
    if p.n > DEFAULT_ORDER_GUARD:
        raise CapacityError(
            f"order {p.n} exceeds search guard {DEFAULT_ORDER_GUARD}")
    start = time.perf_counter()
    max_size, extremal = _climb(p.n, p.k, p.d, p.d >= 4, budget)
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


def verify_theorem(p: Parameters, *,
                   budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Brute-force the instance and compare every made claim against it.

    corrected_match / paper_literal_match report formula agreement;
    family_match reports that the generated family and the found
    maximizers coincide as sets of isomorphism classes.
    """
    start = time.perf_counter()
    report = max_size_bruteforce(p, budget=budget)
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


def sweep(n_max: int, k_max: int | None = None, d_max: int | None = None, *,
          budget: int = DEFAULT_BUDGET) -> list[OracleReport]:
    """verify_theorem over every valid instance within the bounds.

    Instances run in lexicographic (n, k, d) order; k_max and d_max
    default to n_max.
    """
    if n_max > DEFAULT_ORDER_GUARD:
        raise CapacityError(
            f"n_max {n_max} exceeds search guard {DEFAULT_ORDER_GUARD}")
    if k_max is None:
        k_max = n_max
    if d_max is None:
        d_max = n_max
    reports = []
    for n in range(3, n_max + 1):
        for k in range(1, k_max + 1):
            for d in range(2, d_max + 1):
                if n >= backbone_order(k, d):
                    reports.append(verify_theorem(Parameters(n, k, d),
                                                  budget=budget))
    return reports
