"""Class counts of the oracle's climbs against published graph counts.

A climb over every connected graph of order n must keep exactly one
graph per isomorphism class at each size.  ``oremax.oracle._levels``
yields each level of a walk as (size, exact, kept), where ``exact``
holds one labelled graph per class of diameter d and ``kept()`` one per
class that the next level grows from.  ``levels`` reads both off one
walk, and ``census`` reads ``kept`` off one of two walks:

* up, ``_levels(n, 1, True)``: every connected graph has diameter
  >= 1, so the levels from the trees at size n - 1 to K_n keep every
  connected class of their size.
* down, ``_levels(n, n - 1, False)``: from K_n through every class of
  diameter below n - 1, which is every connected class but the path.
  The path is the one ``exact`` class, at size n - 1.

``k_connected`` keeps the k-connected classes of a census by the
climbs' one connectivity rule, ``is_k_connected`` once per class.
The counts share nothing with the package: connected graphs are OEIS
A001349, trees A000055, 2-connected graphs A002218 and 3-connected
graphs A006290.  Run as a script, ``PYTHONPATH=src python
tests/census.py N`` walks the up and the down census at order N, counts
the 2- and 3-connected classes of the up one, prints the count per size
of each, and exits 1 on any count that differs from the published one:
down keeps A001349 - 1 classes, and its ``exact`` holds the path alone.

The up census also referees the oracle.  ``graded`` gives each of its
classes a diameter from ``bruteforce``, which shares no code with
``metrics``, and kappa from ``metrics.connectivity``, whose 2- and
3-connected counts match the published ones.  ``check_walks`` holds
every level of every d-restricted walk to those classes, and
``check_answers`` every answer of ``_climb``.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import combinations
from math import comb

from bruteforce import edges, fw_diameter
from oremax.extremal import backbone_order
from oremax.graphs import Graph, canonical_form, from_edges
from oremax.metrics import connectivity, is_k_connected
from oremax.oracle import _climb, _levels

#: connected graphs on n vertices, OEIS A001349, n = 1..9
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11_117,
             9: 261_080}
#: trees on n vertices, OEIS A000055, n = 1..10
TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
#: k-connected graphs on n vertices: k = 2, OEIS A002218, n = 3..9;
#: k = 3, OEIS A006290, n = 4..9
K_CONNECTED = {
    2: {3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7_123, 9: 194_066},
    3: {4: 1, 5: 3, 6: 17, 7: 136, 8: 2_388, 9: 80_890},
}


def levels(n: int, d: int, up: bool) -> dict[int, tuple[list, list]]:
    """Each level of ``_levels(n, d, up)`` as size -> (exact, kept)."""
    return {size: (exact, kept()) for size, exact, kept in _levels(n, d, up)}


def census(n: int, up: bool) -> dict[int, list[tuple[int, ...]]]:
    """The classes, as labelled rows, that one climb over every connected
    graph of order n keeps at each size where it keeps any: up every
    connected class, down every one but the path."""
    walk = levels(n, 1, True) if up else levels(n, n - 1, False)
    return {size: kept for size, (_, kept) in walk.items() if kept}


def graded(n: int) -> dict[str, tuple[int, int, int, bool]]:
    """Every connected class of order n, from the up census, as its
    canonical graph6 -> (size, diameter, kappa, lifts): the diameter by
    ``bruteforce.fw_diameter``, kappa by ``metrics.connectivity``, and
    whether adding some non-edge xy of greatest key (deg x + deg y,
    |N(x) & N(y)|) lowers the diameter.  The down walk at d = diameter
    reaches a class exactly then, through the canonical-deletion test."""
    table = {}
    for size, kept in census(n, True).items():
        for rows in kept:
            g = Graph(n, rows)
            dia = fw_diameter(g)
            keys = {(x, y): (rows[x].bit_count() + rows[y].bit_count(),
                             (rows[x] & rows[y]).bit_count())
                    for x, y in combinations(range(n), 2)
                    if not rows[x] >> y & 1}
            top = max(keys.values(), default=None)
            lifts = any(fw_diameter(from_edges(n, [*edges(g), e])) < dia
                        for e, key in keys.items() if key == top)
            table[canonical_form(g).g6] = size, dia, connectivity(g), lifts
    return table


def check_walks(n: int, table: dict[str, tuple[int, int, int, bool]]) -> None:
    """Every level of ``_levels(n, d, up)``, for d = 2..n - 1 and both
    directions, against the census ``table`` of ``graded(n)``: one graph
    per class, ``exact`` the classes of diameter d (down, those that
    lift), and ``kept`` those of diameter >= d up and < d down."""
    by_size = {}
    for text, (size, dia, _, lifts) in table.items():
        by_size.setdefault(size, []).append((text, dia, lifts))

    @cache
    def form(rows):
        return canonical_form(Graph(n, rows)).g6

    for d in range(2, n):
        for up in (False, True):
            walk = levels(n, d, up)
            for size in range(comb(n, 2) + 1):
                got = [[form(rows) for rows in graphs]
                       for graphs in walk.get(size, ([], []))]
                assert all(len(set(texts)) == len(texts) for texts in got)
                classes = by_size.get(size, [])
                want = [{text for text, dia, lifts in classes
                         if dia == d and (up or lifts)},
                        {text for text, dia, _ in classes
                         if (dia >= d) == up}]
                assert list(map(set, got)) == want, (n, d, up, size)


def check_answers(n: int, table: dict[str, tuple[int, int, int, bool]],
                  both: bool) -> None:
    """``_climb`` on every valid (n, k, d), in both directions or in the
    oracle's (up iff d >= 4), against the census ``table`` of
    ``graded(n)``: the largest size among the classes of diameter d and
    kappa >= k, and those classes."""
    for k in range(1, n):
        for d in range(2, n):
            if n >= backbone_order(k, d):
                found = [(size, text) for text, (size, dia, kappa, _)
                         in table.items() if dia == d and kappa >= k]
                top = max(size for size, _ in found)
                want = top, sorted(text for size, text in found
                                   if size == top)
                for up in (False, True) if both else (d >= 4,):
                    assert _climb(n, k, d, up) == want, (n, k, d, up)


def k_connected(classes: dict[int, list[tuple[int, ...]]],
                k: int) -> dict[int, list[tuple[int, ...]]]:
    """The classes of a census that ``is_k_connected`` passes, by size."""
    return {size: [rows for rows in kept
                   if is_k_connected(Graph(len(rows), rows), k)]
            for size, kept in classes.items()}


def sizes(classes: dict[int, list[tuple[int, ...]]]) -> dict[int, int]:
    """The number of classes of a census at each size."""
    return {size: len(kept) for size, kept in classes.items()}


def main(argv: list[str]) -> int:
    (n,) = map(int, argv)
    up = census(n, True)
    # each count per size and its published total; the up census is let
    # go before the down one is walked
    checks = [("up", sizes(up), CONNECTED[n]),
              *((f"up k={k}", sizes(k_connected(up, k)), K_CONNECTED[k][n])
                for k in (2, 3))]
    del up
    down = levels(n, n - 1, False)
    checks.append(("down", {size: len(kept) for size, (_, kept)
                            in down.items() if kept}, CONNECTED[n] - 1))
    failed = False
    for name, counts, want in checks:
        for size, count in sorted(counts.items()):
            print(f"{n}\t{name}\t{size}\t{count}")
        total = sum(counts.values())
        print(f"{n}\t{name}\tsizes {n - 1}..{comb(n, 2)}\t{total}\t"
              f"published\t{want}")
        failed |= total != want
    # down's one class of diameter n - 1: the path
    exact = {size: len(exact) for size, (exact, _) in down.items() if exact}
    print(f"{n}\tdown exact\t{exact}")
    return int(failed or exact != {n - 1: 1})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
