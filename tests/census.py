"""Class counts of the oracle's climbs against published graph counts.

A climb over every connected graph of order n must keep exactly one
graph per isomorphism class at each size.  ``oremax.oracle._levels``
yields each level of a climb as (size, winners, kept), where ``kept``
holds one labelled graph per class that the next level grows from, and
``census`` reads ``kept`` off one such climb:

* up, ``_levels(n, 1, 1, True)``: every connected graph has diameter
  >= 1, so the levels from the trees at size n - 1 to K_n keep every
  connected class of their size.
* down, ``_levels(n, 1, n - 1, False)``: from K_n through every class
  of diameter below n - 1, which at sizes >= n is every connected class
  of its size.  The first level with a winner is size n - 1, which
  keeps the path alone, its one class of diameter n - 1, and ends the
  climb.

``k_connected`` keeps the k-connected classes of a census by the
climbs' one connectivity rule, ``is_k_connected`` once per class.
The counts share nothing with the package: connected graphs are OEIS
A001349, trees A000055, 2-connected graphs A002218 and 3-connected
graphs A006290.  Run as a script, ``PYTHONPATH=src python
tests/census.py N`` walks the up and the down census at order N, counts
the 2- and 3-connected classes of the up one, prints the count per size
of each, and exits 1 on any count that differs from the published one.
"""

from __future__ import annotations

import sys
from math import comb

from oremax.graphs import Graph
from oremax.metrics import is_k_connected
from oremax.oracle import _levels

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


def census(n: int, up: bool) -> dict[int, list[tuple[int, ...]]]:
    """The classes, as labelled rows, that one climb over every connected
    graph of order n keeps at each size."""
    levels = _levels(n, 1, 1, True) if up else _levels(n, 1, n - 1, False)
    return {size: kept for size, _, kept in levels}


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
    # each count per size, the least size of its published total and
    # that total; the up census is let go before the down one is walked
    checks = [("up", sizes(up), n - 1, CONNECTED[n]),
              *((f"up k={k}", sizes(k_connected(up, k)), n - 1,
                 K_CONNECTED[k][n]) for k in (2, 3))]
    del up
    checks.append(("down", sizes(census(n, False)), n,
                   CONNECTED[n] - TREES[n]))
    failed = False
    for name, counts, least, want in checks:
        for size, count in sorted(counts.items()):
            print(f"{n}\t{name}\t{size}\t{count}")
        total = sum(m for size, m in counts.items() if size >= least)
        print(f"{n}\t{name}\tsizes {least}..{comb(n, 2)}\t{total}\t"
              f"published\t{want}")
        # the one count outside that range: the path, down
        rest = {size: m for size, m in counts.items() if size < least}
        failed |= total != want or rest != (
            {n - 1: 1} if name == "down" else {})
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
