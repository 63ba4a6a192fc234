"""Class counts of the oracle's climbs against published graph counts.

A climb over every connected graph of order n must keep exactly one
graph per isomorphism class at each size.  ``oremax.oracle._levels``
yields each level of a climb as (size, winners, kept), where ``kept``
holds one labelled graph per class that the next level grows from, and
``census`` reads ``kept`` off one such climb:

* up, ``_levels(n, 1, 1, True)``: every connected graph has diameter
  >= 1, so the levels from the trees at size n - 1 to K_n keep every
  connected class of their size.
* down, ``_levels(n, k, n - 1, False)``: from K_n through the alive
  graphs, which at diameter n - 1 are all the k-connected ones, so every
  level keeps every k-connected class of its size.  At k = 1 the first
  level with a winner is size n - 1, which keeps the path alone, its
  one class of diameter n - 1, and ends the climb.  At k >= 2 no class
  of diameter n - 1 is k-connected, so the climb walks down to the last
  level that keeps a class.

The counts share nothing with the package: connected graphs are OEIS
A001349, trees A000055, 2-connected graphs A002218 and 3-connected
graphs A006290.  Run as a script, ``PYTHONPATH=src python
tests/census.py N`` walks the up census and the down census at k = 1,
2 and 3 at order N, prints the count per size of each, and exits 1 on
any count that differs from the published one.
"""

from __future__ import annotations

import sys
from math import comb

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


def census(n: int, up: bool, k: int = 1) -> dict[int, list[tuple[int, ...]]]:
    """The classes, as labelled rows, that one climb over every connected
    graph of order n (up), or over every k-connected one (down), keeps
    at each size."""
    levels = _levels(n, 1, 1, True) if up else _levels(n, k, n - 1, False)
    return {size: kept for size, _, kept in levels}


def main(argv: list[str]) -> int:
    (n,) = map(int, argv)
    top = comb(n, 2) + 1
    failed = False
    # each climb's class total at the sizes of its range, and the one
    # count it may keep outside that range: the path, down at k = 1
    for up, k, sizes, want in [
            (True, 1, range(n - 1, top), CONNECTED[n]),
            (False, 1, range(n, top), CONNECTED[n] - TREES[n]),
            (False, 2, range(n, top), K_CONNECTED[2][n]),
            (False, 3, range(n, top), K_CONNECTED[3][n])]:
        name = "up" if up else f"down k={k}"
        counts = {size: len(kept) for size, kept in census(n, up, k).items()}
        for size, count in sorted(counts.items()):
            print(f"{n}\t{name}\t{size}\t{count}")
        total = sum(counts.get(size, 0) for size in sizes)
        print(f"{n}\t{name}\tsizes {sizes[0]}..{sizes[-1]}\t{total}\t"
              f"published\t{want}")
        rest = {size: m for size, m in counts.items() if size not in sizes}
        failed |= total != want or rest != (
            {n - 1: 1} if (up, k) == (False, 1) else {})
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
