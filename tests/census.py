"""Class counts of the oracle's climbs against published graph counts.

A climb over every connected graph of order n must keep exactly one
graph per isomorphism class at each size.  ``census`` runs one such
climb with ``oremax.oracle._classes`` wrapped, and reads off the
classes that each call returns, keyed by the size of the graphs it is
handed; calls on graphs of order below n (the tree seeds still
growing) are skipped:

* up, ``_climb(n, 1, 1, True)`` from ``_trees(n, 1)``: every connected
  graph has diameter >= 1, so every level holds every connected class
  of its size.  The trees' own last dedup and the first level both see
  size n - 1, so the last call per size is kept.
* down, ``_climb(n, 1, n - 1, False)`` from K_n: alive means connected,
  so every size down to n holds every connected class, split between
  the exact-d and alive lists, which are joined.  The climb stops at
  size n - 1, whose one exact-d class is the path.

The counts share nothing with the package: connected graphs are OEIS
A001349 and trees A000055.  Run as a script, ``PYTHONPATH=src python
tests/census.py N`` walks the up census at order N, prints its count
per size, and exits 1 unless the total is A001349's.
"""

from __future__ import annotations

import sys

from oremax import oracle

#: connected graphs on n vertices, OEIS A001349, n = 1..9
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11_117,
             9: 261_080}
#: trees on n vertices, OEIS A000055, n = 1..10
TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def census(n: int, up: bool) -> dict[int, list[tuple[int, ...]]]:
    """The classes, as labelled rows, that one climb over every
    connected graph of order n keeps at each size."""
    classes = oracle._classes
    found: dict[int, list[tuple[int, ...]]] = {}

    def recording(graphs):
        kept = classes(graphs)
        if graphs and len(graphs[0]) == n:
            size = sum(row.bit_count() for row in graphs[0]) // 2
            if up:
                found[size] = kept
            else:
                found.setdefault(size, []).extend(kept)
        return kept

    oracle._classes = recording
    try:
        if up:
            oracle._climb(n, 1, 1, True)
        else:
            oracle._climb(n, 1, n - 1, False)
    finally:
        oracle._classes = classes
    return found


def main(argv: list[str]) -> int:
    (n,) = map(int, argv)
    counts = {size: len(kept) for size, kept in sorted(census(n, True).items())}
    for size, count in counts.items():
        print(f"{n}\t{size}\t{count}")
    total = sum(counts.values())
    print(f"{n}\ttotal\t{total}\tA001349\t{CONNECTED[n]}")
    return 0 if total == CONNECTED[n] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
