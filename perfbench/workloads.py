"""Workload inputs, the operations that drive the package, and their checks.

Every workload is a list of :class:`Op`.  A pass runs the list once,
in order, from one thread: each operation waits for the previous one
(a closed loop with one caller).  An operation returns the text the
program produced; ``check`` says whether that text is right.

Only ``connectivity-large`` draws its inputs from the seed.  The other
three run fixed instance lists, so their seed argument changes nothing.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Acceptance instances with k = 1: the oracle's scan and its far-pair
#: BFS screen do the work, and there are no cut masks.
SPARSE = [(6, 1, 4), (7, 1, 5)]
#: Acceptance instances with k >= 2: the cut-mask screen and, at n = 8,
#: the orbit dedup do the work.
DENSE = [(5, 2, 2), (6, 2, 2), (6, 2, 3), (7, 2, 3), (8, 2, 3), (8, 3, 2)]
#: family/check instances; n = 10 costs minutes, so they stay at n = 9.
FAMILY = [(9, 2, 3), (9, 3, 2), (9, 2, 4)]

#: connectivity-large family members as (n, k, d).  Windows start at
#: block 2 or later, so pole x keeps exactly the k neighbours of block 2
#: and the member's connectivity is exactly k.
STREAM_MEMBERS = [
    (20, 1, 4), (20, 2, 3), (20, 3, 3), (20, 4, 3),
    (24, 1, 5), (24, 2, 4), (24, 3, 3), (24, 4, 3),
    (28, 1, 6), (28, 2, 4), (28, 3, 4), (28, 4, 3),
    (32, 2, 5), (32, 4, 4), (36, 2, 5), (38, 2, 5), (38, 4, 4), (62, 1, 8),
]
#: connectivity-large random graphs as (n, kappa): a core that is at
#: least kappa-connected plus n random chords, and one vertex of degree
#: kappa (see :func:`planted_graph`).
STREAM_RANDOM = [
    (20, 1), (20, 2), (20, 3), (22, 1), (22, 2), (22, 3), (24, 1), (24, 2),
    (24, 3), (26, 1), (26, 2), (26, 3), (28, 1), (28, 2), (28, 3), (32, 3),
    (36, 1), (36, 2), (38, 3), (44, 1),
]


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs it and returns the program's output."""

    label: str
    call: Callable[[], str]
    check: Callable[[str], bool]


@dataclass(frozen=True)
class StreamGraph:
    """A connectivity-large input with the values it must produce."""

    label: str
    g6: str
    order: int
    size: int
    kappa: int
    diameter: int
    rows: tuple[int, ...]


# ---------------------------------------------------------------------------
# graph6 and BFS, written here so the inputs and checks do not rely on the
# code under test


def encode_graph6(rows: tuple[int, ...]) -> str:
    """graph6 text of a graph of order <= 62 given as bitmask rows."""
    n = len(rows)
    cells = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    cells += [0] * (-len(cells) % 6)
    out = [chr(63 + n)]
    for ofs in range(0, len(cells), 6):
        group = 0
        for bit in cells[ofs:ofs + 6]:
            group = group << 1 | bit
        out.append(chr(63 + group))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, ...]:
    """Bitmask rows of a graph6 line of order <= 62."""
    n = ord(text[0]) - 63
    data = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if data[pos] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return tuple(rows)


def _reach(rows: tuple[int, ...], source: int, allowed: int) -> list[int]:
    """BFS layers from ``source`` inside the vertex mask ``allowed``."""
    seen = frontier = 1 << source
    layers = [frontier]
    while frontier:
        grown = 0
        v_mask = frontier
        while v_mask:
            low = v_mask & -v_mask
            grown |= rows[low.bit_length() - 1]
            v_mask ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
        if frontier:
            layers.append(frontier)
    return layers


def bfs_diameter(rows: tuple[int, ...]) -> int:
    full = (1 << len(rows)) - 1
    return max(len(_reach(rows, v, full)) - 1 for v in range(len(rows)))


def disconnects(rows: tuple[int, ...], cut: int) -> bool:
    """True iff removing the vertex mask ``cut`` leaves >= 2 components."""
    rest = (1 << len(rows)) - 1 & ~cut
    if rest & (rest - 1) == 0:
        return False
    source = (rest & -rest).bit_length() - 1
    reached = 0
    for layer in _reach(rows, source, rest):
        reached |= layer
    return reached != rest


# ---------------------------------------------------------------------------
# connectivity-large stream


def planted_graph(rng: random.Random, n: int, kappa: int) -> tuple[int, ...]:
    """Random graph of order n and connectivity exactly ``kappa``.

    Vertices 0..n-2 form a core: a circulant with offsets
    1..ceil(kappa/2) on a random vertex order, which is at least
    kappa-connected, plus n uniformly random chords.  Vertex n-1
    joins kappa core vertices at fixed, evenly spread labels.  A
    kappa-connected core plus a vertex of degree kappa is exactly
    kappa-connected, whatever the seed.  The fixed labels keep the cost
    of the lexicographic witness search the same from seed to seed.
    """
    rows = [0] * n
    core = n - 1

    def join(u: int, v: int) -> None:
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    order = list(range(core))
    rng.shuffle(order)
    for offset in range(1, (kappa + 1) // 2 + 1):
        for i in range(core):
            join(order[i], order[(i + offset) % core])
    free = [(i, j) for j in range(core) for i in range(j)
            if not rows[i] >> j & 1]
    for i, j in rng.sample(free, n):
        join(i, j)
    for i in range(kappa):
        join(core, (i + 1) * core // (kappa + 1))
    return tuple(rows)


def family_member(rng: random.Random, n: int, k: int, d: int):
    """A random extremal member of (n, k, d) whose windows avoid pole x."""
    from oremax.extremal import (FamilyMemberSpec, Parameters, Side,
                                 build_family_member, max_size_formula)
    p = Parameters(n, k, d)
    r = p.outside_count
    choices = [(3, start, r) for start in range(2, d)]
    if r >= 2:
        choices += [(4, start, c) for start in range(2, d - 1)
                    for c in range(1, r)]
    rng.shuffle(choices)
    target = max_size_formula(p)
    for length, start, c in choices:
        sides = (Side.FIRST_THREE,) * c + (Side.LAST_THREE,) * (r - c)
        g, _ = build_family_member(p, FamilyMemberSpec(start, length, sides))
        if g.size == target:
            return g.rows
    raise ValueError(f"no member of {p} avoids pole x")


def stream(seed: int) -> list[StreamGraph]:
    """The connectivity-large inputs for ``seed``, smallest orders first.

    The seed picks each member's window and each random graph's edges;
    the list of orders, sizes and kappas is the same for every seed.
    """
    items = []
    for n, k, d in STREAM_MEMBERS:
        rng = random.Random(f"{seed}:member:{n}:{k}:{d}")
        rows = tuple(family_member(rng, n, k, d))
        items.append(StreamGraph(f"member({n},{k},{d})", encode_graph6(rows),
                                 n, sum(r.bit_count() for r in rows) // 2,
                                 k, d, rows))
    for n, kappa in STREAM_RANDOM:
        rng = random.Random(f"{seed}:random:{n}:{kappa}")
        rows = planted_graph(rng, n, kappa)
        items.append(StreamGraph(f"random({n},{kappa})", encode_graph6(rows),
                                 n, sum(r.bit_count() for r in rows) // 2,
                                 kappa, bfs_diameter(rows), rows))
    items.sort(key=lambda item: (item.order, item.label))
    return items


def profile(items: list[StreamGraph]) -> list[tuple[str, int, int, int]]:
    """Seed-independent shape of a stream: (kind, order, size, kappa)."""
    return [(item.label.split("(")[0], item.order, item.size, item.kappa)
            for item in items]


def _invariants(item: StreamGraph) -> str:
    from oremax import graphs, metrics
    g = graphs.from_graph6(item.g6)
    same = graphs.to_graph6(g) == item.g6
    dia = metrics.diameter(g)
    k_ok = metrics.is_k_connected(g, item.kappa)
    res = metrics.vertex_connectivity(g)
    return f"{same} {dia} {k_ok} {res.kappa} {res.witness_cut}"


def _invariants_ok(item: StreamGraph, out: str) -> bool:
    same, dia, k_ok, kappa, cut = out.split()
    cut = int(cut)
    return (same == "True" and dia == str(item.diameter) and k_ok == "True"
            and int(kappa) == item.kappa and cut.bit_count() == item.kappa
            and disconnects(item.rows, cut))


# ---------------------------------------------------------------------------
# CLI operations


def run_cli(argv: list[str], stdin_text: str = "") -> str:
    """Exit code and stdout of one in-process ``oremax`` call."""
    from oremax import cli
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return f"exit {code}\n{out.getvalue()}"


def _instance_argv(command: str, n: int, k: int, d: int) -> list[str]:
    return [command, "--n", str(n), "--k", str(k), "--d", str(d)]


def first_edge_deleted(text: str) -> str:
    """The graph with its first edge in graph6 cell order removed."""
    rows = list(decode_graph6(text))
    for j in range(1, len(rows)):
        for i in range(j):
            if rows[i] >> j & 1:
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
                return encode_graph6(tuple(rows))
    raise ValueError(f"{text} has no edge")


def cli_calls(workload: str, expected: dict[str, str]):
    """Yield (label, argv, stdin) of every CLI call a workload makes.

    ``check`` reads the expected ``family`` output plus a copy of every
    member with one edge deleted.  Calls are yielded lazily, so a caller
    that records each output into ``expected`` as it goes can build the
    expected outputs from scratch.
    """
    if workload in ("verify-sparse", "verify-dense"):
        for inst in SPARSE if workload == "verify-sparse" else DENSE:
            argv = _instance_argv("verify", *inst)
            yield " ".join(argv), argv, ""
        return
    for n, k, d in FAMILY:
        argv = _instance_argv("family", n, k, d)
        label = " ".join(argv)
        yield label, argv, ""
        members = expected[label].splitlines()[1:]
        lines = members + [first_edge_deleted(m) for m in members]
        yield (f"check --k {k} < {label} + edge-deleted",
               ["check", "--k", str(k)], "\n".join(lines) + "\n")


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def build_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload``."""
    if workload == "connectivity-large":
        return [Op(item.label, lambda item=item: _invariants(item),
                   lambda out, item=item: _invariants_ok(item, out))
                for item in stream(seed)]
    expected = load_expected()
    return [Op(label, lambda argv=argv, stdin=stdin: run_cli(argv, stdin),
               lambda out, want=expected[label]: out == want)
            for label, argv, stdin in cli_calls(workload, expected)]


WORKLOADS = {
    "verify-sparse": "oracle scan and far-pair BFS screen on the k = 1 "
                     "acceptance instances (6,1,4) and (7,1,5)",
    "verify-dense": "oracle cut-mask screen and n = 8 orbit dedup on the six "
                    "k >= 2 acceptance instances",
    "family-check": "canonical form via family and check at n = 9; the "
                    "oracle is never called",
    "connectivity-large": "diameter and connectivity on a seeded stream of "
                          "order 20-62 graphs, kappa 1-4",
}
