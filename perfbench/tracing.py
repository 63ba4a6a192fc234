"""Per-layer timing by wrapping the package's public functions.

The package binds functions across modules with ``from .x import y``, so
one function object can be reachable under several names (for example
``oremax.graphs.relabeling_codes`` and ``oremax.oracle.relabeling_codes``).
:class:`Tracer` replaces the function under every name in every package
namespace while a traced pass runs, and puts the originals back
afterwards.

Each wrapped call is a span.  Spans nest through a stack, so a span's
self time is its duration minus the time of the spans it called
directly.  Counters are read off each call's arguments and result.
"""

from __future__ import annotations

import importlib
import time
from math import comb

MODULES = ("oremax", "oremax.graphs", "oremax.metrics", "oremax.extremal",
           "oremax.oracle", "oremax.cli")

#: (defining module, function) -> span name.  The three codec functions
#: share one span name.
TRACED = {
    ("oremax.graphs", "canonical_form"): "graphs.canonical_form",
    ("oremax.graphs", "relabeling_codes"): "graphs.relabeling_codes",
    ("oremax.graphs", "to_graph6"): "graphs.codec",
    ("oremax.graphs", "from_graph6"): "graphs.codec",
    ("oremax.graphs", "from_bit_code"): "graphs.codec",
    ("oremax.metrics", "diameter"): "metrics.diameter",
    ("oremax.metrics", "is_k_connected"): "metrics.is_k_connected",
    ("oremax.metrics", "vertex_connectivity"): "metrics.vertex_connectivity",
    ("oremax.metrics", "local_connectivity"): "metrics.local_connectivity",
    ("oremax.extremal", "enumerate_family"): "extremal.enumerate_family",
    ("oremax.extremal", "is_extremal"): "extremal.is_extremal",
    ("oremax.oracle", "verify_theorem"): "oracle.verify_theorem",
    ("oremax.oracle", "max_size_bruteforce"): "oracle.max_size_bruteforce",
    ("oremax.cli", "run"): "cli.run",
}


def scan_candidates(n: int, max_size: int) -> int:
    """Candidates the labelled oracle scans to find ``max_size``.

    The oracle walks complement levels 0 .. m - max_size with
    m = C(n, 2) cells, and level l holds C(m, l) graphs.
    """
    m = comb(n, 2)
    return sum(comb(m, level) for level in range(m - max_size + 1))


class Span:
    """Totals for one span name over a pass."""

    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _count(name: str, span: Span, args, result) -> None:
    if name == "graphs.relabeling_codes":
        span.count("codes", len(result))
    elif name == "extremal.enumerate_family":
        span.count("members", len(result))
    elif name == "extremal.is_extremal":
        span.count("true", int(bool(result)))
    elif name == "oracle.max_size_bruteforce":
        if result.max_size is not None:
            span.count("candidates",
                       scan_candidates(args[0].n, result.max_size))
        span.count("classes", len(result.extremal))


class Tracer:
    """Installs timing wrappers for one traced pass, then removes them.

    Use as a context manager; ``spans`` holds the totals afterwards.
    """

    def __init__(self):
        self.spans: dict[str, Span] = {name: Span() for name in TRACED.values()}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                span.calls += 1
                span.s += took
                span.self_s += took - children
            _count(name, span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for (home, attr), name in TRACED.items():
            fn = getattr(importlib.import_module(home), attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def installed_wrappers() -> list[str]:
    """Names in the package namespaces still bound to a wrapper."""
    found = []
    for m in MODULES:
        module = importlib.import_module(m)
        for attr, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{m}.{attr}")
    return found


def layer_metrics(sp: dict[str, Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (without the overhead ratio)."""
    brute = sp["oracle.max_size_bruteforce"]
    cli = sp["cli.run"]
    candidates = brute.counts.get("candidates", 0)
    scan_self = brute.self_s
    return {
        "graphs.canonical_form.calls": sp["graphs.canonical_form"].calls,
        "graphs.canonical_form.s": sp["graphs.canonical_form"].s,
        "graphs.relabeling_codes.calls": sp["graphs.relabeling_codes"].calls,
        "graphs.relabeling_codes.s": sp["graphs.relabeling_codes"].s,
        "graphs.relabeling_codes.codes":
            sp["graphs.relabeling_codes"].counts.get("codes", 0),
        "graphs.codec.calls": sp["graphs.codec"].calls,
        "graphs.codec.s": sp["graphs.codec"].s,
        "metrics.diameter.calls": sp["metrics.diameter"].calls,
        "metrics.diameter.s": sp["metrics.diameter"].s,
        "metrics.is_k_connected.calls": sp["metrics.is_k_connected"].calls,
        "metrics.is_k_connected.s": sp["metrics.is_k_connected"].s,
        "metrics.vertex_connectivity.calls":
            sp["metrics.vertex_connectivity"].calls,
        "metrics.vertex_connectivity.s": sp["metrics.vertex_connectivity"].s,
        "metrics.local_connectivity.calls":
            sp["metrics.local_connectivity"].calls,
        "extremal.enumerate_family.calls": sp["extremal.enumerate_family"].calls,
        "extremal.enumerate_family.s": sp["extremal.enumerate_family"].s,
        "extremal.enumerate_family.members":
            sp["extremal.enumerate_family"].counts.get("members", 0),
        "extremal.is_extremal.calls": sp["extremal.is_extremal"].calls,
        "extremal.is_extremal.s": sp["extremal.is_extremal"].s,
        "extremal.is_extremal.true":
            sp["extremal.is_extremal"].counts.get("true", 0),
        "oracle.verify_theorem.s": sp["oracle.verify_theorem"].s,
        "oracle.max_size_bruteforce.s": brute.s,
        "oracle.scan.self_s": scan_self,
        "oracle.scan.child_s": brute.s - scan_self,
        "oracle.candidates": candidates,
        "oracle.candidates_per_s":
            candidates / scan_self if scan_self > 0 else 0.0,
        "oracle.classes": brute.counts.get("classes", 0),
        "cli.run.calls": cli.calls,
        "cli.run.s": cli.s,
        "cli.self_s": cli.self_s,
    }
