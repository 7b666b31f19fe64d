"""Per-layer spans, recorded from outside the package.

`Tracer.install` replaces, in every loaded nimcolor module that refers to
it, each function a layer's callers cross into with a wrapper that times
the call.  The anchored query `_find_through` is wrapped separately under
each module that imports it (nim, search, turan), so its calls are counted
per caller.  Spans are aggregated in memory: calls and time per (span,
parent span), and self time per span (its time minus the wrapped calls
nested directly inside it).  A function that no longer exists under its
name is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

CONSTRUCTIONS = ("extremal_overlay", "tail_forest_coloring", "tail_coloring_for", "p2k_multicoloring", "verify_layout")
# span name -> (defining module, attribute)
FUNCTIONS = {
    "cli.main": ("cli", "main"),
    **{f"constructions.{f}": ("constructions", f) for f in CONSTRUCTIONS},
    "nim.nim_edges": ("nim", "nim_edges"),
    "nim.contains": ("nim", "contains"),
    "turan.turan_oracle": ("turan", "turan_oracle"),
    "search.exhaustive_f": ("search", "exhaustive_f"),
    "search.hill_climb_f": ("search", "hill_climb_f"),
}
QUERY_CALLERS = ("nim", "search", "turan")  # modules that import _find_through
METHODS = {"graphs.recolored": "recolored", "graphs.from_json": "from_json"}  # on EdgeColoring

# per-layer metric -> (unit, spans it needs)
METRICS = {
    "nim.nim_edges_calls": ("count", ["nim.nim_edges"]),
    "nim.nim_edges_s": ("s", ["nim.nim_edges"]),
    "nim.queries": ("count", ["query.nim"]),
    "nim.query_us": ("us", ["query.nim"]),
    "nim.cover_skip_ratio": ("ratio", ["nim.nim_edges", "query.nim"]),
    "nim.query_hit_ratio": ("ratio", ["query.nim"]),
    "turan.oracle_s": ("s", ["turan.turan_oracle"]),
    "turan.oracle_self_s": ("s", ["turan.turan_oracle"]),
    "turan.oracle_queries": ("count", ["query.turan"]),
    "turan.oracle_query_hit_ratio": ("ratio", ["query.turan"]),
    "search.exhaustive_s": ("s", ["search.exhaustive_f"]),
    "search.exhaustive_self_s": ("s", ["search.exhaustive_f"]),
    "search.exhaustive_queries": ("count", ["query.search"]),
    "search.exhaustive_leaves": ("count", ["search.exhaustive_f", "nim.nim_edges"]),
    "search.hill_s": ("s", ["search.hill_climb_f"]),
    "search.hill_self_s": ("s", ["search.hill_climb_f"]),
    "search.hill_evals": ("count", ["search.hill_climb_f", "nim.nim_edges"]),
    "search.hill_evals_per_s": ("1/s", ["search.hill_climb_f", "nim.nim_edges"]),
    "constructions.build_s": ("s", [f"constructions.{f}" for f in CONSTRUCTIONS]),
    "cli.self_s": ("s", ["cli.main"]),
    "graphs.coloring_build_s": ("s", list(METHODS)),
    "trace.overhead_ratio": ("ratio", []),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds spent in wrapped children]
        self.calls: Counter = Counter()  # (name, parent) -> calls
        self.seconds: defaultdict = defaultdict(float)  # (name, parent) -> seconds
        self.self_seconds: defaultdict = defaultdict(float)  # name -> self seconds
        self.hits: Counter = Counter()  # name -> calls that returned a witness
        self.scanned = 0  # class edges scanned by nim_edges: C(n, 2) per call
        self.absent: list[str] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        stack, calls, seconds, self_seconds, hits = self.stack, self.calls, self.seconds, self.self_seconds, self.hits
        is_query = name.startswith("query.")
        is_nim = name == "nim.nim_edges"

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name, parent] += 1
                seconds[name, parent] += dt
                self_seconds[name] += dt - frame[1]
            if is_query and result is not None:
                hits[name] += 1
            elif is_nim:
                self.scanned += comb(args[0].n, 2)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "nimcolor" or name.startswith("nimcolor.")]
        for span, (home, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(f"nimcolor.{home}"), attr, None)
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self.wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for caller in QUERY_CALLERS:
            module = sys.modules.get(f"nimcolor.{caller}")
            original = getattr(module, "_find_through", None)
            if original is None:
                self.absent.append(f"query.{caller}")
                continue
            self._patch(module, "_find_through", self.wrap(f"query.{caller}", original))
        cls = getattr(sys.modules.get("nimcolor.graphs"), "EdgeColoring", None)
        for span, attr in METHODS.items():
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.absent.append(span)
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(span, raw.__func__)))
            else:
                self._patch(cls, attr, self.wrap(span, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ----------------------------------------------------------

    def total(self, name: str, parent=...) -> float:
        return sum(s for (n, p), s in self.seconds.items() if n == name and parent in (..., p))

    def count(self, name: str, parent=...) -> int:
        return sum(c for (n, p), c in self.calls.items() if n == name and parent in (..., p))

    def metrics(self, untraced_s: float, traced_s: float) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        queries = self.count("query.nim")
        construction_spans = [f"constructions.{f}" for f in CONSTRUCTIONS]
        hill_s = self.total("search.hill_climb_f")
        hill_evals = self.count("nim.nim_edges", "search.hill_climb_f")
        values = {
            "nim.nim_edges_calls": self.count("nim.nim_edges"),
            "nim.nim_edges_s": self.total("nim.nim_edges"),
            "nim.queries": queries,
            "nim.query_us": ratio(self.total("query.nim"), queries) * 1e6,
            "nim.cover_skip_ratio": ratio(self.scanned - queries, self.scanned),
            "nim.query_hit_ratio": ratio(self.hits["query.nim"], queries),
            "turan.oracle_s": self.total("turan.turan_oracle"),
            "turan.oracle_self_s": self.self_seconds["turan.turan_oracle"],
            "turan.oracle_queries": self.count("query.turan"),
            "turan.oracle_query_hit_ratio": ratio(self.hits["query.turan"], self.count("query.turan")),
            "search.exhaustive_s": self.total("search.exhaustive_f"),
            "search.exhaustive_self_s": self.self_seconds["search.exhaustive_f"],
            "search.exhaustive_queries": self.count("query.search"),
            "search.exhaustive_leaves": self.count("nim.nim_edges", "search.exhaustive_f"),
            "search.hill_s": hill_s,
            "search.hill_self_s": self.self_seconds["search.hill_climb_f"],
            "search.hill_evals": hill_evals,
            "search.hill_evals_per_s": ratio(hill_evals, hill_s),
            "constructions.build_s": sum(
                s for (n, p), s in self.seconds.items() if n in construction_spans and p not in construction_spans
            ),
            "cli.self_s": self.self_seconds["cli.main"],
            "graphs.coloring_build_s": sum(self.total(span) for span in METHODS),
            "trace.overhead_ratio": ratio(traced_s, untraced_s),
        }
        out = {}
        for name, (unit, needs) in METRICS.items():
            missing = [span for span in needs if span in self.absent]
            out[name] = {"value": 0 if missing else values[name], "unit": unit}
        return out

    def absent_metrics(self) -> list[str]:
        return [name for name, (_, needs) in METRICS.items() if any(span in self.absent for span in needs)]
