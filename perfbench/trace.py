"""Spans around calls into godelforest's layers, recorded from outside.

`Tracer.install(pkg)` replaces each layer's public functions with a wrapper
in every godelforest module that holds them, so calls across modules (and
within one, such as `realized_classes` -> `critical_points`) are seen.
`format_formula` calls itself, so only other modules' bindings of it are
wrapped.  Spans stay in memory until `dump`.  A span's self time is its
duration minus the time of the spans directly inside it, and a wrapper's own
bookkeeping is charged to no span.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

MODULES = ("formulas", "forest", "semantics", "partitions", "axioms", "exports", "cli")

#: module -> {public function: span name}
LAYERS = {
    "formulas": {"parse_formula": "formulas.parse", "format_formula": "formulas.format"},
    "forest": {
        "enumerate_forest": "forest.enumerate",
        **{name: "forest.subforest" for name in (
            "downset", "empty_subforest", "full_subforest", "ruspini_subforest",
            "two_overlap_subforest", "truncated_subforest", "generating_subforest",
            "is_ruspini_subforest")},
    },
    "semantics": {
        "formula_forest": "semantics.formula_forest",
        "grid_tautology_oracle": "semantics.oracle",
        "is_tautology": "semantics.decide",
        "proves_equiv": "semantics.decide",
        "proves_implies": "semantics.decide",
    },
    "partitions": {
        "critical_points": "partitions.critical_points",
        "realized_classes": "partitions.realized_classes",
        **{name: "partitions.other" for name in (
            "partition_forest", "check_ruspini_exact", "check_2_overlapping",
            "is_weak_ruspini", "partition_from_json", "partition_to_json")},
    },
    "axioms": {
        "analyze": "axioms.analyze",
        "synthesize_partition": "axioms.synthesize",
        **{name: "axioms.other" for name in (
            "axiomatize_partition", "axiomatize_subforest", "chain_normal_form",
            "ruspini_axiom", "overlap_axiom", "count_leaves", "count_weak_ruspini",
            "count_2overlap_weak_ruspini")},
    },
    "exports": {
        "report_to_json": "exports.report",
        "format_report": "exports.report",
        "subforest_to_json": "exports.subforest",
        "subforest_to_dot": "exports.subforest",
    },
    "cli": {"main": "cli.main"},
}
SUBFOREST_METHODS = ("meet", "join", "implies", "issubset", "leaves")
SELF_RECURSIVE = {"format_formula"}


def formula_nodes(f, base) -> int:
    """Node count of a godelforest formula (iterative; any dataclass AST)."""
    count, stack = 0, [f]
    while stack:
        node = stack.pop()
        count += 1
        if dataclasses.is_dataclass(node):
            stack.extend(v for v in (getattr(node, fd.name) for fd in dataclasses.fields(node))
                         if isinstance(v, base))
    return count


def formula_key(f, base, table: dict) -> int:
    """Structural id of a formula: equal formulas get equal ids (iterative
    hash-consing, so deep formulas cost no recursion)."""
    ids: dict[int, int] = {}
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in ids:
            continue
        children = []
        if dataclasses.is_dataclass(node):
            values = [getattr(node, fd.name) for fd in dataclasses.fields(node)]
            children = [v for v in values if isinstance(v, base)]
            leaf = tuple(v for v in values if not isinstance(v, base))
        else:
            leaf = (repr(node),)
        if not ready and children:
            stack.append((node, True))
            stack.extend((c, False) for c in children)
            continue
        key = (type(node).__name__, leaf, tuple(ids[id(c)] for c in children))
        ids[id(node)] = table.setdefault(key, len(table))
    return ids[id(f)]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (request, name, parent, start, end, self)
        self.stack: list[list] = []  # [span index, name, child time]
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set = set()
        self._keys: dict = {}

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [len(self.spans), name, 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans[frame[0]] = (self.request, frame[1], parent, start, end,
                                end - start - frame[2])

    def _charge(self, start: float) -> None:
        """Tell the enclosing span that everything since `start` was not its
        own work."""
        if self.stack:
            self.stack[-1][2] += time.perf_counter() - start

    def begin_request(self, index: int) -> None:
        self.request = index
        self._seen, self._keys = set(), {}
        self._root = (self._open("client"), time.perf_counter())

    def end_request(self) -> None:
        frame, start = self._root
        self._close(frame, start, time.perf_counter())

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name: str, hooks=None):
        """`hooks` is (before, after): before(args) returns a token that
        after(args, result, token) receives once fn has returned."""
        tracer = self
        before, after = hooks or (None, None)

        def traced(*args, **kwargs):
            mark = time.perf_counter()
            token = before(args) if before is not None else None
            frame = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, start, time.perf_counter())
                tracer._charge(mark)
                raise
            tracer._close(frame, start, time.perf_counter())
            if after is not None:
                after(args, result, token)
            tracer._charge(mark)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at the boundaries -------------------------------------
    def _counters(self, pkg) -> dict:
        base = pkg.formulas.Formula
        info = getattr(pkg.forest.enumerate_forest, "cache_info", None)

        def misses(args):
            return info().misses if info is not None else None

        def built(args, result, before):
            # A cache miss built the forest; without a cache every call does.
            if before is None or info().misses > before:
                self.count("forest.nodes_built", len(result))

        def parsed(args, result, _):
            self.count("formulas.nodes_parsed", formula_nodes(result, base))

        def evaluated(args, result, _):
            formula, forest = args[0], args[1]
            self.count("semantics.formula_forest_calls")
            self.count("semantics.node_evals", len(forest) * formula_nodes(formula, base))
            key = (id(forest), formula_key(formula, base, self._keys))
            if key in self._seen:
                self.count("semantics.repeat_calls")
            self._seen.add(key)

        def critical(args, result, _):
            if self.stack and self.stack[-1][1] == "partitions.realized_classes":
                self.count("partitions.samples", 2 * len(result) - 1)

        def realized(args, result, _):
            if any(frame[1] == "axioms.analyze" for frame in self.stack):
                self.count("partitions.realized_calls")

        def analyzed(args, result, _):
            self.count("axioms.analyze_calls")
            self.count("axioms.axiom_nodes", formula_nodes(result.axiom, base))

        return {"enumerate_forest": (misses, built), "parse_formula": (None, parsed),
                "formula_forest": (None, evaluated), "critical_points": (None, critical),
                "realized_classes": (None, realized), "analyze": (None, analyzed)}

    # -- installing -----------------------------------------------------
    def install(self, pkg) -> None:
        modules = [pkg] + [getattr(pkg, m) for m in MODULES]
        counters = self._counters(pkg)
        for owner_name, table in LAYERS.items():
            owner = getattr(pkg, owner_name)
            for fname, span in table.items():
                original = getattr(owner, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(original, span, counters.get(fname))
                for module in modules:
                    if module is owner and fname in SELF_RECURSIVE:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapper)
        subforest = pkg.forest.Subforest
        for method in SUBFOREST_METHODS:
            original = subforest.__dict__.get(method)
            if original is not None:
                self._patches.append((subforest, method, original))
                setattr(subforest, method, self.wrap(original, "forest.subforest"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is not None:
                totals[span[1]] += span[5]
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["request", "name", "parent", "start", "end", "self"],
                       "spans": self.spans, "counts": self.counts}, handle)
