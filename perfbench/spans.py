"""In-memory span recording around rdgraph's module boundaries.

The tracer wraps, without editing ``src/``, every rdgraph function bound in
``rdgraph.pipeline``, ``rdgraph.cli`` and ``rdgraph.validate`` (the names
those modules call across module boundaries, plus their own functions), and
replaces ``TfIdfProvider`` there with a subclass whose ``score`` is a span.
A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``value`` is a count taken from the
result (sentences returned, edges found, bytes written...) or ``None``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
from time import perf_counter

# What to count from a wrapped call's result, by span name.
_VALUES = {
    "corpus.segment_sentences": len,
    "decisions.extract_decisions": len,
    "rationale.attach_rationale": len,
    "textsim.build_model": lambda model: len(model.vocabulary),
    "textsim.score": float,
    "relations.cluster_topics": lambda topics: max(
        (len(t.member_decision_ids) for t in topics), default=0
    ),
    "relations.detect_similar": len,
    "relations.detect_history": lambda edge: int(edge is not None),
    "relations.detect_contradicts": lambda edge: int(edge is not None),
    "graph.save": lambda text: len(text.encode("utf-8")),
    "validate.check_new_decision": lambda findings: sum(
        f.kind == "conflict-warning" for f in findings
    ),
}

TRACED_MODULES = ("pipeline", "cli", "validate")


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        value_of = _VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if value_of is not None:
                self.spans[index][4] = value_of(result)
            return result

        return wrapper

    def write(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent, value."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index, (name, start, end, parent, value) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent, value]))
                handle.write("\n")


def install(tracer: Tracer, rdgraph_modules: dict) -> list[tuple]:
    """Wrap the traced modules' function bindings; returns what to restore."""
    textsim = rdgraph_modules["textsim"]
    base = textsim.TfIdfProvider
    counting = type(
        "CountingTfIdfProvider",
        (base,),
        {"score": tracer.wrap("textsim.score", base.score)},
    )
    saved = []
    for module_name in TRACED_MODULES:
        module = rdgraph_modules[module_name]
        for attr, obj in list(vars(module).items()):
            if obj is base:
                replacement = counting
            elif inspect.isfunction(obj) and obj.__module__.startswith("rdgraph."):
                short = obj.__module__.rsplit(".", 1)[1]
                replacement = tracer.wrap(f"{short}.{obj.__name__}", obj)
            else:
                continue
            saved.append((module, attr, obj))
            setattr(module, attr, replacement)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, obj in saved:
        setattr(module, attr, obj)


class OpStats:
    """Aggregates of the spans under one operation span."""

    def __init__(self, spans: list[list], root: int):
        name, start, end, _, _ = spans[root]
        self.wall = end - start
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.module_self: dict[str, float] = {}
        self.module_busy: dict[str, float] = {}
        # Score calls by the name of the span that made them.
        self.score_calls: dict[str, int] = {}
        self.score_values: dict[str, list[float]] = {}
        child_time: dict[int, float] = {}
        members = {root}
        # Parents always precede children, so one forward pass suffices.
        order = []
        for index in range(root + 1, len(spans)):
            parent = spans[index][3]
            if parent in members:
                members.add(index)
                order.append(index)
            elif spans[index][1] > end:
                break
        for index in order:
            name, start, stop, parent, value = spans[index]
            duration = stop - start
            child_time[parent] = child_time.get(parent, 0.0) + duration
        for index in order:
            name, start, stop, parent, value = spans[index]
            duration = stop - start
            own = duration - child_time.get(index, 0.0)
            module = module_of(name)
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if value is not None:
                self.values[name] = self.values.get(name, 0) + value
            self.module_self[module] = self.module_self.get(module, 0.0) + own
            if not self._inside_module(spans, parent, module, root):
                self.module_busy[module] = self.module_busy.get(module, 0.0) + duration
            if name == "textsim.score":
                caller = spans[parent][0] if parent != root else "op"
                self.score_calls[caller] = self.score_calls.get(caller, 0) + 1
                self.score_values.setdefault(caller, []).append(value)

    @staticmethod
    def _inside_module(spans, parent: int, module: str, root: int) -> bool:
        while parent != root and parent >= 0:
            if module_of(spans[parent][0]) == module:
                return True
            parent = spans[parent][3]
        return False


def log2_ratio(full: float, half: float) -> float:
    """Growth exponent; 0 when a size did no work at all (JSON has no NaN)."""
    if full <= 0.0 or half <= 0.0:
        return 0.0
    return math.log2(full / half)
