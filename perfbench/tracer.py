"""Span tracing of tieset's public functions, installed from outside the package.

The tracer rebinds every ``tieset.*`` module attribute that holds one of the
listed functions, so calls made through names a module imported directly
(``broker.metric_profile``, ``experiments.run_heuristic``) are seen as well.
A listed function that no longer exists records nothing.  Spans are kept in
compact in-memory arrays and written out once, after the traced run.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# the public functions whose calls and self time the traced run reports,
# keyed by the tieset module that defines them
TRACED = {
    "graph": (
        "metric_profile", "betweenness", "augment", "induced_subgraph",
        "connected_components", "build_graph",
    ),
    "broker": (
        "run_heuristic", "is_sub_radius_dominating", "is_broker_set",
        "brute_force_min_broker", "brute_force_min_dominating",
    ),
    "diameter": (
        "periphery_algorithm", "cp_algorithm", "is_delta_enabling",
        "brute_force_min_delta_enabling",
    ),
    "generators": ("generate", "reduction_gadget"),
    "datasets": ("load_edge_list", "write_edge_list"),
    "experiments": (
        "run_experiment_1", "run_experiment_2", "run_experiment_3",
        "run_experiment_4", "write_csv", "run_with_timeout",
    ),
    "cli": ("main",),
}

HEURISTICS = ("max", "btw", "ml", "s-max", "s-btw", "s-ml", "center", "imp-center")

# work counters derived from the traced calls' arguments and results
COUNTERS = (
    ("graph.metric_profile.bfs_sources", "count"),
    ("graph.metric_profile.arcs_computed", "count"),
    ("graph.betweenness.bfs_sources", "count"),
    ("graph.betweenness.arcs_computed", "count"),
    ("diameter.rounds", "count"),
    ("broker.cover_picks", "count"),
    ("broker.oracle.subsets_tested", "count"),
    ("diameter.oracle.subsets_tested", "count"),
    ("datasets.load_edge_list.bytes", "bytes"),
    ("experiments.write_csv.bytes", "bytes"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every (metric name, unit) a traced run reports, in a fixed order."""
    out = []
    for module, functions in TRACED.items():
        for fn in functions:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
            if fn == "run_heuristic":
                out.extend((f"broker.run_heuristic.{h}.self_s", "s") for h in HEURISTICS)
    out.extend(COUNTERS)
    out.append(("diameter.round_s", "s"))
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _graph_work(prefix):
    def count(counts, args, kwargs, result):
        g = _arg(args, kwargs, 0, "g")
        counts[f"{prefix}.bfs_sources"] += g.n
        counts[f"{prefix}.arcs_computed"] += g.n * 2 * g.m
    return count


def _rounds(counts, args, kwargs, result):
    counts["diameter.rounds"] += result.iterations


def _cover_picks(counts, args, kwargs, result):
    counts["broker.cover_picks"] += result.size


def _file_bytes(key):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return count


_AFTER = {
    "graph.metric_profile": _graph_work("graph.metric_profile"),
    "graph.betweenness": _graph_work("graph.betweenness"),
    "diameter.periphery_algorithm": _rounds,
    "diameter.cp_algorithm": _rounds,
    "broker.run_heuristic": _cover_picks,
    "datasets.load_edge_list": _file_bytes("datasets.load_edge_list.bytes"),
    "experiments.write_csv": _file_bytes("experiments.write_csv.bytes"),
}

# a subset test is a call of the checker made while its oracle is running
_INSIDE = {
    "broker.is_broker_set": ("broker.brute_force_min_broker", "broker.oracle.subsets_tested"),
    "diameter.is_delta_enabling": (
        "diameter.brute_force_min_delta_enabling", "diameter.oracle.subsets_tested",
    ),
}


def _heuristic_label(args, kwargs) -> str:
    h = _arg(args, kwargs, 1, "heuristic")
    return f"broker.run_heuristic.{getattr(h, 'value', h)}"


class Tracer:
    """Records (name, start, end, parent) spans of wrapped calls, plus work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "tieset" or name.startswith("tieset.")]
        for module, functions in TRACED.items():
            home = sys.modules.get(f"tieset.{module}")
            for fn_name in functions:
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(f"{module}.{fn_name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def _name(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, name, fn):
        after = _AFTER.get(name)
        inside = _INSIDE.get(name)
        label = _heuristic_label if name == "broker.run_heuristic" else None
        stack, opened, counts = self._stack, self._open, self.counts
        starts, ends, parents, name_ids = self.start, self.end, self.parent, self.name_id
        fixed_id = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_ids.append(self._name(label(args, kwargs)) if label else fixed_id)
            parents.append(stack[-1] if stack else -1)
            idx = len(starts)
            stack.append(idx)
            opened[name] += 1
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                opened[name] -= 1
                stack.pop()
            if inside and opened[inside[0]]:
                counts[inside[1]] += 1
            if after:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Calls and self time (span minus its children's spans) per function."""
        durations = array("d", map(operator.sub, self.end, self.start))
        children = array("d", bytes(8 * len(durations)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += durations[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        span_s: Counter[str] = Counter()
        for name_id, d, c in zip(self.name_id, durations, children):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += d - c
            span_s[name] += d
        for h in HEURISTICS:
            label = f"broker.run_heuristic.{h}"
            calls["broker.run_heuristic"] += calls[label]
            self_s["broker.run_heuristic"] += self_s[label]
        out: dict[str, float] = {}
        for name, _unit in per_layer_names():
            if name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = self_s[name[: -len(".self_s")]]
        out.update({name: self.counts[name] for name, _unit in COUNTERS})
        reduction_s = span_s["diameter.periphery_algorithm"] + span_s["diameter.cp_algorithm"]
        rounds = self.counts["diameter.rounds"]
        out["diameter.round_s"] = reduction_s / rounds if rounds else 0.0
        return out

    def write_spans(self, stem: Path, origin: float) -> None:
        """Write the spans as four native-endian arrays plus a JSON description.

        ``<stem>.bin`` holds the columns one after another: name id (uint32),
        parent span (int32, -1 for none), start and end (float64 seconds on
        the perf_counter clock); ``<stem>.json`` holds the names, the row count
        and the clock reading the trace started at.  A traced oracle run makes
        millions of spans, too many for a text format.
        """
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)
        description = {
            "rows": len(self.start),
            "columns": [["name_id", "uint32"], ["parent", "int32"], ["start", "float64"], ["end", "float64"]],
            "names": self.names,
            "origin": origin,
        }
        stem.with_suffix(".json").write_text(json.dumps(description, indent=1) + "\n", encoding="utf-8")
