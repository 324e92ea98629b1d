"""Per-layer tracing for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the siegel_dims layer
modules in each namespace of the package that binds it, so the names that
``from .arithmetic import is_prime`` binds in dimensions, tables and cli are
wrapped too, and it wraps ``Decomposition.__post_init__`` at the class.
Coarse calls record a span (name, start, end, parent).  Hot leaves, called
once per term or per solution, only add to a per-name call count and time,
because a span per call would cost more than the call.  A span's self time is
its duration minus the time its child spans and leaves cover.

The wrappers are installed for a traced pass and removed after it, so
untraced passes run the library untouched.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import oracle

LAYERS = ("arithmetic", "irreps", "dimensions", "newforms", "tables", "verification", "cli")

HOT_LEAVES = frozenset({
    "arithmetic.is_prime",
    "arithmetic.require_prime",
    "arithmetic.require_odd_prime",
    "arithmetic.legendre_symbol",
    "arithmetic.as_integer",
    "irreps.irrep_dim",
    "newforms.Decomposition.__post_init__",
})

# What a span keeps of its call for the metrics: an argument ...
_KEYS = {
    "arithmetic.parse_square_free_level": lambda args, kwargs: args[0],
    "newforms.count_decompositions": lambda args, kwargs: (
        args[0], args[1], (args[2:] or [kwargs.get("include_nonunitary", False)])[0]),
}
# ... or the size of its result.
_NOTES = {
    "tables.emit_table": lambda text: len(text.encode()),
    "verification.run_all_checks": lambda report: len(report.checks),
}

# Span record fields.  A leaf frame is [index of the enclosing span, child_s],
# so for every frame on the stack [0] names the nearest span and [-1] is the
# time its children cover.
_INDEX, _PARENT, _NAME, _START, _END, _KEY, _NOTE, _CHILD = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("siegel_dims")
        modules = [importlib.import_module(f"siegel_dims.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for namespace in (package, *modules):
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, name, wrappers[obj])
        decomposition = modules[LAYERS.index("newforms")].Decomposition
        self._patch(decomposition, "__post_init__", self.wrap(
            "newforms.Decomposition.__post_init__", vars(decomposition)["__post_init__"]))

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def _patch(self, target, name, wrapper) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, wrapper)

    def wrap(self, name: str, fn, key=None):
        """``fn`` recorded as a leaf aggregate, or as a span keeping ``key``."""
        stack, clock = self._stack, time.perf_counter
        if name in HOT_LEAVES:
            agg = self.leaves[name]

            def leaf(*args, **kwargs):
                frame = [stack[-1][0] if stack else -1, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[-1]
                    if stack:
                        stack[-1][-1] += elapsed

            return leaf

        spans = self.spans
        key_of = _KEYS.get(name)
        note_of = _NOTES.get(name)

        def span(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0,
                      key if key_of is None else key_of(args, kwargs), None, 0.0]
            spans.append(record)
            stack.append(record)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
                if stack:
                    stack[-1][-1] += record[_END] - record[_START]
            if note_of is not None:
                record[_NOTE] = note_of(result)
            return result

        return span

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("index", "parent", "name", "start", "end", "key", "note", "child_s")
        with open(path, "w") as out:
            json.dump({"fields": fields, "spans": self.spans,
                       "leaves": {n: dict(zip(("calls", "total_s", "self_s"), v))
                                  for n, v in self.leaves.items()}}, out, default=str)


# --- per-layer metrics -----------------------------------------------------

# name -> unit, in the order they are reported.
UNITS = {
    "newforms.build.calls": "count",
    "newforms.build.self_s": "s",
    "newforms.enumerate.self_s": "s",
    "irreps.irrep_dim.calls": "count",
    "arithmetic.is_prime.calls": "count",
    "arithmetic.is_prime.calls_per_solution": "ratio",
    "newforms.count.calls": "count",
    "newforms.count.self_s": "s",
    "newforms.count.dp_cells": "count",
    "newforms.analyze.self_s": "s",
    "newforms.bounds.self_s": "s",
    "arithmetic.parse_square_free_level.calls": "count",
    "arithmetic.parse_square_free_level.self_s": "s",
    "arithmetic.factorings_per_level": "ratio",
    "tables.factorings_per_level": "ratio",
    "dimensions.calls": "count",
    "dimensions.self_s": "s",
    "irreps.table_at.self_s": "s",
    "tables.emit_table.self_s": "s",
    "tables.bytes_out": "B",
    "verification.run_all_checks.self_s": "s",
    "verification.checks": "count",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer values from ``passes`` traced passes.

    The ``cli.startup_s``, ``cli.stdout_bytes`` and ``trace.overhead_s``
    entries are left at 0 for the caller, which has the untraced timings.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    root: list[int] = []
    in_table: list[bool] = []  # the span is emit_table or runs inside one
    levels_factored = set()
    table_factorings, table_levels = 0, set()
    dp_cells = bytes_out = checks = 0
    for rec in tracer.spans:
        name = rec[_NAME]
        calls[name] += 1
        self_s[name] += rec[_END] - rec[_START] - rec[_CHILD]
        parent = rec[_PARENT]
        root.append(rec[_INDEX] if parent == -1 else root[parent])
        in_table.append(name == "tables.emit_table" or (parent != -1 and in_table[parent]))
        if name == "arithmetic.parse_square_free_level":
            levels_factored.add((root[-1], rec[_KEY]))
            if in_table[-1]:
                table_factorings += 1
                table_levels.add((root[-1], rec[_KEY]))
        elif name == "newforms.count_decompositions":
            dp_cells += oracle.dp_cells(*rec[_KEY])
        elif name == "tables.emit_table" and rec[_NOTE] is not None:
            bytes_out += rec[_NOTE]
        elif name == "verification.run_all_checks" and rec[_NOTE] is not None:
            checks += rec[_NOTE]
    for name, (n, _, own) in tracer.leaves.items():
        calls[name] += n
        self_s[name] += own

    build = calls["newforms.Decomposition.__post_init__"]
    factorings = calls["arithmetic.parse_square_free_level"]
    dims = [n for n in calls if n.startswith("dimensions.")]
    values = {
        "newforms.build.calls": build,
        "newforms.build.self_s": self_s["newforms.Decomposition.__post_init__"],
        "newforms.enumerate.self_s": self_s["newforms.decompose"],
        "irreps.irrep_dim.calls": calls["irreps.irrep_dim"],
        "arithmetic.is_prime.calls": calls["arithmetic.is_prime"],
        "newforms.count.calls": calls["newforms.count_decompositions"],
        "newforms.count.self_s": self_s["newforms.count_decompositions"],
        "newforms.count.dp_cells": dp_cells,
        "newforms.analyze.self_s": self_s["newforms.analyze_level"],
        "newforms.bounds.self_s": self_s["newforms.bounds_prime"] + self_s["newforms.bounds_squarefree"],
        "arithmetic.parse_square_free_level.calls": factorings,
        "arithmetic.parse_square_free_level.self_s": self_s["arithmetic.parse_square_free_level"],
        "dimensions.calls": sum(calls[n] for n in dims),
        "dimensions.self_s": sum(self_s[n] for n in dims),
        "irreps.table_at.self_s": self_s["irreps.table_at"],
        "tables.emit_table.self_s": self_s["tables.emit_table"],
        "tables.bytes_out": bytes_out,
        "verification.run_all_checks.self_s": self_s["verification.run_all_checks"],
        "verification.checks": checks,
        "cli.main.self_s": self_s["cli.main"],
    }
    values = {name: value / passes for name, value in values.items()}
    # Ratios are taken over all passes; levels are counted once per operation.
    values["arithmetic.is_prime.calls_per_solution"] = (
        calls["arithmetic.is_prime"] / build if build else 0.0)
    values["arithmetic.factorings_per_level"] = (
        factorings / len(levels_factored) if levels_factored else 0.0)
    values["tables.factorings_per_level"] = (
        table_factorings / len(table_levels) if table_levels else 0.0)
    for name in ("cli.startup_s", "cli.stdout_bytes", "trace.overhead_s"):
        values[name] = 0.0
    return {name: values[name] for name in UNITS}
