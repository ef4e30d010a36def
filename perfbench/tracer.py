"""Outside-in tracing of the rxnscope layers.

The tracer wraps every public function of every rxnscope module at each
import site (``executor``, ``tools``, ``metrics`` and ``rgroup`` import
functions by name, so patching the defining module alone would miss
their calls), plus ``MolecularGraph.bond_between``/``adjacency`` and
``ToolRegistry.invoke`` (one span name per tool). Each call becomes a
span; a span's self time is its duration minus the time of the wrapped
calls it made. Per name the tracer keeps calls, self time, inclusive
time and distinct string first arguments per op. Spans stay in memory
and are written out by :meth:`Tracer.write_spans` when the run ends.
``restore`` puts every original back.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter_ns

# Leaf calls made tens of thousands of times per op: they are counted and
# timed like every other span, but not kept as individual span records.
UNRECORDED = frozenset(
    {
        "molgraph.MolecularGraph.bond_between",
        "molgraph.MolecularGraph.adjacency",
        "substructure.atoms_compatible",
        "substructure.bonds_compatible",
        "molgraph.is_placeholder_label",
    }
)
MAX_SPANS = 500_000  # about 70 MB of span tuples


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class _Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "distinct", "op_args")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.distinct = 0  # sum over ops of distinct string first arguments
        self.op_args: set = set()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span_id, child_ns]
        self._next_id = 1
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded rxnscope module."""
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "rxnscope" or name.startswith("rxnscope."))
        }
        wrappers: dict[int, object] = {}
        for name, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == name
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{_short(name)}.{attr}")
        for mod in modules.values():
            for attr, obj in sorted(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        from rxnscope.agents.tools import ToolRegistry
        from rxnscope.molgraph import MolecularGraph

        for method in ("bond_between", "adjacency"):
            original = vars(MolecularGraph)[method]
            self._patch(
                MolecularGraph, method,
                self._wrap(original, f"molgraph.MolecularGraph.{method}"),
            )
        self._patch(ToolRegistry, "invoke", self._wrap_invoke(vars(ToolRegistry)["invoke"]))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans -----------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        for stat in self.stats.values():
            stat.op_args.clear()

    def end_op(self) -> None:
        for stat in self.stats.values():
            stat.distinct += len(stat.op_args)
            stat.op_args.clear()

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _wrap(self, fn, name: str):
        tracer = self
        stat = self._stat(name)
        record = name not in UNRECORDED
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[1]
                if args and type(args[0]) is str:
                    stat.op_args.add(args[0])
                if record:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((tracer._op, span_id, parent, name, start, end))
                    else:
                        tracer.spans_dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _wrap_invoke(self, invoke):
        per_tool: dict[str, object] = {}

        def run_tool(registry, name, ctx, request):
            return invoke(registry, name, ctx, request)

        def traced_invoke(registry, name, ctx, request):
            wrapped = per_tool.get(name)
            if wrapped is None:
                wrapped = per_tool[name] = self._wrap(run_tool, f"agents.tool.{name}")
            return wrapped(registry, name, ctx, request)

        traced_invoke.__wrapped__ = invoke
        return traced_invoke

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: op, id, parent, name, start/end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
