"""Spans around braidtel's functions, recorded from outside the package.

`from .linalg import mul` binds the name once per importing module, so a
function is traced by rebinding it in every loaded `braidtel.*` namespace
that holds it, its own module included (intra-module calls look the name
up in module globals at call time).  Every function and method defined in
a layer module other than cli is wrapped, so that the time cli spends in,
say, `teleport.random_ket` is charged to teleport in the layer totals and
not to cli.main's self time.  Each call records a span (id, parent, name,
start, end, op); self time is the span minus its children.  Spans are kept
in memory up to SPAN_CAP and written out by `write_spans`; call counts,
total and self time are aggregated for every call.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# The modules whose time is totalled as layers; every function and method
# defined in them is traced, except in cli, where only main is.  The named
# per-layer metrics read the stats of single functions among these.
LAYERS = ("cli", "linalg", "algebra", "gates", "teleport", "gate_teleport", "tangles", "entanglement")

SPAN_CAP = 200_000


def _matmul_flops(ops) -> int:
    """Real flops of a left-to-right product chain: 8*m*k*n per complex product."""
    flops = 0
    rows, inner = None, None
    for op in ops:
        shape = getattr(op, "shape", ())
        if len(shape) != 2:
            return flops
        if rows is None:
            rows, inner = shape
            continue
        flops += 8 * rows * inner * shape[1]
        inner = shape[1]
    return flops


class Tracer:
    def __init__(self):
        # name -> [calls, total s, self s, entry s]; entry is the time of calls
        # made straight from cli.main, so helper-layer work called by, say,
        # tangles is charged to tangles there (and to linalg in self time).
        self.stats = {}
        self.counts = defaultdict(float)  # derived work counts: bytes, flops, entries
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.enabled = False
        self._next_id = 0
        # frames are [span id, name, accumulated child time]; the root frame absorbs top-level spans
        self._stack = [[-1, "", 0.0]]
        self._installed: list[tuple] = []

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, count):
        stack = self._stack
        spans = self.spans
        stat = self.stats[name] = [0, 0.0, 0.0, 0.0]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[2] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if parent[1] == "cli.main":
                    stat[3] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent[0], name, start, end, self.op))
                else:
                    self.dropped += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin(self, op: int) -> None:
        """Record spans for op `op` until end(); calls outside ops are not traced."""
        self.op = op
        self.enabled = True

    def end(self) -> None:
        self.enabled = False

    def install(self) -> None:
        """Wrap the layers' functions in every loaded braidtel namespace, and their classes' methods."""
        modules = [m for k, m in sys.modules.items() if k == "braidtel" or k.startswith("braidtel.")]
        for layer in LAYERS:
            home = sys.modules[f"braidtel.{layer}"]
            if layer == "cli":
                functions, methods = {"main": home.main}, []
            else:
                functions, methods = _defined_in(home)
            for fname, original in functions.items():
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, _COUNTERS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))
            for cls, attr, descriptor in methods:
                fn = getattr(descriptor, "__func__", descriptor)
                wrapper = self._wrap(f"{layer}.{cls.__name__}.{attr}", fn, None)
                if descriptor is not fn:  # classmethod or staticmethod
                    wrapper = type(descriptor)(wrapper)
                setattr(cls, attr, wrapper)
                self._installed.append((cls, attr, descriptor))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ output

    def by_layer(self) -> dict[str, tuple[float, float]]:
        """layer -> (self time, entry time); cli's entry time is cli.main's self time."""
        out = {layer: [0.0, 0.0] for layer in LAYERS}
        for name, (_, _, self_s, entry_s) in self.stats.items():
            layer = out[name.split(".")[0]]
            layer[0] += self_s
            layer[1] += entry_s
        out["cli"][1] = self.stats["cli.main"][2]
        return {layer: tuple(v) for layer, v in out.items()}

    def write_spans(self, path) -> None:
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
            "dropped_after_cap": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _defined_in(module) -> tuple[dict, list]:
    """Functions defined in `module` by name, and (class, attribute, descriptor) for its classes' methods."""
    functions, methods = {}, []
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            functions[name] = value
        elif inspect.isclass(value):
            for attr, descriptor in vars(value).items():
                if inspect.isfunction(getattr(descriptor, "__func__", descriptor)):
                    methods.append((value, attr, descriptor))
    return functions, methods


def _count_embed(counts, args, result) -> None:
    counts["linalg.embed.bytes"] += result.nbytes  # 16 * 4^n for n sites


def _count_mul(counts, args, result) -> None:
    counts["linalg.mul.flops"] += _matmul_flops(args)


def _count_relations(counts, args, result) -> None:
    counts["algebra.relations"] += sum(len(report.entries) for report in result)


def _count_classes(counts, args, result) -> None:
    counts["tangles.classes"] += len(result)


_COUNTERS = {
    "linalg.embed": _count_embed,
    "linalg.mul": _count_mul,
    "algebra.check_all": _count_relations,
    "algebra.check_brauer": _count_relations,
    "tangles.solve_pauli_eigenvalues": _count_classes,
}
