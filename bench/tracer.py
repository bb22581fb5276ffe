"""Call tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of each ercd module from
outside the program: nothing under ``src/`` knows about it. Each wrapped
call is timed with ``time.perf_counter``; the tracer keeps, per wrapped
function, the call count, the count of "hits" (returns that are neither
``None`` nor ``False``), the inclusive time of non-reentrant calls and the
self time (duration minus the time covered by wrapped children). Per layer
it keeps the same self time and the inclusive time of outermost entries.

A span is recorded for every call that crosses a layer boundary (its
nearest wrapped caller belongs to another layer, or there is none). Spans
are held in memory and written out once, by ``write``.

Names are patched where they are defined and wherever a loaded ercd module
binds the same object: module globals and the values of module-level
dicts (``suites`` keeps constructors in a dict). A module imported later,
such as the lazily imported sympy oracle, is patched when it is imported.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Set, Tuple

# module -> layer. ercd.scalars (exact scalars) and ercd.duals (dual
# numbers) are left out, and so are the tuple-matrix helpers of operators
# (SKIP): they are the innermost arithmetic, hundreds of thousands of calls
# whose wrapping would cost more than the work. Their time counts as self
# time of the wrapped function that calls them: GeneralOp.__matmul__ and
# ExactSpan for scalars, symbol evaluation and the closure fit for duals.
LAYERS: Dict[str, str] = {
    "ercd.operators": "operators",
    "ercd.spans": "spans",
    "ercd.relations": "relations",
    "ercd.algebras": "algebras",
    "ercd.symbols": "symbols",
    "ercd.xops": "xops",
    "ercd.poincare_oracle": "poincare_oracle",
    "ercd.reporting": "reporting",
    "ercd.suites": "suites",
    "ercd.cli": "suites",
}

SKIP = frozenset(f"ercd.operators.{name}" for name in (
    "mat", "mzero", "mident", "madd", "mneg", "mscale", "mmul", "mconj",
    "mtrans", "mdagger", "meq", "mis_zero"))

DUNDERS = ("__matmul__", "__add__", "__sub__", "__neg__", "__eq__",
           "__hash__", "__call__")


class _Stat:
    __slots__ = ("layer", "calls", "hits", "incl", "self_s", "active")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.hits = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Wraps ercd functions and accumulates counts, times and spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, _Stat] = {}
        self.layer_self: Dict[str, float] = {}
        self.layer_incl: Dict[str, float] = {}
        self._layer_active: Dict[str, int] = {}
        # frames: [child_time, layer, span_id]
        self._stack: List[list] = []
        # spans: (stat key, parent span id, start, end); -1 = no parent
        self.spans: List[Optional[Tuple[str, int, float, float]]] = []
        self._wrappers: Set[int] = set()  # ids, so nothing is wrapped twice

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, key: str, layer: str) -> Callable:
        """Return a timing wrapper around fn, registered under key."""
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat(layer)
            self.layer_self.setdefault(layer, 0.0)
            self.layer_incl.setdefault(layer, 0.0)
            self._layer_active.setdefault(layer, 0)
        stack = self._stack
        spans = self.spans
        clock = self.clock
        layer_active = self._layer_active
        layer_self = self.layer_self
        layer_incl = self.layer_incl

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            psid = -1 if parent is None else parent[2]
            if parent is None or parent[1] != layer:
                sid = len(spans)
                spans.append(None)
                frame = [0.0, layer, sid]
            else:
                sid = -1
                frame = [0.0, layer, psid]
            stack.append(frame)
            st.active += 1
            layer_active[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                st.calls += 1
                st.active -= 1
                if st.active == 0:
                    st.incl += dt
                layer_active[layer] -= 1
                if layer_active[layer] == 0:
                    layer_incl[layer] += dt
                own = dt - frame[0]
                st.self_s += own
                layer_self[layer] += own
                if parent is not None:
                    parent[0] += dt
                if sid >= 0:
                    spans[sid] = (key, psid, t0, t1)
            if result is not None and result is not False:
                st.hits += 1
            return result

        # lru_cache wrappers expose their cache API as methods of the C
        # type, which functools.wraps does not copy
        for name in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, name):
                setattr(wrapper, name, getattr(fn, name))
        self._wrappers.add(id(wrapper))
        return wrapper

    def install(self) -> None:
        """Patch every loaded module of LAYERS, and the rest on import."""
        pending = []
        for name in LAYERS:
            if name in sys.modules:
                self._patch_module(sys.modules[name])
            else:
                pending.append(name)
        if pending:
            sys.meta_path.insert(0, _PatchOnImport(self, pending))

    def _patch_module(self, module: types.ModuleType) -> None:
        modname = module.__name__
        layer = LAYERS[modname]
        short = modname.rsplit(".", 1)[-1]
        replaced: Dict[int, Callable] = {}
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, type) and obj.__module__ == modname:
                self._patch_class(obj, f"{short}.{obj.__qualname__}", layer)
            elif _is_function(obj) and obj.__module__ == modname \
                    and f"{modname}.{name}" not in SKIP \
                    and id(obj) not in self._wrappers:
                wrapped = self.wrap(obj, f"{short}.{name}", layer)
                setattr(module, name, wrapped)
                replaced[id(obj)] = wrapped
        self._rebind(replaced)

    def _patch_class(self, cls: type, prefix: str, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = f"{prefix}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                inner = raw.__func__
                if id(inner) in self._wrappers:
                    continue
                setattr(cls, name, type(raw)(self.wrap(inner, key, layer)))
            elif isinstance(raw, types.FunctionType) \
                    and id(raw) not in self._wrappers:
                setattr(cls, name, self.wrap(raw, key, layer))

    def _rebind(self, replaced: Dict[int, Callable]) -> None:
        """Point every other binding of a wrapped function at its wrapper."""
        if not replaced:
            return
        for modname in LAYERS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and obj is not replaced[id(obj)]:
                    setattr(module, name, replaced[id(obj)])
                elif type(obj) is dict:
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "functions": {k: {"layer": s.layer, "calls": s.calls,
                              "hits": s.hits, "incl_s": s.incl,
                              "self_s": s.self_s}
                          for k, s in sorted(self.stats.items())},
            "layers": {layer: {"self_s": self.layer_self[layer],
                               "incl_s": self.layer_incl[layer]}
                       for layer in sorted(self.layer_self)},
        }

    def write(self, path: str) -> None:
        """Write the summary and every recorded span as one JSON file."""
        doc = self.summary()
        doc["span_columns"] = ["id", "name", "parent", "start", "end"]
        doc["spans"] = [[i, s[0], s[1], s[2], s[3]]
                        for i, s in enumerate(self.spans) if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _is_function(obj) -> bool:
    # plain functions and lru_cache wrappers; a module-level instance with
    # __call__ (a constant symbol, say) is data, not a function to wrap
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "__wrapped__")
        and hasattr(obj, "cache_info"))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a pending ercd module right after it first executes."""

    def __init__(self, tracer: Tracer, names):
        self.tracer = tracer
        self.pending = set(names)

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        self.pending.discard(fullname)
        loader = spec.loader
        tracer = self.tracer
        exec_module = loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            tracer._patch_module(module)

        loader.exec_module = exec_and_patch
        return spec
