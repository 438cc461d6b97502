"""Span tracing of the torusclass layers, installed from outside the package.

``Tracer.install`` replaces every binding through which the package calls a
public function: the defining module's global, each module that imported it
by name, and dicts held in module globals (``cli._METHODS`` keeps its own
references to the route functions).  Methods are wrapped on their class, so
``CyclicBurnside.__mul__`` and its alias ``__rmul__`` are both covered.

A span records its name, start, end, parent span and the id of the
(partition, route) call it belongs to.  Spans stay in memory, in flat
arrays, until ``summary`` aggregates them.  A name that has disappeared from
the package is reported as absent with a warning, never as an error, so a
later change to the package does not require an edit here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "torusclass"

# Modules whose public functions are wrapped.  ``None`` means every public
# function defined in the module; ``cli`` is restricted to ``main`` so that
# parsing, rendering and agreement stay in ``cli.main``'s self time.
MODULES = {
    "combinatorics": None,
    "gsets": None,
    "series": None,
    "cyclic": None,
    "schur": None,
    "torus": None,
    "cli": ("main",),
}

# Methods wrapped on public classes, as (module, class, method).
METHODS = (
    ("series", "TruncatedSeries", "invert"),
    ("cyclic", "CyclicBurnside", "__add__"),
    ("cyclic", "CyclicBurnside", "__mul__"),
    ("cyclic", "CyclicBurnside", "from_marks"),
    ("cyclic", "CyclicBurnside", "sigma_series"),
    ("cyclic", "CyclicBurnside", "lambda_series"),
    ("schur", "MarkMatrix", "__init__"),
    ("schur", "MarkMatrix", "basis_from_marks"),
    ("schur", "SchurElement", "from_basis"),
    ("schur", "SchurElement", "from_marks"),
    ("torus", "FiberedAlgebra", "__init__"),
    ("torus", "FiberedAlgebra", "fibers"),
    ("torus", "FiberedAlgebra", "components"),
)

# Memo tables whose hit and miss counts are read, as metric prefix ->
# (module, attribute).  Each is a ``functools.cache`` table.
CACHES = {
    "schur.mark_matrix": ("schur", "mark_matrix"),
    "schur.assignments": ("schur", "_assignments"),
    "torus.units_of_type": ("torus", "_units_of_type"),
}


def _warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


def _set_size(value) -> int | None:
    """Elements materialised in a returned g-set or fibered algebra."""
    size = getattr(value, "size", None)
    if isinstance(size, int) and hasattr(value, "generators"):
        return size
    total, base = getattr(value, "total", None), getattr(value, "base", None)
    if total is not None and base is not None:
        sizes = (_set_size(total), _set_size(base))
        if None not in sizes:
            return sizes[0] + sizes[1]
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.call_id = -1
        self.elements: dict[int, int] = {}
        self.max_elements = 0
        self.absent: list[str] = []
        self.modules: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.call.append(self.call_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_call(self, name: str, call_id: int) -> int:
        """Open the benchmark's own span around one (partition, route) call."""
        self.call_id = call_id
        return self._open(self._name_id(name))

    def end_call(self, i: int) -> None:
        self._close(i)
        self.call_id = -1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            size = _set_size(result)
            if size is not None:
                tracer.elements[nid] = tracer.elements.get(nid, 0) + size
                if size > tracer.max_elements:
                    tracer.max_elements = size
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _module(self, short: str):
        if short not in self.modules:
            try:
                self.modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.modules[short] = None
        return self.modules[short]

    def install(self, extra_methods=()) -> None:
        """Wrap every public function of MODULES and every method of
        METHODS (plus ``extra_methods``) wherever the package resolves it."""
        package = importlib.import_module(PACKAGE)
        replacements: dict[int, object] = {}
        for short, only in MODULES.items():
            mod = self._module(short)
            if mod is None:
                self.absent.append(short)
                _warn(f"module {PACKAGE}.{short} is absent; its layer is not traced")
                continue
            names = only if only is not None else sorted(vars(mod))
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.absent.append(f"{short}.{attr}")
                    _warn(f"{PACKAGE}.{short}.{attr} is absent; not traced")
                    continue
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                replacements[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for short, cls_name, meth in tuple(METHODS) + tuple(extra_methods):
            self._wrap_method(short, cls_name, meth)
        # rebind every reference the package resolves at call time
        modules = [package] + [m for m in self.modules.values() if m is not None]
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if id(value) in replacements:
                    setattr(mod, key, replacements[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replacements:
                            value[k] = replacements[id(v)]

    def _wrap_method(self, short: str, cls_name: str, meth: str) -> None:
        label = f"{short}.{cls_name}.{meth}"
        mod = self._module(short)
        cls = getattr(mod, cls_name, None) if mod is not None else None
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if raw is None:
            self.absent.append(label)
            _warn(f"{PACKAGE}.{label} is absent; not traced")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(label, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(label, raw.__func__))
        elif inspect.isfunction(raw):
            wrapped = self._wrap(label, raw)
        else:
            self.absent.append(label)
            _warn(f"{PACKAGE}.{label} is not a plain method; not traced")
            return
        for key, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, key, wrapped)

    # -- reading -----------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit and miss counts of the memo tables, or nothing for an absent one."""
        out = {}
        for prefix, (short, attr) in CACHES.items():
            mod = self._module(short)
            table = getattr(mod, attr, None) if mod is not None else None
            # a traced public table is reached through its wrapper
            info = getattr(table, "cache_info", None) or getattr(
                getattr(table, "__wrapped__", None), "cache_info", None
            )
            if info is None:
                continue
            stats = info()
            out[prefix] = {"hits": stats.hits, "misses": stats.misses}
        return out

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds, elements.

        Self time is a span's duration minus the durations of its child
        spans; spans of one thread never overlap, so the children's sum is
        the part of the interval they cover.
        """
        count = len(self.start)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        layers: dict[str, dict] = {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            entry = layers.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "elements": 0}
            )
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["self_s"] += duration - covered[i]
            entry["total_s"] += duration
        for nid, size in self.elements.items():
            layers.setdefault(
                self.names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "elements": 0}
            )["elements"] = size
        return {
            "spans": count,
            "wrapped": list(self.names),
            "layers": layers,
            "caches": self.cache_stats(),
            "max_elements": self.max_elements,
            "absent": list(self.absent),
        }
