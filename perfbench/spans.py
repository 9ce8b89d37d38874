"""Timing spans recorded around vpb_spectral's public functions, from outside.

The recorder replaces each traced function everywhere a caller looks it up:
every ``vpb_spectral`` module attribute bound to the original function
object (``from .x import f`` makes one per importing module) and, for
methods, the class attribute.  Nothing under ``src/`` is edited.  Spans
carry a parent link, stay in memory, and are written out once the job ends;
``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pkgutil
import sys
import threading
import time
import tracemalloc

MB = 1024.0 * 1024.0


def _path_bytes(args, kwargs, result):
    """Size of the cache file just read or written."""
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _method_attrs(args, kwargs, result):
    return {"method": result.method}


# (module, function, attribute hook): module-level functions
FUNCTIONS = (
    ("velocity_space", "build_basis", None),
    ("collision", "assemble_collision", None),
    ("cache", "read_matrix", _path_bytes),
    ("cache", "write_matrix", _path_bytes),
    ("mode_operator", "mode_operator", None),
    ("dispersion", "hydrodynamic_spectrum", None),
    ("dispersion", "solve_D0", None),
    ("dispersion", "solve_D1", None),
    ("dispersion", "asymptotic_coefficients", None),
    ("transport", "compute_kappas", None),
    ("transport", "kappas_with_error", None),
    ("semigroup", "propagate_kinetic", _method_attrs),
    ("semigroup", "fluid_semigroup_V", None),
    ("limit_lab", "make_initial_data", None),
    ("limit_lab", "run_convergence_study", None),
)
# (module, class, method)
METHODS = (
    ("mode_operator", "FourierMode", "eigensystem"),
)
# spans whose allocation peak is taken with tracemalloc
PEAK_MEMORY = ("collision.assemble_collision",)

ROOT = "cli.main"


class Recorder:
    """In-memory span list with one root span (the ``cli.main`` call)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_id = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, name, fn, attrs_hook, args, kwargs):
        stack = self._stack()
        # a worker thread's outermost span belongs to the root call
        parent = stack[-1] if stack else self._root_id
        span_id = next(self._ids)
        stack.append(span_id)
        peak = name in PEAK_MEMORY and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        attrs = {}
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs_hook is not None:
                attrs = attrs_hook(args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            if peak:
                attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            stack.pop()
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "t0": t0, "t1": t1, "attrs": attrs})

    def wrap(self, name, fn, attrs_hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, attrs_hook, args, kwargs)
        return traced

    def call_root(self, fn, *args):
        """Run fn as the root span; returns its result."""
        self._root_id = next(self._ids)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append({"id": self._root_id, "parent": None, "name": ROOT,
                               "t0": t0, "t1": time.perf_counter(), "attrs": {}})

    def install(self, package: str = "vpb_spectral") -> None:
        """Wrap every traced function wherever the package's modules bind it."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{info.name}")
                           for info in pkgutil.iter_modules(pkg.__path__)
                           if info.name != "__main__"]
        for mod_name, fn_name, hook in FUNCTIONS:
            home = sys.modules.get(f"{package}.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{mod_name}"), cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", orig))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_totals(spans) -> dict:
    """Per span name: calls, total time, self time and each call's attributes.

    A span nested inside another of the same name adds to the call count but
    not to the total, so recursion is not counted twice.
    """
    by_id = {sp["id"]: sp for sp in spans}
    children: dict = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    out: dict = {}
    for sp in spans:
        entry = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "attrs": []})
        entry["calls"] += 1
        entry["attrs"].append(sp["attrs"])
        kids = [(c["t0"], c["t1"]) for c in children.get(sp["id"], [])]
        dur = sp["t1"] - sp["t0"]
        entry["self_s"] += dur - _covered(kids)
        parent, nested = sp["parent"], False
        while parent is not None:
            anc = by_id[parent]
            if anc["name"] == sp["name"]:
                nested = True
                break
            parent = anc["parent"]
        if not nested:
            entry["s"] += dur
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced job, as {name: (value, unit)}."""
    tot = span_totals(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []}

    def get(name):
        return tot.get(name, empty)

    m: dict = {}

    def timing(name, *, total=True, self_time=False, calls=False):
        e = get(name)
        if total:
            m[f"{name}_s"] = (e["s"], "s")
        if self_time:
            m[f"{name}_self_s"] = (e["self_s"], "s")
        if calls:
            m[f"{name}_calls"] = (e["calls"], "count")

    timing("mode_operator.eigensystem", calls=True)
    timing("mode_operator.mode_operator", calls=True)
    m["mode_operator.eig_per_mode"] = (
        _ratio(get("mode_operator.eigensystem")["calls"],
               get("mode_operator.mode_operator")["calls"]), "ratio")
    timing("semigroup.propagate_kinetic", self_time=True, calls=True)
    prop = get("semigroup.propagate_kinetic")
    m["semigroup.ode_share"] = (
        _ratio(sum(a.get("method") == "ode" for a in prop["attrs"]), prop["calls"]),
        "ratio")
    timing("semigroup.fluid_semigroup_V")
    timing("dispersion.asymptotic_coefficients")
    timing("limit_lab.make_initial_data")
    timing("limit_lab.run_convergence_study", self_time=True)
    timing("dispersion.hydrodynamic_spectrum", self_time=True, calls=True)
    timing("dispersion.solve_D0", calls=True)
    timing("dispersion.solve_D1", calls=True)
    timing("collision.assemble_collision", calls=True)
    m["collision.assemble_peak_mb"] = (
        max((a.get("peak_bytes", 0) for a in get("collision.assemble_collision")["attrs"]),
            default=0) / MB, "MB")
    for op, key in (("write_matrix", "bytes_written"), ("read_matrix", "bytes_read")):
        timing(f"cache.{op}", calls=True)
        m[f"cache.{key}"] = (sum(a["bytes"] for a in get(f"cache.{op}")["attrs"]), "B")
    m["cache.hit_ratio"] = (
        _ratio(get("cache.read_matrix")["calls"],
               get("collision.assemble_collision")["calls"]), "ratio")
    timing("transport.compute_kappas")
    timing("transport.kappas_with_error", total=False, self_time=True)
    timing("velocity_space.build_basis")
    m["cli.self_s"] = (get(ROOT)["self_s"], "s")
    return m
