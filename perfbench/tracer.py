"""Outside-in tracer: spans around ssflab's public functions, installed from
the benchmark's own files without editing the package.

The campaigns bind many functions by name (``from ..model import
assemble_potential``), so patching the defining module alone would miss
their calls.  ``Tracer.install`` therefore replaces every reference to a
wrapped function in every loaded ``ssflab.*`` namespace, and the runner
entries of ``ssflab.experiments.RUNNERS``.  ``uninstall`` restores them.

Each thread keeps its own span stack, so self time (duration minus the time
covered by direct child spans in the same thread) stays right when
``parallel_map`` runs work on a thread pool.  Spans are kept in memory and
reduced to per-layer statistics by ``Tracer.stats``; ``merge_stats`` and
``derive_metrics`` turn one or more of those into the named metrics.

This module imports nothing from ssflab or numpy at import time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

# module -> public functions wrapped; the span name is "<layer>.<function>"
TARGETS = {
    "ssflab.model": ("assemble_potential", "assemble_hamiltonian",
                     "dirichlet_restriction"),
    "ssflab.randomfield": ("sample_couplings", "split_signs"),
    "ssflab.spectral": ("count_below", "eig_all", "heat_semigroup",
                        "trace_norm", "heat_trace"),
    "ssflab.ssf": ("ssf_counting",),
    "ssflab.brownian": ("simulate_hitting", "joint_bound_check"),
    "ssflab.harness.config": ("parse_config",),
    "ssflab.harness.outputs": ("write_all",),
    "ssflab.harness.parallel": ("parallel_map",),
}

# campaign runners that the benchmark workloads call
RUNNERS = ("run_bulk_limit", "run_surface", "run_locality", "run_cluster",
           "run_brownian")


# -- per-call variant and computed work -------------------------------------


def _count_below(args, kwargs, result):
    h = args[0]
    grid = getattr(h, "grid", None)
    if grid is None:
        return "dense", {"sites": len(h)}
    return ("h1d" if grid.dimension == 1 else "hnd"), {"sites": h.n}


def _eig_all(args, kwargs, result):
    """Variant ``<vectors|values>.<solver path>``, following the dispatch of
    ``spectral.eig_all``: closed form for free Hamiltonians without vectors,
    the tridiagonal solver in 1D, the banded solver for wide strips without
    vectors, a dense ``eigh``/``eigvalsh`` otherwise.  Work is Σn³ on the
    dense path and Σn·b² (b = half bandwidth) on the banded path."""
    h = args[0]
    vectors = bool(kwargs.get("need_vectors", args[1] if len(args) > 1 else False))
    if hasattr(h, "grid"):
        n = h.n
        if h.free and not vectors:
            path = "free"
        elif h.grid.dimension == 1 or h.bandwidth <= 1:
            path = "tridiag"
        elif not vectors and n > 512:
            path = "banded"
        else:
            path = "dense"
    else:
        from ssflab.spectral import _as_structure
        n = len(h)
        path = _as_structure(h)[0]
    work = {"max_n": n}
    if path == "dense":
        work["work_n3"] = float(n) ** 3
    elif path == "banded":
        work["work_nb2"] = float(n) * h.bandwidth ** 2
    return f"{'vectors' if vectors else 'values'}.{path}", work


def _ssf_counting(args, kwargs, result):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return None, {"energies": len(grid.values)}


def _paths(args, kwargs, result):
    # simulate_hitting and joint_bound_check both take (x, region, t, paths)
    return None, {"paths": int(kwargs["paths"] if "paths" in kwargs else args[3])}


def _write_all(args, kwargs, result):
    outdir = args[0]
    return None, {"bytes": sum(p.stat().st_size for p in outdir.iterdir()
                               if p.is_file())}


_WORK = {
    "spectral.count_below": _count_below,
    "spectral.eig_all": _eig_all,
    "ssf.ssf_counting": _ssf_counting,
    "brownian.simulate_hitting": _paths,
    "brownian.joint_bound_check": _paths,
    "harness.write_all": _write_all,
}

# work statistics reduced by max instead of sum
_MAX_STATS = ("max_n",)

# span-name prefixes of campaign glue: their self time is not layer time
GLUE = ("experiments.", "harness.parallel_map")


def _fold(into: dict, entry: dict) -> None:
    """Add the statistics of entry to into (max for _MAX_STATS)."""
    for stat, value in entry.items():
        if stat in _MAX_STATS:
            into[stat] = max(into.get(stat, 0), value)
        else:
            into[stat] = into.get(stat, 0) + value


class Tracer:
    """Span recorder with one span stack per thread.

    ``Tracer(layers=False)`` wraps the campaign runners only; its one span
    per run gives the instant of the first campaign call at no measurable
    cost, which untraced runs need for ``setup_s``."""

    def __init__(self, layers: bool = True):
        self.layers = layers
        self._local = threading.local()
        self._patched: list = []  # (namespace dict, key, original)
        self.spans: list = []     # (key, self_s, dur, work)
        self.first_call = None    # perf_counter at the first runner call
        self.busy_s = 0.0         # parallel_map: time items spent in fn
        self.slot_s = 0.0         # parallel_map: workers x map wall time

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        work_of = _WORK.get(name)
        runner = name.startswith("experiments.run_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            t0 = perf_counter()
            if runner and self.first_call is None:
                self.first_call = t0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key, work = name, {}
                if work_of is not None:
                    variant, work = work_of(args, kwargs, result)
                    if variant:
                        key = f"{name}.{variant}"
                self.spans.append((key, dur - frame[0], dur, work))
        return traced

    def _wrap_parallel_map(self, fn):
        traced = self._wrap("harness.parallel_map", fn)
        lock = threading.Lock()

        @functools.wraps(fn)
        def measured(work_fn, items, workers=1):
            busy = []
            item_span = self._wrap("experiments.map_item", work_fn)

            def timed(item):
                t = perf_counter()
                try:
                    return item_span(item)
                finally:
                    busy.append(perf_counter() - t)

            t0 = perf_counter()
            try:
                return traced(timed, items, workers)
            finally:
                wall = perf_counter() - t0
                with lock:
                    self.busy_s += sum(busy)
                    self.slot_s += max(int(workers), 1) * wall
        return measured

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target and rebind each ssflab reference to it."""
        import ssflab.harness.cli  # noqa: F401  (loads every campaign module)
        from ssflab.experiments import RUNNERS as runner_table

        wrappers = {}  # id(original) -> (original, wrapper)
        for modname, names in (TARGETS.items() if self.layers else ()):
            mod = importlib.import_module(modname)
            for fname in names:
                fn = getattr(mod, fname)
                name = f"{modname.split('.')[1]}.{fname}"  # ssflab.<layer>[.<sub>]
                wrappers[id(fn)] = (fn, self._wrap_parallel_map(fn)
                                    if name == "harness.parallel_map"
                                    else self._wrap(name, fn))
        for fn in runner_table.values():
            wrappers[id(fn)] = (fn, self._wrap(f"experiments.{fn.__name__}", fn))

        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "ssflab" or n.startswith("ssflab.")]
        namespaces.append(runner_table)
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, key, value))
                    ns[key] = hit[1]
        return self

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def stats(self, wall_s: float) -> dict:
        """Per-span-name totals, plus the layer time (self time of every span
        that is not campaign glue) that coverage needs and the busy and slot
        times of the busy ratio."""
        layers: dict = {}
        layer_s = 0.0
        for key, self_s, _, work in self.spans:
            _fold(layers.setdefault(key, {}), dict(work, calls=1, self_s=self_s))
            if not key.startswith(GLUE):
                layer_s += self_s
        return {"layers": layers, "layer_s": layer_s, "wall_s": wall_s,
                "busy_s": self.busy_s, "slot_s": self.slot_s}


def merge_stats(parts) -> dict:
    """Combine the stats of several traced processes (one workload run)."""
    out = {"layers": {}, "layer_s": 0.0, "wall_s": 0.0, "busy_s": 0.0,
           "slot_s": 0.0}
    for part in parts:
        for field in ("layer_s", "wall_s", "busy_s", "slot_s"):
            out[field] += part[field]
        for key, entry in part["layers"].items():
            _fold(out["layers"].setdefault(key, {}), entry)
    return out


# -- named per-layer metrics ------------------------------------------------

_STAT_UNITS = {"calls": "count", "self_s": "s", "sites": "count",
               "max_n": "count", "work_n3": "count", "work_nb2": "count",
               "energies": "count",
               "paths": "count", "bytes": "B"}


def _layer_metrics():
    """(metric name, span key, stat) for every per-layer statistic."""
    out = []

    def add(key, *stats):
        out.extend((f"{key}.{s}", key, s) for s in stats)

    for op in ("h1d", "hnd", "dense"):
        add(f"spectral.count_below.{op}", "calls", "self_s", "sites")
    add("spectral.eig_all.vectors.dense", "calls", "self_s", "max_n", "work_n3")
    add("spectral.eig_all.vectors.tridiag", "calls", "self_s", "max_n")
    add("spectral.eig_all.values.dense", "calls", "self_s", "max_n", "work_n3")
    add("spectral.eig_all.values.banded", "calls", "self_s", "max_n", "work_nb2")
    add("spectral.eig_all.values.tridiag", "calls", "self_s", "max_n")
    add("spectral.eig_all.values.free", "calls", "self_s", "max_n")
    for fn in ("heat_semigroup", "trace_norm", "heat_trace"):
        add(f"spectral.{fn}", "calls", "self_s")
    add("ssf.ssf_counting", "calls", "self_s", "energies")
    for fn in TARGETS["ssflab.model"]:
        add(f"model.{fn}", "calls", "self_s")
    for fn in TARGETS["ssflab.randomfield"]:
        add(f"randomfield.{fn}", "calls", "self_s")
    for fn in TARGETS["ssflab.brownian"]:
        add(f"brownian.{fn}", "calls", "self_s", "paths")
    for fn in RUNNERS:
        add(f"experiments.{fn}", "self_s")
    add("experiments.map_item", "calls", "self_s")
    add("harness.parse_config", "self_s")
    add("harness.write_all", "self_s", "bytes")
    return out


LAYER_METRICS = _layer_metrics()

# metrics about the trace itself and the thread pool
EXTRA_METRICS = (
    ("harness.parallel_map.busy_ratio", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_spec() -> list:
    """The per_layer entries of BENCHMARK.json, in emission order."""
    spec = [{"name": name, "unit": _STAT_UNITS[stat], "better": "lower"}
            for name, _, stat in LAYER_METRICS]
    spec += [{"name": n, "unit": u, "better": b} for n, u, b in EXTRA_METRICS]
    return spec


def coverage(stats: dict) -> float:
    """Share of cli.main wall time spent in wrapped layers, campaign glue
    excluded: it falls when a layer goes unwrapped."""
    return stats["layer_s"] / stats["wall_s"] if stats["wall_s"] > 0 else 0.0


def derive_metrics(w1: dict, w2: dict) -> dict:
    """Named per-layer values from merged stats of a 1-worker and a
    2-worker traced run; layers a workload never calls read 0.  The
    overhead needs untraced runs too and is left to the caller."""
    values = {}
    for name, key, stat in LAYER_METRICS:
        values[name] = w1["layers"].get(key, {}).get(stat, 0)
    values["harness.parallel_map.busy_ratio"] = (
        w2["busy_s"] / w2["slot_s"] if w2["slot_s"] > 0 else 0.0)
    values["trace.coverage"] = coverage(w1)
    return values
