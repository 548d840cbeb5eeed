"""Outside-in tracer: wraps the public functions of each torusconj layer
from outside the package and records one span per call.

A span is (function, start, end, parent span, job id). Spans live in flat
arrays while the benchmark runs and are written out once at the end.
Counters that need call arguments (points per trig call, sweep sizes,
fiber points, ...) are bumped by per-function hooks at the same boundary.

``install`` rebinds every module attribute that holds a wrapped function,
so names imported with ``from .x import f`` and the package re-exports go
through the wrapper too. Nothing is wrapped until ``install`` is called.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "specdsl", "intlat", "dynamics", "_kernels", "semiconj",
          "cones", "conjmap")
# _kernels is wrapped at these entry points only (its numba twins and the
# inner orbit loop stay unwrapped, so a span is one kernel call).
KERNEL_FUNCS = ("eval_trig", "eval_trig_numpy", "eval_trig_jac_numpy",
                "orbit_g_values", "invert_lift_numpy")
TRIG_FUNCS = ("_kernels.eval_trig", "_kernels.eval_trig_numpy")


def _arg(args, kwargs, idx, name):
    return args[idx] if len(args) > idx else kwargs[name]


def _npoints(z, d):
    return int(np.asarray(z).size // d)


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.func"
        self.layer_of: list[str] = []
        self.func = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.top = array("b")               # 1 unless nested in the same function
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = defaultdict(int)      # "layer.func" -> call depth
        self.counts = defaultdict(float)
        self.recording = False
        self.job_id = -1
        self._wrappers: dict = {}           # id(original) -> (original, wrapper)
        self._bound: list[tuple] = []       # (module, attribute, original)

    # ----------------------------------------------------------- wrapping

    def wrap(self, layer, name, fn):
        fid = len(self.names)
        qual = f"{layer}.{name}"
        self.names.append(qual)
        self.layer_of.append(layer)
        pre = PRE_HOOKS.get(qual)
        post = POST_HOOKS.get(qual)
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            i = len(tr.func)
            tr.func.append(fid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.job.append(tr.job_id)
            tr.top.append(tr.active[qual] == 0)
            tr.failed.append(0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            if pre is not None:
                pre(tr, args, kwargs)
            tr.stack.append(i)
            tr.active[qual] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.failed[i] = 1
                raise
            finally:
                t1 = perf_counter()
                tr.active[qual] -= 1
                tr.stack.pop()
                tr.start[i] = t0
                tr.end[i] = t1
            if post is not None:
                post(tr, result, args, kwargs)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, package="torusconj"):
        """Wrap each layer's public functions (once per tracer) and rebind
        every reference held by a module attribute of the package."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"{package}.{layer}"]
                for name in _targets(mod, layer):
                    fn = getattr(mod, name)
                    self._wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    # ------------------------------------------------------------ results

    def arrays(self):
        n = len(self.func)
        return {
            "names": np.array(self.names),
            "layers": np.array(self.layer_of),
            "func": np.frombuffer(self.func, dtype=np.int_, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_, count=n).copy(),
            "job": np.frombuffer(self.job, dtype=np.int_, count=n).copy(),
            "top": np.frombuffer(self.top, dtype=np.int8, count=n).astype(bool),
            "failed": np.frombuffer(self.failed, dtype=np.int8, count=n).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
        }

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, **self.arrays())


def _targets(mod, layer):
    if layer == "_kernels":
        return [n for n in KERNEL_FUNCS if callable(getattr(mod, n, None))]
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        out.append(name)
    return out


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of direct children."""
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


# ---------------------------------------------------------------- hooks

def _count_trig(tr, args, kwargs):
    # count each trig evaluation once: eval_trig dispatches to eval_trig_numpy
    if any(tr.active[q] for q in TRIG_FUNCS):
        return
    Z = _arg(args, kwargs, 0, "Z")
    coefs = _arg(args, kwargs, 2, "coefs")
    n = Z.shape[0]
    c = tr.counts
    c["kernels.trig_calls"] += 1
    c["kernels.trig_points"] += n
    c["kernels.trig_term_evals"] += n * len(coefs)
    if tr.active["_kernels.invert_lift_numpy"]:
        c["dynamics.invert_lift_iters"] += 1


def _count_sweep(tr, args, kwargs):
    theta0 = _arg(args, kwargs, 0, "theta0")
    nsteps = int(_arg(args, kwargs, 6, "nsteps"))
    n, d = theta0.shape
    c = tr.counts
    c["kernels.sweep_point_steps"] += n * nsteps
    c["kernels.sweep_bytes_max"] = max(c["kernels.sweep_bytes_max"], nsteps * n * d * 8)


def _count_invert(tr, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    tr.counts["dynamics.invert_lift_points"] += _npoints(_arg(args, kwargs, 1, "z"), spec.d)


def _count_phi(tr, args, kwargs):
    engine = _arg(args, kwargs, 0, "engine")
    n = _npoints(_arg(args, kwargs, 1, "z"), engine.d)
    c = tr.counts
    c["semiconj.phi_calls"] += 1
    c["semiconj.phi_points"] += n
    if tr.active["conjmap.skew_product_residual"] or tr.active["conjmap.H_inverse"]:
        c["conjmap.phi_points"] += n


def _count_engine(tr, result, args, kwargs):
    tr.counts["semiconj.N_sum"] += result.N
    tr.counts["semiconj.engines"] += 1


def _count_csv(tr, result, args, kwargs):
    tr.counts["semiconj.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))


def _count_cells(tr, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    tr.counts["cones.cell_checks"] += int(_arg(args, kwargs, 2, "grid_res")) ** spec.d


def _count_skew(tr, args, kwargs):
    engine = _arg(args, kwargs, 0, "engine")
    tr.counts["conjmap.fiber_points"] += int(_arg(args, kwargs, 1, "grid_res")) ** engine.d


def _count_fiber_point(tr, args, kwargs):
    tr.counts["conjmap.fiber_points"] += 1


PRE_HOOKS = {
    "_kernels.eval_trig": _count_trig,
    "_kernels.eval_trig_numpy": _count_trig,
    "_kernels.orbit_g_values": _count_sweep,
    "dynamics.invert_lift": _count_invert,
    "semiconj.phi_hat": _count_phi,
    "cones.verify_A2": _count_cells,
    "conjmap.skew_product_residual": _count_skew,
    "conjmap.solve_fiber_point": _count_fiber_point,
}
POST_HOOKS = {
    "semiconj.build_engine": _count_engine,
    "semiconj.export_phi_grid": _count_csv,
}

# per-function inclusive times reported as metrics: metric name -> function
INCLUSIVE = {
    "dynamics.invert_lift_s": "dynamics.invert_lift",
    "conjmap.skew_product_residual_s": "conjmap.skew_product_residual",
    "conjmap.H_inverse_s": "conjmap.H_inverse",
    "cones.verify_A2_s": "cones.verify_A2",
    "semiconj.build_engine_s": "semiconj.build_engine",
    "semiconj.phi_hat_s": "semiconj.phi_hat",
    "semiconj.export_phi_grid_s": "semiconj.export_phi_grid",
}


def layer_metrics(tracer, n_passes):
    """Per-layer metrics per pass, from the spans and counters recorded."""
    a = tracer.arrays()
    self_s = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    layer_idx = np.array([LAYERS.index(l) for l in tracer.layer_of], dtype=int)
    span_layer = layer_idx[a["func"]] if len(a["func"]) else np.zeros(0, dtype=int)
    out = {}
    for li, layer in enumerate(LAYERS):
        sel = span_layer == li
        name = layer.lstrip("_")        # metric names start with a letter
        out[f"{name}.self_s"] = float(self_s[sel].sum()) / n_passes
        out[f"{name}.calls"] = float(sel.sum()) / n_passes
        out[f"{name}.errors"] = float(a["failed"][sel].sum()) / n_passes
    for metric, qual in INCLUSIVE.items():
        if qual in tracer.names:
            sel = (a["func"] == tracer.names.index(qual)) & a["top"]
            out[metric] = float(dur[sel].sum()) / n_passes
        else:
            out[metric] = 0.0
    c = tracer.counts
    for key in ("kernels.sweep_point_steps", "kernels.trig_calls",
                "kernels.trig_points", "kernels.trig_term_evals",
                "dynamics.invert_lift_points", "dynamics.invert_lift_iters",
                "conjmap.fiber_points", "cones.cell_checks",
                "semiconj.phi_calls", "semiconj.phi_points", "semiconj.csv_bytes"):
        out[key] = c[key] / n_passes
    out["kernels.sweep_bytes_max"] = c["kernels.sweep_bytes_max"]
    out["kernels.points_per_call"] = (c["kernels.trig_points"] / c["kernels.trig_calls"]
                                      if c["kernels.trig_calls"] else 0.0)
    out["semiconj.N_mean"] = (c["semiconj.N_sum"] / c["semiconj.engines"]
                              if c["semiconj.engines"] else 0.0)
    out["conjmap.phi_calls_per_point"] = (c["conjmap.phi_points"] / c["conjmap.fiber_points"]
                                          if c["conjmap.fiber_points"] else 0.0)
    return out
