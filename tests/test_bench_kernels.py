import importlib.util
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_bench_kernels_runs_at_tiny_sizes(monkeypatch):
    # every kernel on every shape, one repetition of a few points (and
    # cells): a positive, finite time per (phase, point) on each line
    for var in BLAS_VARS:           # the tool sets them; restored after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernels", ROOT / "tools" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rows = bench.measure(n=16, n_inverse=8, N=2, repeat=1, n_cells=8)
    names = ("eval_trig", "eval_trig_and_jac", "_phi_series")
    assert [r[:2] for r in rows] == ([(w, 2) for w in names] * 2 + [(w, 3) for w in names] * 2
                                     + [("invert_lift_numpy", 2), ("_cone_minima", 3)])
    assert all(U >= 2 and math.isfinite(ns) and ns > 0 for _, _, U, ns in rows)
