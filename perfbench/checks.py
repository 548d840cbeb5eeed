"""Per-job output checks. Each returns (reason, wrong): ``reason`` is None
when the job passed, and ``wrong`` marks an output that is incorrect (a
residual above its ceiling, a false PASS) rather than a job that failed
with a documented error exit.

The checks read the CLI's JSON report and re-derive what they need from
the public library API, outside the timed region.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SCHEMA_VERSION = "1"
TAU_FLOOR = 0.5               # tau of acceptance criterion 9
CONE_CELLS_CHECKED = 4
CONE_RAYS = 10_000


def _engine(spec_path):
    """The engine the CLI builds for a spec with default flags (expanding
    mode, invariant line of the largest integer eigenvalue)."""
    from torusconj import dynamics, intlat, parse_spec, semiconj
    with open(spec_path) as fh:
        spec = parse_spec(fh.read())
    M = spec.M_list()
    m = max((e for e in intlat.integer_eigenvalues(M) if abs(e) > 1), key=abs)
    block = intlat.block_triangularize(M, [intlat.derive_invariant_line(M, m)])
    spec_S = dynamics.change_coordinates(spec, block.S_list())
    return spec_S, block, semiconj.build_engine(spec_S, block)


def _flag(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def ceiling_of(report):
    """The certified ceiling a report carries, or None."""
    if report.get("command") in ("verify-semiconj", "conjugacy"):
        return report.get("ceiling")
    return None


def check_job(job, code, stdout, rng):
    """Check one job's exit code and report; rng picks cone cells to re-check."""
    if code != 0:
        return f"exit {code}", False
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON", True
    if report.get("schema_version") != SCHEMA_VERSION:
        return "schema_version is not '1'", True
    for key in ("max_residual", "max_base_residual"):
        if key in report and not report[key] <= report["ceiling"]:
            return f"{key} {report[key]:.3g} > ceiling {report['ceiling']:.3g}", True
    if report.get("pass") is False:
        return "pass is false", False
    command = report.get("command")
    if command == "conjugacy":
        return _check_round_trip(job, report)
    if command == "verify-cones":
        return _check_cones(job, report, rng)
    if command == "phi" and "-o" in job.argv:
        return _check_csv(job, report)
    return None, False


def _check_round_trip(job, report):
    tol = _flag(job.argv, "--tol", 1e-10)
    _, _, engine = _engine(job.spec_path)
    bound = tol / TAU_FLOOR + 2.0 * engine.eps / TAU_FLOOR
    if not report["round_trip_max"] <= bound:
        return f"round_trip_max {report['round_trip_max']:.3g} > {bound:.3g}", True
    return None, False


def _check_cones(job, report, rng):
    """Re-check a few grid cells of the best PASS against ray sampling: a
    pencil bound that beats sampling is a false PASS."""
    from torusconj import cones, dynamics
    best = report["best"]
    spec_S, block, _ = _engine(job.spec_path)
    res = int(report["grid_res"])
    cells = (rng.integers(0, res, size=(CONE_CELLS_CHECKED, spec_S.d)) + 0.5) / res
    params = cones.ConeParams(k=block.k, alpha=best["alpha"], K=best["K"])
    for L in dynamics.jacobian(spec_S, cells):
        try:
            cones.pointwise_cone_check(L, params, cross_validate=True, n_rays=CONE_RAYS)
        except AssertionError as e:
            return f"cone cross-check: {e}", True
    return None, False


def _check_csv(job, report):
    path = report.get("csv")
    if not path or not os.path.isfile(path):
        return "phi wrote no CSV", True
    with open(path, "rb") as fh:
        rows = sum(1 for _ in fh)
    with open(job.spec_path) as fh:
        d = int(fh.readline().split("=")[1])
    want = _flag(job.argv, "--grid", 64) ** d + 1
    if rows != want:
        return f"CSV has {rows} lines, want {want}", True
    return None, False


def ceiling_decades(ceiling):
    """log10 of a ceiling in units of float64 machine epsilon (> 0 for any
    ceiling a float computation can certify)."""
    return math.log10(ceiling / np.finfo(float).eps)
