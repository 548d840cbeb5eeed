"""Command-line harness: validate / analyze / phi / verify-semiconj /
verify-cones / conjugacy, with JSON reports and CSV grid exports.

Exit codes: 0 = all checks pass, 1 = operational error (bad input, usage
errors included, engine failure), 2 = a verification verdict failed
(including "no integer eigenvalue" in analyze).  A report whose "pass" is
false is still written to stdout (and, for phi and conjugacy, to -o)
before the exit with 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import cones, conjmap, dynamics, intlat, semiconj
from .errors import FloatRangeError, LatticeError, TorusConjError
from .specdsl import parse_spec, serialize_spec

SCHEMA_VERSION = "1"
ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)     # the cone openings, in the order tried
K = 1.0 + 1e-9      # the expansion constant A2 asks for, > 1


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise TorusConjError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_spec(path: str):
    spec = parse_spec(_read_text(path))
    with np.errstate(over="ignore"):
        nb = dynamics.norm_bounds(spec)
    if not np.isfinite([nb.g_sup, nb.g_lip, nb.dg_lip]).all():
        raise TorusConjError(f"{path}: the norm bounds of G overflow float64")
    return spec


def _emit(report: dict, args) -> None:
    report["schema_version"] = SCHEMA_VERSION
    try:
        text = json.dumps(report, indent=2, default=_jsonable, allow_nan=False)
    except ValueError:
        raise FloatRangeError(f"the {report['command']} report holds a NaN or an "
                              "infinity, which JSON cannot carry") from None
    if getattr(args, "out", None):      # only phi and conjugacy take -o
        semiconj._write_file(_out_path(args, f"{report['command']}.json"), [text, "\n"])
    print(text)


def _out_path(args, name: str) -> str:
    """The path of file name in the -o directory, which is made if need be."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _read_sublattice(arg: str, d: int):
    """--sublattice is either 'full' (k = d, identity basis) or a file
    holding a JSON list of integer basis vectors."""
    if arg == "full":
        return intlat.identity(d)
    try:
        vecs = json.loads(_read_text(arg))
    except ValueError as e:     # malformed JSON, or an int of over 4300 digits
        raise LatticeError(f"--sublattice file {arg} is not readable JSON: {e}") from None
    # type() is int rejects floats and bools (bool is a subclass of int)
    if not (isinstance(vecs, list) and all(
            isinstance(v, list) and all(type(x) is int for x in v) for v in vecs)):
        raise LatticeError(f"--sublattice file {arg} must hold a JSON list of "
                           "lists of integers")
    return vecs


def _block_coordinates(spec, args):
    """The spec in block coordinates and its block form: that of the
    --sublattice basis, or else of the line of the largest integer
    eigenvalue."""
    M = spec.M_list()
    if args.sublattice:
        B = _read_sublattice(args.sublattice, spec.d)
    else:
        eigs = [m for m in intlat.integer_eigenvalues(M) if abs(m) > 1]
        if not eigs:
            raise _Verdict("no integer eigenvalue of magnitude > 1 and no "
                           "--sublattice given; the winding matrix admits no "
                           "rank-1 invariant sublattice (irreducibility "
                           "obstruction)")
        B = [intlat.derive_invariant_line(M, max(eigs, key=abs))]
    block = intlat.block_triangularize(M, B)
    return dynamics.change_coordinates(spec, block.S_list()), block


def _engine(spec, args):
    return semiconj.build_engine(*_block_coordinates(spec, args), N=args.trunc)


def _vacuous(ceiling: float, k: int) -> bool:
    """Whether ceiling is at least 0.5 sqrt(k), the largest distance on the
    k-torus a residual is measured on: such a ceiling bounds nothing."""
    return not ceiling < 0.5 * math.sqrt(k)


def _ceiling_verdict(report: dict, residual: float, k: int) -> dict:
    """report with "pass": residual <= report["ceiling"], unless that
    ceiling is vacuous: then the report fails with "vacuous": true."""
    if not _vacuous(report["ceiling"], k):
        return {**report, "pass": bool(residual <= report["ceiling"])}
    return {**report, "pass": False, "vacuous": True}


class _Verdict(Exception):
    """A failed verdict (exit 2) that carries a message instead of a report."""


# ---------------------------------------------------------------- commands

def cmd_validate(spec, args) -> dict:
    nb = dynamics.norm_bounds(spec)
    rng = np.random.default_rng(0)
    z = rng.uniform(-2, 2, size=(10, spec.d))
    m = rng.integers(-3, 4, size=(10, spec.d)).astype(float)
    Mf = dynamics.M_array(spec)
    dev = np.abs(dynamics.eval_lift(spec, z + m)
                 - dynamics.eval_lift(spec, z) - m @ Mf.T).max()
    # a parsed spec has integer M and frequencies, so F(z + m) = F(z) + M m
    # holds exactly and dev is rounding alone: bound it a priori with
    # gamma_n = n u / (1 - n u), n = d + 3 (N. J. Higham, "Accuracy and
    # Stability of Numerical Algorithms", 2nd ed., 2002, section 3.1)
    nu = (spec.d + 3) * 2.0 ** -53
    bound = nu / (1 - nu) * ((spec.d * np.abs(Mf).sum(axis=1).max() + nb.g_lip)
                             * (np.abs(z).max() + np.abs(m).max()) + nb.g_sup)
    return {
        "command": "validate",
        "dim": spec.d,
        "n_terms": len(spec.terms),
        "canonical": serialize_spec(spec),
        "norm_bounds": {"g_sup": nb.g_sup, "g_lip": nb.g_lip, "dg_lip": nb.dg_lip},
        "equivariance_max_deviation": float(dev),
        "equivariance_bound": float(bound),
        "pass": bool(dev <= bound),
    }


def cmd_analyze(spec, args) -> dict:
    M = spec.M_list()
    eigs = intlat.integer_eigenvalues(M)
    branches = []
    for m in eigs:
        v = intlat.left_eigenvector_integer(M, m)
        tp = intlat.tiling_parallelotope(v)
        line = intlat.derive_invariant_line(M, m)
        branches.append({
            "eigenvalue": m,
            "left_eigenvector": v,
            "tiling_columns": tp.columns(),
            "tiling_det": intlat.det_int([list(r) for r in tp.W]),
            "invariant_line": line,
            **_block_keys(intlat.block_triangularize(M, [line])),
        })
    report = {
        "command": "analyze",
        "dim": spec.d,
        "char_poly": intlat.char_poly(M),
        "integer_eigenvalues": eigs,
        "branches": branches,
    }
    if args.sublattice:
        bf = intlat.block_triangularize(M, _read_sublattice(args.sublattice, spec.d))
        report["sublattice_block"] = {"k": bf.k, **_block_keys(bf)}
    elif not eigs:
        raise _Verdict("no integer eigenvalue (characteristic polynomial "
                       "has no integer root) and no --sublattice given")
    return report


def _block_keys(bf) -> dict:
    """The report keys of a block form, in report order."""
    return {"S": bf.S_list(), "A": [list(r) for r in bf.A],
            "classification": bf.classification, "decoupled": bf.decoupled}


def cmd_phi(spec, args) -> dict:
    engine = _engine(spec, args)
    report = {
        "command": "phi",
        "mode": engine.mode,
        "k": engine.k,
        "N": engine.N,
        "error_bound": engine.eps,
        "grid_res": args.grid,
    }
    if args.out:
        report["csv"] = _out_path(args, "phi_grid.csv")
        semiconj.export_phi_grid(engine, args.grid, report["csv"])
    else:
        theta = semiconj._grid(engine.d, min(args.grid, 8))
        report["sample"] = {"theta": theta, "phi": semiconj.phi_torus(engine, theta).value}
    return report


def cmd_verify_semiconj(spec, args) -> dict:
    engine = _engine(spec, args)
    rr = semiconj.semiconjugacy_residual(engine, args.grid)
    report = _ceiling_verdict({
        "command": "verify-semiconj",
        "mode": engine.mode,
        "N": engine.N,
        "error_bound": engine.eps,
        "grid_res": rr.grid_res,
        "max_residual": rr.max_residual,
        "ceiling": rr.ceiling,
        "argmax_point": rr.argmax_point,
    }, rr.max_residual, engine.k)
    # additive: how the residual was computed; never moves the verdict
    report["diagnostics"] = {
        "backward_sweeps": rr.backward_sweeps,
        "inverse_lift_iters": rr.inverse_lift_iters,
        "point_steps": rr.point_steps,
    }
    return report


def cmd_verify_cones(spec, args) -> dict:
    spec_S, block = _block_coordinates(spec, args)
    results = []
    for cert in cones.verify_A2(spec_S, _cone_family(block.k), args.grid):
        results.append({
            "alpha": cert.params.alpha,
            "K": cert.params.K,
            "expansion_factor": cert.expansion_factor,
            # vacuous (infinite) when k = d; JSON has no infinity
            "invariance_margin": None if block.k == spec.d else cert.invariance_margin,
            "expansion_margin": cert.expansion_margin,
            "padding": cert.padding,
            "domination_margin": cert.domination_margin,
            "a4_pass": cert.a4_pass,
            "pencil_rounds": cert.pencil_rounds,
            "pencil_gap": cert.pencil_gap,
            "worst_cell": cert.worst_cell,
            "pass": cert.a2_pass,
        })
    # the first passing entry of largest expansion margin
    best = max((e for e in results if e["pass"]), key=lambda e: e["expansion_margin"],
               default=None)
    return {
        "command": "verify-cones",
        "k": block.k,
        "grid_res": args.grid,
        "alphas": results,
        "best": best,
        "pass": best is not None,
    }


def _cone_family(k: int):
    """The cones of verify-cones and of the conjugacy A2 gate: one
    ConeParams per opening of ALPHAS, in order, each with K."""
    return [cones.ConeParams(k, alpha, K) for alpha in ALPHAS]


def _a2_gate(spec_S, k: int, grid: int):
    """(alpha, g): the opening of the first cone of _cone_family(k) that
    passes A2 at grid g, trying g = min(8, grid), then min(2 g, grid) up to
    grid; (None, grid) if none does.  The padding covers each cell, so a
    pass at any grid certifies every point of the torus.  One verify_A2
    call per cone stops at the first pass, which is faster than one call
    for the whole family per grid."""
    g = min(8, grid)
    while True:
        for params in _cone_family(k):
            if cones.verify_A2(spec_S, params, g).a2_pass:
                return params.alpha, g
        if g == grid:
            return None, g
        g = min(2 * g, grid)


def cmd_conjugacy(spec, args) -> dict:
    engine = _engine(spec, args)
    rng = np.random.default_rng(0)
    z = rng.uniform(0, 1, size=(50, engine.d))
    x, y = conjmap.H_forward(engine, z)
    semiconj._grid_size(engine.d, args.grid)    # an oversize grid exits 1 before any work
    head = {"command": "conjugacy", "N": engine.N, "grid_res": args.grid, "tol": conjmap.TOL}
    ceiling = conjmap.skew_ceiling(engine, conjmap.TOL)
    if _vacuous(ceiling, engine.k):
        # such a ceiling fails the verdict whatever the fibers do: none is solved
        return _ceiling_verdict({**head, "ceiling": ceiling}, math.inf, engine.k)
    # A2 makes each fiber line a bijection: its gate decides the verdict
    # with the ceiling
    alpha, a2_grid = _a2_gate(engine.spec, engine.k, args.grid)
    # the round trip first: a fiber it cannot solve leaves no CSV
    stats = conjmap.FiberStats()
    csv = _out_path(args, "skew_grid.csv") if args.out else None
    zi = conjmap.H_inverse(engine, x, y, stats=stats)
    sr = conjmap.skew_product_residual(engine, args.grid, stats=stats, path=csv)
    report = {
        **head,
        "max_base_residual": sr.max_base_residual,
        "ceiling": sr.ceiling,
        "round_trip_max": float(dynamics.torus_distance(zi, z).max()),
        "a2_alpha": alpha,
        "a2_grid": a2_grid,
        "pass": bool(sr.max_base_residual <= sr.ceiling) and alpha is not None,
        # additive: the fiber solves' work; never moves the verdict
        "diagnostics": dataclasses.asdict(stats),
    }
    if csv:
        report["csv"] = csv
    return report


# ---------------------------------------------------------------- plumbing

def _at_least(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            x = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if x < lo:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {lo}")
        return x
    return parse


FLAGS = {
    "--trunc": dict(type=_at_least(1), default=None, metavar="N",
                    help="series truncation order (default: auto)"),
    "--grid": dict(type=_at_least(2), default=64, metavar="R",
                   help="grid resolution per axis"),
    "--sublattice": dict(default=None, metavar="FILE|full",
                         help="invariant sublattice basis (JSON file) or 'full'"),
    "-o": dict(dest="out", default=None, metavar="DIR",
               help="write the CSV grid and a copy of the JSON report into DIR"),
}

# each command gets only the flags it reads
COMMANDS = {
    "validate": (cmd_validate, ()),
    "analyze": (cmd_analyze, ("--sublattice",)),
    "phi": (cmd_phi, ("--trunc", "--grid", "--sublattice", "-o")),
    "verify-semiconj": (cmd_verify_semiconj, ("--trunc", "--grid", "--sublattice")),
    "verify-cones": (cmd_verify_cones, ("--grid", "--sublattice")),
    "conjugacy": (cmd_conjugacy, ("--trunc", "--grid", "--sublattice", "-o")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torusconj",
                                description="certified torus-map analysis")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("spec", help="map spec file")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error; 2 means a
        # failed verdict here, so a usage error returns 1 (bad input)
        return 0 if e.code == 0 else 1
    try:
        report = args.fn(_load_spec(args.spec), args)
        _emit(report, args)
    except _Verdict as v:
        print(str(v), file=sys.stderr)
        return 2
    except (TorusConjError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if report.get("pass", True) else 2


if __name__ == "__main__":
    sys.exit(main())
