"""Command-line harness: validate / analyze / phi / verify-semiconj /
verify-cones / conjugacy, with JSON reports and CSV grid exports.

Exit codes: 0 = all checks pass, 1 = operational error (bad input, usage
errors included, engine failure), 2 = a verification verdict failed
(including "no integer eigenvalue" in analyze).  A report whose "pass" is
false is still written to stdout (and -o) before the exit with 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import cones, conjmap, dynamics, intlat, semiconj
from .errors import LatticeError, TorusConjError
from .specdsl import parse_spec, serialize_spec

SCHEMA_VERSION = "1"
DEFAULT_ALPHAS = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]


def _load_spec(path: str):
    with open(path, "r") as fh:
        return parse_spec(fh.read())


def _emit(report: dict, args) -> None:
    report["schema_version"] = SCHEMA_VERSION
    text = json.dumps(report, indent=2, default=_jsonable)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{report['command']}.json"), "w") as fh:
            fh.write(text + "\n")
    print(text)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _read_sublattice(arg: str, d: int):
    """--sublattice is either 'full' (k = d, identity basis) or a file
    holding a JSON list of integer basis vectors."""
    if arg == "full":
        return intlat.identity(d)
    with open(arg, "r") as fh:
        vecs = json.loads(fh.read())
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
            raise _Verdict(2, "no integer eigenvalue of magnitude > 1 and no "
                              "--sublattice given; the winding matrix admits no "
                              "rank-1 invariant sublattice (irreducibility "
                              "obstruction)")
        B = [intlat.derive_invariant_line(M, max(eigs, key=abs))]
    block = intlat.block_triangularize(M, B)
    return dynamics.change_coordinates(spec, block.S_list()), block


def _engine(spec, args):
    return semiconj.build_engine(*_block_coordinates(spec, args), N=args.trunc)


class _Verdict(Exception):
    """A failed verdict that carries a message instead of a report."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> dict:
    spec = _load_spec(args.spec)
    nb = dynamics.norm_bounds(spec)
    rng = np.random.default_rng(args.seed)
    z = rng.uniform(-2, 2, size=(10, spec.d))
    m = rng.integers(-3, 4, size=(10, spec.d)).astype(float)
    Mf = dynamics.M_array(spec)
    dev = np.abs(dynamics.eval_lift(spec, z + m)
                 - dynamics.eval_lift(spec, z) - m @ Mf.T).max()
    return {
        "command": "validate",
        "dim": spec.d,
        "n_terms": len(spec.terms),
        "canonical": serialize_spec(spec),
        "norm_bounds": {"g_sup": nb.g_sup, "g_lip": nb.g_lip, "dg_lip": nb.dg_lip},
        "equivariance_max_deviation": float(dev),
        "pass": bool(dev < 1e-9),
    }


def cmd_analyze(args) -> dict:
    spec = _load_spec(args.spec)
    M = spec.M_list()
    eigs = intlat.integer_eigenvalues(M)
    branches = []
    for m in eigs:
        v = intlat.left_eigenvector_integer(M, m)
        tp = intlat.tiling_parallelotope(v)
        line = intlat.derive_invariant_line(M, m)
        bf = intlat.block_triangularize(M, [line])
        branches.append({
            "eigenvalue": m,
            "left_eigenvector": v,
            "tiling_columns": tp.columns(),
            "tiling_det": intlat.det_int([list(r) for r in tp.W]),
            "invariant_line": line,
            "S": bf.S_list(),
            "A": [list(r) for r in bf.A],
            "classification": bf.classification,
            "decoupled": bf.decoupled,
        })
    report = {
        "command": "analyze",
        "dim": spec.d,
        "char_poly": intlat.char_poly(M),
        "integer_eigenvalues": eigs,
        "branches": branches,
    }
    if args.sublattice:
        B = _read_sublattice(args.sublattice, spec.d)
        bf = intlat.block_triangularize(M, B)
        report["sublattice_block"] = {
            "k": bf.k, "S": bf.S_list(), "A": [list(r) for r in bf.A],
            "classification": bf.classification, "decoupled": bf.decoupled,
        }
    elif not eigs:
        raise _Verdict(2, "no integer eigenvalue (characteristic polynomial "
                          "has no integer root) and no --sublattice given")
    return report


def cmd_phi(args) -> dict:
    spec = _load_spec(args.spec)
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
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "phi_grid.csv")
        semiconj.export_phi_grid(engine, args.grid, path)
        report["csv"] = path
    else:
        theta = semiconj._grid(engine.d, min(args.grid, 8))
        pv = semiconj.phi_torus(engine, theta)
        report["sample"] = {"theta": theta, "phi": pv.value}
    return report


def cmd_verify_semiconj(args) -> dict:
    spec = _load_spec(args.spec)
    engine = _engine(spec, args)
    rr = semiconj.semiconjugacy_residual(engine, args.grid)
    ok = rr.max_residual <= rr.ceiling
    report = {
        "command": "verify-semiconj",
        "mode": engine.mode,
        "N": engine.N,
        "error_bound": engine.eps,
        "grid_res": rr.grid_res,
        "max_residual": rr.max_residual,
        "ceiling": rr.ceiling,
        "argmax_point": rr.argmax_point,
        "pass": bool(ok),
        # additive: how the residual was computed; never moves the verdict
        "diagnostics": {
            "backward_sweeps": rr.backward_sweeps,
            "inverse_lift_iters": rr.inverse_lift_iters,
            "point_steps": rr.point_steps,
        },
    }
    return report


def cmd_verify_cones(args) -> dict:
    spec = _load_spec(args.spec)
    spec_S, block = _block_coordinates(spec, args)
    params = [cones.ConeParams(k=block.k, alpha=alpha, K=args.K) for alpha in args.alpha]
    results = []
    best = None
    for cert in cones.verify_A2(spec_S, params, args.grid):
        entry = {
            "alpha": cert.params.alpha,
            "K": args.K,
            "expansion_factor": cert.expansion_factor,
            # vacuous (infinite) when k = d; JSON has no infinity
            "invariance_margin": None if block.k == spec.d else cert.invariance_margin,
            "expansion_margin": cert.expansion_margin,
            "padding": cert.padding,
            "domination_margin": cert.domination_margin,
            "a4_pass": cert.a4_pass,
            "pencil_rounds": cert.pencil_rounds,
            "pencil_gap": cert.pencil_gap,
            "pass": cert.a2_pass,
        }
        results.append(entry)
        if cert.a2_pass and (best is None
                             or cert.expansion_margin > best["expansion_margin"]):
            best = entry
    report = {
        "command": "verify-cones",
        "k": block.k,
        "grid_res": args.grid,
        "alphas": results,
        "best": best,
        "pass": best is not None,
    }
    return report


def cmd_conjugacy(args) -> dict:
    spec = _load_spec(args.spec)
    engine = _engine(spec, args)
    sr = conjmap.skew_product_residual(engine, args.grid, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    z = rng.uniform(0, 1, size=(50, engine.d))
    x, y = conjmap.H_forward(engine, z)
    rt = dynamics.torus_distance(conjmap.H_inverse(engine, x, y, tol=args.tol),
                                 z).max()
    ok = sr.max_base_residual <= sr.ceiling
    report = {
        "command": "conjugacy",
        "N": engine.N,
        "grid_res": sr.grid_res,
        "tol": args.tol,
        "max_base_residual": sr.max_base_residual,
        "ceiling": sr.ceiling,
        "round_trip_max": float(rt),
        "pass": bool(ok),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "skew_grid.csv")
        conjmap.export_skew_csv(sr, path)
        report["csv"] = path
    return report


# ---------------------------------------------------------------- plumbing

def _bounded(cast, lo, strict=False):
    """argparse type: a finite number read by cast, >= lo (> lo if strict)."""
    def parse(text: str):
        try:
            x = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not math.isfinite(x) or x < lo or (strict and x == lo):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite number {'>' if strict else '>='} {lo:g}")
        return x
    return parse


_positive = _bounded(float, 0.0, strict=True)


def _alpha_list(text: str):
    vals = [_positive(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty alpha list")
    return vals


FLAGS = {
    "--trunc": dict(type=_bounded(int, 1), default=None, metavar="N",
                    help="series truncation order (default: auto)"),
    "--grid": dict(type=_bounded(int, 2), default=64, metavar="R",
                   help="grid resolution per axis"),
    "--alpha": dict(type=_alpha_list, default=DEFAULT_ALPHAS, metavar="LIST",
                    help="comma-separated cone openings, each > 0"),
    "--K": dict(type=_bounded(float, 1.0, strict=True), default=1.0 + 1e-9,
                help="required expansion constant, > 1"),
    "--tol": dict(type=_positive, default=1e-10,
                  help="fiber solver tolerance, > 0"),
    "--sublattice": dict(default=None, metavar="FILE|full",
                         help="invariant sublattice basis (JSON file) or 'full'"),
    "--seed": dict(type=_bounded(int, 0), default=0,
                   help="seed of the sampled test points"),
}

# each command gets only the flags it reads (plus -o)
COMMANDS = {
    "validate": (cmd_validate, ("--seed",)),
    "analyze": (cmd_analyze, ("--sublattice",)),
    "phi": (cmd_phi, ("--trunc", "--grid", "--sublattice")),
    "verify-semiconj": (cmd_verify_semiconj, ("--trunc", "--grid", "--sublattice")),
    "verify-cones": (cmd_verify_cones, ("--grid", "--alpha", "--K", "--sublattice")),
    "conjugacy": (cmd_conjugacy,
                  ("--trunc", "--grid", "--tol", "--sublattice", "--seed")),
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
        sp.add_argument("-o", "--out", default=None, metavar="DIR")
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
        report = args.fn(args)
    except _Verdict as v:
        print(str(v), file=sys.stderr)
        return v.code
    except (TorusConjError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _emit(report, args)
    return 0 if report.get("pass", True) else 2


if __name__ == "__main__":
    sys.exit(main())
