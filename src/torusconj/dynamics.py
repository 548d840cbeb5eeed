"""Lifts, iterates, Jacobians, inverse lifts, coordinate changes and the
global norm/Lipschitz bounds consumed by the certification modules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, intlat
from .errors import ContractionError, LatticeError
from .specdsl import TorusMapSpec, TrigTerm, make_spec

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TermArrays:
    comps: np.ndarray   # (T,) int64, 0-based
    coefs: np.ndarray   # (T,) float64
    kinds: np.ndarray   # (T,) int64, 0=sin 1=cos
    freqs: np.ndarray   # (T, d) float64 (integer-valued)


@lru_cache(maxsize=64)
def term_arrays(spec: TorusMapSpec) -> TermArrays:
    T = len(spec.terms)
    comps = np.array([t.component - 1 for t in spec.terms], dtype=np.int64)
    coefs = np.array([t.coefficient for t in spec.terms], dtype=np.float64)
    kinds = np.array([0 if t.kind == "sin" else 1 for t in spec.terms], dtype=np.int64)
    freqs = np.array([t.frequency for t in spec.terms], dtype=np.float64)
    if T == 0:
        freqs = np.zeros((0, spec.d))
    for a in (comps, coefs, kinds, freqs):
        a.setflags(write=False)
    return TermArrays(comps, coefs, kinds, freqs)


def M_array(spec: TorusMapSpec) -> np.ndarray:
    return np.array(spec.M_list(), dtype=float)


def _batch(z, d):
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        if z.shape[0] != d:
            raise ValueError(f"point has dimension {z.shape[0]}, spec has {d}")
        return z[None, :], True
    if z.shape[-1] != d:
        raise ValueError(f"points have dimension {z.shape[-1]}, spec has {d}")
    return z.reshape(-1, d), False


def eval_G(spec: TorusMapSpec, z):
    """Periodic part G at z; z may be a point (d,) or a batch (..., d)."""
    Z, single = _batch(z, spec.d)
    ta = term_arrays(spec)
    out = _kernels.eval_trig(Z, ta.comps, ta.coefs, ta.kinds, ta.freqs, spec.d)
    return out[0] if single else out.reshape(np.asarray(z).shape)


def eval_lift(spec: TorusMapSpec, z):
    """The lift F(z) = Mz + G(z)."""
    Z, single = _batch(z, spec.d)
    Mf = M_array(spec)
    out = Z @ Mf.T + eval_G(spec, Z)
    return out[0] if single else out.reshape(np.asarray(z).shape)


def eval_torus(spec: TorusMapSpec, theta):
    """The torus map: eval_lift reduced into [0,1) per coordinate."""
    return np.mod(eval_lift(spec, theta), 1.0)


def jacobian(spec: TorusMapSpec, z):
    """DF(z) = M + DG(z); batch-aware, returns (..., d, d)."""
    Z, single = _batch(z, spec.d)
    ta = term_arrays(spec)
    dg = _kernels.eval_trig_jac_numpy(Z, ta.comps, ta.coefs, ta.kinds, ta.freqs, spec.d)
    out = M_array(spec)[None, :, :] + dg
    if single:
        return out[0]
    return out.reshape(np.asarray(z).shape[:-1] + (spec.d, spec.d))


@dataclass(frozen=True)
class NormBounds:
    """Global coefficient-sum bounds: sup-norm of G, Lipschitz constants of
    G and DG (Euclidean combination of per-component sums); valid for all z
    but possibly not tight."""
    g_sup: float
    g_lip: float
    dg_lip: float


def norm_bounds(spec: TorusMapSpec) -> NormBounds:
    d = spec.d
    s0 = np.zeros(d)
    s1 = np.zeros(d)
    s2 = np.zeros(d)
    for t in spec.terms:
        knorm = float(np.linalg.norm(t.frequency))
        c = abs(t.coefficient)
        i = t.component - 1
        s0[i] += c
        s1[i] += TWO_PI * c * knorm
        s2[i] += TWO_PI ** 2 * c * knorm ** 2
    return NormBounds(g_sup=float(np.linalg.norm(s0)),
                      g_lip=float(np.linalg.norm(s1)),
                      dg_lip=float(np.linalg.norm(s2)))


def contraction_rate(spec: TorusMapSpec) -> float:
    """rho = ||M^-1||_2 * Lip(G); the inverse lift is certified iff rho < 1."""
    Mf = M_array(spec)
    if abs(np.linalg.det(Mf)) < 1e-12:
        raise ContractionError("M is singular; no lift inverse")
    return float(np.linalg.norm(np.linalg.inv(Mf), 2)) * norm_bounds(spec).g_lip


def lift_inverter(spec: TorusMapSpec, tol: float):
    """The batch solver of F(w) = z for this spec, with its per-spec
    constants (contraction rate, M^-1, iteration cap) computed once.

    Returns solve(Z) -> (W, G(W mod 1), iterations) for Z of shape (n, d);
    solve raises ContractionError unless every residual ||F(w) - z|| is
    <= tol.  Requires ||M^-1||*Lip(G) < 1, which makes the solution unique
    and bounds its error by ||M^-1|| / (1 - rho) times the residual.
    """
    rho = contraction_rate(spec)
    if rho >= 1.0:
        raise ContractionError(
            f"contraction margin violated (||M^-1||*Lip(G) = {rho:.3g} >= 1); "
            "the lift inverse is not certified")
    ta = term_arrays(spec)
    Minv = np.linalg.inv(M_array(spec))
    max_iter = 200 if rho == 0.0 else max(8, int(np.ceil(np.log(tol) / np.log(max(rho, 1e-16)))) + 60)

    def solve(Z):
        W, res, g, iters = _kernels.invert_lift_numpy(
            Z, Minv, ta.comps, ta.coefs, ta.kinds, ta.freqs, tol, max_iter)
        if res.max() > tol:
            raise ContractionError(f"inverse lift residual {res.max():.3g} > tol {tol:.3g}")
        return W, g, iters

    return solve


def invert_lift(spec: TorusMapSpec, z, tol: float = 1e-12):
    """Unique w with F(w) = z, by the safeguarded Newton iteration of
    _kernels.invert_lift_numpy (see lift_inverter).

    Requires ||M^-1||*Lip(G) < 1; the iteration is stopped once the maximum
    residual ||F(w) - z|| over the batch drops below tol.
    """
    Z, single = _batch(z, spec.d)
    W = lift_inverter(spec, tol)(Z)[0]
    return W[0] if single else W.reshape(np.asarray(z).shape)


def change_coordinates(spec: TorusMapSpec, S) -> TorusMapSpec:
    """Conjugated spec: M' = S^-1 M S, G'(z) = S^-1 G(S z), computed exactly
    term-by-term (frequencies become S^T kappa, coefficients scale by the
    integer entries of S^-1)."""
    Sm = intlat.as_int_matrix(S)
    if len(Sm) != spec.d:
        raise LatticeError("coordinate change has wrong dimension")
    Sinv = intlat.mat_inv_unimodular(Sm)  # LatticeError unless unimodular
    M2 = intlat.mat_mul(Sinv, intlat.mat_mul(spec.M_list(), Sm))
    St = intlat.transpose(Sm)
    new_terms = []
    for t in spec.terms:
        freq2 = tuple(intlat.mat_vec(St, list(t.frequency)))
        for r in range(spec.d):
            c = Sinv[r][t.component - 1] * t.coefficient
            if c != 0.0:
                new_terms.append(TrigTerm(component=r + 1, frequency=freq2,
                                          kind=t.kind, coefficient=c))
    return make_spec(spec.d, M2, new_terms)


def torus_distance(a, b) -> np.ndarray:
    """Euclidean combination of per-coordinate circle distances."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    wrapped = diff - np.round(diff)
    return np.sqrt((wrapped ** 2).sum(axis=-1))
