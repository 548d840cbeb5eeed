"""Lifts, iterates, Jacobians, inverse lifts, coordinate changes and the
global norm/Lipschitz bounds consumed by the certification modules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels, intlat
from .errors import ContractionError, LatticeError
from ._kernels import TWO_PI
from .specdsl import TorusMapSpec, TrigTerm, make_spec


class TermArrays(NamedTuple):
    """G's terms in the unique-phase layout of _kernels.eval_trig: one row
    per distinct (kind, frequency), sin rows first.  In field order they
    are the arguments of _kernels.eval_trig_and_jac after Z."""
    freqs: np.ndarray   # (U, d) float64 (integer-valued)
    coefs: np.ndarray   # (U, d): coefs[u, i] = coefficient of row u in component i
    nsin: int           # rows 0..nsin-1 are sines, the rest cosines
    jac: np.ndarray     # (U, d*d): 2 pi coefs[u, r] freqs[u, c] at r*d + c


@lru_cache(maxsize=64)
def term_arrays(spec: TorusMapSpec) -> TermArrays:
    d = spec.d
    rows: dict[tuple, np.ndarray] = {}      # (is cos, frequency) -> coefficient per component
    for t in spec.terms:
        rows.setdefault((t.kind == "cos", t.frequency), np.zeros(d))[t.component - 1] = t.coefficient
    keys = sorted(rows, key=lambda key: key[0])     # stable: sin rows first
    freqs = np.array([f for _, f in keys], dtype=np.float64).reshape(len(keys), d)
    coefs = np.array([rows[key] for key in keys]).reshape(len(keys), d)
    jac = ((TWO_PI * coefs)[:, :, None] * freqs[:, None, :]).reshape(len(keys), d * d)
    for a in (freqs, coefs, jac):
        a.setflags(write=False)
    return TermArrays(freqs, coefs, sum(not cos for cos, _ in keys), jac)


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
    out = _kernels.eval_trig(Z, ta.freqs, ta.coefs, ta.nsin)
    return out[0] if single else out.reshape(np.asarray(z).shape)


def eval_lift(spec: TorusMapSpec, z):
    """The lift F(z) = Mz + G(z)."""
    Z, single = _batch(z, spec.d)
    Mf = M_array(spec)
    out = Z @ Mf.T + eval_G(spec, Z)
    return out[0] if single else out.reshape(np.asarray(z).shape)


def eval_torus(spec: TorusMapSpec, theta):
    """The torus map: eval_lift reduced into [0,1) per coordinate."""
    return _kernels.wrap(eval_lift(spec, theta))


def jacobian(spec: TorusMapSpec, z):
    """DF(z) = M + DG(z); batch-aware, returns (..., d, d)."""
    Z, single = _batch(z, spec.d)
    ta = term_arrays(spec)
    dg = _kernels.eval_trig_and_jac(Z, *ta)[1]
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


@dataclass(frozen=True, eq=False)
class LiftInverse:
    """The certified inverse of the lift F(w) = M w + G(w): rho < 1 makes F
    a bijection of R^d, and a residual r puts w within L_inv * r of the
    preimage.  Called on (Z, tol), it returns (W, G(W mod 1), iterations)
    of _kernels.invert_lift_numpy, or raises ContractionError unless every
    residual ||F(w) - z|| is <= tol."""
    rho: float              # ||M^-1|| * Lip(G) < 1
    L_inv: float            # ||M^-1|| / (1 - rho)
    Mf: np.ndarray          # the spec's integer M as floats
    Minv: np.ndarray        # its float inverse
    terms: TermArrays

    def __call__(self, Z, tol: float):
        rho, ta = self.rho, self.terms
        max_iter = 200 if rho == 0.0 else max(8, int(np.ceil(np.log(tol) / np.log(max(rho, 1e-16)))) + 60)
        W, res, g, iters = _kernels.invert_lift_numpy(
            Z, self.Mf, self.Minv, ta, tol, max_iter)
        if res.max() > tol:
            raise ContractionError(f"inverse lift residual {res.max():.3g} > tol {tol:.3g}")
        return W, g, iters


def lift_inverse(spec: TorusMapSpec) -> LiftInverse:
    """The spec's certified inverse lift; the one place rho < 1 is checked."""
    rho = contraction_rate(spec)
    if rho >= 1.0:
        raise ContractionError(
            f"contraction margin violated (||M^-1||*Lip(G) = {rho:.3g} >= 1); "
            "the lift inverse is not certified")
    Mf = M_array(spec)
    Minv = np.linalg.inv(Mf)
    L_inv = float(np.linalg.norm(Minv, 2)) / (1.0 - rho)
    return LiftInverse(rho=rho, L_inv=L_inv, Mf=Mf, Minv=Minv, terms=term_arrays(spec))


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
