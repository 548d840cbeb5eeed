"""Invariant / expanding / dominated cone certification on grids.

Cones are the constant coordinate cones C_alpha = {(a, b): ||b|| <= alpha
||a||} with a the first k components (checked in block coordinates).  The
per-point minima are certified by an S-procedure on the symmetric pencil
Q - lambda*J: for any lambda >= 0, lambda_min(Q - lambda*J) lower-bounds
the constrained minimum, and the bound is tight for a single homogeneous
quadratic constraint; lambda is located by ternary search (the minimum
eigenvalue is concave in lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, semiconj
from .specdsl import TorusMapSpec

TERNARY_ITERS = 200


@dataclass(frozen=True)
class ConeParams:
    k: int
    alpha: float        # math.inf allowed
    K: float            # claimed expansion constant, > 1


def _pencil_max_lambda_min(Q: np.ndarray, J: np.ndarray, lam_hi: float):
    """max over lambda in [0, lam_hi] of lambda_min(Q - lambda J), batched.

    Q, J: (..., d, d).  Returns certified values (any evaluated lambda gives
    a valid lower bound; we return the value at the ternary midpoint).
    """
    shape = Q.shape[:-2]
    lo = np.zeros(shape)
    hi = np.full(shape, lam_hi)

    def g(lam):
        pen = Q - lam[..., None, None] * J
        return np.linalg.eigvalsh(pen)[..., 0]

    for _ in range(TERNARY_ITERS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        keep_lo = g(m1) < g(m2)
        lo = np.where(keep_lo, m1, lo)
        hi = np.where(keep_lo, hi, m2)
    lam = (lo + hi) / 2.0
    return g(lam)


def _cone_minima(Ls: np.ndarray, k: int, alpha: float):
    """Certified (q_exp, q_inv) for a batch of matrices (n, d, d):

    q_exp = min over unit v in C_alpha of ||(Lv)_a||^2,
    q_inv = min over unit v in C_alpha of alpha^2 ||(Lv)_a||^2 - ||(Lv)_b||^2.
    """
    n, d, _ = Ls.shape
    Pm = np.zeros((d, d))
    Pm[:k, :k] = np.eye(k)
    if k == d or math.isinf(alpha):
        # the cone is the whole space (k = d) or the constraint is vacuous
        Q = np.einsum("nij,jl,nlm->nim", Ls.transpose(0, 2, 1), Pm, Ls)
        q_exp = np.linalg.eigvalsh(Q)[..., 0]
        if k == d:
            return q_exp, np.full(n, np.inf)
        Jm = np.diag([1.0] * k + [-1.0] * (d - k))  # alpha factored out below
        QJ = np.einsum("nij,jl,nlm->nim", Ls.transpose(0, 2, 1), Jm, Ls)
        return q_exp, np.linalg.eigvalsh(QJ)[..., 0]
    Jm = np.diag([alpha ** 2] * k + [-1.0] * (d - k))
    Lt = Ls.transpose(0, 2, 1)
    Q_exp = Lt @ Pm @ Ls
    Q_inv = Lt @ Jm @ Ls
    lam_hi = 1e6 * max(float(np.linalg.norm(Ls, ord=2, axis=(1, 2)).max()) ** 2, 1.0)
    q_exp = _pencil_max_lambda_min(Q_exp, Jm, lam_hi)
    q_inv = _pencil_max_lambda_min(Q_inv, Jm, lam_hi)
    return q_exp, q_inv


@dataclass(frozen=True)
class ConeCheck:
    expansion_factor: float     # certified min of ||a'|| over unit cone vectors
    invariance_margin: float    # certified lower bound on alpha||a'|| - ||b'||
    q_exp: float
    q_inv: float
    restricted_norm: float      # sigma_max of L restricted to the off-core block


def ray_sampling_estimates(L: np.ndarray, k: int, alpha: float,
                           n_rays: int = 10_000, seed: int = 0):
    """Sampling upper bounds for (q_exp, q_inv): dense random rays in C_alpha."""
    rng = np.random.default_rng(seed)
    d = L.shape[0]
    a = rng.normal(size=(n_rays, k))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    if d > k and not math.isinf(alpha):
        b = rng.normal(size=(n_rays, d - k))
        bn = np.linalg.norm(b, axis=1, keepdims=True)
        bn[bn == 0] = 1.0
        scale = rng.uniform(0, 1, size=(n_rays, 1)) * alpha
        v = np.hstack([a, b / bn * scale * 1.0])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    elif d > k:
        v = rng.normal(size=(n_rays, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    else:
        v = a
    w = v @ L.T
    na2 = (w[:, :k] ** 2).sum(axis=1)
    nb2 = (w[:, k:] ** 2).sum(axis=1)
    alpha2 = alpha ** 2 if not math.isinf(alpha) else 1.0
    return float(na2.min()), float((alpha2 * na2 - nb2).min())


def pointwise_cone_check(L, params: ConeParams, cross_validate: bool = False,
                         n_rays: int = 10_000) -> ConeCheck:
    """Certified expansion and invariance minima of a single matrix."""
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    k, alpha = params.k, params.alpha
    q_exp, q_inv = _cone_minima(L[None], k, alpha)
    q_exp, q_inv = float(q_exp[0]), float(q_inv[0])
    nL = float(np.linalg.norm(L, 2))
    restricted = float(np.linalg.norm(L[:, k:], 2)) if d > k else 0.0
    if math.isinf(q_inv):
        inv_margin = math.inf
    else:
        scale = (alpha + 1.0) * max(nL, 1e-300) if not math.isinf(alpha) else 1.0
        inv_margin = q_inv / scale
    if cross_validate and not math.isinf(alpha):
        s_exp, s_inv = ray_sampling_estimates(L, k, alpha, n_rays)
        if q_exp > s_exp + 1e-9 or (not math.isinf(q_inv) and q_inv > s_inv + 1e-9):
            raise AssertionError(
                f"certified minima beat ray sampling: exp {q_exp} vs {s_exp}, "
                f"inv {q_inv} vs {s_inv}")
    return ConeCheck(expansion_factor=math.sqrt(max(q_exp, 0.0)),
                     invariance_margin=inv_margin,
                     q_exp=q_exp, q_inv=q_inv, restricted_norm=restricted)


@dataclass(frozen=True)
class ConeCertificate:
    params: ConeParams
    grid_res: int
    padding: float
    expansion_factor: float       # min certified over cells, before padding
    invariance_margin: float      # min certified linear margin, before padding
    expansion_margin: float       # min over cells of (padded factor - K)
    domination_margin: float      # min over cells of K - (padded off-core norm)
    worst_cell: tuple
    a2_pass: bool
    a4_pass: bool                 # A2 and a positive domination margin


def _cell_padding(spec: TorusMapSpec, res: int) -> float:
    """Worst Jacobian drift within a cell: dg_lip * h * sqrt(d) / 2."""
    nb = dynamics.norm_bounds(spec)
    return nb.dg_lip * (1.0 / res) * math.sqrt(spec.d) / 2.0


def verify_A2(spec: TorusMapSpec, params: ConeParams, grid_res: int) -> ConeCertificate:
    """Grid check of the invariant expanding cone condition (A2), with
    Lipschitz padding so a pass certifies every point of the torus.

    The same pass checks domination (A4): off-core vectors must be stretched
    strictly less than the certified K, so a4_pass = A2 and a positive
    domination margin."""
    if grid_res < 2:
        raise ValueError("grid resolution must be >= 2")
    centers = semiconj._grid(spec.d, grid_res, offset=0.5)
    Ls = dynamics.jacobian(spec, centers)
    pad = _cell_padding(spec, grid_res)
    k, alpha = params.k, params.alpha

    q_exp, q_inv = _cone_minima(Ls, k, alpha)
    factors = np.sqrt(np.maximum(q_exp, 0.0))
    nLs = np.linalg.norm(Ls, ord=2, axis=(1, 2))
    if np.all(np.isinf(q_inv)):
        lin_inv = np.full(len(q_inv), np.inf)
    else:
        scale = (alpha + 1.0) * np.maximum(nLs, 1e-300)
        lin_inv = q_inv / scale

    padded_factor = factors - pad
    alpha_pad = 0.0 if math.isinf(alpha) else (alpha + 1.0) * pad
    padded_inv = lin_inv - alpha_pad
    exp_margin = padded_factor - params.K

    restricted = np.linalg.norm(Ls[:, :, k:], ord=2, axis=(1, 2))  # 0 if k = d
    dom_margin = float((params.K - (restricted + pad)).min())

    worst = int(np.argmin(np.minimum(exp_margin,
                                     np.where(np.isinf(padded_inv), np.inf,
                                              padded_inv))))
    a2 = bool(np.all(exp_margin >= 0) and np.all(padded_inv > 0))
    return ConeCertificate(
        params=params, grid_res=grid_res, padding=float(pad),
        expansion_factor=float(factors.min()),
        invariance_margin=float(lin_inv.min()) if not np.all(np.isinf(lin_inv)) else math.inf,
        expansion_margin=float(exp_margin.min()),
        domination_margin=dom_margin,
        worst_cell=tuple(centers[worst]),
        a2_pass=a2, a4_pass=a2 and dom_margin > 0)


def tau(params: ConeParams) -> float:
    """Lower bound on the core projection of a unit cone vector: for
    ||b|| <= alpha ||a|| and ||v|| = 1, ||a|| >= 1/sqrt(1 + alpha^2)."""
    if math.isinf(params.alpha):
        raise ValueError("tau is not positive for an infinite cone opening")
    return 1.0 / math.sqrt(1.0 + params.alpha ** 2)
