"""Hot numeric kernels: trig-sum evaluation and its Jacobian, forward orbit
sweeps, and the inverse-lift fixed-point iteration.

Each kernel has one vectorised numpy implementation that works on a whole
batch of points per call; callers pass the spec's terms as flat arrays
(see dynamics.term_arrays).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def eval_trig(Z, comps, coefs, kinds, freqs, d):
    """G(Z) for a batch Z of shape (n, d); terms given as flat arrays.

    comps: (T,) 0-based component indices; kinds: (T,) 0=sin 1=cos;
    freqs: (T, d) integer frequency rows.  Returns (n, d).
    """
    n = Z.shape[0]
    out = np.zeros((n, d))
    if len(coefs) == 0:
        return out
    phase = TWO_PI * (Z @ freqs.T)          # (n, T)
    vals = np.where(kinds[None, :] == 0, np.sin(phase), np.cos(phase))
    vals = vals * coefs[None, :]
    for i in range(d):
        sel = comps == i
        if np.any(sel):
            out[:, i] = vals[:, sel].sum(axis=1)
    return out


def eval_trig_jac_numpy(Z, comps, coefs, kinds, freqs, d):
    """DG(Z) for a batch Z of shape (n, d). Returns (n, d, d)."""
    n = Z.shape[0]
    out = np.zeros((n, d, d))
    if len(coefs) == 0:
        return out
    phase = TWO_PI * (Z @ freqs.T)
    dvals = np.where(kinds[None, :] == 0, np.cos(phase), -np.sin(phase))
    dvals = dvals * (TWO_PI * coefs)[None, :]   # (n, T)
    for t in range(len(coefs)):
        out[:, comps[t], :] += dvals[:, t:t + 1] * freqs[t][None, :]
    return out


def orbit_g_values(theta0, Mf, comps, coefs, kinds, freqs, nsteps):
    """Forward torus orbit sweep: returns (G(theta_0..theta_{nsteps-1}))
    stacked as (nsteps, n, d), iterating theta <- (M theta + G(theta)) mod 1."""
    n, d = theta0.shape
    gs = np.empty((nsteps, n, d))
    theta = theta0.copy()
    for j in range(nsteps):
        g = eval_trig(theta, comps, coefs, kinds, freqs, d)
        gs[j] = g
        theta = np.mod(theta @ Mf.T + g, 1.0)
    return gs


def invert_lift_numpy(Z, Minv, comps, coefs, kinds, freqs, tol, max_iter):
    """Batch solve F(w) = z by the contraction w <- M^-1 (z - G(w)).

    Returns (w, residual) with residual the per-point Euclidean residual of
    M w + G(w) - z after the final iterate.  G is evaluated once per step:
    the G(w) of the residual check is the one the next step uses.
    """
    d = Z.shape[1]
    W = Z @ Minv.T
    Mf = np.linalg.inv(Minv)
    g = eval_trig(np.mod(W, 1.0), comps, coefs, kinds, freqs, d)
    res = np.sqrt(((W @ Mf.T + g - Z) ** 2).sum(axis=1))
    for _ in range(max_iter):
        W_new = (Z - g) @ Minv.T
        step = np.sqrt(((W_new - W) ** 2).sum(axis=1)).max()
        W = W_new
        g = eval_trig(np.mod(W, 1.0), comps, coefs, kinds, freqs, d)
        res = np.sqrt(((W @ Mf.T + g - Z) ** 2).sum(axis=1))
        if step == 0.0 or res.max() <= tol:
            break
    return W, res
