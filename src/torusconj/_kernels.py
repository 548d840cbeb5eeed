"""Hot numeric kernels: trig-sum evaluation and its Jacobian, and the
safeguarded Newton solve of the inverse lift.

Each kernel has one vectorised numpy implementation that works on a whole
batch of points per call; callers pass the spec's terms as flat arrays
(see dynamics.term_arrays).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def eval_trig(Z, comps, coefs, kinds, freqs, d):
    """G(Z) for a batch Z of shape (n, d); terms given as flat arrays.

    comps: (T,) 0-based component indices; kinds: (sin term indices, cos
    term indices); freqs: (T, d) integer frequency rows.  Each phase goes
    through one transcendental, the one its term needs.  Returns (n, d).
    """
    n = Z.shape[0]
    out = np.zeros((n, d))
    if len(coefs) == 0:
        return out
    phase = TWO_PI * (Z @ freqs.T)          # (n, T)
    sin_t, cos_t = kinds
    vals = np.empty_like(phase)
    vals[:, sin_t] = np.sin(phase[:, sin_t])
    vals[:, cos_t] = np.cos(phase[:, cos_t])
    return _component_sums(vals * coefs[None, :], comps, out)


def _component_sums(vals, comps, out):
    """out[:, i] = sum of the term values vals (n, T) of component i."""
    for i in range(out.shape[1]):
        sel = comps == i
        if np.any(sel):
            out[:, i] = vals[:, sel].sum(axis=1)
    return out


def eval_trig_and_jac(Z, comps, coefs, kinds, freqs, d):
    """G(Z) (n, d) and DG(Z) (n, d, d) from one sin and one cos of the
    phase; G is bitwise what eval_trig returns."""
    n = Z.shape[0]
    g = np.zeros((n, d))
    dg = np.zeros((n, d, d))
    if len(coefs) == 0:
        return g, dg
    phase = TWO_PI * (Z @ freqs.T)
    s, c = np.sin(phase), np.cos(phase)
    sin_t = kinds[0]
    vals, dvals = c.copy(), -s        # cos terms; sin terms overwritten
    vals[:, sin_t] = s[:, sin_t]
    dvals[:, sin_t] = c[:, sin_t]
    _component_sums(vals * coefs[None, :], comps, g)
    dvals *= (TWO_PI * coefs)[None, :]                 # (n, T)
    for t in range(len(coefs)):
        dg[:, comps[t], :] += dvals[:, t:t + 1] * freqs[t][None, :]
    return g, dg


def _solve_small(J, r):
    """x with J x = r for batches J (n, d, d), r (n, d); closed form for
    d = 2, LAPACK otherwise."""
    if r.shape[1] == 2:
        a, b, c, e = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        det = a * e - b * c
        return np.stack([(e * r[:, 0] - b * r[:, 1]) / det,
                         (a * r[:, 1] - c * r[:, 0]) / det], axis=1)
    return np.linalg.solve(J, r[:, :, None])[:, :, 0]


def invert_lift_numpy(Z, Mf, Minv, comps, coefs, kinds, freqs, tol, max_iter):
    """Batch solve F(w) = M w + G(w) = z by safeguarded Newton.

    Each iteration evaluates G and DG once (eval_trig_and_jac) at a trial
    point per z.  From its accepted iterate w a point tries the Newton step
    w - (M + DG(w))^-1 (M w + G(w) - z); it accepts the trial if the
    Euclidean residual ||M w + G(w) - z|| drops.  A point whose Newton trial
    did not lower its residual tries the contraction step M^-1 (z - G(w))
    next, and accepts that one unconditionally.  The iteration stops once
    the largest accepted residual is <= tol, or after max_iter iterations.

    Mf is the spec's integer M as floats and Minv its float inverse; the
    residuals use Mf itself, never a float re-inversion of Minv.

    Returns (w, residual, G(w mod 1), iterations): the accepted iterates,
    their residuals, G at them (reduced mod 1 first, as the torus orbit
    uses it) and the number of G/DG evaluations after the first.
    """
    d = Z.shape[1]
    W = Z @ Minv.T
    g, dg = eval_trig_and_jac(np.mod(W, 1.0), comps, coefs, kinds, freqs, d)
    r = W @ Mf.T + g - Z
    res = np.sqrt((r ** 2).sum(axis=1))
    newton = np.ones(Z.shape[0], dtype=bool)
    iters = 0
    while res.max() > tol and iters < max_iter:
        trial = np.where(newton[:, None], W - _solve_small(Mf + dg, r),
                         (Z - g) @ Minv.T)
        g_t, dg_t = eval_trig_and_jac(np.mod(trial, 1.0), comps, coefs, kinds,
                                      freqs, d)
        r_t = trial @ Mf.T + g_t - Z
        res_t = np.sqrt((r_t ** 2).sum(axis=1))
        iters += 1
        newton = ~newton | (res_t < res)     # accepted now: Newton next
        acc = newton[:, None]
        for old, new in ((W, trial), (g, g_t), (r, r_t)):
            np.copyto(old, new, where=acc)
        np.copyto(dg, dg_t, where=acc[:, :, None])
        np.copyto(res, res_t, where=newton)
    return W, res, g, iters
