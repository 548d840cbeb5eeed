"""Hot numeric kernels: trig-sum evaluation and its Jacobian, and the
safeguarded Newton solve of the inverse lift.

Each kernel has one vectorised numpy implementation that works on a whole
batch of points per call.  Callers pass G in the unique-phase layout of
dynamics.term_arrays: one row per distinct (kind, frequency), sin rows
first, so each phase goes through one transcendental however many
components it feeds, and every component sum is one matrix product.

The phases are laid out frequency-major, one row of n points per unique
phase, so the sin rows and the cos rows are each one contiguous block,
and sin and cos read contiguous memory instead of strided column slices
of a point-major array.  They write their values into a point-major
array, so the component sums are the same C-ordered matrix products as
a point-major layout gives, bit for bit (an F-ordered product of the
transposed values would round differently in the last bit).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap(x):
    """x mod 1: bit for bit np.mod(x, 1.0) for finite x, and several times
    cheaper."""
    return x - np.floor(x)


def _trig_rows(Z, freqs, nsin, jac=False):
    """(vals, dvals) at the points of Z (n, d), each (n, U) in C order:
    vals[:, u] the sin (u < nsin) or cos (u >= nsin) of the phases
    2 pi freqs[u] . z, and dvals[:, u] their derivatives, cos or -sin
    (None unless jac).  The phases are computed frequency-major, (U, n):
    2 pi (freqs @ Z.T) is, bit for bit, the transpose of 2 pi (Z @ freqs.T),
    and each sin / cos reads one contiguous block of its rows and writes the
    matching columns of the point-major result."""
    phase = freqs @ Z.T
    phase *= TWO_PI
    vals = np.empty(phase.shape[::-1])
    np.sin(phase[:nsin], out=vals.T[:nsin])
    np.cos(phase[nsin:], out=vals.T[nsin:])
    if not jac:
        return vals, None
    dvals = np.empty_like(vals)
    np.cos(phase[:nsin], out=dvals.T[:nsin])
    np.negative(np.sin(phase[nsin:]), out=dvals.T[nsin:])
    return vals, dvals


def eval_trig(Z, freqs, coefs, nsin):
    """G(Z) (n, d) for a batch Z of shape (n, d).

    freqs: (U, d) integer frequency rows, the nsin sin rows first; coefs:
    (U, d), coefs[u, i] the coefficient of row u in component i.
    """
    return _trig_rows(Z, freqs, nsin)[0] @ coefs


def eval_trig_and_jac(Z, freqs, coefs, nsin, jac):
    """G(Z) (n, d) and DG(Z) (n, d, d); jac: (U, d*d), jac[u, r*d + c] =
    2 pi coefs[u, r] freqs[u, c].  G is bitwise what eval_trig returns."""
    n, d = Z.shape
    vals, dvals = _trig_rows(Z, freqs, nsin, jac=True)
    return vals @ coefs, (dvals @ jac).reshape(n, d, d)


def _solve_small(J, r):
    """x with J x = r for batches J (n, d, d), r (n, d); closed form for
    d = 2, LAPACK otherwise."""
    if r.shape[1] == 2:
        a, b, c, e = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        det = a * e - b * c
        return np.stack([(e * r[:, 0] - b * r[:, 1]) / det,
                         (a * r[:, 1] - c * r[:, 0]) / det], axis=1)
    return np.linalg.solve(J, r[:, :, None])[:, :, 0]


def invert_lift_numpy(Z, Mf, Minv, terms, tol, max_iter):
    """Batch solve F(w) = M w + G(w) = z by safeguarded Newton.

    Each iteration evaluates G and DG once (eval_trig_and_jac) at a trial
    point per z.  From its accepted iterate w a point tries the Newton step
    w - (M + DG(w))^-1 (M w + G(w) - z); it accepts the trial if the
    Euclidean residual ||M w + G(w) - z|| drops.  A point whose Newton trial
    did not lower its residual tries the contraction step M^-1 (z - G(w))
    next, and accepts that one unconditionally.  The iteration stops once
    the largest accepted residual is <= tol, or after max_iter iterations.

    Mf is the spec's integer M as floats and Minv its float inverse; the
    residuals use Mf itself, never a float re-inversion of Minv.  terms are
    the arguments of eval_trig_and_jac after Z (a dynamics.TermArrays).

    Returns (w, residual, G(w mod 1), iterations): the accepted iterates,
    their residuals, G at them (reduced mod 1 first, as the torus orbit
    uses it) and the number of G/DG evaluations after the first.
    """
    W = Z @ Minv.T
    g, dg = eval_trig_and_jac(wrap(W), *terms)
    r = W @ Mf.T + g - Z
    res = np.sqrt((r ** 2).sum(axis=1))
    newton = np.ones(Z.shape[0], dtype=bool)
    iters = 0
    while res.max() > tol and iters < max_iter:
        trial = np.where(newton[:, None], W - _solve_small(Mf + dg, r),
                         (Z - g) @ Minv.T)
        g_t, dg_t = eval_trig_and_jac(wrap(trial), *terms)
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
