"""Hot numeric kernels: trig-sum evaluation and its Jacobian, and the
safeguarded Newton solve of the inverse lift.

Each kernel has one vectorised numpy implementation that works on a whole
batch of points per call.  Callers pass G in the unique-phase layout of
dynamics.term_arrays: one row per distinct (kind, frequency), sin rows
first, so each phase goes through one transcendental however many
components it feeds, and every component sum is one matrix product.

That transcendental is one tangent.  Each phase s = k.z is reduced mod 1
first: r = s - rint(s) is exact (Sterbenz) and lies in [-1/2, 1/2], so
sin(2 pi s) = sin(2 pi r) and the rounding no longer grows with |s|.  From
t = tan(pi r) the half-angle identities give

    sin 2 pi r = 2 t / (1 + t^2),    cos 2 pi r = (1 - t^2) / (1 + t^2).

numpy's float64 tan is SIMD code where its sin and cos are scalar libm
calls, so one tan and a few multiplies, adds and divides cost less than
one sin or cos.  At r = +-1/2 the rounded pi r lies just below pi / 2, so
|t| <= 1.7e16 and nothing overflows.

Rounding (u = 2^-53): pi r is off by under u |pi r|, which moves sin and
cos by under 2.7 u, as it moves libm's sin(2 pi r).  tan is good to about
half an ulp of t, and a relative error e of t moves sin by at most |e sin|
and cos by at most |e| (their condition numbers in t are cos and sin^2).
Each formula then rounds at most five times, each time relative to the
value or to the 1 + t^2 it divides by.  Against an extended-precision
reference, over 2.8 million phases, the values are within 3.8 u of sin and
cos (libm of 2 pi r: 3.2 u).

The phases are laid out frequency-major, one row of n points per unique
phase, so tan reads and writes one contiguous (U, n) block instead of
strided column slices of a point-major array.  The values are written into
a point-major array, so the component sums are the same C-ordered matrix
products as a point-major layout gives, bit for bit (an F-ordered product
of the transposed values would round differently in the last bit).
"""

from __future__ import annotations

import numpy as np


def wrap(x):
    """x mod 1 in [0, 1) for an array x: bit for bit np.mod(x, 1.0) for
    finite x, except that a result that rounds up to 1.0 (x a tiny
    negative) is +0.0, and several times cheaper."""
    y = x - np.floor(x)
    y[y >= 1.0] = 0.0
    return y


def _phases(Z, freqs):
    """The tangents tan(pi (s - rint s)) of the half phases, s = freqs @ Z.T,
    at the points of Z (n, d): frequency-major, (U, n).  freqs @ Z.T is, bit
    for bit, the transpose of Z @ freqs.T, its subtraction of rint is exact,
    and the scaling and the tangent work in place on the one buffer."""
    t = freqs @ Z.T
    t -= np.rint(t)
    t *= np.pi
    return np.tan(t, out=t)


def _trig_values(t, nsin, deriv=False):
    """(n, U) in C order from tangents t (U, n) of _phases: column u the sin
    (u < nsin) or cos (u >= nsin) of the phase 2 pi r of row u, or with
    deriv their derivatives, cos or -sin.

    h = (1 + t^2) / 2 is built in the result itself, by one strided write
    of t^2 and two contiguous passes; each column then becomes sin = t / h
    (-sin negated) or cos = (1/2 - t^2 / 2) / h, whose numerator is the one
    new array, a row per cos column.  Halving is exact, so these are the
    bits of 2 t / (1 + t^2) and (1 - t^2) / (1 + t^2), one division fewer."""
    vals = np.empty(t.shape[::-1])
    cols = vals.T
    np.multiply(t, t, out=cols)
    vals *= 0.5
    vals += 0.5
    sin, cos = slice(nsin), slice(nsin, None)
    if deriv:
        sin, cos = cos, sin
    np.divide(t[sin], cols[sin], out=cols[sin])
    if deriv:   # not np.negative: numpy 2.4 negates a strided view in place wrongly
        cols[sin] *= -1.0
    num = t[cos] * t[cos]
    num *= -0.5
    num += 0.5
    np.divide(num, cols[cos], out=cols[cos])
    return vals


def _dg(t, nsin, jac, d):
    """DG (n, d, d) at n points from their tangents (U, n) of _phases."""
    return (_trig_values(t, nsin, deriv=True) @ jac).reshape(-1, d, d)


def eval_trig(Z, freqs, coefs, nsin):
    """G(Z) (n, d) for a batch Z of shape (n, d).

    freqs: (U, d) integer frequency rows, the nsin sin rows first; coefs:
    (U, d), coefs[u, i] the coefficient of row u in component i.
    """
    return _trig_values(_phases(Z, freqs), nsin) @ coefs


def eval_jac(Z, freqs, nsin, jac):
    """DG(Z) (n, d, d) alone; jac: (U, d*d), jac[u, r*d + c] =
    2 pi coefs[u, r] freqs[u, c]."""
    return _dg(_phases(Z, freqs), nsin, jac, Z.shape[1])


def eval_trig_and_jac(Z, freqs, coefs, nsin, jac):
    """G(Z) (n, d) and DG(Z) (n, d, d) from one tangent per phase.  G is
    bitwise what eval_trig returns and DG what eval_jac returns."""
    t = _phases(Z, freqs)
    return _trig_values(t, nsin) @ coefs, _dg(t, nsin, jac, Z.shape[1])


def _solve_small(J, r):
    """x with J x = r for batches J (n, d, d), r (n, d); closed form for
    d = 2, LAPACK otherwise."""
    if r.shape[1] == 2:
        a, b, c, e = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        det = a * e - b * c
        x = np.empty(r.shape)
        np.divide(e * r[:, 0] - b * r[:, 1], det, out=x[:, 0])
        np.divide(a * r[:, 1] - c * r[:, 0], det, out=x[:, 1])
        return x
    return np.linalg.solve(J, r[:, :, None])[:, :, 0]


def _row_norms(r):
    """The Euclidean norm of each row of r (n, d), its squares summed left
    to right: bit for bit np.sqrt((r ** 2).sum(axis=1)), without the
    reduction's set-up cost on a few columns."""
    s = r[:, 0] * r[:, 0]
    for j in range(1, r.shape[1]):
        s += r[:, j] * r[:, j]
    return np.sqrt(s, out=s)


def _residual(W, Mf, g, Z):
    """M w + G(w) - z, one new array, summed left to right."""
    r = W @ Mf.T
    r += g
    r -= Z
    return r


def invert_lift_numpy(Z, Mf, Minv, terms, tol, max_iter):
    """Batch solve F(w) = M w + G(w) = z by safeguarded Newton.

    Each iteration evaluates G at a trial point per z.  From its accepted
    iterate w a point tries the Newton step w - (M + DG(w))^-1
    (M w + G(w) - z); it accepts the trial if the Euclidean residual
    ||M w + G(w) - z|| drops.  A point whose Newton trial did not lower its
    residual tries the contraction step M^-1 (z - G(w)) next, and accepts
    that one unconditionally.  The iteration stops once the largest accepted
    residual is <= tol, or after max_iter iterations.

    Each round does only the work its points need, with the same iterates:
    DG at the trials is taken from the tangents G was summed from, and only
    if another round follows to read it; a round in which every point takes
    Newton builds no contraction candidate; and a round in which every
    trial is accepted keeps the trial arrays as the new iterate instead of
    copying them in under a mask.

    Mf is the spec's integer M as floats and Minv its float inverse; the
    residuals use Mf itself, never a float re-inversion of Minv.  terms are
    the arguments of eval_trig_and_jac after Z (a dynamics.TermArrays).

    Returns (w, residual, G(w mod 1), iterations): the accepted iterates,
    their residuals, G at them (reduced mod 1 first, as the torus orbit
    uses it) and the number of G evaluations after the first.
    """
    freqs, coefs, nsin, jac = terms
    W = Z @ Minv.T
    # G at w - floor(w): wrap's fold of 1.0 to 0.0 would only cost time here
    g, J = eval_trig_and_jac(W - np.floor(W), *terms)
    J += Mf                 # DF(w) = M + DG(w), bit for bit Mf + DG(w)
    r = _residual(W, Mf, g, Z)
    res = _row_norms(r)
    newton = None           # None: every point takes Newton
    iters = 0
    while res.max(initial=0.0) > tol and iters < max_iter:
        trial = W - _solve_small(J, r)
        if newton is not None:
            trial = np.where(newton[:, None], trial, (Z - g) @ Minv.T)
        t = _phases(trial - np.floor(trial), freqs)
        g_t = _trig_values(t, nsin) @ coefs
        r_t = _residual(trial, Mf, g_t, Z)
        res_t = _row_norms(r_t)
        iters += 1
        acc = res_t < res
        if newton is not None:
            acc |= ~newton       # a contraction trial is always accepted
        every = acc.all()
        if every:
            W, g, r, res = trial, g_t, r_t, res_t
        else:
            for old, new in ((W, trial), (g, g_t), (r, r_t)):
                np.copyto(old, new, where=acc[:, None])
            np.copyto(res, res_t, where=acc)
        if res.max(initial=0.0) > tol and iters < max_iter:     # another round reads J
            J_t = _dg(t, nsin, jac, len(Mf))
            J_t += Mf
            if every:
                J = J_t
            else:
                np.copyto(J, J_t, where=acc[:, None, None])
        newton = None if every else acc     # accepted now: Newton next
    return W, res, g, iters
