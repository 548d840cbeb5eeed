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

Layout.  The phases, their tangents and the sin / cos values are
contiguous (U, n) rows, one row of n points per unique phase, so every
elementwise pass reads and writes contiguous memory.  A sweep (the forward
orbit of semiconj._orbit, the Newton rounds below) keeps its points, G,
residuals and DF as coordinate-major (d, n) rows too, in buffers it
allocates once per call and writes through out= at every step: a fresh
array would pay its page faults again on every step.

Product order.  Every matrix product is written in the point-major operand
order, on transposed views: s = freqs @ Z.T, G = values.T @ coefs (the
F-ordered view of the rows), DG = values.T @ jac, z @ M.T, with an out=
that is the transposed view of the result's rows.  For d = 2 and 3 these
round as the products of point-major C-ordered arrays did, bit for bit
(checked at n = 1, 7, 64, 4096 and 4097); the coordinate-major product
of a C-ordered copy of coefs.T with the values does not, as its
matrix-vector product at n = 1 sums in another order.  A matrix-vector
product sums in the order its matrix's memory dictates, so where one is
left its last bit can move with the layout: the component sums at d = 1
(one column of coefs), and a sweep's phases at d = 3 with one unique
phase (one row of freqs against the (d, n) rows of the orbit).
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


def _phases(Z, freqs, t=None, scratch=None):
    """The tangents tan(pi (s - rint s)) of the half phases, s = freqs @ Z.T,
    at the points of Z (n, d): frequency-major, (U, n), written into t if
    given, with scratch (U, n) holding rint s.  Z may be the transposed
    view of coordinate-major rows (d, n).  The subtraction of rint is
    exact, and the scaling and the tangent work in place on t."""
    t = np.matmul(freqs, Z.T, out=t)
    t -= np.rint(t, out=scratch)
    t *= np.pi
    return np.tan(t, out=t)


def _trig_values(t, nsin, deriv=False, vals=None, num=None):
    """(n, U), the transposed view of contiguous rows (U, n), from tangents
    t (U, n) of _phases: row u the sin (u < nsin) or cos (u >= nsin) of the
    phase 2 pi r of row u of t, or with deriv their derivatives, cos or -sin.

    The rows are written into vals (U, n) if given.  h = (1 + t^2) / 2
    fills them first; each row then becomes sin = t / h (-sin negated) or
    cos = (1/2 - t^2 / 2) / h.  The cos numerators go to the rows of num
    (U, n), a new array if num is None; num may be t itself, whose cos
    rows are then spent.  Halving is exact, so these are the bits of
    2 t / (1 + t^2) and (1 - t^2) / (1 + t^2), one division fewer."""
    vals = np.multiply(t, t, out=vals)
    vals *= 0.5
    vals += 0.5
    sin, cos = slice(nsin), slice(nsin, None)
    if deriv:
        sin, cos = cos, sin
    np.divide(t[sin], vals[sin], out=vals[sin])
    if deriv:
        np.negative(vals[sin], out=vals[sin])
    num = np.multiply(t[cos], t[cos], out=None if num is None else num[cos])
    num *= -0.5
    num += 0.5
    np.divide(num, vals[cos], out=vals[cos])
    return vals.T


def eval_trig(Z, freqs, coefs, nsin, work=None, out=None):
    """G(Z) (n, d) for a batch Z of shape (n, d).

    freqs: (U, d) integer frequency rows, the nsin sin rows first; coefs:
    (U, d), coefs[u, i] the coefficient of row u in component i.  work, if
    given, is two (U, n) buffers (tangents, values) the call overwrites,
    and out an (n, d) array, or the transposed view of (d, n) rows, that
    receives G; a sweep passes the same ones at every step.
    """
    t, vals = (None, None) if work is None else work
    t = _phases(Z, freqs, t, vals)
    return np.matmul(_trig_values(t, nsin, False, vals, t), coefs, out=out)


def eval_jac(Z, freqs, nsin, jac):
    """DG(Z) (n, d, d) for a batch Z of shape (n, d); jac: (U, d*d),
    jac[u, r*d + c] = 2 pi coefs[u, r] freqs[u, c]."""
    d = Z.shape[1]
    return (_trig_values(_phases(Z, freqs), nsin, deriv=True) @ jac).reshape(-1, d, d)


def _solve_small(J, r):
    """x (n, d) with J x = r for batches J (n, d, d), r (n, d); closed form
    for d = 2, into a coordinate-major (d, n) array, LAPACK otherwise."""
    if r.shape[1] == 2:
        a, b, c, e = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        det = a * e - b * c
        x = np.empty(r.shape[::-1]).T
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


def _residual(W, Mf, g, Z, r):
    """M w + G(w) - z, summed left to right, into the rows r (d, n); W and
    g are (d, n) rows, Z the (n, d) targets."""
    np.matmul(W.T, Mf.T, out=r.T)
    r += g
    r -= Z.T


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
    trial is accepted swaps the trial buffers in as the new iterate instead
    of copying them in under a mask.  The iterates, G, the residuals and
    DF = M + DG are coordinate-major rows, in buffers allocated once per
    call, as are the trig kernel's (U, n) tangents and values; every
    product is taken in the point-major operand order on transposed views,
    which rounds as point-major arrays do.

    Mf is the spec's integer M as floats and Minv its float inverse; the
    residuals use Mf itself, never a float re-inversion of Minv.  terms is
    G in the layout of eval_trig and eval_jac, a dynamics.TermArrays
    (freqs, coefs, nsin, jac).

    Returns (w, residual, G(w mod 1), iterations): the accepted iterates,
    their residuals, G at them (reduced mod 1 first, as the torus orbit
    uses it) and the number of G evaluations after the first; w and G are
    (n, d) views of coordinate-major rows.
    """
    freqs, coefs, nsin, jac = terms
    n, d = Z.shape
    # each iterate quantity with its trial's, and two scratch rows
    W, trial, g, g_t, r, r_t, tmp, step = np.empty((8, d, n))
    J, J_t = np.empty((2, d * d, n))         # DF, row r * d + c its entry (r, c)
    t, vals, num = np.empty((3, len(coefs), n))

    def g_at(w, out):
        """G at w - floor(w) into the rows out, keeping its tangents in t:
        wrap's fold of 1.0 to 0.0 would only cost time here."""
        np.subtract(w, np.floor(w, out=tmp), out=tmp)
        _phases(tmp.T, freqs, t, vals)
        np.matmul(_trig_values(t, nsin, False, vals, num), coefs, out=out.T)

    def df_at(out):
        """M + DG from the tangents in t into the rows out (d * d, n)."""
        np.matmul(_trig_values(t, nsin, True, vals, num), jac, out=out.T)
        out += Mf.reshape(-1, 1)

    np.matmul(Z, Minv.T, out=W.T)
    g_at(W, g)
    df_at(J)
    _residual(W, Mf, g, Z, r)
    res = _row_norms(r.T)
    newton = None           # None: every point takes Newton
    iters = 0
    while res.max(initial=0.0) > tol and iters < max_iter:
        np.subtract(W, _solve_small(J.reshape(d, d, n).transpose(2, 0, 1), r.T).T, out=trial)
        if newton is not None:      # the contraction step where Newton was refused
            np.subtract(Z.T, g, out=tmp)
            np.matmul(tmp.T, Minv.T, out=step.T)
            np.copyto(trial, step, where=~newton)
        g_at(trial, g_t)
        _residual(trial, Mf, g_t, Z, r_t)
        res_t = _row_norms(r_t.T)
        iters += 1
        acc = res_t < res
        if newton is not None:
            acc |= ~newton       # a contraction trial is always accepted
        every = acc.all()
        if every:
            W, trial, g, g_t, r, r_t, res = trial, W, g_t, g, r_t, r, res_t
        else:
            for old, new in ((W, trial), (g, g_t), (r, r_t)):
                np.copyto(old, new, where=acc)
            np.copyto(res, res_t, where=acc)
        if res.max(initial=0.0) > tol and iters < max_iter:     # another round reads J
            df_at(J_t)
            if every:
                J, J_t = J_t, J
            else:
                np.copyto(J, J_t, where=acc)
        newton = None if every else acc     # accepted now: Newton next
    return W.T, res, g.T, iters
