"""Invariant / expanding / dominated cone certification on grids.

Cones are the constant coordinate cones C_alpha = {(a, b): ||b|| <= alpha
||a||} with a the first k components (checked in block coordinates).  Each
cell needs two minima over the unit vectors v of C_alpha, of the expansion
form ||(Lv)_a||^2 and of the invariance form alpha^2 ||(Lv)_a||^2 -
||(Lv)_b||^2.

For k = 1 the expansion minimum has a closed form on every d, and on d = 2
so has the invariance minimum (the least value of a 2x2 quadratic form on
an arc of the circle).  Both are rounded outward: the returned value is the
float result minus an a-priori bound on its rounding in the standard model
of floating-point arithmetic, |fl(x op y) - x op y| <= u |x op y|, whose n
operations accumulate to gamma_n = n u / (1 - n u) (Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed., 2002, ch. 3).

Every other minimum (k >= 2, and the invariance minimum at d >= 3) comes
from an S-procedure on the symmetric pencil Q - lambda*J: for any lambda >=
0, h(lambda) = lambda_min(Q - lambda*J) lower-bounds the constrained
minimum, and max over lambda of h is tight for a single homogeneous
quadratic constraint (Polik & Terlaky, "A survey of the S-lemma", SIAM
Review 49, 2007).  h is concave; lambda is searched for by a safeguarded
Newton iteration on h', whose rounds evaluate h, h' and h'' in closed form
for d <= 3 (a batched eigh only for d >= 4).  The search may be inexact.
The value is certified once, at the end: a shift mu below the best h found
is a lower bound on lambda_min(Q - lambda J) if the float LDL^T pivots of
Q - lambda J - mu I are >= 0, with an a-priori margin for their rounding
(a gamma-multiple of the trace, after Rump's test for Cholesky) and for
forming Q in float.  The k = d minimum, lambda_min(L^T L), is certified by
the same check, so every minimum returned is a checked lower bound; so is
lambda_min(-L^T L), which bounds the cell norms ||L||_2 and ||L[:, k:]||_2
that the margins divide by and subtract above (_norm2_upper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, semiconj
from .errors import FloatRangeError
from .specdsl import TorusMapSpec

GAP_ULPS = 4.0      # stop once the tangent-cut gap is this many ulps of the pencil's scale
MAX_ROUNDS = 200    # cap on search rounds; a capped cell is certified at its best lambda
LAM_HI = 1e6        # the pencil's lambda runs over [0, LAM_HI * max(||L||^2, 1)]
# the largest ||L|| max(alpha, 1) whose pencils stay 64x inside float64
MAX_SCALE = math.sqrt(np.finfo(float).max / 64.0 / (LAM_HI + 1.0))
U = np.finfo(float).eps / 2     # unit roundoff of float64
# an absolute term for underflow, which the standard model leaves out: each
# closed form makes fewer than 64 operations, each off by at most half the
# least subnormal when its result underflows, and none amplified
TINY = 2.0 ** -1069


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the relative rounding of n operations."""
    return n * U / (1.0 - n * U)


def _down(x):
    """The float below x: a lower bound on the exact result of the one
    correctly rounded operation (+, -, *, /, sqrt) that gave x."""
    return np.nextafter(x, -np.inf)


def _up(x):
    """The float above x: an upper bound on that exact result."""
    return np.nextafter(x, np.inf)


@dataclass(frozen=True)
class ConeParams:
    k: int
    alpha: float        # cone opening, finite and > 0
    K: float            # claimed expansion constant, > 1

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"cone opening alpha must be finite and > 0, got {self.alpha!r}")


class PencilSolve(NamedTuple):
    value: np.ndarray   # certified lower bound on lambda_min(Q* - lam J), per pencil
    lam: np.ndarray     # the lam in [0, lam_hi] it is certified at
    gap: np.ndarray     # tangent-cut upper bound on the optimum minus value
    rounds: int         # batched search rounds


def _eig2(a, b, c):
    """(lo, hi, x, y): the eigenvalues lo <= hi of the symmetric 2x2
    matrices [[a, b], [b, c]], scaled to entries of order 1, and the unit
    eigenvector (x, y) of lo; that of hi is (-y, x).  lo and hi are the
    mean minus and plus h = |((a - c) / 2, b)|, and (x, y) is read from the
    row of A - lo I whose diagonal, p + h or h - p for p = (a - c) / 2, is
    free of cancellation.  2^-500 added to that diagonal makes (x, y) =
    (0, 1) or (1, 0) for a multiple of I and moves nothing else."""
    m, p = 0.5 * (a + c), 0.5 * (a - c)
    h = np.sqrt(p * p + b * b)
    pos = p >= 0
    x = np.where(pos, -b, (h + 2.0 ** -500) - p)
    y = np.where(pos, (p + 2.0 ** -500) + h, -b)
    r = np.sqrt(x * x + y * y)
    return m - h, m + h, x / r, y / r


def _pow2_scale(X: np.ndarray) -> float:
    """The power of 2 that scales the largest |entry| of X into [1/2, 1)
    exactly (1 if X is 0)."""
    return math.ldexp(1.0, -math.frexp(float(np.abs(X).max()))[1])


def _pencil_eval3(Q: np.ndarray, jd: np.ndarray, lam: np.ndarray):
    """_pencil_eval for d = 3, in closed form: a float estimate for the
    search, which the certificate does not trust.

    The batch is scaled by a power of 2 to a largest entry in [1/2, 1).
    The eigenvalues of A = Q - lam J are q + 2p cos(phi + 2 pi j / 3), q =
    tr A / 3, p the RMS deviation of A - qI and cos(3 phi) = det(A - qI) /
    (2 p^3) (O. K. Smith, Comm. ACM 4, 1961).  That formula loses digits at
    a repeated eigenvalue, so only the isolated one is kept: the largest if
    the determinant is >= 0, else the smallest.  Its eigenvector v is the
    longest row of adj(A - mu I), a cross product of two rows of A - mu I
    (J. Kopp, Int. J. Mod. Phys. C 19, 2008, arXiv:physics/0610206), taken
    as the row of the largest diagonal cofactor, and the eigenvalue is then
    its Rayleigh quotient v^T A v.  The other two eigenpairs
    are those of the 2x2 restriction of A to the plane orthogonal to v,
    spanned by u and w = v x u (D. Eberly, "A robust eigensolver for 3x3
    symmetric matrices", 2014), which holds a near-repeated pair to the
    accuracy of its entries.  h' and h'' then need only the form J on v, u
    and w."""
    B = np.stack([Q[:, 0, 0], Q[:, 1, 1], Q[:, 2, 2], Q[:, 0, 1], Q[:, 0, 2], Q[:, 1, 2]])
    B[:3] -= lam * jd[:, None]
    f = _pow2_scale(B)
    B *= f
    a00, a11, a22, a01, a02, a12 = B
    q = (a00 + a11 + a22) * (1.0 / 3.0)
    b0, b1, b2 = a00 - q, a11 - q, a22 - q
    p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) * (1.0 / 6.0)
    p = np.sqrt(p2)
    det = b0 * (b1 * b2 - a12 * a12) - a01 * (a01 * b2 - a12 * a02) + a02 * (a01 * a12 - b1 * a02)
    r = 0.5 * det / np.maximum(p2 * p, 2.0 ** -1000)
    top = r >= 0
    phi = np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) * (1.0 / 3.0)
    iso = q + 2.0 * p * np.cos(phi + np.where(top, 0.0, 2.0 * math.pi / 3.0))
    c0, c1, c2 = a00 - iso, a11 - iso, a22 - iso
    C00, C11, C22 = c1 * c2 - a12 * a12, c0 * c2 - a02 * a02, c0 * c1 - a01 * a01
    C01, C02, C12 = a02 * a12 - a01 * c2, a01 * a12 - a02 * c1, a01 * a02 - c0 * a12
    d0, d1, d2 = np.abs(C00), np.abs(C11), np.abs(C22)
    k0 = (d0 >= d1) & (d0 >= d2)
    k2 = ~k0 & (d2 > d1)
    # 2^-500 on the picked diagonal: e_i when adj(A - mu I) = 0
    x = np.where(k0, C00 + 2.0 ** -500, np.where(k2, C02, C01))
    y = np.where(k0, C01, np.where(k2, C12, C11 + 2.0 ** -500))
    z = np.where(k0, C02, np.where(k2, C22 + 2.0 ** -500, C12))
    nv = np.sqrt(x * x + y * y + z * z)
    x, y, z = x / nv, y / nv, z / nv
    # the Rayleigh quotient of v in place of the formula's value: its
    # rounding scales with |v|^T |A| |v|, not with the largest entry of A
    iso = (x * (a00 * x + a01 * y + a02 * z) + y * (a01 * x + a11 * y + a12 * z)
           + z * (a02 * x + a12 * y + a22 * z))
    big = np.abs(x) > np.abs(y)
    ux, uy, uz = np.where(big, -z, 0.0), np.where(big, 0.0, z), np.where(big, x, -y)
    nu = np.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / nu, uy / nu, uz / nu
    wx, wy, wz = y * uz - z * uy, z * ux - x * uz, x * uy - y * ux
    su0, su1, su2 = (a00 * ux + a01 * uy + a02 * uz, a01 * ux + a11 * uy + a12 * uz,
                     a02 * ux + a12 * uy + a22 * uz)
    sw0, sw1, sw2 = (a00 * wx + a01 * wy + a02 * wz, a01 * wx + a11 * wy + a12 * wz,
                     a02 * wx + a12 * wy + a22 * wz)
    lo, hi, cx, cy = _eig2(ux * su0 + uy * su1 + uz * su2, ux * sw0 + uy * sw1 + uz * sw2,
                           wx * sw0 + wy * sw1 + wz * sw2)
    # the form J on v, u and w, then on v, vlo = cx u + cy w and vhi = cx w - cy u
    j0, j1, j2 = (float(j) for j in jd)
    jx, jy, jz = j0 * x, j1 * y, j2 * z
    vv, vu, vw = jx * x + jy * y + jz * z, jx * ux + jy * uy + jz * uz, jx * wx + jy * wy + jz * wz
    uu = j0 * ux * ux + j1 * uy * uy + j2 * uz * uz
    ww = j0 * wx * wx + j1 * wy * wy + j2 * wz * wz
    uw = j0 * ux * wx + j1 * uy * wy + j2 * uz * wz
    cxy, cxx, cyy = cx * cy, cx * cx, cy * cy
    ll = cxx * uu + 2.0 * cxy * uw + cyy * ww
    lh = cxy * (ww - uu) + (cxx - cyy) * uw
    vl, vh = cx * vu + cy * vw, cx * vw - cy * vu
    # v0 is vlo if the largest eigenvalue is the isolated one, else v; its
    # couplings to the other two, and their gaps mu0 - muj (< 0 unless a kink)
    e1, e2 = np.where(top, lh, vl), np.where(top, vl, vh)
    g1, g2 = np.where(top, lo - hi, iso - lo), np.where(top, lo - iso, iso - hi)
    smooth = (g1 < 0) & (g2 < 0)
    curv = np.where(smooth, e1 * e1 / np.minimum(g1, -2.0 ** -500)
                    + e2 * e2 / np.minimum(g2, -2.0 ** -500), -np.inf)
    h = np.where(top, lo, iso)
    scale = np.maximum(np.abs(h), np.abs(np.where(top, iso, hi)))
    return h / f, -np.where(top, ll, vv), 2.0 * curv * f, scale / f


def _ldlt_pivots(A: np.ndarray) -> np.ndarray:
    """The pivots (n, d) of the float LDL^T factorisation, without pivoting,
    of a batch of symmetric matrices, read from their upper triangles.

    Row k of the reduced matrix is u_k = a_k - sum_{i<k} l_ki u_i with l_ki
    = u_ik / u_ii, summed in order of i: Doolittle's elimination.  Past a
    pivot that is not > 0 the cell has failed and is not reduced further.
    An overflow leaves -inf or NaN in a later pivot, never a false +."""
    A = A.copy()
    n, d, _ = A.shape
    piv = np.empty((n, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d):
            piv[:, k] = A[:, k, k]
            row = A[:, k, k + 1:]
            l = np.divide(row, piv[:, k, None], out=np.zeros_like(row), where=piv[:, k, None] > 0)
            A[:, k + 1:, k + 1:] -= l[:, :, None] * row[:, None, :]
    return piv


def _certify_lambda_min(Q, q_err, J, lam, mu):
    """A certified lower bound, per pencil, on lambda_min(Q* - lam J*) for
    the exact Q* within q_err (in 2-norm) of the float Q, the float lam >= 0
    and the exact diagonal J* that the float diagonal J rounds, near the
    search's estimate mu of lambda_min(Q - lam J).

    With B = fl(Q - lam J) and A = fl(B - s I) for a shift s, let D and L
    be the computed pivots and multipliers of A's LDL^T factorisation.  If
    every pivot is >= 0 (the leading d - 1 > 0), L D L^T is positive
    semidefinite, and E = L D L^T - A has |E| <= gamma_(d+2) |L| D |L|^T
    entrywise: gamma_d of Doolittle's inner products and one unit of each
    multiplier's division (N. J. Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., 2002, thm 9.3).  As ||(|L| D |L|^T)||_2
    <= ||D^(1/2) |L|^T||_F^2 = tr(L D L^T) <= tr A + ||E||_2, that gives
    ||E||_2 <= gamma_(d+2) / (1 - gamma_(d+2)) tr A <= gamma_(2d+4) tr A
    (the trace argument of S. M. Rump, "Verification of positive
    definiteness", BIT 46, 2006, with LDL^T in place of Cholesky).  So
    lambda_min(A) >= -gamma_(2d+4) tr A, and A differs from Q* - lam J* -
    sI by at most q_err, gamma_3 lam max |J| (lam J's product and J's own
    rounding) and u |B_ii| + u |A_ii| on the diagonal.  Their sum R, with
    |A_ii| in place of the trace, one gamma unit more and an underflow term
    d^2 TINY (1 + tr), gives lambda_min(Q* - lam J*) >= s - R; subtracting
    4u (|s| + R) + TINY covers evaluating s - R.

    The first shift is s = mu - m, m = gamma_(2d+5) sum_i |B_ii - mu| +
    gamma_d sum_i |B_ii|: the check's own margin at s = mu, and d units of
    the pencil's scale for the error of a closed-form mu, which subtracts
    tr B / d from B.  A cell whose pivots fail doubles m and is checked
    again, up to 64 times; one that still fails, as a NaN estimate does,
    gets -inf.  No value is returned unchecked."""
    n, d, _ = Q.shape
    i = np.arange(d)
    B = Q - lam[:, None, None] * J
    bd = B[:, i, i]
    g = _gamma(2 * d + 5)
    base = (q_err + _gamma(3) * lam * float(np.abs(np.diagonal(J)).max())
            + U * np.abs(bd).sum(axis=1))
    m0 = g * np.abs(bd - mu[:, None]).sum(axis=1) + _gamma(d) * np.abs(bd).sum(axis=1) + TINY
    value = np.full(n, -np.inf)
    todo = np.arange(n)
    for j in range(64):
        s = mu[todo] - m0[todo] * 2.0 ** j
        A = B[todo]
        A[:, i, i] = bd[todo] - s[:, None]
        tr = np.abs(A[:, i, i]).sum(axis=1)
        piv = _ldlt_pivots(A)
        ok = (piv[:, :-1] > 0).all(axis=1) & (piv[:, -1] >= 0)
        R = base[todo] + g * tr + d * d * TINY * (1.0 + tr)
        value[todo[ok]] = ((s - R) - (4.0 * U * (np.abs(s) + R) + TINY))[ok]
        todo = todo[~ok]
        if not todo.size:
            break
    return value


def _pencil_eval(Q: np.ndarray, J: np.ndarray, lam: np.ndarray):
    """h = lambda_min(Q - lam J) for a batch and a diagonal J, with h' =
    -v0^T J v0, h'' = 2 sum_{j>0} (v0^T J vj)^2 / (mu0 - muj) (-inf at a
    repeated lowest eigenvalue, a kink) and the pencil's scale max |mu|:
    float estimates for the search, in closed form for d <= 3 and by a
    batched eigh for d >= 4."""
    n, d, _ = Q.shape
    if d == 3:
        return _pencil_eval3(Q, np.diagonal(J), lam)
    A = Q - lam[:, None, None] * J
    if d == 2:
        f = _pow2_scale(A)
        lo, hi, x, y = _eig2(A[:, 0, 0] * f, A[:, 0, 1] * f, A[:, 1, 1] * f)
        mu, V = np.stack([lo, hi], 1) / f, np.stack([np.stack([x, -y], 1), np.stack([y, x], 1)], 1)
    elif d == 1:
        mu, V = A[:, 0], np.ones((n, 1, 1))
    else:
        mu, V = np.linalg.eigh(A)
    cpl = np.einsum("nij,ni->nj", V, V[:, :, 0] @ J)     # vj^T J v0
    gaps = mu[:, :1] - mu[:, 1:]                          # <= 0
    terms = np.divide(cpl[:, 1:] ** 2, gaps, out=np.full_like(gaps, -np.inf),
                      where=gaps < 0)
    scale = np.maximum(np.abs(mu[:, 0]), np.abs(mu[:, -1]))
    return mu[:, 0], -cpl[:, 0], 2.0 * terms.sum(axis=1), scale


def _pencil_max_lambda_min(Q: np.ndarray, J: np.ndarray, lam_hi: float,
                           q_err: np.ndarray) -> PencilSolve:
    """max over lambda in [0, lam_hi] of h(lambda) = lambda_min(Q - lambda J),
    for a batch Q of shape (n, d, d) sharing one diagonal J, certified for
    the exact Q* within q_err (per pencil, in 2-norm) of Q.

    h is concave with supergradient h' = -v0^T J v0.  The first round
    evaluates both ends of [0, lam_hi]; every cell whose maximiser is not at
    an end then keeps a bracket lo < hi with h'(lo) > 0 > h'(hi).  The
    tangents at lo and hi bound h from above, so the maximiser also lies
    where both tangents exceed the best value found.  Each later round
    evaluates one lambda per unconverged cell in one batched search
    round (_pencil_eval):

    - the Newton point lambda - h'/h'' from the last point, when it lies in
      that narrowed bracket and its step is at most half the previous one;
      the step is lengthened by r^2 / max(|step|, r), r^2 = tol / (4 |h''|),
      so that once it crosses the maximiser the bracket ends a and b away
      from it have a*b <= r^2 and the gap, about |h''| a b, is tol / 4;
    - else the point where the two tangents meet (exact at a kink between
      linear pieces, where a repeated eigenvalue makes h'' = -inf);
    - else the bracket's midpoint.

    A cell stops when the tangent-cut gap (the tangents' meeting value minus
    the best h evaluated) is at most tol = GAP_ULPS ulps of the pencil's
    scale, when its bracket is down to adjacent floats, or after MAX_ROUNDS.
    Converged cells leave the batch.  The search may be inexact: its h are
    float estimates.  Soundness rests on one step at the end, where
    _certify_lambda_min turns the best h of each cell into a certified
    lower bound on lambda_min(Q* - lambda J) at that cell's lambda, a
    lower bound on the constrained minimum by weak duality.  The gap is
    the tangent upper bound minus that certified value: how far below the
    S-procedure optimum it may sit.
    """
    n = len(Q)
    eps = np.finfo(float).eps
    ends = np.concatenate([np.zeros(n), np.full(n, float(lam_hi))])
    h, s, curv, scale = _pencil_eval(np.concatenate([Q, Q]), J, ends)
    lo = np.stack([ends[:n], h[:n], s[:n]])       # rows: lam, h, h'
    hi = np.stack([ends[n:], h[n:], s[n:]])
    at_lo = lo[1] >= hi[1]
    value, lam = np.where(at_lo, lo[1], hi[1]), np.where(at_lo, lo[0], hi[0])
    gap = np.zeros(n)
    rounds = 1
    # h'(0) <= 0 or h'(lam_hi) >= 0: the maximiser is an end, gap 0
    act = np.flatnonzero((lo[2] > 0) & (hi[2] < 0))
    lo, hi, Qa = lo[:, act], hi[:, act], Q[act]
    x, s, curv, scale = lo[0], lo[2], curv[act], scale[act]     # Newton starts at 0
    step = hi[0] - lo[0]
    while act.size:
        best = value[act]
        # the tangents at lo and hi meet at lo + t_cut; their value there
        # bounds the optimum from above
        t_cut = (hi[1] - lo[1] - hi[2] * (hi[0] - lo[0])) / (lo[2] - hi[2])
        cut_gap = np.maximum(lo[1] + lo[2] * t_cut - best, 0.0)
        gap[act] = cut_gap
        tol = GAP_ULPS * eps * scale
        live = (cut_gap > tol) & (hi[0] > np.nextafter(lo[0], np.inf)) & (rounds < MAX_ROUNDS)
        if not live.all():
            act, Qa, lo, hi = act[live], Qa[live], lo[:, live], hi[:, live]
            x, s, curv, tol, t_cut, step, best = (
                a[live] for a in (x, s, curv, tol, t_cut, step, best))
            if not act.size:
                break
        # the tangents reach best only inside [reach_lo, reach_hi] within
        # [lo, hi], as best >= h(lo), h(hi) and lo[2] > 0 > hi[2] in live cells
        reach_lo = lo[0] + (best - lo[1]) / lo[2]
        reach_hi = hi[0] + (best - hi[1]) / hi[2]
        smooth = np.isfinite(curv) & (curv < 0)
        newton = np.divide(-s, curv, out=np.zeros_like(curv), where=smooth)
        r2 = np.divide(tol, -4.0 * curv, out=np.zeros_like(curv), where=smooth)
        length = np.maximum(np.abs(newton), np.sqrt(r2))
        x_newton = x + newton + np.copysign(
            np.divide(r2, length, out=np.zeros_like(r2), where=length > 0), s)
        x_cut = lo[0] + t_cut
        take_newton = (smooth & (np.abs(newton) <= 0.5 * step)
                       & (reach_lo < x_newton) & (x_newton < reach_hi))
        x_new = np.where(take_newton, x_newton,
                         np.where((lo[0] < x_cut) & (x_cut < hi[0]), x_cut,
                                  lo[0] + 0.5 * (hi[0] - lo[0])))
        h, s, curv, scale = _pencil_eval(Qa, J, x_new)
        rounds += 1
        step, x = np.abs(x_new - x), x_new
        better = h > best
        value[act[better]], lam[act[better]] = h[better], x[better]
        up = s >= 0
        lo = np.where(up, np.stack([x, h, s]), lo)
        hi = np.where(up, hi, np.stack([x, h, s]))
    certified = _certify_lambda_min(Q, q_err, J, lam, value)
    return PencilSolve(certified, lam, gap + (value - certified), rounds)


def _range_gate(nL_max: float, alpha_max: float, pad: float = 0.0) -> None:
    """FloatRangeError unless the cone pencils of matrices with spectral
    norms at most nL_max, up to opening alpha_max and with padding pad,
    stay inside float64."""
    scale = max(nL_max, 1.0) * max(alpha_max, 1.0)
    if not (np.isfinite(pad) and scale <= MAX_SCALE):
        raise FloatRangeError(f"the cone pencils would leave float64: max(||L||, 1) max(alpha, 1) "
                              f"<= {scale:.3g} (at most {MAX_SCALE:.3g}), padding {pad:.3g}")


def _q_exp_k1(Ls: np.ndarray, alpha: float) -> np.ndarray:
    """min over unit v with ||v_b|| <= alpha |v_1| of (l.v)^2, l the first
    row of each L (l_1 its first entry, l_b the rest), rounded outward.

    Writing v = (cos t, sin t u) with ||u|| = 1 and tan|t| <= alpha, |l.v| is
    least at t = atan(alpha) with u along -sign(l_1) l_b, so the minimum is
    max(|l_1| - alpha ||l_b||, 0)^2 / (1 + alpha^2): 0 once the cone reaches
    the orthogonal complement of l.

    Rounding: ||l_b|| takes m - 1 hypot calls of at most one ulp (2u) each
    for the m = d - 1 entries of l_b, so p = alpha ||l_b|| is off by
    gamma_(2m-1) p and t = |l_1| - p by u |t| more.  A unit more on each
    term covers evaluating the bound and subtracting it.  When l_b = 0, t =
    |l_1| is exact and nothing is subtracted.  The quotient t^2 / (1 +
    alpha^2) is then off by at most 4u, so scaling it by the float 1 - 6u
    leaves it below the exact minimum."""
    m = Ls.shape[1] - 1
    l1 = np.abs(Ls[:, 0, 0])
    lb = np.hypot.reduce(np.abs(Ls[:, 0, 1:]), axis=1)
    p = alpha * lb
    t = l1 - p
    t = t - np.where(lb > 0, _gamma(3) * np.abs(t) + _gamma(2 * m) * p + TINY, 0.0)
    q = np.maximum(t, 0.0) ** 2 / (1.0 + alpha * alpha)
    return np.maximum(q * (1.0 - 6.0 * U) - TINY, 0.0)


def _q_inv_arc(Ls: np.ndarray, alpha: float) -> np.ndarray:
    """min over unit v with |v_2| <= alpha |v_1| of v^T Q v, Q = L^T J L with
    J = diag(alpha^2, -1), for a batch of 2x2 L, rounded outward.

    With Q = [[a, b], [b, c]], p = (a - c) / 2 and h = hypot(p, b), the form
    on v = (cos t, sin t) is (a + c) / 2 + h cos(2t - phi): its one minimum
    per half-turn is lambda_min = (a + c) / 2 - h, at the eigenvector with
    tan^2 t = (h + p) / (h - p).  That eigenvector lies in the arc |tan t|
    <= alpha iff h + p <= alpha |b| (the test read when p >= 0) or, the
    same, |b| <= alpha (h - p) (read when p < 0, free of cancellation).
    Outside the arc the minimum is the lesser end, v = (1, -+alpha) /
    sqrt(1 + alpha^2), of value (a + alpha^2 c - 2 alpha |b|) / (1 +
    alpha^2).  lambda_min lower-bounds the form on any arc, so only a
    certain outside is taken: a test whose sides are within gamma_16 of
    each other reads as inside.

    Rounding, with S = alpha^2 ||l||^2 + ||m||^2 for the rows l, m of L:
    each entry of Q is off by gamma_4 of the same entry of alpha^2 |l||l|^T
    + |m||m|^T, a matrix of 2-norm at most S, and a perturbation of Q moves
    the minimum over the arc by at most its 2-norm.  Given the float Q, and
    hypot taken as accurate to one ulp (2u), lambda_min is off by at most
    4u ||Q||_2 = 4u (|a + c| / 2 + h), and the end by 7u of its value with
    |a|, |b| and |c| in place of a, -b and c.  Subtracting the bound rounds
    by u of the value, and the unit of S beyond gamma_4 covers evaluating
    the bound and every second-order term."""
    l, m = Ls[:, 0, :], Ls[:, 1, :]
    x = alpha * l
    a = x[:, 0] * x[:, 0] - m[:, 0] * m[:, 0]
    b = x[:, 0] * x[:, 1] - m[:, 0] * m[:, 1]
    c = x[:, 1] * x[:, 1] - m[:, 1] * m[:, 1]
    p = 0.5 * (a - c)
    h = np.hypot(p, b)
    s = 0.5 * (a + c)
    den = 1.0 + alpha * alpha
    end = (a + (alpha * alpha) * c - (2.0 * alpha) * np.abs(b)) / den
    lhs = np.where(p >= 0, h + p, np.abs(b))
    rhs = alpha * np.where(p >= 0, np.abs(b), h - p)
    outside = lhs > rhs * (1.0 + _gamma(16)) + TINY
    S = (x * x).sum(axis=1) + (m * m).sum(axis=1)
    end_abs = (np.abs(a) + (alpha * alpha) * np.abs(c) + (2.0 * alpha) * np.abs(b)) / den
    err = _gamma(5) * S + np.where(outside, _gamma(8) * end_abs, _gamma(5) * (np.abs(s) + h))
    return np.where(outside, end, s - h) - (err + TINY)


def _pencil_form(Ls: np.ndarray, w: np.ndarray):
    """(Q, err): Q = L^T diag(w) L in float for a batch of L, and a bound
    per L on ||Q - Q*||_2 for the exact Q*, w exact but for a rounded
    alpha^2.  Each entry of Q is off by gamma_(d+2) (d products, their sum,
    the product by w and w's own rounding) of the same entry of L^T |W| L
    taken in absolute values, a matrix of 2-norm at most S = sum_r |w_r|
    ||l_r||^2 over the rows l_r of L; the unit of S beyond covers
    evaluating it (the charge of _q_inv_arc on d = 2)."""
    d = Ls.shape[1]
    Q = Ls.transpose(0, 2, 1) @ np.diag(w) @ Ls
    return Q, _gamma(d + 3) * (np.abs(w) * (Ls * Ls).sum(axis=2)).sum(axis=1)


def _cone_minima(Ls: np.ndarray, nL_max: float, k: int, alpha: float):
    """Certified (q_exp, q_inv, rounds, gap) for a batch of matrices (n, d, d)
    whose spectral norms are at most nL_max (checked by _range_gate), which
    sets every pencil's lambda range:

    q_exp = min over unit v in C_alpha of ||(Lv)_a||^2,
    q_inv = min over unit v in C_alpha of alpha^2 ||(Lv)_a||^2 - ||(Lv)_b||^2.

    For k = 1, q_exp is the closed form of _q_exp_k1 on every d, and on d = 2
    q_inv is that of _q_inv_arc; both are rounded outward.  For k = d, q_exp
    is lambda_min(L^T L), certified by _certify_lambda_min at its closed-form
    estimate.  The other minima (k >= 2, and q_inv at d >= 3) are solved as
    pencils in one batch.  rounds is the number of search rounds of that
    solve and gap its largest gap; both are 0 when no pencil is solved, as
    for every (k, d) = (1, 2) and k = d batch.
    """
    n, d, _ = Ls.shape
    p = np.array([1.0] * k + [0.0] * (d - k))
    if k == d:
        # the cone is the whole space; invariance is vacuous
        Q, err = _pencil_form(Ls, p)
        zero, lam = np.zeros((d, d)), np.zeros(n)
        q_exp = _certify_lambda_min(Q, err, zero, lam, _pencil_eval(Q, zero, lam)[0])
        return q_exp, np.full(n, np.inf), 0, 0.0
    j = np.array([alpha ** 2] * k + [-1.0] * (d - k))
    forms = []
    if k == 1:
        q_exp = _q_exp_k1(Ls, alpha)
    else:
        forms.append(_pencil_form(Ls, p))
    if d == 2:      # k = 1 < d
        return q_exp, _q_inv_arc(Ls, alpha), 0, 0.0
    forms.append(_pencil_form(Ls, j))
    Q, err = (np.concatenate(x) for x in zip(*forms))
    sol = _pencil_max_lambda_min(Q, np.diag(j), LAM_HI * max(nL_max ** 2, 1.0), err)
    q_exp, q_inv = (q_exp, sol.value) if k == 1 else np.split(sol.value, 2)
    return q_exp, q_inv, sol.rounds, float(sol.gap.max())


def _norm2_upper(Ls: np.ndarray) -> np.ndarray:
    """Certified upper bounds on ||L||_2 for a batch of matrices (n, d, m):
    ||L||_2^2 = -lambda_min(-L^T L), and -L^T L, formed by _pencil_form with
    its rounding charged, gets a lower bound on lambda_min from
    _certify_lambda_min (lam = 0, J = 0) at _pencil_eval's estimate, as the
    k = d minimum of _cone_minima does; the square root of its negation is
    rounded up.  0 for m = 0."""
    n, d, m = Ls.shape
    if m == 0:
        return np.zeros(n)
    Q, err = _pencil_form(Ls, -np.ones(d))
    zero, lam = np.zeros((m, m)), np.zeros(n)
    lo = _certify_lambda_min(Q, err, zero, lam, _pencil_eval(Q, zero, lam)[0])
    return _up(np.sqrt(-lo))


def _margins(q_exp, q_inv, nL, alpha):
    """Expansion factors sqrt(q_exp) and margins q_inv / ((alpha + 1) ||L||),
    inf if k = d, each rounded down from the exact value of its inputs:
    the square root toward 0, the quotient down, and its denominator up
    where q_inv >= 0 and down where q_inv < 0."""
    factor = np.nextafter(np.sqrt(np.maximum(q_exp, 0.0)), 0.0)
    to = np.where(q_inv >= 0, np.inf, 0.0)
    lin = q_inv / np.nextafter(np.nextafter(alpha + 1.0, to) * np.maximum(nL, 1e-300), to)
    return factor, np.where(np.isinf(lin), lin, _down(lin))


@dataclass(frozen=True)
class ConeCheck:
    expansion_factor: float     # certified min of ||a'|| over unit cone vectors
    invariance_margin: float    # certified lower bound on alpha||a'|| - ||b'||


def ray_sampling_estimates(L: np.ndarray, k: int, alpha: float, n_rays: int = 10_000):
    """Sampling upper bounds for (q_exp, q_inv): dense random rays in C_alpha."""
    rng = np.random.default_rng(0)
    d = L.shape[0]
    a = rng.normal(size=(n_rays, k))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    if d > k:
        b = rng.normal(size=(n_rays, d - k))
        bn = np.linalg.norm(b, axis=1, keepdims=True)
        bn[bn == 0] = 1.0
        scale = rng.uniform(0, 1, size=(n_rays, 1)) * alpha
        v = np.hstack([a, b / bn * scale * 1.0])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    else:
        v = a
    w = v @ L.T
    na2 = (w[:, :k] ** 2).sum(axis=1)
    nb2 = (w[:, k:] ** 2).sum(axis=1)
    return float(na2.min()), float((alpha ** 2 * na2 - nb2).min())


def pointwise_cone_check(L, params: ConeParams, cross_validate: bool = False,
                         n_rays: int = 10_000) -> ConeCheck:
    """Certified expansion and invariance minima of a single matrix."""
    L = np.asarray(L, dtype=float)
    d, k, alpha = L.shape[0], params.k, params.alpha
    _range_gate(float(np.abs(L).max()) * d, alpha)     # d max|L_ij| bounds ||L||
    nL = float(_norm2_upper(L[None])[0])
    (q_exp,), (q_inv,), _, _ = _cone_minima(L[None], nL, k, alpha)
    factor, inv_margin = _margins(q_exp, q_inv, nL, alpha)
    if cross_validate:
        s_exp, s_inv = ray_sampling_estimates(L, k, alpha, n_rays)
        if q_exp > s_exp + 1e-9 or (k < d and q_inv > s_inv + 1e-9):
            raise AssertionError(
                f"certified minima beat ray sampling: exp {q_exp} vs {s_exp}, "
                f"inv {q_inv} vs {s_inv}")
    return ConeCheck(expansion_factor=float(factor), invariance_margin=float(inv_margin))


@dataclass(frozen=True)
class ConeCertificate:
    params: ConeParams
    padding: float
    expansion_factor: float       # min certified over cells, before padding
    invariance_margin: float      # min certified linear margin, before padding
    expansion_margin: float       # min over cells of (padded factor - K)
    domination_margin: float      # min padded factor - max padded off-core norm
    worst_cell: tuple             # centre of the first cell of least padded margin
    a2_pass: bool
    a4_pass: bool                 # A2 and a positive domination margin
    pencil_rounds: int            # search rounds of the pencil solve, 0 if none
    pencil_gap: float             # largest tangent-cut gap of the pencil solve, 0 if none


def verify_A2(spec: TorusMapSpec, params, grid_res: int):
    """Grid check of the invariant expanding cone condition (A2), with
    Lipschitz padding so a pass certifies every point of the torus.

    The same pass checks domination (A4): off-core vectors must be stretched
    strictly less than the certified expansion, min over cells of the padded
    factor, so a4_pass = A2 and a positive domination margin.

    params is one ConeParams, giving one ConeCertificate, or a sequence of
    them sharing one k, giving a list of certificates in the same order.
    Every pencil's lambda range and the float64 range gate come once per
    call from ||M||_2 + Lip(G), which bounds ||DF(z)||_2 at every point.
    The cells are swept CHUNK cells (semiconj.CHUNK) at a time on the
    calling thread, so memory does not grow with the grid: each chunk builds
    its Jacobians once, bounds their norms and their largest padded
    off-core stretch above (_norm2_upper) and finds the cone minima of
    every alpha.  The results are merged per alpha in grid order, so the
    certificates are those of one batch over all cells."""
    if grid_res < 2:
        raise ValueError("grid resolution must be >= 2")
    single = isinstance(params, ConeParams)
    plist = [params] if single else list(params)
    ks = {p.k for p in plist}
    if len(ks) != 1:
        raise ValueError(f"verify_A2 needs one or more ConeParams sharing one k, got k in {ks}")
    k = ks.pop()
    nb = dynamics.norm_bounds(spec)
    # worst Jacobian drift within a cell: dg_lip * h * sqrt(d) / 2
    pad = nb.dg_lip * (1.0 / grid_res) * math.sqrt(spec.d) / 2.0
    nL_max = float(np.linalg.norm(dynamics.M_array(spec), 2)) + nb.g_lip
    _range_gate(nL_max, max(p.alpha for p in plist), pad)

    # the padded off-core stretch (0 + pad if k = d) and every alpha's
    # cone minima, chunk by chunk
    def margins(centers):
        Ls = dynamics.jacobian(spec, centers)
        nLs = _norm2_upper(Ls)
        stretch = _up(_norm2_upper(Ls[:, :, k:]) + pad).max()
        return stretch, [_chunk_margins(Ls, nLs, nL_max, k, p, pad, centers) for p in plist]

    stretch, per_chunk = zip(*map(margins, semiconj._grid_chunks(spec.d, grid_res, offset=0.5)))
    off_core = max(stretch)
    certs = []
    for p, chunk_margins in zip(plist, zip(*per_chunk)):
        factor, lin_inv, worst, cell, a2, rounds, gap = zip(*chunk_margins)
        j = int(np.argmin(worst))
        # rounding is monotone, so padding the least factor gives the least
        # padded factor, bit for bit; each margin is rounded down
        padded_factor = _down(np.min(factor) - pad)
        dom_margin = float(_down(padded_factor - off_core))
        a2 = all(a2)
        certs.append(ConeCertificate(
            params=p, padding=float(pad),
            expansion_factor=float(np.min(factor)),
            invariance_margin=float(np.min(lin_inv)),
            expansion_margin=float(_down(padded_factor - p.K)),
            domination_margin=dom_margin,
            worst_cell=cell[j],
            a2_pass=a2, a4_pass=a2 and dom_margin > 0,
            pencil_rounds=max(rounds), pencil_gap=float(np.max(gap))))
    return certs[0] if single else certs


def _chunk_margins(Ls, nLs, nL_max, k, p: ConeParams, pad, centers):
    """The cone minima of one chunk of cells (Jacobians Ls, norms nLs, cell
    centres centers), as (least factor, least linear margin, least padded
    margin, the centre of the first cell attaining it, A2 holds, search
    rounds, pencil gap).  Each margin is rounded down, and (alpha + 1) pad up."""
    q_exp, q_inv, rounds, gap = _cone_minima(Ls, nL_max, k, p.alpha)
    factors, lin_inv = _margins(q_exp, q_inv, nLs, p.alpha)
    exp_margin = _down(_down(factors - pad) - p.K)
    padded_inv = _down(lin_inv - _up(_up(p.alpha + 1.0) * pad))
    worst = np.minimum(exp_margin, padded_inv)
    i = int(np.argmin(worst))
    return (factors.min(), lin_inv.min(), worst[i], tuple(centers[i].tolist()),
            bool(np.all(exp_margin >= 0) and np.all(padded_inv > 0)), rounds, gap)
