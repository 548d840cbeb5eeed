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

Every other minimum (k >= 2, and the invariance minimum at d >= 3) is
certified by an S-procedure on the symmetric pencil Q - lambda*J: for any
lambda >= 0, h(lambda) = lambda_min(Q - lambda*J) lower-bounds the
constrained minimum, and max over lambda of h is tight for a single
homogeneous quadratic constraint (Polik & Terlaky, "A survey of the
S-lemma", SIAM Review 49, 2007).  h is concave; lambda is located by a
safeguarded Newton iteration on h' with one batched eigh per round, and the
certified value is the largest h actually evaluated.
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
MAX_ROUNDS = 200    # cap on eigh rounds; a capped cell still returns an evaluated value
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


@dataclass(frozen=True)
class ConeParams:
    k: int
    alpha: float        # cone opening, finite and > 0
    K: float            # claimed expansion constant, > 1

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"cone opening alpha must be finite and > 0, got {self.alpha!r}")


class PencilSolve(NamedTuple):
    value: np.ndarray   # largest lambda_min(Q - lam J) evaluated, per pencil
    lam: np.ndarray     # the lam in [0, lam_hi] that gave it
    gap: np.ndarray     # tangent-cut upper bound on the optimum minus value
    rounds: int         # batched eigh calls


def _pencil_eval(Q: np.ndarray, J: np.ndarray, lam: np.ndarray):
    """h = lambda_min(Q - lam J) for a batch, with h' = -v0^T J v0,
    h'' = 2 sum_{j>0} (v0^T J vj)^2 / (mu0 - muj) (-inf at a repeated
    lowest eigenvalue, a kink) and the pencil's scale max |mu|."""
    mu, V = np.linalg.eigh(Q - lam[:, None, None] * J)
    cpl = np.einsum("nij,ni->nj", V, V[:, :, 0] @ J)     # vj^T J v0
    gaps = mu[:, :1] - mu[:, 1:]                          # <= 0
    terms = np.divide(cpl[:, 1:] ** 2, gaps, out=np.full_like(gaps, -np.inf),
                      where=gaps < 0)
    scale = np.maximum(np.abs(mu[:, 0]), np.abs(mu[:, -1]))
    return mu[:, 0], -cpl[:, 0], 2.0 * terms.sum(axis=1), scale


def _pencil_max_lambda_min(Q: np.ndarray, J: np.ndarray, lam_hi: float) -> PencilSolve:
    """max over lambda in [0, lam_hi] of h(lambda) = lambda_min(Q - lambda J),
    for a batch Q of shape (n, d, d) sharing one symmetric J.

    h is concave with supergradient h' = -v0^T J v0.  The first round
    evaluates both ends of [0, lam_hi]; every cell whose maximiser is not at
    an end then keeps a bracket lo < hi with h'(lo) > 0 > h'(hi).  The
    tangents at lo and hi bound h from above, so the maximiser also lies
    where both tangents exceed the best value found.  Each later round
    evaluates one lambda per unconverged cell in one batched eigh:

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
    Converged cells leave the batch.  The value returned is always an
    evaluated h, a valid lower bound by weak duality, never the tangent
    upper bound; the gap says how far below the S-procedure optimum it may
    sit.
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
    return PencilSolve(value, lam, gap, rounds)


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


def _cone_minima(Ls: np.ndarray, nL_max: float, k: int, alpha: float):
    """Certified (q_exp, q_inv, rounds, gap) for a batch of matrices (n, d, d)
    whose spectral norms are at most nL_max (checked by _range_gate), which
    sets every pencil's lambda range:

    q_exp = min over unit v in C_alpha of ||(Lv)_a||^2,
    q_inv = min over unit v in C_alpha of alpha^2 ||(Lv)_a||^2 - ||(Lv)_b||^2.

    For k = 1, q_exp is the closed form of _q_exp_k1 on every d, and on d = 2
    q_inv is that of _q_inv_arc; both are rounded outward.  The other minima
    (k >= 2, and q_inv at d >= 3) are solved as pencils in one batch.
    rounds is the number of eigh rounds of that solve and gap its largest
    tangent-cut gap; both are 0 when no pencil is solved, as for every
    (k, d) = (1, 2) and k = d batch.
    """
    n, d, _ = Ls.shape
    Pm = np.zeros((d, d))
    Pm[:k, :k] = np.eye(k)
    if k == d:
        # the cone is the whole space; invariance is vacuous
        Q = np.einsum("nij,jl,nlm->nim", Ls.transpose(0, 2, 1), Pm, Ls)
        return np.linalg.eigvalsh(Q)[..., 0], np.full(n, np.inf), 0, 0.0
    Jm = np.diag([alpha ** 2] * k + [-1.0] * (d - k))
    Lt = Ls.transpose(0, 2, 1)
    pencils = []
    if k == 1:
        q_exp = _q_exp_k1(Ls, alpha)
    else:
        pencils.append(Lt @ Pm @ Ls)
    if d == 2:      # k = 1 < d
        return q_exp, _q_inv_arc(Ls, alpha), 0, 0.0
    pencils.append(Lt @ Jm @ Ls)
    lam_hi = LAM_HI * max(nL_max ** 2, 1.0)
    sol = _pencil_max_lambda_min(np.concatenate(pencils), Jm, lam_hi)
    q_exp, q_inv = (q_exp, sol.value) if k == 1 else np.split(sol.value, 2)
    return q_exp, q_inv, sol.rounds, float(sol.gap.max())


def _margins(q_exp, q_inv, nL, alpha):
    """Expansion factors sqrt(q_exp) and margins q_inv / ((alpha + 1) ||L||), inf if k = d."""
    return np.sqrt(np.maximum(q_exp, 0.0)), q_inv / ((alpha + 1.0) * np.maximum(nL, 1e-300))


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
    nL = float(np.linalg.norm(L, 2))
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
    pencil_rounds: int            # eigh rounds of the pencil solve, 0 if none
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
    The cells are swept in one chunk map, CHUNK cells (semiconj.CHUNK) at a
    time, so memory does not grow with the grid: each chunk builds its
    Jacobians once, takes their largest padded off-core stretch and finds
    the cone minima of every alpha.  The results are merged per alpha in grid
    order, so the certificates are those of one batch over all cells."""
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
        nLs = np.linalg.norm(Ls, ord=2, axis=(1, 2))
        stretch = (np.linalg.norm(Ls[:, :, k:], ord=2, axis=(1, 2)) + pad).max()
        return stretch, [_chunk_margins(Ls, nLs, nL_max, k, p, pad, centers) for p in plist]

    stretch, per_chunk = zip(*semiconj._map_chunks(
        margins, semiconj._grid_chunks(spec.d, grid_res, offset=0.5)))
    off_core = max(stretch)
    certs = []
    for p, chunk_margins in zip(plist, zip(*per_chunk)):
        factor, lin_inv, worst, cell, a2, rounds, gap = zip(*chunk_margins)
        j = int(np.argmin(worst))
        # rounding is monotone, so padding the least factor gives the least
        # padded factor, bit for bit
        padded_factor = np.min(factor) - pad
        dom_margin = float(padded_factor - off_core)
        a2 = all(a2)
        certs.append(ConeCertificate(
            params=p, padding=float(pad),
            expansion_factor=float(np.min(factor)),
            invariance_margin=float(np.min(lin_inv)),
            expansion_margin=float(padded_factor - p.K),
            domination_margin=dom_margin,
            worst_cell=cell[j],
            a2_pass=a2, a4_pass=a2 and dom_margin > 0,
            pencil_rounds=max(rounds), pencil_gap=float(np.max(gap))))
    return certs[0] if single else certs


def _chunk_margins(Ls, nLs, nL_max, k, p: ConeParams, pad, centers):
    """The cone minima of one chunk of cells (Jacobians Ls, norms nLs, cell
    centres centers), as (least factor, least linear margin, least padded
    margin, the centre of the first cell attaining it, A2 holds, eigh
    rounds, pencil gap)."""
    q_exp, q_inv, rounds, gap = _cone_minima(Ls, nL_max, k, p.alpha)
    factors, lin_inv = _margins(q_exp, q_inv, nLs, p.alpha)
    exp_margin = (factors - pad) - p.K
    padded_inv = lin_inv - (p.alpha + 1.0) * pad
    worst = np.minimum(exp_margin, padded_inv)
    i = int(np.argmin(worst))
    return (factors.min(), lin_inv.min(), worst[i], tuple(centers[i].tolist()),
            bool(np.all(exp_margin >= 0) and np.all(padded_inv > 0)), rounds, gap)
