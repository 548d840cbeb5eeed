"""The conjugacy H(z) = (Phi(z), proj_{W-perp} z): forward map, certified
fiber solving, and the skew-product check H o F o H^-1 = (A x, F_y(x, y)).

Everything runs in block (S-) coordinates through a SemiConjEngine in
expanding mode.  H_inverse is the one entry to the fiber solve, with one
certified route per k.  For k = 1, Phi_hat(z + m) = Phi_hat(z) + m_1, so
Phi_hat((t, y)) - t is 1-periodic on each fiber line, and one period of
samples (the profile, see _bisect_batch) checks the bracket and that Phi_hat
rises along the line; bisecting the sample index then finds each target's
root interval.  For k = d, see _orbit_batch.  1 < k < d is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, dynamics, semiconj
from .errors import EngineError, FiberSolveError
from .semiconj import SemiConjEngine

PRESCAN_POINTS = 32     # profile samples per unit period of a fiber line; a power of two
MAX_BISECT = 120        # cap on the finish rounds of a fiber solve


@dataclass
class FiberStats:
    """Work counters of the fiber solves that are given this object."""
    fiber_iters: int = 0    # most finish rounds (k = 1) or backward steps (k = d) of a point
    scan_points: int = 0    # profile samples: PRESCAN_POINTS per fiber line (k = 1)
    phi_points: int = 0     # Phi_hat points the solves evaluated, profiles included

    def add(self, iters: int, scan: int, points: int) -> None:
        self.fiber_iters = max(self.fiber_iters, iters)
        self.scan_points += scan
        self.phi_points += points


def _require_expanding(engine: SemiConjEngine):
    """The precondition of H and H^-1: expanding mode, and k = 1 or k = d."""
    if engine.mode != "expanding":
        raise EngineError("the conjugacy construction runs in expanding mode")
    if 1 < engine.k < engine.d:
        raise EngineError("no certified fiber solve for 1 < k < d")


def H_forward(engine: SemiConjEngine, z):
    """H(theta) = (Phi(theta), last d-k coordinates), both torus-valued."""
    _require_expanding(engine)
    Z = np.asarray(z, dtype=float)
    return semiconj.phi_torus(engine, Z).value, _kernels.wrap(Z[..., engine.k:])


def _bracket_halfwidth(engine: SemiConjEngine) -> float:
    # |Phi_hat(z) - z_1| <= C_A ||G||_0 + eps, so x0 +- this brackets the root
    return 0.5 + engine.c_a * engine.norms.g_sup + engine.eps


def _bisect_batch(engine: SemiConjEngine, x0, Y, tol, stats: FiberStats | None = None):
    """Vectorized certified fiber solve for k = 1.

    x0: (n,) lift targets; Y: (n, d-1) fixed off-core coordinates.
    Returns t: (n,) with |Phi_hat((t, y)) - x0| <= tol at every point.

    Profile: g(t) = Phi_hat((t, y)) - t is 1-periodic; one phi_hat call
    samples it at t = i / P, i < P = PRESCAN_POINTS, on each distinct row of
    Y, and Phi_hat - x0 at t = j / P is f(j) = j / P + g(j mod P) - x0 (j / P
    is exact for a power of two P).  Each |g| must be < half, the
    displacement bound that makes x0 +- half a bracket, and s = i / P + g
    must rise strictly along each line, wrap step s[P - 1] < s[0] + 1 too,
    or the line is refused.  Then f changes sign once, in a sample interval
    that bisecting the sample index finds (_sign_change).

    Finish: Illinois regula falsi (M. Dowell and P. Jarratt, BIT 11, 1971)
    from the sign-change interval and its profile values, with a bisection
    step whenever the bracket has not halved in three rounds.  Only a direct
    evaluation is accepted: a point stops when |f| <= tol / 16, or when
    |f| <= tol and its bracket is down to adjacent floats; after MAX_BISECT
    rounds every point must have |f| <= tol, or FiberSolveError is raised.
    The work done is added to stats, if given.
    """
    n, P = x0.shape[0], PRESCAN_POINTS
    lines, line = np.unique(Y, axis=0, return_inverse=True)
    scan = len(lines) * P
    ts = np.arange(P) / P
    g = semiconj.phi_hat(engine, np.column_stack(
        [np.tile(ts, len(lines)), np.repeat(lines, P, axis=0)])).value[:, 0]
    g = g.reshape(len(lines), P) - ts
    if np.any(np.abs(g) >= _bracket_halfwidth(engine)):
        raise FiberSolveError(
            "bracket endpoints do not straddle the target; the engine's "
            "displacement bound is inconsistent")
    s = ts + g
    if np.any(np.diff(np.column_stack([s, s[:, :1] + 1]), axis=1) <= 0):
        raise FiberSolveError("fiber line has Phi_hat not increasing in t over its samples "
                              "(monotonicity / cone-certificate inconsistency)")
    act, (a, fa, fb) = np.arange(n), _sign_change(g, line, x0)
    b, t = a + 1 / P, np.empty(n)
    side = np.zeros(n)                  # +1: b moved last round, -1: a did
    w1 = w2 = w3 = np.full(n, np.inf)   # bracket widths one to three rounds back
    points = scan
    # stop well inside tol: a root that only just meets it would leave the
    # skew-product and round-trip residuals near their bounds
    tight = tol / 16
    rounds = 0
    while act.size:
        rounds += 1
        width = b - a
        c = b - fb * (width / (fb - fa))
        # bisect when the regula falsi point is outside the bracket (an end
        # may be tried: a profile value is no direct evaluation), or when the
        # bracket has not halved in three rounds
        c = np.where((width > 0.5 * w3) | ~((a <= c) & (c <= b)), a + 0.5 * width, c)
        w1, w2, w3 = width, w1, w2
        f = semiconj.phi_hat(engine, np.column_stack([c, Y[act]])).value[:, 0] - x0[act]
        points += len(act)
        up = f >= 0
        # Illinois: an end kept twice in a row has its value halved
        fa = np.where(up & (side > 0), 0.5 * fa, fa)
        fb = np.where(~up & (side < 0), 0.5 * fb, fb)
        a, fa = np.where(up, a, c), np.where(up, fa, f)
        b, fb = np.where(up, c, b), np.where(up, f, fb)
        side = np.where(up, 1.0, -1.0)
        # below tight, or within tol once the bracket is down to adjacent floats
        done = (np.abs(f) <= tight) | ((np.abs(f) <= tol) & (b <= np.nextafter(a, np.inf)))
        if rounds == MAX_BISECT:
            done = np.abs(f) <= tol
            if not done.all():
                raise FiberSolveError(
                    f"fiber solve stalled at residual {np.abs(f).max():.3g} > tol {tol:.3g}")
        t[act[done]] = c[done]
        keep = ~done
        act, a, b, fa, fb, side, w1, w2, w3 = (
            v[keep] for v in (act, a, b, fa, fb, side, w1, w2, w3))
    if stats is not None:
        stats.add(rounds, scan, points)
    return t


def _sign_change(g, line, x0):
    """(a, f(a), f(a + 1 / P)) at each target's sign change of f (0 counts as +; see
    _bisect_batch): j bisected from floor((x0 - max g) P) - 1 to ceil((x0 - min g) P) + 1."""
    P = g.shape[1]

    def f(j):
        return j / P + g[line, j % P] - x0

    lo = np.floor((x0 - g.max(axis=1)[line]) * P).astype(np.int64) - 1
    hi = np.ceil((x0 - g.min(axis=1)[line]) * P).astype(np.int64) + 1
    while np.any(hi - lo > 1):          # f(lo) < 0 <= f(hi)
        mid = (lo + hi) // 2
        lo, hi = np.where(f(mid) >= 0, (lo, mid), (mid, hi))
    return lo / P, f(lo), f(hi)


def _orbit_batch(engine: SemiConjEngine, X, tol, stats: FiberStats | None = None):
    """Certified fiber solve for k = d: Z (n, d) with |Phi_hat(z) - x| <= tol
    at each row x of X.  Phi_hat = A^-N F^N, so z = F^-N(A^N x): A^N x is
    carried mod 1, f <- frac(A f) with carries c_j = floor(A f_j), and undone
    by u <- F^-1(u + c_j) from u = f_N, as F(w + p) = F(w) + A p for integer p.
    rho < 1, which the inverse lift demands, makes Phi_hat a bijection of R^d:
    the root is unique on the torus.  The carry's rounding r_j moves Phi_hat(z)
    by sum_j A^-(j+1) r_j only.  A point over tol raises FiberSolveError."""
    lift, Z = dynamics.lift_inverse(engine.spec), np.empty_like(X)

    def solve(lo):
        f, carries = X[lo:lo + semiconj.CHUNK], []
        for _ in range(engine.N):
            c, f = np.divmod(f @ engine.A.T, 1.0)
            carries.append(c)
        for c in reversed(carries):
            f = lift(f + c, tol)[0]
        Z[lo:lo + len(f)] = f
        return np.linalg.norm(semiconj.phi_hat(engine, f).value - X[lo:lo + len(f)], axis=1).max()

    res = max(semiconj._map_chunks(solve, range(0, len(X), semiconj.CHUNK)))
    if not res <= tol:
        raise FiberSolveError(f"fiber solve residual {res:.3g} > tol {tol:.3g}")
    if stats is not None:
        stats.add(engine.N, 0, len(X))
    return Z


def H_inverse(engine: SemiConjEngine, x0, y0, tol: float = 1e-10,
              stats: FiberStats | None = None):
    """Torus point(s) z with H(z) = (x0 mod 1, y0 mod 1) within tol, shaped
    by y0's leading axes and d: the one fiber solve.  Each point y of y0
    (..., d-k) and its k values of x0 (lift coordinates) get the t with
    Phi_hat((t, y)) = x0, as one batch: by _bisect_batch for k = 1 and by
    _orbit_batch for k = d.  The work done is added to stats, if given."""
    _require_expanding(engine)
    k = engine.k
    Y = dynamics._batch(y0, engine.d - k)
    X = np.asarray(x0, dtype=float).reshape(len(Y), k)
    if not len(X):
        T = X
    elif k == 1:
        T = _bisect_batch(engine, X[:, 0], Y, tol, stats)[:, None]
    else:
        T = _orbit_batch(engine, X, tol, stats)
    return _kernels.wrap(np.hstack([T, Y])).reshape(np.shape(y0)[:-1] + (engine.d,))


@dataclass(frozen=True)
class SkewReport:
    grid_res: int
    max_base_residual: float
    ceiling: float              # skew_ceiling(engine, tol)
    fiber_map_samples: np.ndarray   # (n, d-k): the induced F_y values, in torus grid order
    k: int                      # the x columns of the (x, y) grid


def skew_ceiling(engine: SemiConjEngine, tol: float) -> float:
    """The ceiling on the skew-product base residual: (||A|| + 1) eps +
    ||A|| tol + 1e-12."""
    return float(engine.ceiling + engine.norm_A * tol + 1e-12)


def skew_product_residual(engine: SemiConjEngine, grid_res: int,
                          tol: float = 1e-10,
                          stats: FiberStats | None = None) -> SkewReport:
    """Max over the (x, y) grid semiconj._grid(d, grid_res) of dist(base of
    H(F(H^-1(x,y))), A x mod 1); the fiber solves' work is added to stats, if given."""
    k = engine.k
    grid = semiconj._grid(engine.d, grid_res)
    X, Y = grid[:, :k], grid[:, k:]
    FZ = dynamics.eval_torus(engine.spec, H_inverse(engine, X, Y, tol, stats))
    resid = dynamics.torus_distance(semiconj.phi_torus(engine, FZ).value,
                                    _kernels.wrap(X @ engine.A.T))
    return SkewReport(grid_res=grid_res, max_base_residual=float(resid.max()),
                      ceiling=skew_ceiling(engine, tol), fiber_map_samples=FZ[:, k:].copy(), k=k)


def export_skew_csv(report: SkewReport, path) -> None:
    """CSV with columns x_1..x_k, y_1..y_m and Fy_1..Fy_m (%.17g): each CHUNK-row
    piece of the grid beside its rows of F_y, written by semiconj._write_grid_csv."""
    fy, k, res, c = report.fiber_map_samples, report.k, report.grid_res, semiconj.CHUNK
    m = fy.shape[1]
    names = ",".join(f"{a}_{i+1}" for a, n in (("x", k), ("y", m), ("Fy", m)) for i in range(n))
    semiconj._write_grid_csv(path, res, names, ["%.17g"] * m, zip(
        semiconj._grid_chunks(k + m, res), (fy[lo:lo + c] for lo in range(0, len(fy), c))))
