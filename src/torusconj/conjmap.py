"""The conjugacy H(z) = (Phi(z), proj_{W-perp} z): forward map, certified
fiber solving, and the skew-product check H o F o H^-1 = (A x, F_y(x, y)).

Everything runs in block (S-) coordinates through a SemiConjEngine in
expanding mode.  H_inverse is the one entry to the fiber solve, with one
certified route per k.  For k = 1, |Phi_hat((t, y)) - t| is under the
displacement bound, so each target is bracketed from it and solved to a
direct |Phi_hat - x| <= tol (see _bisect_batch); that the root is unique on
its fiber line is the cone condition A2, which the conjugacy command
certifies.  For k = d, see _orbit_batch; 1 < k < d is refused.  The skew
grid is swept CHUNK points at a time, as every grid is; H_inverse solves
the batch it is given in one piece.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels, dynamics, semiconj
from .errors import EngineError, FiberSolveError
from .semiconj import SemiConjEngine

MAX_BISECT = 120        # cap on the finish rounds of a fiber solve
TOL = 1e-10             # the fiber solves' tolerance on |Phi_hat - x|


@dataclass
class FiberStats:
    """Work counters of the fiber solves that are given this object."""
    fiber_iters: int = 0    # most finish rounds (k = 1) or backward steps (k = d) of a point
    phi_points: int = 0     # Phi_hat points the solves evaluated, bracket ends included

    def add(self, iters: int, points: int) -> None:
        self.fiber_iters = max(self.fiber_iters, iters)
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

    Bracket: |Phi_hat((t, y)) - t| < half = _bracket_halfwidth, so f(t) =
    Phi_hat((t, y)) - x0 is < 0 at x0 - half and > 0 at x0 + half; both ends
    are evaluated in one phi_hat call, and a pair that does not straddle 0
    is refused.  The solve certifies |f| <= tol and nothing more: that f has
    one root on the line is the cone condition A2, whose gate is the
    conjugacy command's.

    Finish: Illinois regula falsi (M. Dowell and P. Jarratt, BIT 11, 1971)
    from the bracket, with a bisection step whenever the bracket has not
    halved in three rounds.  Only a finish round's evaluation is accepted:
    a point stops when |f| <= tol / 16, or when |f| <= tol and its
    bracket is down to adjacent floats; after MAX_BISECT rounds every point
    must have |f| <= tol, or FiberSolveError is raised.  The work done is
    added to stats, if given.
    """
    n, half = x0.shape[0], _bracket_halfwidth(engine)
    act, a, b, t = np.arange(n), x0 - half, x0 + half, np.empty(n)
    ends = np.column_stack([np.concatenate([a, b]), np.vstack([Y, Y])])
    fa, fb = (semiconj.phi_hat(engine, ends).value[:, 0] - np.tile(x0, 2)).reshape(2, n)
    if not (np.all(fa < 0) and np.all(fb > 0)):
        raise FiberSolveError(
            "bracket endpoints do not straddle the target; the engine's "
            "displacement bound is inconsistent")
    side = np.zeros(n)                  # +1: b moved last round, -1: a did
    w1 = w2 = w3 = np.full(n, np.inf)   # bracket widths one to three rounds back
    points = 2 * n
    # stop well inside tol: a root that only just meets it would leave the
    # skew-product and round-trip residuals near their bounds
    tight = tol / 16
    rounds = 0
    while act.size:
        rounds += 1
        width = b - a
        c = b - fb * (width / (fb - fa))
        # bisect when the regula falsi point is outside the bracket, or when
        # the bracket has not halved in three rounds
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
        stats.add(rounds, points)
    return t


def _orbit_batch(engine: SemiConjEngine, X, tol, stats: FiberStats | None = None):
    """Certified fiber solve for k = d: Z (n, d) with |Phi_hat(z) - x| <= tol
    at each row x of X.  Phi_hat = A^-N F^N, so z = F^-N(A^N x): A^N x is
    carried mod 1, f <- frac(A f) with carries c_j = floor(A f_j), and undone
    by u <- F^-1(u + c_j) from u = f_N, as F(w + p) = F(w) + A p for integer p.
    rho < 1, which the inverse lift demands, makes Phi_hat a bijection of R^d:
    the root is unique on the torus.  The carry's rounding r_j moves Phi_hat(z)
    by sum_j A^-(j+1) r_j only.  A point over tol raises FiberSolveError."""
    lift, f, carries = dynamics.lift_inverse(engine.spec), X, []
    for _ in range(engine.N):
        c, f = np.divmod(f @ engine.A.T, 1.0)
        carries.append(c)
    for c in reversed(carries):
        f = lift(f + c, tol)[0]
    res = np.linalg.norm(semiconj.phi_hat(engine, f).value - X, axis=1).max()
    if not res <= tol:
        raise FiberSolveError(f"fiber solve residual {res:.3g} > tol {tol:.3g}")
    if stats is not None:
        stats.add(engine.N, len(X))
    return f


def H_inverse(engine: SemiConjEngine, x0, y0, tol: float = TOL,
              stats: FiberStats | None = None):
    """Torus point(s) z with H(z) = (x0 mod 1, y0 mod 1) within tol, shaped
    by y0's leading axes and d: the one fiber solve.  Each point y of y0
    (..., d-k) and its k values of x0 (lift coordinates) get the t with
    Phi_hat((t, y)) = x0, in one solve of the whole batch on the calling
    thread, so memory grows with the batch: by _bisect_batch for k = 1 and
    by _orbit_batch for k = d.  The work done is added to stats, if given."""
    _require_expanding(engine)
    k = engine.k
    Y = dynamics._batch(y0, engine.d - k)
    X = np.asarray(x0, dtype=float).reshape(len(Y), k)
    T = X                                       # an empty batch solves to itself
    if len(X):
        T = (_bisect_batch(engine, X[:, 0], Y, tol, stats)[:, None]
             if k == 1 else _orbit_batch(engine, X, tol, stats))
    return _kernels.wrap(np.hstack([T, Y])).reshape(np.shape(y0)[:-1] + (engine.d,))


@dataclass(frozen=True)
class SkewReport:
    grid_res: int
    max_base_residual: float
    ceiling: float              # skew_ceiling(engine, tol)


def skew_ceiling(engine: SemiConjEngine, tol: float) -> float:
    """The ceiling on the skew-product base residual: (||A|| + 1) eps +
    ||A|| tol + 1e-12."""
    return float(engine.ceiling + engine.norm_A * tol + 1e-12)


def skew_product_residual(engine: SemiConjEngine, grid_res: int,
                          tol: float = TOL, stats: FiberStats | None = None,
                          path=None) -> SkewReport:
    """Max over the (x, y) grid semiconj._grid(d, grid_res) of dist(base of
    H(F(H^-1(x,y))), A x mod 1), swept CHUNK grid points at a time on the
    calling thread; the fiber solves' work is added to stats, if given.
    With a path, the same sweep writes there the CSV of x_1..x_k, y_1..y_m
    and the fiber map Fy_1..Fy_m (%.17g), one chunk at a time, by
    _write_grid_csv."""
    k, m = engine.k, engine.d - engine.k
    peaks, total = [], stats or FiberStats()

    def sweep(grid):
        Z = H_inverse(engine, grid[:, :k], grid[:, k:], tol, total)
        FZ = dynamics.eval_torus(engine.spec, Z)
        peaks.append(dynamics.torus_distance(semiconj.phi_torus(engine, FZ).value,
                                             _kernels.wrap(grid[:, :k] @ engine.A.T)).max())
        return grid, FZ[:, k:]

    chunks = map(sweep, semiconj._grid_chunks(engine.d, grid_res))
    if path is None:
        deque(chunks, maxlen=0)
    else:
        names = ",".join(f"{a}_{i+1}" for a, n in (("x", k), ("y", m), ("Fy", m)) for i in range(n))
        semiconj._write_grid_csv(path, grid_res, names, ["%.17g"] * m, chunks)
    return SkewReport(grid_res=grid_res, max_base_residual=float(max(peaks)),
                      ceiling=skew_ceiling(engine, tol))
