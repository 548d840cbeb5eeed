"""The conjugacy H(z) = (Phi(z), proj_{W-perp} z): forward map, certified
fiber solving (k = 1 bisection), and the skew-product check
H o F o H^-1 = (A x, F_y(x, y)).

Everything runs in block (S-) coordinates through a SemiConjEngine in
expanding mode.  The certified inverse path needs k = 1: there the series
displacement bound gives a guaranteed sign-change bracket and the cone
structure makes t -> Phi_hat((t, y)) strictly monotone, so bisection is
sound.  For k > 1 an uncertified damped fixed-point solve is provided
with residual reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, semiconj
from .errors import EngineError, FiberSolveError
from .semiconj import SemiConjEngine

PRESCAN_POINTS = 32
MAX_BISECT = 120
MAX_DAMPED = 500


def _require_expanding(engine: SemiConjEngine):
    if engine.mode != "expanding":
        raise EngineError("the conjugacy construction runs in expanding mode")


def H_forward(engine: SemiConjEngine, z):
    """H(theta) = (Phi(theta), last d-k coordinates), both torus-valued."""
    _require_expanding(engine)
    Z = np.asarray(z, dtype=float)
    phi = semiconj.phi_torus(engine, Z).value
    y = np.mod(Z[..., engine.k:], 1.0)
    return phi, y


def _phi_line(engine: SemiConjEngine, t, Y):
    """Phi_hat along W-parallel lines: t (n,), Y (n, d-1) -> (n,) (k = 1)."""
    Z = np.concatenate([t[:, None], Y], axis=1)
    return semiconj.phi_hat(engine, Z).value[:, 0]


def _bracket_halfwidth(engine: SemiConjEngine) -> float:
    # |Phi_hat(z) - z_1| <= C_A ||G||_0 + eps, so x0 +- this brackets the root
    return 0.5 + engine.c_a * engine.norms.g_sup + engine.eps


def _bisect_batch(engine: SemiConjEngine, x0, Y, tol):
    """Vectorized certified bisection for k = 1.

    x0: (n,) lift targets; Y: (n, d-1) fixed off-core coordinates.
    Returns t: (n,) with |Phi_hat((t, y)) - x0| <= tol at every point.
    """
    n = x0.shape[0]
    half = _bracket_halfwidth(engine)
    lo = x0 - half
    hi = x0 + half
    ts = lo[:, None] + (hi - lo)[:, None] * (
        np.arange(PRESCAN_POINTS + 1) / PRESCAN_POINTS)[None, :]
    vals = np.empty_like(ts)
    for j in range(PRESCAN_POINTS + 1):
        vals[:, j] = _phi_line(engine, ts[:, j], Y) - x0
    # the prescan's end columns are the bracket ends
    if np.any(vals[:, 0] >= 0) or np.any(vals[:, -1] <= 0):
        raise FiberSolveError(
            "bracket endpoints do not straddle the target; the engine's "
            "displacement bound is inconsistent")
    signs = np.sign(vals)
    signs[signs == 0] = 1
    changes = (np.diff(signs, axis=1) != 0).sum(axis=1)
    if np.any(changes != 1):
        bad = int(np.argmax(changes != 1))
        raise FiberSolveError(
            f"fiber line has {int(changes[bad])} sign changes instead of 1 "
            "(monotonicity / cone-certificate inconsistency)")
    # shrink to the scanned subinterval containing the change
    idx = np.argmax(np.diff(signs, axis=1) != 0, axis=1)
    rows = np.arange(n)
    lo, hi = ts[rows, idx], ts[rows, idx + 1]
    t = 0.5 * (lo + hi)
    for _ in range(MAX_BISECT):
        f = _phi_line(engine, t, Y) - x0
        if np.abs(f).max() <= tol:
            return t
        pos = f > 0
        hi = np.where(pos, t, hi)
        lo = np.where(pos, lo, t)
        t = 0.5 * (lo + hi)
    f = _phi_line(engine, t, Y) - x0
    if np.abs(f).max() > tol:
        raise FiberSolveError(
            f"bisection stalled at residual {np.abs(f).max():.3g} > tol {tol:.3g}")
    return t


def _damped_batch(engine: SemiConjEngine, X0, Y, tol):
    """Uncertified damped solve for k > 1: t <- t - A^-1 (Phi_hat - x0)."""
    Ainv = np.linalg.inv(engine.A)
    T = X0.copy()
    for _ in range(MAX_DAMPED):
        Z = np.concatenate([T, Y], axis=1)
        r = semiconj.phi_hat(engine, Z).value - X0
        if np.linalg.norm(r, axis=1).max() <= tol:
            return T
        T = T - r @ Ainv.T
        if not np.all(np.isfinite(T)):
            raise FiberSolveError("damped fiber solve diverged")
    Z = np.concatenate([T, Y], axis=1)
    r = np.linalg.norm(semiconj.phi_hat(engine, Z).value - X0, axis=1).max()
    if r > tol:
        raise FiberSolveError(
            f"damped fiber solve stalled at residual {r:.3g} > tol {tol:.3g}")
    return T


def solve_fiber_point(engine: SemiConjEngine, x0, y0, tol: float = 1e-10):
    """The unique t with Phi_hat((t, y0)) = x0 (lift coordinates).

    One point (y0 of shape (d-k,)) or a batch of n points (y0 of shape
    (n, d-k), x0 of shape (n,) or (n, k)), solved together.  Returns a float
    (k = 1) or a (k,) array for one point, an (n,) or (n, k) array for a
    batch.  Certified bisection for k = 1; uncertified damped iteration
    otherwise.
    """
    _require_expanding(engine)
    k = engine.k
    Y = np.asarray(y0, dtype=float)
    single = Y.ndim < 2
    X = np.asarray(x0, dtype=float).reshape(-1, k)
    Y = Y.reshape(X.shape[0], engine.d - k)
    if k == 1:
        T = _bisect_batch(engine, X[:, 0], Y, tol)
        return float(T[0]) if single else T
    T = _damped_batch(engine, X, Y, tol)
    return T[0] if single else T


def H_inverse(engine: SemiConjEngine, x0, y0, tol: float = 1e-10):
    """Torus point(s) z with H(z) = (x0 mod 1, y0 mod 1) within tol; one
    point or a batch, shaped as for solve_fiber_point."""
    Y = np.mod(np.asarray(y0, dtype=float), 1.0)
    t = np.reshape(solve_fiber_point(engine, x0, y0, tol),
                   Y.shape[:-1] + (engine.k,))
    return np.mod(np.concatenate([t, Y], axis=-1), 1.0)


@dataclass(frozen=True)
class SkewReport:
    grid_res: int
    tol: float
    max_base_residual: float
    ceiling: float              # (||A||+1) eps + ||A|| tol + 1e-12
    fiber_map_samples: np.ndarray   # (n, d-k): the induced F_y values
    grid: np.ndarray            # (n, d): the (x, y) grid


def skew_product_residual(engine: SemiConjEngine, grid_res: int,
                          tol: float = 1e-10) -> SkewReport:
    """Max over an (x, y) grid of dist(base of H(F(H^-1(x,y))), A x mod 1)."""
    _require_expanding(engine)
    k, d = engine.k, engine.d
    Xg = semiconj._grid(k, grid_res)
    Yg = semiconj._grid(d - k, grid_res)
    nx, ny = Xg.shape[0], Yg.shape[0]
    X = np.repeat(Xg, ny, axis=0)
    Y = np.tile(Yg, (nx, 1))
    Z = H_inverse(engine, X, Y, tol)
    FZ = dynamics.eval_torus(engine.spec, Z)
    base = semiconj.phi_torus(engine, FZ).value
    target = np.mod(X @ engine.A.T, 1.0)
    resid = dynamics.torus_distance(base, target)
    nA = float(np.linalg.norm(engine.A, 2))
    ceiling = (nA + 1.0) * engine.eps + nA * tol + 1e-12
    return SkewReport(grid_res=grid_res, tol=tol,
                      max_base_residual=float(resid.max()),
                      ceiling=float(ceiling),
                      fiber_map_samples=FZ[:, k:],
                      grid=np.concatenate([X, Y], axis=1))


def export_skew_csv(report: SkewReport, path) -> None:
    d = report.grid.shape[1]
    m = report.fiber_map_samples.shape[1]
    header = ",".join([f"x_{i+1}" for i in range(d - m)]
                      + [f"y_{i+1}" for i in range(m)]
                      + [f"Fy_{i+1}" for i in range(m)])
    semiconj._write_csv(path, header, ",".join(["%.17g"] * (d + m)) + "\r\n",
                       [np.hstack([report.grid, report.fiber_map_samples])])
