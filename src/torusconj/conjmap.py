"""The conjugacy H(z) = (Phi(z), proj_{W-perp} z): forward map, certified
fiber solving for k = 1, and the skew-product check
H o F o H^-1 = (A x, F_y(x, y)).

Everything runs in block (S-) coordinates through a SemiConjEngine in
expanding mode.  The certified inverse path needs k = 1: there the series
displacement bound gives a guaranteed sign-change bracket around each
target, and a scan of that bracket checks that t -> Phi_hat((t, y)) changes
sign exactly once on it.  Targets on one fiber line share that scan; each
root is then finished inside its sign-change interval by regula falsi
safeguarded with bisection steps, so every iterate stays in a bracket.  For
k > 1 an uncertified damped fixed-point solve is provided with residual
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, dynamics, semiconj
from .errors import EngineError, FiberSolveError
from .semiconj import SemiConjEngine

PRESCAN_POINTS = 32     # the scan's sample spacing is the bracket width / PRESCAN_POINTS
MAX_BISECT = 120        # cap on the finish rounds of a fiber solve
MAX_DAMPED = 500


@dataclass
class FiberStats:
    """Work counters of the fiber solves that are given this object."""
    fiber_iters: int = 0    # most finish rounds any one point needed
    scan_points: int = 0    # distinct (line, t) samples the scans evaluated
    phi_points: int = 0     # Phi_hat points the solves evaluated, scans included

    def add(self, iters: int, scan: int, points: int) -> None:
        self.fiber_iters = max(self.fiber_iters, iters)
        self.scan_points += scan
        self.phi_points += points


def _require_expanding(engine: SemiConjEngine):
    if engine.mode != "expanding":
        raise EngineError("the conjugacy construction runs in expanding mode")


def H_forward(engine: SemiConjEngine, z):
    """H(theta) = (Phi(theta), last d-k coordinates), both torus-valued."""
    _require_expanding(engine)
    Z = np.asarray(z, dtype=float)
    phi = semiconj.phi_torus(engine, Z).value
    y = _kernels.wrap(Z[..., engine.k:])
    return phi, y


def _bracket_halfwidth(engine: SemiConjEngine) -> float:
    # |Phi_hat(z) - z_1| <= C_A ||G||_0 + eps, so x0 +- this brackets the root
    return 0.5 + engine.c_a * engine.norms.g_sup + engine.eps


def _unique_rows(R):
    """The distinct rows of R (n, m) in lexicographic order, and for each row
    of R its index among them (np.unique with axis=0 sorts a structured
    view, several times slower on the scan's samples)."""
    order = np.lexsort(R.T[::-1]) if R.shape[1] else np.arange(len(R))
    S = R[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    inv = np.empty(len(S), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    return S[new], inv


def _scan_samples(line, lo, hi, h):
    """The shared scan: the distinct (line, t) samples, sorted by line and
    then t, as an (m, 2) array, and the positions of each target's bracket
    ends lo and hi among them.

    A target's samples are its two bracket ends and the lattice points j h
    strictly inside its bracket.  Per line, in order of the first lattice
    index j1, each target adds only the lattice points past the largest
    last index j2 of the targets before it, so the lattice points of
    overlapping brackets are listed once."""
    j1 = np.floor(lo / h).astype(np.int64) + 1
    j2 = np.ceil(hi / h).astype(np.int64) - 1
    order = np.lexsort((j1, line))
    j1, j2, lines = j1[order], j2[order], line[order]
    # a running max of j2 that restarts on every line: offsetting line l by
    # l * span puts all of its indices above those of the lines before it
    span = int(j2.max() - j1.min()) + 2
    base = lines * span
    reach = np.maximum.accumulate(base + j2)
    start = np.maximum(j1, np.concatenate([[base[0] + j1[0]], reach[:-1] + 1]) - base)
    count = np.maximum(j2 - start + 1, 0)
    j = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
    samples = np.column_stack([np.concatenate([np.repeat(lines, count), line, line]),
                               np.concatenate([j * h, lo, hi])])
    uniq, inv = _unique_rows(samples)
    return uniq, inv[len(j):len(j) + len(lo)], inv[len(j) + len(lo):]


def _bisect_batch(engine: SemiConjEngine, x0, Y, tol, stats: FiberStats | None = None):
    """Vectorized certified fiber solve for k = 1.

    x0: (n,) lift targets; Y: (n, d-1) fixed off-core coordinates.
    Returns t: (n,) with |Phi_hat((t, y)) - x0| <= tol at every point.

    Stage 1 is one scan shared by all targets on one fiber line (equal rows
    of Y), evaluated in one phi_hat call (see _scan_samples).  With
    f = Phi_hat - x0, each target needs f < 0 at x0 - half and f > 0 at
    x0 + half, and exactly one sign change over the line's samples in its
    bracket, which lie at most 2 half / PRESCAN_POINTS apart.

    Stage 2 finishes each root inside its sign-change interval by Illinois
    regula falsi (M. Dowell and P. Jarratt, BIT 11, 1971), with a bisection
    step whenever the bracket has not halved in three rounds.  A point stops
    when |f| <= tol / 16, or when |f| <= tol and its bracket is down to
    adjacent floats; after MAX_BISECT rounds every point must have
    |f| <= tol, or FiberSolveError is raised.  The work done is added to
    stats, if given.
    """
    n = x0.shape[0]
    half = _bracket_halfwidth(engine)
    lo, hi = x0 - half, x0 + half
    lines, line = _unique_rows(Y)
    samples, pa, pb = _scan_samples(line, lo, hi, 2.0 * half / PRESCAN_POINTS)
    T = samples[:, 1]
    V = semiconj.phi_hat(
        engine, np.column_stack([T, lines[samples[:, 0].astype(np.int64)]])).value[:, 0]
    # the straddle test reads the bracket ends themselves
    if np.any(V[pa] - x0 >= 0) or np.any(V[pb] - x0 <= 0):
        raise FiberSolveError(
            "bracket endpoints do not straddle the target; the engine's "
            "displacement bound is inconsistent")
    # sign changes of Phi_hat - x0 (0 counts as +) over each window pa..pb,
    # one sample offset at a time
    changes = np.zeros(n, dtype=np.int64)
    first = pa.copy()
    pos = V[pa] >= x0
    for m in range(1, int((pb - pa).max()) + 1):
        p = np.minimum(pa + m, pb)
        nxt = V[p] >= x0
        flip = nxt != pos
        first = np.where(flip & (changes == 0), p - 1, first)
        changes += flip
        pos = nxt
    if np.any(changes != 1):
        bad = int(np.argmax(changes != 1))
        raise FiberSolveError(
            f"fiber line has {int(changes[bad])} sign changes instead of 1 "
            "(monotonicity / cone-certificate inconsistency)")
    a, b = T[first], T[first + 1]
    fa, fb = V[first] - x0, V[first + 1] - x0
    # the first iterate is the better end: a scan sample may be the root
    c, f = np.where(-fa < fb, a, b), np.where(-fa < fb, fa, fb)
    t = np.empty(n)
    act = np.arange(n)
    side = np.zeros(n)                  # +1: b moved last round, -1: a did
    w1 = w2 = w3 = np.full(n, np.inf)   # bracket widths one to three rounds back
    points = len(T)
    # stop well inside tol: a root that only just meets it would leave the
    # skew-product and round-trip residuals near their bounds
    tight = tol / 16
    rounds = 0
    while True:
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
        if not act.size:
            break
        rounds += 1
        width = b - a
        c = b - fb * (width / (fb - fa))
        # bisect when the regula falsi point is not strictly inside, or when
        # the bracket has not halved in three rounds
        c = np.where((width > 0.5 * w3) | ~((a < c) & (c < b)), a + 0.5 * width, c)
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
    if stats is not None:
        stats.add(rounds, len(T), points)
    return t


def _damped_batch(engine: SemiConjEngine, X0, Y, tol, stats: FiberStats | None = None):
    """Uncertified damped solve for k > 1: t <- t - A^-1 (Phi_hat - x0)."""
    Ainv = np.linalg.inv(engine.A)
    T = X0.copy()
    for it in range(MAX_DAMPED):
        Z = np.concatenate([T, Y], axis=1)
        r = semiconj.phi_hat(engine, Z).value - X0
        if np.linalg.norm(r, axis=1).max() <= tol:
            if stats is not None:
                stats.add(it, 0, (it + 1) * len(T))
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


def solve_fiber_point(engine: SemiConjEngine, x0, y0, tol: float = 1e-10,
                      stats: FiberStats | None = None):
    """The unique t with Phi_hat((t, y0)) = x0 (lift coordinates).

    One point (y0 of shape (d-k,)) or a batch of n points (y0 of shape
    (n, d-k), x0 of shape (n,) or (n, k)), solved together.  Returns a float
    (k = 1) or a (k,) array for one point, an (n,) or (n, k) array for a
    batch, empty for n = 0.  For k = 1 the certified solve of _bisect_batch:
    a scan shared per fiber line, then safeguarded regula falsi; uncertified
    damped iteration otherwise.  The work done is added to stats, if given.
    """
    _require_expanding(engine)
    k = engine.k
    Y = np.asarray(y0, dtype=float)
    single = Y.ndim < 2
    X = np.asarray(x0, dtype=float).reshape(-1, k)
    Y = Y.reshape(X.shape[0], engine.d - k)
    if not X.shape[0]:
        return np.zeros((0,) if k == 1 else (0, k))
    if k == 1:
        T = _bisect_batch(engine, X[:, 0], Y, tol, stats)
        return float(T[0]) if single else T
    T = _damped_batch(engine, X, Y, tol, stats)
    return T[0] if single else T


def H_inverse(engine: SemiConjEngine, x0, y0, tol: float = 1e-10,
              stats: FiberStats | None = None):
    """Torus point(s) z with H(z) = (x0 mod 1, y0 mod 1) within tol; one
    point or a batch, shaped as for solve_fiber_point."""
    Y = _kernels.wrap(np.asarray(y0, dtype=float))
    t = np.reshape(solve_fiber_point(engine, x0, y0, tol, stats),
                   Y.shape[:-1] + (engine.k,))
    return _kernels.wrap(np.concatenate([t, Y], axis=-1))


@dataclass(frozen=True)
class SkewReport:
    grid_res: int
    tol: float
    max_base_residual: float
    ceiling: float              # skew_ceiling(engine, tol)
    fiber_map_samples: np.ndarray   # (n, d-k): the induced F_y values
    grid: np.ndarray            # (n, d): the (x, y) grid


def skew_ceiling(engine: SemiConjEngine, tol: float) -> float:
    """The ceiling on the skew-product base residual: (||A|| + 1) eps +
    ||A|| tol + 1e-12."""
    return float(engine.ceiling + engine.norm_A * tol + 1e-12)


def skew_product_residual(engine: SemiConjEngine, grid_res: int,
                          tol: float = 1e-10,
                          stats: FiberStats | None = None) -> SkewReport:
    """Max over an (x, y) grid of dist(base of H(F(H^-1(x,y))), A x mod 1);
    the fiber solves' work is added to stats, if given."""
    _require_expanding(engine)
    k = engine.k
    grid = semiconj._grid(engine.d, grid_res)
    X, Y = grid[:, :k], grid[:, k:]
    Z = H_inverse(engine, X, Y, tol, stats)
    FZ = dynamics.eval_torus(engine.spec, Z)
    base = semiconj.phi_torus(engine, FZ).value
    target = _kernels.wrap(X @ engine.A.T)
    resid = dynamics.torus_distance(base, target)
    return SkewReport(grid_res=grid_res, tol=tol,
                      max_base_residual=float(resid.max()),
                      ceiling=skew_ceiling(engine, tol),
                      fiber_map_samples=FZ[:, k:], grid=grid)


def export_skew_csv(report: SkewReport, path) -> None:
    d = report.grid.shape[1]
    m = report.fiber_map_samples.shape[1]
    header = ",".join([f"x_{i+1}" for i in range(d - m)]
                      + [f"y_{i+1}" for i in range(m)]
                      + [f"Fy_{i+1}" for i in range(m)])
    row = ",".join(["%.17g"] * (d + m)) + "\r\n"
    semiconj._write_csv(path, header, [semiconj._format_rows(
        row, np.hstack([report.grid, report.fiber_map_samples]))])
