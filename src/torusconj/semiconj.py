"""Truncated-series semi-conjugacy to the linear block map, with certified
tail bounds, for expanding and hyperbolic top-left blocks.

There is one construction.  A hyperbolic block A is split by a real
eigenbasis P = [P_u P_s], P^-1 = [L_u; L_s], into an expanding part D_u and
a contracting part D_s.  The basis and the sign are folded into the
coefficients coef_u[n] = P_u D_u^{-(n+1)} L_u and coef_s[n] = -P_s D_s^n L_s,
n < N, and

    Phi_hat(z) = z_W + sum_n coef_u[n] G(F^n z)_W
                     + sum_n coef_s[n] G(F^-(n+1) z)_W,

each sum added up while its orbit is swept (by _phi_series, the one place
Phi_hat is summed), so memory does not grow with N.  An expanding block is
the case with an empty stable part: P = I and no stable terms (coef_s has
no rows), so it runs no backward sweep, has no inverse lift and no
inverse-lift budget, and every certified quantity comes from the same
formulas.

Hyperbolic mode needs |det M| = 1, which makes F a bijection of the torus
with one backward orbit per point.  With |det M| > 1, F is many-to-one and
only its inverse limit is stable (F. Przytycki, "Anosov endomorphisms",
Studia Math. 58, 1976), so build_engine refuses it.

The engine works on a spec already conjugated into block coordinates
(see intlat.block_triangularize + dynamics.change_coordinates).  For k < d
the decoupled form (zero top-right block) is required: only then does the
orthogonal projection onto the first k coordinates intertwine M with A,
which is what the series construction rests on.

Grids are swept CHUNK points at a time, so memory does not grow with the
grid either; the four grid sweeps are the one place that chunks, and
phi_hat and conjmap.H_inverse sweep the batch they are given in one piece.
Each grid is swept one chunk after another on the calling thread, in grid
order, and its results are merged as they come.  Each chunk's sweep writes
into step buffers of its own, allocated once per _orbit call and reused at
every step (see _kernels on the layout).
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels, dynamics, intlat
from .errors import EngineError
from .intlat import BlockForm
from .specdsl import TorusMapSpec

DEFAULT_EPS_TARGET = 1e-9
MAX_DEFAULT_N = 512
CHUNK = 8192        # grid points swept together: peak memory does not grow with the grid


@dataclass(frozen=True)
class PhiValue:
    value: np.ndarray      # (..., k)
    error_bound: float


@dataclass(frozen=True, eq=False)
class SemiConjEngine:
    spec: TorusMapSpec          # in S-coordinates
    mode: str                   # "expanding" | "hyperbolic"
    N: int
    k: int
    d: int
    eps: float                  # certified truncation (+ inversion) bound
    norm_A: float               # ||A||_2
    ceiling: float              # (||A||_2 + 1) eps: the semi-conjugacy residual's ceiling
    rho: float                  # contraction rate of D_u^-1: the auto-N search needs <= 0.9
    c_a: float                  # sum_{n>=1} ||A^{-n}|| bound (unstable part)
    norms: dynamics.NormBounds
    A: np.ndarray               # (k, k) float
    coef_u: np.ndarray          # (N, k, k): P_u D_u^{-(n+1)} L_u, n = 0..N-1
    coef_s: np.ndarray          # (N, k, k): -P_s D_s^n L_s; (0, k, k) if expanding
    inv_tol: float              # backward-orbit solve tolerance (0 if expanding)
    lift: dynamics.LiftInverse | None   # the inverse lift (None if expanding)


def _tail(norms: np.ndarray, start: int, N: int) -> tuple[float, float]:
    """(sum_{j >= start} ||B^j||, rho) from the norms of B^n, n = 0..start+p-1,
    with p <= N the least power with ||B^p|| < 1 and rho = ||B^p||^(1/p):
    each j >= start is start + r + q p with r < p, so the sum is at most
    sum_{r < p} ||B^(start+r)|| / (1 - ||B^p||)."""
    for p in range(1, N + 1):
        if norms[p] < 1.0:
            return (float(norms[start:start + p].sum() / (1.0 - norms[p])),
                    float(norms[p] ** (1.0 / p)))
    raise EngineError(
        "no power p <= N certifies a contraction rate < 1; "
        "the block is too close to non-expanding (raise N)")


def _power_norms(B: np.ndarray, N: int, head=None) -> tuple[np.ndarray, np.ndarray]:
    """(powers, operator 2-norms) of B^n for n = 0..N; head, the result of
    an earlier call for the same B, supplies the powers it holds."""
    out = np.empty((N + 1,) + B.shape)
    m = 1 if head is None else min(len(head[0]), N + 1)
    out[:m] = np.eye(len(B)) if head is None else head[0][:m]
    for n in range(m, N + 1):
        out[n] = out[n - 1] @ B
    return out, np.linalg.norm(out, 2, axis=(1, 2))


def _real_invariant_split(A: np.ndarray):
    """Real bases of the expanding / contracting invariant subspaces of A."""
    lam, V = np.linalg.eig(A)
    cols_u, cols_s = [], []
    used = set()
    for i in range(len(lam)):
        if i in used:
            continue
        used.add(i)
        if abs(lam[i].imag) > 1e-12:
            j = next(j for j in range(len(lam))
                     if j not in used and abs(lam[j] - lam[i].conjugate()) < 1e-8)
            used.add(j)
            vecs = [V[:, i].real, V[:, i].imag]
        else:
            vecs = [V[:, i].real]
        (cols_u if abs(lam[i]) > 1 else cols_s).extend(vecs)
    if not cols_u or not cols_s:
        raise EngineError("hyperbolic split is degenerate; use expanding mode")
    P = np.column_stack(cols_u + cols_s)
    if np.linalg.cond(P) > 1e8:
        raise EngineError("eigenbasis of A is too ill-conditioned to split")
    return P, len(cols_u)


def build_engine(spec: TorusMapSpec, block: BlockForm,
                 N: int | None = None) -> SemiConjEngine:
    """Precompute block powers and the certified tail bound.

    The tail sum_{n > N} ||D_u^{-n}|| is closed by _tail from the computed
    norms up to n = 2N, as is the stable-side sum_{m >= N} ||D_s^m||; when
    the stable block is not empty (ku < k), a backward-orbit inversion
    budget is added.  With N=None the smallest N meeting eps_target is chosen
    (requires rho <= 0.9); a given N is at most MAX_DEFAULT_N, as a chosen
    one is.  spec must be in the block's coordinates (spec.M is
    block.M_conj).  Hyperbolic mode requires |det M| = 1.
    """
    if spec.M != block.M_conj:
        raise EngineError(f"the spec's M = {spec.M_list()} is not the block form "
                          f"{[list(r) for r in block.M_conj]}: change its coordinates first")
    if N is not None and N > MAX_DEFAULT_N:
        raise EngineError(f"truncation N = {N} is above {MAX_DEFAULT_N}")
    mode = block.classification
    if mode == "neither":
        raise EngineError("top-left block is neither expanding nor hyperbolic")
    k, d = block.k, spec.d
    if k < d and not block.decoupled:
        raise EngineError(
            "block form is coupled (nonzero top-right block); the series "
            "semi-conjugacy needs the decoupled form for k < d")
    if mode == "hyperbolic" and abs(det := intlat.det_int(spec.M_list())) != 1:
        raise EngineError(f"hyperbolic mode needs |det M| = 1, got det M = {det}: F is not "
                          "a bijection of the torus, so its points have no unique backward orbit")
    nb = dynamics.norm_bounds(spec)
    A = block.A_array()
    # expanding mode is the split with an empty stable block: P = I, ku = k
    P, ku = (np.eye(k), k) if mode == "expanding" else _real_invariant_split(A)
    Pinv = np.linalg.inv(P)
    Lu, Ls = Pinv[:ku], Pinv[ku:]
    B = Pinv @ A @ P
    Du_inv = np.linalg.inv(B[:ku, :ku])
    Ds = B[ku:, ku:]
    nP = np.linalg.norm(P, 2)
    nLu, nLs = np.linalg.norm(Lu, 2), np.linalg.norm(Ls, 2)

    def bound(Ncur: int, up=None, sp=None):
        """(eps_series, rho_u, c_a, up, sp) at truncation Ncur, with up and
        sp the (powers, norms) of D_u^-n and D_s^n for n = 0..2 Ncur,
        continuing the up and sp of a smaller Ncur, if given."""
        up, sp = _power_norms(Du_inv, 2 * Ncur, up), _power_norms(Ds, 2 * Ncur, sp)
        unorms, snorms = up[1], sp[1]
        tail_u, rho_u = _tail(unorms, Ncur + 1, Ncur)     # sum_{n > N} ||D_u^-n||
        tail_s = _tail(snorms, Ncur, Ncur)[0]             # sum_{m >= N} ||D_s^m||
        eps_series = nb.g_sup * nP * (nLu * tail_u + nLs * tail_s)
        c_a = float(unorms[1:Ncur + 1].sum() + tail_u)
        return eps_series, rho_u, c_a, up, sp

    if N is not None:
        eps_series, rho, c_a, up, sp = bound(N)
    else:
        N, up, sp = 1, None, None
        while True:
            try:
                eps_series, rho, c_a, up, sp = bound(N, up, sp)
            except EngineError:
                rho = None
            if rho is not None:
                if rho > 0.9:
                    raise EngineError(
                        f"contraction rate rho = {rho:.3f} > 0.9; pass N explicitly")
                if eps_series < DEFAULT_EPS_TARGET:
                    break
            if N >= MAX_DEFAULT_N:
                raise EngineError("no default N meets the error target; pass N")
            N = min(2 * N, MAX_DEFAULT_N)
    coef_u = P[:, :ku] @ up[0][1:N + 1] @ Lu
    coef_s = np.empty((0, k, k))    # an expanding block has no stable terms
    lift = None
    inv_tol = 0.0
    eps = eps_series
    if ku < k:
        coef_s = -(P[:, ku:] @ sp[0][:N] @ Ls)
        lift = dynamics.lift_inverse(spec)
        inv_unit = _inv_budget_unit(lift.L_inv, nb.g_lip, sp[1], N, nP, nLs)
        inv_tol = max(1e-15, (eps_series / 10.0) / inv_unit)
        eps = eps_series + inv_unit * inv_tol
    eps = float(eps)
    norm_A = float(np.linalg.norm(A, 2))
    return SemiConjEngine(
        spec=spec, mode=mode, N=N, k=k, d=d, eps=eps,
        norm_A=norm_A, ceiling=(norm_A + 1.0) * eps,
        rho=float(rho), c_a=c_a, norms=nb, A=A, coef_u=coef_u, coef_s=coef_s,
        inv_tol=float(inv_tol), lift=lift)


def _inv_budget_unit(L_inv, g_lip, snorms, N, nP, nLs):
    """Certified amplification of a unit backward-solve residual into the
    stable series: sum_n ||D_s^{n-1}|| * Lip(G) * sum_{j<=n} L_inv^j, where
    L_inv bounds the Lipschitz constant of the inverse lift."""
    total = 0.0
    acc = 0.0
    for n in range(1, N + 1):
        acc = acc * L_inv + L_inv
        total += snorms[n - 1] * g_lip * acc
    return nP * nLs * (total + 1.0)


def _orbit(engine: SemiConjEngine, Z: np.ndarray, nsteps: int,
           backward: bool = False):
    """The torus orbit of Z (n, d), one step at a time: yields (z, G(z),
    inverse-lift iterations spent on z) for z = F^j(Z mod 1), j = 0..nsteps-1
    forward, or for the inverse-lift branches z = F^-j(Z mod 1),
    j = 1..nsteps, backward.

    The forward sweep keeps z and G as coordinate-major rows (d, n) and
    yields their transposed (n, d) views; these buffers, and the trig
    kernel's, are allocated once per call and overwritten by the next step,
    so a caller that keeps a step copies it.  Each product is taken in the
    point-major operand order (z @ Mf.T, values @ coefs) on transposed
    views, which rounds as the point-major arrays did."""
    if backward:
        z = _kernels.wrap(Z)
        for _ in range(nsteps):
            W, g, iters = engine.lift(z, engine.inv_tol)
            z = _kernels.wrap(W)
            yield z, g, iters
        return
    ta = dynamics.term_arrays(engine.spec)
    Mf = dynamics.M_array(engine.spec)
    n, d = Z.shape
    z, z_next, g = np.empty((3, d, n))
    work = np.empty((2, len(ta.coefs), n))      # the trig kernel's tangents and values
    np.subtract(Z.T, np.floor(Z.T, out=g), out=z)   # wrap(Z), into the z rows
    z[z >= 1.0] = 0.0
    for j in range(nsteps):
        if j:       # wrap(z @ Mf.T + g) into the other z rows, without the fold of 1.0
            np.matmul(z.T, Mf.T, out=z_next.T)
            z_next += g
            z_next -= np.floor(z_next, out=g)
            z, z_next = z_next, z
        _kernels.eval_trig(z.T, ta.freqs, ta.coefs, ta.nsin, work, g.T)
        yield z.T, g.T, 0


def _add_term(acc: np.ndarray, g: np.ndarray, coef: np.ndarray, n: int,
              term: np.ndarray) -> None:
    """acc += coef[n] G_W in place, if the series has a term n: acc and the
    buffer term are (k, n) rows, g is (n, d)."""
    if 0 <= n < len(coef):
        np.matmul(g[:, :len(acc)], coef[n].T, out=term.T)
        acc += term


def _phi_series(engine: SemiConjEngine, Z: np.ndarray, image: bool = False):
    """([Phi_hat(Z) - Z_W, and with image Phi_hat(F Z) - (F Z)_W], F(Z),
    inverse-lift iterations) for a batch Z (n, d): the one place Phi_hat is
    summed, from one forward sweep of N steps (N + 1 with image; F(Z) is
    step 1) and one backward sweep of len(coef_s) steps.  With stable terms
    F is a bijection of the torus (|det M| = 1, see build_engine), so the
    backward orbit of F(Z) is Z, F^-1(Z), ...: G(Z), then the backward
    sweep, feed Phi(F Z).  The sums are added up in (k, n) rows and
    returned as their transposed (n, k) views."""
    # Phi(F^lag Z) takes forward step n as its term n - lag and backward
    # step n as its stable term n + lag
    sums = np.zeros((1 + image, engine.k, Z.shape[0]))
    term = np.empty(sums.shape[1:])
    fz = g_z = None
    for n, (z, g, _) in enumerate(_orbit(engine, Z, engine.N + image)):
        if n == 0 and image:
            g_z = g.copy()      # the sweep overwrites its step buffers
        elif n == 1:
            fz = z.copy()
        for lag, acc in enumerate(sums):
            _add_term(acc, g, engine.coef_u, n - lag, term)
    if image:
        _add_term(sums[1], g_z, engine.coef_s, 0, term)
    iters = 0
    for n, (_, g, it) in enumerate(_orbit(engine, Z, len(engine.coef_s), backward=True)):
        iters += it
        for lag, acc in enumerate(sums):
            _add_term(acc, g, engine.coef_s, n + lag, term)
    return [acc.T for acc in sums], fz, iters


def phi_hat(engine: SemiConjEngine, z) -> PhiValue:
    """Lift of the semi-conjugacy at z (point (d,) or batch (..., d)), in
    one sweep of the whole batch on the calling thread, so memory grows
    with the batch."""
    Zb = dynamics._batch(z, engine.d)
    val = _phi_series(engine, Zb)[0][0] + Zb[:, :engine.k]
    return PhiValue(value=val.reshape(np.shape(z)[:-1] + (engine.k,)), error_bound=engine.eps)


def phi_torus(engine: SemiConjEngine, theta) -> PhiValue:
    """Torus-valued semi-conjugacy: phi_hat of any lift, mod 1."""
    pv = phi_hat(engine, theta)
    return PhiValue(value=_kernels.wrap(pv.value), error_bound=pv.error_bound)


def _grid(d: int, res: int, offset: float = 0.0, start: int = 0,
          stop: int | None = None) -> np.ndarray:
    """The res^d points (i + offset) / res, i in {0..res-1}^d, in row-major
    order, as an array of shape (stop - start, d) holding rows start..stop-1
    of that order (default: all of them); offset 0.5 gives cell centres."""
    rows = np.arange(start, _grid_size(d, res) if stop is None else stop)
    return (np.stack(np.unravel_index(rows, (res,) * d), axis=-1) + offset) / res


def _grid_size(d: int, res: int) -> int:
    """res ** d, or EngineError if numpy cannot index that many points."""
    if res ** d > np.iinfo(np.intp).max:
        raise EngineError(f"a grid of {res}^{d} points has more than numpy can index")
    return res ** d


def _grid_chunks(d: int, res: int, offset: float = 0.0):
    """_grid(d, res, offset) in pieces of at most CHUNK rows; oversize raises at once."""
    n = _grid_size(d, res)
    return (_grid(d, res, offset, lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    argmax_point: np.ndarray
    ceiling: float              # engine.ceiling: (||A|| + 1) * eps_N
    grid_res: int
    backward_sweeps: int        # inverse-lift orbit sweeps: 0 (no stable terms) or 1
    inverse_lift_iters: int     # Newton iterations summed over backward steps and chunks
    point_steps: int            # points x orbit steps, forward plus backward


def semiconjugacy_residual(engine: SemiConjEngine, grid_res: int) -> ResidualReport:
    """Max over a uniform torus grid of dist(Phi(F(theta)), A Phi(theta)),
    swept CHUNK grid points at a time on the calling thread; the argmax is
    the first grid point attaining the maximum.  Both sides come from one
    _phi_series sweep per chunk."""
    k, nsteps = engine.k, len(engine.coef_u) + 1 + len(engine.coef_s)

    def sweep(theta):
        """(max residual, its point, inverse-lift iterations) over one
        chunk of the grid."""
        (series, series_f), ftheta, iters = _phi_series(engine, theta, image=True)
        lhs = _kernels.wrap(ftheta[:, :k] + series_f)
        rhs = _kernels.wrap(_kernels.wrap(theta[:, :k] + series) @ engine.A.T)
        res = dynamics.torus_distance(lhs, rhs)
        i = int(np.argmax(res))
        return res[i], theta[i].copy(), iters     # a copy: a view would keep the chunk

    peak, point, iters = zip(*map(sweep, _grid_chunks(engine.d, grid_res)))
    j = int(np.argmax(peak))
    return ResidualReport(max_residual=float(peak[j]), argmax_point=point[j],
                          ceiling=engine.ceiling, grid_res=grid_res,
                          backward_sweeps=int(len(engine.coef_s) > 0),
                          inverse_lift_iters=int(sum(iters)),
                          point_steps=grid_res ** engine.d * nsteps)


def export_phi_grid(engine: SemiConjEngine, grid_res: int, path) -> None:
    """CSV of theta_1..theta_d, phi_1..phi_k (%.17g) and error_bound (%.6g):
    phi_torus swept CHUNK grid points at a time on the calling thread, each
    chunk written as it comes by _write_grid_csv."""
    d, k = engine.d, engine.k
    _write_grid_csv(path, grid_res, ",".join([f"theta_{i+1}" for i in range(d)]
                                             + [f"phi_{i+1}" for i in range(k)] + ["error_bound"]),
                    ["%.17g"] * k + ["%.6g" % engine.eps], map(
        lambda theta: (theta, phi_torus(engine, theta).value), _grid_chunks(d, grid_res)))


def _write_grid_csv(path, grid_res: int, header: str, formats: list[str], chunks) -> None:
    """The one grid-CSV writer: the header line, then for each (theta (n, d),
    values (n, m)) of chunks one CRLF line per row, theta's coordinates
    (%.17g) and then the values formatted by formats, made and written one
    chunk at a time, all or nothing (see _write_file)."""

    def lines(theta, values):
        # grid_res * (i / grid_res) rounds to i; each index lo + i the chunk
        # holds is formatted once and its string shared by the rows (a string
        # per row raised peak RSS by ~2 MB)
        d = theta.shape[1]
        lo = int(np.rint(theta.min() * grid_res))
        idx = np.rint(theta * grid_res).astype(np.intp) - lo
        held = np.zeros(idx.max() + 1, dtype=bool)
        held[idx] = True
        coords = np.empty(len(held), dtype=object)
        coords[held] = ["%.17g" % ((lo + i) / grid_res) for i in np.flatnonzero(held).tolist()]
        cells = np.empty((len(values), d + values.shape[1]), dtype=object)
        cells[:, :d] = coords[idx]
        cells[:, d:] = values
        return _format_rows(",".join(["%s"] * d + formats) + "\r\n", cells)

    _write_file(path, itertools.chain([header + "\r\n"], itertools.starmap(lines, chunks)))


def _format_rows(row: str, values: np.ndarray) -> str:
    """One line per row of values (n, m), formatted by row (a %-format
    string for one line, with its CRLF) in one format call: the bytes
    np.savetxt writes."""
    return (row * len(values)) % tuple(values.ravel().tolist())


def _write_file(path, blocks) -> None:
    """Write each string of blocks to path, all or nothing: the text goes to
    a temporary file next to path, which replaces path once the last block
    is written and is removed if any block fails, so a failed write leaves
    no partial file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
