"""Truncated-series semi-conjugacy to the linear block map, with certified
tail bounds, for expanding and hyperbolic top-left blocks.

There is one construction.  A hyperbolic block A is split by a real
eigenbasis P = [P_u P_s], P^-1 = [L_u; L_s], into an expanding part D_u and
a contracting part D_s.  The basis is folded into the coefficients
coef_u[n] = P_u D_u^{-(n+1)} L_u and coef_s[n] = P_s D_s^n L_s, n < N, and

    Phi_hat(z) = z_W + sum_n coef_u[n] G(F^n z)_W
                     - sum_n coef_s[n] G(F^-(n+1) z)_W,

each sum added up while its orbit is swept, so memory does not grow with
N.  An expanding block is the case with an empty stable part: P = I and
coef_s = 0, so the backward orbit and the inverse-lift budget drop out and
every certified quantity comes from the same formulas.

Hyperbolic mode needs |det M| = 1, which makes F a bijection of the torus
with one backward orbit per point.  With |det M| > 1, F is many-to-one and
only its inverse limit is stable (F. Przytycki, "Anosov endomorphisms",
Studia Math. 58, 1976), so build_engine refuses it.

The engine works on a spec already conjugated into block coordinates
(see intlat.block_triangularize + dynamics.change_coordinates).  For k < d
the decoupled form (zero top-right block) is required: only then does the
orthogonal projection onto the first k coordinates intertwine M with A,
which is what the series construction rests on.

Grids and batches are swept CHUNK points at a time, so memory does not grow
with the grid either.  Chunks are independent: when there is more than one,
_map_chunks runs them on a pool of one thread per CPU in the process's
affinity mask (numpy releases the GIL inside sin, cos, floor and matmul),
opened for that one call and joined before it returns, and hands their
results back in chunk order, so every result is the one a serial sweep
gives, bit for bit.  One chunk, or one CPU, runs on the calling thread and
starts no thread.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels, dynamics, intlat
from .errors import EngineError
from .intlat import BlockForm
from .specdsl import TorusMapSpec

DEFAULT_EPS_TARGET = 1e-9
MAX_DEFAULT_N = 512
CHUNK = 4096        # grid points swept together: peak memory does not grow with the grid
# threads sweeping chunks: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

POOL_PREFIX = "torusconj-chunk"     # name prefix of the threads that sweep chunks


def _map_chunks(fn, chunks):
    """fn(c) for each c of the iterable chunks, yielded in chunk order.

    With more than one chunk and WORKERS > 1 the calls run on a pool of
    WORKERS threads opened for this call and joined when it ends, however
    it ends (numpy releases the GIL in the sweeps), with at most 2 WORKERS
    chunks read ahead of the results taken, so memory stays bounded
    whatever the number of chunks.  A single chunk, WORKERS == 1, or a call
    from a pool thread (a chunk that maps chunks) runs inline on the calling
    thread.  An exception in chunk j is raised at j's turn, as in the serial
    order; the chunks still pending are then cancelled.
    """
    chunks = iter(chunks)
    head = list(itertools.islice(chunks, 2))
    if (len(head) < 2 or WORKERS == 1
            or threading.current_thread().name.startswith(POOL_PREFIX)):
        for c in itertools.chain(head, chunks):
            yield fn(c)
        return
    # imported here: the cold import would add to every CLI start
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(WORKERS, thread_name_prefix=POOL_PREFIX) as pool:
        window = deque(pool.submit(fn, c) for c in head)
        try:
            window.extend(pool.submit(fn, c) for c in itertools.islice(chunks, 2 * WORKERS - 2))
            while window:
                yield window.popleft().result()
                window.extend(pool.submit(fn, c) for c in itertools.islice(chunks, 1))
        finally:
            for fut in window:
                fut.cancel()


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
    rho: float                  # contraction rate used in the tail
    c_a: float                  # sum_{n>=1} ||A^{-n}|| bound (unstable part)
    norms: dynamics.NormBounds
    A: np.ndarray               # (k, k) float
    coef_u: np.ndarray          # (N, k, k): P_u D_u^{-(n+1)} L_u, n = 0..N-1
    coef_s: np.ndarray          # (N, k, k): P_s D_s^n L_s; zero if expanding
    inv_tol: float              # backward-orbit solve tolerance (0 if expanding)
    lift: dynamics.LiftInverse | None   # the inverse lift (None if expanding)


def _geometric_rate(inv_norms: np.ndarray, N: int) -> float:
    """rho = ||B|| if < 1, else the smallest-p root ||B^p||^(1/p) < 1."""
    if inv_norms[1] < 1.0:
        return float(inv_norms[1])
    for p in range(2, N + 1):
        r = inv_norms[p] ** (1.0 / p)
        if r < 1.0:
            return float(r)
    raise EngineError(
        "no power p <= N certifies a contraction rate < 1; "
        "the block is too close to non-expanding (raise N)")


def _power_norms(B: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(powers, operator 2-norms) of B^n for n = 0..N."""
    k = B.shape[0]
    pows = np.empty((N + 1, k, k))
    pows[0] = np.eye(k)
    for n in range(1, N + 1):
        pows[n] = pows[n - 1] @ B
    return pows, np.linalg.norm(pows, 2, axis=(1, 2))


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

    The tail closes the computed norms ||D_u^{-n}||, n <= N, with the
    geometric estimate ||D_u^{-N}|| * rho / (1 - rho), plus the stable-side
    term and, when the stable block is not empty (ku < k), a backward-orbit
    inversion budget.  With N=None the smallest N meeting eps_target is chosen
    (requires rho <= 0.9).  Hyperbolic mode requires |det M| = 1.
    """
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

    def assemble(Ncur: int):
        upows, unorms = _power_norms(Du_inv, Ncur)
        spows, snorms = _power_norms(Ds, Ncur)
        rho_u = _geometric_rate(unorms, Ncur)
        rho_s = _geometric_rate(snorms, Ncur)
        tail_u = unorms[Ncur] * rho_u / (1.0 - rho_u)
        tail_s = snorms[Ncur] / (1.0 - rho_s)       # sum_{m >= N} ||D_s^m||
        eps_series = nb.g_sup * nP * (np.linalg.norm(Lu, 2) * tail_u
                                      + np.linalg.norm(Ls, 2) * tail_s)
        c_a = float(unorms[1:].sum() + tail_u)
        coef_u = P[:, :ku] @ upows[1:] @ Lu
        coef_s = P[:, ku:] @ spows[:Ncur] @ Ls
        return coef_u, coef_s, eps_series, rho_u, c_a, snorms

    if N is not None:
        out = assemble(N)
    else:
        N = 1
        while True:
            try:
                out = assemble(N)
            except EngineError:
                out = None
            if out is not None:
                eps_series, rho = out[2], out[3]
                if rho > 0.9:
                    raise EngineError(
                        f"contraction rate rho = {rho:.3f} > 0.9; pass N explicitly")
                if eps_series < DEFAULT_EPS_TARGET:
                    break
            if N >= MAX_DEFAULT_N:
                raise EngineError("no default N meets the error target; pass N")
            N = min(2 * N, MAX_DEFAULT_N)
    coef_u, coef_s, eps_series, rho, c_a, snorms = out

    lift = None
    inv_tol = 0.0
    eps = eps_series
    if ku < k:
        lift = dynamics.lift_inverse(spec)
        inv_unit = _inv_budget_unit(lift.L_inv, nb.g_lip, snorms, N, nP,
                                    np.linalg.norm(Ls, 2))
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
    j = 1..nsteps, backward."""
    z = _kernels.wrap(Z)
    if backward:
        for _ in range(nsteps):
            W, g, iters = engine.lift(z, engine.inv_tol)
            z = _kernels.wrap(W)
            yield z, g, iters
        return
    ta = dynamics.term_arrays(engine.spec)
    Mf = dynamics.M_array(engine.spec)
    for j in range(nsteps):
        if j:
            z = _kernels.wrap(z @ Mf.T + g)
        g = _kernels.eval_trig(z, ta.freqs, ta.coefs, ta.nsin)
        yield z, g, 0


def _add_term(acc: np.ndarray, g: np.ndarray, coef: np.ndarray, n: int,
              sign: float = 1.0) -> None:
    """acc += sign * coef[n] G_W, if the series has a term n."""
    if 0 <= n < len(coef):
        acc += sign * (g[:, :acc.shape[1]] @ coef[n].T)


def phi_hat(engine: SemiConjEngine, z) -> PhiValue:
    """Lift of the semi-conjugacy at z (point (d,) or batch (..., d)),
    swept CHUNK points at a time."""
    Z = np.asarray(z, dtype=float)
    Zb = Z.reshape(-1, engine.d)
    val = np.zeros((Zb.shape[0], engine.k))

    def sweep(lo):
        Zc, series = Zb[lo:lo + CHUNK], val[lo:lo + CHUNK]
        for n, (_, g, _) in enumerate(_orbit(engine, Zc, engine.N)):
            _add_term(series, g, engine.coef_u, n)
        if engine.mode == "hyperbolic":
            for n, (_, g, _) in enumerate(_orbit(engine, Zc, engine.N, backward=True)):
                _add_term(series, g, engine.coef_s, n, -1.0)
        series += Zc[:, :engine.k]

    deque(_map_chunks(sweep, range(0, Zb.shape[0], CHUNK)), maxlen=0)
    return PhiValue(value=val.reshape(Z.shape[:-1] + (engine.k,)), error_bound=engine.eps)


def phi_torus(engine: SemiConjEngine, theta) -> PhiValue:
    """Torus-valued semi-conjugacy: phi_hat of any lift, mod 1."""
    pv = phi_hat(engine, theta)
    return PhiValue(value=_kernels.wrap(pv.value), error_bound=pv.error_bound)


def _grid(d: int, res: int, offset: float = 0.0, start: int = 0,
          stop: int | None = None) -> np.ndarray:
    """The res^d points (i + offset) / res, i in {0..res-1}^d, in row-major
    order, as an array of shape (stop - start, d) holding rows start..stop-1
    of that order (default: all of them); offset 0.5 gives cell centres.
    For d = 0 it is the single empty point, shape (1, 0)."""
    if d == 0:
        return np.zeros((1, 0))
    rows = np.arange(start, res ** d if stop is None else stop)
    return (np.stack(np.unravel_index(rows, (res,) * d), axis=-1) + offset) / res


def _grid_chunks(d: int, res: int, offset: float = 0.0):
    """_grid(d, res, offset) in consecutive pieces of at most CHUNK rows."""
    n = res ** d
    for lo in range(0, n, CHUNK):
        yield _grid(d, res, offset, lo, min(lo + CHUNK, n))


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    argmax_point: np.ndarray
    ceiling: float              # engine.ceiling: (||A|| + 1) * eps_N
    grid_res: int
    backward_sweeps: int        # inverse-lift orbit sweeps: 0 (expanding) or 1
    inverse_lift_iters: int     # Newton iterations summed over backward steps and chunks
    point_steps: int            # points x orbit steps, forward plus backward


def semiconjugacy_residual(engine: SemiConjEngine, grid_res: int) -> ResidualReport:
    """Max over a uniform torus grid of dist(Phi(F(theta)), A Phi(theta)),
    swept CHUNK grid points at a time (on the chunk pool, see _map_chunks);
    the argmax is the first grid point attaining the maximum.

    One forward sweep of N + 1 steps serves both sides: F(theta) is the
    sweep's step 1, so steps 0..N-1 feed Phi(theta) and steps 1..N feed
    Phi(F(theta)), each step into both as it arrives.  In hyperbolic mode
    F is a bijection of the torus (|det M| = 1, see build_engine), so the
    backward orbit of F(theta) is theta, F^-1(theta), ...: one backward
    sweep of N steps from theta feeds Phi(theta), and G(theta) followed by
    its first N - 1 values feeds Phi(F(theta)).
    """
    N, k = engine.N, engine.k
    sweeps = int(engine.mode == "hyperbolic")

    def sweep(theta):
        """(max residual, its point, inverse-lift iterations) over one
        chunk of the grid."""
        series = np.zeros((theta.shape[0], k))      # Phi(theta) - theta_W
        series_f = np.zeros_like(series)            # Phi(F theta) - (F theta)_W
        for n, (z, g, _) in enumerate(_orbit(engine, theta, N + 1)):
            if n == 0:
                g_theta = g
            elif n == 1:
                ftheta = z
            _add_term(series, g, engine.coef_u, n)
            _add_term(series_f, g, engine.coef_u, n - 1)
        iters = 0
        if sweeps:
            _add_term(series_f, g_theta, engine.coef_s, 0, -1.0)
            for n, (_, g, it) in enumerate(_orbit(engine, theta, N, backward=True)):
                iters += it
                _add_term(series, g, engine.coef_s, n, -1.0)
                _add_term(series_f, g, engine.coef_s, n + 1, -1.0)
        lhs = _kernels.wrap(ftheta[:, :k] + series_f)
        rhs = _kernels.wrap(_kernels.wrap(theta[:, :k] + series) @ engine.A.T)
        res = dynamics.torus_distance(lhs, rhs)
        i = int(np.argmax(res))
        return res[i], theta[i].copy(), iters     # a copy: a view would keep the chunk

    peak, point, iters = zip(*_map_chunks(sweep, _grid_chunks(engine.d, grid_res)))
    j = int(np.argmax(peak))
    return ResidualReport(max_residual=float(peak[j]), argmax_point=point[j],
                          ceiling=engine.ceiling, grid_res=grid_res,
                          backward_sweeps=sweeps, inverse_lift_iters=int(sum(iters)),
                          point_steps=grid_res ** engine.d * (N + 1 + sweeps * N))


def export_phi_grid(engine: SemiConjEngine, grid_res: int, path) -> None:
    """CSV with columns theta_1..theta_d, phi_1..phi_k (%.17g) and
    error_bound (%.6g), written CHUNK rows at a time."""
    d, k = engine.d, engine.k
    header = ",".join([f"theta_{i+1}" for i in range(d)]
                      + [f"phi_{i+1}" for i in range(k)] + ["error_bound"])
    row = ",".join(["%.17g"] * (d + k) + ["%.6g" % engine.eps]) + "\r\n"
    _write_csv(path, header, row, _map_chunks(
        lambda theta: np.hstack([theta, phi_torus(engine, theta).value]),
        _grid_chunks(d, grid_res)))


def _write_csv(path, header: str, row: str, blocks) -> None:
    """Write header, then one CRLF-ended line per row of each array in
    blocks, formatted by row (a %-format string for one line, with its
    CRLF) in one format call per block: the bytes np.savetxt writes."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for values in blocks:
            fh.write((row * len(values)) % tuple(values.ravel().tolist()))
