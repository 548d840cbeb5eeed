import warnings

import numpy as np
import pytest
from mpmath import mp

from torusconj import _kernels, dynamics, parse_spec, semiconj

from conftest import FIX_1D, FIX_CAT, FIX_HYP3
from test_oracle import DPS

TWO_PI = 2.0 * np.pi


def _per_term(spec, Z):
    """G and DG summed one spec term at a time, the layout before unique
    phases, each phase reduced mod 1 before the 2 pi: a reference for the
    kernels."""
    freqs = np.array([t.frequency for t in spec.terms], dtype=float)
    s = Z @ freqs.T
    phase = TWO_PI * (s - np.rint(s))
    g = np.zeros(Z.shape)
    dg = np.zeros(Z.shape + (spec.d,))
    for j, t in enumerate(spec.terms):
        s, c = np.sin(phase[:, j]), np.cos(phase[:, j])
        val, dval = (s, c) if t.kind == "sin" else (c, -s)
        i = t.component - 1
        g[:, i] += t.coefficient * val
        dg[:, i, :] += (TWO_PI * t.coefficient * dval)[:, None] * freqs[j][None, :]
    return g, dg


def _g_and_dg(Z, freqs, coefs, nsin, jac):
    """G and DG of the kernels at the points Z, for G in the layout of
    dynamics.TermArrays."""
    return _kernels.eval_trig(Z, freqs, coefs, nsin), _kernels.eval_jac(Z, freqs, nsin, jac)


def test_empty_term_list():
    s = parse_spec("dim=2\nM=[[2,1],[1,1]]\n")
    ta = dynamics.term_arrays(s)
    assert ta.freqs.shape == (0, 2) and ta.coefs.shape == (0, 2)
    assert ta.nsin == 0 and ta.jac.shape == (0, 4)
    Z = np.full((3, 2), 0.3)
    g = _kernels.eval_trig(Z, ta.freqs, ta.coefs, ta.nsin)
    dg = _kernels.eval_jac(Z, ta.freqs, ta.nsin, ta.jac)
    assert g.shape == (3, 2) and dg.shape == (3, 2, 2)
    assert not g.any() and not dg.any()


def test_orbit_matches_manual_iteration(engine_2d, engine_cat, rng):
    # the orbit iterator steps the torus map one point at a time: forward,
    # G at z_j and z_{j+1} = F(z_j) mod 1 bit for bit; backward, each point
    # maps forward onto the one before it
    theta0 = rng.uniform(0, 1, size=(5, 2))
    theta = theta0.copy()
    for z, g, iters in semiconj._orbit(engine_2d, theta0, 10):
        assert np.array_equal(z, theta) and iters == 0
        assert np.array_equal(g, dynamics.eval_G(engine_2d.spec, theta))
        theta = dynamics.eval_torus(engine_2d.spec, theta)
    steps = list(semiconj._orbit(engine_cat, theta0, 5, backward=True))
    assert len(steps) == 5
    prev = theta0
    for z, g, iters in steps:
        assert np.array_equal(g, dynamics.eval_G(engine_cat.spec, z)) and iters > 0
        assert dynamics.torus_distance(dynamics.eval_torus(engine_cat.spec, z),
                                       prev).max() <= engine_cat.inv_tol + 1e-14
        prev = z


def test_invert_lift_kernel(spec_cat, rng):
    ta = dynamics.term_arrays(spec_cat)
    Mf = dynamics.M_array(spec_cat)
    Minv = np.linalg.inv(Mf)
    Z = rng.uniform(-1, 2, size=(50, 2))
    W, res, g, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 1e-13, 200)
    assert res.max() <= 1e-13 and 0 < iters <= 200
    # G comes back at the accepted iterate, reduced mod 1, bit for bit
    assert np.array_equal(g, dynamics.eval_G(spec_cat, np.mod(W, 1.0)))


def test_trig_matches_per_term_loop(spec_2d, spec_2d_S, spec_cat, rng):
    # one row per unique phase, summed by matrix products, against the sum
    # of the spec's terms one at a time: G moves by summation rounding
    # only, DG stays within 1e-15
    s3 = parse_spec("dim=3\nM=[[2,1,0],[0,2,1],[1,0,3]]\n"
                    "G[1]=0.01*sin(2*pi*(z1-2*z3))+0.02*cos(2*pi*(z2))\n"
                    "G[2]=0.03*sin(2*pi*(z1-2*z3))-0.01*cos(2*pi*(3*z1+z2))\n"
                    "G[3]=0.02*cos(2*pi*(z2))+0.01*sin(2*pi*(z3))\n")
    for spec in (spec_2d, spec_2d_S, spec_cat, s3):
        ta = dynamics.term_arrays(spec)
        Z = rng.uniform(-1, 2, size=(200, spec.d))
        g, dg = _g_and_dg(Z, *ta)
        g_ref, dg_ref = _per_term(spec, Z)
        assert np.abs(g - g_ref).max() <= 1e-17
        assert np.abs(dg - dg_ref).max() <= 1e-15
        assert np.array_equal(dynamics.jacobian(spec, Z),
                              dynamics.M_array(spec)[None] + dg)


def _count_transcendentals(monkeypatch):
    """Patch np.tan to record each operand's size in seen and whether it is
    C-contiguous in contiguous, and np.sin and np.cos to fail the test."""
    seen, contiguous = [], []
    real = np.tan

    def traced(x, *a, **kw):
        seen.append(x.size)
        contiguous.append(x.flags.c_contiguous)
        return real(x, *a, **kw)

    def refused(x, *a, **kw):
        pytest.fail("the kernels take sin and cos from the tangent, not from libm")

    monkeypatch.setattr(np, "tan", traced)
    monkeypatch.setattr(np, "sin", refused)
    monkeypatch.setattr(np, "cos", refused)
    return seen, contiguous


def _gamma(n):
    """gamma_n = n u / (1 - n u), u = 2^-53 (Higham 2002, ch. 3)."""
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def test_trig_rounding_does_not_grow_with_the_frequency():
    # G of eval_trig and DG of eval_jac against mpmath, at phases k.z up to 1e3:
    # z on a 2^-30 grid and integer k make k.z exact in float64, so every
    # error is the kernel's own.  Reduced mod 1, each sin / cos argument
    # lies in [-pi, pi], and the error stays under gamma_{U+16} times the
    # sum of the |coefficients| at every frequency scale; the unreduced
    # sin(2 pi k.z) rounds its argument by up to |2 pi k.z| u and exceeds
    # that bound from |k.z| ~ 50 on
    rng = np.random.default_rng(37)
    U, nsin, n, d = 6, 3, 200, 2
    bound = _gamma(U + 16)
    coefs = rng.standard_normal((U, d)) * 0.05
    Z = rng.integers(0, 2 ** 30, size=(n, d)) / 2.0 ** 30
    for K in (1, 30, 500):
        freqs = rng.integers(-K, K + 1, size=(U, d)).astype(float)
        freqs[0] = K                            # |k.z| reaches 2K
        jac = (TWO_PI * coefs[:, :, None] * freqs[:, None, :]).reshape(U, d * d)
        s = Z @ freqs.T
        assert np.abs(s).max() > K
        phase = TWO_PI * s
        unreduced = (np.concatenate([np.sin(phase[:, :nsin]), np.cos(phase[:, nsin:])], 1),
                     np.concatenate([np.cos(phase[:, :nsin]), -np.sin(phase[:, nsin:])], 1))
        g, dg = _g_and_dg(Z, freqs, coefs, nsin, jac)
        with mp.workdps(DPS):
            ref = np.empty((2, n, U), dtype=object)
            for i, j in np.ndindex(n, U):
                x = 2 * mp.pi * mp.mpf(s[i, j])
                ref[:, i, j] = (mp.sin(x), mp.cos(x)) if j < nsin else (mp.cos(x), -mp.sin(x))

            def error(values, weights, ref):
                # max over points and columns of |values - ref @ weights|
                # over the column's sum of |weights|
                exact = ref.dot(np.vectorize(mp.mpf, otypes=[object])(weights))
                err = np.vectorize(lambda v, e: float(abs(mp.mpf(v) - e)))(values, exact)
                return (err / np.abs(weights).sum(axis=0)).max()

            assert error(g, coefs, ref[0]) <= bound
            assert error(dg.reshape(n, d * d), jac, ref[1]) <= bound
            if K > 1:
                assert error(unreduced[0] @ coefs, coefs, ref[0]) > bound
                assert error(unreduced[1] @ jac, jac, ref[1]) > bound


def test_tangent_route_at_its_edges():
    # phases at the quarter turns k/4, k = -2..2, and 1 and 2 ulps either
    # side; at r = s - rint(s) = +-1/2 exactly, where t is about +-1.6e16;
    # and the same offsets past +-2^40.  Every sin and cos of G and of DG
    # is finite, at most 1 in size and within 4 u of mpmath, with no
    # floating-point warning
    base = [k / 4 for k in range(-2, 3)] + [1.5, -2.5]
    base += [x + c for x in base for c in (2.0 ** 40, -2.0 ** 40)]
    s = []
    for x in base:
        for way in (np.inf, -np.inf):
            y = x
            for _ in range(3):
                s.append(y)
                y = np.nextafter(y, way)
    s = np.unique(s)
    r = s - np.rint(s)
    assert {-0.5, 0.5} <= set(r.tolist()) and np.abs(s).max() > 2.0 ** 40
    freqs = np.ones((2, 1))                     # row 0 sin, row 1 cos
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = _kernels._phases(s[:, None], freqs)
        vals = _kernels._trig_values(t, 1)
        dvals = _kernels._trig_values(t, 1, deriv=True)
    assert np.abs(t).max() > 1e16
    with mp.workdps(DPS):
        ref = [(mp.sin(2 * mp.pi * mp.mpf(v)), mp.cos(2 * mp.pi * mp.mpf(v))) for v in s]
        for got in (vals, dvals[:, ::-1] * [-1.0, 1.0]):     # (sin, cos) of each phase
            assert np.isfinite(got).all() and np.abs(got).max() <= 1.0
            err = max(abs(mp.mpf(value) - exact)
                      for row, want in zip(got, ref) for value, exact in zip(row, want))
            assert err <= 4 * 2.0 ** -53


def test_eval_trig_one_transcendental_per_term(spec_2d, rng, monkeypatch):
    # each phase goes through one tangent, sin and cos terms alike: n*T
    # values in one call (spec_2d has one sin and one cos term)
    ta = dynamics.term_arrays(spec_2d)
    seen, contiguous = _count_transcendentals(monkeypatch)
    Z = rng.uniform(-1, 2, size=(40, 2))
    _kernels.eval_trig(Z, ta.freqs, ta.coefs, ta.nsin)
    assert seen == [40 * len(spec_2d.terms)] == [40 * len(ta.coefs)]
    # the phases are frequency-major: tan reads one contiguous block, never
    # strided column slices, for G and for DG alike
    _kernels.eval_jac(Z, ta.freqs, ta.nsin, ta.jac)
    assert seen == [40 * len(ta.coefs)] * 2 and all(contiguous)


def test_eval_trig_one_transcendental_per_unique_phase(spec_2d_S, rng, monkeypatch):
    # in block coordinates the cos(2 pi z2) term of G_2 feeds both
    # components: 3 terms, 2 unique (frequency, kind) rows, 2 phases a point
    ta = dynamics.term_arrays(spec_2d_S)
    assert len(spec_2d_S.terms) == 3 and len(ta.coefs) == 2 and ta.nsin == 1
    seen, contiguous = _count_transcendentals(monkeypatch)
    Z = rng.uniform(-1, 2, size=(40, 2))
    g = _kernels.eval_trig(Z, ta.freqs, ta.coefs, ta.nsin)
    assert seen == [80] and all(contiguous)
    monkeypatch.undo()
    assert np.abs(g - _per_term(spec_2d_S, Z)[0]).max() <= 1e-17


def _point_major(Z, freqs, coefs, nsin, jac):
    """G and DG with the tangents laid out point-major, (n, U), each phase
    reduced mod 1 before the pi, and the half-angle formulas taken on
    column slices: the bits the frequency-major kernels keep."""
    n, d = Z.shape
    s = Z @ freqs.T
    t = np.tan(np.pi * (s - np.rint(s)))
    q = 1.0 + t * t
    vals, dvals = np.empty_like(t), np.empty_like(t)
    for out, sin, cos, two in ((vals, slice(nsin), slice(nsin, None), 2.0),
                               (dvals, slice(nsin, None), slice(nsin), -2.0)):
        out[:, sin] = two * (t[:, sin] / q[:, sin])
        out[:, cos] = (1.0 - t[:, cos] * t[:, cos]) / q[:, cos]
    if d == 1:      # a matrix-vector product rounds by its matrix's memory order,
        vals, dvals = np.asfortranarray(vals), np.asfortranarray(dvals)     # (U, n) rows
    return vals @ coefs, (dvals @ jac).reshape(n, d, d)


def test_frequency_major_is_point_major_bitwise():
    # every shape of G: 1 to 3 dimensions, 0 to 11 unique phases, each
    # sin / cos split, batches of 1, 7 and 4097 points
    rng = np.random.default_rng(16)
    for d in (1, 2, 3):
        for U in range(12):
            freqs = rng.integers(-3, 4, size=(U, d)).astype(float)
            coefs = rng.standard_normal((U, d)) * 0.05
            jac = (TWO_PI * coefs[:, :, None] * freqs[:, None, :]).reshape(U, d * d)
            for n in (1, 7, 4097):
                Z = rng.uniform(-1, 2, size=(n, d))
                for nsin in range(U + 1):
                    g_ref, dg_ref = _point_major(Z, freqs, coefs, nsin, jac)
                    assert np.array_equal(_kernels.eval_trig(Z, freqs, coefs, nsin), g_ref)
                    assert np.array_equal(_kernels.eval_jac(Z, freqs, nsin, jac), dg_ref)


def test_invert_lift_residual_uses_exact_M(rng):
    # inv(inv(M)) is not M in float64 for this M; the Newton residual is
    # ||M w + G(w) - z|| with the spec's own M
    s = parse_spec("dim=2\nM=[[-2,-4],[-2,2]]\n"
                   "G[1]=0.01*sin(2*pi*(z1))\nG[2]=0.01*cos(2*pi*(z1+z2))\n")
    ta = dynamics.term_arrays(s)
    Mf = dynamics.M_array(s)
    Minv = np.linalg.inv(Mf)
    assert not np.array_equal(np.linalg.inv(Minv), Mf)
    Z = rng.uniform(-1, 2, size=(20, 2))
    for max_iter in (0, 3):
        W, res, g, _ = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 0.0, max_iter)
        r = W @ Mf.T + g - Z
        assert np.array_equal(res, np.sqrt((r ** 2).sum(axis=1)))


def test_invert_lift_one_trig_per_step(spec_cat, rng, monkeypatch):
    # Newton's cost pin: G before the loop and once per iteration, and DG
    # from the same tangents only where another iteration reads it; tol 0
    # runs every iteration, so the last one skips its DG.  One tan a round
    ta = dynamics.term_arrays(spec_cat)
    Mf = dynamics.M_array(spec_cat)
    Minv = np.linalg.inv(Mf)
    calls = []                  # per _trig_values call: True for DG, False for G
    real = _kernels._trig_values
    monkeypatch.setattr(_kernels, "_trig_values",
                        lambda phase, nsin, deriv=False, *bufs:
                        calls.append(deriv) or real(phase, nsin, deriv, *bufs))
    monkeypatch.setattr(_kernels, "eval_trig", None)
    seen, _ = _count_transcendentals(monkeypatch)
    Z = rng.uniform(-1, 2, size=(10, 2))
    iters = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 0.0, 5)[3]
    assert iters == 5
    assert calls.count(False) == 1 + 5 and calls.count(True) == 1 + 4
    assert seen == [10 * len(ta.coefs)] * (1 + 5)
    # a solve that converges early skips the DG of its last round too
    calls.clear()
    seen.clear()
    res, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 1e-13, 200)[1::2]
    assert res.max() <= 1e-13 and 1 < iters < 200
    assert calls.count(False) == 1 + iters and calls.count(True) == iters
    assert len(seen) == 1 + iters


def test_invert_lift_rejected_newton_takes_contraction_step(spec_cat, rng, monkeypatch):
    # a Newton step that raises the residual is refused, and the next trial
    # is the contraction step M^-1 (z - G(w)) from the kept iterate
    ta = dynamics.term_arrays(spec_cat)
    Mf = dynamics.M_array(spec_cat)
    Minv = np.linalg.inv(Mf)
    monkeypatch.setattr(_kernels, "_solve_small", lambda J, r: r + 0.25)
    Z = rng.uniform(-1, 2, size=(10, 2))
    W0 = Z @ Minv.T
    W1, _, _, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 0.0, 1)
    assert iters == 1 and np.array_equal(W1, W0)
    want = (Z - dynamics.eval_G(spec_cat, np.mod(W0, 1.0))) @ Minv.T
    W2 = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 0.0, 2)[0]
    assert np.array_equal(W2, want)
    # always refused, Newton still converges: every other step contracts
    _, res, _, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, 1e-13, 200)
    assert res.max() <= 1e-13 and iters < 200


def test_wrap_is_mod_one():
    # wrap is np.mod(x, 1.0) bit for bit, signed zeros included, except that
    # a value that rounds up to 1.0 is +0.0: every output lies in [0, 1)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-40, 40, 5000), rng.standard_normal(500) * 1e-17,
                        [-0.0, 0.0, -1.0, 3.0, -5e-324, 1e300, -1e300, -(2.0 ** 52) - 0.5]])
    expected = np.mod(x, 1.0)
    assert (expected == 1.0).sum() > 200
    expected[expected == 1.0] = 0.0
    got = _kernels.wrap(x)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.all((0.0 <= got) & (got < 1.0))
    assert _kernels.wrap(np.array([-1e-17])).tolist() == [0.0]


def _solve_small_ref(J, r):
    """_solve_small with the d = 2 columns stacked into a new array."""
    if r.shape[1] == 2:
        a, b, c, e = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        det = a * e - b * c
        return np.stack([(e * r[:, 0] - b * r[:, 1]) / det,
                         (a * r[:, 1] - c * r[:, 0]) / det], axis=1)
    return np.linalg.solve(J, r[:, :, None])[:, :, 0]


def _invert_lift_ref(Z, Mf, Minv, terms, tol, max_iter, solve=_solve_small_ref):
    """The safeguarded Newton loop that builds the contraction candidate and
    copies every array under a mask in every round: the reference whose
    iterates, residuals, G values and iteration count the kernel keeps."""
    W = Z @ Minv.T
    g, dg = _g_and_dg(_kernels.wrap(W), *terms)
    r = W @ Mf.T + g - Z
    res = np.sqrt((r ** 2).sum(axis=1))
    newton = np.ones(Z.shape[0], dtype=bool)
    iters = 0
    while res.max() > tol and iters < max_iter:
        trial = np.where(newton[:, None], W - solve(Mf + dg, r),
                         (Z - g) @ Minv.T)
        g_t, dg_t = _g_and_dg(_kernels.wrap(trial), *terms)
        r_t = trial @ Mf.T + g_t - Z
        res_t = np.sqrt((r_t ** 2).sum(axis=1))
        iters += 1
        newton = ~newton | (res_t < res)
        acc = newton[:, None]
        for old, new in ((W, trial), (g, g_t), (r, r_t)):
            np.copyto(old, new, where=acc)
        np.copyto(dg, dg_t, where=acc[:, :, None])
        np.copyto(res, res_t, where=newton)
    return W, res, g, iters


def _assert_same_solve(spec, Z, tol, max_iter, solve=_solve_small_ref):
    ta = dynamics.term_arrays(spec)
    Mf = dynamics.M_array(spec)
    Minv = np.linalg.inv(Mf)
    W, res, g, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, ta, tol, max_iter)
    W_r, res_r, g_r, iters_r = _invert_lift_ref(Z, Mf, Minv, ta, tol, max_iter, solve)
    assert iters == iters_r
    assert np.array_equal(W, W_r) and np.array_equal(res, res_r) and np.array_equal(g, g_r)
    return res, iters


@pytest.mark.parametrize("text", [FIX_1D, FIX_CAT, FIX_HYP3])
def test_invert_lift_is_reference_bitwise(text):
    # every round count from 0 to 6, a converging tol, and a tol under the
    # float floor that runs to max_iter: the same iterates, bit for bit
    spec = parse_spec(text)
    rng = np.random.default_rng(19)
    Z = rng.uniform(-1, 2, size=(300, spec.d))
    for max_iter in range(7):
        assert _assert_same_solve(spec, Z, 0.0, max_iter)[1] == max_iter
    res, iters = _assert_same_solve(spec, Z, 1e-13, 200)
    assert res.max() <= 1e-13 and iters < 200
    res, iters = _assert_same_solve(spec, Z, 1e-300, 25)
    assert res.max() > 1e-300 and iters == 25


@pytest.mark.parametrize("text", [FIX_CAT, FIX_HYP3])
def test_invert_lift_mixed_rounds_are_reference_bitwise(text, monkeypatch):
    # a Newton step spoiled on every third point is refused there, so the
    # rounds mix Newton and contraction trials and accept only some
    spec = parse_spec(text)

    def spoiled(J, r):
        x = _solve_small_ref(J, r)
        x[::3] += 0.25
        return x

    monkeypatch.setattr(_kernels, "_solve_small", spoiled)
    Z = np.random.default_rng(23).uniform(-1, 2, size=(90, spec.d))
    for max_iter in range(7):
        _assert_same_solve(spec, Z, 0.0, max_iter, spoiled)
    res, iters = _assert_same_solve(spec, Z, 1e-13, 200, spoiled)
    assert res.max() <= 1e-13 and iters < 200


def test_row_norms_is_sum_reduction():
    # the left-to-right sum of squared columns is numpy's axis-1 reduction,
    # bit for bit, at every scale and with zero rows
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        r = rng.standard_normal((100_000, d)) * 10.0 ** rng.integers(-150, 150, size=(100_000, 1))
        r[:100] = 0.0
        r[100:200, 0] = -0.0
        assert np.array_equal(_kernels._row_norms(r), np.sqrt((r ** 2).sum(axis=1)))


def test_solve_small_is_stacked_solve():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        J = rng.standard_normal((500, d, d))
        r = rng.standard_normal((500, d))
        assert np.array_equal(_kernels._solve_small(J, r), _solve_small_ref(J, r))
