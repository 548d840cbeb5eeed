import numpy as np

from torusconj import _kernels, dynamics


def _arrays(spec):
    ta = dynamics.term_arrays(spec)
    return ta.comps, ta.coefs, ta.kinds, ta.freqs


def test_empty_term_list():
    Z = np.zeros((3, 2))
    empty = np.zeros(0, dtype=np.int64)
    out = _kernels.eval_trig(Z, empty, np.zeros(0), empty, np.zeros((0, 2)), 2)
    assert out.shape == (3, 2) and not out.any()


def test_orbit_matches_manual_iteration(spec_2d, rng):
    comps, coefs, kinds, freqs = _arrays(spec_2d)
    Mf = dynamics.M_array(spec_2d)
    theta0 = rng.uniform(0, 1, size=(5, 2))
    gs = _kernels.orbit_g_values(theta0, Mf, comps, coefs, kinds, freqs, 10)
    theta = theta0.copy()
    for j in range(10):
        g = dynamics.eval_G(spec_2d, theta)
        assert np.abs(gs[j] - g).max() <= 1e-12
        theta = np.mod(theta @ Mf.T + g, 1.0)


def test_invert_lift_kernel(spec_cat, rng):
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Minv = np.linalg.inv(dynamics.M_array(spec_cat))
    Z = rng.uniform(-1, 2, size=(50, 2))
    W, res, g, iters = _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds,
                                                  freqs, 1e-13, 200)
    assert res.max() <= 1e-13 and 0 < iters <= 200
    # G comes back at the accepted iterate, reduced mod 1, bit for bit
    assert np.array_equal(g, dynamics.eval_G(spec_cat, np.mod(W, 1.0)))


def test_trig_and_jac_g_is_eval_trig(spec_2d, rng):
    # the G of the shared sin/cos evaluation is bitwise eval_trig's G
    comps, coefs, kinds, freqs = _arrays(spec_2d)
    Z = rng.uniform(-1, 2, size=(40, 2))
    g, _ = _kernels.eval_trig_and_jac(Z, comps, coefs, kinds, freqs, 2)
    assert np.array_equal(g, _kernels.eval_trig(Z, comps, coefs, kinds, freqs, 2))


def test_invert_lift_one_trig_per_step(spec_cat, rng, monkeypatch):
    # Newton's cost pin: one shared G/DG evaluation before the loop and one
    # per iteration, no separate G evaluation; tol 0 runs every iteration
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Minv = np.linalg.inv(dynamics.M_array(spec_cat))
    calls = []
    real = _kernels.eval_trig_and_jac
    monkeypatch.setattr(_kernels, "eval_trig_and_jac",
                        lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(_kernels, "eval_trig", None)
    Z = rng.uniform(-1, 2, size=(10, 2))
    iters = _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds, freqs, 0.0, 5)[3]
    assert iters == 5 and len(calls) == 1 + 5


def test_invert_lift_rejected_newton_takes_contraction_step(spec_cat, rng, monkeypatch):
    # a Newton step that raises the residual is refused, and the next trial
    # is the contraction step M^-1 (z - G(w)) from the kept iterate
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Minv = np.linalg.inv(dynamics.M_array(spec_cat))
    monkeypatch.setattr(_kernels, "_solve_small", lambda J, r: r + 0.25)
    Z = rng.uniform(-1, 2, size=(10, 2))
    W0 = Z @ Minv.T
    W1, _, _, iters = _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds,
                                                 freqs, 0.0, 1)
    assert iters == 1 and np.array_equal(W1, W0)
    want = (Z - dynamics.eval_G(spec_cat, np.mod(W0, 1.0))) @ Minv.T
    W2 = _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds, freqs, 0.0, 2)[0]
    assert np.array_equal(W2, want)
    # always refused, Newton still converges: every other step contracts
    _, res, _, iters = _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds,
                                                  freqs, 1e-13, 200)
    assert res.max() <= 1e-13 and iters < 200
