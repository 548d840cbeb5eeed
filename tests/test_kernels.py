import numpy as np

from torusconj import _kernels, dynamics, parse_spec, semiconj


def _arrays(spec):
    ta = dynamics.term_arrays(spec)
    return ta.comps, ta.coefs, ta.kinds, ta.freqs


def test_empty_term_list():
    Z = np.zeros((3, 2))
    empty = np.zeros(0, dtype=np.int64)
    out = _kernels.eval_trig(Z, empty, np.zeros(0), empty, np.zeros((0, 2)), 2)
    assert out.shape == (3, 2) and not out.any()


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
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Mf = dynamics.M_array(spec_cat)
    Minv = np.linalg.inv(Mf)
    Z = rng.uniform(-1, 2, size=(50, 2))
    W, res, g, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, comps, coefs,
                                                  kinds, freqs, 1e-13, 200)
    assert res.max() <= 1e-13 and 0 < iters <= 200
    # G comes back at the accepted iterate, reduced mod 1, bit for bit
    assert np.array_equal(g, dynamics.eval_G(spec_cat, np.mod(W, 1.0)))


def test_trig_and_jac_g_is_eval_trig(spec_2d, rng):
    # the G of the shared sin/cos evaluation is bitwise eval_trig's G
    comps, coefs, kinds, freqs = _arrays(spec_2d)
    Z = rng.uniform(-1, 2, size=(40, 2))
    g, _ = _kernels.eval_trig_and_jac(Z, comps, coefs, kinds, freqs, 2)
    assert np.array_equal(g, _kernels.eval_trig(Z, comps, coefs, kinds, freqs, 2))


def test_eval_trig_one_transcendental_per_term(spec_2d, rng, monkeypatch):
    # each phase goes through sin or cos, the one its term needs: n*T
    # values in all (spec_2d has one sin and one cos term)
    comps, coefs, kinds, freqs = _arrays(spec_2d)
    seen = []
    for name in ("sin", "cos"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, real=real: seen.append(x.size) or real(x))
    _kernels.eval_trig(rng.uniform(-1, 2, size=(40, 2)), comps, coefs, kinds, freqs, 2)
    assert sum(seen) == 40 * len(coefs) and len(seen) == 2


def test_invert_lift_residual_uses_exact_M(rng):
    # inv(inv(M)) is not M in float64 for this M; the Newton residual is
    # ||M w + G(w) - z|| with the spec's own M
    s = parse_spec("dim=2\nM=[[-2,-4],[-2,2]]\n"
                   "G[1]=0.01*sin(2*pi*(z1))\nG[2]=0.01*cos(2*pi*(z1+z2))\n")
    comps, coefs, kinds, freqs = _arrays(s)
    Mf = dynamics.M_array(s)
    Minv = np.linalg.inv(Mf)
    assert not np.array_equal(np.linalg.inv(Minv), Mf)
    Z = rng.uniform(-1, 2, size=(20, 2))
    for max_iter in (0, 3):
        W, res, g, _ = _kernels.invert_lift_numpy(Z, Mf, Minv, comps, coefs,
                                                  kinds, freqs, 0.0, max_iter)
        r = W @ Mf.T + g - Z
        assert np.array_equal(res, np.sqrt((r ** 2).sum(axis=1)))


def test_invert_lift_one_trig_per_step(spec_cat, rng, monkeypatch):
    # Newton's cost pin: one shared G/DG evaluation before the loop and one
    # per iteration, no separate G evaluation; tol 0 runs every iteration
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Mf = dynamics.M_array(spec_cat)
    Minv = np.linalg.inv(Mf)
    calls = []
    real = _kernels.eval_trig_and_jac
    monkeypatch.setattr(_kernels, "eval_trig_and_jac",
                        lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(_kernels, "eval_trig", None)
    Z = rng.uniform(-1, 2, size=(10, 2))
    iters = _kernels.invert_lift_numpy(Z, Mf, Minv, comps, coefs, kinds, freqs,
                                       0.0, 5)[3]
    assert iters == 5 and len(calls) == 1 + 5


def test_invert_lift_rejected_newton_takes_contraction_step(spec_cat, rng, monkeypatch):
    # a Newton step that raises the residual is refused, and the next trial
    # is the contraction step M^-1 (z - G(w)) from the kept iterate
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Mf = dynamics.M_array(spec_cat)
    Minv = np.linalg.inv(Mf)
    monkeypatch.setattr(_kernels, "_solve_small", lambda J, r: r + 0.25)
    Z = rng.uniform(-1, 2, size=(10, 2))
    W0 = Z @ Minv.T
    W1, _, _, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, comps, coefs,
                                                 kinds, freqs, 0.0, 1)
    assert iters == 1 and np.array_equal(W1, W0)
    want = (Z - dynamics.eval_G(spec_cat, np.mod(W0, 1.0))) @ Minv.T
    W2 = _kernels.invert_lift_numpy(Z, Mf, Minv, comps, coefs, kinds, freqs,
                                    0.0, 2)[0]
    assert np.array_equal(W2, want)
    # always refused, Newton still converges: every other step contracts
    _, res, _, iters = _kernels.invert_lift_numpy(Z, Mf, Minv, comps, coefs,
                                                  kinds, freqs, 1e-13, 200)
    assert res.max() <= 1e-13 and iters < 200
