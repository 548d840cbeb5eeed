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
    W, res = _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds, freqs,
                                        1e-13, 200)
    assert res.max() <= 1e-13


def test_invert_lift_one_trig_per_step(spec_cat, rng, monkeypatch):
    # one G evaluation before the loop and one per step; tol 0 runs all steps
    comps, coefs, kinds, freqs = _arrays(spec_cat)
    Minv = np.linalg.inv(dynamics.M_array(spec_cat))
    calls = []
    real = _kernels.eval_trig
    monkeypatch.setattr(_kernels, "eval_trig",
                        lambda *a: calls.append(1) or real(*a))
    Z = rng.uniform(-1, 2, size=(10, 2))
    _kernels.invert_lift_numpy(Z, Minv, comps, coefs, kinds, freqs, 0.0, 5)
    assert len(calls) == 1 + 5
