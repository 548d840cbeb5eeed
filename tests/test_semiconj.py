import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from torusconj import parse_spec, block_triangularize, build_engine
from torusconj import _kernels, dynamics, intlat, semiconj
from torusconj.errors import ContractionError, EngineError
from torusconj.specdsl import TrigTerm, make_spec

from conftest import FIX_2D, FIX_CAT, FIX_D3K1, FIX_DET2, FIX_HYP3


def test_power_norms_batched_is_per_matrix_norm():
    # one batched 2-norm call, bit for bit the per-power norms; continuing
    # the powers of a shorter call gives the same bits
    rng = np.random.default_rng(3)
    for m in range(120):
        k = 1 + m % 3
        B = rng.uniform(-1.5, 1.5, size=(k, k))
        pows, norms = semiconj._power_norms(B, 6)
        assert np.array_equal(norms, [np.linalg.norm(p, 2) for p in pows])
        for head in (semiconj._power_norms(B, 2), semiconj._power_norms(B, 9)):
            more = semiconj._power_norms(B, 6, head)
            assert np.array_equal(more[0], pows) and np.array_equal(more[1], norms)
    assert np.array_equal(semiconj._power_norms(np.zeros((0, 0)), 3)[1], np.zeros(4))


def _engines_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        elif isinstance(x, dynamics.LiftInverse):
            _engines_equal(x, y)
        elif isinstance(x, dynamics.TermArrays):
            for name, u, v in zip(x._fields, x, y):
                assert np.array_equal(u, v), f"{f.name}.{name}"
        else:
            assert x == y, f.name


def test_auto_N_engine_is_fixed_N_engine(spec_1d, spec_2d_S, block_2d, spec_cat):
    # the doubling search gives the same engine as asking for the N it
    # chose, bit for bit
    pinned = {  # (N, eps, rho, c_a) of the auto-N engines, as hex floats
        "1d": (32, "0x1.0000000000000p-35", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        "2d": (32, "0x1.12c49dd0cc1e9p-36", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        "cat": (32, "0x1.51cb259593d2cp-21", "0x1.8722191a02d61p-2", "0x1.3c6ef372fe951p-1"),
    }
    cases = {"1d": (spec_1d, block_triangularize(spec_1d.M_list(), [[1]])),
             "2d": (spec_2d_S, block_2d),
             "cat": (spec_cat, block_triangularize(spec_cat.M_list(), intlat.identity(2)))}
    for name, (spec, block) in cases.items():
        auto = build_engine(spec, block)
        _engines_equal(auto, build_engine(spec, block, N=auto.N))
        N, eps, rho, c_a = pinned[name]
        assert (auto.N, auto.eps, auto.rho, auto.c_a) == (
            N, float.fromhex(eps), float.fromhex(rho), float.fromhex(c_a))


def test_eps_pinned(engine_1d, engine_2d, engine_cat):
    # certified bounds of the fixtures, bit for bit
    assert engine_1d.eps == float.fromhex("0x1.0000000000000p-43")
    assert engine_2d.eps == float.fromhex("0x1.12c49dd0cc1e9p-44")
    assert engine_cat.eps == float.fromhex("0x1.683cdb6d1aba7p-21")


def test_tail_bound_oracle(engine_1d):
    # closed form: g_sup ||A^-N|| rho / (1 - rho) with A = 2, rho = 1/2
    assert np.isclose(engine_1d.eps, 0.125 * 2.0 ** -40, rtol=1e-12)
    assert engine_1d.rho == 0.5
    assert np.isclose(engine_1d.c_a, 1.0)   # sum 2^-n = 1


def test_linear_collapse():
    # G = 0 collapses the series to the projection exactly
    s = parse_spec("dim=2\nM=[[2,0],[0,3]]\n")
    bf = block_triangularize(s.M_list(), intlat.identity(2))
    eng = build_engine(s, bf, N=5)
    z = np.array([[0.3, 0.7], [1.25, -0.5]])
    assert np.abs(semiconj.phi_hat(eng, z).value - z).max() <= 1e-15
    rr = semiconj.semiconjugacy_residual(eng, 16)
    assert rr.max_residual <= 1e-12


def test_hyperbolic_needs_unimodular_M():
    # a 2-to-1 map has no branch-independent backward orbit, so the
    # residual could not sit under its ceiling: the engine is refused
    s = parse_spec(FIX_DET2)
    with pytest.raises(EngineError, match=r"\|det M\| = 1, got det M = 2"):
        build_engine(s, block_triangularize(s.M_list(), intlat.identity(2)), N=12)


UNIMODULAR = ([[2, 1], [1, 1]], [[1, 1], [1, 2]], [[3, 1], [2, 1]], [[3, 2], [1, 1]],
              [[2, -1], [-1, 1]])


def _spec_at_rate(M, rng, rate):
    """A map with M and 2 to 4 random trig terms, scaled so that
    ||M^-1|| Lip(G) = rate."""
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        k = (0, 0)
        while not any(k):
            k = tuple(int(x) for x in rng.integers(-3, 4, size=2))
        terms.append(TrigTerm(int(rng.integers(1, 3)), k, str(rng.choice(["sin", "cos"])),
                              float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1]))))
    # the contraction rate is linear in the coefficients
    scale = rate / dynamics.contraction_rate(make_spec(2, M, terms))
    return make_spec(2, M, [TrigTerm(t.component, t.frequency, t.kind, t.coefficient * scale)
                            for t in terms])


def test_unimodular_hyperbolic_residual_under_ceiling():
    # 30 seeded maps, six per unimodular family, at contraction rate 0.15
    # and the default N: every residual sits under its ceiling
    rng = np.random.default_rng(15)
    for m in range(30):
        s = _spec_at_rate(UNIMODULAR[m % 5], rng, 0.15)
        eng = build_engine(s, block_triangularize(s.M_list(), intlat.identity(2)))
        rr = semiconj.semiconjugacy_residual(eng, 16)
        assert eng.mode == "hyperbolic" and rr.backward_sweeps == 1
        assert rr.max_residual <= rr.ceiling, (s, rr)


def _two_call_sides(eng, theta):
    """Phi(F theta) and A Phi(theta) mod 1 from two separate phi calls."""
    lhs = semiconj.phi_torus(eng, dynamics.eval_torus(eng.spec, theta)).value
    rhs = np.mod(semiconj.phi_torus(eng, theta).value @ eng.A.T, 1.0)
    return lhs, rhs


def test_residual_is_two_call_definition(engine_2d):
    # without a backward orbit (expanding mode) the one-sweep residual
    # equals, bit for bit, Phi(F theta) vs A Phi(theta) computed with two
    # separate phi_torus calls
    eng = engine_2d
    rr = semiconj.semiconjugacy_residual(eng, 16)
    theta = semiconj._grid(eng.d, 16)
    res = dynamics.torus_distance(*_two_call_sides(eng, theta))
    i = int(np.argmax(res))
    assert rr.max_residual == res[i]
    assert np.array_equal(rr.argmax_point, theta[i])


def test_shared_backward_orbit_within_eps(engine_cat, monkeypatch):
    # |det M| = 1: Phi(F theta) reuses theta's backward orbit instead of
    # inverting the reduced F(theta); the two differ by rounding, far
    # inside eps, while A Phi(theta) is bit for bit the two-call value
    eng = engine_cat
    theta = semiconj._grid(eng.d, 16)
    sides = []
    real = dynamics.torus_distance
    monkeypatch.setattr(dynamics, "torus_distance",
                        lambda a, b: sides.append((a, b)) or real(a, b))
    rr = semiconj.semiconjugacy_residual(eng, 16)
    monkeypatch.undo()
    (lhs, rhs), = sides
    two_lhs, two_rhs = _two_call_sides(eng, theta)
    assert np.array_equal(rhs, two_rhs)
    assert dynamics.torus_distance(lhs, two_lhs).max() <= eng.eps
    assert rr.max_residual <= rr.ceiling
    assert rr.max_residual <= dynamics.torus_distance(two_lhs, two_rhs).max() + eng.eps


def test_residual_sweeps_once(engine_2d, monkeypatch):
    # one forward sweep of N + 1 steps, one G evaluation of the grid per step
    calls = []
    real = _kernels.eval_trig
    monkeypatch.setattr(_kernels, "eval_trig",
                        lambda *a: calls.append(a[0].shape[0]) or real(*a))
    semiconj.semiconjugacy_residual(engine_2d, 8)
    assert calls == [64] * (engine_2d.N + 1)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_memory_independent_of_N(spec_2d_S, block_2d, spec_cat):
    # the series is summed while the orbit is swept: no array has an
    # orbit-step axis, so peak memory does not grow with N
    cat = block_triangularize(spec_cat.M_list(), intlat.identity(2))
    theta = semiconj._grid(2, 64)
    for spec, bf in ((spec_2d_S, block_2d), (spec_cat, cat)):
        peaks = []
        for N in (10, 80):
            eng = build_engine(spec, bf, N=N)
            peaks.append((_peak_bytes(lambda: semiconj.semiconjugacy_residual(eng, 64)),
                          _peak_bytes(lambda: semiconj.phi_hat(eng, theta))))
        for short, long in zip(*peaks):
            assert long <= 1.25 * short


def test_residual_memory_independent_of_grid(spec_2d_S, block_2d, monkeypatch):
    # each chunk hands back its argmax point as a copy, so no chunk is kept
    # once it is merged: 4 times the chunks, the same peak memory (on one
    # thread, so that no pool's read-ahead moves the peak)
    eng = build_engine(spec_2d_S, block_2d, N=4)
    monkeypatch.setattr(semiconj, "CHUNK", 1024)
    monkeypatch.setattr(semiconj, "WORKERS", 1)
    short, long = (_peak_bytes(lambda: semiconj.semiconjugacy_residual(eng, res))
                   for res in (128, 256))
    assert long <= 1.25 * short


def test_csv_memory_independent_of_grid(engine_1d, tmp_path, monkeypatch):
    # each chunk formats only the coordinates it holds, so a 1-D export of 4
    # times the grid, whose every row has its own coordinate, peaks at the
    # same memory (on one thread, so that no pool's read-ahead moves the peak)
    monkeypatch.setattr(semiconj, "CHUNK", 1024)
    monkeypatch.setattr(semiconj, "WORKERS", 1)
    short, long = (_peak_bytes(lambda: semiconj.export_phi_grid(engine_1d, res, tmp_path / "phi.csv"))
                   for res in (1 << 14, 1 << 16))
    assert long <= 1.25 * short


def test_backward_sweeps_per_residual(engine_2d, engine_cat, monkeypatch):
    # one inverse-lift solve per backward step: none in expanding mode, one
    # sweep of N in hyperbolic mode
    calls = []
    real = _kernels.invert_lift_numpy
    monkeypatch.setattr(_kernels, "invert_lift_numpy",
                        lambda *a: calls.append(1) or real(*a))
    for eng, sweeps in ((engine_2d, 0), (engine_cat, 1)):
        calls.clear()
        rr = semiconj.semiconjugacy_residual(eng, 8)
        assert len(calls) == sweeps * eng.N
        assert rr.backward_sweeps == sweeps
        assert rr.point_steps == 64 * (eng.N + 1 + sweeps * eng.N)
        assert (rr.inverse_lift_iters > 0) == (sweeps > 0)


def test_contraction_rate_once_per_engine(spec_cat, spec_2d_S, block_2d, monkeypatch):
    # rho < 1 is checked once, when a hyperbolic engine builds its inverse
    # lift; residuals and phi_hat read the engine's lift
    calls = []
    real = dynamics.contraction_rate
    monkeypatch.setattr(dynamics, "contraction_rate",
                        lambda s: calls.append(1) or real(s))
    cat = build_engine(spec_cat, block_triangularize(spec_cat.M_list(),
                                                     intlat.identity(2)), N=12)
    s = parse_spec("dim=2\nM=[[1,1],[1,2]]\n"
                   "G[1]=0.005*sin(2*pi*(z1))\nG[2]=0.005*cos(2*pi*(z2))\n")
    other = build_engine(s, block_triangularize(s.M_list(), intlat.identity(2)), N=12)
    assert len(calls) == 2
    expanding = build_engine(spec_2d_S, block_2d, N=40)
    assert len(calls) == 2 and expanding.lift is None
    theta = semiconj._grid(2, 8)
    for eng in (cat, other):
        assert eng.lift.rho < 1.0
        semiconj.semiconjugacy_residual(eng, 8)
        semiconj.phi_hat(eng, theta)
    assert len(calls) == 2


def test_uncertified_inverse_lift_rejected():
    # the cat fixture with coefficients 0.2: ||M^-1|| * Lip(G) ~ 4.6
    s = parse_spec(FIX_CAT.replace("0.02", "0.2"))
    assert dynamics.contraction_rate(s) > 4
    with pytest.raises(ContractionError, match="not certified"):
        build_engine(s, block_triangularize(s.M_list(), intlat.identity(2)), N=12)


def test_expanding_is_empty_stable_split(engine_2d, engine_cat):
    # an expanding engine has no stable terms, so no backward sweep and no
    # inverse lift; the cat engine has N signed stable terms, none zero, and
    # coef_s[0] = -P_s L_s is minus the projection onto its stable line
    k, N = engine_2d.k, engine_2d.N
    assert engine_2d.mode == "expanding"
    assert engine_2d.coef_u.shape == (N, k, k)
    assert engine_2d.coef_s.shape == (0, k, k)
    assert engine_2d.lift is None and engine_2d.inv_tol == 0.0
    assert engine_cat.mode == "hyperbolic"
    assert engine_cat.coef_s.shape == (engine_cat.N, engine_cat.k, engine_cat.k)
    assert all(c.any() for c in engine_cat.coef_s) and engine_cat.inv_tol > 0
    proj = -engine_cat.coef_s[0]
    assert np.allclose(proj @ proj, proj) and np.isclose(np.trace(proj), 1.0)


def _point_major_series(engine, Z, image=False):
    """(sums, F(Z)) of _phi_series as the sweep summed them in point-major
    layout: each orbit step and its G a new (n, d) array, each series term
    a new (n, k) product.  The reference the coordinate-major sweep keeps,
    bit for bit."""
    ta = dynamics.term_arrays(engine.spec)
    Mf = dynamics.M_array(engine.spec)

    def add(acc, g, coef, n):
        if 0 <= n < len(coef):
            acc += g[:, :engine.k] @ coef[n].T

    sums = [np.zeros((len(Z), engine.k)) for _ in range(1 + image)]
    z, g_z, fz = _kernels.wrap(Z), None, None
    for n in range(engine.N + image):
        if n:
            z = z @ Mf.T
            z += g
            z -= np.floor(z)
            fz = z if n == 1 else fz
        g = _kernels.eval_trig(z, ta.freqs, ta.coefs, ta.nsin)
        g_z = g if n == 0 else g_z
        for lag, acc in enumerate(sums):
            add(acc, g, engine.coef_u, n - lag)
    if image:
        add(sums[1], g_z, engine.coef_s, 0)
    for n, (_, g, _) in enumerate(semiconj._orbit(engine, Z, len(engine.coef_s), backward=True)):
        for lag, acc in enumerate(sums):
            add(acc, g, engine.coef_s, n + lag)
    return sums, fz


# an expanding 2-D map with U = 5 unique phases
FIX_FIVE = ("dim=2\nM=[[2,1],[0,1]]\n"
            "G[1]=0.01*sin(2*pi*(z1+2*z2))+0.008*cos(2*pi*(3*z1-z2))+0.006*sin(2*pi*(z2))\n"
            "G[2]=0.01*cos(2*pi*(2*z1+z2))+0.005*sin(2*pi*(z1-3*z2))\n")


def _fixture_engine(name):
    if name == "d3k1":
        s = parse_spec(FIX_D3K1)
        bf = block_triangularize(s.M_list(), [intlat.derive_invariant_line(s.M_list(), 2)])
        return build_engine(dynamics.change_coordinates(s, bf.S_list()), bf, N=20)
    if name == "hyp3":          # hyperbolic, k = d: a backward sweep of stable terms
        s = parse_spec(FIX_HYP3)
        return build_engine(s, block_triangularize(s.M_list(), intlat.identity(3)), N=6)
    s = parse_spec(FIX_2D if name == "2d" else FIX_FIVE)
    bf = block_triangularize(s.M_list(), [intlat.derive_invariant_line(s.M_list(), 2)])
    return build_engine(dynamics.change_coordinates(s, bf.S_list()), bf, N=40)


@pytest.mark.parametrize("name", ["2d", "d3k1", "hyp3", "five"])
def test_coordinate_major_sweep_is_point_major_bitwise(name):
    # the sweep keeps its orbit, G and sums in (d, n) and (k, n) rows and
    # reuses its buffers; Phi_hat, Phi_hat(F Z) and F(Z) are the bits of
    # the point-major sweep, at 1, 7 and 4097 points
    eng = _fixture_engine(name)
    assert len(eng.coef_s) > 0 if name == "hyp3" else len(eng.coef_s) == 0
    rng = np.random.default_rng(41)
    for n in (1, 7, 4097):
        Z = rng.uniform(-2.0, 3.0, size=(n, eng.d))
        for image in (False, True):
            sums, fz, _ = semiconj._phi_series(eng, Z, image)
            ref, fz_ref = _point_major_series(eng, Z, image)
            assert len(sums) == len(ref) == 1 + image
            assert all(np.array_equal(a, b) for a, b in zip(sums, ref))
            assert np.array_equal(fz, fz_ref)


def test_sweep_memory_does_not_grow_with_N(spec_2d_S, block_2d):
    # one 4096-point _phi_series allocates its step buffers once: the
    # traced peak is the same at N = 8 and N = 64, to within 64 kB
    Z = np.random.default_rng(43).uniform(0.0, 1.0, size=(4096, 2))
    peaks = []
    for N in (8, 64):
        eng = build_engine(spec_2d_S, block_2d, N=N)
        peaks.append(_peak_bytes(lambda: semiconj._phi_series(eng, Z, image=True)))
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


def test_expanding_phi_hat_is_batch_independent(engine_2d):
    # with no backward sweep a point's Phi_hat is the same, bit for bit,
    # alone, in a slice of the batch and in one batch of more than two
    # CHUNK points
    z = np.random.default_rng(23).uniform(-2.0, 3.0, size=(9000, 2))
    whole = semiconj.phi_hat(engine_2d, z).value
    alone = np.array([semiconj.phi_hat(engine_2d, p).value for p in z[::30]])
    assert len(alone) == 300 and np.array_equal(alone, whole[::30])
    lo = semiconj.CHUNK - 100
    assert np.array_equal(semiconj.phi_hat(engine_2d, z[lo:lo + 200]).value, whole[lo:lo + 200])


@pytest.mark.xfail(strict=True, reason="BLAS rounds an (n, U) @ (U, d) product row differently "
                   "with the batch size n, for most U >= 4; the phase and orbit products too")
def test_expanding_phi_hat_with_five_phases_is_batch_independent():
    # the 2-D fixture has U = 2 unique phases; with U = 5, 3 of these 300
    # points move in the last bit between a 9000-point batch and alone
    eng = _fixture_engine("five")
    assert len(dynamics.term_arrays(eng.spec).coefs) == 5
    z = np.random.default_rng(23).uniform(-2.0, 3.0, size=(9000, 2))
    whole = semiconj.phi_hat(eng, z).value
    alone = np.array([semiconj.phi_hat(eng, p).value for p in z[::30]])
    assert np.array_equal(alone, whole[::30])


def test_residual_under_ceiling(engine_2d):
    rr = semiconj.semiconjugacy_residual(engine_2d, 32)
    assert rr.max_residual <= rr.ceiling


def test_truncation_consistency(spec_1d, engine_1d):
    # doubling N moves Phi_hat by no more than the certified tail at N
    bf = block_triangularize(spec_1d.M_list(), [[1]])
    eng80 = build_engine(spec_1d, bf, N=80)
    z = np.linspace(-3, 3, 101)[:, None]
    dev = np.abs(semiconj.phi_hat(engine_1d, z).value
                 - semiconj.phi_hat(eng80, z).value).max()
    assert dev <= engine_1d.eps


def test_displacement_bound(engine_1d, rng):
    # |Phi_hat(z) - z| <= 1/(m-1) ||G||_0 = 0.125 for the 1-D fixture
    z = rng.uniform(-3, 3, size=(2000, 1))
    dev = np.abs(semiconj.phi_hat(engine_1d, z).value - z)
    assert dev.max() <= 0.125
    assert dev.max() > 0


def test_fiber_bound_report(engine_1d):
    # displacement <= C_A ||G||_0 + eps, and reverse Lipschitz: Phi_hat
    # changes a distance by at most 2 (C_A ||G||_0 + eps)
    c = engine_1d.c_a * engine_1d.norms.g_sup
    assert np.isclose(c, 0.125)   # c_a * g_sup = 1 * 0.125
    rng = np.random.default_rng(0)
    z1 = rng.uniform(-3, 3, size=(500, 1))
    z2 = rng.uniform(-3, 3, size=(500, 1))
    p1 = semiconj.phi_hat(engine_1d, z1).value
    p2 = semiconj.phi_hat(engine_1d, z2).value
    dev = np.abs(np.concatenate([p1 - z1, p2 - z2]))
    assert dev.max() <= c + engine_1d.eps + 1e-12
    pair = np.abs(np.abs(p1 - p2) - np.abs(z1 - z2))
    assert pair.max() <= 2 * c + 2 * engine_1d.eps + 1e-12


def test_grid():
    assert semiconj._grid(0, 5).shape == (1, 0)
    z = semiconj._grid(2, 4)
    assert z.shape == (16, 2) and z[1].tolist() == [0.0, 0.25]
    centres = semiconj._grid(2, 4, offset=0.5)
    assert np.array_equal(centres, z + 0.125)


def test_default_N_meets_target(spec_1d):
    bf = block_triangularize(spec_1d.M_list(), [[1]])
    eng = build_engine(spec_1d, bf)
    assert eng.eps < semiconj.DEFAULT_EPS_TARGET


def test_rejects_neither_classification():
    s = parse_spec("dim=2\nM=[[1,0],[0,2]]\nG[1]=0.01*sin(2*pi*(z1))\n")
    bf = block_triangularize(s.M_list(), [[1, 0]])
    with pytest.raises(EngineError):
        build_engine(s, bf, N=10)


def test_rejects_spec_not_in_block_coordinates(spec_2d, block_2d):
    # the raw 2-D fixture with the block of S = [[1,-1],[0,1]]: at N = 40 its
    # Phi_hat would miss the semi-conjugacy by 0.5 against a ceiling of 1.2e-13
    assert block_2d.S_list() == [[1, -1], [0, 1]]
    with pytest.raises(EngineError, match=r"M = \[\[2, 1\], \[0, 1\]\] is not the block form "
                                          r"\[\[2, 0\], \[0, 1\]\]"):
        build_engine(spec_2d, block_2d, N=40)


def test_rejects_N_above_bound(spec_2d_S, block_2d, monkeypatch):
    # a given N is bounded as a chosen one is, before anything is allocated
    monkeypatch.setattr(semiconj, "_power_norms", None)
    for N in (semiconj.MAX_DEFAULT_N + 1, 10 ** 14):
        with pytest.raises(EngineError, match=f"truncation N = {N} is above 512"):
            build_engine(spec_2d_S, block_2d, N=N)


def test_rejects_coupled_form():
    # [[2,3],[3,2]] cannot be decoupled over the integers (k = 1)
    s = parse_spec("dim=2\nM=[[2,3],[3,2]]\nG[1]=0.01*sin(2*pi*(z1))\n")
    line = intlat.derive_invariant_line(s.M_list(), 5)
    bf = block_triangularize(s.M_list(), [line])
    sS = dynamics.change_coordinates(s, bf.S_list())
    with pytest.raises(EngineError, match="decoupled"):
        build_engine(sS, bf, N=10)


def test_hyperbolic_residual(engine_cat):
    rr = semiconj.semiconjugacy_residual(engine_cat, 32)
    assert rr.max_residual <= rr.ceiling


def test_hyperbolic_collapse_linear():
    s = parse_spec("dim=2\nM=[[2,1],[1,1]]\n")
    bf = block_triangularize(s.M_list(), intlat.identity(2))
    eng = build_engine(s, bf, N=8)
    z = np.array([[0.3, 0.7], [0.1, 0.9]])
    assert np.abs(semiconj.phi_hat(eng, z).value - z).max() <= 1e-12


def test_export_phi_grid(engine_1d, tmp_path):
    path = tmp_path / "phi.csv"
    semiconj.export_phi_grid(engine_1d, 8, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "theta_1,phi_1,error_bound"
    assert len(rows) == 9
    # byte for byte what csv.writer writes for the same rows
    theta = semiconj._grid(engine_1d.d, 8)
    pv = semiconj.phi_torus(engine_1d, theta)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["theta_1", "phi_1", "error_bound"])
    for row, val in zip(theta, pv.value):
        w.writerow([f"{x:.17g}" for x in row]
                   + [f"{x:.17g}" for x in val] + [f"{pv.error_bound:.6g}"])
    assert path.read_bytes() == ref.getvalue().encode()


def test_chunked_residual_is_one_chunk(engine_1d, engine_2d, engine_cat, monkeypatch):
    # 256 grid points in chunks of 100, 100 and 56: the chunks' maxima merge
    # into the single-chunk maximum and its argmax; the forward sweep is
    # the same arithmetic per point, so expanding mode agrees bit for bit,
    # while each chunk's Newton solve stops on its own, so hyperbolic mode
    # agrees within rounding
    for eng, res in ((engine_1d, 256), (engine_2d, 16), (engine_cat, 16)):
        monkeypatch.setattr(semiconj, "CHUNK", 1 << 20)
        one = semiconj.semiconjugacy_residual(eng, res)
        monkeypatch.setattr(semiconj, "CHUNK", 100)
        chunked = semiconj.semiconjugacy_residual(eng, res)
        assert (one.point_steps, one.backward_sweeps) == (chunked.point_steps,
                                                          chunked.backward_sweeps)
        if eng.mode == "expanding":
            assert chunked.max_residual == one.max_residual
            assert np.array_equal(chunked.argmax_point, one.argmax_point)
        else:
            assert abs(chunked.max_residual - one.max_residual) <= 1e-15
            assert chunked.inverse_lift_iters > one.inverse_lift_iters > 0
        theta = semiconj._grid(eng.d, res)
        assert np.array_equal(semiconj.phi_hat(eng, theta).value,
                              np.concatenate([semiconj.phi_hat(eng, theta[lo:lo + 100]).value
                                              for lo in range(0, len(theta), 100)]))


def test_phi_hat_checks_the_shape_before_sweeping(engine_2d, monkeypatch):
    # a wrong last axis is _batch's ValueError, raised before any orbit step
    monkeypatch.setattr(semiconj, "_orbit", None)
    with pytest.raises(ValueError, match=r"points of shape \(4, 3\) do not have dimension 2"):
        semiconj.phi_hat(engine_2d, np.zeros((4, 3)))


def test_grid_rows_are_slices_of_the_grid():
    # rows start..stop-1 of the row-major grid; the chunks tile it in order
    for d, res, offset in ((1, 17, 0.0), (2, 5, 0.5), (3, 4, 0.0)):
        full = semiconj._grid(d, res, offset)
        assert full.shape == (res ** d, d)
        assert np.array_equal(semiconj._grid(d, res, offset, start=3, stop=11), full[3:11])
    assert 200 ** 2 % semiconj.CHUNK != 0
    assert np.array_equal(np.concatenate(list(semiconj._grid_chunks(2, 200))),
                          semiconj._grid(2, 200))


def test_chunked_csv_is_savetxt(engine_2d, tmp_path, monkeypatch):
    # rows formatted one block at a time are the bytes np.savetxt writes for
    # all of them at once, signed zeros and non-finite values included
    vals = np.array([[-0.0, 0.0, 1e-300], [np.inf, -np.nan, 0.1],
                     [-1.5, 2.0 ** 60, 5e-324], [1 / 3, -7.0, 123456789.123]])
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, vals, fmt=["%.17g", "%.17g", "%.6g"], delimiter=",",
               newline="\r\n", header="a,b,c", comments="")
    semiconj._write_file(tmp_path / "rows.csv", ["a,b,c\r\n"] + [
        semiconj._format_rows("%.17g,%.17g,%.6g\r\n", vals[lo:lo + 3]) for lo in (0, 3)])
    assert (tmp_path / "rows.csv").read_bytes() == ref.read_bytes()
    assert b"\r\n-0,0,1e-300\r\n" in ref.read_bytes()
    # the whole export, in chunks of 10 rows, against one np.savetxt call
    monkeypatch.setattr(semiconj, "CHUNK", 10)
    semiconj.export_phi_grid(engine_2d, 8, tmp_path / "phi.csv")
    theta = semiconj._grid(2, 8)
    rows = np.column_stack([theta, semiconj.phi_torus(engine_2d, theta).value,
                            np.full(len(theta), engine_2d.eps)])
    np.savetxt(ref, rows, fmt=["%.17g"] * 3 + ["%.6g"], delimiter=",", newline="\r\n",
               header="theta_1,theta_2,phi_1,error_bound", comments="")
    assert (tmp_path / "phi.csv").read_bytes() == ref.read_bytes()


def _savetxt_export(engine, res, path):
    """The phi export as one np.savetxt call writes it."""
    theta = semiconj._grid(engine.d, res)
    rows = np.column_stack([theta, semiconj.phi_torus(engine, theta).value,
                            np.full(len(theta), engine.eps)])
    header = ",".join([f"theta_{i+1}" for i in range(engine.d)]
                      + [f"phi_{i+1}" for i in range(engine.k)] + ["error_bound"])
    np.savetxt(path, rows, fmt=["%.17g"] * (engine.d + engine.k) + ["%.6g"],
               delimiter=",", newline="\r\n", header=header, comments="")


def test_csv_on_non_dyadic_grids(engine_1d, tmp_path, monkeypatch):
    # coordinates i/res that print with 17 digits (0.10000000000000001),
    # chunks of 7 rows that end mid-row of the grid: the coordinate strings
    # formatted once are the ones np.savetxt formats row by row
    s3 = parse_spec("dim=3\nM=[[2,1,0],[0,1,0],[0,0,1]]\n"
                    "G[1]=0.01*sin(2*pi*(z1-2*z3))+0.02*cos(2*pi*(z2))\n"
                    "G[2]=0.02*cos(2*pi*(z2+z3))\nG[3]=0.01*sin(2*pi*(z1))\n")
    bf = block_triangularize(s3.M_list(), [intlat.derive_invariant_line(s3.M_list(), 2)])
    engine_3d = build_engine(dynamics.change_coordinates(s3, bf.S_list()), bf, N=20)
    monkeypatch.setattr(semiconj, "CHUNK", 7)
    for engine, res in ((engine_1d, 10), (engine_3d, 5)):
        assert res ** engine.d % 7 and res % 7
        semiconj.export_phi_grid(engine, res, tmp_path / "phi.csv")
        _savetxt_export(engine, res, tmp_path / "ref.csv")
        out = (tmp_path / "phi.csv").read_bytes()
        assert out == (tmp_path / "ref.csv").read_bytes()
        assert b"0.10000000000000001" in out or b"0.20000000000000001" in out
