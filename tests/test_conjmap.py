import csv
import io

import numpy as np
import pytest

from torusconj import parse_spec, block_triangularize, build_engine
from torusconj import conjmap, dynamics, intlat, semiconj
from torusconj.errors import EngineError, FiberSolveError


@pytest.fixture(scope="module")
def engine_linear():
    s = parse_spec("dim=2\nM=[[2,0],[0,1]]\n")
    bf = block_triangularize(s.M_list(), [[1, 0]])
    return build_engine(s, bf, N=8)


def test_H_forward_linear_identity(engine_linear, rng):
    # G = 0: H is just a coordinate re-grouping
    z = rng.uniform(0, 1, size=(20, 2))
    x, y = conjmap.H_forward(engine_linear, z)
    assert np.abs(x[:, 0] - z[:, 0]).max() <= 1e-14
    assert np.array_equal(y, z[:, 1:])


def test_H_forward_requires_expanding(engine_cat):
    with pytest.raises(EngineError):
        conjmap.H_forward(engine_cat, np.array([0.1, 0.2]))


def test_solve_fiber_point_linear(engine_linear):
    t = conjmap.solve_fiber_point(engine_linear, 0.3, np.array([0.7]), tol=1e-12)
    assert abs(t - 0.3) <= 1e-12


def test_solve_fiber_point_residual(engine_2d, rng):
    for _ in range(50):
        x0 = float(rng.uniform(0, 1))
        y0 = rng.uniform(0, 1, size=1)
        t = conjmap.solve_fiber_point(engine_2d, x0, y0, tol=1e-10)
        res = abs(semiconj.phi_hat(engine_2d, np.array([t, y0[0]])).value[0] - x0)
        assert res <= 1e-10


def test_fiber_uniqueness_probe(engine_2d, block_2d, rng):
    # away from the root, Phi_hat - x0 stays bounded away from zero by the
    # cone growth bound tau * dt - 2 eps, with tau = 1/sqrt(1 + alpha^2) the
    # least core projection of a unit vector in the alpha = 0.5 cone
    tau = 1 / np.sqrt(1 + 0.5 ** 2)
    x0, y0 = 0.4, np.array([0.25])
    t = conjmap.solve_fiber_point(engine_2d, x0, y0, tol=1e-12)
    for dt in rng.uniform(0.01, 0.99, size=50):
        v = semiconj.phi_hat(engine_2d, np.array([t + dt, y0[0]])).value[0]
        assert abs(v - x0) >= tau * 0.01 - 2 * engine_2d.eps


def test_fiber_solve_evaluates_each_t_once(engine_2d, monkeypatch):
    # no (t, y) sample is evaluated twice, over the shared scan and the
    # finish rounds, and the straddle test reads the bracket ends themselves
    calls = []
    real = semiconj.phi_hat
    monkeypatch.setattr(semiconj, "phi_hat",
                        lambda eng, z: calls.append(z.copy()) or real(eng, z))
    x0 = np.array([0.1, 0.4, 0.8, 0.3])
    Y = np.array([[0.2], [0.5], [0.9], [0.2]])     # two targets on one line
    conjmap.solve_fiber_point(engine_2d, x0, Y)
    seen = [p.tobytes() for z in calls for p in z]
    assert len(set(seen)) == len(seen)
    half = conjmap._bracket_halfwidth(engine_2d)
    scan = {p.tobytes() for p in calls[0]}
    for end in (x0 - half, x0 + half):
        assert all(np.array([e, y]).tobytes() in scan for e, y in zip(end, Y[:, 0]))
    # the skew grid's 1024 targets lie on 32 fiber lines, scanned once per
    # line: 67 phi_hat calls when every target scanned its own line
    calls.clear()
    conjmap.skew_product_residual(engine_2d, 32, tol=1e-10)
    assert len(calls) == 16


def test_fiber_bracket_must_straddle(engine_2d, monkeypatch):
    # a bracket that misses the root fails the straddle check first
    monkeypatch.setattr(conjmap, "_bracket_halfwidth", lambda eng: -0.25)
    with pytest.raises(FiberSolveError, match="do not straddle"):
        conjmap.solve_fiber_point(engine_2d, 0.4, np.array([0.25]))


def test_non_monotone_line_is_refused(engine_2d, monkeypatch):
    # a wiggle of slope up to 5 makes t -> Phi_hat((t, y)) cross x0 three
    # times; the scan, 1/32 of the bracket apart, sees the extra crossings
    real = semiconj.phi_hat

    def wiggly(eng, z):
        pv = real(eng, z)
        return semiconj.PhiValue(pv.value + 0.2 * np.sin(2 * np.pi * z[:, :1] / 0.25),
                                 pv.error_bound)

    monkeypatch.setattr(semiconj, "phi_hat", wiggly)
    with pytest.raises(FiberSolveError, match="3 sign changes instead of 1"):
        conjmap.solve_fiber_point(engine_2d, 0.4, np.array([0.25]))


def test_far_targets_on_one_line_solve_as_apart(engine_2d):
    # two targets far apart on one fiber line get the t of separate solves,
    # and their scan samples are those of the two solves: no lattice point
    # of the gap between the brackets is evaluated
    tol = 1e-10
    x0, Y = np.array([0.1, 7.3]), np.array([[0.25], [0.25]])
    both = conjmap.FiberStats()
    t = conjmap.solve_fiber_point(engine_2d, x0, Y, tol=tol, stats=both)
    apart = conjmap.FiberStats()
    ts = [conjmap.solve_fiber_point(engine_2d, x, Y[0], tol=tol, stats=apart) for x in x0]
    assert np.abs(t - ts).max() <= tol
    assert both.scan_points == apart.scan_points


def test_H_inverse_round_trips(engine_2d, rng):
    tol = 1e-10
    z = rng.uniform(0, 1, size=(100, 2))
    x, y = conjmap.H_forward(engine_2d, z)
    tau_floor = 0.5   # observed monotone slope is ~0.69; 0.5 is safe
    for i in range(len(z)):
        zi = conjmap.H_inverse(engine_2d, x[i], y[i], tol=tol)
        d = dynamics.torus_distance(zi, z[i])
        assert d <= tol / tau_floor + 2 * engine_2d.eps / tau_floor
        # H(H_inverse(x,y)) = (x,y) within tol
        xi, yi = conjmap.H_forward(engine_2d, zi)
        assert dynamics.torus_distance(xi, x[i][None]) <= tol + 2 * engine_2d.eps
        assert np.abs(yi - y[i]).max() <= 1e-14
    # one batched call meets the same bounds at every point
    zb = conjmap.H_inverse(engine_2d, x, y, tol=tol)
    assert zb.shape == z.shape
    assert (dynamics.torus_distance(zb, z).max()
            <= tol / tau_floor + 2 * engine_2d.eps / tau_floor)
    xb, yb = conjmap.H_forward(engine_2d, zb)
    assert dynamics.torus_distance(xb, x).max() <= tol + 2 * engine_2d.eps
    assert np.array_equal(yb, y)


def test_single_point_is_batch_of_one(engine_2d):
    x0, y0 = 0.4, np.array([0.25])
    t = conjmap.solve_fiber_point(engine_2d, x0, y0, tol=1e-10)
    tb = conjmap.solve_fiber_point(engine_2d, np.array([x0]), y0[None], tol=1e-10)
    assert isinstance(t, float) and tb.shape == (1,) and tb[0] == t
    z = conjmap.H_inverse(engine_2d, np.array([x0]), y0, tol=1e-10)
    zb = conjmap.H_inverse(engine_2d, np.array([[x0]]), y0[None], tol=1e-10)
    assert z.shape == (2,) and zb.shape == (1, 2) and np.array_equal(zb[0], z)


def test_skew_product_linear(engine_linear):
    rep = conjmap.skew_product_residual(engine_linear, 16, tol=1e-13)
    assert rep.max_base_residual <= 1e-12
    # the fiber map reproduces the linear action on y
    y = rep.grid[:, 1]
    assert np.abs(rep.fiber_map_samples[:, 0] - np.mod(y, 1.0)).max() <= 1e-12


def test_skew_product_fixture(engine_2d):
    rep = conjmap.skew_product_residual(engine_2d, 32, tol=1e-10)
    assert rep.max_base_residual <= rep.ceiling


@pytest.fixture(scope="module")
def engine_k2():
    # k = 2 expanding block; the conformal core (A = 3I) keeps the series
    # well-conditioned in t
    s = parse_spec("dim=3\nM=[[3,0,0],[0,3,0],[0,0,1]]\n"
                   "G[1]=0.02*sin(2*pi*(z1+z3))\nG[2]=0.02*cos(2*pi*(z2))\n")
    bf = block_triangularize(s.M_list(), [[1, 0, 0], [0, 1, 0]])
    return build_engine(s, bf, N=20)


def test_damped_solver_k2(engine_k2):
    # k = 2: uncertified damped solve with residual check
    eng = engine_k2
    x0 = np.array([0.3, 0.6])
    y0 = np.array([0.25])
    t = conjmap.solve_fiber_point(eng, x0, y0, tol=1e-10)
    res = np.linalg.norm(
        semiconj.phi_hat(eng, np.concatenate([t, y0])).value - x0)
    assert res <= 1e-10
    X = np.array([[0.3, 0.6], [0.9, 0.1]])
    Y = np.array([[0.25], [0.75]])
    T = conjmap.solve_fiber_point(eng, X, Y, tol=1e-10)
    assert T.shape == (2, 2)
    res = np.linalg.norm(semiconj.phi_hat(eng, np.hstack([T, Y])).value - X, axis=1)
    assert res.max() <= 1e-10


def test_empty_batch_solves_to_empty(engine_2d, engine_k2):
    # an empty batch is an empty answer of the batch shape, on both paths
    stats = conjmap.FiberStats()
    t = conjmap.solve_fiber_point(engine_2d, np.zeros(0), np.zeros((0, 1)), stats=stats)
    assert t.shape == (0,) and stats == conjmap.FiberStats()
    T = conjmap.solve_fiber_point(engine_k2, np.zeros((0, 2)), np.zeros((0, 1)))
    assert T.shape == (0, 2)
    assert conjmap.H_inverse(engine_2d, np.zeros(0), np.zeros((0, 1))).shape == (0, 2)


def test_exports(engine_2d, tmp_path):
    rep = conjmap.skew_product_residual(engine_2d, 8, tol=1e-10)
    conjmap.export_skew_csv(rep, tmp_path / "skew.csv")
    # byte for byte what csv.writer writes for the same rows
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["x_1", "y_1", "Fy_1"])
    for g, fy in zip(rep.grid, rep.fiber_map_samples):
        w.writerow([f"{v:.17g}" for v in g] + [f"{v:.17g}" for v in fy])
    assert (tmp_path / "skew.csv").read_bytes() == ref.getvalue().encode()


def test_public_names_resolve():
    # every exported name exists, so no export outlives the code it named
    import torusconj
    for name in torusconj.__all__:
        assert hasattr(torusconj, name), name
