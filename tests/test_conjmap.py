import csv
import io

import numpy as np
import pytest

from torusconj import parse_spec, block_triangularize, build_engine
from torusconj import cli, conjmap, dynamics, intlat, semiconj
from torusconj.errors import EngineError, FiberSolveError

from conftest import FIX_D3K1, FULL_BLOCK_MAPS


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


def test_H_inverse_linear(engine_linear):
    z = conjmap.H_inverse(engine_linear, 0.3, np.array([0.7]), tol=1e-12)
    assert dynamics.torus_distance(z, [0.3, 0.7]) <= 1e-12


def test_H_inverse_residual(engine_2d, rng):
    for _ in range(50):
        x0 = float(rng.uniform(0, 1))
        y0 = rng.uniform(0, 1, size=1)
        z = conjmap.H_inverse(engine_2d, x0, y0, tol=1e-10)
        assert z[1] == y0[0]
        assert dynamics.torus_distance(semiconj.phi_torus(engine_2d, z).value, [x0]) <= 1e-10


def test_fiber_uniqueness_probe(engine_2d, block_2d, rng):
    # away from the root, Phi_hat - x0 stays bounded away from zero by the
    # cone growth bound tau * dt - 2 eps, with tau = 1/sqrt(1 + alpha^2) the
    # least core projection of a unit vector in the alpha = 0.5 cone
    tau = 1 / np.sqrt(1 + 0.5 ** 2)
    x0, y0 = 0.4, np.array([0.25])
    t = conjmap._bisect_batch(engine_2d, np.array([x0]), y0[None], 1e-12)[0]
    for dt in rng.uniform(0.01, 0.99, size=50):
        v = semiconj.phi_hat(engine_2d, np.array([t + dt, y0[0]])).value[0]
        assert abs(v - x0) >= tau * 0.01 - 2 * engine_2d.eps


def test_fiber_solve_evaluates_each_t_once(engine_2d, monkeypatch):
    # the bracket is one phi_hat call at exactly (x0 -+ half, y) for each
    # target, and no (t, y) point is evaluated twice over the bracket and
    # the finish rounds
    calls = []
    real = semiconj.phi_hat
    monkeypatch.setattr(semiconj, "phi_hat",
                        lambda eng, z: calls.append(z.copy()) or real(eng, z))
    x0 = np.array([0.1, 0.4, 0.8, 0.3])
    Y = np.array([[0.2], [0.5], [0.9], [0.2]])     # two targets on one line
    conjmap.H_inverse(engine_2d, x0, Y)
    seen = [p.tobytes() for z in calls for p in z]
    assert len(set(seen)) == len(seen)
    half = conjmap._bracket_halfwidth(engine_2d)
    assert calls[0].tobytes() == np.column_stack(
        [np.concatenate([x0 - half, x0 + half]), np.vstack([Y, Y])]).tobytes()
    # the skew grid's 1024 targets: one bracket call of 2048 points, the
    # finish rounds, and the residual's own phi_torus
    calls.clear()
    stats = conjmap.FiberStats()
    conjmap.skew_product_residual(engine_2d, 32, tol=1e-10, stats=stats)
    assert len(calls[0]) == 2 * 1024
    assert len(calls) == stats.fiber_iters + 2
    assert sum(map(len, calls)) == stats.phi_points + 1024


def test_fiber_bracket_must_straddle(engine_2d, monkeypatch):
    # a bracket that misses the root fails the straddle check first
    monkeypatch.setattr(conjmap, "_bracket_halfwidth", lambda eng: -0.25)
    with pytest.raises(FiberSolveError, match="do not straddle"):
        conjmap.H_inverse(engine_2d, 0.4, np.array([0.25]))


def test_far_targets_on_one_line_solve_as_apart(engine_2d):
    # two targets far apart on one fiber line get the t of separate solves,
    # bit for bit, at the same cost: each target's bracket and finish
    # rounds are its own
    tol = 1e-10
    x0, Y = np.array([0.1, 7.3]), np.array([[0.25], [0.25]])
    both = conjmap.FiberStats()
    z = conjmap.H_inverse(engine_2d, x0, Y, tol=tol, stats=both)
    apart = conjmap.FiberStats()
    zs = [conjmap.H_inverse(engine_2d, x, Y[0], tol=tol, stats=apart) for x in x0]
    assert np.array_equal(z, zs)
    assert both == apart


def test_fix2_fiber_lines_rise_where_A2_holds(engine_2d, spec_2d_S, block_2d):
    # the claim the k = 1 solve relies on: where the gate certifies A2, each
    # fiber line is strictly increasing.  On the 2-D fixture, Phi_hat at
    # 4096 samples per period on 16 fiber lines rises at every step, the
    # wrap step to the first sample a period on included
    assert cli._a2_gate(spec_2d_S, block_2d.k, 32) == (0.5, 32)
    P, ys = 4096, (np.arange(16) + 0.5) / 16
    ts = np.arange(P) / P
    v = semiconj.phi_hat(engine_2d, np.column_stack([np.tile(ts, 16), np.repeat(ys, P)]))
    s = v.value[:, 0].reshape(16, P)
    assert np.all(np.diff(np.column_stack([s, s[:, :1] + 1]), axis=1) > 0)


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
    z = conjmap.H_inverse(engine_2d, x0, y0, tol=1e-10)
    assert z.shape == (2,)
    assert np.array_equal(conjmap.H_inverse(engine_2d, np.array([x0]), y0, tol=1e-10), z)
    for xb in (np.array([x0]), np.array([[x0]])):
        zb = conjmap.H_inverse(engine_2d, xb, y0[None], tol=1e-10)
        assert zb.shape == (1, 2) and np.array_equal(zb[0], z)


@pytest.fixture(scope="module")
def engine_d3k1():
    s = parse_spec(FIX_D3K1)
    bf = block_triangularize(s.M_list(), [intlat.derive_invariant_line(s.M_list(), 2)])
    return build_engine(dynamics.change_coordinates(s, bf.S_list()), bf, N=20)


def test_fiber_solve_checks_the_shape_before_solving(engine_d3k1, monkeypatch):
    # y0 (4, 1) on a k = 1, d = 3 engine: _batch's ValueError before any
    # Phi_hat orbit step, not a solve of mis-paired fibers first
    eng = engine_d3k1
    assert (eng.k, eng.d) == (1, 3)
    assert conjmap.H_inverse(eng, [0.2, 0.7], np.full((2, 2), 0.3)).shape == (2, 3)
    monkeypatch.setattr(semiconj, "_orbit", None)
    with pytest.raises(ValueError, match=r"points of shape \(4, 1\) do not have dimension 2"):
        conjmap.H_inverse(eng, np.zeros(2), np.zeros((4, 1)))


def test_full_block_H_inverse_takes_a_zero_width_y(engine_1d):
    # k = d: each y holds no coordinate, and the batch counts its rows from
    # y0's leading axes
    x0 = np.array([0.1, 0.35, 0.8])
    z = conjmap.H_inverse(engine_1d, x0, np.zeros((3, 0)), tol=1e-12)
    assert z.shape == (3, 1)
    assert dynamics.torus_distance(semiconj.phi_torus(engine_1d, z).value,
                                   x0[:, None]).max() <= 1e-11


def test_skew_product_linear(engine_linear, tmp_path):
    rep = conjmap.skew_product_residual(engine_linear, 16, tol=1e-13, path=tmp_path / "skew.csv")
    assert rep.max_base_residual <= 1e-12
    # the fiber map reproduces the linear action on y
    rows = np.loadtxt(tmp_path / "skew.csv", delimiter=",", skiprows=1)
    y = semiconj._grid(2, 16)[:, 1]
    assert np.abs(rows[:, 2] - np.mod(y, 1.0)).max() <= 1e-12


def test_skew_product_fixture(engine_2d):
    rep = conjmap.skew_product_residual(engine_2d, 32, tol=1e-10)
    assert rep.max_base_residual <= rep.ceiling


@pytest.fixture(scope="module")
def engine_k2():
    # k = 2 < d = 3 expanding block: no certified fiber solve is known
    s = parse_spec("dim=3\nM=[[3,0,0],[0,3,0],[0,0,1]]\n"
                   "G[1]=0.02*sin(2*pi*(z1+z3))\nG[2]=0.02*cos(2*pi*(z2))\n")
    bf = block_triangularize(s.M_list(), [[1, 0, 0], [0, 1, 0]])
    return build_engine(s, bf, N=20)


def test_k_between_1_and_d_is_refused(engine_k2, monkeypatch):
    # 1 < k < d: H and H^-1 share one precondition, which raises EngineError
    # before any Phi_hat evaluation
    monkeypatch.setattr(semiconj, "_orbit", None)
    with pytest.raises(EngineError, match="no certified fiber solve for 1 < k < d"):
        conjmap.H_forward(engine_k2, np.array([0.3, 0.6, 0.25]))
    with pytest.raises(EngineError, match="no certified fiber solve for 1 < k < d"):
        conjmap.H_inverse(engine_k2, np.array([0.3, 0.6]), np.array([0.25]))
    with pytest.raises(EngineError, match="no certified fiber solve for 1 < k < d"):
        conjmap.skew_product_residual(engine_k2, 4)


def full_block_engine(text):
    s = parse_spec(text)
    return build_engine(s, block_triangularize(s.M_list(), intlat.identity(s.d)))


@pytest.fixture(scope="module")
def engine_kd():
    return full_block_engine(FULL_BLOCK_MAPS["conf"])


@pytest.mark.parametrize("name", sorted(FULL_BLOCK_MAPS))
def test_full_block_H_inverse_meets_tol(name):
    # k = d: each of 2000 random targets is solved within tol, in one batch
    # and in batches of 300 that split it
    eng = full_block_engine(FULL_BLOCK_MAPS[name])
    assert eng.k == eng.d == 2
    X, Y = np.random.default_rng(7).uniform(0, 1, size=(2000, 2)), np.zeros((2000, 0))
    for size in (2000, 300):
        z = np.concatenate([conjmap.H_inverse(eng, X[lo:lo + size], Y[lo:lo + size], tol=1e-10)
                            for lo in range(0, 2000, size)])
        assert z.shape == (2000, 2)
        assert dynamics.torus_distance(semiconj.phi_torus(eng, z).value, X).max() <= 1e-10


def test_full_block_route_counters(engine_kd, monkeypatch):
    # the k = d route takes N backward steps per point and evaluates
    # Phi_hat once per point, in one batch whatever CHUNK is
    monkeypatch.setattr(semiconj, "CHUNK", 7)
    X = np.random.default_rng(8).uniform(0, 1, size=(20, 2))
    stats = conjmap.FiberStats()
    conjmap.H_inverse(engine_kd, X, np.zeros((20, 0)), stats=stats)
    assert stats == conjmap.FiberStats(fiber_iters=engine_kd.N, phi_points=20)


def test_full_block_route_checks_its_residual(engine_kd, monkeypatch):
    # a root is only returned after a direct evaluation of Phi_hat meets tol
    real = semiconj.phi_hat
    monkeypatch.setattr(semiconj, "phi_hat", lambda eng, z: semiconj.PhiValue(
        real(eng, z).value + 1e-6, eng.eps))
    with pytest.raises(FiberSolveError, match=r"fiber solve residual 1.41e-06 > tol 1e-10"):
        conjmap.H_inverse(engine_kd, np.array([0.3, 0.6]), np.zeros(0))


def test_empty_batch_solves_to_empty(engine_2d, engine_d3k1, engine_kd):
    # an empty batch is an empty answer of the batch shape, on both routes
    # and with a 2-D y
    stats = conjmap.FiberStats()
    z = conjmap.H_inverse(engine_2d, np.zeros(0), np.zeros((0, 1)), stats=stats)
    assert z.shape == (0, 2) and stats == conjmap.FiberStats()
    for eng, x0, y0 in ((engine_d3k1, np.zeros(0), np.zeros((0, 2))),
                        (engine_kd, np.zeros((0, 2)), np.zeros((0, 0)))):
        assert conjmap.H_inverse(eng, x0, y0, stats=stats).shape == (0, eng.d)
    assert stats == conjmap.FiberStats()


def test_skew_grid_is_the_torus_grid(engine_2d, engine_d3k1, engine_kd, engine_1d, tmp_path):
    # k = 1 < d, k = 1 < d = 3, k = d = 2 and k = d = 1: the skew CSV's rows
    # are the torus grid, row for row, beside the F_y of H^-1 there (%.17g
    # reads back bit for bit), and that grid lays x out slowest, bit for bit
    # as repeat / tile would
    for eng, res in ((engine_2d, 8), (engine_d3k1, 4), (engine_kd, 4), (engine_1d, 8)):
        k, d = eng.k, eng.d
        conjmap.skew_product_residual(eng, res, tol=1e-10, path=tmp_path / "skew.csv")
        with open(tmp_path / "skew.csv", newline="") as fh:
            header = fh.readline()
        assert header == ",".join([f"x_{i+1}" for i in range(k)] + [f"y_{i+1}" for i in range(d - k)]
                                  + [f"Fy_{i+1}" for i in range(d - k)]) + "\r\n"
        rows = np.loadtxt(tmp_path / "skew.csv", delimiter=",", skiprows=1, ndmin=2)
        grid = semiconj._grid(d, res)
        z = conjmap.H_inverse(eng, grid[:, :k], grid[:, k:], tol=1e-10)
        assert rows.shape == (res ** d, 2 * d - k)
        assert rows[:, :d].tobytes() == grid.tobytes()
        assert rows[:, d:].tobytes() == dynamics.eval_torus(eng.spec, z)[:, k:].tobytes()
        if k < d:       # for k = d the grid is the x grid itself
            Xg, Yg = semiconj._grid(k, res), semiconj._grid(d - k, res)
            laid_out = np.hstack([np.repeat(Xg, len(Yg), axis=0), np.tile(Yg, (len(Xg), 1))])
            assert grid.tobytes() == laid_out.tobytes()


def _skew_reference(eng, res):
    """The skew CSV as csv.writer writes it, row by row, from the torus grid
    and the F_y of one H^-1 batch of the whole grid."""
    k, m = eng.k, eng.d - eng.k
    grid = semiconj._grid(eng.d, res)
    fy = dynamics.eval_torus(eng.spec, conjmap.H_inverse(eng, grid[:, :k], grid[:, k:]))[:, k:]
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow([f"x_{i+1}" for i in range(k)] + [f"y_{i+1}" for i in range(m)]
               + [f"Fy_{i+1}" for i in range(m)])
    for g, f in zip(grid, fy):
        w.writerow([f"{v:.17g}" for v in g] + [f"{v:.17g}" for v in f])
    return ref.getvalue().encode()


def test_exports(engine_2d, tmp_path):
    conjmap.skew_product_residual(engine_2d, 8, tol=1e-10, path=tmp_path / "skew.csv")
    # byte for byte what csv.writer writes for the same rows
    assert (tmp_path / "skew.csv").read_bytes() == _skew_reference(engine_2d, 8)


def test_skew_csv_is_written_chunk_by_chunk(engine_2d, engine_d3k1, engine_kd, engine_1d,
                                            tmp_path, monkeypatch):
    # chunks of 7 rows split the fiber lines (8 or 4 points each, 5 with a
    # non-dyadic 1/5): the file is still csv.writer's bytes, and it reaches
    # the writer as the header and one string per chunk, never one string
    # for the whole grid
    refs = [(eng, res, _skew_reference(eng, res))
            for eng, res in ((engine_2d, 8), (engine_2d, 5), (engine_d3k1, 4), (engine_kd, 4),
                             (engine_1d, 8))]
    real, blocks = semiconj._write_file, []
    monkeypatch.setattr(semiconj, "_write_file",
                        lambda path, b: real(path, (blocks.append(x) or x for x in b)))
    monkeypatch.setattr(semiconj, "CHUNK", 7)
    for eng, res, ref in refs:
        blocks.clear()
        conjmap.skew_product_residual(eng, res, tol=1e-10, path=tmp_path / "skew.csv")
        n = res ** eng.d
        assert (tmp_path / "skew.csv").read_bytes() == ref
        assert [x.count("\n") for x in blocks] == [1] + [7] * (n // 7) + [n % 7] * (n % 7 > 0)


def _skew_run(eng, res, path):
    """(max_base_residual, CSV bytes, FiberStats) of one skew sweep."""
    stats = conjmap.FiberStats()
    rep = conjmap.skew_product_residual(eng, res, tol=1e-10, stats=stats, path=path)
    return rep.max_base_residual, path.read_bytes(), stats


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunking_does_not_change_the_skew_sweep(chunk, engine_2d, engine_d3k1, engine_kd,
                                                 engine_1d, tmp_path, monkeypatch):
    # chunks of 1, 2 or 7 points: the CSV bytes, the fiber counters and the
    # residual are those of the default CHUNK, and no fiber solve is handed
    # more than one chunk.  On engine_kd the residual only stays under its
    # ceiling: its roots move with their chunk (see the xfail below)
    cases = ((engine_2d, 8), (engine_2d, 5), (engine_d3k1, 4), (engine_kd, 4), (engine_1d, 8))
    expected = [_skew_run(eng, res, tmp_path / "skew.csv") for eng, res in cases]
    sizes = []
    for name in ("_bisect_batch", "_orbit_batch"):
        real = getattr(conjmap, name)
        monkeypatch.setattr(conjmap, name,
                            lambda eng, X, *a, real=real: sizes.append(len(X)) or real(eng, X, *a))
    monkeypatch.setattr(semiconj, "CHUNK", chunk)
    for (eng, res), (peak, text, stats) in zip(cases, expected):
        got = _skew_run(eng, res, tmp_path / "skew.csv")
        assert got[1:] == (text, stats)
        if eng is engine_kd:
            assert got[0] <= conjmap.skew_ceiling(eng, 1e-10)
        else:
            assert got[0] == peak
    assert max(sizes) == chunk and sum(sizes) == sum(res ** eng.d for eng, res in cases)


@pytest.mark.xfail(strict=True, reason="the inverse lift iterates every point of its batch "
                   "until the slowest converges, so a k = d root depends on its chunk")
def test_full_block_root_is_the_same_in_any_chunk(engine_kd):
    # the grid split by hand into batches of 7, 7 and 2 points, as the skew
    # sweep's chunks would split it
    grid, Y = semiconj._grid(2, 4), np.zeros((16, 0))
    z = conjmap.H_inverse(engine_kd, grid, Y)
    parts = [conjmap.H_inverse(engine_kd, grid[lo:hi], Y[lo:hi])
             for lo, hi in ((0, 7), (7, 14), (14, 16))]
    assert np.array_equal(np.concatenate(parts), z)


def test_public_names_resolve():
    # every exported name exists, so no export outlives the code it named
    import torusconj
    for name in torusconj.__all__:
        assert hasattr(torusconj, name), name
