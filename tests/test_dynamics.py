import numpy as np
import pytest

from torusconj import parse_spec
from torusconj import dynamics, intlat
from torusconj.specdsl import TrigTerm, make_spec
from torusconj.errors import ContractionError, LatticeError

from conftest import FIX_BIG8


def test_eval_G_oracle(spec_1d):
    # closed form: G(z) = 0.125 sin(2 pi z)
    z = np.array([0.25])
    assert np.isclose(dynamics.eval_G(spec_1d, z)[0], 0.125)
    assert np.isclose(dynamics.eval_lift(spec_1d, z)[0], 0.625)


def test_eval_G_oracle_2d(spec_2d):
    z = np.array([0.1, 0.2])
    want = np.array([0.03 * np.sin(2 * np.pi * 0.3),
                     0.03 * np.cos(2 * np.pi * 0.2)])
    assert np.allclose(dynamics.eval_G(spec_2d, z), want, atol=1e-15)



def test_point_and_batch_shapes_are_one_batch(spec_2d, rng):
    # a point (d,), a batch (n, d) and a grid (a, b, d) give the values of
    # the (n, d) batch in the input's shape; a wrong last axis is refused
    Z = rng.uniform(-2, 2, size=(6, 2))
    for f, tail in ((dynamics.eval_G, (2,)), (dynamics.eval_lift, (2,)),
                    (dynamics.jacobian, (2, 2))):
        flat = f(spec_2d, Z)
        assert flat.shape == (6,) + tail
        for shape in ((1, 2), (6, 2), (2, 3, 2)):
            z = Z[:int(np.prod(shape[:-1]))].reshape(shape)
            want = flat[:len(z.reshape(-1, 2))].reshape(shape[:-1] + tail)
            assert np.array_equal(f(spec_2d, z), want), (f, shape)
        assert np.array_equal(f(spec_2d, Z[0]), flat[0]), f
        for bad in ((3,), (6, 3), (2, 3, 1)):
            with pytest.raises(ValueError):
                f(spec_2d, np.zeros(bad))

def test_jacobian_against_finite_differences(spec_2d, rng):
    # independent oracle: central finite differences of the lift
    h = 1e-6
    for _ in range(10):
        z = rng.uniform(-2, 2, size=2)
        J = dynamics.jacobian(spec_2d, z)
        J_fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            J_fd[:, j] = (dynamics.eval_lift(spec_2d, z + e)
                          - dynamics.eval_lift(spec_2d, z - e)) / (2 * h)
        assert np.allclose(J, J_fd, atol=1e-8)


def test_equivariance(spec_2d, rng):
    # lift commutes with deck transformations: F(z+m) = F(z) + M m
    M = dynamics.M_array(spec_2d)
    for _ in range(10):
        z = rng.uniform(-3, 3, size=2)
        m = rng.integers(-5, 6, size=2).astype(float)
        lhs = dynamics.eval_lift(spec_2d, z + m)
        rhs = dynamics.eval_lift(spec_2d, z) + M @ m
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_norm_bounds_dominate_samples(spec_2d, rng):
    nb = dynamics.norm_bounds(spec_2d)
    Z = rng.uniform(0, 1, size=(2000, 2))
    g = dynamics.eval_G(spec_2d, Z)
    assert np.linalg.norm(g, axis=1).max() <= nb.g_sup + 1e-12
    # Lipschitz bound on sampled pairs
    Z2 = Z + rng.uniform(-0.05, 0.05, size=Z.shape)
    g2 = dynamics.eval_G(spec_2d, Z2)
    num = np.linalg.norm(g - g2, axis=1)
    den = np.linalg.norm(Z - Z2, axis=1)
    assert (num <= nb.g_lip * den + 1e-12).all()


def test_norm_bounds_oracle_1d(spec_1d):
    nb = dynamics.norm_bounds(spec_1d)
    assert np.isclose(nb.g_sup, 0.125)
    assert np.isclose(nb.g_lip, 0.25 * np.pi)
    assert np.isclose(nb.dg_lip, 0.5 * np.pi ** 2)


def test_invert_lift_round_trip(spec_cat, rng):
    Z = rng.uniform(-2, 2, size=(100, 2))
    W = dynamics.lift_inverse(spec_cat)(Z, 1e-13)[0]
    assert np.abs(dynamics.eval_lift(spec_cat, W) - Z).max() <= 1e-12


def _random_invertible_map(rng, d, rho):
    """A d-dimensional map with integer M (det != 0) and ||M^-1||*Lip(G) = rho."""
    while True:
        M = rng.integers(-3, 4, size=(d, d)).tolist()
        if intlat.det_int(M) != 0:
            break
    terms = []
    for _ in range(rng.integers(1, 5)):
        freq = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        if any(freq):
            terms.append(TrigTerm(component=int(rng.integers(1, d + 1)), frequency=freq,
                                  kind=str(rng.choice(["sin", "cos"])),
                                  coefficient=float(rng.uniform(-1, 1))))
    spec = make_spec(d, M, terms or [TrigTerm(1, (1,) * d, "sin", 1.0)])
    scale = rho / dynamics.contraction_rate(spec)
    return make_spec(d, M, [TrigTerm(t.component, t.frequency, t.kind,
                                     t.coefficient * scale) for t in spec.terms])


def test_newton_inverse_lift_on_random_maps():
    # 200 seeded 2-D and 3-D maps with contraction rates up to 0.9: Newton
    # meets tol within the iteration cap (lift_inverse raises otherwise),
    # and agrees with the plain contraction iteration within the certified
    # error-from-residual factor L_inv = ||M^-1|| / (1 - rho)
    rng = np.random.default_rng(7)
    tol = 1e-12
    for m in range(200):
        d = 2 + m % 2
        spec = _random_invertible_map(rng, d, rng.uniform(0.05, 0.9))
        rho = dynamics.contraction_rate(spec)
        Minv = np.linalg.inv(dynamics.M_array(spec))
        Z = rng.uniform(-2, 2, size=(32, d))
        W, g, iters = dynamics.lift_inverse(spec)(Z, tol)
        assert iters <= 12
        Wc = Z @ Minv.T
        for _ in range(int(np.log(1e-16) / np.log(rho)) + 5):
            Wc = (Z - dynamics.eval_G(spec, Wc)) @ Minv.T
        res_c = np.linalg.norm(dynamics.eval_lift(spec, Wc) - Z, axis=1).max()
        L_inv = np.linalg.norm(Minv, 2) / (1.0 - rho)
        assert np.linalg.norm(W - Wc, axis=1).max() <= L_inv * (tol + res_c)


def test_lift_constants_read_the_exact_inverse():
    # entries near 3e6 and det M = 1: np.linalg.inv is off by up to ~700 in
    # the entries of M^-1 and understated rho as 0.0376900369 and L_inv as
    # 6233496.39; M^-1 = adj M is symmetric positive definite with trace
    # t = 6e6, so ||M^-1||_2 = (t + sqrt(t^2 - 4)) / 2 and Lip(G) = 2 pi 1e-9
    s = parse_spec("dim=2\nM=[[3000001,3000000],[3000000,2999999]]\n"
                   "G[1]=1e-9*sin(2*pi*(z1))\n")
    t = 6e6
    rho = (t + np.sqrt(t * t - 4)) / 2 * 2 * np.pi * 1e-9
    lift = dynamics.lift_inverse(s)
    assert lift.rho == pytest.approx(rho, rel=1e-12)
    assert lift.rho == pytest.approx(0.0376991118, abs=1e-10)
    assert lift.L_inv == pytest.approx(rho / (2 * np.pi * 1e-9) / (1 - rho), rel=1e-12)
    assert lift.L_inv == pytest.approx(6235056.08, abs=0.01)
    assert dynamics.contraction_rate(s) == lift.rho


def test_singular_M_is_refused_by_its_exact_det():
    # det M = 0 exactly, while the float det reads about -920: the exact
    # inverse would divide by zero, so M is refused as singular
    s = parse_spec("dim=2\nM=[[154272509,621178002],[7713625450,31058900100]]\n"
                   "G[1]=0.01*sin(2*pi*(z1))\n")
    assert abs(np.linalg.det(dynamics.M_array(s))) > 1
    with pytest.raises(ContractionError, match="M is singular"):
        dynamics.lift_inverse(s)


def test_float_singular_unimodular_M_is_not_called_singular():
    # big8: det M = 1 exactly, while the float det reads 0; its exact det
    # says M is invertible (rho = 0 with no G), and the lift is refused only
    # because float64 LU cannot invert it for the Newton steps
    s = parse_spec(FIX_BIG8)
    assert intlat.adjugate(s.M_list())[1] == 1 and np.linalg.det(dynamics.M_array(s)) == 0
    assert dynamics.contraction_rate(s) == 0.0
    with pytest.raises(ContractionError, match="no float64 inverse") as e:
        dynamics.lift_inverse(s)
    assert "singular" not in str(e.value)


def test_invert_lift_rejects_expansion_violation():
    s = parse_spec("dim=1\nM=[[2]]\nG[1]=0.9*sin(2*pi*(z1))\n")
    # rho = 0.5 * 0.9 * 2 pi > 1
    with pytest.raises(ContractionError):
        dynamics.lift_inverse(s)(np.array([[0.3]]), 1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_invert_lift_rejects_bad_tolerance(spec_cat, tol, monkeypatch):
    # a typed error that names the tolerance, raised before any evaluation
    monkeypatch.setattr(dynamics._kernels, "invert_lift_numpy", None)
    with pytest.raises(ContractionError, match="tolerance must be finite and > 0"):
        dynamics.lift_inverse(spec_cat)(np.full((3, 2), 0.3), tol)


def test_invert_lift_empty_batch(spec_cat):
    W, g, iters = dynamics.lift_inverse(spec_cat)(np.zeros((0, 2)), 1e-13)
    assert W.shape == g.shape == (0, 2) and iters == 0


def test_invert_lift_refuses_a_non_finite_point(spec_cat):
    # a NaN or infinite point is refused before the first evaluation (an
    # infinite one would warn there), with the message of a NaN residual
    lift = dynamics.lift_inverse(spec_cat)
    for bad in ([[np.nan, 0.0]], [[0.3, 0.4], [0.1, np.nan]], [[np.inf, 0.0]],
                [[0.3, 0.4], [-np.inf, 0.1]]):
        with pytest.raises(ContractionError, match="inverse lift residual nan > tol"):
            lift(np.array(bad), 1e-13)


def test_invert_lift_checks_the_shape_before_solving(spec_cat, monkeypatch):
    # a point (d,) is a batch of one; a wrong last axis is _batch's
    # ValueError, raised before any Newton round
    lift = dynamics.lift_inverse(spec_cat)
    W, g, _ = lift(np.array([0.3, 0.4]), 1e-13)
    assert W.shape == g.shape == (1, 2)
    assert np.array_equal(W, lift(np.array([[0.3, 0.4]]), 1e-13)[0])
    monkeypatch.setattr(dynamics._kernels, "invert_lift_numpy", None)
    for bad in ((3, 3), (3,)):
        with pytest.raises(ValueError, match=r"do not have dimension 2"):
            lift(np.zeros(bad), 1e-13)


def test_change_coordinates_conjugates(spec_2d, rng):
    S = [[1, -1], [0, 1]]
    s2 = dynamics.change_coordinates(spec_2d, S)
    Sf = np.array(S, dtype=float)
    Sinv = np.linalg.inv(Sf)
    for _ in range(10):
        z = rng.uniform(-1, 1, size=2)
        lhs = dynamics.eval_lift(s2, z)
        rhs = Sinv @ dynamics.eval_lift(spec_2d, Sf @ z)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_change_coordinates_rejects_non_unimodular(spec_2d):
    with pytest.raises(LatticeError):
        dynamics.change_coordinates(spec_2d, [[2, 0], [0, 1]])


def test_change_coordinates_rejects_integers_beyond_float64():
    # M = 2I is 2I in any basis, but the basis makes a frequency of 1e20,
    # or scales a coefficient by an entry of S^-1 near -1e20
    s = make_spec(2, [[2, 0], [0, 2]], [TrigTerm(1, (1, 0), "sin", 0.01)])
    big = 10 ** 20
    for S, made in (([[big, 1], [-1, 0]], big), ([[1, 0], [big, 1]], -big)):
        with pytest.raises(LatticeError, match=f"makes the integer {made}, beyond 2\\^53"):
            dynamics.change_coordinates(s, S)


def test_torus_distance():
    assert np.isclose(dynamics.torus_distance(np.array([0.95]), np.array([0.05])), 0.1)
    assert dynamics.torus_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
