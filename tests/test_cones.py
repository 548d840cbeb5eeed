import math

import numpy as np
import pytest

from torusconj import parse_spec
from torusconj import cones, dynamics, semiconj
from torusconj.errors import FloatRangeError


def test_pointwise_oracle_diag21():
    # closed form on the 2-D cone: min ||a'|| over unit v with |b| <= |a|
    # is 2/sqrt(2) = sqrt(2); invariance margin strictly positive
    chk = cones.pointwise_cone_check(np.diag([2.0, 1.0]),
                                     cones.ConeParams(k=1, alpha=1.0, K=1.4))
    assert abs(chk.expansion_factor - math.sqrt(2)) <= 1e-9
    assert chk.invariance_margin > 0


def test_pointwise_identity_fails_expansion():
    chk = cones.pointwise_cone_check(np.eye(2),
                                     cones.ConeParams(k=1, alpha=1.0, K=1.5))
    assert chk.expansion_factor <= 1.0 + 1e-12
    assert chk.expansion_factor < 1.5


def test_pointwise_conformal_no_margin():
    # diag(3,3) preserves |b|/|a| exactly: margin collapses to 0
    chk = cones.pointwise_cone_check(np.diag([3.0, 3.0]),
                                     cones.ConeParams(k=1, alpha=1.0, K=1.0))
    assert abs(chk.invariance_margin) <= 1e-7


def test_pointwise_overflow_is_typed_error():
    # the single-matrix path has the range gate of verify_A2: a pencil that
    # would overflow is a FloatRangeError, not an OverflowError
    with pytest.raises(FloatRangeError, match="would leave float64"):
        cones.pointwise_cone_check([[1e160, 0], [0, 1]],
                                   cones.ConeParams(k=1, alpha=1.0, K=1.5))


def test_certified_below_sampling(rng):
    # certification is a lower bound; dense ray sampling is an upper bound
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        L = rng.normal(size=(d, d))
        k = 1 if d == 2 else int(rng.integers(1, d))
        alpha = float(rng.uniform(0.3, 3.0))
        cones.pointwise_cone_check(L, cones.ConeParams(k=k, alpha=alpha, K=1.0),
                                   cross_validate=True)


def test_verify_A2_constant_jacobian():
    s = parse_spec("dim=2\nM=[[2,0],[0,1]]\n")
    params = cones.ConeParams(k=1, alpha=1.0, K=1.4)
    cert = cones.verify_A2(s, params, 4)
    assert cert.a2_pass
    assert abs(cert.expansion_factor - math.sqrt(2)) <= 1e-9
    assert cert.padding == 0.0
    # grid resolution changes nothing for G = 0
    cert2 = cones.verify_A2(s, params, 8)
    assert np.isclose(cert.expansion_factor, cert2.expansion_factor)
    assert np.isclose(cert.invariance_margin, cert2.invariance_margin)


def test_verify_A2_identity_fails():
    s = parse_spec("dim=2\nM=[[1,0],[0,1]]\n")
    cert = cones.verify_A2(s, cones.ConeParams(k=1, alpha=1.0, K=1.2), 4)
    assert not cert.a2_pass


def test_verify_A2_1d():
    # |F'| = 2 + 0.25 pi cos(2 pi z); min = 2 - 0.25 pi ~ 1.2146
    s = parse_spec("dim=1\nM=[[2]]\nG[1]=0.125*sin(2*pi*(z1))\n")
    cert = cones.verify_A2(s, cones.ConeParams(k=1, alpha=1.0, K=1.2), 256)
    assert cert.a2_pass
    assert abs(cert.expansion_factor - (2 - 0.25 * math.pi)) <= 0.01


def test_verify_A4_domination():
    # verify_A2 also certifies domination: off-core stretch 1 < sqrt(2)
    s = parse_spec("dim=2\nM=[[2,0],[0,1]]\n")
    cert = cones.verify_A2(s, cones.ConeParams(k=1, alpha=1.0, K=1.4), 4)
    assert cert.a4_pass and cert.a2_pass
    # certified expansion sqrt(2) minus off-core stretch 1, not K - 1
    assert abs(cert.domination_margin - (math.sqrt(2) - 1.0)) <= 4 * np.finfo(float).eps
    # off-core expansion stronger than core: domination must fail
    s2 = parse_spec("dim=2\nM=[[2,0],[0,3]]\n")
    cert2 = cones.verify_A2(s2, cones.ConeParams(k=1, alpha=1.0, K=1.4), 4)
    assert not cert2.a4_pass and cert2.domination_margin < 0


def _ternary_reference(Q, J, lam_hi, iters=200):
    """The former solver: ternary search on the concave lambda_min(Q - lam J)."""
    lo, hi = np.zeros(len(Q)), np.full(len(Q), lam_hi)

    def g(lam):
        return np.linalg.eigvalsh(Q - lam[:, None, None] * J)[:, 0]

    for _ in range(iters):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        keep_lo = g(m1) < g(m2)
        lo, hi = np.where(keep_lo, m1, lo), np.where(keep_lo, hi, m2)
    return g((lo + hi) / 2.0)


def _pencil_cases(rng):
    """(L, k, alpha) for ~200 seeded pencils: d=2 k=1, d=3 k=1 and k=2, a
    kink (diag(3,3): both pencils are piecewise linear in lambda) and a
    cone holding the unconstrained minimiser of q_exp (maximiser lambda = 0)."""
    cases = [(rng.normal(size=(d, d)), k, float(rng.uniform(0.3, 3.0)))
             for d, k in ((2, 1), (3, 1), (3, 2)) for _ in range(66)]
    cases.append((np.diag([3.0, 3.0]), 1, 1.0))
    cases.append((np.array([[1.0, -1.0], [0.0, 1.0]]), 1, 2.0))
    return cases


def test_pencil_solver(rng):
    eps = np.finfo(float).eps
    sols = []
    for L, k, alpha in _pencil_cases(rng):
        d = len(L)
        Jm = np.diag([alpha ** 2] * k + [-1.0] * (d - k))
        Pm = np.diag([1.0] * k + [0.0] * (d - k))
        Q = np.stack([L.T @ Pm @ L, L.T @ Jm @ L])
        lam_hi = 1e6 * max(float(np.linalg.norm(L, 2)) ** 2, 1.0)
        sol = cones._pencil_max_lambda_min(Q, Jm, lam_hi)
        ref = _ternary_reference(Q, Jm, lam_hi)
        upper = cones.ray_sampling_estimates(L, k, alpha)
        assert np.all((0.0 <= sol.lam) & (sol.lam <= lam_hi))
        pencils = Q - sol.lam[:, None, None] * Jm
        # the value is lambda_min evaluated at the returned lambda, never a bound
        assert np.array_equal(sol.value, np.linalg.eigh(pencils)[0][:, 0])
        scale = np.abs(np.linalg.eigvalsh(pencils)).max(axis=1)
        assert np.all(sol.value >= ref - 8 * eps * scale), (L, k, alpha)
        assert np.all(sol.value <= np.array(upper) + 1e-9), (L, k, alpha)
        assert np.all(sol.gap >= 0) and sol.rounds >= 1
        sols.append(sol)
    kink, inside = sols[-2:]
    assert list(kink.value) == [4.5, 0.0]       # the end tangents meet at the kink
    assert inside.lam[0] == 0.0


ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def test_pencil_rounds_fixture(spec_2d_S):
    # all six default alphas at grid 32 take at most 100 eigh rounds in
    # total (the ternary search made 401 eigvalsh calls per pencil)
    certs = cones.verify_A2(spec_2d_S, [cones.ConeParams(1, a, 1.000000001) for a in ALPHAS], 32)
    rounds = [c.pencil_rounds for c in certs]
    assert all(r >= 2 for r in rounds) and sum(rounds) <= 100, rounds


def test_verify_A2_many_equals_single(spec_2d_S):
    params = [cones.ConeParams(1, a, 1.000000001) for a in ALPHAS]
    many = cones.verify_A2(spec_2d_S, params, 32)
    assert isinstance(many, list)
    assert many == [cones.verify_A2(spec_2d_S, p, 32) for p in params]
    with pytest.raises(ValueError):
        cones.verify_A2(spec_2d_S, [params[0], cones.ConeParams(2, 1.0, 1.2)], 32)
    with pytest.raises(ValueError):
        cones.verify_A2(spec_2d_S, [], 32)


def test_verify_A2_jacobian_once_per_chunk(spec_2d_S, monkeypatch):
    # one pass over the cells: each chunk's Jacobians are built once, for
    # all alphas together, and none is kept past its chunk
    monkeypatch.setattr(semiconj, "CHUNK", 100)
    calls = []
    real = dynamics.jacobian
    monkeypatch.setattr(dynamics, "jacobian", lambda *a: calls.append(len(a[1])) or real(*a))
    for alphas in (ALPHAS[:1], ALPHAS):
        calls.clear()
        cones.verify_A2(spec_2d_S, [cones.ConeParams(1, a, 1.000000001) for a in alphas], 32)
        assert sorted(calls) == [24] + 10 * [100]     # 1024 cells: 10 full chunks and 24


def test_verify_A2_range_gate_before_jacobians(spec_2d_S, monkeypatch):
    # ||M|| + Lip(G) bounds every Jacobian norm, so a map whose pencils
    # would leave float64, or an opening of 1e200 on the 2-D fixture, is
    # refused before any cell is built
    s = parse_spec("dim=2\nM=[[2,1],[0,1]]\nG[1]=1e150*sin(2*pi*(3*z1))\n")
    calls = []
    monkeypatch.setattr(dynamics, "jacobian", lambda *a: calls.append(1))
    for spec, alpha in ((s, 1.0), (spec_2d_S, 1e200)):
        with pytest.raises(FloatRangeError, match="would leave float64"):
            cones.verify_A2(spec, cones.ConeParams(k=1, alpha=alpha, K=1.2), 8)
    assert calls == []


def test_cone_params_rejects_bad_alpha():
    for alpha in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            cones.ConeParams(1, alpha, 1.2)


def test_a4_implies_a2(spec_2d_S):
    for alpha in (0.25, 0.5, 4.0):
        for res in (4, 16):
            c = cones.verify_A2(spec_2d_S, cones.ConeParams(k=1, alpha=alpha, K=1.2), res)
            assert c.a2_pass or not c.a4_pass


def test_verify_stable_across_resolutions(spec_2d_S):
    params = cones.ConeParams(k=1, alpha=0.5, K=1.2)
    v32 = cones.verify_A2(spec_2d_S, params, 32).a2_pass
    v64 = cones.verify_A2(spec_2d_S, params, 64).a2_pass
    assert v32 == v64


def test_conic_curve_length_expansion(spec_2d_S, rng):
    # images of short W-parallel segments expand by at least the certified K
    params = cones.ConeParams(k=1, alpha=0.5, K=1.000000001)
    cert = cones.verify_A2(spec_2d_S, params, 32)
    assert cert.a2_pass
    K = cert.expansion_factor - cert.padding
    for _ in range(100):
        z0 = rng.uniform(0, 1, size=2)
        l = float(rng.uniform(0.001, 0.01))
        ts = np.linspace(0, l, 1001)
        seg = z0[None, :] + np.stack([ts, np.zeros_like(ts)], axis=1)
        img = dynamics.eval_lift(spec_2d_S, seg)
        length = np.linalg.norm(np.diff(img, axis=0), axis=1).sum()
        assert length >= K * l * (1 - 1e-6)
