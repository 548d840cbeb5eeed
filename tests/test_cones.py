import math

import numpy as np
import pytest

from torusconj import parse_spec
from torusconj import cones, dynamics


def test_pointwise_oracle_diag21():
    # closed form on the 2-D cone: min ||a'|| over unit v with |b| <= |a|
    # is 2/sqrt(2) = sqrt(2); invariance margin strictly positive
    chk = cones.pointwise_cone_check(np.diag([2.0, 1.0]),
                                     cones.ConeParams(k=1, alpha=1.0, K=1.4))
    assert abs(chk.expansion_factor - math.sqrt(2)) <= 1e-9
    assert chk.invariance_margin > 0
    assert np.isclose(chk.restricted_norm, 1.0)


def test_pointwise_identity_fails_expansion():
    chk = cones.pointwise_cone_check(np.eye(2),
                                     cones.ConeParams(k=1, alpha=1.0, K=1.5))
    assert chk.expansion_factor <= 1.0 + 1e-12
    assert chk.expansion_factor < 1.5


def test_pointwise_conformal_no_margin():
    # diag(3,3) preserves |b|/|a| exactly: margin collapses to 0
    chk = cones.pointwise_cone_check(np.diag([3.0, 3.0]),
                                     cones.ConeParams(k=1, alpha=1.0, K=1.0))
    assert abs(chk.q_inv) <= 1e-7
    assert abs(chk.invariance_margin) <= 1e-7


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
    # verify_A2 also certifies domination: off-core stretch 1 < K = 1.4
    s = parse_spec("dim=2\nM=[[2,0],[0,1]]\n")
    cert = cones.verify_A2(s, cones.ConeParams(k=1, alpha=1.0, K=1.4), 4)
    assert cert.a4_pass and cert.a2_pass
    assert cert.domination_margin == 1.4 - 1.0
    # off-core expansion stronger than core: domination must fail
    s2 = parse_spec("dim=2\nM=[[2,0],[0,3]]\n")
    cert2 = cones.verify_A2(s2, cones.ConeParams(k=1, alpha=1.0, K=1.4), 4)
    assert not cert2.a4_pass and cert2.domination_margin < 0


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


def test_tau():
    assert np.isclose(cones.tau(cones.ConeParams(1, 1.0, 1.2)), 1 / math.sqrt(2))
    assert np.isclose(cones.tau(cones.ConeParams(1, math.sqrt(3), 1.2)), 0.5)
    assert np.isclose(cones.tau(cones.ConeParams(1, 1e-9, 1.2)), 1.0)
    with pytest.raises(ValueError):
        cones.tau(cones.ConeParams(1, math.inf, 1.2))
