import math

import numpy as np
import pytest
from mpmath import mp

from torusconj import block_triangularize, parse_spec
from torusconj import cones, dynamics, intlat, semiconj
from torusconj.errors import FloatRangeError

from conftest import FIX_D3K1
from test_oracle import DPS


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
        sol = cones._pencil_max_lambda_min(Q, Jm, lam_hi, np.zeros(2))
        ref = _ternary_reference(Q, Jm, lam_hi)
        upper = cones.ray_sampling_estimates(L, k, alpha)
        assert np.all((0.0 <= sol.lam) & (sol.lam <= lam_hi))
        pencils = Q - sol.lam[:, None, None] * Jm
        # the value is a certified lower bound on lambda_min at the returned
        # lambda: at most eigh's value (within eigh's own rounding) and at
        # most 64 ulps of the pencil's scale, with lam J's, below it
        mu = np.linalg.eigh(pencils)[0]
        scale = np.abs(mu).max(axis=1)
        slack = 64 * eps * (scale + sol.lam * max(alpha ** 2, 1.0))
        assert np.all(sol.value <= mu[:, 0] + 4 * eps * scale), (L, k, alpha)
        assert np.all(sol.value >= mu[:, 0] - slack), (L, k, alpha)
        assert np.all(sol.value >= ref - 8 * eps * scale - slack), (L, k, alpha)
        assert np.all(sol.value <= np.array(upper) + 1e-9), (L, k, alpha)
        assert np.all(sol.gap >= 0) and sol.rounds >= 1
        sols.append(sol)
    kink, inside = sols[-2:]
    # the end tangents meet at the kink, whose lambda_min is 4.5 and 0.0
    assert np.all(kink.value <= [4.5, 0.0]) and np.all(kink.value >= [4.5, 0.0] - 64 * eps * 9.0)
    assert inside.lam[0] == 0.0


ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def test_pencil_rounds_fixture(spec_2d_S):
    # k = 1 on d = 2: both minima are closed forms, so no opening solves a
    # pencil; on the d = 3 fixture q_inv is still a pencil, and all six
    # alphas at grid 16 take at most 100 search rounds in total (the ternary
    # search made 401 eigvalsh calls per pencil)
    certs = cones.verify_A2(spec_2d_S, [cones.ConeParams(1, a, 1.000000001) for a in ALPHAS], 32)
    assert [(c.pencil_rounds, c.pencil_gap) for c in certs] == [(0, 0.0)] * len(ALPHAS)
    s = parse_spec(FIX_D3K1)
    block = block_triangularize(s.M_list(), [intlat.derive_invariant_line(s.M_list(), 2)])
    spec_S = dynamics.change_coordinates(s, block.S_list())
    certs = cones.verify_A2(spec_S, [cones.ConeParams(1, a, 1.000000001) for a in ALPHAS], 16)
    rounds = [c.pencil_rounds for c in certs]
    assert all(r >= 2 for r in rounds) and sum(rounds) <= 100, rounds
    assert all(0.0 <= c.pencil_gap <= 1e-12 for c in certs)


def _turned(L0, alpha, angle):
    """L0 R for the rotation R that puts the lambda_min eigenvector of
    L^T diag(alpha^2, -1) L at the given angle from e_1; the cone's arc is
    |angle| <= atan(alpha)."""
    _, V = np.linalg.eigh(L0.T @ np.diag([alpha ** 2, -1.0]) @ L0)
    psi = math.atan2(V[1, 0], V[0, 0]) - angle
    return L0 @ np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])


def _closed_form_cases(rng, n_random):
    """(L, alpha) pairs for the k = 1 closed forms: n_random seeded random L
    per d in (2, 3) and opening, of norms 0.1 to 10, then edge cases at
    every opening (the six are powers of 2, so alpha l is exact)."""
    cases = [(rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-1.0, 1.0), alpha)
             for d in (2, 3) for alpha in ALPHAS for _ in range(n_random)]
    L0 = np.array([[1.3, 0.4], [0.2, 0.9]])
    for alpha in ALPHAS:
        theta = math.atan(alpha)
        cases += [
            (np.array([[-1.5, 0.2], [0.3, 1.0]]), alpha),               # l_1 < 0
            (np.array([[-1.5, 0.2, -0.1], [0.3, 1.0, 0.2], [0.0, 0.1, 0.8]]), alpha),
            (np.array([[0.0, 0.7], [1.0, 0.4]]), alpha),                # l_1 = 0
            (np.array([[0.0, 0.7, 0.1], [1.0, 0.4, 0.0], [0.2, 0.0, 1.0]]), alpha),
            # the cone reaches l's orthogonal complement (q_exp = 0), and
            # |l_1| = alpha ||l_b|| within a float either way
            (np.array([[0.5, 2.0 / alpha], [0.3, 1.0]]), alpha),
            (np.array([[0.5, 1.5 / alpha, -1.5 / alpha], [0.3, 1.0, 0.0], [0.0, 0.2, 1.0]]), alpha),
            (np.array([[1.0, 1.0 / alpha * (1 + 1e-12)], [0.3, 1.0]]), alpha),
            (np.array([[1.0, 1.0 / alpha * (1 - 1e-12)], [0.3, 1.0]]), alpha),
            (np.array([[1.0, 0.6 / alpha, 0.8 / alpha], [0.3, 1.0, 0.0], [0.0, 0.2, 1.0]]), alpha),
            # lambda_min's eigenvector inside the arc, on either end, outside
            (_turned(L0, alpha, 0.5 * theta), alpha),
            (_turned(L0, alpha, theta), alpha),
            (_turned(L0, alpha, -theta), alpha),
            (_turned(L0, alpha, 0.5 * (theta + 0.5 * math.pi)), alpha),
            # Q = 0, the one multiple of I a k = 1 form on d = 2 can be: hypot = 0
            (np.array([[1.5, -0.5], [1.5 * alpha, -0.5 * alpha]]), alpha),
            (np.array([[1.0, 2.0], [0.5, 1.0]]), alpha),                 # singular
            (np.zeros((2, 2)), alpha),
            (np.diag([3.0, 3.0]), alpha),                                # the kink
        ]
    return cases


def _pencil_minima(Ls, alpha):
    """(q_exp, q_inv) of the pencil solver for a batch of k = 1 matrices."""
    n, d, _ = Ls.shape
    Jm = np.diag([alpha ** 2] + [-1.0] * (d - 1))
    Pm = np.diag([1.0] + [0.0] * (d - 1))
    Lt = Ls.transpose(0, 2, 1)
    lam_hi = 1e6 * max(float(np.linalg.norm(Ls, 2, axis=(1, 2)).max()) ** 2, 1.0)
    value = cones._pencil_max_lambda_min(np.concatenate([Lt @ Pm @ Ls, Lt @ Jm @ Ls]), Jm, lam_hi,
                                         np.zeros(2 * n)).value
    return value[:n], value[n:]


def test_closed_form_minima_match_the_pencil():
    # the closed forms of k = 1 (q_exp on d = 2 and 3, q_inv on d = 2) never
    # sit more than 8 ulps of the scale max(alpha, 1)^2 ||L||_F^2 (plus the
    # underflow term TINY) below the pencil's certified minimum, rounding
    # outward included, and never above dense ray sampling, an upper bound
    eps = np.finfo(float).eps
    cases = _closed_form_cases(np.random.default_rng(33), 200)
    for d in (2, 3):
        for alpha in ALPHAS:
            Ls = np.stack([L for L, a in cases if len(L) == d and a == alpha])
            q_exp, q_inv, rounds, gap = cones._cone_minima(
                Ls, float(np.linalg.norm(Ls, 2, axis=(1, 2)).max()), 1, alpha)
            assert d == 3 or (rounds, gap) == (0, 0.0)
            p_exp, p_inv = _pencil_minima(Ls, alpha)
            tol = 8 * eps * max(alpha, 1.0) ** 2 * (Ls ** 2).sum(axis=(1, 2)) + cones.TINY
            closed = [(q_exp, p_exp)] + ([(q_inv, p_inv)] if d == 2 else [])
            for got, ref in closed:
                assert np.all(got >= ref - tol), (d, alpha, np.argmin(got - ref + tol))
            for i, L in enumerate(Ls):
                s_exp, s_inv = cones.ray_sampling_estimates(L, 1, alpha, n_rays=2000)
                assert q_exp[i] <= s_exp + 1e-9, (L, alpha)
                assert d > 2 or q_inv[i] <= s_inv + 1e-9, (L, alpha)


def _exact_minima(L, alpha):
    """(q_exp, q_inv) at DPS digits for the float matrix L (q_inv for d = 2
    only): q_exp from its closed form, q_inv as the least of the arc's two
    ends and, if its eigenvector lies in the arc, lambda_min of mp.eigsy."""
    al = mp.mpf(alpha)
    l = [mp.mpf(float(v)) for v in L[0]]
    q_exp = max(abs(l[0]) - al * mp.sqrt(sum(v * v for v in l[1:])), 0) ** 2 / (1 + al * al)
    if len(L) > 2:
        return q_exp, None
    Lm = mp.matrix([[mp.mpf(float(v)) for v in row] for row in L])
    Q = Lm.T * mp.diag([al * al, -1]) * Lm
    E, V = mp.eigsy(Q)
    candidates = [(Q[0, 0] + sign * 2 * al * Q[0, 1] + al * al * Q[1, 1]) / (1 + al * al)
                  for sign in (1, -1)]
    if abs(V[1, 0]) <= al * abs(V[0, 0]):
        candidates.append(E[0])
    return q_exp, min(candidates)


def test_closed_forms_round_outward():
    # the outward-rounded closed forms never exceed the exact minima of the
    # float matrices they are given, summed at DPS digits, on 2000 random L
    # and near-degenerate ones: the clamp boundary |l_1| = alpha ||l_b||,
    # eigenvectors on an arc end, near-singular L and Q near 0
    eps = np.finfo(float).eps
    rng = np.random.default_rng(34)
    cases = [(rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-1.0, 1.0), float(rng.choice(ALPHAS)))
             for d in (2, 3) for _ in range(800)]
    for alpha in (*ALPHAS, 0.3, 3.7):
        for _ in range(25):
            L0 = rng.normal(size=(2, 2))
            tiny = float(rng.normal()) * 1e-15
            near = L0.copy()
            near[0, 1] = np.copysign(abs(near[0, 0]) / alpha * (1 + tiny), near[0, 1])
            cases += [(near, alpha),
                      (_turned(L0, alpha, math.atan(alpha) * (1 + tiny)), alpha),
                      (np.stack([L0[0], alpha * L0[0] * (1 + tiny)]), alpha),
                      (np.stack([L0[0], L0[0] * (2 + tiny)]), alpha)]
    with mp.workdps(DPS):
        for d in (2, 3):
            for alpha in sorted({a for _, a in cases}):
                batch = [L for L, a in cases if len(L) == d and a == alpha]
                if not batch:
                    continue
                Ls = np.stack(batch)
                q_exp, q_inv, _, _ = cones._cone_minima(
                    Ls, float(np.linalg.norm(Ls, 2, axis=(1, 2)).max()), 1, alpha)
                scale = max(alpha, 1.0) ** 2 * (Ls ** 2).sum(axis=(1, 2))
                for i, L in enumerate(Ls):
                    e_exp, e_inv = _exact_minima(L, alpha)
                    pairs = [(q_exp[i], e_exp)] + ([(q_inv[i], e_inv)] if d == 2 else [])
                    for got, exact in pairs:
                        assert mp.mpf(float(got)) <= exact, (L, alpha, got, exact)
                        assert got >= exact - 16 * eps * scale[i], (L, alpha, got, exact)


def _exact_lambda_min(M):
    """lambda_min at DPS digits of a symmetric matrix of mpf entries."""
    return min(mp.eigsy(mp.matrix(M))[0])


def _certified_pencils(L, k, alpha):
    """(values, lams, weights, Q) of the pencil solve of _cone_minima for
    one d = 3 matrix: q_exp (k >= 2) and q_inv, with the rounding of
    forming Q = L^T diag(w) L charged as _cone_minima charges it."""
    d = len(L)
    p = np.array([1.0] * k + [0.0] * (d - k))
    j = np.array([alpha ** 2] * k + [-1.0] * (d - k))
    weights = ([p] if k > 1 else []) + [j]
    Q, err = (np.concatenate(x) for x in zip(*(cones._pencil_form(L[None], w) for w in weights)))
    lam_hi = 1e6 * max(float(np.linalg.norm(L, 2)) ** 2, 1.0)
    sol = cones._pencil_max_lambda_min(Q, np.diag(j), lam_hi, err)
    return sol.value, sol.lam, weights, Q


def _equal_singular_values(rng, sigma):
    """U diag(sigma) V^T for random orthogonal U and V."""
    U, V = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    return U @ np.diag(sigma) @ V.T


def _pencil_rounding_cases(rng):
    """(L, k, alpha) of d = 3 for the pencil rounding test: those of
    _pencil_cases, the kink 3 I (q_inv at lambda = 9 is the zero matrix for
    k = 1, and q_exp a multiple of I for k = 2) and L with two equal
    singular values, whose forms have a near-repeated lowest eigenvalue."""
    cases = [c for c in _pencil_cases(rng) if len(c[0]) == 3]
    for alpha in (0.25, 1.0, 2.0, 8.0):
        for k in (1, 2):
            cases.append((3.0 * np.eye(3), k, alpha))
            cases.append((_equal_singular_values(rng, [2.0, 2.0, 1.0]), k, alpha))
            cases.append((_equal_singular_values(rng, [1.0, 2.0, 2.0]), k, alpha))
    return cases


def _check_rounds_outward(L, k, alpha, values, lams, weights, Q, slack):
    """Each certified value is at or below the exact lambda_min, at its
    lambda, of the pencil of the float L and alpha, and of the float pencil
    (the upper triangle of Q, lambda and J as floats), and within slack
    times the scale max |mu| + lambda max(alpha^2, 1) + sum_r |w_r|
    ||l_r||^2 of the exact one."""
    d = len(L)
    jx = [mp.mpf(alpha) ** 2] * k + [mp.mpf(-1)] * (d - k)
    jf = [alpha ** 2] * k + [-1.0] * (d - k)
    # the exact weights: the projection's (k >= 2) and then J's
    exact_weights = [[mp.mpf(float(x)) for x in w] for w in weights[:-1]] + [jx]
    Lm = [[mp.mpf(float(x)) for x in row] for row in L]
    for i, (value, lam, w, wx) in enumerate(zip(values, lams, weights, exact_weights)):
        lm = mp.mpf(float(lam))
        exact = _exact_lambda_min(
            [[sum(wx[r] * Lm[r][a] * Lm[r][b] for r in range(d)) - (lm * jx[a] if a == b else 0)
              for b in range(d)] for a in range(d)])
        floated = _exact_lambda_min(
            [[mp.mpf(float(Q[i, min(a, b), max(a, b)])) - (lm * mp.mpf(jf[a]) if a == b else 0)
              for b in range(d)] for a in range(d)])
        assert mp.mpf(float(value)) <= min(exact, floated), (L, k, alpha, i)
        scale = (abs(float(exact)) + float(lam) * max(alpha ** 2, 1.0)
                 + float((np.abs(w) * (L * L).sum(axis=1)).sum()))
        assert float(exact - mp.mpf(float(value))) <= slack * scale, (L, k, alpha, i)


def test_pencil_values_round_outward(monkeypatch):
    # the certified pencil values of d = 3 (k = 1 and 2) never exceed the
    # exact lambda_min of the pencil at the lambda they are certified at,
    # summed at DPS digits, and sit within 64 ulps of its scale below it,
    # on the seeded cases of _pencil_cases, at the kink 3 I and on L with
    # two equal singular values, where the trigonometric formula alone
    # would lose digits
    eps = np.finfo(float).eps
    rng = np.random.default_rng(36)
    with mp.workdps(DPS):
        for L, k, alpha in _pencil_rounding_cases(rng):
            _check_rounds_outward(L, k, alpha, *_certified_pencils(L, k, alpha), 64 * eps)
        # a search estimate 1e-6 too high fails the first LDL^T check; the
        # shift backs off until a check passes, and is certified as soundly
        certify, pivots, checks = cones._certify_lambda_min, cones._ldlt_pivots, []
        monkeypatch.setattr(cones, "_certify_lambda_min", lambda Q, e, J, lam, mu: certify(
            Q, e, J, lam, mu + 1e-6 * (1 + np.abs(mu))))
        monkeypatch.setattr(cones, "_ldlt_pivots", lambda A: checks.append(len(A)) or pivots(A))
        L = rng.normal(size=(3, 3))
        _check_rounds_outward(L, 2, 1.5, *_certified_pencils(L, 2, 1.5), 1e-5)
        assert len(checks) > 10 and checks[0] == 2


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
