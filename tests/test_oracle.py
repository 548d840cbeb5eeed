"""An independent high-precision oracle for the semi-conjugacy Phi.

    Phi(z) = z_W + sum_n A^-(n+1) P_u G_W(F^n z) - sum_n A^n P_s G_W(F^-(n+1) z)

is summed in mpmath at 60 digits until the bound on its tail is below
1e-45, with the projections P_u and P_s built from mp.eig of A and each
backward step F^-1 solved by Newton's method in mpmath.  It reads only the
engine's block-coordinate spec, k and A; nothing of semiconj's series.  So
|Phi_hat_N - Phi| <= eps tests the certified truncation bound itself, not
only its consistency with the residual, and Phi(F z) = A Phi(z) to 1e-40
tests the oracle.
"""

import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np
import pytest
from mpmath import mp

from torusconj import block_triangularize, build_engine, dynamics, intlat, parse_spec, semiconj

ROOT = pathlib.Path(__file__).resolve().parent.parent
DPS = 60
TAIL = 1e-45            # bound on the series tail left unsummed
IDENTITY_TOL = 1e-40    # |Phi(F z) - A Phi(z)| on the torus


def _frac(v):
    return v.apply(lambda x: x - mp.floor(x))


class Oracle:
    """Phi of an engine's map, in mpmath; build and call it inside mp.workdps(DPS)."""

    def __init__(self, engine):
        spec = engine.spec
        self.d, self.k, self.terms = spec.d, engine.k, spec.terms
        self.M = mp.matrix([list(r) for r in spec.M])
        self.A = mp.matrix(engine.A.tolist())       # integer entries, exact
        self.Ainv = mp.inverse(self.A)
        lam, V = mp.eig(self.A)
        Vinv = mp.inverse(V)
        cond = mp.mnorm(V, "f") * mp.mnorm(Vinv, "f")

        def projection(keep):
            P = V * mp.diag([1 if keep(x) else 0 for x in lam]) * Vinv
            return P.apply(mp.re)

        self.Pu = projection(lambda x: abs(x) > 1)
        self.Ps = projection(lambda x: abs(x) < 1)
        g_sup = mp.sqrt(sum(sum(abs(mp.mpf(t.coefficient)) for t in self.terms
                                if t.component == r + 1) ** 2 for r in range(self.k)))

        def length(rates):
            # the least n with sum_{m >= n} ||term m|| <= cond g_sup rho^(n+1) / (1 - rho) < TAIL
            if not rates:
                return 0
            rho, n = max(rates), 0
            while cond * g_sup * rho ** (n + 1) / (1 - rho) >= TAIL:
                n += 1
            return n

        self.n_u = length([1 / abs(x) for x in lam if abs(x) > 1])
        self.n_s = length([abs(x) for x in lam if abs(x) < 1])

    def G(self, z):
        g = mp.matrix(self.d, 1)
        for t in self.terms:
            phase = 2 * mp.pi * mp.fsum(f * x for f, x in zip(t.frequency, z))
            g[t.component - 1] += t.coefficient * (mp.sin(phase) if t.kind == "sin" else mp.cos(phase))
        return g

    def DG(self, z):
        J = mp.matrix(self.d, self.d)
        for t in self.terms:
            phase = 2 * mp.pi * mp.fsum(f * x for f, x in zip(t.frequency, z))
            slope = mp.cos(phase) if t.kind == "sin" else -mp.sin(phase)
            for c, f in enumerate(t.frequency):
                J[t.component - 1, c] += t.coefficient * 2 * mp.pi * f * slope
        return J

    def F(self, z):
        return _frac(self.M * z + self.G(z))

    def F_inverse(self, z):
        """The torus point w with F(w) = z: Newton on M w + G(w) = z."""
        w = mp.lu_solve(self.M, z)
        for _ in range(50):
            r = self.M * w + self.G(w) - z
            if mp.norm(r) < mp.mpf(10) ** (5 - DPS):
                return _frac(w)
            w -= mp.lu_solve(self.M + self.DG(w), r)
        raise AssertionError(f"mp Newton did not converge: residual {mp.norm(r)}")

    def phi(self, z):
        k = self.k
        acc = mp.matrix([z[i] for i in range(k)])
        w, B = z, self.Ainv * self.Pu
        # each power is projected again: A^-1 stretches the rounding left in
        # the stable subspace, and A that left in the unstable one, by up to
        # |lambda| per step, which over ~100 steps would reach 1e-20
        for _ in range(self.n_u):
            g = self.G(w)
            acc += B * g[:k, 0]
            B = self.Pu * (self.Ainv * B)
            w = _frac(self.M * w + g)
        w, B = z, self.Ps
        for _ in range(self.n_s):
            w = self.F_inverse(w)
            acc -= B * self.G(w)[:k, 0]
            B = self.Ps * (self.A * B)
        return acc


def oracle_errors(engine, points):
    """(max |Phi_hat_N - Phi|, max torus |Phi(F z) - A Phi(z)|) over points (n, d) in [0, 1)^d."""
    phat = semiconj.phi_hat(engine, points).value
    err = ident = 0.0
    with mp.workdps(DPS):
        orc = Oracle(engine)
        for z, ph in zip(points, phat):
            zm = mp.matrix([mp.mpf(float(x)) for x in z])
            phi = orc.phi(zm)
            err = max(err, float(mp.norm(phi - mp.matrix([mp.mpf(float(x)) for x in ph]))))
            diff = orc.phi(orc.F(zm)) - orc.A * phi
            ident = max(ident, float(mp.norm(diff.apply(lambda x: x - mp.nint(x)))))
    return err, ident


def _certify_d3_engine(tmp_path):
    """The engine the CLI builds for the seed-601 d = 3 map of the
    certify-conjugacy workload: block coordinates of the eigenvalue-2 line,
    automatic N."""
    path = ROOT / "perfbench" / "specgen.py"
    spec_ = importlib.util.spec_from_file_location("specgen", path)
    specgen = importlib.util.module_from_spec(spec_)
    sys.modules.setdefault("specgen", specgen)      # its dataclasses look their module up
    spec_.loader.exec_module(specgen)
    specgen.generate("certify-conjugacy", 601, str(tmp_path))
    spec = parse_spec((tmp_path / "map01.spec").read_text())     # the workload's second map
    assert spec.d == 3
    M = spec.M_list()
    block = block_triangularize(M, [intlat.derive_invariant_line(M, 2)])
    return build_engine(dynamics.change_coordinates(spec, block.S_list()), block)


@pytest.mark.parametrize("name", ["engine_1d", "engine_2d", "engine_cat", "engine_rot", "d3"])
def test_phi_hat_is_within_eps_of_the_oracle(name, request, tmp_path):
    engine = _certify_d3_engine(tmp_path) if name == "d3" else request.getfixturevalue(name)
    points = np.random.default_rng(7).uniform(0, 1, size=(3, engine.d))
    err, ident = oracle_errors(engine, points)
    assert err <= engine.eps, f"|Phi_hat_N - Phi| = {err:.3g} > eps = {engine.eps:.3g}"
    assert ident <= IDENTITY_TOL


def test_oracle_sees_a_wrong_coefficient(engine_2d):
    # the oracle is no restatement of the engine: a map whose G differs by
    # 1e-6 in one coefficient gives a Phi that misses Phi_hat by far more
    # than eps
    spec = engine_2d.spec
    t0 = spec.terms[0]
    wrong = type(t0)(t0.component, t0.frequency, t0.kind, t0.coefficient + 1e-6)
    moved = dataclasses.replace(engine_2d, spec=type(spec)(spec.d, spec.M, (wrong,) + spec.terms[1:]))
    points = np.random.default_rng(7).uniform(0, 1, size=(2, 2))
    with mp.workdps(DPS):
        orc = Oracle(moved)
        phi = [orc.phi(mp.matrix([mp.mpf(float(x)) for x in z])) for z in points]
    phat = semiconj.phi_hat(engine_2d, points).value
    err = max(abs(float(p[0]) - float(h[0])) for p, h in zip(phi, phat))
    assert err > 100 * engine_2d.eps
