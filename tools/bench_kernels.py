"""Time the hot kernels on fixed workload shapes, in ns per (phase, point).

    python tools/bench_kernels.py

It imports torusconj from the src/ directory of the checkout that holds
this script and runs with one BLAS thread, as perfbench/run.py does. Each
line is the best of 9 timed calls, divided by the phase evaluations the
call makes: U unique phases at each of n points, times the steps of an
orbit sweep or the G evaluations of a Newton solve.

- ``eval_trig`` and ``eval_trig_and_jac``: one (n, d) batch of 4096 points.
- ``invert_lift_numpy``: 1024 points of a hyperbolic map, solved to 1e-13.
- ``_phi_series``: one 4096-point chunk of an expanding map at N = 32, as
  ``verify-semiconj`` sweeps it (N + 1 steps).
- ``_cone_minima``: the certified cone minima of 1000 cells of a d = 3,
  k = 1 map at every opening of ``cli.ALPHAS``, as ``verify-cones`` finds
  them (the closed-form q_exp and the pencil solve of q_inv), in ns per
  (cell, opening) instead.

The maps have the shapes of the perfbench workloads: d = 2 with 3 and 7
terms and d = 3 with 4 and 6 (``sweep-expanding``), the cat map with 4
terms (``backward-hyperbolic``), and for the cones the d = 3 map of
``certify-conjugacy`` with 4 terms of 0.00025 each. Their frequencies and
coefficients are drawn from a fixed seed, so every run times the same work.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from torusconj import _kernels, cli, cones, dynamics, intlat, parse_spec, semiconj  # noqa: E402

EXPANDING = {2: ((2, 1), (0, 1)), 3: ((2, 1, 0), (0, 1, 0), (0, 0, 1))}
CAT = ((2, 1), (1, 1))


def spec_text(M, n_terms, seed, coef=0.01):
    """A spec of M with n_terms distinct trig terms, cycling through the
    components, at frequencies in [-3, 3]^d and coefficients coef."""
    rng = np.random.default_rng(seed)
    d = len(M)
    lines = [f"dim={d}", "M=[" + ",".join(str(list(r)) for r in M).replace(" ", "") + "]"]
    seen = set()
    while len(seen) < n_terms:
        freq = tuple(int(f) for f in rng.integers(-3, 4, size=d))
        kind = ("sin", "cos")[int(rng.integers(2))]
        if any(freq) and (freq, kind) not in seen:
            seen.add((freq, kind))
            phase = "+".join(f"{f}*z{i + 1}" for i, f in enumerate(freq) if f)
            lines.append(f"G[{len(seen) % d + 1}]={coef!r}*{kind}(2*pi*({phase}))")
    return "\n".join(lines).replace("+-", "-") + "\n"


def block_spec(d, n_terms, coef=0.01):
    """An expanding map of d and n_terms in the block coordinates of the
    line of the eigenvalue 2, as the CLI takes them, and its block form."""
    spec = parse_spec(spec_text(EXPANDING[d], n_terms, 7 * d + n_terms, coef))
    line = intlat.derive_invariant_line(spec.M_list(), 2)
    block = intlat.block_triangularize(spec.M_list(), [line])
    return dynamics.change_coordinates(spec, block.S_list()), block


def expanding_engine(d, n_terms, N):
    """The engine verify-semiconj builds."""
    return semiconj.build_engine(*block_spec(d, n_terms), N=N)


def best(fn, repeat):
    """The least wall time of repeat calls of fn, in ns, and fn's last result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        out = fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times), out


def measure(n=4096, n_inverse=1024, N=32, repeat=9, n_cells=1000):
    """[(what, d, U, ns per (phase, point))] over the fixed shapes, at n
    points a batch (n_inverse for the inverse lift) and truncation N, and
    last (_cone_minima, 3, U, ns per (cell, opening)) at n_cells cells."""
    rng = np.random.default_rng(0)
    rows = []
    for d, n_terms in ((2, 3), (2, 7), (3, 4), (3, 6)):
        eng = expanding_engine(d, n_terms, N)
        ta = dynamics.term_arrays(eng.spec)
        U = len(ta.coefs)
        Z = rng.uniform(0.0, 1.0, size=(n, d))
        ns, _ = best(lambda: _kernels.eval_trig(Z, ta.freqs, ta.coefs, ta.nsin), repeat)
        rows.append(("eval_trig", d, U, ns / (U * n)))
        ns, _ = best(lambda: _kernels.eval_trig_and_jac(Z, *ta), repeat)
        rows.append(("eval_trig_and_jac", d, U, ns / (U * n)))
        ns, _ = best(lambda: semiconj._phi_series(eng, Z, image=True), repeat)
        rows.append(("_phi_series", d, U, ns / (U * n * (N + 1))))
    spec = parse_spec(spec_text(CAT, 4, 11))
    ta = dynamics.term_arrays(spec)
    U = len(ta.coefs)
    Mf = dynamics.M_array(spec)
    Z = rng.uniform(0.0, 1.0, size=(n_inverse, 2))
    ns, out = best(lambda: _kernels.invert_lift_numpy(Z, Mf, np.linalg.inv(Mf), ta, 1e-13, 50),
                   repeat)
    rows.append(("invert_lift_numpy", 2, U, ns / (U * n_inverse * (1 + out[3]))))
    # the Jacobians of n_cells cells and the norm bound verify_A2 gives
    # every pencil's lambda range
    spec, _ = block_spec(3, 4, 0.00025)
    Ls = dynamics.jacobian(spec, rng.uniform(0.0, 1.0, size=(n_cells, 3)))
    nL_max = float(np.linalg.norm(dynamics.M_array(spec), 2)) + dynamics.norm_bounds(spec).g_lip
    ns, _ = best(lambda: [cones._cone_minima(Ls, nL_max, 1, a) for a in cli.ALPHAS], repeat)
    U = len(dynamics.term_arrays(spec).coefs)
    rows.append(("_cone_minima", 3, U, ns / (n_cells * len(cli.ALPHAS))))
    return rows


def main():
    print(f"numpy {np.__version__}, one BLAS thread, best of 9; ns per (phase, point), "
          "_cone_minima per (cell, opening)")
    for what, d, U, ns in measure():
        print(f"{what:<18} d={d} U={U:<2} {ns:8.2f}")


if __name__ == "__main__":
    main()
