"""Seeded map-spec generator and the job lists of the workloads.

Every map is drawn from a slot: a fixed winding matrix, term count T and
sup-norm of G. Terms go to the components round-robin, and each used
component gets the same coefficient sum, so ||G||_0 is fixed in the
original coordinates and in the block coordinates the CLI changes to. The
seed picks the frequencies, kinds, signs and the split of each component's
sum over its terms. Fixing the cost-determining shape per slot keeps the
work of a pass (and the certified ceiling, which is proportional to
||G||_0) nearly the same for every seed, so run-to-run spread measures the
program, not the draw.

The generator stays inside the documented preconditions of the CLI:

- expanding maps use winding matrices whose eigenvalue-2 block is
  decoupled (a coupled block is a documented exit-1 error);
- hyperbolic maps keep ||M^-1||_2 * Lip(G) inside a window below 0.9, so
  the inverse lift is a certified contraction;
- certification maps keep Lip(G) <= 0.05 so the cone condition can hold.

The generator uses only the standard library and numpy; it never imports
torusconj, so the program sees nothing but the spec files and argv.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

FREQ_MAX = 3                  # |k_i| <= 3 for every frequency component
MAX_DRAWS = 10_000            # rejection-sampling cap per map


@dataclass(frozen=True)
class Slot:
    """The fixed shape of one generated map and the jobs run on it."""
    M: tuple
    n_terms: int
    g_sup: float
    lip_lo: float             # window on Lip(G) (the CLI's coefficient sum)
    lip_hi: float
    commands: tuple           # each entry: (subcommand, extra argv)


@dataclass(frozen=True)
class Job:
    job_id: int
    spec_path: str
    argv: tuple               # full argv for torusconj.cli.main; argv[0] is the command


D2 = ((2, 1), (0, 1))
D3 = ((2, 1, 0), (0, 1, 0), (0, 0, 1))
HYPERBOLIC = (((2, 1), (1, 1)), ((1, 1), (1, 2)), ((3, 1), (2, 1)),
              ((3, 2), (1, 1)), ((2, -1), (-1, 1)))

_INF = math.inf
_VERIFY_SWEEP_2 = ("verify-semiconj", ("--grid", "256"))
_PHI_SWEEP_2 = ("phi", ("--grid", "256"))
_VERIFY_SWEEP_3 = ("verify-semiconj", ("--grid", "40"))
_PHI_SWEEP_3 = ("phi", ("--grid", "40"))
_BACKWARD = ("verify-semiconj", ("--sublattice", "full", "--grid", "32"))
_CERTIFY_2 = (("validate", ()), ("analyze", ()), ("verify-cones", ("--grid", "32")),
              ("verify-semiconj", ("--grid", "32")), ("conjugacy", ("--grid", "48")))
# d = 3 runs no conjugacy: its cost is the same one-point fiber solves as
# d = 2, and leaving it out lets a run hold two passes.
_CERTIFY_3 = (("validate", ()), ("analyze", ()), ("verify-cones", ("--grid", "10")),
              ("verify-semiconj", ("--grid", "32")))


MEAN_FREQ_NORM_2D = 2.71     # mean ||k|| of the sign-canonical frequencies, d = 2


def _hyperbolic_slot(M, n_terms, rho_lo, rho_hi):
    """Slot whose maps have ||M^-1||_2 * Lip(G) in [rho_lo, rho_hi]."""
    minv = float(np.linalg.norm(np.linalg.inv(np.array(M, dtype=float)), 2))
    lip_mid = 0.5 * (rho_lo + rho_hi) / minv
    g_sup = lip_mid / (2.0 * math.pi * MEAN_FREQ_NORM_2D)
    return Slot(M, n_terms, g_sup, rho_lo / minv, rho_hi / minv, (_BACKWARD,))


# One pass of each workload: the slots, in the order their jobs run.
WORKLOADS = {
    # Large-batch forward sweeps: verify (two sweeps, no output) alternating
    # with phi -o (one sweep plus a 65k-row CSV).
    "sweep-expanding": (
        Slot(D2, 3, 0.06, 0.0, _INF, (_VERIFY_SWEEP_2,)),
        Slot(D2, 7, 0.06, 0.0, _INF, (_PHI_SWEEP_2,)),
        Slot(D3, 6, 0.05, 0.0, _INF, (_VERIFY_SWEEP_3,)),
        Slot(D3, 4, 0.05, 0.0, _INF, (_PHI_SWEEP_3,)),
    ),
    # Hyperbolic mode: the only workload that runs the inverse lift. Three
    # maps per family, at contraction rates 0.15, 0.15 and 0.4. Narrow
    # windows keep the ceiling (which grows like (||M^-1|| / (1 - rate))^N)
    # nearly seed-independent.
    "backward-hyperbolic": tuple(
        _hyperbolic_slot(M, t, rate - 0.01, rate + 0.01)
        for M in HYPERBOLIC
        for (t, rate) in ((2, 0.15), (4, 0.15), (3, 0.4))
    ),
    # Certification of expanding maps: cone certificates, whose pencil
    # solve barely touches the kernels, and the conjugacy, whose fiber
    # bisection calls the kernels at ~1 point per call.
    "certify-conjugacy": (
        Slot(D2, 4, 0.004, 0.0, 0.05, _CERTIFY_2),
        Slot(D3, 4, 0.001, 0.0, 0.05, _CERTIFY_3),
    ),
}

# Untimed warm-up job of the set-up: validate on the first map runs the
# parser and the trig kernel once, at a cost that does not depend on the
# seed (a small verify-semiconj in hyperbolic mode would).
WARMUP_COMMAND = "validate"


def norm_bounds(d, terms):
    """(g_sup, g_lip) with the coefficient-sum formulas the CLI documents."""
    s0 = [0.0] * d
    s1 = [0.0] * d
    for comp, freq, _kind, coef in terms:
        s0[comp] += abs(coef)
        s1[comp] += 2.0 * math.pi * abs(coef) * math.sqrt(sum(k * k for k in freq))
    return math.sqrt(sum(x * x for x in s0)), math.sqrt(sum(x * x for x in s1))


def _draw_freq(rng, d):
    while True:
        k = [rng.randint(-FREQ_MAX, FREQ_MAX) for _ in range(d)]
        first = next((x for x in k if x != 0), 0)
        if first > 0:                  # nonzero, sign-canonical: sin(-x) = -sin(x)
            return tuple(k)


def _draw_terms(rng, slot):
    d = len(slot.M)
    keys = []
    for i in range(slot.n_terms):
        comp = i % d
        while True:
            key = (comp, _draw_freq(rng, d), rng.choice(("sin", "cos")))
            if key not in keys:
                keys.append(key)
                break
    raw = [rng.uniform(0.2, 1.0) for _ in keys]
    comp_sum = [0.0] * d
    for (comp, _, _), w in zip(keys, raw):
        comp_sum[comp] += w
    per_comp = slot.g_sup / math.sqrt(min(d, slot.n_terms))
    return [(c, f, k, float(f"{rng.choice((-1, 1)) * w * per_comp / comp_sum[c]:.6e}"))
            for (c, f, k), w in zip(keys, raw)]


def draw_map(rng, slot):
    """Terms (component0, freq, kind, coef) of one map inside the slot's window."""
    d = len(slot.M)
    for _ in range(MAX_DRAWS):
        terms = _draw_terms(rng, slot)
        _, lip = norm_bounds(d, terms)
        if slot.lip_lo <= lip <= slot.lip_hi:
            return terms
    raise RuntimeError(f"no map with Lip(G) in [{slot.lip_lo}, {slot.lip_hi}] "
                       f"after {MAX_DRAWS} draws")


def _lincomb(freq):
    parts = []
    for i, k in enumerate(freq):
        if k == 0:
            continue
        body = f"z{i + 1}" if abs(k) == 1 else f"{abs(k)}*z{i + 1}"
        parts.append(("-" if k < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def spec_text(M, terms):
    d = len(M)
    lines = [f"dim={d}",
             "M=[" + ",".join("[" + ",".join(str(x) for x in r) + "]" for r in M) + "]"]
    for comp in range(d):
        parts = []
        for c, freq, kind, coef in terms:
            if c != comp:
                continue
            body = f"{abs(coef):.6e}*{kind}(2*pi*({_lincomb(freq)}))"
            parts.append(("-" if coef < 0 else ("+" if parts else "")) + body)
        if parts:
            lines.append(f"G[{comp + 1}]=" + "".join(parts))
    return "\n".join(lines) + "\n"


def generate(workload, seed, directory):
    """Write the workload's spec files for ``seed`` into ``directory``.

    Returns (jobs, warmup_job). The same seed writes byte-identical files.
    """
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)
    jobs = []
    for i, slot in enumerate(slots):
        # Hyperbolic maps that trip the inverse-lift tolerance floor are not
        # filtered out: exit 1 on them is a defect of the program, and the
        # benchmark's fail_frac is where it shows.
        terms = draw_map(rng, slot)
        path = os.path.join(directory, f"map{i:02d}.spec")
        with open(path, "w") as fh:
            fh.write(spec_text(slot.M, terms))
        for name, extra in slot.commands:
            argv = (name, path, *extra)
            if name == "phi":
                argv += ("-o", os.path.join(directory, f"out{len(jobs):02d}"))
            jobs.append(Job(len(jobs), path, argv))
    return jobs, Job(-1, jobs[0].spec_path, (WARMUP_COMMAND, jobs[0].spec_path))
