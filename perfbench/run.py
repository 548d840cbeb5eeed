"""End-to-end benchmark of the torusconj CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One client runs in a closed loop: each job calls
``torusconj.cli.main(argv)`` in this process, with stdout and stderr
captured, on spec files generated from the seed. A pass runs every job of
the workload once; passes repeat while another one fits in ``--seconds``.

The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import os

# one BLAS thread: the loop has one client, and the kernels' matrix
# products are (n, d) x (d, d) with d <= 3
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import NamedTuple

import numpy as np

import checks
import specgen
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 9
REF_SECONDS = 0.07    # the seconds one reference_seconds() call counts for
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


def import_program():
    """Import torusconj from this checkout's src/, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "torusconj", "__init__.py")):
        sys.exit(f"error: no torusconj sources under {src}")
    sys.path.insert(0, src)
    import torusconj.cli
    if not os.path.abspath(torusconj.__file__).startswith(src + os.sep):
        sys.exit(f"error: torusconj imported from {torusconj.__file__}, not {src}")
    return torusconj.cli


_REF_RNG = np.random.default_rng(20151210)
_REF_Z = _REF_RNG.random((65536, 2))
_REF_FREQS = _REF_RNG.integers(-3, 4, (6, 2)).astype(float)
_REF_KINDS = np.array([0, 1, 0, 1, 0, 1])
_REF_COEFS = _REF_RNG.random(6)
_REF_SYM = _REF_RNG.standard_normal((512, 3, 3))
_REF_SYM = _REF_SYM + _REF_SYM.transpose(0, 2, 1)


def reference_seconds():
    """Time a fixed piece of work shaped like the program's: a trig sum over
    a 65k-point batch (half the time), batched 3x3 symmetric eigenvalues
    and a plain Python loop (a quarter each). The machine's speed
    drifts by up to 1.5x over seconds to minutes, and this work slows down
    with it, so a job's time over the reference time next to it measures
    the program, not the machine."""
    t0 = perf_counter()
    for Z in np.split(_REF_Z, 16):     # in chunks, to add little to peak_rss_mb
        phase = 2.0 * np.pi * (Z @ _REF_FREQS.T)
        vals = np.where(_REF_KINDS[None, :] == 0, np.sin(phase), np.cos(phase))
        (vals * _REF_COEFS[None, :]).sum(axis=1)
    for _ in range(22):
        np.linalg.eigvalsh(_REF_SYM)
    counts = {}
    for i in range(75_000):
        counts[i & 255] = counts.get(i & 255, 0.0) + i * 0.5
    return perf_counter() - t0


class Pass(NamedTuple):
    elapsed: float        # seconds the pass took, reference runs included
    failed: int
    ceilings: list
    job_s: list           # each job's seconds
    job_ref_s: list       # mean reference time just before and after each job


class Runner:
    """Runs jobs in-process and checks their outputs."""

    def __init__(self, cli, seed):
        self.cli = cli
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.failures = {}          # reason -> count

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(job.argv))
            except SystemExit as e:     # argparse rejected the argv
                code = e.code
            except Exception:           # a traceback is a failed job, not a harness crash
                traceback.print_exc()
                code = "traceback"
        return perf_counter() - t0, code, out.getvalue(), err.getvalue()

    def run_pass(self, jobs, tracer=None):
        """Run every job once, with the reference work between jobs."""
        t0 = perf_counter()
        results, refs = [], []
        ref = reference_seconds()
        for job in jobs:
            if tracer is not None:
                tracer.job_id = job.job_id
                tracer.recording = True
            results.append((job, self.run(job)))
            if tracer is not None:
                tracer.recording = False
            after = reference_seconds()
            refs.append((ref + after) / 2)
            ref = after
        elapsed = perf_counter() - t0
        failed = 0
        ceilings = []
        for job, (_, code, out, err) in results:
            reason, wrong = checks.check_job(job, code, out, self.rng)
            self.attempted += 1
            if reason is None:
                ceiling = checks.ceiling_of(json.loads(out))
                if ceiling is not None:
                    ceilings.append(ceiling)
                continue
            failed += 1
            self.failed += 1
            detail = err.strip().splitlines()[-1] if err.strip() else ""
            key = f"{job.argv[0]}: {reason} {detail[:100]}".strip()
            self.failures[key] = self.failures.get(key, 0) + 1
            if wrong:
                self.wrong.append(f"job {job.job_id} ({' '.join(job.argv)}): {reason}")
        return Pass(elapsed, failed, ceilings, [r[0] for _, r in results], refs)

    def run_passes(self, jobs, seconds, tracer=None):
        """Closed loop: start another pass while it is predicted to end
        within ``seconds``; at least one pass."""
        passes = []
        t0 = perf_counter()
        while True:
            passes.append(self.run_pass(jobs, tracer))
            if perf_counter() - t0 + statistics.median(p.elapsed for p in passes) > seconds:
                return passes

    def run_alternating(self, jobs, seconds, tracer):
        """Untraced and traced passes in turn, at least one of each, so
        both see the same load on the machine. The tracer's wrappers are
        installed only for the traced passes."""
        untraced, traced = [], []
        t0 = perf_counter()
        while True:
            untraced.append(self.run_pass(jobs))
            tracer.install()
            try:
                traced.append(self.run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
            pair = statistics.median(p.elapsed for p in untraced + traced) * 2
            if perf_counter() - t0 + pair > seconds:
                return untraced, traced


def cold_import():
    """Import torusconj.cli in a fresh interpreter, as each CLI call does."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import torusconj.cli"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def setup(workload, seed, runner):
    """Set up several times: a cold import, spec generation and the untimed
    warm-up job. Returns (jobs, median reference seconds of one set-up,
    whether every set-up wrote the same spec files)."""
    times, texts = [], []
    ref = reference_seconds()
    for r in range(SETUP_REPEATS):
        directory = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}", f"setup{r}")
        t0 = perf_counter()
        cold_import()
        jobs, warmup = specgen.generate(workload, seed, directory)
        runner.run(warmup)
        seconds = perf_counter() - t0
        after = reference_seconds()
        times.append(seconds / ((ref + after) / 2) * REF_SECONDS)
        ref = after
        texts.append([_read(j.spec_path) for j in jobs])
    return jobs, statistics.median(times), all(t == texts[0] for t in texts)


def _read(path):
    with open(path) as fh:
        return fh.read()


def pass_wall(passes):
    """Wall time of one pass in reference seconds: the sum over jobs of
    each job's median, over the passes, of its time over the reference
    time next to it, times REF_SECONDS. Per-job medians drop a job slowed
    by a burst of load on the machine without dropping the rest of its
    pass."""
    ratios = zip(*([t / r for t, r in zip(p.job_s, p.job_ref_s)] for p in passes))
    return sum(statistics.median(job) for job in ratios) * REF_SECONDS


def raw_pass_wall(passes):
    """pass_wall in plain seconds, not corrected for the machine's speed."""
    return sum(statistics.median(times) for times in zip(*(p.job_s for p in passes)))


def end_to_end(passes, n_jobs, setup_s):
    failed = statistics.mean(p.failed for p in passes)
    ceilings = passes[0].ceilings
    return {
        "wall_s": pass_wall(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        # add-one estimate, so a workload with no failures reads 1/(n+1), not 0
        "fail_frac": (failed + 1.0) / (n_jobs + 1.0),
        "ceiling_log10": (statistics.mean(checks.ceiling_decades(c) for c in ceilings)
                          if ceilings else 0.0),
    }


def per_layer(tracer, traced, untraced):
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = pass_wall(traced) / pass_wall(untraced) - 1.0
    return metrics


def with_units(values, kind):
    """Attach the units BENCHMARK.json declares; the names must match it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(declared))}")
    return {name: {"value": v, "unit": declared[name]} for name, v in values.items()}


def conditions(args, passes, runner):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, in-process",
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numba": importlib.util.find_spec("numba") is not None,
        "raw_wall_s": round(raw_pass_wall(passes), 4),
        "reference_s": round(statistics.median(r for p in passes for r in p.job_ref_s), 4),
        "pass_elapsed_s": [round(p.elapsed, 4) for p in passes],
        "job_walls_s": [round(t, 4) for t in passes[0].job_s],
        "failures": runner.failures,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(specgen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = import_program()
    runner = Runner(cli, args.seed)
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs, setup_s, deterministic = setup(args.workload, args.seed, runner)
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = runner.run_alternating(jobs, args.seconds, tracer)
            tracer.write(os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
            metrics = with_units(per_layer(tracer, traced, untraced), "per_layer")
            passes = untraced + traced
        else:
            passes = runner.run_passes(jobs, args.seconds)
            metrics = with_units(end_to_end(passes, len(jobs), setup_s), "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    for line in runner.wrong:
        print(f"incorrect output: {line}", file=sys.stderr)
    if not deterministic:
        print("incorrect: the same seed generated different spec files", file=sys.stderr)
    print(json.dumps(conditions(args, passes, runner)))
    print(json.dumps({
        "correct": deterministic and not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
