"""Compare the CLI outputs of two source trees, job by job.

    python tools/compare_outputs.py OLD_TREE NEW_TREE [--seeds 601-608]
                                    [--workloads NAME ...]

Every job of the perfbench workloads at the given seeds runs through
``torusconj.cli.main`` of each tree, in a fresh interpreter per tree that
imports torusconj from ``TREE/src`` and uses one BLAS thread, as
perfbench/run.py does. The jobs and their spec files come from
perfbench/specgen.py of the checkout holding this script, so both trees
run the same jobs. For each job the exit code, stdout, stderr and every
file written under its ``-o`` directory are hashed, after the work
directory and the tree's path are replaced by fixed placeholders. The jobs
whose hashes differ are printed with the parts that differ; the exit
status is 1 if any job differs and 0 if all are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-expanding", "backward-hyperbolic", "certify-conjugacy")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _files(directory, normalise):
    """{relative path: hash} of every file under directory."""
    out = {}
    for dirpath, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = _sha(normalise(fh.read()))
    return out


def run_tree(tree, workloads, seeds):
    """Run every job on this interpreter's torusconj (from tree/src):
    a list of one record per job."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import specgen
    import torusconj.cli
    if not os.path.abspath(torusconj.cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: torusconj imported from {torusconj.cli.__file__}, not {src}")
    records = []
    with tempfile.TemporaryDirectory() as work:
        def normalise(data: bytes) -> bytes:
            return data.replace(work.encode(), b"<work>").replace(src.encode(), b"<src>")

        for workload in workloads:
            for seed in seeds:
                jobs, _ = specgen.generate(workload, seed, os.path.join(work, f"{workload}-{seed}"))
                for job in jobs:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = torusconj.cli.main(list(job.argv))
                        except SystemExit as e:
                            code = e.code
                        except Exception:
                            traceback.print_exc()
                            code = "traceback"
                    argv = list(job.argv)
                    files = _files(argv[argv.index("-o") + 1], normalise) if "-o" in argv else {}
                    records.append({
                        "job": f"{workload} seed {seed} job {job.job_id}: "
                               + normalise(" ".join(argv).encode()).decode(),
                        "exit": str(code),
                        "stdout": _sha(normalise(out.getvalue().encode())),
                        "stderr": _sha(normalise(err.getvalue().encode())),
                        "files": files,
                    })
    return records


def _run_in_child(tree, workloads, seeds):
    """run_tree in a fresh interpreter with one BLAS thread."""
    argv = [sys.executable, os.path.abspath(__file__), "--worker", tree,
            "--workloads", *workloads, "--seeds", *map(str, seeds)]
    done = subprocess.run(argv, env={**os.environ, **ONE_THREAD}, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _seeds(items):
    """601 602 or 601-608 (inclusive ranges) as a list of ints."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="*", metavar="TREE", help="OLD_TREE NEW_TREE")
    p.add_argument("--seeds", nargs="+", default=["601-608"])
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    p.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.worker:
        print(json.dumps(run_tree(args.worker, args.workloads, seeds)))
        return 0
    if len(args.trees) != 2:
        p.error("give two source trees: OLD_TREE NEW_TREE")
    old, new = (_run_in_child(tree, args.workloads, seeds) for tree in args.trees)
    differ = 0
    for a, b in zip(old, new):
        parts = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
        parts += [f"file {name}" for name in sorted(set(a["files"]) | set(b["files"]))
                  if a["files"].get(name) != b["files"].get(name)]
        if parts:
            differ += 1
            print(f"DIFFERS {a['job']}: {', '.join(parts)} "
                  f"(exit {a['exit']} -> {b['exit']})")
    print(f"{len(old)} jobs of {', '.join(args.workloads)} at seeds {' '.join(args.seeds)}: "
          f"{len(old) - differ} byte-identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
