"""Compare the CLI outputs of two source trees, job by job.

    python tools/compare_outputs.py OLD_TREE NEW_TREE [--seeds 601-608]
                                    [--workloads NAME ...]

Every job of the perfbench workloads at the given seeds runs through
``torusconj.cli.main`` of each tree, in a fresh interpreter per tree that
imports torusconj from ``TREE/src`` and uses one BLAS thread, as
perfbench/run.py does. The jobs and their spec files come from
perfbench/specgen.py of the checkout holding this script, so both trees
run the same jobs. After them come the FIXTURE_JOBS, the CLI paths that no
workload job reaches, on spec and --sublattice files written from the test
fixtures of that checkout. For each job the exit code, stdout, stderr and every
file written under its ``-o`` directory are hashed, after the work
directory and the tree's path are replaced by fixed placeholders. The jobs
whose hashes differ are printed with the parts that differ, and where both
stdouts are JSON reports, with the top-level keys whose values differ. Each
such job gets a second line with the largest relative change |new - old| /
|old| over the numbers the two trees wrote in the same place: every number
of the JSON report and every numeric field of a CSV file under ``-o``. A
third line gives the largest relative change of each field that moved,
largest first. A field of the report is the path of its numbers with the
list indices dropped (``alphas.invariance_margin``), one of a CSV file is
the file and a column's header name (``phi_grid.csv phi_1``). The exit
status is 1 if any job differs and 0 if all are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-expanding", "backward-hyperbolic", "certify-conjugacy")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# argv of the fixture jobs: SPEC:name and SUB:name are the files name.map and
# name.json of fixture_files(), OUT a fresh -o directory
FIXTURE_JOBS = (
    ("conjugacy", "SPEC:fix2", "--grid", "8", "-o", "OUT"),   # A2 not certified at grid 8: exit 2
    ("conjugacy", "SPEC:three", "--sublattice", "full", "--grid", "8"),     # k = d fiber solve
    ("phi", "SPEC:fix2", "--grid", "16"),
    ("phi", "SPEC:cat", "--sublattice", "full", "--grid", "8"),             # hyperbolic
    ("analyze", "SPEC:cat", "--sublattice", "full"),
    ("verify-semiconj", "SPEC:huge", "--trunc", "8", "--grid", "8"),        # vacuous
    ("conjugacy", "SPEC:huge", "--trunc", "8", "--grid", "8"),              # vacuous, no fiber
    ("verify-semiconj", "SPEC:fix2", "--grid", "5000000000"),               # oversize grid
    ("verify-semiconj", "SPEC:hyp3", "--sublattice", "full", "--grid", "6"),  # d = 3 inverse lift
    # a stable complex pair: exit 2, vacuous, as the inversion budget's sum
    # of L_inv^j over N = 128 steps, L_inv ~ 1.62, dwarfs the residual
    ("verify-semiconj", "SPEC:plastic", "--sublattice", "full", "--grid", "8"),
    ("verify-cones", "SPEC:three", "--sublattice", "full", "--grid", "8"),  # k = d cone minima
    ("conjugacy", "SPEC:cat", "--sublattice", "full", "--grid", "8"),       # not expanding: exit 1
    # the two conjugacy repros of ROADMAP item 2: no alpha passes A2
    ("conjugacy", "SPEC:shear", "--grid", "32"),            # FAIL, exit 2
    ("conjugacy", "SPEC:shear15", "--grid", "32"),          # FAIL, exit 2: fiber lines not rising
    # k = d fiber solves along the backward orbit: A diagonal, conformal, a Jordan block
    ("conjugacy", "SPEC:diag23", "--sublattice", "full", "--grid", "8"),
    ("conjugacy", "SPEC:conf", "--sublattice", "full", "--grid", "8"),
    ("conjugacy", "SPEC:jordan", "--sublattice", "full", "--grid", "8"),
    # the k = d route over two grid chunks, with its CSV
    ("conjugacy", "SPEC:three", "--sublattice", "full", "--grid", "96", "-o", "OUT"),
    # integers float64 cannot hold: a frequency of 1e20 and N = 1e14, exit 1
    ("validate", "SPEC:bigfreq"),
    ("verify-semiconj", "SPEC:fix2", "--trunc", "100000000000000", "--grid", "4"),
    # the exact eigenvalue questions of intlat: no root, 0 and a double root,
    # a negative root, a d = 3 unimodular block, a defective root 1
    ("analyze", "SPEC:lehmer"),                                 # d = 10, exit 2
    ("analyze", "SPEC:sing3"),
    ("analyze", "SPEC:neg"),
    ("analyze", "SPEC:hyp3", "--sublattice", "full"),
    ("analyze", "SPEC:defective", "--sublattice", "full"),
    ("verify-semiconj", "SPEC:defective", "--sublattice", "full", "--grid", "8"),   # exit 1
    ("phi", "SPEC:cat", "--sublattice", "full", "--grid", "8", "-o", "OUT"),  # hyperbolic CSV
    # the two large-entry unimodular repros of ROADMAP item 1, whose exits it will move
    ("verify-semiconj", "SPEC:big8", "--sublattice", "full", "--grid", "4"),  # exit 1: LU finds no float inverse
    ("verify-semiconj", "SPEC:big6", "--sublattice", "full", "--grid", "4"),  # exit 1: tol floor
    # ||A^-1|| = 1: the series tail closes at the second power of A^-1
    ("verify-semiconj", "SPEC:rot", "--sublattice", "full", "--grid", "32"),
    # the k = 1 cone minima: both in closed form on d = 2 (exit 2: the factor
    # clamps to 0.0 at alpha = 4 and 8, and every invariance margin is
    # negative), closed-form q_exp with pencil q_inv on d = 3 (exit 2)
    ("verify-cones", "SPEC:shear", "--grid", "32"),
    ("verify-cones", "SPEC:d3k1", "--grid", "16"),
    # k = 2 < d = 3: q_exp and q_inv both pencils (PASS at alpha = 0.25)
    ("verify-cones", "SPEC:d3k2", "--sublattice", "SUB:d3k2", "--grid", "16"),
    # k = 1 fiber lines with a 2-D y; A2 is first certified at grid 48: exit 2
    ("conjugacy", "SPEC:d3k1", "--grid", "10", "-o", "OUT"),
    ("conjugacy", "SPEC:fix2", "--grid", "96", "-o", "OUT"),  # a skew CSV of two chunks: PASS
)


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


def _report(stdout: str):
    """stdout as a JSON object, or None if it is not one."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _moved_keys(a, b):
    """The top-level keys of two JSON reports whose values differ, in the
    order of a and then of the keys b alone has."""
    return [key for key in {**a, **b} if key not in a or key not in b or a[key] != b[key]]


def _relative_change(a, b) -> float:
    """|b - a| / |a|: 0 if a == b, inf if a is 0 or either is not finite."""
    if a == b:
        return 0.0
    if not (a and math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def _numbers(value, path=""):
    """(path, number) of each number in a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _csv_numbers(path):
    """(line field, header name, number) of each numeric field of a CSV
    file below its header line, 1-based."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        for line, row in enumerate(rows, 2):
            for field, cell in enumerate(row, 1):
                try:
                    number = float(cell)
                except ValueError:
                    continue
                name = header[field - 1] if field <= len(header) else f"field {field}"
                yield f"line {line} field {field}", name, number


def _largest_change(a, b):
    """(change, where, fields) of two records of one job, comparing their
    JSON reports and the CSV files both -o directories hold number by
    number in the same place: the largest relative change and where it is,
    and (change, field) of the largest change of each field that moved,
    largest first."""
    pairs = []
    if a["report"] is not None and b["report"] is not None:
        old = dict(_numbers(a["report"]))
        pairs += [(f"report {key[1:]}", re.sub(r"\[\d+\]", "", key[1:]), old[key], x)
                  for key, x in _numbers(b["report"]) if key in old]
    for name in sorted(set(a["files"]) & set(b["files"])):
        if name.endswith(".csv") and a["files"][name] != b["files"][name]:
            pairs += [(f"{name} {where}", f"{name} {field}", x, y)
                      for (where, field, x), (_, _, y) in zip(
                          _csv_numbers(os.path.join(a["out"], name)),
                          _csv_numbers(os.path.join(b["out"], name)))]
    changes = [(_relative_change(x, y), where, field) for where, field, x, y in pairs]
    by_field = {}
    for change, _, field in changes:
        by_field[field] = max(change, by_field.get(field, 0.0))
    fields = sorted(((c, f) for f, c in by_field.items() if c), key=lambda cf: -cf[0])
    change, where = max(((c, w) for c, w, _ in changes), default=(0.0, None))
    return change, where, fields


def _change_lines(a, b):
    """The lines printed under a differing job: its largest relative change,
    and the largest of each field that moved."""
    change, where, fields = _largest_change(a, b)
    lines = [f"  largest relative change {change:.3g}" + (f" at {where}" if change else "")]
    if fields:
        lines.append("  by field: " + ", ".join(f"{field} {c:.3g}" for c, field in fields))
    return lines


def fixture_files():
    """{file name: text} of the fixture jobs.  The spec files name.map hold
    the 2-D, cat, d = 3 hyperbolic, plastic, defective and Lehmer
    fixtures, the k = d = 2 maps of FULL_BLOCK_MAPS, a singular d = 3 map,
    a map with a negative eigenvalue, two unimodular maps with entries near
    1e8 and 3e6, expanding d = 3 maps with k = 1 and k = 2, a map with a
    frequency beyond 2^53 and a map with ||A^-1|| = 1, all of
    tests/conftest.py, and HUGE_G, the k = d = 2 map THREE and the shear
    maps SHEAR and SHEAR15 (two sizes of G[2]) of tests/test_cli.py.  The
    --sublattice file d3k2.json holds the k = 2 sublattice of the d = 3
    map d3k2."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import conftest
    import test_cli
    specs = {"fix2": conftest.FIX_2D, "cat": conftest.FIX_CAT, "hyp3": conftest.FIX_HYP3,
             "plastic": conftest.FIX_PLASTIC,
             "huge": test_cli.HUGE_G,
             "three": test_cli.THREE,
             **conftest.FULL_BLOCK_MAPS,
             "shear": test_cli.SHEAR, "shear15": test_cli.SHEAR15,
             "defective": conftest.FIX_DEFECTIVE,
             "lehmer": conftest.lehmer_spec_text(),
             "sing3": conftest.FIX_SING3, "neg": conftest.FIX_NEG,
             "big8": conftest.FIX_BIG8, "big6": conftest.FIX_BIG6,
             "d3k1": conftest.FIX_D3K1, "d3k2": conftest.FIX_D3K2,
             "bigfreq": conftest.FIX_BIGFREQ, "rot": conftest.FIX_ROT}
    return {**{f"{name}.map": text for name, text in specs.items()},
            "d3k2.json": json.dumps(conftest.FIX_D3K2_SUB)}


def run_tree(tree, workloads, seeds, work):
    """Run every job on this interpreter's torusconj (from tree/src), with
    its spec files and -o directories in the new directory work: a list of
    one record per job, the fixture jobs last."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import specgen
    import torusconj.cli
    if not os.path.abspath(torusconj.cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: torusconj imported from {torusconj.cli.__file__}, not {src}")
    records = []
    os.mkdir(work)

    def normalise(data: bytes) -> bytes:
        return data.replace(work.encode(), b"<work>").replace(src.encode(), b"<src>")

    def run(name, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = torusconj.cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:
                traceback.print_exc()
                code = "traceback"
        out_dir = argv[argv.index("-o") + 1] if "-o" in argv else None
        files = _files(out_dir, normalise) if out_dir else {}
        stdout = normalise(out.getvalue().encode())
        records.append({
            "job": f"{name}: " + normalise(" ".join(argv).encode()).decode(),
            "exit": str(code),
            "stdout": _sha(stdout),
            "report": _report(stdout),
            "stderr": _sha(normalise(err.getvalue().encode())),
            "files": files,
            "out": out_dir,
        })

    for workload in workloads:
        for seed in seeds:
            jobs, _ = specgen.generate(workload, seed, os.path.join(work, f"{workload}-{seed}"))
            for job in jobs:
                run(f"{workload} seed {seed} job {job.job_id}", list(job.argv))
    fixtures = os.path.join(work, "fixtures")
    os.mkdir(fixtures)
    for name, text in fixture_files().items():
        with open(os.path.join(fixtures, name), "w") as fh:
            fh.write(text)
    for i, argv in enumerate(FIXTURE_JOBS):
        run(f"fixture job {i}", [
            os.path.join(fixtures, f"{a[5:]}.map") if a.startswith("SPEC:")
            else os.path.join(fixtures, f"{a[4:]}.json") if a.startswith("SUB:")
            else os.path.join(fixtures, f"out{i:02d}") if a == "OUT" else a
            for a in argv])
    return records


def _run_in_child(tree, workloads, seeds, work):
    """run_tree in a fresh interpreter with one BLAS thread."""
    argv = [sys.executable, os.path.abspath(__file__), "--worker", tree, work,
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
    p.add_argument("--worker", nargs=2, metavar=("TREE", "WORK"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.worker:
        tree, work = args.worker
        print(json.dumps(run_tree(tree, args.workloads, seeds, work)))
        return 0
    if len(args.trees) != 2:
        p.error("give two source trees: OLD_TREE NEW_TREE")
    differs = []
    with tempfile.TemporaryDirectory() as work:
        old, new = (_run_in_child(tree, args.workloads, seeds, os.path.join(work, side))
                    for tree, side in zip(args.trees, ("old", "new")))
        for a, b in zip(old, new):
            parts = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
            if "stdout" in parts and a["report"] is not None and b["report"] is not None:
                parts[parts.index("stdout")] = f"stdout (keys {' '.join(_moved_keys(a['report'], b['report']))})"
            parts += [f"file {name}" for name in sorted(set(a["files"]) | set(b["files"]))
                      if a["files"].get(name) != b["files"].get(name)]
            differs.append(bool(parts))
            if parts:
                print(f"DIFFERS {a['job']}: {', '.join(parts)} "
                      f"(exit {a['exit']} -> {b['exit']})")
                print(*_change_lines(a, b), sep="\n")
    # the fixture jobs come last; the workload summary is the last line
    n = len(old) - len(FIXTURE_JOBS)
    for what, flags in ((f"{len(FIXTURE_JOBS)} fixture jobs", differs[n:]),
                        (f"{n} jobs of {', '.join(args.workloads)} at seeds "
                         f"{' '.join(args.seeds)}", differs[:n])):
        print(f"{what}: {len(flags) - sum(flags)} byte-identical, {sum(flags)} differ")
    return 1 if any(differs) else 0


if __name__ == "__main__":
    sys.exit(main())
