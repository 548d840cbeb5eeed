import importlib.util
import pathlib
import re
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_seed_ranges():
    assert compare_outputs._seeds(["601-603", "610"]) == [601, 602, 603, 610]


def test_a_changed_csv_byte_is_a_differing_job(tmp_path, capsys):
    # a tree whose phi export prints the error bound with one more digit:
    # both phi jobs differ in their CSV only, both verify jobs are identical,
    # and of the fixture jobs only the hyperbolic phi -o job differs
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "torusconj" / "semiconj.py"
    text = path.read_text()
    assert text.count('"%.6g" % engine.eps') == 1
    path.write_text(text.replace('"%.6g" % engine.eps', '"%.7g" % engine.eps'))
    code = compare_outputs.main([str(ROOT), str(tmp_path), "--seeds", "601",
                                 "--workloads", "sweep-expanding"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-1].endswith("2 byte-identical, 2 differ")
    n = len(compare_outputs.FIXTURE_JOBS)
    assert out[-2] == f"{n} fixture jobs: {n - 1} byte-identical, 1 differ"
    differing = [line for line in out if line.startswith("DIFFERS")]
    assert len(differing) == 3
    assert all(" phi <work>/" in line and line.endswith(": file phi_grid.csv (exit 0 -> 0)")
               for line in differing)
    assert " phi <work>/fixtures/cat.map --sublattice full " in differing[-1]


def test_fixture_jobs_reach_what_the_workloads_miss(tmp_path, capsys):
    # a tree whose skew-product CSV prints its F_y columns one digit
    # shorter: no workload job writes that CSV, and the three fixture jobs
    # whose CSV has F_y columns (d = 2 at grid 8 in one chunk and at grid 96
    # in two, d = 3) differ in it alone; the k = d CSV has none
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "torusconj" / "conjmap.py"
    text = path.read_text()
    assert text.count('["%.17g"] * m') == 1
    path.write_text(text.replace('["%.17g"] * m', '["%.16g"] * m'))
    code = compare_outputs.main([str(ROOT), str(tmp_path), "--seeds", "601",
                                 "--workloads", "sweep-expanding"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    n = len(compare_outputs.FIXTURE_JOBS)
    assert out[-2:] == [f"{n} fixture jobs: {n - 3} byte-identical, 3 differ",
                        "4 jobs of sweep-expanding at seeds 601: 4 byte-identical, 0 differ"]
    differing = [line for line in out if line.startswith("DIFFERS")]
    assert len(differing) == 3
    assert differing[0].startswith("DIFFERS fixture job 0: conjugacy <work>/fixtures/fix2.map")
    assert differing[1].startswith(f"DIFFERS fixture job {n - 2}: conjugacy <work>/fixtures/d3k1.map")
    assert differing[2].startswith(f"DIFFERS fixture job {n - 1}: conjugacy <work>/fixtures/fix2.map "
                                   "--grid 96")
    # A2 is not certified at grid 8 (fix2) or 10 (d3k1): both fail with exit
    # 2, and still write their CSV
    assert [line.split(": file skew_grid.csv ")[1] for line in differing] == [
        "(exit 2 -> 2)", "(exit 2 -> 2)", "(exit 0 -> 0)"]


def test_a_moved_report_value_is_named(tmp_path, capsys):
    # a tree whose verify-semiconj report says grid_res + 1 and adds a key:
    # both verify jobs differ in stdout, and the line names the two keys
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "torusconj" / "cli.py"
    text = path.read_text()
    assert text.count('"grid_res": rr.grid_res,') == 1
    path.write_text(text.replace('"grid_res": rr.grid_res,',
                                 '"grid_res": rr.grid_res + 1, "extra": 0,'))
    assert compare_outputs._moved_keys({"a": 1, "b": [2]}, {"a": 1, "b": [3], "c": 4}) == ["b", "c"]
    code = compare_outputs.main([str(ROOT), str(tmp_path), "--seeds", "601",
                                 "--workloads", "sweep-expanding"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-1].endswith("2 byte-identical, 2 differ")
    differing = [line for line in out if line.startswith("DIFFERS")
                 and not line.startswith("DIFFERS fixture")]
    assert len(differing) == 2
    assert all(" verify-semiconj <work>/" in line
               and line.endswith(": stdout (keys grid_res extra) (exit 0 -> 0)")
               for line in differing)


def test_a_differing_job_names_its_largest_relative_change(tmp_path, capsys):
    # a tree whose phi export writes 1.5 eps as the error bound and whose
    # verify-semiconj report doubles grid_res: the phi jobs move by 0.5 in
    # the last CSV field (eps to 6 digits), the verify jobs by 1 in the report
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new in (("semiconj.py", '"%.6g" % engine.eps', '"%.6g" % (1.5 * engine.eps)'),
                           ("cli.py", '"grid_res": rr.grid_res,', '"grid_res": 2 * rr.grid_res,')):
        path = tmp_path / "src" / "torusconj" / name
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    code = compare_outputs.main([str(ROOT), str(tmp_path), "--seeds", "601",
                                 "--workloads", "sweep-expanding"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-1].endswith("0 byte-identical, 4 differ")
    pairs = [(out[i], out[i + 1]) for i, line in enumerate(out) if line.startswith("DIFFERS sweep")]
    assert len(pairs) == 4
    for differs, change in pairs:
        if " phi " in differs:
            assert re.fullmatch(r"  largest relative change 0\.5 at phi_grid\.csv line \d+ field \d+",
                                change)
        else:
            assert change == "  largest relative change 1 at report grid_res"
    assert compare_outputs._relative_change(0.0, 0.0) == 0.0
    assert compare_outputs._relative_change(0.0, 1e-300) == float("inf")
    assert compare_outputs._relative_change(-2.0, -1.0) == 0.5


def test_a_differing_job_names_the_change_of_each_field(tmp_path):
    # the report's alphas entries make one field, list indices dropped, a
    # CSV column is its file and header name, the fields come largest
    # first, and a number that did not move names no field
    records = []
    for side, phi, margins, rounds in (("old", 0.25, (1.0, 2.0), 4),
                                       ("new", 0.375, (1.0 + 2.0 ** -40, 2.0 + 2.0 ** -37), 0)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "phi_grid.csv").write_text(
            f"theta_1,phi_1,err\r\n0,{phi},1e-9\r\n0.5,0.5,1e-9\r\n")
        records.append({"report": {"alphas": [{"alpha": a, "invariance_margin": m}
                                              for a, m in zip((0.5, 1.0), margins)],
                                   "pencil_rounds": rounds, "a2_pass": True},
                        "files": {"phi_grid.csv": side}, "out": str(tmp_path / side)})
    assert compare_outputs._change_lines(*records) == [
        "  largest relative change 1 at report pencil_rounds",
        "  by field: pencil_rounds 1, phi_grid.csv phi_1 0.5, alphas.invariance_margin 3.64e-12"]
    assert compare_outputs._change_lines(records[0], records[0]) == ["  largest relative change 0"]


def test_fixture_jobs_reach_the_full_block_route(tmp_path, capsys):
    # a tree whose k = d fiber solve counts one more backward step: the
    # conjugacy job of certify-conjugacy (k = 1) is identical, and the five
    # k = d conjugacy fixture jobs differ in their diagnostics alone (the
    # one with -o in its JSON report too, and not in its CSV)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "torusconj" / "conjmap.py"
    text = path.read_text()
    add = "stats.add(engine.N, len(X))"
    assert text.count(add) == 1
    path.write_text(text.replace(add, "stats.add(engine.N + 1, len(X))"))
    code = compare_outputs.main([str(ROOT), str(tmp_path), "--seeds", "601",
                                 "--workloads", "certify-conjugacy"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    n = len(compare_outputs.FIXTURE_JOBS)
    assert out[-2] == f"{n} fixture jobs: {n - 5} byte-identical, 5 differ"
    assert out[-1] == "9 jobs of certify-conjugacy at seeds 601: 9 byte-identical, 0 differ"
    differing = [line for line in out if line.startswith("DIFFERS")]
    assert [line.split(":")[0] for line in differing] == [
        f"DIFFERS fixture job {i}" for i in (1, 14, 15, 16, 17)]
    assert all(line.endswith(": stdout (keys diagnostics) (exit 0 -> 0)") for line in differing[:4])
    assert differing[4].endswith(
        ": stdout (keys diagnostics), file conjugacy.json (exit 0 -> 0)")
    assert [line.split("fixtures/")[1].split(".map")[0] for line in differing] == [
        "three", "diag23", "conf", "jordan", "three"]


def test_fixture_jobs_reach_the_complex_pair_split(tmp_path, capsys):
    # a tree whose real basis of a complex eigenvalue pair doubles the
    # imaginary part: every backward-hyperbolic map is d = 2 with real
    # eigenvalues and is identical, and of the fixture jobs only the plastic
    # map's verify-semiconj, whose stable pair is complex, differs
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "torusconj" / "semiconj.py"
    text = path.read_text()
    pair = "vecs = [V[:, i].real, V[:, i].imag]"
    assert text.count(pair) == 1
    path.write_text(text.replace(pair, "vecs = [V[:, i].real, 2 * V[:, i].imag]"))
    code = compare_outputs.main([str(ROOT), str(tmp_path), "--seeds", "601",
                                 "--workloads", "backward-hyperbolic"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    n = len(compare_outputs.FIXTURE_JOBS)
    assert out[-2:] == [f"{n} fixture jobs: {n - 1} byte-identical, 1 differ",
                        "15 jobs of backward-hyperbolic at seeds 601: 15 byte-identical, 0 differ"]
    differing = [line for line in out if line.startswith("DIFFERS")]
    assert len(differing) == 1
    assert differing[0].startswith("DIFFERS fixture job 9: verify-semiconj "
                                   "<work>/fixtures/plastic.map --sublattice full")
