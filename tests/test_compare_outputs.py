import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_seed_ranges():
    assert compare_outputs._seeds(["601-603", "610"]) == [601, 602, 603, 610]


def test_a_changed_csv_byte_is_a_differing_job(tmp_path, capsys):
    # a tree whose phi export prints the error bound with one more digit:
    # both phi jobs differ in their CSV only, both verify jobs are identical
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
    differing = [line for line in out if line.startswith("DIFFERS")]
    assert len(differing) == 2
    assert all(" phi <work>/" in line and line.endswith(": file phi_grid.csv (exit 0 -> 0)")
               for line in differing)
