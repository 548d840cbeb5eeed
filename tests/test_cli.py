import argparse
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from torusconj import cli, cones, conjmap, semiconj
from torusconj.cli import cmd_validate, main
from torusconj.specdsl import TorusMapSpec, TrigTerm
from torusconj.errors import ContractionError, FiberSolveError

from conftest import (FIX_1D, FIX_2D, FIX_BIG6, FIX_BIG8, FIX_BIGFREQ, FIX_CAT, FIX_D3K1, FIX_D3K2,
                      FIX_D3K2_SUB, FIX_DEFECTIVE, FIX_DET2, FULL_BLOCK_MAPS, lehmer_spec_text)


@pytest.fixture()
def fix1(tmp_path):
    p = tmp_path / "fix1.map"
    p.write_text(FIX_1D)
    return str(p)


@pytest.fixture()
def fix2(tmp_path):
    p = tmp_path / "fix2.map"
    p.write_text(FIX_2D)
    return str(p)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def run(capsys, *argv):
    """Exit code, stdout and stderr of one CLI call; a non-empty stdout
    must parse as strict JSON (no NaN or Infinity)."""
    code = main(list(argv))
    out = capsys.readouterr()
    if out.out:
        json.loads(out.out, parse_constant=_reject_constant)
    return code, out.out, out.err


def test_validate_ok(fix1, capsys):
    code, out, _ = run(capsys, "validate", fix1)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["pass"]
    assert rep["norm_bounds"]["g_sup"] == 0.125


def test_validate_passes_large_entries(tmp_path, capsys):
    # F(z + m) = F(z) + M m holds exactly for integer M: entries near 1e8
    # and 3e6 round M z by 1e-7 and 2e-9, under the a-priori rounding bound
    for text, dev in ((FIX_BIG8, 1e-7), (FIX_BIG6, 1e-9)):
        p = tmp_path / "big.map"
        p.write_text(text)
        code, out, _ = run(capsys, "validate", str(p))
        rep = json.loads(out)
        assert code == 0 and rep["pass"] is True
        assert dev <= rep["equivariance_max_deviation"] <= rep["equivariance_bound"] < 1e-5


def test_validate_fails_a_half_frequency():
    # a spec built past the parser with frequency 0.5 is not Z^2-periodic:
    # its deviation is far over the rounding bound, and validate fails
    spec = TorusMapSpec(2, ((2, 0), (0, 2)), (TrigTerm(1, (0.5, 0.0), "sin", 0.1),))
    rep = cmd_validate(spec, argparse.Namespace())
    assert rep["pass"] is False
    assert rep["equivariance_max_deviation"] > 0.1 > 1e-12 > rep["equivariance_bound"]


def test_validate_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.map"
    p.write_text("dim=2\nM=[[2,1],[0,1]]\nG[1]=0.1*sin(2*pi*(1.5*z1))\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 1
    assert "line 3" in err


def test_validate_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.map"
    p.write_text("")
    code, _, _ = run(capsys, "validate", str(p))
    assert code == 1


def test_validate_missing_file(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/x.map")
    assert code == 1


def test_analyze(fix2, capsys):
    code, out, _ = run(capsys, "analyze", fix2)
    assert code == 0
    rep = json.loads(out)
    assert rep["integer_eigenvalues"] == [1, 2]
    b2 = next(b for b in rep["branches"] if b["eigenvalue"] == 2)
    assert b2["A"] == [[2]]
    assert b2["classification"] == "expanding"
    assert b2["tiling_det"] in (1, -1)


def test_analyze_lehmer_exit_2(tmp_path, capsys):
    p = tmp_path / "lehmer.map"
    p.write_text(lehmer_spec_text())
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert "no integer eigenvalue" in err


def test_analyze_sublattice_full(tmp_path, capsys):
    p = tmp_path / "cat.map"
    p.write_text("dim=2\nM=[[2,1],[1,1]]\nG[1]=0.02*sin(2*pi*(z1))\n")
    code, out, _ = run(capsys, "analyze", str(p), "--sublattice", "full")
    assert code == 0
    rep = json.loads(out)
    assert rep["sublattice_block"]["k"] == 2
    assert rep["sublattice_block"]["classification"] == "hyperbolic"


# sublattice files that are not a JSON list of lists of integers
BAD_SUBLATTICES = ['[[1.5, 0]]', '[[true, 0]]', '"ab"', '5', '{"a": 1}']


def test_bad_sublattice_files(fix2, tmp_path, capsys):
    p = tmp_path / "sub.json"
    for text in BAD_SUBLATTICES:
        p.write_text(text)
        code, out, err = run(capsys, "analyze", fix2, "--sublattice", str(p))
        assert (code, out) == (1, ""), text
        assert "list of lists of integers" in err, text


def test_unreadable_sublattice_json_exits_1(fix2, tmp_path, capsys):
    # malformed JSON, and an integer of 5000 digits, beyond Python's limit
    # on int-string conversion: exit 1 with one error line, no traceback
    p = tmp_path / "sub.json"
    for text in ('[[1, 0]', "[[1" + "0" * 4999 + ", 1]]"):
        p.write_text(text)
        code, out, err = run(capsys, "analyze", fix2, "--sublattice", str(p))
        assert (code, out) == (1, ""), text[:8]
        assert err.startswith(f"error: --sublattice file {p} is not readable JSON: "), text[:8]
        assert err.count("\n") == 1, text[:8]


def test_verify_semiconj(fix2, capsys):
    code, out, _ = run(capsys, "verify-semiconj", fix2, "--grid", "16",
                       "--trunc", "40")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_residual"] <= rep["ceiling"]


def test_verify_semiconj_diagnostics(fix2, tmp_path, capsys):
    # diagnostics is additive: the other keys and the exit code are as before
    cat = tmp_path / "cat.map"
    cat.write_text(FIX_CAT)
    keys = {"command", "mode", "N", "error_bound", "grid_res", "max_residual",
            "ceiling", "argmax_point", "pass", "schema_version", "diagnostics"}
    for argv, sweeps in (((fix2,), 0), ((str(cat), "--sublattice", "full"), 1)):
        code, out, _ = run(capsys, "verify-semiconj", *argv, "--grid", "8")
        rep = json.loads(out)
        assert code == 0 and set(rep) == keys
        diag = rep["diagnostics"]
        assert set(diag) == {"backward_sweeps", "inverse_lift_iters", "point_steps"}
        assert diag["backward_sweeps"] == sweeps
        assert (diag["inverse_lift_iters"] > 0) == (sweeps > 0)
        assert diag["point_steps"] == 64 * (rep["N"] + 1 + sweeps * rep["N"])


# eigenvalues 3, 3, 0: the line of 3 decouples although its Sylvester
# operator is singular
FIX_3D_SHARED = ("dim=3\n"
                 "M=[[3,1,1],[0,1,-2],[0,-1,2]]\n"
                 "G[1]=0.02*sin(2*pi*(z1+z2))\n"
                 "G[2]=0.02*cos(2*pi*(z3))\n"
                 "G[3]=0.01*sin(2*pi*(z2-z1))\n")


def test_shared_eigenvalue_map_decouples(tmp_path, capsys):
    p = tmp_path / "shared.map"
    p.write_text(FIX_3D_SHARED)
    code, out, _ = run(capsys, "verify-semiconj", str(p), "--grid", "8")
    rep = json.loads(out)
    assert code == 0 and rep["pass"]
    assert rep["max_residual"] <= rep["ceiling"]
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    b3 = next(b for b in json.loads(out)["branches"] if b["eigenvalue"] == 3)
    assert b3["decoupled"] and b3["A"] == [[3]]


def test_singular_branch_is_neither(tmp_path, capsys):
    # the eigenvalue-0 branch and the full lattice of a singular M are
    # neither expanding nor hyperbolic, and the engine says so
    p = tmp_path / "shared.map"
    p.write_text(FIX_3D_SHARED)
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    b0 = next(b for b in json.loads(out)["branches"] if b["eigenvalue"] == 0)
    assert b0["classification"] == "neither"
    code, out, err = run(capsys, "verify-semiconj", str(p), "--sublattice", "full",
                         "--grid", "8")
    assert code == 1 and not out
    assert "neither expanding nor hyperbolic" in err


def test_defective_unit_eigenvalue_is_neither(tmp_path, capsys):
    # the full lattice of a map with a defective eigenvalue 1 is neither
    # expanding nor hyperbolic, and the engine refuses it as such
    p = tmp_path / "defective.map"
    p.write_text(FIX_DEFECTIVE)
    code, out, _ = run(capsys, "analyze", str(p), "--sublattice", "full")
    assert code == 0
    assert json.loads(out)["sublattice_block"]["classification"] == "neither"
    code, out, err = run(capsys, "verify-semiconj", str(p), "--sublattice", "full",
                         "--grid", "8")
    assert code == 1 and not out
    assert "neither expanding nor hyperbolic" in err


def test_verify_semiconj_linear(tmp_path, capsys):
    p = tmp_path / "lin.map"
    p.write_text("dim=2\nM=[[2,0],[0,1]]\n")
    code, out, _ = run(capsys, "verify-semiconj", str(p), "--grid", "8",
                       "--trunc", "5")
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-12


def test_verify_cones_pass(fix2, capsys):
    code, out, _ = run(capsys, "verify-cones", fix2, "--grid", "32")
    assert code == 0
    rep = json.loads(out)
    assert rep["best"]["pass"]
    assert isinstance(rep["best"]["domination_margin"], float)
    assert isinstance(rep["best"]["a4_pass"], bool)


def test_verify_cones_pencil_keys(fix2, capsys):
    # pencil_rounds and pencil_gap are additive: the other keys and every
    # per-alpha verdict are those the ternary-search solver reported; k = 1
    # on d = 2 has both minima in closed form, so no pencil is solved
    code, out, _ = run(capsys, "verify-cones", fix2, "--grid", "32")
    assert code == 0
    rep = json.loads(out)
    assert [a["pass"] for a in rep["alphas"]] == [False, True, True, False, False, False]
    factors = [1.7128012554998824, 1.5371788021906225, 1.148924207826233,
               0.6427516111907068, 0.25758750528188473, 0.03866272892051701]
    keys = {"alpha", "K", "expansion_factor", "invariance_margin", "expansion_margin",
            "padding", "domination_margin", "a4_pass", "pass", "pencil_rounds", "pencil_gap",
            "worst_cell"}
    for entry, factor in zip(rep["alphas"], factors):
        assert set(entry) == keys
        assert abs(entry["expansion_factor"] - factor) <= 1e-14
        assert isinstance(entry["pencil_rounds"], int) and entry["pencil_rounds"] == 0
        assert entry["pencil_gap"] == 0.0
    assert rep["best"]["alpha"] == 0.5


def test_verify_cones_full_block_null_margin(fix1, capsys):
    # k = d: the cone is the whole space, so invariance is vacuous and its
    # margin is reported as null, not as the non-JSON Infinity
    code, out, _ = run(capsys, "verify-cones", fix1, "--grid", "64")
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 1 and rep["pass"]
    assert [a["alpha"] for a in rep["alphas"]] == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    assert all(a["invariance_margin"] is None for a in rep["alphas"])
    assert rep["best"]["invariance_margin"] is None


def _d3_cone_jobs(tmp_path):
    """verify-cones argv on d = 3 maps: k = 1 (FIX_D3K1), k = 2 (FIX_D3K2
    on its sublattice) and k = d (FIX_D3K1 on the full lattice)."""
    k1, k2, sub = tmp_path / "d3k1.map", tmp_path / "d3k2.map", tmp_path / "d3k2.json"
    k1.write_text(FIX_D3K1)
    k2.write_text(FIX_D3K2)
    sub.write_text(json.dumps(FIX_D3K2_SUB))
    return [("verify-cones", str(k1), "--grid", "8"),
            ("verify-cones", str(k2), "--sublattice", str(sub), "--grid", "16"),
            ("verify-cones", str(k1), "--sublattice", "full", "--grid", "8")]


def test_verify_cones_k2_pencils_pass(tmp_path, capsys):
    # k = 2 < d = 3: q_exp and q_inv of every cell are pencils; the map
    # passes at grid 16 with the first three openings, best alpha 0.25
    code, out, err = run(capsys, *_d3_cone_jobs(tmp_path)[1])
    rep = json.loads(out)
    assert (code, err, rep["k"], rep["pass"]) == (0, "", 2, True)
    assert [a["pass"] for a in rep["alphas"]] == [True, True, True, False, False, False]
    best = rep["best"]
    assert (best["alpha"], best["pencil_rounds"]) == (0.25, 10)
    assert abs(best["invariance_margin"] - 0.046069) <= 1e-6
    assert all(0.0 <= a["pencil_gap"] <= 1e-11 for a in rep["alphas"])


def test_verify_cones_d3_calls_no_eigh(tmp_path, capsys, monkeypatch):
    # on d = 3 the pencil search and the k = d minimum are closed forms and
    # every value is certified by LDL^T: neither eigh nor eigvalsh is called
    def refuse(*args, **kwargs):
        raise AssertionError("numpy eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    codes = [run(capsys, *argv)[0] for argv in _d3_cone_jobs(tmp_path)]
    assert codes == [2, 0, 2]      # d3k1 does not expand along its unit eigenvalue


@pytest.mark.parametrize("grid, a2", [("32", (0.75, 32)), ("8", (None, 8))])
def test_one_cone_family(fix2, grid, a2, capsys, monkeypatch):
    # verify-cones and the conjugacy A2 gate read the one family of
    # cli.ALPHAS when they run: an opening outside the default family is
    # the one entry reported and the one opening the gate tries
    monkeypatch.setattr(cli, "ALPHAS", (0.75,))
    code, out, _ = run(capsys, "verify-cones", fix2, "--grid", grid)
    rep = json.loads(out)
    assert [(a["alpha"], a["K"]) for a in rep["alphas"]] == [(0.75, cli.K)]
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", grid)
    rep = json.loads(out)
    assert (rep["a2_alpha"], rep["a2_grid"]) == a2 and code == (0 if a2[0] else 2)


def test_verify_cones_identity_exit_2(fix2, tmp_path, capsys):
    # a failed verdict still emits its report, on stdout, and under -o for
    # the commands that take it: conjugacy without A2 at grid 8, exit 2
    p = tmp_path / "ident.map"
    p.write_text("dim=2\nM=[[1,0],[0,1]]\n")
    code, out, _ = run(capsys, "verify-cones", str(p), "--grid", "4", "--sublattice", "full")
    assert code == 2
    rep = json.loads(out)
    assert rep["pass"] is False and rep["schema_version"] == "1"
    assert all(not a["a4_pass"] for a in rep["alphas"])
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "8", "-o", str(out_dir))
    rep = json.loads(out)
    assert code == 2 and rep["pass"] is False and rep["a2_alpha"] is None
    assert json.loads((out_dir / "conjugacy.json").read_text()) == rep


def test_conjugacy(fix2, capsys, tmp_path):
    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "32", "--trunc", "40", "-o", out_dir)
    assert code == 0
    rep = json.loads(out)
    assert rep["max_base_residual"] <= rep["ceiling"] and rep["tol"] == conjmap.TOL
    assert (rep["a2_grid"], rep["a2_alpha"]) == (32, 0.5)
    assert rep["diagnostics"] == {"fiber_iters": 18, "phi_points": 17955}
    assert (tmp_path / "out" / "skew_grid.csv").exists()
    assert (tmp_path / "out" / "conjugacy.json").exists()


def test_phi_export(fix1, capsys, tmp_path):
    out_dir = str(tmp_path / "o")
    code, out, _ = run(capsys, "phi", fix1, "--grid", "16", "-o", out_dir)
    assert code == 0
    csv = (tmp_path / "o" / "phi_grid.csv").read_text()
    assert csv.startswith("theta_1,phi_1,error_bound")


def test_failed_phi_export_leaves_no_csv(fix2, capsys, tmp_path, monkeypatch):
    # the grid's second chunk fails after the first was written: exit 1,
    # and neither the CSV nor its temporary file is left in the -o directory
    real = semiconj.phi_torus

    def fail_after_first_chunk(engine, theta):
        if theta[0].any():
            raise ContractionError("inverse lift residual 1 > tol 1e-15")
        return real(engine, theta)

    monkeypatch.setattr(semiconj, "CHUNK", 16)
    monkeypatch.setattr(semiconj, "phi_torus", fail_after_first_chunk)
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "phi", fix2, "--grid", "8", "-o", str(out_dir))
    assert code == 1 and out == "" and "inverse lift residual" in err
    assert list(out_dir.iterdir()) == []


def test_failed_json_write_leaves_no_report(fix2, capsys, tmp_path, monkeypatch):
    # the JSON report goes through the CSV's all-or-nothing writer: a write
    # that fails after its first block leaves neither the report nor its
    # temporary file in the -o directory, and prints no report
    real = semiconj._write_file

    def fail_after_first_block(path, blocks):
        def failing():
            yield next(iter(blocks))
            raise OSError("No space left on device")
        real(path, failing() if path.endswith(".json") else blocks)

    monkeypatch.setattr(semiconj, "_write_file", fail_after_first_block)
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "phi", fix2, "--grid", "8", "-o", str(out_dir))
    assert code == 1 and out == "" and "No space left on device" in err
    assert [p.name for p in out_dir.iterdir()] == ["phi_grid.csv"]


# (command, flag, bad value): each must exit 1 with nothing on stdout
BAD_FLAGS = [
    ("validate", "--grid", "8"),            # not a flag of validate
    ("validate", "--seed", "0"),            # not a flag of validate
    ("analyze", "--trunc", "5"),            # not a flag of analyze
    ("phi", "--format", "csv"),             # no command has --format
    ("phi", "--grid", "x"),
    ("verify-semiconj", "--grid", "1"),
    ("verify-semiconj", "--trunc", "0"),
    ("verify-cones", "--alpha", "1"),       # not a flag of verify-cones
    ("verify-cones", "--K", "1.2"),         # not a flag of verify-cones
    ("conjugacy", "--alpha", "1"),          # not a flag of conjugacy
    ("conjugacy", "--seed", "0"),           # not a flag of conjugacy
    # no command has --tol: the fiber tolerance is conjmap.TOL
    *[(command, "--tol", "1e-10") for command in cli.COMMANDS],
    # -o only where a CSV is written
    *[(command, "-o", "out") for command in ("validate", "analyze", "verify-semiconj",
                                             "verify-cones")],
]


def test_bad_flags(fix1, capsys):
    for command, flag, value in BAD_FLAGS:
        code, out, err = run(capsys, command, fix1, flag, value)
        assert (code, out) == (1, ""), (command, flag, value)
        assert "error" in err, (command, flag, value)


FLAGS_BY_COMMAND = {
    "validate": set(),
    "analyze": {"--sublattice"},
    "phi": {"--trunc", "--grid", "--sublattice", "-o"},
    "verify-semiconj": {"--trunc", "--grid", "--sublattice"},
    "verify-cones": {"--grid", "--sublattice"},
    "conjugacy": {"--trunc", "--grid", "--sublattice", "-o"},
}


def test_flags_per_command(capsys):
    for command, flags in FLAGS_BY_COMMAND.items():
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"\[(-{1,2}\w+)", usage)) == flags | {"-h"}, command


def test_deterministic_output(fix2, capsys):
    a = run(capsys, "validate", fix2)
    b = run(capsys, "validate", fix2)
    assert a == b


# G overflows float64: a literal that reads as inf, and finite coefficients
# whose norm bounds overflow
OVERFLOW_SPECS = {
    "inf.map": "dim=2\nM=[[2,1],[0,1]]\nG[1]=1e999*sin(2*pi*(z1))\n",
    "big.map": "dim=2\nM=[[2,1],[0,1]]\nG[1]=1e308*sin(2*pi*(3*z1))\n",
}


def test_overflowing_G_is_rejected(tmp_path, capsys):
    for name, text in OVERFLOW_SPECS.items():
        p = tmp_path / name
        p.write_text(text)
        for argv in (("validate",), ("phi", "--trunc", "4"),
                     ("verify-semiconj", "--trunc", "8")):
            code, out, err = run(capsys, argv[0], str(p), *argv[1:])
            assert (code, out) == (1, ""), (name, argv)
            assert err.startswith("error: ") and err.count("\n") == 1, (name, argv)
            assert ("line 3, col 6" if name == "inf.map" else "overflow float64") in err


def test_non_utf8_files(fix2, tmp_path, capsys):
    spec = tmp_path / "bin.map"
    spec.write_bytes(b"dim=1\nM=[[2]]\n\xff\n")
    sub = tmp_path / "bin.json"
    sub.write_bytes(b"\xff[[1, 0]]")
    for argv in (("validate", str(spec)), ("analyze", fix2, "--sublattice", str(sub))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and "not UTF-8" in err, argv
        assert err.count("\n") == 1, argv


def test_uncertified_inverse_lift_exits_1(tmp_path, capsys):
    # the cat fixture with coefficients 0.2: ||M^-1|| * Lip(G) ~ 4.6 >= 1
    p = tmp_path / "cat02.map"
    p.write_text(FIX_CAT.replace("0.02", "0.2"))
    code, out, err = run(capsys, "verify-semiconj", str(p), "--sublattice", "full",
                         "--grid", "8")
    assert (code, out) == (1, "")
    assert "not certified" in err


def test_float_singular_unimodular_hyperbolic_exits_1(tmp_path, capsys):
    # big8 (det M = 1 exactly, float det 0) is not refused as singular: exit
    # 1 with one error line that names the float64 inverse the Newton steps
    # of its lift inverse lack
    p = tmp_path / "big8.map"
    p.write_text(FIX_BIG8)
    code, out, err = run(capsys, "verify-semiconj", str(p), "--sublattice", "full",
                         "--grid", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: M has no float64 inverse") and err.count("\n") == 1
    assert "singular" not in err


def test_non_unimodular_hyperbolic_exits_1(tmp_path, capsys):
    # |det M| = 2: F is 2-to-1 on the torus, so hyperbolic mode is refused
    # with a typed error before any report is written
    p = tmp_path / "det2.map"
    p.write_text(FIX_DET2)
    code, out, err = run(capsys, "verify-semiconj", str(p), "--sublattice", "full")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "det M = 2" in err and err.count("\n") == 1


# finite norm bounds, but G so large that every residual wraps to 0 and
# every ceiling exceeds the torus
HUGE_G = "dim=2\nM=[[2,1],[0,1]]\nG[1]=1e150*sin(2*pi*(3*z1))\n"


def test_vacuous_ceiling_fails(fix2, tmp_path, capsys):
    # a ceiling >= 0.5 sqrt(k), the largest distance on the k-torus,
    # certifies nothing: pass is false with "vacuous": true, and exit 2
    p = tmp_path / "huge.map"
    p.write_text(HUGE_G)
    code, out, _ = run(capsys, "verify-semiconj", str(p), "--trunc", "8", "--grid", "8")
    rep = json.loads(out)
    assert code == 2 and rep["pass"] is False and rep["vacuous"] is True
    assert rep["max_residual"] <= rep["ceiling"] and rep["ceiling"] >= 0.5
    # a ceiling below it leaves the report as it was: no "vacuous" key
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "32")
    rep = json.loads(out)
    assert code == 0 and "vacuous" not in rep
    assert rep["diagnostics"] == {"fiber_iters": 18, "phi_points": 17738}


def test_vacuous_conjugacy_fails_without_residuals(tmp_path, capsys, monkeypatch):
    # the huge map's skew ceiling bounds nothing: the verdict is a vacuous
    # FAIL with exit 2 and no residuals, reached before the A2 gate and
    # before any fiber is solved (its fibers could not be)
    p = tmp_path / "huge.map"
    p.write_text(HUGE_G)
    for module, name in ((conjmap, "H_inverse"), (cones, "verify_A2")):
        monkeypatch.setattr(module, name, lambda *a, **kw: pytest.fail("called"))
    code, out, err = run(capsys, "conjugacy", str(p), "--trunc", "8", "--grid", "8")
    rep = json.loads(out)
    assert (code, err) == (2, "")
    assert rep["pass"] is False and rep["vacuous"] is True and rep["ceiling"] >= 0.5
    assert not {"max_base_residual", "round_trip_max", "a2_alpha", "diagnostics"} & set(rep)


def test_conjugacy_diagnostics(fix2, capsys):
    # diagnostics is additive: the other keys and the verdict are as before,
    # and the fiber solves' counters are pinned on the 2-D fixture
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "32")
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True
    assert set(rep) == {"command", "N", "grid_res", "tol", "max_base_residual", "ceiling",
                        "round_trip_max", "a2_alpha", "a2_grid", "pass", "schema_version",
                        "diagnostics"}
    assert rep["max_base_residual"] <= rep["ceiling"]
    assert rep["diagnostics"] == {"fiber_iters": 18, "phi_points": 17738}


# ROADMAP item 2's repro of a PASS without A2, and the same map with a
# larger G[2], whose fiber lines do not rise
SHEAR = "dim=2\nM=[[2,1],[0,1]]\nG[1]=0.03*sin(2*pi*(z1+z2))\nG[2]=0.06*cos(2*pi*(z1))\n"
SHEAR15 = "dim=2\nM=[[2,1],[0,1]]\nG[1]=0.03*sin(2*pi*(z1+z2))\nG[2]=0.15*cos(2*pi*(z1))\n"


@pytest.mark.parametrize("text", [SHEAR, SHEAR15])
def test_conjugacy_without_A2_fails(text, tmp_path, capsys):
    # no alpha passes A2 up to --grid 32: the verdict fails with exit 2 and
    # a2_alpha null, whatever the residuals, which are still reported
    p = tmp_path / "shear.map"
    p.write_text(text)
    code, out, err = run(capsys, "conjugacy", str(p), "--grid", "32")
    rep = json.loads(out)
    assert (code, err) == (2, "")
    assert rep["pass"] is False and rep["a2_alpha"] is None and rep["a2_grid"] == 32
    assert rep["max_base_residual"] <= rep["ceiling"]
    assert {"round_trip_max", "diagnostics"} <= set(rep)


@pytest.mark.parametrize("grid, verdict", [("8", (2, 8, None)), ("24", (0, 24, 1.0)),
                                           ("32", (0, 32, 0.5))])
def test_conjugacy_gate_refines_to_grid(fix2, grid, verdict, capsys):
    # the gate tries grids 8, 16, 32, ... capped at --grid, and each grid's
    # alphas in order: the 2-D fixture first certifies A2 at grid 24 with
    # alpha 1 and at grid 32 with alpha 0.5, and not at grid 8
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", grid)
    rep = json.loads(out)
    assert (code, rep["a2_grid"], rep["a2_alpha"]) == verdict
    assert rep["pass"] is (code == 0)


THREE = ("dim=2\nM=[[3,0],[0,3]]\nG[1]=0.02*sin(2*pi*(z1+z2))\n"
         "G[2]=0.02*cos(2*pi*(z2))\n")


@pytest.mark.parametrize("name", ["three"] + sorted(FULL_BLOCK_MAPS))
def test_full_block_conjugacy_passes(name, tmp_path, capsys):
    # k = d: the fiber solve undoes the backward orbit, N steps per point,
    # with one Phi evaluation per point (64 grid points and 50 round trips)
    p = tmp_path / "map.map"
    p.write_text(FULL_BLOCK_MAPS.get(name, THREE))
    code, out, err = run(capsys, "conjugacy", str(p), "--sublattice", "full", "--grid", "8")
    rep = json.loads(out)
    assert (code, err) == (0, "") and rep["pass"] is True
    assert rep["max_base_residual"] <= rep["ceiling"]
    assert rep["round_trip_max"] <= (1e-12 if name == "three" else 1e-10)
    assert rep["diagnostics"] == {"fiber_iters": rep["N"], "phi_points": 114}
    assert (rep["a2_grid"], rep["a2_alpha"]) == (8, 0.25)


def test_k_between_1_and_d_exits_1(tmp_path, capsys):
    # k = 2 < d = 3 has no certified fiber solve: exit 1 with a message
    p = tmp_path / "k2.map"
    p.write_text("dim=3\nM=[[3,0,0],[0,3,0],[0,0,1]]\nG[1]=0.02*sin(2*pi*(z1+z3))\n")
    sub = tmp_path / "sub.json"
    sub.write_text("[[1, 0, 0], [0, 1, 0]]")
    code, out, err = run(capsys, "conjugacy", str(p), "--sublattice", str(sub), "--grid", "4")
    assert (code, out, err) == (1, "", "error: no certified fiber solve for 1 < k < d\n")


def test_cone_pencil_overflow_is_typed_error(tmp_path, capsys):
    # Jacobians near 3e151: the pencil Q - lambda J would overflow float64,
    # so verify-cones exits 1 with a message, with no NaN report, no warning
    # and no traceback
    p = tmp_path / "huge.map"
    p.write_text(HUGE_G)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify-cones", str(p), "--grid", "8")
    assert (code, out) == (1, "")
    assert err.startswith("error: the cone pencils would leave float64")
    assert err.count("\n") == 1


def test_truncation_above_bound_exits_1(fix2, capsys):
    # N = 1e14 orbit steps per point: each engine command exits 1 with one
    # error line, before it allocates the series
    for command in ("phi", "verify-semiconj", "conjugacy"):
        code, out, err = run(capsys, command, fix2, "--trunc", "100000000000000", "--grid", "4")
        assert (code, out, err) == (1, "", "error: truncation N = 100000000000000 is above 512\n")


def test_integer_beyond_float64_exits_1(tmp_path, capsys):
    # a frequency of 1e20, parsed or made by the coordinate change of a
    # sublattice basis, is not a float64: exit 1 with one error line
    p = tmp_path / "bigfreq.map"
    p.write_text(FIX_BIGFREQ)
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (1, "")
    assert err == ("error: line 3, col 21: frequency 100000000000000000000 of z1 is beyond "
                   "2^53, where float64 rounds integers\n")
    p.write_text("dim=2\nM=[[2,0],[0,2]]\nG[1]=0.01*sin(2*pi*(z1))\n")
    sub = tmp_path / "sub.json"
    sub.write_text("[[100000000000000000000, 1]]")
    for command in ("verify-semiconj", "verify-cones"):
        code, out, err = run(capsys, command, str(p), "--sublattice", str(sub), "--grid", "4")
        assert (code, out) == (1, ""), command
        assert err.startswith("error: the coordinate change makes the integer ") and \
            err.endswith(", beyond 2^53, where float64 rounds integers\n"), command


def test_non_finite_report_exits_1(fix2, tmp_path, capsys, monkeypatch):
    # a NaN that reaches a report is a typed error with exit 1: nothing is
    # written to stdout or to -o, never a report that is not JSON
    real = semiconj.semiconjugacy_residual
    monkeypatch.setattr(semiconj, "semiconjugacy_residual",
                        lambda *a: dataclasses.replace(real(*a), max_residual=float("nan")))
    code, out, err = run(capsys, "verify-semiconj", fix2, "--grid", "8")
    assert (code, out) == (1, "")
    assert err.startswith("error: the verify-semiconj report holds a NaN")
    # a NaN skew ceiling is vacuous: the report is made before any file is
    monkeypatch.setattr(conjmap, "skew_ceiling", lambda *a: float("nan"))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "conjugacy", fix2, "--grid", "8", "-o", str(out_dir))
    assert (code, out) == (1, "") and not out_dir.exists()
    assert err.startswith("error: the conjugacy report holds a NaN")


def test_unsolvable_fiber_under_a_real_ceiling_exits_1(fix2, capsys, monkeypatch):
    # the skew ceiling bounds something, so a fiber that cannot be solved is
    # an engine failure: exit 1 with the solver's message, and no report
    monkeypatch.setattr(conjmap, "_bracket_halfwidth", lambda eng: -0.25)
    code, out, err = run(capsys, "conjugacy", fix2, "--grid", "8")
    assert (code, out) == (1, "")
    assert err.startswith("error: bracket endpoints do not straddle") and err.count("\n") == 1


@pytest.mark.parametrize("n", [50, 96 ** 2 % semiconj.CHUNK])
def test_failed_conjugacy_fiber_writes_no_csv(n, fix2, tmp_path, capsys, monkeypatch):
    # the k = 1 solve of the 50-point round trip, or of the grid's second
    # chunk after the first was written, fails under a real ceiling: exit 1,
    # and neither the CSV nor its temporary file is left in the -o directory
    real = conjmap._bisect_batch

    def fail(engine, x0, *a):
        if len(x0) == n:
            raise FiberSolveError("fiber solve stalled at residual 1 > tol 1e-10")
        return real(engine, x0, *a)

    monkeypatch.setattr(conjmap, "_bisect_batch", fail)
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "conjugacy", fix2, "--grid", "96", "-o", str(out_dir))
    assert (code, out, err) == (1, "", "error: fiber solve stalled at residual 1 > tol 1e-10\n")
    assert list(out_dir.iterdir()) == []


def test_oversize_grid_is_typed_error(fix2, tmp_path, capsys):
    # 5e9^2 grid points overflow numpy's index type: each grid command exits
    # 1 with one error line, before it makes a grid point or a file
    for command in ("verify-semiconj", "verify-cones", "phi", "conjugacy"):
        out_dir = tmp_path / command
        out_flag = ("-o", str(out_dir)) if command in ("phi", "conjugacy") else ()
        code, out, err = run(capsys, command, fix2, "--grid", "5000000000", *out_flag)
        assert (code, out) == (1, ""), command
        assert err == "error: a grid of 5000000000^2 points has more than numpy can index\n"
        assert not out_dir.exists() or not any(out_dir.iterdir()), command
    # phi without -o samples at most 8 points per axis, whatever --grid says
    code, out, _ = run(capsys, "phi", fix2, "--grid", "5000000000")
    assert code == 0 and len(json.loads(out)["sample"]["theta"]) == 64
