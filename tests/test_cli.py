import dataclasses
import json
import re
import warnings

import pytest

from torusconj import semiconj
from torusconj.cli import main

from conftest import FIX_1D, FIX_2D, FIX_CAT, FIX_DET2, lehmer_spec_text


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
    # per-alpha verdict are those the ternary-search solver reported
    code, out, _ = run(capsys, "verify-cones", fix2, "--grid", "32")
    assert code == 0
    rep = json.loads(out)
    assert [a["pass"] for a in rep["alphas"]] == [False, True, True, False, False, False]
    factors = [1.7128012554998824, 1.5371788021906225, 1.148924207826233,
               0.6427516111907068, 0.25758750528188473, 0.03866272892051701]
    keys = {"alpha", "K", "expansion_factor", "invariance_margin", "expansion_margin",
            "padding", "domination_margin", "a4_pass", "pass", "pencil_rounds", "pencil_gap"}
    for entry, factor in zip(rep["alphas"], factors):
        assert set(entry) == keys
        assert abs(entry["expansion_factor"] - factor) <= 1e-14
        assert isinstance(entry["pencil_rounds"], int) and entry["pencil_rounds"] >= 2
        assert 0.0 <= entry["pencil_gap"] <= 1e-12
    assert rep["best"]["alpha"] == 0.5


def test_verify_cones_full_block_null_margin(fix1, capsys):
    # k = d: the cone is the whole space, so invariance is vacuous and its
    # margin is reported as null, not as the non-JSON Infinity
    code, out, _ = run(capsys, "verify-cones", fix1, "--grid", "64", "--alpha", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 1 and rep["pass"]
    assert rep["alphas"][0]["invariance_margin"] is None
    assert rep["best"]["invariance_margin"] is None


def test_verify_cones_identity_exit_2(tmp_path, capsys):
    # a failed verdict still emits its report, on stdout and under -o
    p = tmp_path / "ident.map"
    p.write_text("dim=2\nM=[[1,0],[0,1]]\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "verify-cones", str(p), "--grid", "4",
                       "--sublattice", "full", "-o", str(out_dir))
    assert code == 2
    rep = json.loads(out)
    assert rep["pass"] is False and rep["schema_version"] == "1"
    assert json.loads((out_dir / "verify-cones.json").read_text()) == rep
    assert all(not a["a4_pass"] for a in rep["alphas"])


def test_conjugacy(fix2, capsys, tmp_path):
    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "8",
                       "--tol", "1e-9", "--trunc", "40", "-o", out_dir)
    assert code == 0
    rep = json.loads(out)
    assert rep["max_base_residual"] <= rep["ceiling"]
    assert (tmp_path / "out" / "skew_grid.csv").exists()
    assert (tmp_path / "out" / "conjugacy.json").exists()


def test_phi_export(fix1, capsys, tmp_path):
    out_dir = str(tmp_path / "o")
    code, out, _ = run(capsys, "phi", fix1, "--grid", "16", "-o", out_dir)
    assert code == 0
    csv = (tmp_path / "o" / "phi_grid.csv").read_text()
    assert csv.startswith("theta_1,phi_1,error_bound")


# (command, flag, bad value): each must exit 1 with nothing on stdout
BAD_FLAGS = [
    ("validate", "--grid", "8"),            # not a flag of validate
    ("validate", "--seed", "-1"),
    ("analyze", "--trunc", "5"),            # not a flag of analyze
    ("phi", "--format", "csv"),             # no command has --format
    ("phi", "--grid", "x"),
    ("verify-semiconj", "--grid", "1"),
    ("verify-semiconj", "--trunc", "0"),
    ("verify-cones", "--tol", "1e-9"),      # not a flag of verify-cones
    ("verify-cones", "--alpha", "nan"),
    ("verify-cones", "--alpha", "inf"),
    ("verify-cones", "--alpha", "0.5,-1"),
    ("verify-cones", "--alpha", ","),
    ("verify-cones", "--K", "1"),
    ("verify-cones", "--K", "0.5"),
    ("verify-cones", "--K", "nan"),
    ("verify-cones", "--K", "inf"),
    ("conjugacy", "--tol", "0"),
    ("conjugacy", "--tol", "-1e-9"),
    ("conjugacy", "--tol", "nan"),
    ("conjugacy", "--tol", "inf"),
    ("conjugacy", "--alpha", "1"),          # not a flag of conjugacy
]


def test_bad_flags(fix1, capsys):
    for command, flag, value in BAD_FLAGS:
        code, out, err = run(capsys, command, fix1, flag, value)
        assert (code, out) == (1, ""), (command, flag, value)
        assert "error" in err, (command, flag, value)


FLAGS_BY_COMMAND = {
    "validate": {"--seed", "-o"},
    "analyze": {"--sublattice", "-o"},
    "phi": {"--trunc", "--grid", "--sublattice", "-o"},
    "verify-semiconj": {"--trunc", "--grid", "--sublattice", "-o"},
    "verify-cones": {"--grid", "--alpha", "--K", "--sublattice", "-o"},
    "conjugacy": {"--trunc", "--grid", "--tol", "--sublattice", "--seed", "-o"},
}


def test_flags_per_command(capsys):
    for command, flags in FLAGS_BY_COMMAND.items():
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"\[(-{1,2}\w+)", usage)) == flags | {"-h"}, command


def test_deterministic_output(fix2, capsys):
    a = run(capsys, "validate", fix2, "--seed", "7")
    b = run(capsys, "validate", fix2, "--seed", "7")
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
    for argv in (("verify-semiconj", str(p), "--trunc", "8", "--grid", "8"),
                 ("conjugacy", fix2, "--grid", "8", "--tol", "0.3")):
        code, out, _ = run(capsys, *argv)
        rep = json.loads(out)
        assert code == 2 and rep["pass"] is False and rep["vacuous"] is True, argv
        residual = rep.get("max_residual", rep.get("max_base_residual"))
        assert residual <= rep["ceiling"] and rep["ceiling"] >= 0.5, argv
    # a ceiling below it leaves the report as it was: no "vacuous" key
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "8", "--tol", "1e-9")
    assert code == 0 and "vacuous" not in json.loads(out)


def test_vacuous_conjugacy_fails_without_residuals(tmp_path, capsys):
    # the huge map's skew ceiling bounds nothing, and its fibers cannot be
    # solved: the verdict is a vacuous FAIL with exit 2 and no residuals,
    # not an exit 1 from the fiber solver
    p = tmp_path / "huge.map"
    p.write_text(HUGE_G)
    code, out, err = run(capsys, "conjugacy", str(p), "--trunc", "8", "--grid", "8")
    rep = json.loads(out)
    assert (code, err) == (2, "")
    assert rep["pass"] is False and rep["vacuous"] is True and rep["ceiling"] >= 0.5
    assert not {"max_base_residual", "round_trip_max", "diagnostics"} & set(rep)


def test_conjugacy_diagnostics(fix2, capsys):
    # diagnostics is additive: the other keys and the verdict are as before,
    # and the fiber solves' counters are pinned on the 2-D fixture
    code, out, _ = run(capsys, "conjugacy", fix2, "--grid", "8")
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True
    assert set(rep) == {"command", "N", "grid_res", "tol", "max_base_residual", "ceiling",
                        "round_trip_max", "pass", "schema_version", "diagnostics"}
    assert rep["max_base_residual"] <= rep["ceiling"]
    assert rep["diagnostics"] == {"fiber_iters": 14, "scan_points": 2268, "phi_points": 3638}


def test_cone_pencil_overflow_is_typed_error(fix2, tmp_path, capsys):
    # Jacobians near 3e151, or an opening of 1e200: the pencil Q - lambda J
    # would overflow float64, so verify-cones exits 1 with a message, with
    # no NaN report, no warning and no traceback
    p = tmp_path / "huge.map"
    p.write_text(HUGE_G)
    for argv in ((str(p), "--alpha", "1"), (fix2, "--alpha", "1e200")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify-cones", *argv, "--grid", "8")
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: the cone pencils would leave float64"), argv
        assert err.count("\n") == 1, argv


def test_non_finite_report_exits_1(fix2, tmp_path, capsys, monkeypatch):
    # a NaN that reaches a report is a typed error with exit 1: nothing is
    # written to stdout or to -o, never a report that is not JSON
    real = semiconj.semiconjugacy_residual
    monkeypatch.setattr(semiconj, "semiconjugacy_residual",
                        lambda *a: dataclasses.replace(real(*a), max_residual=float("nan")))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "verify-semiconj", fix2, "--grid", "8", "-o", str(out_dir))
    assert (code, out) == (1, "") and not out_dir.exists()
    assert err.startswith("error: the verify-semiconj report holds a NaN")
