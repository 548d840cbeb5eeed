"""The benchmark's tracer reads the trig kernel's arguments by position:
Z is argument 0 and coefs argument 2, with len(coefs) the phase rows
evaluated per point.  This test runs the tracer file as it stands against
the kernel's signature."""

import importlib.util
import pathlib

from torusconj import cli, dynamics

from conftest import FIX_2D

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_semiconj_counts_unique_phase_rows(spec_2d_S, tmp_path, capsys):
    tracing = _load_tracer()
    p = tmp_path / "fix2.map"
    p.write_text(FIX_2D)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.job_id = 0
        tr.recording = True
        code = cli.main(["verify-semiconj", str(p), "--grid", "8", "--trunc", "12"])
        tr.recording = False
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert code == 0
    spans = tr.arrays()
    assert len(spans["failed"]) > 0 and not spans["failed"].any()
    metrics = tracing.layer_metrics(tr, 1)
    # 3 terms in block coordinates, 2 unique (frequency, kind) rows
    U = len(dynamics.term_arrays(spec_2d_S).coefs)
    assert U == 2 < len(spec_2d_S.terms)
    assert metrics["kernels.trig_points"] == 64 * 13       # one sweep of N + 1 steps
    assert metrics["kernels.trig_term_evals"] == metrics["kernels.trig_points"] * U
