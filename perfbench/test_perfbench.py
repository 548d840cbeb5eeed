"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import random
import time

import numpy as np
import pytest

import checks
import run
import specgen
import tracer as tracing

cli = run.import_program()


def _spec_bytes(jobs):
    paths = sorted({j.spec_path for j in jobs})
    return [open(p, "rb").read() for p in paths]


@pytest.mark.parametrize("workload", sorted(specgen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_differs(workload, tmp_path):
    a, _ = specgen.generate(workload, 7, str(tmp_path / "a"))
    b, _ = specgen.generate(workload, 7, str(tmp_path / "b"))
    c, _ = specgen.generate(workload, 8, str(tmp_path / "c"))
    assert _spec_bytes(a) == _spec_bytes(b)
    assert _spec_bytes(a) != _spec_bytes(c)


@pytest.mark.parametrize("workload", sorted(specgen.WORKLOADS))
def test_generated_maps_meet_their_slot(workload):
    rng = random.Random(3)
    for slot in specgen.WORKLOADS[workload]:
        terms = specgen.draw_map(rng, slot)
        g_sup, lip = specgen.norm_bounds(len(slot.M), terms)
        assert len(terms) == slot.n_terms
        assert g_sup == pytest.approx(slot.g_sup, rel=1e-5)
        assert slot.lip_lo <= lip <= slot.lip_hi


def test_hyperbolic_slots_are_contractions():
    for slot in specgen.WORKLOADS["backward-hyperbolic"]:
        minv = np.linalg.norm(np.linalg.inv(np.array(slot.M, dtype=float)), 2)
        assert minv * slot.lip_hi < 0.9


def test_self_times_of_nested_tree_sum_to_root():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9] > b1 [6,7], b2 [7,8.5]
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 8.5])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    st = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(st, [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert st.sum() == pytest.approx(end[0] - start[0])


def test_wrapped_calls_record_parents_and_self_time():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.002)

    def outer():
        w_inner()
        w_inner()

    w_inner = tr.wrap("dynamics", "inner", inner)
    w_outer = tr.wrap("cli", "outer", outer)
    tr.recording = True
    w_outer()
    tr.recording = False
    a = tr.arrays()
    assert list(a["parent"]) == [-1, 0, 0]
    st = tracing.self_times(a["start"], a["end"], a["parent"])
    assert st.sum() == pytest.approx(a["end"][0] - a["start"][0])
    assert st[1] >= 0.002 and st[2] >= 0.002


def test_install_rebinds_imported_names_and_uninstall_restores():
    import torusconj
    from torusconj import specdsl
    original = specdsl.parse_spec
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.parse_spec is specdsl.parse_spec is torusconj.parse_spec
        assert cli.parse_spec is not original
        assert cli.parse_spec.__wrapped__ is original
    finally:
        tr.uninstall()
    assert cli.parse_spec is original and torusconj.parse_spec is original


def _floor_job(tmp_path):
    """A [[3,2],[1,1]] map at contraction rate ~0.6, which trips the 1e-15
    floor of the inverse-lift tolerance in hyperbolic mode."""
    slot = max((s for s in specgen.WORKLOADS["backward-hyperbolic"]
                if s.M == ((3, 2), (1, 1))), key=lambda s: s.lip_lo)
    path = tmp_path / "floor.spec"
    path.write_text(specgen.spec_text(slot.M, specgen.draw_map(random.Random(0), slot)))
    argv = ("verify-semiconj", str(path), "--sublattice", "full", "--grid", "32")
    return specgen.Job(0, str(path), argv)


def test_floor_failure_is_one_failed_job(tmp_path):
    runner = run.Runner(cli, 0)
    p = runner.run_pass([_floor_job(tmp_path)])
    assert (runner.attempted, runner.failed, p.failed) == (1, 1, 1)
    assert p.ceilings == [] and runner.wrong == []
    (reason,) = runner.failures
    assert "inverse lift residual" in reason and "tol 1e-15" in reason


@pytest.mark.parametrize("exc", [ZeroDivisionError("boom"), SystemExit(2)])
def test_traceback_is_a_failed_job_not_a_harness_crash(exc, tmp_path, monkeypatch):
    runner = run.Runner(cli, 0)

    def boom(argv):
        raise exc

    monkeypatch.setattr(runner.cli, "main", boom)
    p = runner.run_pass([_floor_job(tmp_path)])
    assert p.failed == 1 and runner.wrong == []


def _report(**kw):
    base = {"schema_version": "1", "command": "verify-semiconj", "pass": True,
            "max_residual": 1e-12, "ceiling": 1e-9}
    base.update(kw)
    return json.dumps(base)


@pytest.mark.parametrize("stdout, wrong", [
    ("not json", True),
    (_report(schema_version="2"), True),
    (_report(max_residual=2e-9), True),
    (_report(**{"pass": False}), False),
])
def test_bad_reports_fail_the_job(stdout, wrong):
    job = specgen.Job(0, "unused.spec", ("verify-semiconj",))
    reason, is_wrong = checks.check_job(job, 0, stdout, np.random.default_rng(0))
    assert reason is not None and is_wrong == wrong


def test_good_report_passes():
    job = specgen.Job(0, "unused.spec", ("verify-semiconj",))
    assert checks.check_job(job, 0, _report(), np.random.default_rng(0)) == (None, False)


def test_pass_wall_divides_each_job_by_its_reference_time():
    # the second pass ran on a machine twice as slow: same reference seconds
    fast = run.Pass(3.0, 0, [], [1.0, 2.0], [0.1, 0.1])
    slow = run.Pass(6.0, 0, [], [2.0, 4.0], [0.2, 0.2])
    assert run.pass_wall([fast]) == pytest.approx(3.0 * run.REF_SECONDS / 0.1)
    assert run.pass_wall([fast, slow]) == pytest.approx(run.pass_wall([fast]))
    assert run.raw_pass_wall([fast, slow]) == pytest.approx(4.5)
