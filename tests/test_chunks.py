"""The chunks of the grid sweeps: swept one after another on the calling
thread, in grid order, they give the results of one batch over the whole
grid."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from torusconj import cli, cones, dynamics, semiconj
from torusconj.errors import EngineError

from conftest import FIX_2D, FULL_BLOCK_MAPS


def test_chunked_cone_certificates_equal_one_batch(spec_2d_S, monkeypatch):
    # 576 cells: one pencil batch by default, six chunks of 100 here
    params = [cones.ConeParams(1, a, K) for a in (0.25, 1.0, 4.0) for K in (1.000000001, 1.5)]
    whole = cones.verify_A2(spec_2d_S, params, 24)
    monkeypatch.setattr(semiconj, "CHUNK", 100)
    assert cones.verify_A2(spec_2d_S, params, 24) == whole


def test_first_maximum_wins_across_chunks(engine_2d, monkeypatch):
    # every grid point ties: the argmax is the first point of the first chunk
    monkeypatch.setattr(dynamics, "torus_distance", lambda a, b: np.ones(len(a)))
    monkeypatch.setattr(semiconj, "CHUNK", 100)
    r = semiconj.semiconjugacy_residual(engine_2d, 40)
    assert r.max_residual == 1.0 and r.argmax_point.tolist() == [0.0, 0.0]


def test_error_in_later_chunk_is_raised_in_order(engine_1d, monkeypatch):
    # chunks from theta = 0.5 on all fail; the first of them is reported
    real = semiconj._orbit

    def orbit(engine, Z, *a, **kw):
        if Z[0, 0] >= 0.5:
            raise EngineError(f"chunk from {Z[0, 0]}")
        return real(engine, Z, *a, **kw)

    monkeypatch.setattr(semiconj, "_orbit", orbit)
    monkeypatch.setattr(semiconj, "CHUNK", 100)
    with pytest.raises(EngineError, match=r"^chunk from 0\.5$"):
        semiconj.semiconjugacy_residual(engine_1d, 1000)


@pytest.mark.parametrize("argv", [
    ("verify-semiconj", "fix2.map", "--grid", "8"),
    ("phi", "fix2.map", "--grid", "8", "-o", "out"),
    ("verify-cones", "fix2.map", "--grid", "8"),
    ("conjugacy", "fix2.map", "--grid", "8"),                           # k = 1
    ("conjugacy", "conf.map", "--sublattice", "full", "--grid", "8"),   # k = d
], ids=["verify-semiconj", "phi-o", "verify-cones", "conjugacy-k1", "conjugacy-kd"])
def test_every_chunk_is_swept_on_the_calling_thread(argv, tmp_path, monkeypatch, capsys):
    # 64 grid points in chunks of 16: each orbit, and each chunk of cone
    # cells (which sweeps no orbit), is swept on the thread that ran the
    # command, and no other thread is started
    (tmp_path / "fix2.map").write_text(FIX_2D)
    (tmp_path / "conf.map").write_text(FULL_BLOCK_MAPS["conf"])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(semiconj, "CHUNK", 16)
    threads, chunks = set(), []
    real_orbit, real_jacobian = semiconj._orbit, dynamics.jacobian

    def orbit(*a, **kw):
        threads.add(threading.get_ident())
        return real_orbit(*a, **kw)

    def jacobian(spec, z):
        threads.add(threading.get_ident())
        chunks.append(len(z))
        return real_jacobian(spec, z)

    monkeypatch.setattr(semiconj, "_orbit", orbit)
    monkeypatch.setattr(dynamics, "jacobian", jacobian)
    before = threading.active_count()
    assert cli.main(list(argv)) in (0, 2)
    capsys.readouterr()
    assert threads == {threading.get_ident()}
    assert threading.active_count() == before
    if argv[0] == "verify-cones":
        assert chunks == [16] * 4


def test_cli_import_leaves_concurrent_futures_unloaded():
    # no part of the CLI needs a thread pool: its module is not imported
    src = os.path.dirname(os.path.dirname(semiconj.__file__))
    code = ("import sys; import torusconj.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
