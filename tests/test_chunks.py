"""The chunk map of semiconj: pooled sweeps give the serial results bit for
bit, in grid order, with a bounded read-ahead, and never a thread where
one chunk or one CPU is all there is; no pool thread outlives the call that
started it."""

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from torusconj import cli, cones, dynamics, semiconj
from torusconj.errors import EngineError

from conftest import FIX_2D, FULL_BLOCK_MAPS


@pytest.fixture
def workers(monkeypatch):
    """set(n): sweep 100-point chunks on n threads."""
    def set_workers(n):
        monkeypatch.setattr(semiconj, "WORKERS", n)
        monkeypatch.setattr(semiconj, "CHUNK", 100)
    return set_workers


@pytest.fixture
def orbit_threads(monkeypatch):
    """The names of the threads that sweep an orbit from now on."""
    names = set()
    real = semiconj._orbit

    def orbit(*a, **kw):
        names.add(threading.current_thread().name)
        return real(*a, **kw)

    monkeypatch.setattr(semiconj, "_orbit", orbit)
    return names


def _chunk_threads():
    return [t for t in threading.enumerate() if t.name.startswith(semiconj.POOL_PREFIX)]


def _results(engines, tmp_path):
    out = []
    for eng, grid in zip(engines, (3000, 40, 40)):
        r = semiconj.semiconjugacy_residual(eng, grid)
        out.append((r.max_residual, r.argmax_point.tolist(), r.inverse_lift_iters,
                    r.backward_sweeps))
    for eng, grid in zip(engines[:2], (3000, 40)):
        semiconj.export_phi_grid(eng, grid, tmp_path / "phi.csv")
        out.append((tmp_path / "phi.csv").read_bytes())
    return out


def _phi_hats(engines):
    theta = np.random.default_rng(5).uniform(-1, 2, size=(1234, 2))
    return [semiconj.phi_hat(eng, theta).value.tobytes() for eng in engines[1:]]


def test_pooled_equals_serial(engine_1d, engine_2d, engine_cat, workers, orbit_threads,
                              tmp_path):
    # the grid sweeps merge their chunks' results on the calling thread;
    # more threads than CPUs and frequent thread switches would show a
    # result lost or out of order.  phi_hat sweeps its batch on the calling
    # thread, whatever WORKERS is
    engines = (engine_1d, engine_2d, engine_cat)
    workers(1)
    serial, phis = _results(engines, tmp_path), _phi_hats(engines)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for n in (2, 5):
            workers(n)
            orbit_threads.clear()
            assert _results(engines, tmp_path) == serial
            assert all(name.startswith(semiconj.POOL_PREFIX) for name in orbit_threads)
            assert _phi_hats(engines) == phis
    finally:
        sys.setswitchinterval(interval)


def test_chunked_cone_certificates_equal_one_batch(spec_2d_S, workers):
    # 576 cells: one pencil batch by default, six chunks of 100 here
    params = [cones.ConeParams(1, a, K) for a in (0.25, 1.0, 4.0) for K in (1.000000001, 1.5)]
    whole = cones.verify_A2(spec_2d_S, params, 24)
    for n in (1, 2):
        workers(n)
        assert cones.verify_A2(spec_2d_S, params, 24) == whole


def test_first_maximum_wins_across_chunks(engine_2d, workers, monkeypatch):
    # every grid point ties: the argmax is the first point of the first chunk
    monkeypatch.setattr(dynamics, "torus_distance", lambda a, b: np.ones(len(a)))
    for n in (1, 2):
        workers(n)
        r = semiconj.semiconjugacy_residual(engine_2d, 40)
        assert r.max_residual == 1.0 and r.argmax_point.tolist() == [0.0, 0.0]


def test_error_in_later_chunk_is_raised_in_order(engine_1d, workers, monkeypatch):
    # chunks from theta = 0.5 on all fail; the first of them is reported
    real = semiconj._orbit

    def orbit(engine, Z, *a, **kw):
        if Z[0, 0] >= 0.5:
            raise EngineError(f"chunk from {Z[0, 0]}")
        return real(engine, Z, *a, **kw)

    monkeypatch.setattr(semiconj, "_orbit", orbit)
    for n in (1, 2):
        workers(n)
        with pytest.raises(EngineError, match=r"^chunk from 0\.5$"):
            semiconj.semiconjugacy_residual(engine_1d, 1000)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_read_ahead_is_bounded(n, workers):
    workers(n)
    taken, ahead = [], []

    def chunks():
        for i in range(40):
            ahead.append(i + 1 - len(taken))
            yield i

    for r in semiconj._map_chunks(lambda i: i * i, chunks()):
        taken.append(r)
    assert taken == [i * i for i in range(40)]
    assert max(ahead) <= 2 * n


def test_one_cpu_or_one_chunk_starts_no_thread(engine_2d, workers, orbit_threads):
    workers(1)
    semiconj.semiconjugacy_residual(engine_2d, 40)
    semiconj.phi_hat(engine_2d, semiconj._grid(2, 40))
    workers(2)
    semiconj.phi_hat(engine_2d, semiconj._grid(2, 10))
    assert orbit_threads == {threading.current_thread().name}


def test_no_pool_thread_outlives_a_pooled_sweep(engine_2d, workers, orbit_threads, tmp_path):
    workers(2)
    for sweep in (lambda: semiconj.semiconjugacy_residual(engine_2d, 40),
                  lambda: semiconj.export_phi_grid(engine_2d, 40, tmp_path / "phi.csv")):
        orbit_threads.clear()
        sweep()
        assert orbit_threads and all(name.startswith(semiconj.POOL_PREFIX)
                                     for name in orbit_threads)
        assert _chunk_threads() == []


def test_no_pool_thread_outlives_a_closed_chunk_map(workers):
    workers(2)
    results = semiconj._map_chunks(lambda i: threading.current_thread().name, range(40))
    assert next(results).startswith(semiconj.POOL_PREFIX)
    results.close()
    assert _chunk_threads() == []


@pytest.mark.parametrize("argv", [
    ("verify-semiconj", "fix2.map", "--grid", "8"),
    ("phi", "fix2.map", "--grid", "8", "-o", "out"),
    ("verify-cones", "fix2.map", "--grid", "8"),
    ("conjugacy", "fix2.map", "--grid", "8"),                           # k = 1
    ("conjugacy", "conf.map", "--sublattice", "full", "--grid", "8"),   # k = d
], ids=["verify-semiconj", "phi-o", "verify-cones", "conjugacy-k1", "conjugacy-kd"])
def test_no_chunk_map_runs_on_a_pool_thread(argv, workers, orbit_threads, tmp_path,
                                            monkeypatch, capsys):
    # the grid sweeps are the one place that chunks: their chunks, on the
    # pool, hand whole batches to phi_hat and H_inverse, which map nothing
    (tmp_path / "fix2.map").write_text(FIX_2D)
    (tmp_path / "conf.map").write_text(FULL_BLOCK_MAPS["conf"])
    monkeypatch.chdir(tmp_path)
    workers(2)
    monkeypatch.setattr(semiconj, "CHUNK", 16)
    entered, real = [], semiconj._map_chunks

    def map_chunks(fn, chunks):
        entered.append(threading.current_thread().name)
        return real(fn, chunks)

    monkeypatch.setattr(semiconj, "_map_chunks", map_chunks)
    assert cli.main(list(argv)) in (0, 2)
    capsys.readouterr()
    assert entered and not [name for name in entered if name.startswith(semiconj.POOL_PREFIX)]
    if argv[0] != "verify-cones":       # the cone check sweeps no orbit
        assert any(name.startswith(semiconj.POOL_PREFIX) for name in orbit_threads)


def test_forked_child_sweeps_on_its_own_pool(engine_2d, workers):
    workers(2)
    expected = semiconj.semiconjugacy_residual(engine_2d, 40).max_residual

    def child():
        r = semiconj.semiconjugacy_residual(engine_2d, 40)
        os._exit(0 if r.max_residual == expected else 3)

    p = multiprocessing.get_context("fork").Process(target=child)
    p.start()
    p.join(timeout=60)
    if p.is_alive():
        p.kill()
        p.join()
        pytest.fail("a forked child hung on the parent's chunk pool")
    assert p.exitcode == 0


def test_cli_import_leaves_concurrent_futures_unloaded():
    # the pool's module is imported on the first pooled sweep, not at start-up
    src = os.path.dirname(os.path.dirname(semiconj.__file__))
    code = ("import sys; import torusconj.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
