"""The chunk map of semiconj: pooled sweeps give the serial results bit for
bit, in grid order, with a bounded read-ahead, and never a thread where
one chunk or one CPU is all there is."""

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from torusconj import cones, dynamics, semiconj
from torusconj.errors import EngineError


@pytest.fixture
def workers(monkeypatch):
    """set(n): sweep 100-point chunks on n threads, from a fresh pool."""
    def set_workers(n):
        monkeypatch.setattr(semiconj, "WORKERS", n)
        monkeypatch.setattr(semiconj, "CHUNK", 100)
        monkeypatch.setattr(semiconj, "_pool", None)
    return set_workers


def _results(engines, tmp_path):
    theta = np.random.default_rng(5).uniform(-1, 2, size=(1234, 2))
    out = []
    for eng, grid in zip(engines, (3000, 40, 40)):
        r = semiconj.semiconjugacy_residual(eng, grid)
        out.append((r.max_residual, r.argmax_point.tolist(), r.inverse_lift_iters,
                    r.backward_sweeps))
    for eng in engines[1:]:
        out.append(semiconj.phi_hat(eng, theta).value.tobytes())
    for eng, grid in zip(engines[:2], (3000, 40)):
        semiconj.export_phi_grid(eng, grid, tmp_path / "phi.csv")
        out.append((tmp_path / "phi.csv").read_bytes())
    return out


def test_pooled_equals_serial(engine_1d, engine_2d, engine_cat, workers, tmp_path):
    # pool threads write disjoint slices of one output array; more threads
    # than CPUs and frequent thread switches would show a lost write
    engines = (engine_1d, engine_2d, engine_cat)
    workers(1)
    serial = _results(engines, tmp_path)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for n in (2, 5):
            workers(n)
            assert _results(engines, tmp_path) == serial
            assert semiconj._pool is not None
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


def test_one_cpu_or_one_chunk_starts_no_thread(engine_2d, workers, monkeypatch):
    seen = set()
    real = semiconj._orbit

    def orbit(*a, **kw):
        seen.add(threading.current_thread())
        return real(*a, **kw)

    monkeypatch.setattr(semiconj, "_orbit", orbit)
    workers(1)
    semiconj.semiconjugacy_residual(engine_2d, 40)
    semiconj.phi_hat(engine_2d, semiconj._grid(2, 40))
    workers(2)
    semiconj.phi_hat(engine_2d, semiconj._grid(2, 10))
    assert seen == {threading.current_thread()} and semiconj._pool is None


def test_forked_child_sweeps_on_its_own_pool(engine_2d, workers):
    workers(2)
    expected = semiconj.semiconjugacy_residual(engine_2d, 40).max_residual
    assert semiconj._pool is not None

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
