"""The one-BLAS-thread scope around woldlab's entry points."""

import inspect
import sys
import threading

import numpy as np
import pytest

import woldlab as wl
from woldlab import _blas, cli, decomp
from woldlab.space import EuclideanSpace

# every public function that woldlab.decomp defines (not the ones it imports)
DECOMP_ENTRY_POINTS = sorted(
    name for name, obj in vars(decomp).items()
    if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == decomp.__name__
)


def counts():
    return [get() for get, _ in _blas._libs]


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS at 2 threads, so a restore is visible; the
    counts found before are put back afterwards."""
    probe()
    if not _blas._libs:
        pytest.skip("no OpenBLAS loaded in this process")
    before = counts()
    for _, put in _blas._libs:
        put(2)
    yield
    for (_, put), count in zip(_blas._libs, before):
        put(count)


@_blas.one_blas_thread
def probe():
    return counts()


@_blas.one_blas_thread
def nested_probe():
    return probe() + counts()


def test_inside_the_scope_every_library_reads_one_thread(two_threads):
    assert probe() == [1] * len(_blas._libs)


def test_counts_restored_after_return(two_threads):
    probe()
    assert counts() == [2] * len(_blas._libs)
    assert _blas._depth == 0


def test_counts_restored_after_an_exception(two_threads):
    sp = EuclideanSpace(2)
    jordan = wl.OperatorModel(sp, sp, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(wl.AssumptionError):
        wl.wold_single(jordan)
    assert counts() == [2] * len(_blas._libs)
    assert _blas._depth == 0


def test_counts_restored_after_nested_calls(two_threads):
    assert nested_probe() == [1] * (2 * len(_blas._libs))
    assert counts() == [2] * len(_blas._libs)


def test_overlapping_threads_share_one_scope(two_threads):
    a_in, b_in, a_out, b_done = (threading.Event() for _ in range(4))
    seen = {}

    @_blas.one_blas_thread
    def first():
        a_in.set()
        b_in.wait(10)
        seen["a"] = counts()

    @_blas.one_blas_thread
    def second():
        a_in.wait(10)
        b_in.set()
        a_out.wait(10)
        seen["b after a left"] = counts()

    ta = threading.Thread(target=lambda: (first(), a_out.set()))
    tb = threading.Thread(target=lambda: (second(), b_done.set()))
    tb.start()
    ta.start()
    ta.join(10)
    tb.join(10)
    assert not ta.is_alive() and not tb.is_alive() and b_done.is_set()
    one = [1] * len(_blas._libs)
    assert seen == {"a": one, "b after a left": one}
    assert counts() == [2] * len(_blas._libs)


def test_many_threads_entering_and_leaving(two_threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    inside = []
    try:
        def work():
            for _ in range(200):
                inside.append(probe())

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(inside) == 8 * 200
    assert all(c == [1] * len(_blas._libs) for c in inside)
    assert _blas._depth == 0
    assert counts() == [2] * len(_blas._libs)


@pytest.mark.parametrize("name", DECOMP_ENTRY_POINTS)
def test_every_decomp_entry_point_is_scoped(name):
    fn = getattr(decomp, name)
    assert fn.__wrapped__.__name__ == name
    assert getattr(wl, name) is fn


def test_cli_run_is_scoped():
    assert cli.run.__wrapped__.__name__ == "run"
