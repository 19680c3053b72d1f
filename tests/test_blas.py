"""The one-BLAS-thread scope around woldlab's entry points."""

import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import woldlab as wl
from woldlab import _blas, cli, decomp, instances
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


def single_wold():
    mu = wl.random_atomic_measure(1, 2, seed=1)
    return lambda: wl.make_single_wold_instance(2, mu, 6, seed=1, scramble_seed=2)


def four_block():
    nu1, nu2 = wl.random_atomic_measure(1, 1, seed=2), wl.random_atomic_measure(1, 1, seed=3)
    eta = wl.random_measure_pair(1, 1, seed=4)
    return lambda: wl.make_four_block_instance(2, nu1, 4, nu2, 4, *eta, (3, 3),
                                               seed=5, scramble_seed=6)


def scrambled_spec():
    spec = wl.InstanceSpec(kind="scrambled", measures=(wl.random_atomic_measure(1, 2, seed=7),),
                           caps=(6, 0), unitary_dims=(2, 1), seed=8)
    return spec.build


#: the builders that return a packaged Instance -> a maker of its inputs,
#: which returns the call; every call draws a random_unitary, whose QR the
#: probe below watches
PACKAGED_BUILDERS = {
    "make_single_wold_instance": single_wold,
    "make_four_block_instance": four_block,
    "InstanceSpec.build": scrambled_spec,
}


@pytest.mark.parametrize("name", list(PACKAGED_BUILDERS))
def test_every_packaged_builder_is_scoped(name):
    owner, _, attr = name.rpartition(".")
    fn = getattr(getattr(instances, owner) if owner else instances, attr)
    assert fn.__wrapped__.__name__ == attr
    assert getattr(wl, owner or attr) is getattr(instances, owner or attr)


@pytest.mark.parametrize("name", list(PACKAGED_BUILDERS))
def test_packaged_builders_draw_their_unitaries_on_one_thread(name, two_threads, monkeypatch):
    seen = []
    real = np.linalg.qr

    def watched(a, *args, **kwargs):
        seen.append(counts())
        return real(a, *args, **kwargs)

    build = PACKAGED_BUILDERS[name]()
    monkeypatch.setattr(np.linalg, "qr", watched)
    build()
    assert seen and all(c == [1] * len(_blas._libs) for c in seen)
    assert counts() == [2] * len(_blas._libs)


# the caps-96 scrambled instance and its InstanceSpec twin, hashed (matrix
# and Gram) in a fresh process at a given OPENBLAS_NUM_THREADS
HASH_SCRIPT = """
import hashlib
import numpy as np
import woldlab as wl
mu = wl.random_atomic_measure(1, 3, seed=3)
insts = (wl.make_single_wold_instance(2, mu, 96, seed=3, scramble_seed=5),
         wl.InstanceSpec(kind="scrambled", measures=(mu,), caps=(96, 0),
                         unitary_dims=(2,), seed=3).build())
for inst in insts:
    T = inst.operators[0]
    h = hashlib.sha256()
    for a in (T.matrix, T.dom.gram):
        h.update(np.ascontiguousarray(a).tobytes())
    print(h.hexdigest())
"""


def instance_hashes(threads):
    src = str(Path(instances.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", HASH_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.split()


def test_packaged_instances_have_the_same_bits_at_one_and_two_threads():
    one = instance_hashes(1)
    assert len(one) == 2
    assert instance_hashes(2) == one
