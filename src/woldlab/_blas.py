"""One BLAS thread inside woldlab's entry points.

The decompositions run hundreds of dense factorizations of matrices with
D <= ~300 rows, where OpenBLAS threads only wait on one another.  Each
decorated entry point sets every OpenBLAS copy loaded in the process
(numpy's and scipy's) to one thread, and the outermost exit restores the
counts it found, also when the call raises.  Nested calls and calls from
several threads share one scope.  Without a loaded OpenBLAS, or without
``/proc``, the decorator does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
           "openblas_{}_num_threads64_", "openblas_{}_num_threads")

_lock = threading.Lock()
_depth = 0
_libs = None        # [(getter, setter)] of every OpenBLAS, found on first use
_saved = []         # [(setter, count)] taken at the outermost entry


def _find_libs() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


def _enter():
    global _depth, _libs, _saved
    with _lock:
        if _depth == 0:
            if _libs is None:
                _libs = _find_libs()
            _saved = [(put, get()) for get, put in _libs]
            for put, _ in _saved:
                put(1)
        _depth += 1


def _leave():
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0:
            for put, count in _saved:
                put(count)


def one_blas_thread(fn):
    """Run ``fn`` with every loaded OpenBLAS at one thread (re-entrant)."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        _enter()
        try:
            return fn(*args, **kwargs)
        finally:
            _leave()
    return scoped
