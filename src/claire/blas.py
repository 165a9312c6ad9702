"""The threads claire's numeric work runs on.

Work that claire splits into lanes (the table digest, explain's coalition
values) runs one lane per CPU this process may use (``usable_cpus``), on
``in_lanes``, the one place in claire that starts threads.

OpenBLAS can give other bits at another thread count, and its threads
would compete with the lanes for the cores. ``one_thread`` holds the
OpenBLAS that numpy loaded (its wheel's ``numpy.libs/libscipy_openblas64_*``)
at one thread through ``ctypes``, as threadpoolctl does. With another BLAS
build there is no such setter, and it leaves the thread count alone.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def in_lanes(lanes: int, jobs) -> None:
    """Run each job of the iterable ``jobs`` as ``job(lane)`` on every lane
    0 .. lanes - 1, one job at a time. The calling thread is lane 0 and
    draws the next job only once every lane has finished the last one; the
    other lanes are threads started here and joined before it returns. An
    exception in any lane is raised here after every lane is joined."""
    if lanes == 1:
        for job in jobs:
            job(0)
        return
    barrier = threading.Barrier(lanes)
    current, failed = [None], []

    def lane(i):
        try:
            while True:
                barrier.wait()
                current[0](i)
                barrier.wait()
        except threading.BrokenBarrierError:     # the caller is done, or a lane failed
            pass
        except BaseException as exc:
            failed.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=lane, args=(i,)) for i in range(1, lanes)]
    try:
        for thread in threads:
            thread.start()
        for job in jobs:
            current[0] = job
            barrier.wait()
            job(0)
            barrier.wait()
    except threading.BrokenBarrierError:
        if not failed:
            raise
    finally:
        barrier.abort()
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if failed:
        raise failed[0]


@functools.cache
def thread_calls():
    """The get and set thread count calls of the OpenBLAS that numpy has
    loaded, or None. A library that is not loaded already is not loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if name.startswith("libscipy_openblas64_") and ".so" in name:
            try:
                lib = ctypes.CDLL(os.path.join(libs, name), mode=os.RTLD_NOLOAD)
                return (lib.scipy_openblas_get_num_threads64_,
                        lib.scipy_openblas_set_num_threads64_)
            except (OSError, AttributeError):
                pass
    return None


@contextmanager
def one_thread():
    """Hold BLAS at one thread for the body and give True, then restore
    the count it had, also when the body raises. Give False, and touch
    nothing, when the count cannot be set."""
    calls = thread_calls()
    if calls is None:
        yield False
        return
    get, set_threads = calls
    before = get()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)
