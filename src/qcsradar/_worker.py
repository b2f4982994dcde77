"""The initializer of the workers in :mod:`qcsradar.evaluation`'s pool, and the pool's exit hook.

A pool's worker processes hold their initializer, and its exit hook holds
its callback, for as long as the pool lives.  Were these functions defined
in evaluation, they would hold its globals and so the pool itself: a copy
of the package imported afresh would leave the discarded module, its pool
and its idle workers alive until exit.  Nothing here refers to that pool.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading

# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def start(mmap_threshold: int, trim_threshold: int) -> None:
    """Pool worker initializer: keep the heap (:func:`keep_heap`) and end with the process that started the worker.

    concurrent.futures workers do not watch their parent: one whose owner
    ends without the interpreter's exit (SIGTERM, SIGKILL, ``os._exit``)
    would block on its call queue forever.  A daemon thread waits on the
    parent's sentinel instead and ends the worker when the parent ends.
    (Linux's parent-death signal would fire when the forking thread ends,
    and the pool forks from whichever thread first submits to it.)
    """
    keep_heap(mmap_threshold, trim_threshold)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def keep_heap(mmap_threshold: int, trim_threshold: int) -> None:
    """Keep freed memory in this process's heap between sub-chunks (glibc only)."""
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
    mallopt(_M_TRIM_THRESHOLD, trim_threshold)


def _exit_with(parent) -> None:
    parent.join()
    os._exit(1)


def stop_at_exit(pool_ref, owner: int) -> None:
    """Exit hook: shut the pool down if it is still alive and this process started it."""
    pool = pool_ref()
    if pool is not None and os.getpid() == owner:
        pool.shutdown(wait=True, cancel_futures=True)
