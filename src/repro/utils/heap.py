"""The process's heap policy: glibc keeps freed memory for reuse.

Under glibc's dynamic thresholds, a freed heap top larger than twice the
largest block seen freed goes back to the kernel, so each forward that
frees its temporaries faulted them in again on the next call (about
7,600 minor faults per 256-view reference forward).  Importing
:mod:`repro` applies :func:`keep_freed_memory` once; forked workers
inherit it.  Trade-off: after a transient peak, up to the trim threshold
of free heap stays resident.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: 32 MiB, the ceiling of glibc's dynamic mmap threshold on 64-bit
#: systems; the trim threshold is twice it, as in glibc's dynamic rule.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    Setting either threshold switches off glibc's dynamic adjustment of
    both.  Returns quietly where the C library has no ``mallopt`` or the
    process has no handle to it (``CDLL(None)`` raises ``TypeError`` on
    Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
