"""One BLAS thread for deterministic science.

OpenBLAS splits a GEMM's reductions by thread, so a campaign's floats —
and its result digest — depend on how many threads BLAS runs.  The
thread count is normally fixed by environment variables read when numpy
first loads, which only a launcher controls.  :func:`pin_blas_threads`
instead sets it at run time, through the setter that numpy's bundled
OpenBLAS exports, so every launcher gets the same result.

Nothing happens at import: the library is looked up on the first call,
among the shared objects this process has mapped.  Where no setter is
found (another BLAS, or a platform without ``/proc/self/maps``) the
call returns :data:`BLAS_UNPINNED` and the caller records it.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Callable

__all__ = ["BLAS_PINNED", "BLAS_UNPINNED", "pin_blas_threads"]

BLAS_PINNED = "BLAS threads pinned to 1"
BLAS_UNPINNED = "BLAS threads unpinned"

#: the thread-count setter of numpy's bundled 64-bit-integer OpenBLAS
_SETTER = "scipy_openblas_set_num_threads64_"


@functools.cache
def _setter() -> Callable[[int], None] | None:
    """The mapped OpenBLAS's thread setter, or ``None`` (looked up once)."""
    import numpy  # noqa: F401 - maps the bundled OpenBLAS into the process

    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    paths = {
        fields[-1]
        for fields in map(str.split, maps.splitlines())
        if len(fields) == 6 and "openblas" in fields[-1]
    }
    for path in sorted(paths):
        try:
            fn = getattr(ctypes.CDLL(path), _SETTER)
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        return fn
    return None


def pin_blas_threads() -> str:
    """Run BLAS on one thread in this process from now on.

    Returns :data:`BLAS_PINNED`, or :data:`BLAS_UNPINNED` when no
    OpenBLAS setter is mapped, in which case results may differ between
    hosts and launchers with different BLAS thread counts.
    """
    fn = _setter()
    if fn is None:
        return BLAS_UNPINNED
    fn(1)
    return BLAS_PINNED
