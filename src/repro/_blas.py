"""The program's BLAS-thread policy: OpenBLAS runs on one thread.

A registration contracts a frequency tensor with one small BLAS product
after another, and a fleet's parallelism is its shard processes.  A
second OpenBLAS thread gains little on such products, and while the host
keeps it waiting every product waits with it: on two vCPUs a whole
engine build then takes 0.13-0.27 s instead of 0.03-0.05 s.  So unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
set, each process runs OpenBLAS on one thread.  This module imports
nothing beyond the standard library, so a process can apply the policy
before numpy loads.
"""

from __future__ import annotations

import ctypes
import os
import sys
from functools import cache

#: The variables that set OpenBLAS's thread count; with any of them set,
#: the count is the operator's.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: OpenBLAS's thread-count setters, in the order they are looked up
#: through numpy's extension module: the scipy-openblas build numpy's
#: wheels bundle, then OpenBLAS built with 64-bit or 32-bit integers.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@cache
def one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process, unless an operator chose.

    Applied once per process.  Before numpy loads, it sets
    ``OPENBLAS_NUM_THREADS=1``, which OpenBLAS reads as it loads here and
    in every child.  Once numpy has loaded, it leaves the environment
    alone and calls the first setter numpy's extension module exports;
    children forked later inherit the count.  Any other BLAS, such as MKL
    or Accelerate, keeps its own threads.
    """
    if any(name in os.environ for name in THREAD_VARIABLES):
        return
    if "numpy" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        return
    extension = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"  # numpy 1.x
    )
    if extension is None:
        return
    library = ctypes.CDLL(extension.__file__)
    for name in _SETTERS:
        setter = getattr(library, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return
