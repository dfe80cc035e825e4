"""Pin each OpenBLAS pool mapped into this process to one thread, so sums
keep one order on any core count and no idle pool thread spins."""

import ctypes
import os

_SETTERS = ("scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads", "openblas_set_num_threads64_",
            "openblas_set_num_threads")
_SET_THREADS = ctypes.CFUNCTYPE(None, ctypes.c_int)  # void f(int)


def pin_one_thread() -> None:
    """Unlike OPENBLAS_NUM_THREADS, this also pins libraries loaded earlier."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return
    for path in sorted(paths):
        if "openblas" in os.path.basename(path) and os.path.isfile(path):
            lib = ctypes.CDLL(path)
            for name in [n for n in _SETTERS if hasattr(lib, n)][:1]:
                _SET_THREADS((name, lib))(1)
