import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablelab

GETTERS = ("scipy_openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
           "openblas_get_num_threads")


def mapped_openblas():
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return []
    return sorted(p for p in paths
                  if "openblas" in os.path.basename(p) and os.path.isfile(p))


def test_every_mapped_openblas_runs_one_thread():
    paths = mapped_openblas()
    if not paths:
        pytest.skip("no OpenBLAS mapped into this process")
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = next(getattr(lib, n) for n in GETTERS if hasattr(lib, n))
        getter.argtypes, getter.restype = [], ctypes.c_int
        assert getter() == 1, path


def test_summary_independent_of_blas_thread_count(tmp_path):
    # the weak form-bound goes through ARPACK and BLAS; a pool of two
    # threads would sum its reductions in another order
    cfg = tmp_path / "audit.cfg"
    cfg.write_text("[experiment]\nscenario = formbound_audit\n",
                   encoding="utf-8")
    src = str(Path(stablelab.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "stablelab.cli", "run", str(cfg),
             "--grid-n", "32", "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        raw = (out / "summary.json").read_bytes()
        digests.add(hashlib.sha256(raw).hexdigest())
    assert len(digests) == 1, digests
