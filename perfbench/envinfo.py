"""Environment record printed with every benchmark result.

The benchmark runs with the program's default thread settings and records
them here; it never pins them, because pinning would hide the worker x BLAS
thread oversubscription the sweep workload is meant to show.
"""

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_QUERIES:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                found[os.path.basename(path)] = func()
                break
    return found


def _blas_library(module):
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "%s %s" % (blas.get("name"), blas.get("version"))


def _git_commit(root):
    """Commit of a git checkout, read from .git; None outside a repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    env_workers = os.environ.get("GAUSSTOPO_THREADS")
    return {
        "blas_numpy": _blas_library(numpy),
        "blas_scipy": _blas_library(scipy),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        # cli._worker_count's rule: GAUSSTOPO_THREADS, else min(8, cpu_count)
        "sweep_workers": env_workers or min(8, os.cpu_count() or 1),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "argv": sys.argv[1:],
    }
