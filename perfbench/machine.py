"""What the numbers were measured on, recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import resource

import numpy as np
import scipy


def _openblas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in p.lower() and ".so" in p)


def _openblas_call(lib_path: str, suffixes: tuple[str, ...], restype):
    lib = ctypes.CDLL(lib_path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in suffixes:
            fn = getattr(lib, prefix + suffix, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def openblas_record() -> list[dict]:
    """Version string and thread count of each OpenBLAS the process loaded
    (numpy and scipy each ship one)."""
    out = []
    for path in _openblas_libraries():
        config = _openblas_call(path, ("get_config64_", "get_config"), ctypes.c_char_p)
        threads = _openblas_call(path, ("get_num_threads64_", "get_num_threads"), ctypes.c_int)
        out.append({"library": os.path.basename(path),
                    "config": config.decode() if config else None,
                    "threads": threads})
    return out


def machine_record() -> dict:
    from alignrec.evaluator import max_workers

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": openblas_record(),
        "evaluator_max_workers": max_workers(),
        "alignrec_threads_env": os.environ.get("ALIGNREC_THREADS"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
