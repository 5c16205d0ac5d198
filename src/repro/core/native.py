"""Build and load ``_kernels.c``, the compiled kernels.

On first import the source next to this file is compiled (``cc -O2
-shared -fPIC``) into ``_build/``, named by the source's hash, via a
per-process temporary name and a rename, so no process loads a
half-written library; later imports load that build. Publishing a build
removes the cache's earlier ones (a process that has one loaded keeps
its mapping). Without a C compiler the import fails: there is no Python
fallback.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
_P, _I = ctypes.c_void_p, ctypes.c_int64
_TABLE = (_P, _P, _P, _P, _I, _I)  # ptr, ind, tptr, tri, source, k
_SIGNATURES = {"orient": (_I, _I, _P, _P, _P, _I, _P, _P, _P, _P), "release": (_P,),
              "count_from_source": (*_TABLE, _P), "node_scores": (*_TABLE, _P),  # n in place of source
              "enumerate_from_source": (*_TABLE, _P, _P, _I), "find_first_clique": (*_TABLE, _P, _P),
              "find_min_clique": (*_TABLE, _P, _P, _I, _P, _P), "greedy_scan": (_I, _I, _P, _P, _P, _P)}


def load(source: Path = SOURCE, cache: Path | None = None) -> ctypes.CDLL:
    """The library built from ``source`` in ``cache`` (by default
    ``_build/`` next to it), compiled there first unless it is there."""
    cache = cache or source.with_name("_build")
    lib = cache / f"{source.stem}-{hashlib.sha256(source.read_bytes()).hexdigest()[:16]}.so"
    built = not lib.exists()
    if built:
        if (cc := shutil.which("cc")) is None:
            raise ImportError(f"building {source.name} needs a C compiler, and `cc` is not on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        tmp = f"{lib}.{os.getpid()}.tmp"
        try:
            run = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(source)],
                                 capture_output=True, text=True)
            if run.returncode:
                raise ImportError(f"`cc` could not compile {source}:\n{run.stderr}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    dll = ctypes.CDLL(str(lib))
    for name, args in _SIGNATURES.items():
        getattr(dll, name).argtypes, getattr(dll, name).restype = args, _I
    for old in cache.glob(f"{source.stem}-*.so") if built else ():
        if old != lib:  # an earlier build; a process that has it loaded keeps its mapping
            old.unlink(missing_ok=True)
    return dll


def addr(a: np.ndarray | None, dtype, n: int = 0) -> int | None:
    """The address of ``a``, which a C kernel reads or writes in place, so
    it must be a C-contiguous ``dtype`` array of at least ``n`` entries;
    None stays None (NULL)."""
    if a is not None and not (isinstance(a, np.ndarray) and a.dtype == dtype
                              and a.flags.c_contiguous and len(a) >= n):
        raise TypeError(f"a C kernel needs a C-contiguous {np.dtype(dtype)} array of {n}+ entries")
    return None if a is None else a.ctypes.data


lib = load()
