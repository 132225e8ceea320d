"""Build and load the sweep kernel `_sweep.c`.

The kernel is compiled once per hash of its source and flags into the
package's ``__pycache__`` and loaded with ctypes, which releases the GIL for
the length of each call, so sweeps on several threads run at once.  The
library is built at import: the first process that imports warpconv from a
fresh checkout pays the compile (a fraction of a second), every later one
only loads the cached file.  The flags keep IEEE double arithmetic exact
(-ffp-contract=off, no fast-math), so a sweep's floats do not depend on the
compiler's choices.
"""

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

SOURCE = Path(__file__).with_name("_sweep.c")
COMPILER = "cc"
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class KernelBuildError(RuntimeError):
    """The sweep kernel could not be compiled."""


def build_library(source: Path, cache_dir: Path) -> Path:
    """The shared library compiled from `source` into `cache_dir`.

    Its name carries a hash of the source, the flags and the platform, so a
    library already there is reused and an edited source builds afresh.  The
    compiler writes to a temporary name that is then renamed into place, so
    a process that loads the library never sees half a file.  Raises
    KernelBuildError, with the compiler's output, when the compiler is
    missing or fails.
    """
    key = source.read_bytes() + repr((COMPILER, CFLAGS,
                                      sysconfig.get_platform())).encode()
    lib = cache_dir / f"{source.stem}-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if lib.is_file():
        return lib
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{source.stem}-", suffix=".tmp",
                               dir=cache_dir)
    os.close(fd)
    cmd = [COMPILER, *CFLAGS, "-o", tmp, str(source)]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise KernelBuildError(
                f"cannot build the sweep kernel: no C compiler {COMPILER!r} "
                f"on PATH ({exc})") from None
        if proc.returncode != 0:
            raise KernelBuildError(
                f"cannot build the sweep kernel: {' '.join(cmd)} exited with "
                f"status {proc.returncode}:\n{proc.stdout}{proc.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load_library(source: Path = SOURCE,
                 cache_dir: Path = SOURCE.parent / "__pycache__") -> ctypes.CDLL:
    """The library built from `source`, with the argument and result types
    of its `warpconv_sweep` declared."""
    lib = ctypes.CDLL(str(build_library(source, cache_dir)))
    doubles = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    index = ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
    lib.warpconv_sweep.argtypes = [
        ctypes.c_int32, ctypes.c_int32, index, index, index, doubles,
        ctypes.c_int32, doubles, index, index]
    lib.warpconv_sweep.restype = None
    return lib


_library = load_library()
sweep = _library.warpconv_sweep
# The most buckets a sweep's queue uses (WARPCONV_BUCKET_CAP in _sweep.c).
BUCKET_CAP = ctypes.c_int32.in_dll(_library, "warpconv_bucket_cap").value


def work_arrays(n_nodes: int):
    """The kernel's succ and pred work arrays for a graph of n_nodes folded
    nodes: int32, one entry per node and one per bucket.  They need no
    initial values, and one pair serves any number of sweeps in turn."""
    return (np.empty(n_nodes + BUCKET_CAP, np.int32),
            np.empty(n_nodes + BUCKET_CAP, np.int32))
