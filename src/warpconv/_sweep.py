"""Build and load the sweep kernel `_sweep.c`.

The kernel is compiled once per hash of its source and flags into the
package's ``__pycache__`` and loaded with ctypes, which releases the GIL for
the length of each call, so sweeps on several threads run at once.  The
library is built at import: the first process that imports warpconv from a
fresh checkout pays the compile (a fraction of a second), every later one
only loads the cached file.  The flags keep IEEE double arithmetic exact
(-ffp-contract=off, no fast-math), so a sweep's floats do not depend on the
compiler's choices.  -O3 rather than -O2: at -O2, GCC 12 leaves the
kernel's branch-free comparison pass a scalar loop, which gives up what
the pass is for.  On x86-64 with glibc the source asks GCC or Clang for
two builds of the sweep loop, one for AVX2 and one for the baseline
instruction set, and for a resolver that the dynamic loader runs once, when
the library loads, to pick the AVX2 one where the CPU has it; both give the
same rows.  One library thus runs on every x86-64 CPU, with no flag to
choose.

A sweep needs no work array from its caller: beside the row it fills, the
kernel allocates its own bucket queue, a pool of (node, distance) entries
sized by the peak number of queued entries, and an int32 offset per
stencil slot, and frees them before it returns.  It returns NO_MEMORY when
that allocation fails.  Flags in the environment variable
WARPCONV_SWEEP_CFLAGS are appended to CFLAGS, which is how a
sanitizer build of the same source is loaded, for instance
``WARPCONV_SWEEP_CFLAGS="-fsanitize=address,undefined"`` with the
sanitizer's runtime preloaded.
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
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off",
          *os.environ.get("WARPCONV_SWEEP_CFLAGS", "").split())
# Entries the kernel's queue pool starts with; it doubles when full.
INITIAL_POOL = 1024


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
        ctypes.c_int32, doubles, ctypes.c_int32]
    lib.warpconv_sweep.restype = ctypes.c_int
    return lib


_library = load_library()
sweep = _library.warpconv_sweep
# The most buckets a sweep's queue uses (WARPCONV_BUCKET_CAP in _sweep.c).
BUCKET_CAP = ctypes.c_int32.in_dll(_library, "warpconv_bucket_cap").value
# The status a sweep returns when its queue cannot be allocated or grown.
NO_MEMORY = ctypes.c_int32.in_dll(_library, "warpconv_no_memory").value
