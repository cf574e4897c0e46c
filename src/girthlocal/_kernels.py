"""Compiled chunk kernels for the evolution integrators.

There is one chunk kernel per process family, written in C in
``_kernels.c``: ``is_chunk`` runs both independent-set processes (3- and
4-regular) and ``cut_chunk`` the max-cut process.  Each advances its
recurrence by at most ``max_rounds`` rounds and reports why it stopped via a
status code.  The kernels unroll the composed operations of ``is_evolution``
/ ``cut_evolution``, which stay the reference semantics: same expressions,
same evaluation order, pinned bit for bit by tests.

On import the C source is compiled with the system's
``cc -O2 -ffp-contract=off -shared -fPIC`` into
``__pycache__/_kernels-<crc32>.so`` next to this file (the crc32 covers the C
source and the flags, so an edited source gets a fresh library) and loaded
with ctypes.  ``-ffp-contract=off`` forbids fused multiply-adds, which round
differently; no fast-math or host-specific flag is used, and the source
refuses to compile where doubles are evaluated at a wider precision.  When
no library can be built or loaded (no compiler, a failed or hung build, a
cache directory that cannot be written), ``BACKEND`` is ``"python"`` and the
rule sets run their composed operations round by round instead
(``evolution_core._python_chunk``: the same bits, at 90-560 times the cost
per round); otherwise it is ``"c"``.
"""
import ctypes
import os
import subprocess
import sys
import zlib
from pathlib import Path

STATUS_STOPPED = 0  # stop condition reached
STATUS_BUDGET = 1  # round budget spent, more work remains
STATUS_INVALID = 2  # a state left its sane range (NaN, inf, bad sign, law)
STATUS_EXHAUSTED = 3  # open-edge pool emptied while deletions were pending

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
# one build takes well under a second; a compiler that hangs must not hang
# every import of the package
_CC_TIMEOUT_S = 60

# the C kernels take the budget as an int64; no run comes near this many
# rounds, and larger budgets (a huge --record-interval) are clamped to it
_MAX_ROUNDS = 2 ** 62


def _load(cc=_CC, cache=_CACHE):
    """Build (once per source and flags) and load the C kernels; returns
    the library, or None when it cannot be built or loaded."""
    try:
        tag = zlib.crc32(_SOURCE.read_bytes() + " ".join(cc).encode())
        lib_path = cache / f"_kernels-{tag:08x}.so"
        if not lib_path.exists():
            cache.mkdir(exist_ok=True)
            # build under a private name, then rename: a process building
            # at the same time never loads a half-written library
            tmp = lib_path.with_name(f"{lib_path.name}.{os.getpid()}.tmp")
            try:
                subprocess.run([*cc, "-o", str(tmp), str(_SOURCE)],
                               check=True, capture_output=True,
                               timeout=_CC_TIMEOUT_S)
                os.replace(tmp, lib_path)
            finally:
                tmp.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(lib_path))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        # a compiler ran but gave no library: say so, since every evolution
        # now runs at the composed operations' speed
        print(f"girthlocal: building the C kernels failed ({err}); "
              f"evolutions run the Python reference instead", file=sys.stderr)
        return None
    except OSError:
        return None
    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.is_chunk.argtypes = [ctypes.POINTER(f64), f64, i64, i64, i64,
                             ctypes.POINTER(i64)]
    lib.is_chunk.restype = None
    lib.cut_chunk.argtypes = [ctypes.POINTER(f64), f64, i64, i64,
                              ctypes.POINTER(i64)]
    lib.cut_chunk.restype = None
    return lib


_lib = _load()
BACKEND = "python" if _lib is None else "c"


def is_chunk(v2, v3, v4, v5, v6, v7, independent, erase,
             eps, d, improvement, max_rounds):
    """Advance the d-regular independent-set recurrence (d = 3 or 4) by up
    to max_rounds rounds; returns the eight state fields, the rounds run
    and the status.  Needs ``BACKEND == "c"``."""
    state = (ctypes.c_double * 8)(v2, v3, v4, v5, v6, v7, independent, erase)
    out = (ctypes.c_int64 * 2)()
    _lib.is_chunk(state, eps, d, improvement, min(max_rounds, _MAX_ROUNDS),
                  out)
    return (*state, *out)


def cut_chunk(rat2, rat3, good, bad, eps, linear, max_rounds):
    """Advance the max-cut recurrence by up to max_rounds rounds; returns
    the four state fields, the rounds run and the status.  Needs
    ``BACKEND == "c"``."""
    state = (ctypes.c_double * 4)(rat2, rat3, good, bad)
    out = (ctypes.c_int64 * 2)()
    _lib.cut_chunk(state, eps, linear, min(max_rounds, _MAX_ROUNDS), out)
    return (*state, *out)
