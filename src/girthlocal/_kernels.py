"""Compiled kernels: the evolution chunk loops and the finite processes'
runs.

``_kernels.c`` holds two kinds of C code.  There is one chunk kernel per
evolution family: ``is_chunk`` runs both independent-set processes (3- and
4-regular) and ``cut_chunk`` the max-cut process.  Each advances its
recurrence by at most ``max_rounds`` rounds and reports why it stopped via a
status code.  The kernels transcribe the composed operations of
``is_evolution`` / ``cut_evolution``, which stay the reference semantics
(``is_chunk`` loop for loop over the degree classes).  The expressions,
their evaluation order and ``-ffp-contract=off`` fix the bits, which tests
pin to the composed operations', and those of a build at ``-O0`` to the
default build's; the unroll pragmas and the class indices known at compile
time, which keep the classes in registers, serve speed only.  And there is
one event engine per finite process, ``cut_run`` and ``is_run``, each a
whole run in one call over flat arrays: it restates the Python methods and
round schedule of ``CutProcess`` or ``SurvivalGraph``, which tests pin it
to, output for output.  A run allocates its engine's private state over
the process's buffers, each array by one recorded allocation, and frees all
of it at its one exit in that call: at the end of the run, at its first
failed check (where the Python methods raise), or when an allocation
fails.  Every random pick of a run is ``draw``, a pure function of the
run's key and a vertex id, which both languages compute alike; the
whole-run entry points run each process on its graph renamed by the run's
labels (``run_labels``).  ctypes releases the GIL for each call, and an
engine touches only its own state and buffers, so runs may overlap on
threads.  A ``Multigraph`` keeps no owner array, and neither engine needs
one: the cut's reads the graph's contiguous int32 pairing in place (no
copy, no widening), half-edge h being vertex h // 3's, and the independent
set's links ``SurvivalGraph.nbr`` in place.

On import the C source is compiled with the system's
``cc -O2 -ffp-contract=off -shared -fPIC`` into
``__pycache__/_kernels-<crc32>.so`` next to this file (the crc32 covers the C
source and the flags, so an edited source gets a fresh library, and a build
removes the libraries of other sources) and loaded with ctypes.
``-ffp-contract=off`` forbids fused multiply-adds, which round differently;
no fast-math or host-specific flag is used, and the source refuses to
compile where doubles are evaluated at a wider precision.  When no library
can be built or loaded (no compiler, a failed or hung build, a cache
directory that cannot be written, a cached library that does not load,
which is then removed so that the next import builds it again), ``BACKEND``
is ``"python"``: ``evolution_core.integrate`` steps the rule sets' composed
operations round by round instead (``evolution_core._python_chunk``: the
same bits, at 90-560 times the cost per round), and the finite processes
run their Python methods (a whole run at n = 100000 at 19-27 times the
cost).  Otherwise it is ``"c"``.
"""
import contextlib
import ctypes
import os
import shutil
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import numpy as np

STATUS_STOPPED = 0  # stop condition reached
STATUS_BUDGET = 1  # round budget spent, more work remains
STATUS_INVALID = 2  # a state left its sane range (NaN, inf, bad sign, law)
STATUS_EXHAUSTED = 3  # open-edge pool emptied while deletions were pending

ENGINE_NOMEM = 1  # an event engine could not allocate its state
ENGINE_BROKEN = 2  # a bookkeeping invariant failed (an assert in Python)

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
            # with no compiler there is nothing to build, and nothing to
            # say: fork no failing compiler on every import
            if shutil.which(cc[0]) is None:
                return None
            try:
                cache.mkdir(exist_ok=True)
            except OSError as err:
                print(f"girthlocal: cannot create the C kernels' cache "
                      f"directory ({err}); evolutions run the Python "
                      f"reference instead", file=sys.stderr)
                return None
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
            # libraries of earlier sources are dead weight now; another
            # process's build in flight is a *.tmp, which this skips
            for stale in cache.glob("_kernels-*.so"):
                if stale != lib_path:
                    stale.unlink(missing_ok=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        # a compiler ran but gave no library: say so, since every evolution
        # now runs at the composed operations' speed
        print(f"girthlocal: building the C kernels failed ({err}); "
              f"evolutions run the Python reference instead", file=sys.stderr)
        return None
    except OSError:
        return None
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as err:
        # a cached library that does not load would be loaded, and fail,
        # on every import: remove it, so that the next import builds afresh
        print(f"girthlocal: cannot load the C kernels from {lib_path} "
              f"({err}); removing it, evolutions run the Python reference "
              f"instead", file=sys.stderr)
        with contextlib.suppress(OSError):
            lib_path.unlink()
        return None
    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.is_chunk.argtypes = [ctypes.POINTER(f64), f64, i64, i64, i64,
                             ctypes.POINTER(i64)]
    lib.is_chunk.restype = None
    lib.cut_chunk.argtypes = [ctypes.POINTER(f64), f64, i64, i64,
                              ctypes.POINTER(i64)]
    lib.cut_chunk.restype = None
    ptr, u64 = ctypes.c_void_p, ctypes.c_uint64
    # n, the cut's pairing, the shared buffers, the key, scalars, rounds
    lib.cut_run.argtypes = [i64] + [ptr] * 11 + [u64, f64, i64, ptr]
    lib.is_run.argtypes = [i64] + [ptr] * 6 + [u64, i64, i64, f64, f64, ptr]
    lib.cut_run.restype = lib.is_run.restype = i64
    return lib


_lib = _load()
BACKEND = "python" if _lib is None else "c"


def is_chunk(state: np.ndarray, eps, d, improvement, max_rounds):
    """Advance the d-regular independent-set recurrence (d = 3 or 4) by up
    to max_rounds rounds over ``state``, the C kernel's contiguous float64
    state, in place; returns the rounds and status.  Needs the C backend."""
    out = (ctypes.c_int64 * 2)()
    _lib.is_chunk(state.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                  eps, d, improvement, min(max_rounds, _MAX_ROUNDS), out)
    return tuple(out)


def cut_chunk(rat2, rat3, good, bad, eps, linear, max_rounds):
    """Advance the max-cut recurrence by up to max_rounds rounds; returns
    the four state fields, the rounds run and the status.  Needs
    ``BACKEND == "c"``."""
    state = (ctypes.c_double * 4)(rat2, rat3, good, bad)
    out = (ctypes.c_int64 * 2)()
    _lib.cut_chunk(state, eps, linear, min(max_rounds, _MAX_ROUNDS), out)
    return (*state, *out)


# A finite run's picks, u(key, t, purpose, v): round t's key for a purpose
# is splitmix64's output number 4t + purpose + 1 from the run's key, vertex
# v's draw is splitmix64's finalizer of that xor v's id, a pick of no
# vertex is the round key, and u is the 53 high bits over 2^53.
MARK, FORCE, RED_PICK, GREEN_PICK = range(4)  # the purposes
_MASK = 2 ** 64 - 1


def _mix64(z):
    """splitmix64's finalizer, of a Python int or of a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def draw(key: int, t: int, purpose: int, ids=None):
    """u in [0, 1) for each vertex of the array ``ids``, or, with none,
    round t's pick for the purpose, a float (``int(u * m) < m``)."""
    h = _mix64((key + 0x9E3779B97F4A7C15 * (4 * t + purpose + 1)) & _MASK)
    if ids is not None:
        h = _mix64(ids.astype(np.uint64) ^ h)
    return (h >> 11) * 2.0 ** -53


def run_labels(n: int, seed):
    """A run's key and labels (a random permutation of 0 .. n - 1, as
    int32), its only draws from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(n).astype(np.int32)
    return int(rng.integers(2 ** 64, dtype=np.uint64)), labels


def _writable(buf):
    """A ctypes view of a writable buffer (bytearray, array, ndarray); the
    caller keeps it alive for as long as C holds the address."""
    return (ctypes.c_char * memoryview(buf).nbytes).from_buffer(buf)


def _run(name: str, entry, proc, arrays, buffers, *args) -> int:
    """One engine's whole run of the process ``proc``, one call of
    ``entry`` over the read-only ``arrays`` of its graph, its key and the
    shared ``buffers``, which it updates in place; returns the rounds run.
    The run stops at its first failed check, where the Python methods
    raise: a broken invariant raises AssertionError, and an allocation that
    fails MemoryError.  (The Python ``SurvivalGraph.delete`` of a dead
    vertex raises ValueError; in C that is a broken invariant too.)"""
    views = [_writable(buf) for buf in buffers]
    rounds = ctypes.c_int64()
    err = entry(proc.n, *(a.ctypes.data for a in arrays),
                *(ctypes.addressof(view) for view in views), proc.key,
                *args, ctypes.byref(rounds))
    if err == ENGINE_NOMEM:
        raise MemoryError(f"{name}: out of memory")
    if err:
        raise AssertionError(f"{name}: bookkeeping out of sync")
    return rounds.value


def cut_run(proc, floor: int) -> int:
    """The whole run of ``CutProcess._drive``, with the endgame at
    ``floor`` survivors, in one C call over the process's shared buffers
    (status, colours, label counters, path degrees, aliases, revealed
    flags), which it updates in place; returns the rounds run.  The
    counters good, bad and survival are written back to the process, also
    when the run fails.  Needs ``BACKEND == "c"``."""
    counts = array("q", (proc.good, proc.bad, proc.survival))
    buffers = (proc.status, proc.f, proc.nR, proc.nG, proc.nW, proc.nD,
               proc.pd, proc.alias, proc.revealed, counts)
    try:
        return _run("cut engine", _lib.cut_run, proc, (proc.pair,), buffers,
                    proc.query_probability, floor)
    finally:
        proc.good, proc.bad, proc.survival = counts


def is_run(g, d: int, thin_probability: float,
           persistence_fraction: float) -> int:
    """The whole run of ``is_local_algorithm._drive`` in one C call, over a
    fresh ``SurvivalGraph``'s neighbour array, degrees, live flags, degree
    histogram and decision bytes, which it updates in place: the rounds
    until no vertex is left, then the merges unfolded; returns the rounds
    run.  The survival and contraction counts are written back to g, also
    when the run fails.  Needs ``BACKEND == "c"``."""
    if not 0 <= d < len(g.counts):
        raise IndexError(f"degree class {d} out of range")
    counts = array("q", (g.survival_count, g.contractions))
    buffers = (g.nbr, g.deg, g.alive, g.counts, g.status, counts)
    try:
        return _run("independent-set engine", _lib.is_run, g, (), buffers,
                    len(g.counts), d, thin_probability, persistence_fraction)
    finally:
        g.survival_count, g.contractions = counts
