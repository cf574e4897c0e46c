"""Compiled kernels: the evolution chunk loops and the finite processes'
events.

``_kernels.c`` holds two kinds of C code.  There is one chunk kernel per
evolution family: ``is_chunk`` runs both independent-set processes (3- and
4-regular) and ``cut_chunk`` the max-cut process.  Each advances its
recurrence by at most ``max_rounds`` rounds and reports why it stopped via a
status code.  The kernels unroll the composed operations of ``is_evolution``
/ ``cut_evolution``, which stay the reference semantics: same expressions,
same evaluation order, pinned bit for bit by tests.  And there is one event
engine per finite process, run whole by one call: ``cut_run`` restates the
methods of ``cut_local_algorithm.CutProcess`` and their round schedule
``CutProcess._drive``, and ``is_run`` those of
``is_local_algorithm.SurvivalGraph`` (its class scans included) and the
round ladder ``is_local_algorithm._drive``, over flat arrays, pinned by
tests to give the same outputs, counters and random stream as their
references.  So the library exports four functions: the two chunk kernels
and the two runs.  A run allocates its engine's C state over the process's
buffers, runs and frees it in that one call, and stops at its first failed
check, where the Python methods raise; no event is exported on its own.
The marks of a round are drawn in C from the caller's numpy
Generator, through its bit generator's C interface
(``bit_generator.ctypes``): one ``next_double`` per candidate, in
ascending order, which is what ``ids[rng.random(m) < p]`` draws.  Every
other pick is one ``next_double`` too, as one ``rng.random()`` in Python:
an index into m items is ``int(u * m)``, which never reaches m.  The
independent-set forced deletion draws one such index into its class, and
the cut's bootstrap two, red over the m survivors and green over the
m - 1 others.  So both backends read one random stream and leave the
generator in one state.  ctypes releases the GIL for each call, and an
engine touches only its own state and buffers, so runs of different
processes may run at once on different threads.  The engines read the
graph's int32 owner and pair arrays in place (``_graph_arrays``: no copy,
no widening), whose half-edges ``Multigraph`` groups by owner, and keep
their own vertex and half-edge ids as int32 too; the buffers they share
with the Python processes stay as those allocate them.

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
run their Python methods (at 15-18 times the cost).  Otherwise it is
``"c"``.
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
    ptr = ctypes.c_void_p
    # n, the graph's two arrays, the shared buffers and the bit generator,
    # then each engine's scalars and the rounds
    lib.cut_run.argtypes = [i64] + [ptr] * 13 + [f64, i64, ptr]
    lib.is_run.argtypes = [i64] + [ptr] * 8 + [i64, i64, i64, f64, f64, ptr]
    lib.cut_run.restype = lib.is_run.restype = i64
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


def _writable(buf):
    """A ctypes view of a writable buffer (bytearray, array, ndarray); the
    caller keeps it alive for as long as C holds the address."""
    return (ctypes.c_char * memoryview(buf).nbytes).from_buffer(buf)


def _graph_arrays(graph) -> list:
    """The graph's owner and pair arrays as the engines read them:
    ``Multigraph`` stores them as contiguous int32, with the half-edges
    grouped by owner, so these are the graph's own arrays, not copies."""
    return [np.ascontiguousarray(a, dtype=np.int32) for a in
            (graph.owner, graph.pair)]


def _run(name: str, entry, graph, buffers, rng, *args) -> int:
    """One engine's whole run, one call of ``entry`` over the graph's
    arrays and the shared ``buffers``, which it updates in place, with
    ``rng``'s bit generator passed to C for the draws and locked meanwhile,
    as numpy's own methods lock it; returns the rounds run.  The run stops
    at its first failed check, where the Python methods raise: a broken
    invariant raises AssertionError, and an allocation that fails
    MemoryError.  (The Python ``SurvivalGraph.delete`` of a dead vertex
    raises ValueError; in C that is a broken invariant too.)"""
    arrays = _graph_arrays(graph)
    views = [_writable(buf) for buf in buffers]
    rounds = ctypes.c_int64()
    bitgen = rng.bit_generator
    with bitgen.lock:
        err = entry(graph.n, *(a.ctypes.data for a in arrays),
                    *(ctypes.addressof(view) for view in views),
                    bitgen.ctypes.bit_generator, *args, ctypes.byref(rounds))
    if err == ENGINE_NOMEM:
        raise MemoryError(f"{name}: out of memory")
    if err:
        raise AssertionError(f"{name}: bookkeeping out of sync")
    return rounds.value


def cut_run(proc, floor: int) -> int:
    """The whole run of ``CutProcess._drive`` in one C call, over the
    process's shared buffers (status, colours, label counters, path
    degrees, aliases, revealed flags), which it updates in place:
    bootstrap, closure, rounds while more than ``floor`` vertices survive
    (a bootstrap and closure after each that removes none), endgame;
    returns the rounds run.  The rounds and the bootstrap pairs
    draw from the process's ``rng``.  The counters good, bad and survival
    are written back to the process, also when the run fails.  Needs
    ``BACKEND == "c"``."""
    counts = array("q", (proc.good, proc.bad, proc.survival))
    buffers = (proc.status, proc.f, proc.nR, proc.nG, proc.nW, proc.nD,
               proc.pd, proc.alias, proc.revealed, counts)
    try:
        return _run("cut engine", _lib.cut_run, proc.graph, buffers,
                    proc.rng, proc.query_probability, floor)
    finally:
        proc.good, proc.bad, proc.survival = counts


def is_run(g, rng, d: int, thin_probability: float,
           persistence_fraction: float, cap_degree: int) -> int:
    """The whole run of ``is_local_algorithm._drive`` in one C call, over a
    fresh ``SurvivalGraph``'s degrees, live flags, degree histogram and
    decision bytes, which it updates in place: the rounds until no vertex
    is left, then the merges unfolded; returns the rounds run.  The rounds
    draw their marks, and the forced deletions their vertex, from ``rng``,
    as the Python ladder does; a merged vertex above ``cap_degree`` is
    deleted, as ``DEGREE_CAP`` in settle.  The survival and contraction
    counts are written back to g, also when the run fails.  Needs
    ``BACKEND == "c"``."""
    if not 0 <= d < len(g.counts):
        raise IndexError(f"degree class {d} out of range")
    counts = array("q", (g.survival_count, g.contractions))
    buffers = (g.deg, g.alive, g.counts, g.status, counts)
    try:
        return _run("independent-set engine", _lib.is_run, g.graph, buffers,
                    rng, len(g.counts), cap_degree, d, thin_probability,
                    persistence_fraction)
    finally:
        g.survival_count, g.contractions = counts
