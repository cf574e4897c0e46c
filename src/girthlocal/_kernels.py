"""Compiled kernels: the evolution chunk loops and the finite processes'
events.

``_kernels.c`` holds two kinds of C code.  There is one chunk kernel per
evolution family: ``is_chunk`` runs both independent-set processes (3- and
4-regular) and ``cut_chunk`` the max-cut process.  Each advances its
recurrence by at most ``max_rounds`` rounds and reports why it stopped via a
status code.  The kernels unroll the composed operations of ``is_evolution``
/ ``cut_evolution``, which stay the reference semantics: same expressions,
same evaluation order, pinned bit for bit by tests.  And there is one event
engine per finite process: ``CutEngine`` runs the methods of
``cut_local_algorithm.CutProcess`` and ``IsEngine`` those of
``is_local_algorithm.SurvivalGraph`` (its class scans included), over flat
arrays, pinned by tests to give the same outputs and counters.  Each
process's run is one engine call: ``CutEngine.run`` runs the cut
process's round schedule whole, with ``CutProcess._drive`` as its
reference, and ``IsEngine.run`` the independent-set ladder, with
``is_local_algorithm._drive`` as its reference.  The marks of a round are
drawn in C from the caller's numpy Generator, through its bit generator's
C interface (``bit_generator.ctypes``): one ``next_double`` per
candidate, in ascending order, which is what ``ids[rng.random(m) < p]``
draws.  The independent-set forced deletion draws its member as
``rng.choice`` does, and the cut's bootstrap its pair as
``rng.choice(alive, 2, replace=False)`` does, both by numpy's bounded
Lemire draw on ``next_uint32``.  So both backends read one random stream
and leave the generator in one state.  ctypes releases the GIL for each call, and an
engine touches only its own state and buffers, so engines of different
runs may run at once on different threads.  The engines read the graph's
int32 owner, pair and slot arrays in place (``_graph_arrays``: no copy, no
widening) and keep their own vertex and half-edge ids as int32 too; the
buffers they share with the Python processes stay as those allocate them.

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
ENGINE_DEAD = 3  # an event named a vertex that is gone (a ValueError)

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
    lib.cut_new.argtypes = [i64] + [ptr] * 14
    lib.cut_new.restype = ptr
    lib.is_new.argtypes = [i64] + [ptr] * 8 + [i64, i64]
    lib.is_new.restype = ptr
    for name in ("cut_free", "is_free"):
        getattr(lib, name).argtypes = [ptr]
        getattr(lib, name).restype = None
    for name, args in (("cut_commit", [ptr, i64, i64]),
                       ("cut_closure", [ptr]),
                       ("cut_round", [ptr, ptr, f64]),
                       ("cut_run", [ptr, ptr, f64, i64, ptr]),
                       ("cut_lones", [ptr, ptr, ptr]),
                       ("cut_endgame", [ptr]),
                       ("is_settle", [ptr]),
                       ("is_deletes", [ptr, ptr, i64]),
                       ("is_run", [ptr, ptr, i64, f64, f64, ptr]),
                       ("is_scan", [ptr, i64, i64, ptr]),
                       ("is_unfold_merges", [ptr])):
        getattr(lib, name).argtypes = args
        getattr(lib, name).restype = i64
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


class _Engine:
    """An event engine's C state over shared buffers; ``close`` (or
    leaving the ``with`` block) frees it and writes the counters back."""

    _name = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _start(self, state) -> None:
        if not state:
            raise MemoryError(f"{self._name}: out of memory")
        self._state = state

    def _run(self, entry, *args):
        if not self._state:
            raise ValueError(f"{self._name}: already closed")
        err = entry(self._state, *args)
        if err == ENGINE_NOMEM:
            raise MemoryError(f"{self._name}: out of memory")
        if err == ENGINE_DEAD:
            raise ValueError(f"{self._name}: a vertex that is gone")
        if err:
            raise AssertionError(f"{self._name}: bookkeeping out of sync")

    def _run_drawing(self, entry, rng, *args):
        """_run, with ``rng``'s bit generator passed to C for the draws
        and locked meanwhile, as numpy's own methods lock it."""
        bitgen = rng.bit_generator
        with bitgen.lock:
            self._run(entry, bitgen.ctypes.bit_generator, *args)

    def close(self) -> None:
        if self._state:
            self._free()
            self._state = None
            self._views.clear()
            self._graph.clear()
            self._write_back()


def _graph_arrays(graph) -> list:
    """The graph's owner, pair and slot arrays as the engines read them:
    ``Multigraph`` stores them as contiguous int32, so these are the
    graph's own arrays, not copies."""
    return [np.ascontiguousarray(a, dtype=np.int32) for a in
            (graph.owner, graph.pair, graph.slot_array())]


class CutEngine(_Engine):
    """The cut process's event engine in C, over one ``CutProcess``'s
    shared buffers (status, colours, label counters, path degrees, open
    counts, aliases, revealed flags), which it updates in place.  Its
    ``commit``, ``closure``, ``query_round``, ``lones`` and ``endgame``
    are those of the process, and ``run`` is a whole run of the round
    schedule ``CutProcess._drive`` in one call; the rounds and the
    bootstrap pairs draw from the process's ``rng``.  It keeps the lone
    vertices as an exact bit set, read in ascending order: a change of a
    vertex's status, path degree or R/G labels marks it touched, and a
    scan (``lones``, and the start of each round) re-tests the touched
    vertices alone.  The counters good, bad and survival live in
    ``counts`` until ``close`` writes them back.  Needs
    ``BACKEND == "c"``."""

    _name = "cut engine"

    def __init__(self, proc):
        self._proc = proc
        self._n = proc.n
        self.counts = array("q", (proc.good, proc.bad, proc.survival))
        self._views = [_writable(buf) for buf in (
            proc.status, proc.f, proc.nR, proc.nG, proc.nW, proc.nD,
            proc.pd, proc.op, proc.alias, proc.revealed, self.counts)]
        self._graph = _graph_arrays(proc.graph)
        self._start(_lib.cut_new(
            proc.n, *(a.ctypes.data for a in self._graph),
            *(ctypes.addressof(view) for view in self._views)))

    @property
    def survival(self) -> int:
        return self.counts[2]

    def commit(self, v: int, color: int) -> None:
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range")
        self._run(_lib.cut_commit, v, color)

    def closure(self) -> None:
        self._run(_lib.cut_closure)

    def query_round(self) -> None:
        self._run_drawing(_lib.cut_round, self._proc.rng,
                          self._proc.query_probability)

    def run(self, floor: int) -> int:
        """The whole run of ``CutProcess._drive`` in one call: bootstrap,
        closure, rounds while more than ``floor`` vertices survive (a
        bootstrap and closure after each that removes none), endgame;
        returns the rounds run."""
        rounds = ctypes.c_int64()
        self._run_drawing(_lib.cut_run, self._proc.rng,
                          self._proc.query_probability, floor,
                          ctypes.byref(rounds))
        return rounds.value

    def lones(self) -> np.ndarray:
        """The lone vertices, ascending, as ``CutProcess.lones`` finds
        them: the engine's lone scan."""
        out = np.empty(self._n, dtype=np.int64)
        count = np.zeros(1, dtype=np.int64)
        self._run(_lib.cut_lones, out.ctypes.data, count.ctypes.data)
        return out[:count[0]]

    def endgame(self) -> None:
        self._run(_lib.cut_endgame)

    def _free(self) -> None:
        _lib.cut_free(self._state)

    def _write_back(self) -> None:
        proc = self._proc
        proc.good, proc.bad, proc.survival = self.counts


class IsEngine(_Engine):
    """The independent-set process's event engine in C, over a fresh
    ``SurvivalGraph``'s degrees, live flags, degree histogram and decision
    bytes, which it updates in place.  Its ``settle``, ``deletes``,
    ``unfold_merges`` and ``scan`` are those of the survival graph, and
    ``run`` is a whole run of the round ladder ``_drive`` in one call,
    drawing from the ``rng`` passed in; a merged vertex above
    ``cap_degree`` is deleted, as ``DEGREE_CAP`` in settle.  The merge log
    and the bit set of each degree class that ``scan`` reads are the
    engine's own.  The survival and contraction counts live in ``counts``
    until ``close`` writes them back.  Needs ``BACKEND == "c"``."""

    _name = "independent-set engine"

    def __init__(self, g, cap_degree: int):
        self._g = g
        self._n = g.n
        self.counts = array("q", (g.survival_count, g.contractions))
        self._views = [_writable(buf) for buf in (
            g.deg, g.alive, g.counts, g.status, self.counts)]
        self._graph = _graph_arrays(g.graph)
        self._start(_lib.is_new(
            g.n, *(a.ctypes.data for a in self._graph),
            *(ctypes.addressof(view) for view in self._views),
            len(g.counts), cap_degree))

    @property
    def survival_count(self) -> int:
        return self.counts[0]

    def settle(self) -> None:
        self._run(_lib.is_settle)

    def deletes(self, ids) -> None:
        """Delete each vertex (int array), in order."""
        ids = np.asarray(ids)
        if ids.size and not (0 <= ids.min() and ids.max() < self._n):
            raise IndexError("vertex out of range")
        # checked before the narrowing, so an id out of range never wraps
        ids = np.ascontiguousarray(ids, dtype=np.int32)
        self._run(_lib.is_deletes, ids.ctypes.data, ids.shape[0])

    def run(self, rng, d: int, thin_probability: float,
            persistence_fraction: float) -> int:
        """The whole run of ``is_local_algorithm._drive`` in one call: the
        rounds until no vertex is left, then ``unfold_merges``; returns the
        rounds run.  The rounds draw their marks, and the forced deletions
        their vertex, from ``rng``, as the Python ladder does."""
        if not 0 <= d < len(self._g.counts):
            raise IndexError(f"degree class {d} out of range")
        rounds = ctypes.c_int64()
        self._run_drawing(_lib.is_run, rng, d, thin_probability,
                          persistence_fraction, ctypes.byref(rounds))
        return rounds.value

    def unfold_merges(self) -> None:
        self._run(_lib.is_unfold_merges)

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """The live ids, ascending, of degree lo..hi, as
        ``SurvivalGraph.scan`` finds them; read off the engine's class bit
        sets in ascending order, at a cost of n/64 words per non-empty
        class in the range."""
        if not 0 <= lo <= hi < len(self._g.counts):
            raise IndexError(f"degree classes {lo}..{hi} out of range")
        out = np.empty(sum(self._g.counts[lo:hi + 1]), dtype=np.int64)
        self._run(_lib.is_scan, lo, hi, out.ctypes.data)
        return out

    def _free(self) -> None:
        _lib.is_free(self._state)

    def _write_back(self) -> None:
        g = self._g
        g.survival_count, g.contractions = self.counts
