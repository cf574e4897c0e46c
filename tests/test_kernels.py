"""The compiled chunk kernels against the composed reference, bit for bit,
the build and ctypes declarations that load them, the event engines run at
once on threads, and both backends' runs on loaded graphs against a pin."""
import ast
import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from girthlocal import _kernels, cut_local_algorithm, is_local_algorithm
from girthlocal.config_model import generate, load_edge_list, save_edge_list
from girthlocal.cut_evolution import CutRules
from girthlocal.cut_local_algorithm import CutProcess
from girthlocal.evolution_core import (STATUS_EXHAUSTED, STATUS_INVALID,
                                       EvolutionParams, IntegrationError,
                                       _python_chunk, integrate)
from girthlocal.is_evolution import DEGREE_CAP, Is3Rules, Is4Rules
from girthlocal.is_local_algorithm import SurvivalGraph
from test_cut_local_algorithm import MULTIGRAPHS
from test_cut_local_algorithm import failed_run as failed_cut_run
from test_is_local_algorithm import OVER_CAP, REGULAR, whole_run
from test_is_local_algorithm import failed_run as failed_is_run

SRC = Path(_kernels.__file__).resolve().parents[1]

GRID = [float(eps) for eps in np.geomspace(1e-3, 1e-5, 9)] + [2e-5]

compiled = pytest.mark.skipif(_kernels.BACKEND != "c",
                              reason="no C compiler: run_chunk needs it")

RULES = {
    "is3": Is3Rules(),
    "is3-plain": Is3Rules(improvement=False),
    "is4": Is4Rules(),
    "cut3": CutRules(),
    "cut3-linear": CutRules(mode="linear_solve"),
}


def exact(rules, run, eps, max_rounds, **fields):
    """A run from the rule set's start state, with ``fields`` set on it."""
    params = EvolutionParams(step_size=eps)
    state = rules.initial_state(params)
    for name, value in fields.items():
        setattr(state, name, value)
    rounds, status = run(rules, state, params, max_rounds)
    return tuple(x.hex() for x in rules.snapshot(state)), rounds, status


@compiled
@pytest.mark.parametrize("target", RULES)
def test_c_kernel_matches_composed_ops_bitwise(target):
    # full runs from the start state; the grid holds runs that stop, exhaust
    # and leave the valid range (1e-4 and 2e-5 for the IS targets)
    rules = RULES[target]
    for eps in GRID:
        assert exact(rules, type(rules).run_chunk, eps, 10 ** 7) == \
            exact(rules, _python_chunk, eps, 10 ** 7), eps


@compiled
@pytest.mark.parametrize("target", RULES)
def test_c_kernel_matches_composed_ops_bitwise_1000_rounds(target):
    # a run its budget cuts short, at a step size below the grid's
    rules = RULES[target]
    assert exact(rules, type(rules).run_chunk, 1e-6, 1000) == \
        exact(rules, _python_chunk, 1e-6, 1000)


@compiled
def test_the_kernels_bits_do_not_depend_on_the_optimiser(tmp_path,
                                                         monkeypatch):
    # the unroll pragmas and the class indices known at compile time serve
    # speed only: a build at -O0 runs every rule set to the same finals,
    # rounds and status (at 2e-5 the IS runs leave the valid range)
    cc = tuple("-O0" if flag == "-O2" else flag for flag in _kernels._CC)
    unoptimised = _kernels._load(cc=cc, cache=tmp_path)
    assert unoptimised is not None
    for target, rules in RULES.items():
        for eps in (1e-5, 2e-5):
            optimised = exact(rules, type(rules).run_chunk, eps, 10 ** 7)
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "_lib", unoptimised)
                assert exact(rules, type(rules).run_chunk, eps,
                             10 ** 7) == optimised, (target, eps)


# the step-size grid of the integrations that leave the valid range, as
# unrounded floats (rounding moves the map): 31 steps from 1e-3 to 1e-6,
# then 10 more down to 1e-7
FAILURE_GRID = [float(eps) for eps in np.logspace(-3, -6, 31)] \
    + [float(eps) for eps in np.logspace(-6, -7, 11)[1:]]
# target -> the indices into FAILURE_GRID at which integrate raises
FAILURE_MAP = {
    "is3": [4, 6, 8, 9, 10, 11, 13, 17, 22, 23, 24, 26, 27, 29, 31, 32, 36],
    "is3-plain": [4, 5, 9, 11, 13, 14, 21, 23, 25, 26, 28, 32, 35, 36, 37,
                  38],
    "is4": [0, 2, 4, 6, 8, 13, 16, 18, 22, 33],
    "cut3": [],
}


@compiled
@pytest.mark.parametrize("target", FAILURE_MAP)
def test_the_runs_that_leave_the_valid_range_are_pinned(target):
    """The IS recurrences overshoot in their terminal rounds at many step
    sizes (ROADMAP, item 1): integrate raises IntegrationError at exactly
    these steps of the grid, and at no other.  This pins the chunk kernels'
    whole runs down to 1e-7, where the composed operations are too slow to
    compare with.  Once the terminal phase ends by a rule of the process,
    every run of the grid is valid, and this test asserts that instead."""
    rules = RULES[target]
    failed = []
    for i, eps in enumerate(FAILURE_GRID):
        params = EvolutionParams(step_size=eps)
        try:
            integrate(rules.initial_state(params), rules, params)
        except IntegrationError:
            failed.append(i)
    assert failed == FAILURE_MAP[target]


@compiled
@pytest.mark.parametrize("budget", [2 ** 63, 2 ** 64, 10 ** 30])
def test_c_kernels_take_budgets_beyond_int64(budget):
    # ctypes would wrap these modulo 2**64 (2**63 to a negative budget, which
    # runs no round); the wrappers clamp them instead
    for rules in (RULES["is3"], RULES["cut3"]):
        assert exact(rules, type(rules).run_chunk, 1e-3, budget) == \
            exact(rules, _python_chunk, 1e-3, budget)


# start states, each the rule set's own (v3 = 1 for is3, v4 = 1 for is4)
# with these fields set, that leave the first round through a range or
# exhaustion exit of the kernel which the runs above never take: (target,
# fields, expected rounds and status)
ODD_STARTS = [
    ("is3", {"independent": -1.0}, (1, STATUS_INVALID)),
    ("is3", {"independent": 0.6}, (1, STATUS_INVALID)),
    ("is4", {"erase": -1.0}, (1, STATUS_INVALID)),
    *((target, {"rat2": 1.0, "rat3": -0.7}, (1, STATUS_EXHAUSTED))
      for target in ("cut3", "cut3-linear")),
    *((target, {"rat2": 1.5, "rat3": 0.1}, (1, STATUS_INVALID))
      for target in ("cut3", "cut3-linear")),
]


@compiled
@pytest.mark.parametrize("target, fields, expected", ODD_STARTS)
def test_c_kernel_exits_match_composed_ops_from_odd_starts(target, fields,
                                                           expected):
    rules = RULES[target]
    got = exact(rules, type(rules).run_chunk, 1e-3, 10, **fields)
    assert got == exact(rules, _python_chunk, 1e-3, 10, **fields)
    assert got[1:] == expected


@compiled
def test_a_build_removes_libraries_of_other_sources(tmp_path):
    stale = tmp_path / "_kernels-deadbeef.so"
    stale.write_bytes(b"old")
    in_flight = tmp_path / "_kernels-0badf00d.so.4242.tmp"
    in_flight.write_bytes(b"another process's build")
    assert _kernels._load(cache=tmp_path) is not None
    built = sorted(p.name for p in tmp_path.glob("_kernels-*.so"))
    assert len(built) == 1 and built[0] != stale.name
    assert in_flight.read_bytes() == b"another process's build"


def test_a_failed_build_removes_nothing(tmp_path):
    stale = tmp_path / "_kernels-deadbeef.so"
    stale.write_bytes(b"old")
    failing = (sys.executable, "-c", "raise SystemExit(1)")
    assert _kernels._load(cc=failing, cache=tmp_path) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_a_cache_directory_that_cannot_be_made_is_reported(tmp_path, capsys):
    assert _kernels._load(cache=tmp_path / "missing" / "cache") is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cache directory" in err
    assert list(tmp_path.iterdir()) == []


def test_an_unloadable_cached_library_is_reported_and_removed(tmp_path,
                                                            capsys):
    # the library this source and these flags would build, planted as a
    # file that is no library: loading it fails, and the next import must
    # not find it again
    tag = zlib.crc32(_kernels._SOURCE.read_bytes()
                     + " ".join(_kernels._CC).encode())
    planted = tmp_path / f"_kernels-{tag:08x}.so"
    planted.write_bytes(b"not a library")
    assert _kernels._load(cache=tmp_path) is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(planted) in err
    assert not planted.exists()


def test_no_compiler_and_no_cache_directory_say_nothing(tmp_path, capsys):
    cc = ("no-such-compiler",) + _kernels._CC[1:]
    assert _kernels._load(cc=cc, cache=tmp_path / "missing" / "cache") is None
    assert capsys.readouterr().err == ""


def test_no_compiler_starts_no_build(tmp_path, capsys, monkeypatch):
    # a library built earlier still loads with no compiler on the path;
    # without one, an import forks no failing build, prints nothing and
    # makes no cache directory
    built = tmp_path / "built"
    has_cc = shutil.which("cc") is not None
    if has_cc:
        assert _kernels._load(cache=built) is not None

    def no_build(*args, **kwargs):
        raise AssertionError(f"a build was started: {args}")

    monkeypatch.setattr(subprocess, "run", no_build)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    if has_cc:
        assert _kernels._load(cache=built) is not None
    cache = tmp_path / "cache"
    assert _kernels._load(cache=cache) is None
    assert capsys.readouterr() == ("", "")
    assert not cache.exists()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_c_source_compiles_without_warnings(tmp_path):
    # the build flags plus strict C99 and every warning as an error: a
    # local left unused by a deleted rule branch, or a compiler extension
    # other than the named builtins, fails here.  -Wconversion makes every
    # store into 32-bit id storage (and every integer-to-double conversion)
    # an explicit cast; the sign conversions of sizes passed to malloc and
    # memmove are not flagged
    build = subprocess.run(
        ["cc", "-O2", "-ffp-contract=off", "-std=c99", "-pedantic", "-Wall",
         "-Wextra", "-Wconversion", "-Wno-sign-conversion", "-Werror",
         "-shared", "-fPIC",
         "-o", str(tmp_path / "k.so"), str(_kernels._SOURCE)],
        capture_output=True, text=True, timeout=_kernels._CC_TIMEOUT_S)
    assert build.returncode == 0, build.stderr


def test_the_cut_engine_reads_the_pairing_alone_in_place(monkeypatch):
    # cut_run hands the engine the graph's own int32 pairing as its first
    # pointer: no copy, no widening to int64, and no owner array
    calls = []

    class Recorded:
        @staticmethod
        def cut_run(n, *args):
            calls.append(args)
            return 0

    monkeypatch.setattr(_kernels, "_lib", Recorded)
    for graph in (generate(1000, 3, seed=0),
                  load_edge_list(MULTIGRAPHS["K4"])):
        _kernels.cut_run(CutProcess(graph, key=0), 0)
        assert graph.pair.dtype == np.int32
        assert calls[-1][0] == graph.pair.ctypes.data


def test_the_is_engine_links_the_survival_graph_s_neighbours_in_place(
        monkeypatch):
    # is_run hands the engine the survival graph's own int32 neighbour
    # array, its first pointer, and not the graph's pairing (a graph keeps
    # no owner array)
    calls = []

    class Recorded:
        @staticmethod
        def is_run(n, *args):
            calls.append(args)
            return 0

    monkeypatch.setattr(_kernels, "_lib", Recorded)
    for graph in (generate(1000, 3, seed=0), load_edge_list(OVER_CAP)):
        g = SurvivalGraph(graph)
        assert g.nbr.dtype == np.int32 and g.nbr.flags.writeable
        assert g.nbr.tolist() == graph.owners()[graph.pair].tolist()
        _kernels.is_run(g, 3, 0.02, 0.002)
        pointers = calls[-1][:6]
        assert pointers[0] == g.nbr.ctypes.data
        assert graph.pair.ctypes.data not in pointers


def reloaded(n: int, d: int, seed: int):
    """A generated graph saved and loaded again: its edge list's half-edges
    are not grouped by owner, so Multigraph renumbers them."""
    return load_edge_list(save_edge_list(generate(n, d, seed=seed)))


def loaded_graph_digest(in_c: bool) -> str:
    """sha256 of whole runs on one backend over loaded graphs: the cut's
    colours, counters and rounds on MULTIGRAPHS and reloaded cubic graphs,
    and the independent set's decisions, degrees, histogram, contractions
    and rounds (``whole_run``) on REGULAR, OVER_CAP and reloaded 3- and
    4-regular graphs."""
    out = []
    sizes = (10, 130, 302, 2000)
    cut_graphs = [load_edge_list(text) for text in MULTIGRAPHS.values()] \
        + [reloaded(n, 3, s) for n in sizes for s in range(3)]
    for graph in cut_graphs:
        for key in range(2):
            for q in (0.0, 0.005, 0.02, 1.0):
                out.append(cut_outputs(graph, key, q))
    is_graphs = [(d, load_edge_list(text)) for d, text in REGULAR.values()] \
        + [(d, load_edge_list(OVER_CAP)) for d in (3, 4)] \
        + [(d, reloaded(n, d, s)) for d in (3, 4) for n in sizes
           for s in range(3)]
    for d, graph in is_graphs:
        for key in range(2):
            for t in (0.0, 0.02, 1.0):
                out.append(whole_run(graph, d, key, t, in_c))
    return hashlib.sha256(repr(out).encode()).hexdigest()


# loaded_graph_digest on either backend.  Multigraph renumbers these
# graphs' half-edges, and the engines read each vertex's as one block: a
# renumbering that moved a half-edge within or out of its vertex's order
# would change the outputs
LOADED_GRAPH_DIGEST = \
    "b5ca91aab01192ae3e7dd4d43b4b92ab4421f0bf69d61062cf1e7bc09c5020ce"


@pytest.mark.parametrize("backend", ["c", "python"])
def test_runs_on_loaded_graphs_match_their_pin(monkeypatch, backend):
    if backend == "c" and _kernels.BACKEND != "c":
        pytest.skip("no C compiler")
    monkeypatch.setattr(_kernels, "BACKEND", backend)
    assert loaded_graph_digest(backend == "c") == LOADED_GRAPH_DIGEST


# runs in a fresh interpreter, since a sanitizer finding aborts it: small
# cut and independent-set runs on the normal library, then on the one that
# _load builds into argv[1] with the flags argv[2:], must agree.  Besides
# d-regular runs (at n = 20000 for each d, whose class sets span five
# summary words of 4096 vertices each), whole cut runs on four MULTIGRAPHS of
# test_cut_local_algorithm (loops and parallel edges, their half-edges
# renumbered by Multigraph) reach the engine's chains over loaded graphs,
# whole independent-set runs on OVER_CAP and the two staircases of
# test_is_local_algorithm reach merges into long neighbour chains, the
# over-cap deletion and scans of more than 64 classes, its EMPTY_X and
# MERGED_AGAIN reach vertices of degree 0 to 2 at the start, a merge
# onto an empty chain and merged vertices merging again, runs of both
# engines on the empty graph take their early returns, whole runs through
# each entry point on a relabelled graph with its labels carried along
# must commute with the relabelling, and the FAILED_RUNS below take each
# engine's failure exit
SANITIZED_RUNS = """
import sys
from pathlib import Path
import numpy as np
from girthlocal import _kernels, is_local_algorithm
from girthlocal.config_model import generate, load_edge_list
from girthlocal.cut_local_algorithm import CutProcess
import test_cut_local_algorithm as cut_tests
import test_is_local_algorithm as is_tests
from test_cut_local_algorithm import MULTIGRAPHS
from test_is_local_algorithm import (EMPTY_X, MERGED_AGAIN, OVER_CAP,
                                     staircases, whole_run)
from test_kernels import FAILED_RUNS, failed_run

LOADED = ("triple_edge", "loop_chain", "double_square", "loops_and_k4")

def cut(graph, key, q):
    r = CutProcess(graph, key=key, query_probability=q).run()
    return r.colors.tobytes(), r.good, r.bad, r.rounds

def outputs():
    out = []
    for q in (0.0, 0.02, 1.0):
        for n, seed in ((10, 0), (130, 6), (2000, 2)):
            out.append(cut(generate(n, 3, seed=seed), seed, q))
    # under key 0: a whitening with no edge left to reveal (q = 1) and a
    # cycle of pending colours pinned at a member past its first (q = 0)
    for q in (0.0, 1.0):
        out.append(cut(generate(2000, 3, seed=2), 0, q))
    for name in LOADED:
        for q in (0.0, 1.0):
            for seed in range(3):
                out.append(cut(load_edge_list(MULTIGRAPHS[name]), seed, q))
    empty = load_edge_list("0 0\\n")
    out.append(cut(empty, 0, 0.02))
    for d in (3, 4):
        for n, seed in ((66, 0), (2000, 1), (20_000, 2)):
            r = is_local_algorithm.run(generate(n, d, seed=seed), d,
                                       seed=seed)
            out.append((r.vertices.tobytes(), r.rounds, r.contractions))
    graphs = [load_edge_list(text) for text in (OVER_CAP, EMPTY_X,
                                                MERGED_AGAIN)]
    for graph in [empty, *graphs, *staircases()]:
        for d in (3, 4):
            for t in (0.0, 0.02, 1.0):
                out.append(whole_run(graph, d, 0, t, True))
    pi = np.random.default_rng(0).permutation(2000)
    assert cut_tests.relabelled_run_difference(
        generate(2000, 3, seed=2), 2, pi) == 0
    for d in (3, 4):
        assert is_tests.relabelled_run_difference(
            generate(2000, d, seed=1), d, 1, pi) == 0
    for case in FAILED_RUNS:
        out.append(failed_run(*case, True))
    return out

normal = outputs()
_kernels._lib = _kernels._load(cc=tuple(sys.argv[2:]),
                               cache=Path(sys.argv[1]))
assert _kernels._lib is not None
assert outputs() == normal
print("same")
"""


def sanitized_runs(tmp_path, cc, **env) -> None:
    """SANITIZED_RUNS in a child under the extra environment ``env``, its
    second library built into tmp_path with the flags cc; the child must
    find the same outputs and print nothing else."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(SRC), str(Path(__file__).resolve().parent))), **env)
    check = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUNS, str(tmp_path), *cc],
        env=env, capture_output=True, text=True, timeout=300)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "same\n" and check.stderr == ""


@compiled
def test_engines_run_clean_under_the_undefined_behaviour_sanitizer(
        tmp_path):
    # gcc leaves float-cast-overflow out of undefined: name it, for the
    # double -> int64_t conversions of the engines' index draws.  Where cc
    # names its AddressSanitizer runtime, every read and write of the
    # engines' arrays is checked too; that runtime must come first in the
    # child, so the child (not this process) builds and loads the library,
    # and the interpreter's own unfreed blocks are not reported as leaks
    env = {}
    sanitizers = "undefined,float-cast-overflow"
    runtime = Path(subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True,
        text=True, timeout=_kernels._CC_TIMEOUT_S).stdout.strip())
    if runtime.is_absolute() and runtime.is_file():
        sanitizers = "address," + sanitizers
        env.update(LD_PRELOAD=str(runtime), ASAN_OPTIONS="detect_leaks=0")
    sanitized_runs(tmp_path, (
        *_kernels._CC, f"-fsanitize={sanitizers}",
        "-fno-sanitize-recover=undefined,float-cast-overflow"), **env)


@compiled
@pytest.mark.skipif(shutil.which("gcov") is None, reason="no gcov")
def test_the_sanitized_runs_reach_every_engine_line(tmp_path):
    # a branch that no run reaches should go: the SANITIZED_RUNS, on a
    # library built with --coverage, run every line of the two event
    # engines and of the helpers they share (the block record, the vectors
    # and FIFO, the bit sets, the draws) but their failure exits, which the
    # FAILED_RUNS and the out-of-memory test take: a fail call (declared
    # noreturn, so nothing follows one) and an ENGINE_NOMEM return
    sanitized_runs(tmp_path, (
        *("-O0" if flag == "-O2" else flag for flag in _kernels._CC),
        "--coverage"))
    (data,) = tmp_path.glob("*.gcda")
    report = subprocess.run(
        ["gcov", "--stdout", data.name], cwd=tmp_path, capture_output=True,
        text=True, timeout=_kernels._CC_TIMEOUT_S, check=True).stdout
    lines = [line.split(":", 2) for line in report.splitlines()]
    start = next(i for i, (_, _, code) in enumerate(lines)
                 if "Shared by the event engines" in code)
    missed = []
    for count, no, code in lines[start:]:
        code = code.strip()
        failure_exit = "fail(" in code or code == "return ENGINE_NOMEM;"
        if count.strip() == "#####" and not failure_exit:
            missed.append(f"{no.strip()}: {code}")
    assert missed == []


# a vertex decided (independent set) or committed (cut) before the run, on
# a 3-regular graph: the run fails where it meets that vertex.  Each case is
# (engine, n, graph seed, vertex).  The independent-set runs fail when the
# merge log is read, deciding a merge's z (vertex 5) or its y (18).  The cut
# runs fail in a reveal, called from a round's query (vertex 7 at n = 300
# and at n = 2000), from a bootstrap commit (1), an endgame commit (2), a
# whitening (4) and a commit in closure (21)
FAILED_RUNS = [("is", 300, 1, 5), ("is", 2000, 2, 18),
               *(("cut", 300, 1, v) for v in (1, 2, 4, 7, 21)),
               ("cut", 2000, 2, 7)]


def failed_run(engine, n, seed, v, in_c):
    """What a run that fails leaves, on one backend (``failed_run`` of the
    engine's test module)."""
    run = failed_is_run if engine == "is" else failed_cut_run
    return run(generate(n, 3, seed=seed), v, in_c)


@compiled
@pytest.mark.parametrize("case", FAILED_RUNS,
                         ids=["-".join(map(str, c)) for c in FAILED_RUNS])
def test_a_failed_check_stops_the_engine_where_the_reference_stops(case):
    # the Python methods stop at their first failed assertion; the engine
    # stops at the same check and leaves every shared buffer and counter as
    # they do
    assert failed_run(*case, True) == failed_run(*case, False)


# runs in a fresh interpreter, which builds a graph of 2e6 vertices and
# each engine's process over it, then caps its own address space at its
# size plus 16 MB, well below either engine's private state: each run must
# raise MemoryError, free what it allocated and write its counters back.
# The child's malloc serves every block of 128 kB or more by its own mmap
# (MALLOC_MMAP_THRESHOLD_, which also stops glibc from raising that
# threshold as large blocks are freed), so the arrays freed while the graph
# and processes are built go back to the system and leave no free heap of
# tens of MB inside the cap, from which an engine's state could be served
OUT_OF_MEMORY = """
import resource
from girthlocal import _kernels
from girthlocal.config_model import generate
from girthlocal.cut_local_algorithm import ENDGAME_FLOOR, CutProcess
from girthlocal.is_local_algorithm import PERSISTENCE_FRACTION, SurvivalGraph

graph = generate(2_000_000, 3, seed=0)
proc = CutProcess(graph, key=0)
g = SurvivalGraph(graph, 0)
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + 16 * 2 ** 20, hard))
for run in (lambda: _kernels.cut_run(proc, ENDGAME_FLOOR),
            lambda: _kernels.is_run(g, 3, 0.02, PERSISTENCE_FRACTION)):
    try:
        run()
    except MemoryError as err:
        print(err)
print(proc.good, proc.bad, proc.survival, g.survival_count, g.contractions)
"""


@compiled
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the process size from /proc/self/statm")
def test_an_engine_out_of_memory_raises_memory_error():
    check = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY],
        env=dict(os.environ, PYTHONPATH=str(SRC),
                 MALLOC_MMAP_THRESHOLD_=str(128 * 2 ** 10)),
        capture_output=True, text=True, timeout=300)
    assert check.returncode == 0 and check.stderr == "", check.stderr
    assert check.stdout == ("cut engine: out of memory\n"
                            "independent-set engine: out of memory\n"
                            "0 0 2000000 2000000 0\n")


# runs in a fresh interpreter: K repeats of a whole run of each engine at
# n = 2000 and of each of the FAILED_RUNS; glibc's in-use bytes (mallinfo2's
# uordblks, the heap's, plus hblkhd, the mmapped blocks'), read after a
# collection, must be the same after the K-th repeat as after the first,
# to within MEMORY_BOUND, less than K times the smallest private block
# (8 bytes, the cut's cand_sum at these n).  A block that a run does not
# give back takes at least 32 bytes of heap on each repeat.  The child's
# malloc keeps no per-thread cache (tcache_count=0), whose freed chunks
# mallinfo2 counts as in use, so the count of a repeat is exact.  The
# repeats run inside a function: a loop at the top level of a -c script
# was seen to take 784 bytes once, on its second pass
MEMORY_REPEATS, MEMORY_BOUND = 20, 80
MEMORY_GIVEN_BACK = """
import ctypes
import gc
import sys
from girthlocal import is_local_algorithm
from girthlocal.config_model import generate
from girthlocal.cut_local_algorithm import CutProcess
from test_kernels import FAILED_RUNS, failed_run

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2

def in_use():
    gc.collect()
    info = mallinfo2()
    return info.uordblks + info.hblkhd

graphs = {d: generate(2000, d, seed=d) for d in (3, 4)}

def repeat():
    for d in (3, 4):
        is_local_algorithm.run(graphs[d], d, seed=1)
    CutProcess(graphs[3], key=1).run()
    for case in FAILED_RUNS:
        failed_run(*case, True)

def growth(k):
    repeat()
    first = in_use()
    for _ in range(k - 1):
        repeat()
    return in_use() - first

print(growth(int(sys.argv[1])))
"""


def has_mallinfo2() -> bool:
    """Whether this is Linux with a C library that has glibc's mallinfo2."""
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None),
                                                        "mallinfo2")


@compiled
@pytest.mark.skipif(not has_mallinfo2(), reason="no glibc mallinfo2")
def test_every_engine_run_gives_back_its_memory():
    # each run frees every private block it allocated, whether it ends
    # whole or stops at a failed check
    check = subprocess.run(
        [sys.executable, "-c", MEMORY_GIVEN_BACK, str(MEMORY_REPEATS)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            (str(SRC), str(Path(__file__).resolve().parent))),
            GLIBC_TUNABLES="glibc.malloc.tcache_count=0"),
        capture_output=True, text=True, timeout=300)
    assert check.returncode == 0 and check.stderr == "", check.stderr
    assert abs(int(check.stdout)) < MEMORY_BOUND < 8 * MEMORY_REPEATS


# u(key, t, purpose, label) as float.hex, for key 0x0123456789abcdef:
# (t, purpose, label or None) -> u
DRAW_PINS = {
    (0, _kernels.MARK, None): "0x1.57a3807a48fa8p-4",
    (7, _kernels.FORCE, None): "0x1.d8a4e1ddb56c0p-4",
    (1234, _kernels.RED_PICK, None): "0x1.79a5e8fc08ef6p-2",
    (2 ** 40, _kernels.GREEN_PICK, None): "0x1.8386ef276c061p-1",
    (3, _kernels.MARK, 0): "0x1.7a8b7f70c533ap-1",
    (3, _kernels.MARK, 1): "0x1.3861040af1163p-1",
    (3, _kernels.MARK, 2): "0x1.8db79de599c85p-1",
    (3, _kernels.MARK, 2 ** 31 - 1): "0x1.d67591f531061p-1",
}


def test_the_draws_are_pinned():
    # the round keys of key 0 are splitmix64's outputs from state 0, whose
    # first three are the reference implementation's; the draws are
    # pinned exactly, computed on uint64 arrays and masked Python ints
    # with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [_kernels._mix64(i * 0x9E3779B97F4A7C15 & _kernels._MASK)
                for i in (1, 2, 3)] == [0xE220A8397B1DCDAF,
                                        0x6E789E6AA1B965F4,
                                        0x06C45D188009454F]
        key = 0x0123456789ABCDEF
        for (t, purpose, label), pin in DRAW_PINS.items():
            if label is None:
                u = _kernels.draw(key, t, purpose)
            else:
                u = _kernels.draw(key, t, purpose,
                                  np.array([label], dtype=np.int32))[0]
            assert float(u).hex() == pin, (t, purpose, label)
        # one label's draw is the same alone or among others, and a key
        # at the top of the range wraps as in C
        labels = np.array([0, 1, 2, 2 ** 31 - 1], dtype=np.int32)
        assert [float(u).hex() for u in _kernels.draw(
            key, 3, _kernels.MARK, labels)] == [
                DRAW_PINS[(3, _kernels.MARK, int(v))] for v in labels]
        top = _kernels.draw(2 ** 64 - 1, 0, _kernels.MARK, labels)
        assert top.dtype == np.float64 and np.all((0 <= top) & (top < 1))


def calls_by_function(path) -> dict:
    """name of each function or method a module defines -> the names it
    calls (``f(...)`` or ``x.f(...)``), nested definitions included; the
    module's top level is ``None``."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            elif isinstance(child, ast.Call):
                f = child.func
                found.setdefault(owner, set()).add(
                    f.attr if isinstance(f, ast.Attribute) else
                    getattr(f, "id", None))
            visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return found


def labelled_calls(path, function: str) -> set:
    """The names called in the module-level ``function`` of the module at
    path with the name ``labels`` among their arguments."""
    (node,) = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == function]
    return {call.func.attr if isinstance(call.func, ast.Attribute)
            else call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and any(isinstance(arg, ast.Name) and arg.id == "labels"
                    for arg in [*call.args,
                                *(k.value for k in call.keywords)])}


def renames_by_labels(path) -> bool:
    """Whether ``SurvivalGraph.__init__`` in the module at path sets the
    neighbours of vertex labels[v] to the labels of v's neighbours: an
    assignment to ``...[labels]`` of a value read from ``labels[...]``."""
    (cls,) = [node for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef)
              and node.name == "SurvivalGraph"]
    (init,) = [node for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "__init__"]

    def is_labels(node):
        return isinstance(node, ast.Name) and node.id == "labels"

    return any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Subscript) and is_labels(t.slice)
                       for t in node.targets)
               and any(isinstance(x, ast.Subscript) and is_labels(x.value)
                       for x in ast.walk(node.value))
               for node in ast.walk(init))


def test_finite_runs_draw_from_their_labels_alone():
    # one draw primitive in both backends, keyed on vertex ids, with no
    # generator in a run: the C source names no numpy bit generator and no
    # label array outside its comments, so the engines key every draw on
    # an id; the two process modules reach numpy's Generator only through
    # run_labels, in their whole-run entry points alone, which rename
    # each vertex by its label (the cut by Multigraph.renamed, the
    # independent set in SurvivalGraph's one-pass build of its neighbour
    # array); their rounds call _kernels.draw
    source = _kernels._SOURCE.read_text()
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.DOTALL)
    for name in ("bitgen", "next_double", "next_uint", "bit_generator"):
        assert name not in source, name
    assert re.search(r"\blabels?\b", code) is None
    generator = {"default_rng", "Generator", "random", "integers",
                 "permutation", "choice", "bit_generator"}
    for module, entry, renaming in (
            (is_local_algorithm, "run", "SurvivalGraph"),
            (cut_local_algorithm, "run_cut", "renamed")):
        calls = calls_by_function(Path(module.__file__))
        assert {name for name, called in calls.items()
                if "run_labels" in called} == {entry}, module.__name__
        assert renaming in labelled_calls(Path(module.__file__), entry), \
            module.__name__
        assert not set().union(*calls.values()) & generator, module.__name__
        assert "draw" in set().union(*calls.values())
    assert renames_by_labels(Path(is_local_algorithm.__file__))


# a function definition at the top level of the C source: its return type
# and name at the start of a line, its parameters, then the opening brace
C_DEFINITION = re.compile(
    r"^(?!static\b)(\w[\w\s]*?[\s*])(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)
# one parameter: an optional const, its type, an optional star, its name
C_PARAMETER = re.compile(r"(?:const\s+)?(\w+)\s*(\*?)\s*\w+")
C_SCALARS = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64,
             "double": ctypes.c_double}


def exported_functions():
    """name -> (return type, parameters) of each non-static function that
    _kernels.c defines; each parameter is (type, is a pointer)."""
    found = {}
    for ret, name, params in C_DEFINITION.findall(
            _kernels._SOURCE.read_text()):
        params = params.strip()
        found[name] = (ret.strip(), [] if params in ("", "void") else [
            (kind, star == "*") for kind, star in
            (C_PARAMETER.fullmatch(p.strip()).groups()
             for p in params.split(","))])
    return found


def declares(argtype, kind: str, pointer: bool) -> bool:
    """Whether a ctypes argtypes entry passes a C parameter of this type:
    a pointer as c_void_p or as a pointer to its own scalar type, a scalar
    as its own ctypes type."""
    if pointer:
        return argtype is ctypes.c_void_p or (
            kind in C_SCALARS and argtype is ctypes.POINTER(C_SCALARS[kind]))
    return argtype is C_SCALARS.get(kind)


@compiled
def test_ctypes_declarations_match_the_c_source():
    # a wrong pointer count corrupts memory, and a double passed where an
    # int64_t is read (or the reverse) garbles it, instead of raising: so
    # every exported function is declared with its parameters' count and
    # kinds, and every declaration names a function the source defines
    lib = _kernels._load()
    declared = {name for name, f in vars(lib).items()
                if isinstance(f, lib._FuncPtr)}
    exported = exported_functions()
    # the chunk kernels and each engine's whole interface: a run is one call
    assert set(exported) == {"is_chunk", "cut_chunk", "is_run", "cut_run"}
    for name, (ret, params) in exported.items():
        f = getattr(lib, name)
        assert f.argtypes is not None and len(f.argtypes) == len(params), \
            name
        for i, (argtype, (kind, pointer)) in enumerate(
                zip(f.argtypes, params)):
            assert declares(argtype, kind, pointer), (name, i)
        restype = ctypes.c_void_p if ret.endswith("*") else \
            {"void": None, "int64_t": ctypes.c_int64}[ret]
        assert f.restype is restype, name
    assert declared <= set(exported)


def test_the_c_class_cap_is_the_python_one():
    # is_chunk's state holds classes 2 to DEGREE_CAP, as DegreeState does
    cap = re.search(r"^#define DEGREE_CAP (\d+)\b",
                    _kernels._SOURCE.read_text(), re.MULTILINE)
    assert cap is not None and int(cap.group(1)) == DEGREE_CAP


def is_outputs(graph, d, key):
    """A whole independent-set run under the key in one ``_kernels.is_run``
    call: its decisions, contractions and rounds."""
    g = SurvivalGraph(graph, key)
    rounds = _kernels.is_run(g, d, is_local_algorithm.THIN_PROBABILITY,
                             is_local_algorithm.PERSISTENCE_FRACTION)
    return bytes(g.status), g.contractions, rounds


def cut_outputs(graph, key, q=0.005):
    """A whole cut run under the key (on the C engine when it is built):
    its colours, counters and rounds."""
    r = CutProcess(graph, key=key, query_probability=q).run()
    return r.colors.tobytes(), r.good, r.bad, r.rounds


@compiled
@pytest.mark.parametrize("n", [2000, 20000])
def test_engines_on_threads_match_engines_in_turn(n):
    # the engines share no C state, and ctypes releases the GIL for each
    # call: two independent-set runs and two cut runs started at once on
    # four threads (more than the cores of a small machine), with a short
    # switch interval, give what the same runs give one after the other.
    # A race shows only when the runs overlap, so the start is repeated
    jobs = [(is_outputs, generate(n, 3, seed=0), 3, 0),
            (is_outputs, generate(n, 4, seed=1), 4, 1),
            (cut_outputs, generate(n, 3, seed=2), 2),
            (cut_outputs, generate(n, 3, seed=3), 3)]
    in_turn = [run(*args) for run, *args in jobs]
    start = threading.Barrier(len(jobs))

    def work(i, at_once):
        run, *args = jobs[i]
        start.wait(timeout=60)
        at_once[i] = run(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            at_once = [None] * len(jobs)
            threads = [threading.Thread(target=work, args=(i, at_once))
                       for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert at_once == in_turn
    finally:
        sys.setswitchinterval(interval)
