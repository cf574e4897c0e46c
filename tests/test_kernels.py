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
import zlib
from pathlib import Path

import numpy as np
import pytest

from girthlocal import _kernels, cut_local_algorithm, is_local_algorithm
from girthlocal.config_model import generate, load_edge_list, save_edge_list
from girthlocal.cut_evolution import CutRules
from girthlocal.cut_local_algorithm import CutProcess
from girthlocal.evolution_core import (STATUS_EXHAUSTED, STATUS_INVALID,
                                       EvolutionParams, _python_chunk)
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


def test_engines_read_the_graph_arrays_in_place():
    # the engines take the graph's int32 arrays as they are: no copy, and
    # no widening to int64
    for g in (generate(1000, 3, seed=0), load_edge_list(MULTIGRAPHS["K4"])):
        given = _kernels._graph_arrays(g)
        assert len(given) == 2
        for a, own in zip(given, (g.owner, g.pair)):
            assert a.dtype == np.int32 and np.shares_memory(a, own)


def reloaded(n: int, d: int, seed: int):
    """A generated graph saved and loaded again: its edge list's half-edges
    are not grouped by owner, so Multigraph renumbers them."""
    return load_edge_list(save_edge_list(generate(n, d, seed=seed)))


def loaded_graph_digest(in_c: bool) -> str:
    """sha256 of whole runs on one backend over loaded graphs: the cut's
    colours, counters, rounds and generator state on MULTIGRAPHS and
    reloaded cubic graphs, and the independent set's decisions, degrees,
    histogram, contractions, rounds and generator state (``whole_run``) on
    REGULAR, OVER_CAP and reloaded 3- and 4-regular graphs."""
    out = []
    sizes = (10, 130, 302, 2000)
    cut_graphs = [load_edge_list(text) for text in MULTIGRAPHS.values()] \
        + [reloaded(n, 3, s) for n in sizes for s in range(3)]
    for graph in cut_graphs:
        for seed in range(2):
            for q in (0.0, 0.005, 0.02, 1.0):
                out.append(cut_outputs(graph, seed, q))
    is_graphs = [(d, load_edge_list(text)) for d, text in REGULAR.values()] \
        + [(d, load_edge_list(OVER_CAP)) for d in (3, 4)] \
        + [(d, reloaded(n, d, s)) for d in (3, 4) for n in sizes
           for s in range(3)]
    for d, graph in is_graphs:
        for seed in range(2):
            for t in (0.0, 0.02, 1.0):
                out.append(whole_run(graph, d, seed, t, in_c))
    return hashlib.sha256(repr(out).encode()).hexdigest()


# loaded_graph_digest on either backend.  Multigraph renumbers these
# graphs' half-edges, and the engines read each vertex's as one block: a
# renumbering that moved a half-edge within or out of its vertex's order
# would change the outputs
LOADED_GRAPH_DIGEST = \
    "2a23f4e15ce5eb2d96e075f143406ebb4f26ae1121ba9e24602f5b45f0909139"


@pytest.mark.parametrize("backend", ["c", "python"])
def test_runs_on_loaded_graphs_match_their_pin(monkeypatch, backend):
    if backend == "c" and _kernels.BACKEND != "c":
        pytest.skip("no C compiler")
    monkeypatch.setattr(_kernels, "BACKEND", backend)
    assert loaded_graph_digest(backend == "c") == LOADED_GRAPH_DIGEST


# runs in a fresh interpreter, since a sanitizer finding aborts it: small
# cut and independent-set runs on the normal library, then on the one that
# _load builds into argv[1] with the flags argv[2:], must agree.  Besides
# d-regular runs, whole cut runs on four MULTIGRAPHS of
# test_cut_local_algorithm (loops and parallel edges, their half-edges
# renumbered by Multigraph) reach the engine's chains over loaded graphs,
# whole independent-set runs on OVER_CAP and the two staircases of
# test_is_local_algorithm reach the neighbour pool's relocation, the
# over-cap deletion and scans of more than 64 classes, and the FAILED_RUNS
# below take each engine's failure exit
SANITIZED_RUNS = """
import sys
from pathlib import Path
from girthlocal import _kernels, is_local_algorithm
from girthlocal.config_model import generate, load_edge_list
from girthlocal.cut_local_algorithm import CutProcess
from test_cut_local_algorithm import MULTIGRAPHS
from test_is_local_algorithm import OVER_CAP, staircases, whole_run
from test_kernels import FAILED_RUNS, failed_run

LOADED = ("triple_edge", "loop_chain", "double_square", "loops_and_k4")

def cut(graph, seed, q):
    p = CutProcess(graph, seed=seed, query_probability=q)
    r = p.run()
    return (r.colors.tobytes(), r.good, r.bad, r.rounds,
            p.rng.bit_generator.state)

def outputs():
    out = []
    for q in (0.0, 0.02, 1.0):
        for n, seed in ((10, 0), (130, 6), (2000, 2)):
            out.append(cut(generate(n, 3, seed=seed), seed, q))
    for name in LOADED:
        for q in (0.0, 1.0):
            for seed in range(3):
                out.append(cut(load_edge_list(MULTIGRAPHS[name]), seed, q))
    for d in (3, 4):
        for n, seed in ((66, 0), (2000, 1)):
            r = is_local_algorithm.run(generate(n, d, seed=seed), d,
                                       seed=seed)
            out.append((r.vertices, r.rounds, r.contractions))
    for graph in [load_edge_list(OVER_CAP), *staircases()]:
        for d in (3, 4):
            for t in (0.0, 0.02, 1.0):
                out.append(whole_run(graph, d, 0, t, True))
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


@compiled
def test_engines_run_clean_under_the_undefined_behaviour_sanitizer(
        tmp_path):
    # gcc leaves float-cast-overflow out of undefined: name it, for the
    # double -> int64_t conversions of the engines' index draws.  Where cc
    # names its AddressSanitizer runtime, every read and write of the
    # engines' arrays is checked too; that runtime must come first in the
    # child, so the child (not this process) builds and loads the library,
    # and the interpreter's own unfreed blocks are not reported as leaks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(SRC), str(Path(__file__).resolve().parent))))
    sanitizers = "undefined,float-cast-overflow"
    runtime = Path(subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True,
        text=True, timeout=_kernels._CC_TIMEOUT_S).stdout.strip())
    if runtime.is_absolute() and runtime.is_file():
        sanitizers = "address," + sanitizers
        env.update(LD_PRELOAD=str(runtime), ASAN_OPTIONS="detect_leaks=0")
    cc = (*_kernels._CC, f"-fsanitize={sanitizers}",
          "-fno-sanitize-recover=undefined,float-cast-overflow")
    check = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUNS, str(tmp_path), *cc],
        env=env, capture_output=True, text=True, timeout=300)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "same\n" and check.stderr == ""


# a vertex decided (independent set) or committed (cut) before the run, on
# a 3-regular graph: the run fails where it meets that vertex.  Each case is
# (engine, n, graph seed, vertex).  The cut runs fail in a reveal, called
# from a query (vertex 0 at n = 300, 7 at n = 2000), from a commit in
# closure (1), a whitening (2), a bootstrap commit (5) and an endgame
# commit (7 at n = 300)
FAILED_RUNS = [("is", 300, 1, 5), ("is", 2000, 2, 17),
               *(("cut", 300, 1, v) for v in (0, 1, 2, 5, 7)),
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
    # stops at the same check and leaves every shared buffer, counter and
    # the generator as they do
    assert failed_run(*case, True) == failed_run(*case, False)


# runs in a fresh interpreter, which builds a graph of 2e6 vertices and
# each engine's process over it, then caps its own address space at its
# size plus 16 MB, well below either engine's private state: each run must
# raise MemoryError, free what it allocated and write its counters back
OUT_OF_MEMORY = """
import resource
import numpy as np
from girthlocal import _kernels
from girthlocal.config_model import generate
from girthlocal.cut_local_algorithm import ENDGAME_FLOOR, CutProcess
from girthlocal.is_local_algorithm import (
    DEGREE_CAP, PERSISTENCE_FRACTION, SurvivalGraph)

graph = generate(2_000_000, 3, seed=0)
proc = CutProcess(graph, seed=0)
g = SurvivalGraph(graph)
rng = np.random.default_rng(0)
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + 16 * 2 ** 20, hard))
for run in (lambda: _kernels.cut_run(proc, ENDGAME_FLOOR),
            lambda: _kernels.is_run(g, rng, 3, 0.02, PERSISTENCE_FRACTION,
                                    DEGREE_CAP)):
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
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300)
    assert check.returncode == 0 and check.stderr == "", check.stderr
    assert check.stdout == ("cut engine: out of memory\n"
                            "independent-set engine: out of memory\n"
                            "0 0 2000000 2000000 0\n")


def generator_methods_called(path) -> set:
    """The methods a module calls on a random generator: on a name
    ``rng`` or an attribute ``.rng``."""
    return {node.func.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "rng"
                 or isinstance(node.func.value, ast.Attribute)
                 and node.func.value.attr == "rng")}


def test_every_finite_run_draw_is_one_next_double():
    # one draw primitive in both backends: the C engines read the bit
    # generator through next_double alone (the other members are named
    # only where bitgen_t declares them), and the Python processes call no
    # generator method but random
    source = _kernels._SOURCE.read_text()
    declaration = re.search(r"typedef struct \{[^}]*\} bitgen_t;",
                            source).group()
    outside = source.replace(declaration, "")
    for name in ("next_uint32", "next_uint64", "next_raw"):
        assert name in declaration and name not in outside, name
    for module in (is_local_algorithm, cut_local_algorithm):
        assert generator_methods_called(Path(module.__file__)) == \
            {"random"}, module.__name__


# a function definition at the top level of the C source: its return type
# and name at the start of a line, its parameters, then the opening brace
C_DEFINITION = re.compile(
    r"^(?!static\b)(\w[\w\s]*?[\s*])(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)
# one parameter: an optional const, its type, an optional star, its name
C_PARAMETER = re.compile(r"(?:const\s+)?(\w+)\s*(\*?)\s*\w+")
C_SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}


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


def is_outputs(graph, d, seed):
    """A whole independent-set run in one ``_kernels.is_run`` call: its
    decisions, contractions and rounds, and its generator's final state."""
    g = SurvivalGraph(graph)
    rng = np.random.default_rng(seed)
    rounds = _kernels.is_run(g, rng, d, is_local_algorithm.THIN_PROBABILITY,
                             is_local_algorithm.PERSISTENCE_FRACTION,
                             DEGREE_CAP)
    return bytes(g.status), g.contractions, rounds, rng.bit_generator.state


def cut_outputs(graph, seed, q=0.005):
    """A whole cut run (on the C engine when it is built): its colours,
    counters and rounds, and its generator's final state."""
    p = CutProcess(graph, seed=seed, query_probability=q)
    r = p.run()
    return r.colors.tobytes(), r.good, r.bad, r.rounds, \
        p.rng.bit_generator.state


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
