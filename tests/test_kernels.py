"""The compiled chunk kernels against the composed reference, bit for bit,
the build and ctypes declarations that load them, and the event engines
run at once on threads."""
import ctypes
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

from girthlocal import _kernels, is_local_algorithm
from girthlocal.config_model import generate
from girthlocal.cut_evolution import CutRules
from girthlocal.cut_local_algorithm import CutProcess
from girthlocal.evolution_core import EvolutionParams, _python_chunk
from girthlocal.is_evolution import DEGREE_CAP, Is3Rules, Is4Rules
from girthlocal.is_local_algorithm import SurvivalGraph

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


def exact(rules, run, eps, max_rounds):
    params = EvolutionParams(step_size=eps)
    state = rules.initial_state(params)
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
    g = generate(1000, 3, seed=0)
    for given, own in zip(_kernels._graph_arrays(g),
                          (g.owner, g.pair, g.slot_array())):
        assert given.dtype == np.int32 and np.shares_memory(given, own)


# runs in a fresh interpreter, since a sanitizer finding aborts it: small
# cut and independent-set runs on the normal library, then on the one that
# _load builds into argv[1] with the flags argv[2:], must agree
SANITIZED_RUNS = """
import sys
from pathlib import Path
from girthlocal import _kernels, is_local_algorithm
from girthlocal.config_model import generate
from girthlocal.cut_local_algorithm import CutProcess

def outputs():
    out = []
    for q in (0.0, 0.02, 1.0):
        for n, seed in ((10, 0), (130, 6), (2000, 2)):
            p = CutProcess(generate(n, 3, seed=seed), seed=seed,
                           query_probability=q)
            r = p.run()
            out.append((r.colors.tobytes(), r.good, r.bad, r.rounds,
                        p.rng.bit_generator.state))
    for d in (3, 4):
        for n, seed in ((66, 0), (2000, 1)):
            r = is_local_algorithm.run(generate(n, d, seed=seed), d,
                                       seed=seed)
            out.append((r.vertices, r.rounds, r.contractions))
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
    cc = (*_kernels._CC, "-fsanitize=undefined",
          "-fno-sanitize-recover=undefined")
    assert _kernels._load(cc=cc, cache=tmp_path) is not None
    check = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUNS, str(tmp_path), *cc],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=300)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "same\n" and check.stderr == ""


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
    assert {"is_chunk", "cut_new", "is_new", "is_unfold_merges",
            "is_scan", "is_run", "cut_round", "cut_run"} \
        <= set(exported)
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


def is_run(graph, d, seed):
    """A whole independent-set run in one ``IsEngine.run`` call: its
    decisions, contractions and rounds, and its generator's final state."""
    g = SurvivalGraph(graph)
    rng = np.random.default_rng(seed)
    with _kernels.IsEngine(g, DEGREE_CAP) as engine:
        rounds = engine.run(rng, d, is_local_algorithm.THIN_PROBABILITY,
                            is_local_algorithm.PERSISTENCE_FRACTION)
    return bytes(g.status), g.contractions, rounds, rng.bit_generator.state


def cut_run(graph, seed):
    """A whole cut run on the C engine: its colours, counters and rounds,
    and its generator's final state."""
    p = CutProcess(graph, seed=seed, query_probability=0.005)
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
    jobs = [(is_run, generate(n, 3, seed=0), 3, 0),
            (is_run, generate(n, 4, seed=1), 4, 1),
            (cut_run, generate(n, 3, seed=2), 2),
            (cut_run, generate(n, 3, seed=3), 3)]
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
