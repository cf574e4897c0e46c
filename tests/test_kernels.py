"""The compiled chunk kernels against the composed reference, bit for bit,
and the build and ctypes declarations that load them."""
import ctypes
import re
import shutil
import subprocess
import sys
import zlib

import numpy as np
import pytest

from girthlocal import _kernels
from girthlocal.cut_evolution import CutRules
from girthlocal.evolution_core import EvolutionParams, _python_chunk
from girthlocal.is_evolution import Is3Rules, Is4Rules

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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_c_source_compiles_without_warnings(tmp_path):
    # the build flags plus strict C99 and every warning as an error: a
    # local left unused by a deleted rule branch, or a compiler extension
    # other than the named builtins, fails here
    build = subprocess.run(
        ["cc", "-O2", "-ffp-contract=off", "-std=c99", "-pedantic", "-Wall",
         "-Wextra", "-Werror", "-shared", "-fPIC",
         "-o", str(tmp_path / "k.so"), str(_kernels._SOURCE)],
        capture_output=True, text=True, timeout=_kernels._CC_TIMEOUT_S)
    assert build.returncode == 0, build.stderr


# a function definition at the top level of the C source: its return type
# and name at the start of a line, its parameters, then the opening brace
C_DEFINITION = re.compile(
    r"^(?!static\b)(\w[\w\s]*?[\s*])(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)


def exported_functions():
    """name -> (return type, parameter count) of each non-static function
    that _kernels.c defines."""
    found = {}
    for ret, name, params in C_DEFINITION.findall(
            _kernels._SOURCE.read_text()):
        params = params.strip()
        count = 0 if params in ("", "void") else params.count(",") + 1
        found[name] = (ret.strip(), count)
    return found


@compiled
def test_ctypes_declarations_match_the_c_source():
    # a wrong pointer count corrupts memory instead of raising, so every
    # exported function is declared with its parameter count, and every
    # declaration names a function the source defines
    lib = _kernels._load()
    declared = {name for name, f in vars(lib).items()
                if isinstance(f, lib._FuncPtr)}
    exported = exported_functions()
    assert {"is_chunk", "cut_new", "is_new", "is_unfold_merges",
            "is_scan", "is_run", "cut_round"} \
        <= set(exported)
    for name, (ret, count) in exported.items():
        f = getattr(lib, name)
        assert f.argtypes is not None and len(f.argtypes) == count, name
        restype = ctypes.c_void_p if ret.endswith("*") else \
            {"void": None, "int64_t": ctypes.c_int64}[ret]
        assert f.restype is restype, name
    assert declared <= set(exported)
