"""One benchmark pass, in a fresh interpreter.

Usage: ``python3 runner.py SRC_DIR``.  Imports ``girthlocal.cli`` from
SRC_DIR, makes the first call of every evolution kernel (which is where
numba compiles, when it is installed), and prints one JSON line with the
environment: that line marks the interpreter as set up.  It then reads one
JSON job from stdin::

    {"commands": [[argv...], ...], "trace": false, "spill_dir": "..."}

runs ``girthlocal.cli.main(argv)`` for each command in this process,
capturing what it prints, and answers with one JSON line: per command the
exit code, wall seconds and captured output; the peak resident set of this
process and of its largest child; and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path


def _ready(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy
    import girthlocal
    import girthlocal.cli  # noqa: F401  (the entry point being measured)
    from girthlocal.cut_evolution import CutRules
    from girthlocal.evolution_core import EvolutionParams
    from girthlocal.is_evolution import Is3Rules, Is4Rules

    if Path(girthlocal.__file__).resolve().parent != src / "girthlocal":
        raise SystemExit(f"girthlocal imported from {girthlocal.__file__}, "
                         f"not from {src}")
    params = EvolutionParams(step_size=1e-7)
    for rules in (Is3Rules(), Is4Rules(), CutRules(),
                  CutRules(mode="linear_solve")):
        rules.run_chunk(rules.initial_state(params), params, 1)
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": "numba" if find_spec("numba") else "python"}


def _run_one(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash counts as a failed run, not a lost pass
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
    return {"rc": rc, "wall": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _run_job(job: dict) -> dict:
    from girthlocal.cli import main

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["spill_dir"])
        tracer.install()
    results = []
    try:
        for argv in job["commands"]:
            if tracer is None:
                results.append(_run_one(main, argv))
                continue
            span = len(tracer.start)
            results.append(tracer.call("cli.main", _run_one, main, argv))
            tracer.merge_spills(span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_maxrss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }


def main() -> None:
    src = Path(sys.argv[1]).resolve()
    print(json.dumps(_ready(src)), flush=True)
    line = sys.stdin.readline()
    if line:  # no job: the parent only timed the set-up
        print(json.dumps(_run_job(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
