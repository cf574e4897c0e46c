"""girthlocal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs one workload's command lines through
``girthlocal.cli.main`` in a fresh interpreter (see runner.py), and every
run in it is checked (see workloads.py).

--trace 0 repeats passes until S seconds have passed, and at least twice,
and reports the end-to-end metrics as medians over passes.
--trace 1 runs one untraced and one traced pass (plus, when the workload
fans out, each seed alone) and reports the per-layer metrics.

The last line of standard output is the JSON result; the lines before it
give each metric by name with its unit, and the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import FULL, PASSES, SMOKE, WORKLOADS, check_exit  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7  # fresh interpreters timed per run, passes included
END_TO_END = {"wall_s": "s", "is_s": "s", "cut_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class Runner:
    """A runner.py child: started, timed to ready, then given one job."""

    def __init__(self, tmp: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   GIRTHLOCAL_OUT=str(tmp / "out"))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=tmp)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if not line:
                raise RuntimeError("runner exited before it was ready")
            self.environment = json.loads(line)
        except BaseException:
            self.close()
            raise

    def run(self, job: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("runner exited without a result")
            return json.loads(line)
        finally:
            self.close()

    def close(self) -> None:
        self.proc.stdin.close()  # a runner given no job exits
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Totals:
    """Runs attempted and failed, problems seen, and finite-run gaps."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.is_gaps: list = []
        self.cut_gaps: list = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.is_gaps += outcome.is_gaps
        self.cut_gaps += outcome.cut_gaps


def pool_workers(commands: list) -> int:
    """Workers of the largest --seeds K pool: min(K, cores), as the CLI
    sizes it; 0 when no command fans out."""
    return max([min(c.seeds, os.cpu_count() or 1)
                for c in commands if c.seeds > 1], default=0)


def run_pass(commands: list, tmp: Path, totals: Totals, trace: bool = False,
             extra: list = ()) -> tuple:
    """One pass in a fresh runner; returns (runner, reply, pass metrics)."""
    out = tmp / "out"
    out.mkdir(exist_ok=True)
    spill = tmp / "spill"
    spill.mkdir(exist_ok=True)
    runner = Runner(tmp)
    reply = runner.run({"commands": [c.argv for c in commands] + list(extra),
                        "trace": trace, "spill_dir": str(spill)})
    results = reply["results"]
    walls = {"is": 0.0, "cut": 0.0}
    for command, result in zip(commands, results):
        walls[command.kind] += result["wall"]
        totals.add(command.check(result, out))
    # each pool worker is counted at the largest worker's peak
    peak_kb = (reply["maxrss_kb"]
               + pool_workers(commands) * reply["child_maxrss_kb"])
    metrics = {"wall_s": walls["is"] + walls["cut"], "is_s": walls["is"],
               "cut_s": walls["cut"], "peak_rss_mb": peak_kb / 1024}
    return runner, reply, metrics


def measure(workload: str, seed: int, seconds: float, sizes, tmp: Path,
            totals: Totals) -> tuple:
    """Untraced passes for ``seconds``; end-to-end metrics as medians."""
    passes, setups, env = [], [], None
    begin = time.perf_counter()
    while True:
        commands = PASSES[workload](sizes, seed, len(passes), tmp)
        runner, _, metrics = run_pass(commands, tmp, totals)
        setups.append(runner.setup_s)
        env = runner.environment
        passes.append(metrics)
        print(f"pass {len(passes)}: " + ", ".join(
            f"{k} {v:.4f}" for k, v in metrics.items()), flush=True)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - begin >= seconds):
            break
    while len(setups) < SETUP_SAMPLES:
        setup_runner = Runner(tmp)
        setup_runner.close()
        setups.append(setup_runner.setup_s)
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in ("wall_s", "is_s", "cut_s")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"]
                                               for p in passes)
    return metrics, env


def trace(workload: str, seed: int, sizes, tmp: Path,
          totals: Totals) -> tuple:
    """An untraced and a traced pass on the same inputs; per-layer metrics."""
    commands = PASSES[workload](sizes, seed, 0, tmp)
    singles = [argv for c in commands for argv in c.one_seed_at_a_time()]
    # untraced first: its outputs are checked and its wall time is the
    # baseline for the tracing overhead
    _, plain, plain_metrics = run_pass(commands, tmp, totals, extra=singles)
    for result in plain["results"][len(commands):]:
        totals.add(check_exit(result))
    runner, reply, traced_metrics = run_pass(commands, tmp, totals,
                                             trace=True)
    layers = dict(reply["layers"])
    fanned_wall = sum(r["wall"] for c, r in zip(commands, plain["results"])
                      if c.seeds > 1)
    single_wall = sum(r["wall"] for r in plain["results"][len(commands):])
    layers["cli.fanout_efficiency"] = (
        single_wall / (pool_workers(commands) * fanned_wall)
        if fanned_wall else 0.0)
    layers["trace.overhead_s"] = (traced_metrics["wall_s"]
                                  - plain_metrics["wall_s"])
    layers["is_gap"] = _mean(totals.is_gaps)
    layers["cut_gap"] = _mean(totals.cut_gaps)
    return {k: layers[k] for k in PER_LAYER}, runner.environment


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def environment(ready: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "girthlocal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {**ready, "nproc": os.cpu_count(), "cpu_model": cpu,
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "girthlocal" / "cli.py").is_file():
        print(f"error: no girthlocal sources under {SRC}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    totals = Totals()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, ready = trace(args.workload, args.seed, sizes,
                                   Path(tmp), totals)
            units = PER_LAYER
        else:
            metrics, ready = measure(args.workload, args.seed, args.seconds,
                                     sizes, Path(tmp), totals)
            units = END_TO_END
    for problem in totals.problems:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace and totals.is_gaps:
        print(f"is_gap {_mean(totals.is_gaps):.6g} ratio")
    if not args.trace and totals.cut_gaps:
        print(f"cut_gap {_mean(totals.cut_gaps):.6g} ratio")
    print(f"fail_rate {totals.failed / totals.attempted:.6g} ratio "
          f"({totals.failed} of {totals.attempted} runs)")
    print("environment: " + json.dumps(environment(ready), sort_keys=True))
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
