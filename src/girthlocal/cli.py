"""Command-line front end for the evolution integrators, the finite-graph
round algorithms, and the exact small-graph oracles.

Subcommands
-----------
evolve    integrate a degree-evolution process to its stopping point
refine    convergence report across a decreasing ladder of step sizes
simulate  run a round algorithm on a fresh random regular multigraph
oracle    exact optimum (plus witness) for a small edge-list file

Every command prints a human-readable summary and can also write a JSON
report (``--json``).  Identical command line and seed give a byte-identical
report apart from the wall-time fields (each has ``wall_time`` in its key).
Relative output paths are resolved under ``$GIRTHLOCAL_OUT`` when that
variable is set.

``simulate --seeds K`` runs its K independent runs on min(K, CPU count)
threads of this process.  The C engines release the GIL while they run,
so the runs overlap; with the Python fallback they take turns.  A run that
fails, or an interrupt, cancels the runs not yet started.  A single run
goes on the calling thread.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .config_model import (
    check_id_range,
    edge_list_header,
    generate,
    load_edge_list,
)
from .cut_evolution import CutRules
from .cut_local_algorithm import QUERY_PROBABILITY, count_cut, run_cut
from .evolution_core import (
    EvolutionParams,
    IntegrationError,
    integrate,
    refine,
)
from .exact_oracle import (
    check_order,
    from_multigraph,
    max_cut,
    max_independent_set,
)
from .is_evolution import Is3Rules, Is4Rules
from .is_local_algorithm import THIN_PROBABILITY
from .is_local_algorithm import run as run_is
from .is_local_algorithm import verify_independent

# evolve/refine targets: help text, and the step size of the reference
# listings (--paper-epsilon switches to it)
TARGETS = {
    "is3": ("independent-set process on 3-regular graphs", 6.3e-9),
    "is4": ("independent-set process on 4-regular graphs", 1e-8),
    "cut3": ("red/green/white cut process on 3-regular graphs", 1.1e-8),
}


def _resolve_out(path_str: str) -> Path:
    """The output path, checked before any work so that a missing directory
    does not fail only after a long run."""
    p = Path(path_str)
    base = os.environ.get("GIRTHLOCAL_OUT")
    if base and not p.is_absolute():
        p = Path(base) / p
    if not p.parent.is_dir():
        raise ValueError(f"output directory {p.parent} does not exist or is "
                         "not a directory")
    return p


# -- reports ----------------------------------------------------------------

# the key suffix of a stage's wall time; with "wall_time" in every such key,
# the lines that may differ between two runs of one command are all named
STAGE_SUFFIX = "_wall_time_s"


@dataclass
class RunReport:
    """Everything one command run produced, minus bulky witnesses.

    ``corollaries`` are always recomputed from the headline figures at
    serialization time, never stored, so a report cannot drift internally.
    Only an evolution's headline has them: its ratio is a bound for every
    large-girth graph, and so is its fractional colouring number.  A finite
    run's headline (``simulate``'s, which carries a ``ratio`` or
    ``mean_ratio``) has none, as 1/ratio bounds nothing on the graph it
    ran on.
    ``backend`` is the one that ran the evolution kernels and the events
    of both finite processes: ``"c"`` or ``"python"``
    (``_kernels.BACKEND``).  ``stage_times`` maps ``<stage>_wall_time_s``
    to the seconds a stage took; each is a top-level key of the JSON.
    """

    command: str
    kind: str  # "independent" | "cut" | "report"
    parameters: dict
    seed: object
    headline: dict
    valid: bool = True
    rounds: object = None
    details: dict = field(default_factory=dict)
    wall_time_s: object = None
    backend: str = field(default_factory=lambda: _kernels.BACKEND)
    stage_times: dict = field(default_factory=dict)

    def corollaries(self) -> dict:
        if "ratio" in self.headline or "mean_ratio" in self.headline:
            return {}
        if self.kind == "independent" and self.headline.get("independent"):
            return {"fractional_coloring_number":
                    1.0 / float(self.headline["independent"])}
        if self.kind == "cut" and self.headline.get("good"):
            return {"fractional_edge_coloring_number":
                    1.5 / float(self.headline["good"])}
        return {}

    def to_dict(self) -> dict:
        out = {
            "backend": self.backend,
            "command": self.command,
            "kind": self.kind,
            "parameters": self.parameters,
            "seed": self.seed,
            "headline": self.headline,
            "corollaries": self.corollaries(),
            "valid": self.valid,
            "rounds": self.rounds,
            "wall_time_s": self.wall_time_s,
        }
        if self.details:
            out["details"] = self.details
        out.update(self.stage_times)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        data = dict(data)
        data.pop("corollaries", None)  # derived, never stored independently
        stages = {key: data.pop(key) for key in list(data)
                  if key.endswith(STAGE_SUFFIX)}
        return cls(**data, stage_times=stages)


def _print_value(name: str, value) -> None:
    if isinstance(value, float):
        print(f"{name}: {value:.10f}")
    else:
        print(f"{name}: {value}")


def _emit(report: RunReport, json_path) -> None:
    print(f"command: {report.command}")
    for key in sorted(report.headline):
        _print_value(key, report.headline[key])
    for key, value in sorted(report.corollaries().items()):
        _print_value(key.replace("_", " "), value)
    if report.rounds is not None:
        _print_value("rounds", report.rounds)
    _print_value("valid", report.valid)
    if report.wall_time_s is not None:
        print(f"wall time: {report.wall_time_s:.2f}s")
    for key, seconds in report.stage_times.items():
        print(f"wall time {key.removesuffix(STAGE_SUFFIX)}: {seconds:.2f}s")
    _write_report(report, json_path)


def _write_report(report: RunReport, json_path) -> None:
    if json_path:
        json_path.write_text(report.to_json())
        print(f"report written to {json_path}")


# -- evolve -----------------------------------------------------------------


def _evolve_target(args):
    """Rule set of the parsed evolve/refine target, its report kind, the
    flag values that chose it (report parameters) and its default refine
    ladder, one known to stay inside the recurrence's valid range."""
    if args.target == "is3":
        improvement = not args.no_improvement
        ladder = (1e-5, 1e-6, 1e-7) if improvement else (1.6e-4, 8e-5, 4e-5)
        return (Is3Rules(improvement=improvement), "independent",
                {"improvement": improvement}, ladder)
    if args.target == "is4":
        return Is4Rules(), "independent", {}, (1e-5, 5e-6, 2.5e-6)
    return (CutRules(mode=args.mode.replace("-", "_")), "cut",
            {"mode": args.mode}, (1.6e-4, 8e-5, 4e-5))


def _check_steps(steps) -> None:
    """Reject a step size at which the first round consumes the whole start
    mass: 2ε of class d (is3, is4), or ε·D(0) = 2ε of rat3 (cut3)."""
    for eps in steps:
        if eps >= 0.5:
            raise ValueError(f"step size {eps:g} must be below 0.5: at 0.5 "
                             f"or more the first round consumes the whole "
                             f"start mass")


def _cmd_evolve(args) -> int:
    eps = TARGETS[args.target][1] if args.paper_epsilon else args.epsilon
    rules, kind, options, _ = _evolve_target(args)
    params = EvolutionParams(step_size=eps,
                             record_interval=args.record_interval)
    _check_steps([eps])
    start = time.perf_counter()
    state, traj = integrate(rules.initial_state(params), rules, params)
    wall = time.perf_counter() - start
    # the headline figures are the run's accumulators
    headline = {name: float(getattr(state, name))
                for name in rules.monotone_columns}
    parameters = {"target": args.target, "epsilon": eps,
                  "record_interval": args.record_interval, **options}
    report = RunReport(command=args.command_echo, kind=kind,
                       parameters=parameters, seed=None, headline=headline,
                       rounds=int(traj.rows[-1][0]),
                       wall_time_s=round(wall, 3))
    if args.trajectory:
        args.trajectory.write_text(traj.to_csv())
        print(f"trajectory written to {args.trajectory}")
    _emit(report, args.json_path)
    return 0


# -- simulate ---------------------------------------------------------------

# the stages of one finite run, in order; each key sorts before "valid", so
# a per-seed entry's last line stays "valid"
SIMULATE_STAGES = ("generate", "run", "check")


def _run_simulation(target, n, d, seed, options, keep_witness):
    """One finite-graph run: its summary, and its witness when
    ``keep_witness`` is set (else None).

    The summary carries the wall time of each stage: graph generation,
    the algorithm's run and the check of its output (the independence
    check, or the cut's exact recount by ``count_cut`` and its comparison
    with the run's counters).  A cut's headline figures are the recount.
    The witness is the sorted list of set members (``is``) or the colour
    array (``cut``).  The graph is freed when this returns.
    """
    graph_seed, algo_seed = np.random.SeedSequence(seed).spawn(2)
    marks = [time.perf_counter()]
    graph = generate(n, d, seed=graph_seed)
    marks.append(time.perf_counter())
    if target == "is":
        result = run_is(graph, d, seed=algo_seed, **options)
        marks.append(time.perf_counter())
        summary = {
            "seed": seed,
            "size": result.size,
            "ratio": result.ratio,
            "rounds": result.rounds,
            "valid": bool(verify_independent(graph, result.vertices)),
        }
        witness = result.vertices
    else:
        result = run_cut(graph, seed=algo_seed, **options)
        marks.append(time.perf_counter())
        good, bad = count_cut(graph, result.colors)
        consistent = ((good, bad) == (result.good, result.bad)
                      and good + bad == graph.edge_count)
        summary = {
            "seed": seed,
            "good": good,
            "bad": bad,
            "ratio": good / result.n,
            "rounds": result.rounds,
            "valid": bool(consistent),
        }
        witness = result.colors
    marks.append(time.perf_counter())
    for stage, start, end in zip(SIMULATE_STAGES, marks, marks[1:]):
        summary[stage + STAGE_SUFFIX] = round(end - start, 3)
    return summary, witness if keep_witness else None


def _fan_out(target, n, d, seeds, options) -> list:
    """The runs of several seeds, on min(len(seeds), CPU count) threads;
    their outcomes in seed order."""
    workers = min(len(seeds), os.cpu_count() or 1)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_run_simulation, target, n, d, seed, options,
                               False)
                   for seed in seeds]
        for future in as_completed(futures):
            future.result()  # the first failure ends the fan-out at once
    finally:
        # a failure or an interrupt cancels the runs not yet started; a
        # running one cannot be stopped inside its engine call, and is
        # waited for
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


def _cmd_simulate(args) -> int:
    target = args.target
    d = args.d if target == "is" else 3
    if target == "is":
        options = {"thin_probability": args.thin_probability}
    else:
        options = {"query_probability": args.query_probability}
    # every option is checked before a graph is generated or a pool started
    for name, value in options.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"--{name.replace('_', '-')} must lie in [0, 1]")
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if args.n * d % 2:
        raise ValueError(f"n*d = {args.n * d} must be even to pair all "
                         f"half-edges")
    check_id_range(args.n, args.n * d)
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if args.witness and args.seeds > 1:
        raise ValueError("--witness needs a single run, not --seeds > 1")
    seeds = [args.seed + i for i in range(args.seeds)]
    start = time.perf_counter()
    if len(seeds) == 1:
        # on this thread: in a one-worker pool the run's arrays come from
        # the worker's own malloc arena, and the peak memory of the process
        # then changes from run to run by several MB
        outcomes = [_run_simulation(target, args.n, d, seeds[0], options,
                                    bool(args.witness))]
    else:
        outcomes = _fan_out(target, args.n, d, seeds, options)
    runs = [summary for summary, _ in outcomes]
    witness = outcomes[0][1]
    wall = time.perf_counter() - start
    all_valid = all(r["valid"] for r in runs)
    parameters = {"target": target, "n": args.n, "d": d,
                  "seeds": args.seeds, **options}
    kind = "independent" if target == "is" else "cut"
    if len(runs) == 1:
        only = runs[0]
        headline = {k: only[k] for k in ("size", "good", "bad", "ratio")
                    if k in only}
        report = RunReport(command=args.command_echo, kind=kind,
                           parameters=parameters, seed=args.seed,
                           headline=headline, valid=all_valid,
                           rounds=only["rounds"], wall_time_s=round(wall, 3),
                           stage_times={key: only[key] for key in only
                                        if key.endswith(STAGE_SUFFIX)})
    else:
        ratios = [r["ratio"] for r in runs]
        headline = {
            "mean_ratio": statistics.fmean(ratios),
            "stddev_ratio": statistics.stdev(ratios),
            "runs": len(runs),
        }
        report = RunReport(command=args.command_echo, kind=kind,
                           parameters=parameters, seed=args.seed,
                           headline=headline, valid=all_valid,
                           details={"per_seed": runs},
                           wall_time_s=round(wall, 3))
    if args.witness:
        if target == "is":
            text = "\n".join(str(v) for v in sorted(witness))
        else:
            text = "\n".join(f"{i} {'RG'[c]}"
                             for i, c in enumerate(witness.tolist()))
        args.witness.write_text(text + "\n")
        print(f"witness written to {args.witness}")
    _emit(report, args.json_path)
    return 0 if all_valid else 1


# -- oracle -----------------------------------------------------------------


def _oracle_error(small, problem: str, value: int, witness: list) -> str:
    """What is wrong with an oracle's (value, witness), checked against the
    graph itself; empty when the witness attains the value."""
    if problem == "mis":
        mask = 0
        for v in witness:
            if not 0 <= v < small.n or (mask >> v) & 1:
                return f"witness vertex {v} is out of range or repeated"
            mask |= 1 << v
        if any(small.nbr[v] & mask for v in witness):
            return "witness is not an independent set"
        if len(witness) != value:
            return f"witness has {len(witness)} members, stated {value}"
        return ""
    if len(witness) != small.n or not set(witness) <= {0, 1}:
        return "witness is not one side per vertex"
    recount = sum(w for u, v, w in small.edges if witness[u] != witness[v])
    if recount != value:
        return f"witness cuts {recount}, stated {value}"
    return ""


def _cmd_oracle(args) -> int:
    text = Path(args.path).read_text()
    # the graph's arrays are O(n): reject an oversized n before building it
    check_order(edge_list_header(text)[0], args.problem)
    small = from_multigraph(load_edge_list(text))
    start = time.perf_counter()
    if args.problem == "mis":
        value, found = max_independent_set(small)
        kind, headline = "independent", {"size": value}
        witness = " ".join(str(v) for v in found)
        title = "maximum independent set"
    else:
        value, found = max_cut(small)
        kind, headline = "cut", {"weight": value}
        witness = " ".join("RG"[s] for s in found)
        title = "maximum cut"
    wall = time.perf_counter() - start
    error = _oracle_error(small, args.problem, value, found)
    if error:
        print(f"error: {title} oracle check failed: {error}", file=sys.stderr)
        return 1
    print(f"{title}: {value}")
    print("witness:", witness)
    _write_report(RunReport(
        command=args.command_echo, kind=kind,
        parameters={"problem": args.problem, "n": small.n}, seed=None,
        headline=headline, details={"witness": witness},
        wall_time_s=round(wall, 3)), args.json_path)
    return 0


# -- refine -----------------------------------------------------------------


def _cmd_refine(args) -> int:
    rules, _, options, ladder = _evolve_target(args)
    if args.step_sizes:
        ladder = tuple(args.step_sizes)
    initial = rules.initial_state(EvolutionParams(step_size=ladder[0]))
    _check_steps(ladder)
    start = time.perf_counter()
    result = refine(initial, rules, ladder)
    wall = time.perf_counter() - start
    print(result.describe())
    report = RunReport(
        command=args.command_echo, kind="report",
        parameters={"target": args.target,
                    "step_sizes": list(result.step_sizes), **options},
        seed=None, headline={"final": result.finals[-1]},
        details={"finals": list(result.finals), "diffs": list(result.diffs),
                 "ratios": list(result.ratios), "monotone": result.monotone},
        wall_time_s=round(wall, 3))
    _emit(report, args.json_path)
    return 0


# -- parser -----------------------------------------------------------------


def _add_output_flags(p) -> None:
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write a machine-readable report here")


def _add_evolve_flags(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--epsilon", type=float, default=1e-7,
                       help="step size: survival mass removed per round "
                            "(default 1e-7)")
    group.add_argument("--paper-epsilon", action="store_true",
                       help="use the finer reference step size for this "
                            "target")
    p.add_argument("--record-interval", type=int, default=10 ** 6,
                   help="rounds between trajectory samples")
    p.add_argument("--trajectory", metavar="PATH",
                   help="write the sampled trajectory as CSV")
    _add_output_flags(p)


def _add_refine_flags(p) -> None:
    p.add_argument("--step-sizes", type=float, nargs="+", metavar="EPS",
                   help="strictly decreasing ladder (default: a known "
                        "in-range ladder for the target)")
    _add_output_flags(p)


def _add_simulate_flags(p) -> None:
    p.add_argument("--n", type=int, required=True,
                   help="number of vertices")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; graph and algorithm streams derive "
                        "from it (default 0)")
    p.add_argument("--seeds", type=int, default=1, metavar="K",
                   help="fan out K independent runs (seed, seed+1, ...) "
                        "and aggregate mean/stddev")
    p.add_argument("--witness", metavar="PATH",
                   help="write the certified output (set members or "
                        "coloring) here")
    _add_output_flags(p)


# built on main's first call, not on import, then shared: parse_args makes
# a fresh Namespace per call, no option has a mutable default, and each
# func default looks its collaborators up as module globals when it runs
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthlocal",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for command, help_text, add_flags, func in (
            ("evolve", "integrate a degree-evolution process",
             _add_evolve_flags, _cmd_evolve),
            ("refine", "compare evolution finals across step sizes",
             _add_refine_flags, _cmd_refine)):
        targets = sub.add_parser(command, help=help_text).add_subparsers(
            dest="target", required=True)
        for name, (target_help, _) in TARGETS.items():
            tp = targets.add_parser(name, help=target_help)
            if name == "is3":
                tp.add_argument("--no-improvement", action="store_true",
                                help="disable the lone-pair correction term")
            if name == "cut3":
                tp.add_argument("--mode", default="closed-form",
                                choices=("closed-form", "linear-solve"),
                                help="how the per-round action rates are "
                                     "computed")
            add_flags(tp)
            tp.set_defaults(func=func)

    simulate = sub.add_parser(
        "simulate", help="run a round algorithm on a random regular graph")
    sim_targets = simulate.add_subparsers(dest="target", required=True)
    sim_is = sim_targets.add_parser("is", help="independent set")
    sim_is.add_argument("--d", type=int, choices=(3, 4), default=3,
                        help="graph degree (default 3)")
    sim_is.add_argument("--thin-probability", type=float,
                        default=THIN_PROBABILITY,
                        help="chance that a round deletes or probes each "
                             "vertex of its class (default %(default)s)")
    _add_simulate_flags(sim_is)
    sim_is.set_defaults(func=_cmd_simulate)
    sim_cut = sim_targets.add_parser("cut", help="red/green cut coloring")
    sim_cut.add_argument("--query-probability", type=float,
                         default=QUERY_PROBABILITY,
                         help="chance that a round queries each lone "
                              "vertex (default %(default)s)")
    _add_simulate_flags(sim_cut)
    sim_cut.set_defaults(func=_cmd_simulate)

    oracle = sub.add_parser(
        "oracle", help="exact optimum for a small edge-list file")
    oracle.add_argument("problem", choices=("mis", "maxcut"))
    oracle.add_argument("path", help="edge-list file ('n m' header, one "
                                     "'u v' pair per line)")
    _add_output_flags(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit status.  May be called any number of times in one
    process: the parser is built on the first call and reused.  Argparse
    rejections (an unknown option, a bad choice) raise ``SystemExit(2)``."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    args.command_echo = "girthlocal " + " ".join(argv)
    try:
        for name in ("json_path", "trajectory", "witness"):
            if getattr(args, name, None):
                setattr(args, name, _resolve_out(getattr(args, name)))
        return args.func(args)
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare MemoryError
        # says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
