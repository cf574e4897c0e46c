"""The benchmark's workloads: the command lines of one pass, the inputs they
read, and the checks that decide whether each run in the pass failed.

A workload pass is a list of :class:`Command`.  Every command is one call of
``girthlocal.cli.main``; its ``kind`` says whether its time counts towards
``is_s`` or ``cut_s``.  After the pass, each command's ``check`` reads what
the command printed and the files it wrote under ``$GIRTHLOCAL_OUT`` and
returns an :class:`Outcome`.  Why each workload exists is in README.md.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("evolve", "simulate", "sweep", "oracle")

# large-girth limits the finite ratios are compared with
LIMITS = {3: 0.445327, 4: 0.404073, "cut": 1.341051}

# evolve headlines and round counts, pinned at this commit:
# (target, epsilon) -> (headline printed to 10 places, rounds)
EVOLVE_PINS = {
    ("is3", 1e-7): ("0.4453267432", 521722),
    ("is3_plain", 1e-7): ("0.4453115126", 522808),
    ("is4", 1e-7): ("0.4040723144", 929875),
    ("cut3", 1e-6): ("1.3410496010", 749771),
    # the smoke run's coarse steps
    ("is3", 1e-5): ("0.4452987987", 5226),
    ("is3_plain", 1e-5): ("0.4452631386", 5239),
    ("is4", 1e-5): ("0.4040771411", 9310),
    ("cut3", 1e-5): ("1.3410452083", 74977),
}


@dataclass
class Sizes:
    is_epsilon: float
    cut_epsilon: float
    simulate_n: int
    sweep_n: int
    sweep_seeds: int
    mis_n: int
    mis_per_degree: int
    maxcut_n: int
    maxcut_count: int


FULL = Sizes(is_epsilon=1e-7, cut_epsilon=1e-6, simulate_n=100_000,
             sweep_n=20_000, sweep_seeds=4, mis_n=30, mis_per_degree=48,
             maxcut_n=22, maxcut_count=3)
SMOKE = Sizes(is_epsilon=1e-5, cut_epsilon=1e-5, simulate_n=3_000,
              sweep_n=2_000, sweep_seeds=4, mis_n=16, mis_per_degree=2,
              maxcut_n=12, maxcut_count=1)


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    is_gaps: list = field(default_factory=list)
    cut_gaps: list = field(default_factory=list)

    def fail(self, problem: str, runs: int = 1) -> "Outcome":
        self.failed = min(self.attempted, self.failed + runs)
        self.problems.append(problem)
        return self


@dataclass
class Command:
    argv: list
    kind: str  # "is" | "cut"
    check: Callable[[dict, Path], Outcome]
    seeds: int = 1  # K of a --seeds K fan-out

    def one_seed_at_a_time(self) -> list:
        """A --seeds K command as K single-seed command lines that write no
        report; empty for a single-seed command."""
        if self.seeds == 1:
            return []
        opts = dict(zip(self.argv[2::2], self.argv[3::2]))
        base = int(opts.pop("--seed"))
        del opts["--seeds"], opts["--json"]
        rest = [x for pair in opts.items() for x in pair]
        return [self.argv[:2] + rest + ["--seed", str(s)]
                for s in range(base, base + self.seeds)]


def derive_seed(*parts) -> int:
    """A program seed from the benchmark seed, workload and pass index."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _printed(stdout: str) -> dict:
    """The 'key: value' lines the CLI prints, first occurrence of each."""
    out: dict = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value.strip()
    return out


def _take(out_dir: Path, name: str):
    """Read and remove one file the command wrote, or None if missing."""
    path = out_dir / name
    if not path.is_file():
        return None
    text = path.read_text()
    path.unlink()
    return text


def check_exit(result: dict) -> Outcome:
    """One run that only has to exit 0."""
    outcome = Outcome(attempted=1)
    if result["rc"] != 0:
        outcome.fail(f"exit code {result['rc']}")
    return outcome


def _cli_ok(result: dict, outcome: Outcome) -> dict | None:
    """The printed values when the command exited 0 and reported valid."""
    if result["rc"] != 0:
        outcome.fail(f"exit code {result['rc']}: "
                     f"{result['stderr'].strip()[-300:]}")
        return None
    printed = _printed(result["stdout"])
    if printed.get("valid") != "True":
        outcome.fail(f"valid: {printed.get('valid')}")
        return None
    return printed


# -- evolve -------------------------------------------------------------------


def _check_evolve(target: str, epsilon: float, trajectory: str | None):
    headline_key = "good" if target == "cut3" else "independent"
    pin_value, pin_rounds = EVOLVE_PINS[(target, epsilon)]

    def check(result: dict, out_dir: Path) -> Outcome:
        outcome = Outcome(attempted=1)
        csv = _take(out_dir, trajectory) if trajectory else None
        printed = _cli_ok(result, outcome)
        if printed is None:
            return outcome
        got = (printed.get(headline_key), printed.get("rounds"))
        if got != (pin_value, str(pin_rounds)):
            return outcome.fail(f"{target}: headline/rounds {got}, "
                                f"pinned {(pin_value, pin_rounds)}")
        if trajectory:
            rows = (csv or "").strip().splitlines()
            if len(rows) < 2 or not rows[0].startswith("round,independent"):
                return outcome.fail(f"{target}: trajectory file malformed")
            last = rows[-1].split(",")
            if (int(last[0]), f"{float(last[1]):.10f}") != (pin_rounds,
                                                           pin_value):
                return outcome.fail(f"{target}: trajectory ends at {last[:2]}")
        return outcome
    return check


def evolve_pass(sizes: Sizes, seed: int, index: int, tmp: Path) -> list:
    eps_is, eps_cut = repr(sizes.is_epsilon), repr(sizes.cut_epsilon)
    return [
        Command(["evolve", "is3", "--epsilon", eps_is], "is",
                _check_evolve("is3", sizes.is_epsilon, None)),
        Command(["evolve", "is3", "--no-improvement", "--epsilon", eps_is,
                 "--trajectory", "t.csv"], "is",
                _check_evolve("is3_plain", sizes.is_epsilon, "t.csv")),
        Command(["evolve", "is4", "--epsilon", eps_is], "is",
                _check_evolve("is4", sizes.is_epsilon, None)),
        Command(["evolve", "cut3", "--epsilon", eps_cut], "cut",
                _check_evolve("cut3", sizes.cut_epsilon, None)),
        Command(["evolve", "cut3", "--epsilon", eps_cut,
                 "--mode", "linear-solve"], "cut",
                _check_evolve("cut3", sizes.cut_epsilon, None)),
    ]


# -- simulate / sweep ---------------------------------------------------------


def _gap(limit: float, ratio: float) -> float:
    return (limit - ratio) / limit


def _check_simulate_is(n: int, d: int, witness: str | None):
    def check(result: dict, out_dir: Path) -> Outcome:
        outcome = Outcome(attempted=1)
        text = _take(out_dir, witness) if witness else None
        printed = _cli_ok(result, outcome)
        if printed is None:
            return outcome
        size = int(printed["size"])
        if witness:
            members = [int(x) for x in (text or "").split()]
            if (len(members) != size or members != sorted(set(members))
                    or (members and not 0 <= members[0] <= members[-1] < n)):
                return outcome.fail(f"d={d}: witness does not list {size} "
                                    f"distinct vertices below {n}")
        outcome.is_gaps.append(_gap(LIMITS[d], size / n))
        return outcome
    return check


def _check_simulate_cut(n: int, report: str):
    def check(result: dict, out_dir: Path) -> Outcome:
        outcome = Outcome(attempted=1)
        text = _take(out_dir, report)
        printed = _cli_ok(result, outcome)
        if printed is None:
            return outcome
        data = json.loads(text or "{}")
        head = data.get("headline", {})
        good, bad = head.get("good"), head.get("bad")
        if (not data.get("valid") or good is None or bad is None
                or good + bad != 3 * n // 2
                or str(good) != printed.get("good")):
            return outcome.fail(f"cut report inconsistent: {head}")
        outcome.cut_gaps.append(_gap(LIMITS["cut"], good / n))
        return outcome
    return check


def simulate_pass(sizes: Sizes, seed: int, index: int, tmp: Path) -> list:
    n = str(sizes.simulate_n)
    s = str(derive_seed("simulate", seed, index))
    return [
        Command(["simulate", "is", "--n", n, "--d", "3", "--seed", s], "is",
                _check_simulate_is(sizes.simulate_n, 3, None)),
        Command(["simulate", "is", "--n", n, "--d", "4", "--seed", s,
                 "--witness", "set.txt"], "is",
                _check_simulate_is(sizes.simulate_n, 4, "set.txt")),
        Command(["simulate", "cut", "--n", n, "--seed", s,
                 "--json", "report.json"], "cut",
                _check_simulate_cut(sizes.simulate_n, "report.json")),
    ]


def _check_sweep(kind: str, k: int, report: str):
    def check(result: dict, out_dir: Path) -> Outcome:
        outcome = Outcome(attempted=k)
        text = _take(out_dir, report)
        per_seed = json.loads(text or "{}").get("details", {}).get(
            "per_seed", [])
        if len(per_seed) != k:
            return outcome.fail(f"sweep {kind}: {len(per_seed)} of {k} seeds "
                                f"reported (exit code {result['rc']})", k)
        for run in per_seed:
            if not run["valid"]:
                outcome.fail(f"sweep {kind}: seed {run['seed']} invalid")
            elif kind == "is":
                outcome.is_gaps.append(_gap(LIMITS[3], run["ratio"]))
            else:
                outcome.cut_gaps.append(_gap(LIMITS["cut"], run["ratio"]))
        if result["rc"] != 0 and not outcome.failed:
            outcome.fail(f"sweep {kind}: exit code {result['rc']}", k)
        return outcome
    return check


def sweep_pass(sizes: Sizes, seed: int, index: int, tmp: Path) -> list:
    n, k = str(sizes.sweep_n), sizes.sweep_seeds
    s = str(derive_seed("sweep", seed, index))
    common = ["--n", n, "--seed", s, "--seeds", str(k)]
    return [
        Command(["simulate", "is", "--d", "3", *common,
                 "--thin-probability", "0.005", "--json", "sweep_is.json"],
                "is", _check_sweep("is", k, "sweep_is.json"), seeds=k),
        Command(["simulate", "cut", *common, "--query-probability", "0.005",
                 "--json", "sweep_cut.json"],
                "cut", _check_sweep("cut", k, "sweep_cut.json"), seeds=k),
    ]


# -- oracle -------------------------------------------------------------------


def random_regular_edges(n: int, d: int, rng: random.Random) -> list:
    """Uniform half-edge pairing: a random d-regular multigraph."""
    half = [v for v in range(n) for _ in range(d)]
    rng.shuffle(half)
    return list(zip(half[0::2], half[1::2]))


def _write_graph(path: Path, n: int, edges: list) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def _check_mis(n: int, edges: list):
    def check(result: dict, out_dir: Path) -> Outcome:
        outcome = Outcome(attempted=1)
        if result["rc"] != 0:
            return outcome.fail(f"oracle mis: exit code {result['rc']}")
        printed = _printed(result["stdout"])
        size = int(printed.get("maximum independent set", -1))
        members = [int(x) for x in printed.get("witness", "").split()]
        chosen = set(members)
        if (len(chosen) != len(members) or len(members) != size
                or not all(0 <= v < n for v in members)
                or any(u != v and u in chosen and v in chosen
                       for u, v in edges)):
            return outcome.fail(f"oracle mis: witness is not an independent "
                                f"set of size {size}")
        return outcome
    return check


def _check_maxcut(n: int, edges: list):
    def check(result: dict, out_dir: Path) -> Outcome:
        outcome = Outcome(attempted=1)
        if result["rc"] != 0:
            return outcome.fail(f"oracle maxcut: exit code {result['rc']}")
        printed = _printed(result["stdout"])
        weight = int(printed.get("maximum cut", -1))
        side = printed.get("witness", "").split()
        if len(side) != n or set(side) - {"R", "G"}:
            return outcome.fail("oracle maxcut: witness is not one R/G "
                                "label per vertex")
        cut = sum(1 for u, v in edges if side[u] != side[v])
        if cut != weight:
            return outcome.fail(f"oracle maxcut: witness cuts {cut} edges, "
                                f"stated {weight}")
        return outcome
    return check


def oracle_pass(sizes: Sizes, seed: int, index: int, tmp: Path) -> list:
    rng = random.Random(derive_seed("oracle", seed, index))
    commands = []
    for i in range(2 * sizes.mis_per_degree):
        d = 3 + i % 2
        edges = random_regular_edges(sizes.mis_n, d, rng)
        path = tmp / f"mis-{index}-{i}.txt"
        _write_graph(path, sizes.mis_n, edges)
        commands.append(Command(["oracle", "mis", str(path)], "is",
                                _check_mis(sizes.mis_n, edges)))
    for i in range(sizes.maxcut_count):
        edges = random_regular_edges(sizes.maxcut_n, 3, rng)
        path = tmp / f"maxcut-{index}-{i}.txt"
        _write_graph(path, sizes.maxcut_n, edges)
        commands.append(Command(["oracle", "maxcut", str(path)], "cut",
                                _check_maxcut(sizes.maxcut_n, edges)))
    return commands


PASSES = {"evolve": evolve_pass, "simulate": simulate_pass,
          "sweep": sweep_pass, "oracle": oracle_pass}
