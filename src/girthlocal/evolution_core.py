"""Fixed-step integration scaffolding shared by the degree-evolution processes.

A *rule set* object supplies the process-specific pieces and the functions
here supply the loop: stepping in chunks, trajectory recording, sanity
checking and step-size refinement.  Rule sets implement::

    columns(params) -> tuple[str, ...]        # state fields, in CSV order
    monotone_columns -> tuple[str, ...]       # accumulators that never shrink
    initial_state(params) -> state
    done(state, params) -> bool
    step(state, params) -> None               # one round, composed operations
    state_in_range(state, params) -> bool
    run_chunk(state, params, max_rounds) -> (rounds_done, status)
    snapshot(state) -> tuple[float, ...]

``step`` is the reference path: :func:`_python_chunk` runs it round by round.
``run_chunk`` is the compiled kernel from ``_kernels``, which needs
``_kernels.BACKEND == "c"`` and must reproduce that run bit for bit;
:func:`integrate` picks one of the two once per run.  Chunk statuses are the
codes from ``_kernels``.  The first monotone column is the run's headline.
"""
from __future__ import annotations

import copy
import csv
import io
import math
from dataclasses import dataclass, field
from functools import partial

from . import _kernels
from ._kernels import (
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    STATUS_INVALID,
    STATUS_STOPPED,
)

__all__ = [
    "EvolutionParams",
    "Trajectory",
    "RefinementReport",
    "ProcessExhausted",
    "IntegrationError",
    "integrate",
    "refine",
    "STATUS_STOPPED",
    "STATUS_BUDGET",
    "STATUS_INVALID",
    "STATUS_EXHAUSTED",
]

#: tolerance used when checking that accumulators never decrease; improvement
#: correction terms can carry sub-1e-12 negative dust at the end of a run
ACCUMULATOR_SLACK = 1e-12


class ProcessExhausted(RuntimeError):
    """The open-edge pool emptied while work was still pending.

    Raised by the composed operations when asked to act on a state with no
    open edges left.  Inside :func:`integrate` the same condition marks the
    normal end of a run: it only occurs in the final dust rounds, after the
    accumulators have converged.
    """


class IntegrationError(RuntimeError):
    """A state field left its sane range (non-finite or badly negative)."""


@dataclass(frozen=True)
class EvolutionParams:
    """Knobs for one integration run.

    step_size is the mass deleted per round (the recurrences' epsilon); a
    run halts once its tracked mass falls to step_size.  It must lie below
    0.5: the first round consumes 2ε of the start class (is3, is4), or
    ε·D(0) = 2ε of rat3 (cut3), so at 0.5 it takes the whole start mass.
    record_interval is the number of rounds between trajectory samples.
    """

    step_size: float
    record_interval: int = 10 ** 6

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if self.step_size >= 0.5:
            raise ValueError(f"step size {self.step_size:g} must be below "
                             f"0.5: at 0.5 or more the first round consumes "
                             f"the whole start mass")
        if self.record_interval < 1:
            raise ValueError("record_interval must be >= 1")


@dataclass
class Trajectory:
    """Sampled states of one integration run.

    ``columns`` starts with "round"; each row is (round, *snapshot).  Round
    indices are strictly increasing and accumulators are non-decreasing
    across samples (checked by :func:`integrate`).
    """

    columns: tuple
    rows: list = field(default_factory=list)

    def column(self, name):
        """All sampled values of one column, as a list."""
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()


@dataclass(frozen=True)
class RefinementReport:
    """Final headline values across a decreasing step-size sweep."""

    step_sizes: tuple
    finals: tuple
    diffs: tuple  # |finals[i+1] - finals[i]|
    ratios: tuple  # diffs[i+1] / diffs[i]
    monotone: bool  # True when successive differences strictly shrink

    def describe(self) -> str:
        lines = ["step_size        final_value      |difference|"]
        for i, (s, f) in enumerate(zip(self.step_sizes, self.finals)):
            d = f"{self.diffs[i - 1]:.3e}" if i > 0 else "-"
            lines.append(f"{s:<16.3e} {f:<16.10f} {d}")
        lines.append(f"difference ratios: "
                     f"{', '.join(f'{r:.3f}' for r in self.ratios) or '-'}")
        lines.append(f"monotone convergence: {self.monotone}")
        return "\n".join(lines)


def _check_trajectory(traj: Trajectory, monotone_columns) -> None:
    rounds = traj.column("round")
    for a, b in zip(rounds, rounds[1:]):
        if not b > a:
            raise IntegrationError("trajectory rounds are not increasing")
    for name in monotone_columns:
        values = traj.column(name)
        for a, b in zip(values, values[1:]):
            if b < a - ACCUMULATOR_SLACK:
                raise IntegrationError(
                    f"accumulator {name!r} decreased between samples")


def _python_chunk(rules, state, params, max_rounds):
    """Reference chunk runner: ``rules.step`` round by round.

    Same contract as ``rules.run_chunk``; the compiled kernels are tested
    against it, and :func:`integrate` runs it when they are not built.
    """
    rounds = 0
    while rounds < max_rounds:
        if rules.done(state, params):
            return rounds, STATUS_STOPPED
        rounds += 1
        try:
            rules.step(state, params)
        except ProcessExhausted:
            return rounds, STATUS_EXHAUSTED
        if not rules.state_in_range(state, params):
            return rounds, STATUS_INVALID
    return rounds, STATUS_BUDGET


def integrate(initial_state, rules, params: EvolutionParams):
    """Run ``rules`` from ``initial_state`` until its stop condition holds.

    Returns ``(final_state, trajectory)``.  The input state is not mutated.
    A non-finite or out-of-range value aborts with :class:`IntegrationError`
    naming the round.  Pool exhaustion in the terminal dust rounds counts as
    normal completion.
    """
    run_chunk = (rules.run_chunk if _kernels.BACKEND == "c"
                 else partial(_python_chunk, rules))
    state = copy.deepcopy(initial_state)
    columns = ("round",) + tuple(rules.columns(params))
    traj = Trajectory(columns=columns)
    traj.rows.append((0,) + tuple(rules.snapshot(state)))
    total = 0
    while not rules.done(state, params):
        done_rounds, status = run_chunk(state, params, params.record_interval)
        total += done_rounds
        if status == STATUS_INVALID:
            raise IntegrationError(
                f"state left its valid range at round {total}")
        if done_rounds > 0:
            traj.rows.append((total,) + tuple(rules.snapshot(state)))
        if status in (STATUS_STOPPED, STATUS_EXHAUSTED):
            break
    for row in traj.rows[-1]:
        if isinstance(row, float) and not math.isfinite(row):
            raise IntegrationError(
                f"non-finite value in final state at round {total}")
    _check_trajectory(traj, rules.monotone_columns)
    return state, traj


def refine(initial_state, rules, step_sizes) -> RefinementReport:
    """Integrate at each step size and report how the finals converge.

    ``step_sizes`` must hold at least two strictly decreasing entries, all
    checked before the first run.  Each run stops when the tracked mass
    falls to its own step size, as a single run does; a run that fails
    names its step size in the ``IntegrationError``.
    """
    steps = tuple(float(s) for s in step_sizes)
    if len(steps) < 2:
        raise ValueError("need at least two step sizes to compare")
    ladder = [EvolutionParams(step_size=s) for s in steps]
    for a, b in zip(steps, steps[1:]):
        if not b < a:
            raise ValueError("step sizes must be strictly decreasing")
    finals = []
    for params in ladder:
        try:
            state, _ = integrate(initial_state, rules, params)
        except IntegrationError as exc:
            raise IntegrationError(
                f"at step size {params.step_size:g}: {exc}") from exc
        finals.append(float(getattr(state, rules.monotone_columns[0])))
    diffs = tuple(abs(b - a) for a, b in zip(finals, finals[1:]))
    ratios = tuple(d2 / d1 if d1 > 0 else math.inf
                   for d1, d2 in zip(diffs, diffs[1:]))
    monotone = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    return RefinementReport(step_sizes=steps, finals=tuple(finals),
                            diffs=diffs, ratios=ratios, monotone=monotone)
