"""Integration scaffolding: parameter validation, trajectories, refinement."""
import math
import sys

import pytest

from girthlocal import _kernels, evolution_core
from girthlocal.evolution_core import (
    EvolutionParams,
    IntegrationError,
    Trajectory,
    _check_trajectory,
    integrate,
    refine,
)
from girthlocal.is_evolution import Is3Rules, Is4Rules
from girthlocal.cut_evolution import CutRules


@pytest.mark.parametrize("kwargs", [
    dict(step_size=0.0),
    dict(step_size=-1e-6),
    dict(step_size=1e-5, record_interval=0),
    dict(step_size=1e-5, record_interval=-3),
    dict(step_size=float("nan")),
    dict(step_size=float("inf")),
    dict(step_size=0.5),
])
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EvolutionParams(**kwargs)


def test_trajectory_column_and_csv():
    traj = Trajectory(columns=("round", "a", "b"),
                      rows=[(0, 1.0, 2.0), (10, 1.5, 2.5)])
    assert traj.column("a") == [1.0, 1.5]
    lines = traj.to_csv().splitlines()
    assert lines[0] == "round,a,b"
    assert lines[1].split(",") == ["0", "1.0", "2.0"]
    assert len(lines) == 3


def test_trajectory_check_rejects_decreasing_accumulator():
    traj = Trajectory(columns=("round", "acc"),
                      rows=[(0, 0.5), (5, 0.4)])
    with pytest.raises(IntegrationError):
        _check_trajectory(traj, ("acc",))


def test_trajectory_check_rejects_non_increasing_rounds():
    traj = Trajectory(columns=("round", "acc"),
                      rows=[(0, 0.0), (5, 0.1), (5, 0.2)])
    with pytest.raises(IntegrationError):
        _check_trajectory(traj, ("acc",))


def test_start_mass_at_the_stop_threshold_runs_zero_rounds():
    # a run halts once its tracked mass falls to the step size, which it
    # tests before the first round too
    rules = Is3Rules()
    params = EvolutionParams(step_size=1e-3)
    initial = rules.initial_state(params)
    initial.v[3] = params.step_size
    state, traj = integrate(initial, rules, params)
    assert state.independent == 0.0
    assert traj.rows == [(0, 0.0, 0.0, 0.0, 1e-3, 0.0, 0.0, 0.0, 0.0)]


@pytest.mark.parametrize("rules, field", [
    (Is3Rules(), "v"), (Is3Rules(), "independent"), (CutRules(), "rat2"),
])
def test_a_non_finite_start_state_that_is_already_done_raises(rules, field):
    # every row a chunk records passed the round's range check, so the
    # final row can be non-finite only when no round ran: a caller's start
    # state that the stop test already passes (a NaN mass compares false
    # against the step size) and that holds NaN or inf
    params = EvolutionParams(step_size=1e-3)
    initial = rules.initial_state(params)
    if field == "v":
        initial.v[3] = math.nan
    elif field == "independent":
        initial.v[3] = 0.0
        initial.independent = math.inf
    else:
        initial.rat2 = math.nan
    with pytest.raises(IntegrationError, match="non-finite.*round 0"):
        integrate(initial, rules, params)


def test_integrate_does_not_mutate_input():
    rules = Is3Rules()
    params = EvolutionParams(step_size=1e-5)
    initial = rules.initial_state(params)
    integrate(initial, rules, params)
    assert initial.v[3] == 1.0
    assert initial.independent == 0.0 and initial.erase == 0.0


def test_integrate_records_at_interval():
    rules = Is3Rules(improvement=False)
    params = EvolutionParams(step_size=1e-5, record_interval=1000)
    _, traj = integrate(rules.initial_state(params), rules, params)
    rounds = traj.column("round")
    assert rounds[0] == 0
    assert rounds[1:4] == [1000, 2000, 3000]
    assert all(b > a for a, b in zip(rounds, rounds[1:]))
    # this run stops after 5239 rounds
    assert rounds[-1] == 5239


def test_integrate_error_names_round():
    # a too-coarse step lets the terminal dust rounds overdraw a degree
    # class past the -8*step slack; the diagnostic must name the round
    rules = Is3Rules()
    params = EvolutionParams(step_size=2e-5)
    with pytest.raises(IntegrationError, match=r"round \d+"):
        integrate(rules.initial_state(params), rules, params)


def test_pool_exhaustion_is_normal_completion():
    # at step 1e-4 the 4-regular process empties its probe pool a hair
    # before the stop threshold is reached; the run must still complete
    rules = Is4Rules()
    params = EvolutionParams(step_size=1e-4)
    state, traj = integrate(rules.initial_state(params), rules, params)
    assert state.independent == pytest.approx(0.404238072, abs=1e-9)
    assert traj.rows[-1][0] == 938


def test_integrate_accumulator_monotone_across_samples():
    rules = CutRules()
    params = EvolutionParams(step_size=1e-5, record_interval=5000)
    _, traj = integrate(rules.initial_state(params), rules, params)
    for name in ("good", "bad"):
        vals = traj.column(name)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_halving_step_roughly_halves_the_error():
    # |final(eps) - final(eps/2)| < 10*eps for the 3-regular process
    rules = Is3Rules(improvement=False)
    finals = []
    for eps in (8e-5, 4e-5):
        params = EvolutionParams(step_size=eps)
        state, _ = integrate(rules.initial_state(params), rules, params)
        finals.append(state.independent)
    assert abs(finals[0] - finals[1]) < 10 * 8e-5


@pytest.mark.parametrize("rules, steps", [
    (Is3Rules(improvement=False), (1.6e-4, 8e-5, 4e-5)),
    (Is4Rules(), (1e-5, 5e-6, 2.5e-6)),
    (CutRules(), (1.6e-4, 8e-5, 4e-5)),
])
def test_refine_halving_difference_ratio(rules, steps):
    params = EvolutionParams(step_size=steps[0])
    report = refine(rules.initial_state(params), rules, steps)
    assert report.monotone
    assert len(report.ratios) == 1
    assert 0.3 <= report.ratios[0] <= 0.8


def test_refine_is3_decade_sweep_approaches_headline():
    rules = Is3Rules()
    params = EvolutionParams(step_size=1e-5)
    report = refine(rules.initial_state(params), rules, (1e-5, 1e-6, 1e-7))
    assert report.monotone
    assert report.finals[-1] == pytest.approx(0.445327, abs=2e-6)
    diffs = [abs(f - 0.445327) for f in report.finals]
    assert diffs[0] > diffs[1] > diffs[2]


def test_refine_cut_sweep_approaches_headline():
    rules = CutRules()
    params = EvolutionParams(step_size=1e-5)
    report = refine(rules.initial_state(params), rules, (1e-5, 1e-6))
    assert report.finals[-1] == pytest.approx(1.34105, abs=1e-5)


def test_refine_rejects_bad_sweeps(monkeypatch):
    def no_run(*args):
        raise AssertionError("integrated before the ladder was checked")

    monkeypatch.setattr(evolution_core, "integrate", no_run)
    rules = Is3Rules()
    params = EvolutionParams(step_size=1e-4)
    state = rules.initial_state(params)
    with pytest.raises(ValueError):
        refine(state, rules, (1e-4,))
    with pytest.raises(ValueError):
        refine(state, rules, (1e-4, 1e-4))
    with pytest.raises(ValueError):
        refine(state, rules, (1e-5, 1e-4))
    with pytest.raises(ValueError, match="positive and finite"):
        refine(state, rules, (1e-3, 0.0))


def test_refine_describe_is_readable():
    rules = CutRules()
    params = EvolutionParams(step_size=1.6e-4)
    report = refine(rules.initial_state(params), rules, (1.6e-4, 8e-5))
    text = report.describe()
    assert "monotone convergence: True" in text
    assert "1.34" in text


def test_final_state_is_finite_everywhere():
    rules = Is4Rules()
    params = EvolutionParams(step_size=1e-5)
    state, traj = integrate(rules.initial_state(params), rules, params)
    assert all(math.isfinite(float(x)) for x in state.v)
    assert math.isfinite(state.independent) and math.isfinite(state.erase)


# Exact finals (rounds, snapshot) at step 1e-5, pinned before the chunk
# kernels were merged: any change to a round rule or its evaluation order
# shows up here as a changed last bit.
GOLDENS_1E5 = {
    "is3": (5226, (0.44529879867041605, 0.00035187893292582537, -1e-05,
                   -4.5905219216884515e-05, 2.427933187884086e-06,
                   5.402931519224606e-05, -9.787179701869233e-06,
                   -4.73028409038526e-05)),
    "is3_plain": (5239, (0.4452631386425965, -1e-05, 0.00017026545842260317,
                         -0.0001687262815690787, 9.428294003854189e-06,
                         -5.990529110429212e-06, 9.260875041972723e-06,
                         -1.0088554759223875e-05)),
    "is4": (9310, (0.40407714108190423, -1e-05, -1.6207250840238015e-05,
                   -1.3488748722843738e-07, 0.0003709343368437556,
                   -0.0003492852169881418, -3.357405641936342e-05,
                   -7.505695611124009e-05)),
    "cut3": (74977, (1.341045208302634, 0.1589477651501262,
                     -6.022284551996228e-09, 3.5177903241519565e-06)),
    "cut3_linear": (74977, (1.3410452083026343, 0.15894776515012618,
                            -6.022284552209608e-09, 3.5177903240638837e-06)),
}

GOLDEN_RULES = {
    "is3": Is3Rules(),
    "is3_plain": Is3Rules(improvement=False),
    "is4": Is4Rules(),
    "cut3": CutRules(),
    "cut3_linear": CutRules(mode="linear_solve"),
}


@pytest.mark.parametrize("target", GOLDEN_RULES)
def test_finals_match_goldens_bitwise(target):
    rules = GOLDEN_RULES[target]
    params = EvolutionParams(step_size=1e-5)
    state, traj = integrate(rules.initial_state(params), rules, params)
    finals = (traj.rows[-1][0], rules.snapshot(state))
    assert repr(finals) == repr(GOLDENS_1E5[target])


@pytest.mark.parametrize("cc, notice", [
    (("no-such-compiler",) + _kernels._CC[1:], False),
    ((sys.executable, "-c", "raise SystemExit(1)"), True),
    ((sys.executable, "-c", "import time; time.sleep(30)"), True),
], ids=["missing", "failing", "hung"])
def test_failed_build_falls_back_to_the_composed_ops(monkeypatch, capsys,
                                                     tmp_path, cc, notice):
    monkeypatch.setattr(_kernels, "_CC_TIMEOUT_S", 1)
    assert _kernels._load(cc=cc, cache=tmp_path) is None
    assert list(tmp_path.iterdir()) == []
    # a compiler that ran and gave no library is reported; none at all is not
    err = capsys.readouterr().err
    assert ("building the C kernels failed" in err) == notice
    # with no library, integrate steps the composed operations
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    monkeypatch.setattr(_kernels, "_lib", None)
    rules = Is3Rules()
    params = EvolutionParams(step_size=1e-5)
    state, traj = integrate(rules.initial_state(params), rules, params)
    finals = (traj.rows[-1][0], rules.snapshot(state))
    assert repr(finals) == repr(GOLDENS_1E5["is3"])
