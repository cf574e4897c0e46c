"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run ``pytest -v tests/test_acceptance.py`` to see every criterion on its own
line.  Evolution runs are session fixtures shared between criteria, so the
gate costs a handful of integrations plus the finite-graph sweep (a few
minutes in total).
"""
import json
import time

import numpy as np
import pytest

from girthlocal import cli
from girthlocal.cli import RunReport
from girthlocal.config_model import Multigraph, generate
from girthlocal.cut_evolution import (
    CutRules,
    closed_form_rates,
    solve_cut_rates,
)
from girthlocal.cut_local_algorithm import count_cut, run_cut
from girthlocal.evolution_core import EvolutionParams, integrate
from girthlocal.exact_oracle import (
    SmallGraph,
    from_multigraph,
    max_cut,
    max_independent_set,
    small_graph,
)
from girthlocal.is_evolution import Is3Rules, Is4Rules, phase1_rates
from girthlocal.is_local_algorithm import SurvivalGraph
from girthlocal.is_local_algorithm import run as run_is

DESK_STEP = 1e-7


def _integrate(rules, eps, interval=10 ** 6):
    params = EvolutionParams(step_size=eps, record_interval=interval)
    start = time.perf_counter()
    state, traj = integrate(rules.initial_state(params), rules, params)
    return state, traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def is3_improved():
    return _integrate(Is3Rules(improvement=True), DESK_STEP, interval=1000)


@pytest.fixture(scope="session")
def is3_plain():
    return _integrate(Is3Rules(improvement=False), DESK_STEP, interval=1000)


@pytest.fixture(scope="session")
def is4_run():
    return _integrate(Is4Rules(), DESK_STEP)


@pytest.fixture(scope="session")
def cut_runs():
    return {mode: _integrate(CutRules(mode=mode), DESK_STEP)
            for mode in ("closed_form", "linear_solve")}


@pytest.fixture(scope="session")
def simulate_reports(tmp_path_factory):
    base = tmp_path_factory.mktemp("reports")
    commands = {
        "is3": ["simulate", "is", "--n", "100000", "--d", "3",
                "--seed", "0", "--seeds", "20"],
        "is4": ["simulate", "is", "--n", "100000", "--d", "4",
                "--seed", "0", "--seeds", "20"],
        "cut": ["simulate", "cut", "--n", "100000",
                "--seed", "0", "--seeds", "20"],
    }
    out = {}
    for name, argv in commands.items():
        path = base / f"{name}.json"
        code = cli.main(argv + ["--json", str(path)])
        out[name] = (code, json.loads(path.read_text()))
    return out


def _live_small_graph(g: SurvivalGraph) -> SmallGraph:
    return small_graph(g.survivors(), g.live_edges())


def test_criterion_01_is3_improved_headline_and_runtime(is3_improved,
                                                        tmp_path):
    """is3 with the correction term: 0.445327 +- 1e-4 in under 2 minutes,
    and the fine listing step agrees to 6 significant digits."""
    state, _, wall = is3_improved
    assert abs(state.independent - 0.445327) < 1e-4
    assert wall < 120.0
    path = tmp_path / "fine.json"
    code = cli.main(["evolve", "is3", "--paper-epsilon",
                     "--json", str(path)])
    assert code == 0
    fine = json.loads(path.read_text())["headline"]["independent"]
    assert float(f"{fine:.6g}") == 0.445327


def test_criterion_02_is3_without_improvement(is3_plain):
    """is3 with the correction disabled lands on 0.445312 +- 1e-4."""
    state, _, _ = is3_plain
    assert abs(state.independent - 0.445312) < 1e-4


def test_criterion_03_is4_headline(is4_run):
    """is4 lands on 0.404073 +- 1e-4."""
    state, _, _ = is4_run
    assert abs(state.independent - 0.404073) < 1e-4


def test_criterion_04_cut_headline_and_mode_agreement(cut_runs):
    """cut3: good = 1.34105 +- 1e-4, good+bad = 1.5 +- 1e-3, and the
    closed-form and linear-solve routes agree to 1e-9."""
    finals = {}
    for mode, (state, _, _) in cut_runs.items():
        assert abs(state.good - 1.34105) < 1e-4
        assert abs(state.good + state.bad - 1.5) < 1e-3
        finals[mode] = (state.good, state.bad)
    cf, ls = finals["closed_form"], finals["linear_solve"]
    assert abs(cf[0] - ls[0]) < 1e-9
    assert abs(cf[1] - ls[1]) < 1e-9


def test_criterion_05_rate_solver_matches_polynomials():
    """For 100 random edge probabilities, and for q = 0.5 - 10^-k
    (k = 2..6) towards the cut ODE's singular end, the triangular rate
    solve times the pool polynomial reproduces the closed-form polynomials
    to 1e-10 relative."""
    rng = np.random.default_rng(505)
    near_end = [0.5 - 10.0 ** -k for k in range(2, 7)]
    for p in rng.uniform(0.0, 0.45, size=100).tolist() + near_end:
        rates = solve_cut_rates(p)
        v_r, g, b, d_pool = closed_form_rates(p)
        for computed, closed in ((rates.v_R * d_pool, v_r),
                                 (rates.g * d_pool, g),
                                 (rates.b * d_pool, b)):
            assert abs(computed - closed) <= 1e-10 * max(1.0, abs(closed))


def test_criterion_06_late_phase_degree_profile(is3_improved):
    """The last trajectory sample with at least 3e-3 survival mass has
    degree proportions (.55, .26, .131, .055, .004) +- 0.02."""
    _, traj, _ = is3_improved
    names = ("v3", "v4", "v5", "v6", "v7")
    idx = [traj.columns.index(c) for c in names]
    target = (0.55, 0.26, 0.131, 0.055, 0.004)
    chosen = None
    for row in traj.rows:
        if sum(row[i] for i in idx) >= 3e-3:
            chosen = row
    assert chosen is not None
    mass = sum(chosen[i] for i in idx)
    profile = [chosen[i] / mass for i in idx]
    deviation = max(abs(a - b) for a, b in zip(profile, target))
    assert deviation < 0.02


def test_criterion_07_early_phase_deletion_rates(is3_plain):
    """While only degrees 3-4 are occupied, the sampled d(v3)/d(v4) slope
    matches the closed-form two-degree rates within 5% relative."""
    _, traj, _ = is3_plain
    i3, i4, i5 = (traj.columns.index(c) for c in ("v3", "v4", "v5"))
    windows = 0
    for prev, cur in zip(traj.rows[1:], traj.rows[2:]):
        if cur[i5] > DESK_STEP:
            continue
        mu = 4 * prev[i4] / (3 * prev[i3] + 4 * prev[i4])
        if mu > 0.05:
            continue
        rates = phase1_rates(mu)
        measured = (cur[i3] - prev[i3]) / (cur[i4] - prev[i4])
        ideal = rates.delta_v3 / rates.delta_v4
        assert abs(measured - ideal) <= 0.05 * abs(ideal)
        windows += 1
    assert windows >= 50


def test_criterion_08_degree2_contraction_preserves_optimum():
    """Contracting at a degree-2 vertex lowers the exact maximum
    independent set by exactly one, on 200 random small multigraphs."""
    rng = np.random.default_rng(88)
    done = 0
    while done < 200:
        n = int(rng.integers(5, 15))
        m = int(rng.integers(n - 1, 2 * n + 1))
        owner = rng.integers(0, n, size=2 * m).astype(np.int64)
        pair = np.arange(2 * m, dtype=np.int64)
        pair[0::2] += 1
        pair[1::2] -= 1
        s = SurvivalGraph(Multigraph(n=n, owner=owner, pair=pair))
        twos = [v for v in range(n) if s.alive[v] and s.deg[v] == 2]
        if not twos:
            continue
        before, _ = max_independent_set(_live_small_graph(s))
        s.contract(int(twos[0]))
        after, _ = max_independent_set(_live_small_graph(s))
        assert before == after + 1
        done += 1


def test_criterion_09_finite_runs_valid_and_in_band(simulate_reports):
    """20-seed sweeps at n = 100000: every run verifies, and the mean
    ratios sit inside 0.445+-0.01, 0.404+-0.012 and 1.341+-0.02."""
    bands = {"is3": (0.445, 0.010), "is4": (0.404, 0.012),
             "cut": (1.341, 0.020)}
    for name, (center, width) in bands.items():
        code, report = simulate_reports[name]
        assert code == 0
        assert report["valid"] is True
        assert all(r["valid"] for r in report["details"]["per_seed"])
        assert abs(report["headline"]["mean_ratio"] - center) < width


def test_criterion_10_cut_counters_always_match_recount(simulate_reports):
    """Incremental good/bad equal the exact recount in every cut run."""
    _, report = simulate_reports["cut"]
    assert all(r["valid"] for r in report["details"]["per_seed"])
    for n, seed in ((1000, 10), (5000, 11), (20000, 12)):
        g = generate(n, 3, seed=seed)
        r = run_cut(g, seed=seed)
        assert count_cut(g, r.colors) == (r.good, r.bad)
        assert r.good + r.bad == g.edge_count


def test_criterion_11_never_beats_the_oracle():
    """On 100 random cubic graphs with 8-16 vertices neither round
    algorithm exceeds the exact optimum."""
    rng = np.random.default_rng(111)
    for _ in range(100):
        n = int(rng.choice([8, 10, 12, 14, 16]))
        g = generate(n, 3, seed=int(rng.integers(2 ** 31)))
        small = from_multigraph(g)
        best_is, _ = max_independent_set(small)
        best_cut, _ = max_cut(small)
        r_is = run_is(g, 3, seed=int(rng.integers(2 ** 31)))
        r_cut = run_cut(g, seed=int(rng.integers(2 ** 31)))
        assert r_is.size <= best_is
        assert r_cut.good <= best_cut


def test_criterion_12_reports_recompute_corollaries(is3_improved, is4_run,
                                                    cut_runs):
    """The derived coloring corollaries, recomputed from this session's
    run output, match 2.24554, 2.4748 and 1.1185 to four decimals."""
    is3 = is3_improved[0].independent
    is4 = is4_run[0].independent
    good = cut_runs["closed_form"][0].good
    reports = [
        RunReport(command="", kind="independent", parameters={}, seed=None,
                  headline={"independent": float(is3)}),
        RunReport(command="", kind="independent", parameters={}, seed=None,
                  headline={"independent": float(is4)}),
        RunReport(command="", kind="cut", parameters={}, seed=None,
                  headline={"good": float(good)}),
    ]
    values = [
        reports[0].corollaries()["fractional_coloring_number"],
        reports[1].corollaries()["fractional_coloring_number"],
        reports[2].corollaries()["fractional_edge_coloring_number"],
    ]
    for value, expected in zip(values, (2.24554, 2.4748, 1.1185)):
        assert value == pytest.approx(1.0 / (1.0 / expected), abs=1e-4)
        assert abs(value - expected) < 1e-4


# Exact finals (rounds, snapshot) at the desk step, pinned before the chunk
# kernels were merged.
DESK_GOLDENS = {
    "is3": (521722, (0.44532674323588234, -1e-07, 2.0006915205480548e-06,
                     -2.000539242630362e-06, 8.51964556494907e-08,
                     -4.950235089745302e-08, 8.705462825812078e-08,
                     -1.1123880977171433e-07)),
    "is3_plain": (522808, (0.4453115125755271, 1.6186103633896907e-06,
                           -1e-07, 7.688163801525548e-08,
                           6.56162447465483e-08, -7.570760847868136e-08,
                           8.915106328797417e-08, -1.267584958807336e-07)),
    "is4": (929875, (0.4040723144218651, 1.8870737282309383e-06,
                     -9.760138264509198e-08, -8.058698039468703e-08,
                     9.092563721555039e-09, -1.6227554863292064e-08,
                     8.627035765135112e-08, -1.2532656032400475e-07)),
    "closed_form": (7497716, (1.341050979449391, 0.1589488624437935,
                              8.223760209806101e-12, 7.904717988977543e-08)),
    "linear_solve": (7497716, (1.3410509794493908, 0.1589488624437935,
                               8.223760230251718e-12, 7.90471799412067e-08)),
}


def test_criterion_13_desk_step_finals_are_bit_identical(
        is3_improved, is3_plain, is4_run, cut_runs):
    """Every state field and the round count of the five desk-step runs
    equal the pinned values bit for bit."""
    runs = {"is3": (Is3Rules(), is3_improved),
            "is3_plain": (Is3Rules(improvement=False), is3_plain),
            "is4": (Is4Rules(), is4_run)}
    for mode, run in cut_runs.items():
        runs[mode] = (CutRules(mode=mode), run)
    for name, (rules, (state, traj, _)) in runs.items():
        finals = (traj.rows[-1][0], rules.snapshot(state))
        assert repr(finals) == repr(DESK_GOLDENS[name]), name
