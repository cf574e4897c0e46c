"""End-to-end command-line behavior: outputs, reports, witnesses, errors."""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from girthlocal import _kernels, cli
from girthlocal.cli import RunReport
from girthlocal.config_model import generate, save_edge_list

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evolve_is3_coarse_headline(capsys):
    code, out, _ = run_cli(capsys, "evolve", "is3", "--epsilon", "1e-5")
    assert code == 0
    assert "independent: 0.4452987" in out
    assert "fractional coloring number: 2.245" in out


def test_evolve_cut3_modes_agree(capsys):
    outs = []
    for mode in ("closed-form", "linear-solve"):
        code, out, _ = run_cli(capsys, "evolve", "cut3",
                               "--epsilon", "1e-4", "--mode", mode)
        assert code == 0
        outs.append(out)
    good = [float(line.split(": ")[1]) for text in outs
            for line in text.splitlines() if line.startswith("good")]
    assert abs(good[0] - good[1]) < 1e-9


def test_evolve_writes_json_and_trajectory(capsys, tmp_path):
    jpath = tmp_path / "r.json"
    tpath = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "evolve", "is4", "--epsilon", "1e-5",
                         "--json", str(jpath), "--trajectory", str(tpath),
                         "--record-interval", "1000")
    assert code == 0
    report = json.loads(jpath.read_text())
    head = report["headline"]["independent"]
    assert abs(head - 0.404077141) < 1e-8
    assert report["corollaries"]["fractional_coloring_number"] * head == \
        pytest.approx(1.0, abs=1e-15)
    lines = tpath.read_text().splitlines()
    assert lines[0] == "round,independent,erase,v2,v3,v4,v5,v6,v7"
    assert len(lines) > 10


def test_record_interval_beyond_int64_runs(capsys):
    # the compiled kernels take an int64 budget; a larger interval is clamped
    _, default, _ = run_cli(capsys, "evolve", "is3", "--epsilon", "1e-3")
    code, out, _ = run_cli(capsys, "evolve", "is3", "--epsilon", "1e-3",
                           "--record-interval", str(10 ** 30))
    assert code == 0
    for key in ("independent:", "rounds:"):
        line, = [ln for ln in out.splitlines() if ln.startswith(key)]
        assert line in default.splitlines()


def test_evolve_rejects_improvement_flag_on_wrong_target(capsys):
    for command in ("evolve", "refine"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "is4", "--no-improvement"])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["evolve", "is3", "--epsilon", "inf"],
    ["refine", "is3", "--step-sizes", "inf", "1e-4"],
    ["refine", "cut3", "--step-sizes", "1e-4", "nan"],
], ids=["evolve", "refine", "refine_last"])
def test_non_finite_step_size_fails(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "finite" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["evolve", "is3", "--epsilon", "2"],
    ["evolve", "is4", "--epsilon", "1"],
    ["evolve", "cut3", "--epsilon", "0.5"],
    ["refine", "is3", "--step-sizes", "2", "1"],
], ids=["evolve_is3", "evolve_is4", "evolve_cut3", "refine_is3"])
def test_step_consuming_the_start_mass_fails(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be below 0.5" in err
    assert out == ""


def test_evolve_coarse_step_out_of_range_fails(capsys):
    code, _, err = run_cli(capsys, "evolve", "is3", "--epsilon", "1e-4")
    assert code == 1
    assert "valid range" in err


def test_refine_names_the_step_size_that_left_the_range(capsys):
    code, out, err = run_cli(capsys, "refine", "is4", "--step-sizes",
                             "1e-5", "5e-6", "2e-6")
    assert code == 1
    assert out == ""
    assert "at step size 2e-06: state left its valid range at round" in err


def test_simulate_is_parity_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "is", "--n", "3", "--d", "3")
    assert code == 2
    assert "even" in err


def test_simulate_is_reports_valid_set(capsys, tmp_path):
    wpath = tmp_path / "set.txt"
    code, out, _ = run_cli(capsys, "simulate", "is", "--n", "2000",
                           "--d", "3", "--seed", "3",
                           "--witness", str(wpath))
    assert code == 0
    assert "valid: True" in out
    members = [int(x) for x in wpath.read_text().split()]
    assert members == sorted(members)
    assert 0.40 < len(members) / 2000 < 0.48
    size = next(int(line.split(": ")[1]) for line in out.splitlines()
                if line.startswith("size: "))
    assert len(members) == size


def test_simulate_cut_witness_has_one_line_per_vertex(capsys, tmp_path):
    wpath = tmp_path / "colors.txt"
    code, out, _ = run_cli(capsys, "simulate", "cut", "--n", "500",
                           "--seed", "1", "--witness", str(wpath))
    assert code == 0
    lines = wpath.read_text().splitlines()
    assert len(lines) == 500
    assert all(line.split()[1] in ("R", "G") for line in lines)
    assert lines[0].split()[0] == "0"


def test_simulate_seed_fanout_aggregates(capsys, tmp_path):
    jpath = tmp_path / "agg.json"
    for target in ("is", "cut"):
        code, out, _ = run_cli(capsys, "simulate", target, "--n", "600",
                               "--seed", "5", "--seeds", "3",
                               "--json", str(jpath))
        assert code == 0
        report = json.loads(jpath.read_text())
        per_seed = report["details"]["per_seed"]
        assert [r["seed"] for r in per_seed] == [5, 6, 7]
        ratios = [r["ratio"] for r in per_seed]
        assert report["headline"]["mean_ratio"] == pytest.approx(
            sum(ratios) / 3)
        assert report["headline"]["runs"] == 3
        assert all(r["valid"] for r in per_seed)
        # each fanned-out run is the single run of its seed
        for entry in per_seed:
            code, _, _ = run_cli(capsys, "simulate", target, "--n", "600",
                                 "--seed", str(entry["seed"]),
                                 "--json", str(jpath))
            assert code == 0
            single = json.loads(jpath.read_text())
            assert {key: value for key, value in entry.items()
                    if not key.endswith("_wall_time_s")} == {
                "seed": single["seed"], **single["headline"],
                "rounds": single["rounds"], "valid": single["valid"]}


def test_a_failed_run_cancels_the_runs_not_started(capsys, monkeypatch):
    # two threads; the first seed fails at once while the second runs, so
    # the runs still queued are cancelled, not run
    started = []
    run_simulation = cli._run_simulation

    def first_fails(target, n, d, seed, *rest):
        started.append(seed)
        if seed == 0:
            raise MemoryError("no room for seed 0")
        time.sleep(0.2)
        return run_simulation(target, n, d, seed, *rest)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_run_simulation", first_fails)
    code, out, err = run_cli(capsys, "simulate", "cut", "--n", "600",
                             "--seeds", "6")
    assert (code, out, err) == (2, "", "error: no room for seed 0\n")
    assert 0 in started and len(started) < 6, started


def test_an_interrupt_cancels_the_runs_not_started(capsys, monkeypatch):
    # Ctrl-C reaches the main thread while it waits on the runs: the runs
    # still queued are cancelled, and the running ones are waited for
    started, finished = [], []
    run_simulation = cli._run_simulation

    def first_interrupts(target, n, d, seed, *rest):
        started.append(seed)
        if seed == 0:
            # once both threads run and the main thread waits on them
            deadline = time.monotonic() + 10
            while len(started) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)
            signal.pthread_kill(threading.main_thread().ident,
                                signal.SIGINT)
        time.sleep(0.2)
        finished.append(seed)
        return run_simulation(target, n, d, seed, *rest)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_run_simulation", first_interrupts)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["simulate", "cut", "--n", "600", "--seeds", "6"])
    assert capsys.readouterr().out == ""
    assert 0 in started and len(started) < 6, started
    assert sorted(finished) == sorted(started)


def test_a_seed_fanout_starts_no_process():
    # the runs are threads of this process: nothing forks, and the
    # multiprocessing machinery is never imported
    src = Path(cli.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\n"
         "import girthlocal.cli as c\n"
         "forks = []\n"
         "os.register_at_fork(before=lambda: forks.append(1))\n"
         "code = c.main(['simulate', 'is', '--n', '600', '--seeds', '3'])\n"
         "print(code, len(forks), 'multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "0 0 False"


def test_simulate_witness_excludes_fanout(capsys):
    code, _, err = run_cli(capsys, "simulate", "cut", "--n", "600",
                           "--seeds", "2", "--witness", "w.txt")
    assert code == 2
    assert "single run" in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_simulate_rejects_non_positive_seed_count(capsys, count):
    code, _, err = run_cli(capsys, "simulate", "is", "--n", "600",
                           "--seeds", count)
    assert code == 2
    assert "--seeds must be >= 1" in err


def test_simulate_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "simulate", "is", "--n", "600",
                           "--seed", "-1")
    assert code == 2
    assert "--seed must be >= 0" in err


@pytest.mark.parametrize("argv, message", [
    (["is", "--n", "2000000", "--thin-probability", "1.5"],
     "--thin-probability must lie in [0, 1]"),
    (["is", "--n", "600", "--thin-probability", "nan"],
     "--thin-probability must lie in [0, 1]"),
    (["is", "--n", "600", "--thin-probability", "-0.1", "--seeds", "3"],
     "--thin-probability must lie in [0, 1]"),
    (["cut", "--n", "600", "--query-probability", "1.01", "--seeds", "3"],
     "--query-probability must lie in [0, 1]"),
    (["cut", "--n", "600", "--query-probability", "nan"],
     "--query-probability must lie in [0, 1]"),
    (["is", "--n", "1", "--d", "4"], "--n must be >= 2"),
    (["cut", "--n", "0", "--seeds", "3"], "--n must be >= 2"),
    (["is", "--n", "601", "--d", "3", "--seeds", "3"], "must be even"),
], ids=["thin_above_one", "thin_nan", "thin_negative_seeds", "query_above",
        "query_nan", "n_one", "n_zero_seeds", "odd_seeds"])
def test_simulate_rejects_bad_options_before_any_work(
        capsys, monkeypatch, argv, message):
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started before the options were checked")

    monkeypatch.setattr(cli, "generate", no_work)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_work)
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert (code, out, calls) == (2, "", [])
    assert message in err


def test_simulate_reports_its_stage_times(capsys, tmp_path):
    jpath = tmp_path / "r.json"
    stages = ["generate", "run", "check"]
    for target in ("is", "cut"):
        code, out, _ = run_cli(capsys, "simulate", target, "--n", "600",
                               "--json", str(jpath))
        assert code == 0
        report = json.loads(jpath.read_text())
        for stage in stages:
            assert report[f"{stage}_wall_time_s"] >= 0
        printed = [ln.split(":")[0] for ln in out.splitlines()
                   if ln.startswith("wall time ")]
        assert printed == [f"wall time {stage}" for stage in stages]
        assert RunReport.from_dict(report).to_dict() == report
    code, _, _ = run_cli(capsys, "simulate", "is", "--n", "600", "--seeds",
                         "2", "--json", str(jpath))
    assert code == 0
    report = json.loads(jpath.read_text())
    assert not any(key.endswith("_wall_time_s") for key in report)
    for run in report["details"]["per_seed"]:
        assert sorted(key for key in run if key.endswith("_wall_time_s")) \
            == sorted(f"{stage}_wall_time_s" for stage in stages)
    # every stage time is on a line of its own that names wall_time
    text = jpath.read_text()
    assert text.count("_wall_time_s") == 6
    assert all("wall_time" in ln for ln in text.splitlines()
               if "_wall_time_s" in ln)


def test_identical_command_gives_identical_report(capsys, tmp_path):
    jpath = tmp_path / "rep.json"
    texts = []
    for _ in range(2):
        run_cli(capsys, "simulate", "cut", "--n", "400", "--seed", "8",
                "--json", str(jpath))
        texts.append(jpath.read_text())
    strip = [
        "\n".join(ln for ln in t.splitlines() if "wall_time" not in ln)
        for t in texts
    ]
    assert strip[0] == strip[1]


def test_report_round_trips_losslessly(capsys, tmp_path):
    jpath = tmp_path / "rep.json"
    run_cli(capsys, "simulate", "is", "--n", "500", "--d", "4",
            "--seed", "2", "--json", str(jpath))
    data = json.loads(jpath.read_text())
    rebuilt = RunReport.from_dict(data)
    assert rebuilt.to_dict() == data
    # a finite run's 1/ratio is no fractional colouring number of its graph
    assert data["corollaries"] == {}


def test_output_directory_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GIRTHLOCAL_OUT", str(tmp_path))
    code, _, _ = run_cli(capsys, "simulate", "cut", "--n", "200",
                         "--seed", "0", "--json", "sub.json")
    assert code == 0
    assert (tmp_path / "sub.json").exists()


@pytest.fixture
def no_run(monkeypatch):
    """Every run fails: a command must check its output paths first."""
    def fail(*args):
        raise AssertionError("ran before the output path was checked")

    for name in ("integrate", "refine", "_run_simulation"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("argv", [
    ["evolve", "cut3", "--epsilon", "1e-6", "--json"],
    ["evolve", "cut3", "--epsilon", "1e-6", "--trajectory"],
    ["simulate", "cut", "--n", "100000", "--witness"],
    ["refine", "cut3", "--json"],
], ids=["evolve_json", "evolve_trajectory", "simulate_witness",
        "refine_json"])
def test_missing_output_directory_fails_before_the_run(
        capsys, tmp_path, no_run, argv):
    missing = tmp_path / "nodir"
    code, out, err = run_cli(capsys, *argv, str(missing / "out.txt"))
    assert code == 2
    assert out == ""
    assert str(missing) in err


@pytest.mark.parametrize("argv", [
    ["evolve", "is4", "--epsilon", "1e-6", "--json"],
    ["evolve", "is4", "--epsilon", "1e-6", "--trajectory"],
    ["simulate", "cut", "--n", "100000", "--witness"],
], ids=["json", "trajectory", "witness"])
def test_an_output_path_that_is_a_directory_fails_before_the_run(
        capsys, tmp_path, no_run, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: output path {tmp_path} is a directory\n"


@pytest.mark.parametrize("message", [
    "Unable to allocate 22.4 TiB for an array with shape (3000000000000,)",
    "",
], ids=["numpy", "bare"])
def test_a_graph_too_large_for_memory_fails_in_one_line(
        capsys, monkeypatch, message):
    def no_room(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate", no_room)
    # the largest n whose 3n half-edges have 32-bit ids
    code, out, err = run_cli(capsys, "simulate", "cut", "--n", "715827882")
    assert code == 2
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "cut", "--n", "1000000000000"],
    ["simulate", "cut", "--n", "715827884"],    # 3n = 2**31 + 4 half-edges
    ["simulate", "is", "--d", "4", "--n", "536870912"],  # 4n = 2**31
    ["simulate", "is", "--n", "2147483648"],    # n = 2**31
], ids=["1e12", "cut_half_edges", "is4_half_edges", "is3_vertices"])
def test_a_graph_too_large_for_32_bit_ids_fails_before_any_work(
        capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "generate", no_run)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: a graph of ") and "2**31" in err


def test_oracle_commands(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    code, out, _ = run_cli(capsys, "oracle", "mis", str(path))
    assert code == 0
    assert "maximum independent set: 1" in out
    code, out, _ = run_cli(capsys, "oracle", "maxcut", str(path))
    assert code == 0
    assert "maximum cut: 4" in out
    assert len(out.splitlines()[1].split()) == 5  # "witness:" + 4 sides


# oracle stdout on generate(n, d, seed) edge lists; the max-cut witness is
# the first optimum in the oracle's Gray-code order
ORACLE_OUTPUTS = [
    ("maxcut", 22, 3, 0, "maximum cut: 29\n"
     "witness: G R G G R R G R G G R R R G G R G G G R R R\n"),
    ("maxcut", 22, 3, 1, "maximum cut: 28\n"
     "witness: G R G R G R G R G G R G G R R R R R G G R R\n"),
    ("maxcut", 20, 4, 2, "maximum cut: 32\n"
     "witness: G R R G G G G G R R G R R G G R R G G R\n"),
    ("mis", 30, 3, 0, "maximum independent set: 13\n"
     "witness: 2 4 5 6 8 11 12 15 18 20 23 24 28\n"),
    ("mis", 30, 4, 1, "maximum independent set: 12\n"
     "witness: 1 5 6 7 10 11 12 14 17 21 22 28\n"),
    ("maxcut", 26, 3, 3, "maximum cut: 34\n"
     "witness: R G G R G R R G R R G G R R R G G G G R G R R R G R\n"),
]


def test_oracle_outputs_are_pinned(capsys, tmp_path):
    path = tmp_path / "g.txt"
    for problem, n, d, seed, expected in ORACLE_OUTPUTS:
        path.write_text(save_edge_list(generate(n, d, seed=seed)))
        code, out, _ = run_cli(capsys, "oracle", problem, str(path))
        assert code == 0
        assert out == expected


def test_oracle_json_report_round_trips(capsys, tmp_path):
    path = tmp_path / "g.txt"
    jpath = tmp_path / "oracle.json"
    for problem, n, d, seed, expected in ORACLE_OUTPUTS[2:4]:
        path.write_text(save_edge_list(generate(n, d, seed=seed)))
        code, out, _ = run_cli(capsys, "oracle", problem, str(path),
                               "--json", str(jpath))
        assert code == 0
        assert out == expected + f"report written to {jpath}\n"
        data = json.loads(jpath.read_text())
        assert RunReport.from_dict(data).to_dict() == data
        headline, witness = expected.splitlines()
        value = int(headline.split(": ")[1])
        if problem == "mis":
            assert data["kind"] == "independent"
            assert data["headline"] == {"size": value}
        else:
            assert data["kind"] == "cut"
            assert data["headline"] == {"weight": value}
        assert data["details"] == {"witness": witness.split(": ")[1]}
        assert data["parameters"] == {"problem": problem, "n": n}
        assert data["backend"] == _kernels.BACKEND
        assert data["corollaries"] == {}


@pytest.mark.parametrize("problem, name, answer", [
    ("mis", "max_independent_set", (2, [0, 1])),   # adjacent members
    ("mis", "max_independent_set", (2, [0])),      # one member short
    ("maxcut", "max_cut", (5, [1, 0, 0, 0])),      # the witness cuts 3
    ("maxcut", "max_cut", (4, [1, 0, 0])),         # a side missing
])
def test_oracle_rejects_a_wrong_witness(
        capsys, tmp_path, monkeypatch, problem, name, answer):
    monkeypatch.setattr(cli, name, lambda small: answer)
    path = tmp_path / "k4.txt"
    jpath = tmp_path / "oracle.json"
    path.write_text(K4_TEXT)
    code, out, err = run_cli(capsys, "oracle", problem, str(path),
                             "--json", str(jpath))
    assert code == 1
    assert out == ""
    assert "oracle check failed" in err
    assert not jpath.exists()


def test_oracle_size_limit(capsys, tmp_path):
    n = 40
    lines = [f"{n} {n}"] + [f"{i} {(i + 1) % n}" for i in range(n)]
    cycle = "\n".join(lines) + "\n"
    # a huge header is rejected before the graph's O(n) arrays are built
    huge = "1000000000000000 0\n"
    path = tmp_path / "big.txt"
    for problem, limit, text in (("mis", 30, cycle), ("mis", 30, huge),
                                 ("maxcut", 26, huge)):
        path.write_text(text)
        code, _, err = run_cli(capsys, "oracle", problem, str(path))
        assert code == 2
        assert f"n <= {limit}" in err


def test_refine_default_ladder_reports_convergence(capsys):
    code, out, _ = run_cli(capsys, "refine", "cut3")
    assert code == 0
    assert "monotone convergence: True" in out
    assert "difference ratios:" in out


def test_refine_explicit_ladder_json(capsys, tmp_path):
    jpath = tmp_path / "ref.json"
    code, out, _ = run_cli(capsys, "refine", "is4", "--step-sizes",
                           "1e-5", "5e-6", "2.5e-6", "--json", str(jpath))
    assert code == 0
    assert "monotone convergence: True" in out
    data = json.loads(jpath.read_text())
    assert data["kind"] == "report"
    assert data["parameters"]["step_sizes"] == [1e-5, 5e-6, 2.5e-6]
    details = data["details"]
    assert details["monotone"] is True
    assert len(details["finals"]) == 3
    assert data["headline"]["final"] == details["finals"][-1]
    assert details["ratios"][0] == pytest.approx(0.668, abs=0.05)
    assert RunReport.from_dict(data).to_dict() == data


# sha256 of the --witness file bytes at n = 2000; a change to the finite
# algorithms that keeps their outputs must keep these
WITNESS_SHA256 = {
    ("is3", 0): "80e0877d30b0ddc9bd5cc341df6a1535"
                "6e37ddb386752dc8d46e680f556868d6",
    ("is3", 1): "9240d9c6cd01a40ed7a3aa9a2bc18e6b"
                "a5a0aef1a45fcd7cfc4b4eab2b2afda9",
    ("is4", 0): "48dd4dcc2136b431f64908dd20e34399"
                "16f64bd9de87027af2bfbcd98c5e401b",
    ("is4", 1): "b65434daf9a1d949ee3f815f31696b0e"
                "4fe828c634ec8c65d09510960710616c",
    ("cut", 0): "31ff4d812d872a710ad9fecf3d572a55"
                "194b057798eb67b36865486c7e767055",
    ("cut", 1): "40d96a8dacc6b742884df3d96092aa7e"
                "aeb7e3659a4fe80484275b03bb792199",
    ("cut_q005", 0): "34f2fe1c19cd1589e46986c6d2317b12"
                     "4602e080b44666f885c717ce4acc0b8b",
    ("cut_q005", 1): "0d127986794be02f228ec11cd1f6a34a"
                     "69c5cd442bc6e2ca8919d8ef26e82ba7",
    ("is3_t005", 0): "2db0b7f8c8921f47e636d4639efce23c"
                     "b217993b69a2b3785a5bb1f128b1d382",
    ("is3_t005", 1): "7840919f4b52490a01cb17144015bb05"
                     "cd527d8ce76bb7c494bc0a1ea58ba12e",
    ("is4_t005", 0): "6aa4c99c5a1af1e89d54ec791eedff05"
                     "852ba927ed4b35eb86b0ec314a55a4d9",
    ("is4_t005", 1): "8713fa19eed787f223b6120c72fe7a55"
                     "f12b3125267af5f68d9d72a7e4bca61e",
}
# cut_q005 is the query-starved regime: over 100 bootstraps per run at
# n = 2000, against about 20 at the default query probability; is3_t005
# and is4_t005 thin at the sweep's probability, a quarter of the default
WITNESS_ARGS = {"is3": ["is", "--d", "3"], "is4": ["is", "--d", "4"],
                "cut": ["cut"],
                "cut_q005": ["cut", "--query-probability", "0.005"],
                "is3_t005": ["is", "--d", "3", "--thin-probability", "0.005"],
                "is4_t005": ["is", "--d", "4", "--thin-probability", "0.005"]}


@pytest.mark.parametrize("target, seed", sorted(WITNESS_SHA256),
                         ids=[f"{t}-{s}" for t, s in sorted(WITNESS_SHA256)])
def test_witness_bytes_are_pinned(capsys, tmp_path, target, seed):
    wpath = tmp_path / "w.txt"
    code, _, _ = run_cli(capsys, "simulate", *WITNESS_ARGS[target],
                         "--n", "2000", "--seed", str(seed),
                         "--witness", str(wpath))
    assert code == 0
    digest = hashlib.sha256(wpath.read_bytes()).hexdigest()
    assert digest == WITNESS_SHA256[(target, seed)]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("target", ["is3", "cut"])
def test_witness_bytes_do_not_depend_on_the_block_size(
        capsys, tmp_path, monkeypatch, target, block):
    # the pinned witnesses fit in one block; written in blocks of 1 or 7
    # lines, with a short last block, they keep their bytes
    monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
    test_witness_bytes_are_pinned(capsys, tmp_path, target, 0)


CUT_WITNESSES = [key for key in sorted(WITNESS_SHA256)
                 if key[0].startswith("cut")]


@pytest.mark.parametrize("target, seed", CUT_WITNESSES,
                         ids=[f"{t}-{s}" for t, s in CUT_WITNESSES])
def test_cut_witness_bytes_are_pinned_on_the_python_path(
        capsys, tmp_path, monkeypatch, target, seed):
    # the pins above run on the built backend; the cut process's Python
    # methods must give the same bytes
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    test_witness_bytes_are_pinned(capsys, tmp_path, target, seed)


IS_WITNESSES = [key for key in sorted(WITNESS_SHA256)
                if key[0].startswith("is")]


@pytest.mark.parametrize("target, seed", IS_WITNESSES,
                         ids=[f"{t}-{s}" for t, s in IS_WITNESSES])
def test_is_witness_bytes_are_pinned_on_the_python_path(
        capsys, tmp_path, monkeypatch, target, seed):
    # the pins above run on the built backend; the survival graph's Python
    # methods must give the same bytes
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    test_witness_bytes_are_pinned(capsys, tmp_path, target, seed)


# sha256 of each report: the --json file and stdout, wall-time lines
# dropped, the output directory written as OUT and the backend that ran as
# BACKEND; a change to the commands that keeps their outputs must keep these
REPORT_ARGS = {
    "is3": ["evolve", "is3", "--epsilon", "1e-5"],
    "is3_plain": ["evolve", "is3", "--no-improvement", "--epsilon", "1e-5"],
    "is4": ["evolve", "is4", "--epsilon", "1e-5"],
    "cut3": ["evolve", "cut3", "--epsilon", "1e-5"],
    "cut3_linear": ["evolve", "cut3", "--mode", "linear-solve",
                    "--epsilon", "1e-5"],
    "simulate_is3": ["simulate", "is", "--d", "3", "--n", "2000"],
    "simulate_cut": ["simulate", "cut", "--n", "2000"],
    "simulate_cut_seeds2": ["simulate", "cut", "--n", "2000", "--seeds", "2"],
}
REPORT_SHA256 = {  # name: (json, stdout)
    "is3": ("87c67cdef2304cc8b40142bb8c1d2c4f"
            "292c7152b6d7debd56388229690cf5f1",
            "d932c3a48e9a1950438637228b070c10"
            "a20a113c635199e77d7c81d3e95512e1"),
    "is3_plain": ("588700040060177666f23a1969aa9222"
                  "7ee97d160cadee3a22f766da19cae730",
                  "06bb3990d731d296b4042098e3b25266"
                  "6f6e403162a7d3dce0d2e14e8449da25"),
    "is4": ("e5bb7cc7ca11c16e2ab41c0d060d1f73"
            "082a83b2d5f7a6ef084584955f7c50dc",
            "5320a4f11517405525d1189659577f08"
            "7ed55e5e0825cf6390d45d8d707c651f"),
    "cut3": ("aaadae601b09278bad3c8f14e6017d77"
             "1a0c60d259887ae725322045d4cddb85",
             "d398fa253bb06624e56fa29f3003138b"
             "a32f848d907381f81d38649e1faf210d"),
    "cut3_linear": ("9c8fbf8fbbcff9a0957ba9bcdc960fb4"
                    "d41b12a23e4b6860bcc3ec53839c8dee",
                    "0a27b898dc78c750390ebbaf85aa942e"
                    "43fd9e3349bdbcd090bd2db792618e01"),
    "simulate_is3": ("84cd5d83269f39714274683895f7db39"
                     "f93af2936e7a07964cdaf0ae1c703e17",
                     "24eba4cdd970d21685737759c96b520a"
                     "dde43eff00448a4c8a0520adb85110fc"),
    "simulate_cut": ("9298007d86a397b295cef7b84b8a87d8"
                     "694046a28c7dfe7adb8ad4d7db4fd3cd",
                     "f4d5b587857fe952c5ab0a6f3dc704a5"
                     "1778dfefbc99996432b3f0d8f88e2d3a"),
    "simulate_cut_seeds2": ("9e158bb5a1388d6110db6abc46f1de6f"
                            "44d37eae5de004dfdd434a8693847046",
                            "fd92625df559bfc6084227e268628301"
                            "2ee2b0cccbc3d3c3ce7406fa31a03712"),
}


def _report_digest(text: str, out_dir) -> str:
    text = text.replace(str(out_dir), "OUT").replace(
        f'"backend": "{_kernels.BACKEND}"', '"backend": "BACKEND"')
    kept = "".join(ln for ln in text.splitlines(keepends=True)
                   if "wall_time" not in ln and "wall time" not in ln)
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_ARGS))
def test_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, name):
    monkeypatch.setenv("GIRTHLOCAL_OUT", str(tmp_path))
    code, out, _ = run_cli(capsys, *REPORT_ARGS[name], "--json", "r.json")
    assert code == 0
    report = (tmp_path / "r.json").read_text()
    assert (_report_digest(report, tmp_path),
            _report_digest(out, tmp_path)) == REPORT_SHA256[name]


@pytest.mark.parametrize("name", ["simulate_cut", "simulate_cut_seeds2"])
def test_cut_report_bytes_are_pinned_on_the_python_path(
        capsys, tmp_path, monkeypatch, name):
    # the pool workers of --seeds 2 inherit the patched backend
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    test_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, name)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["backend"] == "python"


@pytest.mark.parametrize("argv", [
    ["evolve", "cut3", "--epsilon", "1e-4"],
    ["refine", "cut3", "--step-sizes", "1e-3", "5e-4"],
    ["simulate", "is", "--n", "200"],
    ["simulate", "cut", "--n", "200", "--seeds", "2"],
], ids=["evolve", "refine", "simulate", "simulate_seeds"])
def test_every_report_names_its_backend(capsys, tmp_path, argv):
    jpath = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, *argv, "--json", str(jpath))
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["backend"] == _kernels.BACKEND in ("c", "python")


def test_main_can_be_called_again_and_again(capsys, tmp_path):
    # one parser per process: no call sees an earlier call's options, and
    # an argparse rejection leaves the parser usable
    cli._parser.cache_clear()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for argv, path in ((["--d", "4"], a), ([], b)):
        code, _, _ = run_cli(capsys, "simulate", "is", "--n", "600", *argv,
                             "--json", str(path))
        assert code == 0
    assert json.loads(a.read_text())["parameters"]["d"] == 4
    assert json.loads(b.read_text())["parameters"]["d"] == 3
    ladders = []
    for argv in (["--step-sizes", "1e-5", "5e-6"], []):
        code, _, _ = run_cli(capsys, "refine", "is4", *argv, "--json", str(a))
        assert code == 0
        ladders.append(json.loads(a.read_text())["parameters"]["step_sizes"])
    assert ladders == [[1e-5, 5e-6], [1e-5, 5e-6, 2.5e-6]]
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "is", "--n", "600", "--d", "5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, _, _ = run_cli(capsys, "simulate", "is", "--n", "600", "--json",
                         str(b))
    assert code == 0
    assert json.loads(b.read_text())["parameters"]["d"] == 3
    assert cli._parser.cache_info().misses == 1


def help_texts(parser, path=()):
    """Command path -> help text, for the parser and every subparser."""
    texts = {path: parser.format_help()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                texts.update(help_texts(sub, (*path, name)))
    return texts


def test_the_shared_parser_keeps_a_fresh_parsers_help(capsys):
    run_cli(capsys, "simulate", "cut", "--n", "200")
    shared = help_texts(cli._parser())
    # the top level, 4 commands, 3 evolve and 3 refine targets, 2 simulate
    assert len(shared) == 13
    assert shared == help_texts(cli._parser.__wrapped__())


def test_the_command_line_entry_reads_its_arguments(tmp_path):
    # `python -m girthlocal.cli` runs main() with no arguments, so that it
    # reads sys.argv, and exits with main's status
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    src = Path(cli.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-m", "girthlocal.cli", "oracle", "mis", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[0] == "maximum independent set: 1"


def test_importing_the_cli_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", "import girthlocal.cli as c; "
                               "print(c._parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "0\n"
