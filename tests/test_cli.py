"""Command line interface: exit codes, CSV contracts, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoisched
import reference_impls as ref
from aoisched import ClassSpec, NetworkConfig
from aoisched.cli import (
    CSV_HEADER,
    PLOT_HEADER,
    ExperimentSpec,
    _mean_stderr,
    main,
    run_experiment,
)
from aoisched.errors import ParseError, RangeError
from aoisched.fluid import region_margin
from aoisched.relaxed import solve_rp


CHEAP = {
    "n": 12, "alpha": 0.5, "l": 8,
    "classes": [{"p": 0.8, "gamma": 0.5}, {"p": 0.5, "gamma": 0.5}],
}
TIE = {
    "n": 10, "alpha": 0.5, "l": 3,
    "classes": [{"p": 0.5, "gamma": 1.0}],
}
DEGENERATE = {
    "n": 10, "alpha": 0.9, "l": 5,
    "classes": [{"p": 0.5, "gamma": 0.5}, {"p": 0.5, "gamma": 0.5}],
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cheap_config(n=12):
    return NetworkConfig(
        n=n, alpha=0.5, l=8,
        classes=(ClassSpec(p=0.8, gamma=0.5), ClassSpec(p=0.5, gamma=0.5)),
    )


def stderr_error(capsys):
    err = capsys.readouterr().err.strip()
    return json.loads(err)


def test_header_constants():
    assert CSV_HEADER == "seed,n,policy,horizon,avg_age_per_user,c_rp,rel_gap,hitting_time"
    assert PLOT_HEADER == ("n,policy,replications,avg_age_mean,avg_age_stderr,"
                           "rel_gap_mean,rel_gap_stderr,hitting_time_mean,"
                           "hitting_time_stderr")


def test_solve_rp_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TIE)
    assert main(["solve-rp", "--config", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w_star"] == pytest.approx(1.5, abs=1e-12)
    assert payload["theta_star"] == pytest.approx(0.75, abs=1e-12)
    assert payload["thresholds"] == [[4, 2]]
    assert payload["critical_class"] == 0
    assert payload["c_rp"] == pytest.approx(2.25, abs=1e-12)
    np.testing.assert_allclose(payload["z_star"], [[0.25, 0.25, 0.5]], atol=1e-12)
    sol = solve_rp(NetworkConfig(n=10, alpha=0.5, l=3,
                                 classes=(ClassSpec(p=0.5, gamma=1.0),)))
    assert payload["effective_thresholds"] == list(sol.l_star)


def test_simulate_rows(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    rc = main(["simulate", "--config", cfg_path,
               "--policies", "whittle,greedy_max_age",
               "--horizon", "200", "--seed", "3", "--replications", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    c_rp = solve_rp(cheap_config()).c_rp
    for line in lines[1:]:
        seed, n, policy, horizon, avg, c, gap, hit = line.split(",")
        assert seed in ("0", "1")
        assert n == "12"
        assert policy in ("whittle", "greedy_max_age")
        assert horizon == "200"
        assert float(c) == pytest.approx(c_rp, abs=1e-15)
        assert float(gap) == pytest.approx((float(avg) - c_rp) / c_rp, abs=1e-12)
        assert hit == ""


def test_hitting_time_rows(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    rc = main(["hitting-time", "--config", cfg_path, "--epsilon", "0.5",
               "--replications", "2", "--cap", "5000"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    for line in lines[1:]:
        seed, n, policy, horizon, avg, c, gap, hit = line.split(",")
        assert policy == "whittle"
        assert horizon == "5000"
        assert avg == "" and gap == ""
        assert int(hit) >= 0


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_simulate_stdout_is_pinned(tmp_path, capsys):
    # the digest moves with any change to the seeding rule, the RNG
    # streams, the scheduled sets or the CSV formatting; it last moved
    # when the kernel began to draw only successes (same law, new stream)
    digest = stdout_digest(capsys, [
        "simulate", "--config", write_config(tmp_path, CHEAP),
        "--policies", "whittle,greedy_max_age,rp_threshold,uniform_random",
        "--initial", "star", "--replications", "3", "--horizon", "300",
        "--seed", "5"])
    assert digest == (
        "83efb0cca50757515e69b8e334db1a0ec67bfb04a696901084b01aa9635798f1"
    )


def test_hitting_time_stdout_is_pinned(tmp_path, capsys):
    # every replication hits within the cap; the digest last moved when
    # the kernel began to draw only successes (same law, new stream)
    digest = stdout_digest(capsys, [
        "hitting-time", "--config", write_config(tmp_path, CHEAP),
        "--epsilon", "0.15", "--initial", "maxed", "--replications", "4",
        "--cap", "40", "--seed", "5"])
    assert digest == (
        "ed3b3e75f4eaba17796314f26d0918ff2784b2e68a4602963290f20ae665a480"
    )


def test_hitting_time_unresolved_rows_are_empty(tmp_path, capsys):
    # a replication that has not entered the ball by the cap prints an
    # empty hitting_time field
    rc = main(["hitting-time", "--config", write_config(tmp_path, CHEAP),
               "--epsilon", "1e-9", "--initial", "maxed", "--replications", "2",
               "--cap", "5", "--seed", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[7] for line in lines[1:]] == ["", ""]


def test_fluid_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    rc = main(["fluid", "--config", cfg_path, "--steps", "200",
               "--initial", "maxed"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["final_distance"] < 1e-9
    assert 0.0 <= payload["contraction"] < 1.0
    assert len(payload["distances"]) == len(payload["in_region"])
    assert payload["in_region"][-1] is True


def test_fluid_negative_steps_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["fluid", "--config", cfg_path, "--steps", "-1"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "RangeError"


def assert_one_line_range_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert json.loads(captured.err)["error"] == "RangeError"


def test_hitting_time_nan_epsilon_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["hitting-time", "--config", cfg_path, "--epsilon", "nan",
                 "--cap", "50"]) == 2
    assert_one_line_range_error(capsys)


def test_hitting_time_negative_cap_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["hitting-time", "--config", cfg_path, "--epsilon", "0.5",
                 "--cap", "-5"]) == 2
    assert_one_line_range_error(capsys)


def test_simulate_zero_replications_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["simulate", "--config", cfg_path, "--horizon", "10",
                 "--replications", "0"]) == 2
    assert_one_line_range_error(capsys)


def test_spectral_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["spectral", "--config", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert payload["rho"] == pytest.approx(payload["rho_closed_form"], abs=1e-8)
    assert payload["route_agreement"] < 1e-8
    sol = solve_rp(cheap_config())
    assert payload["region_margin"] == region_margin(sol.z_star, cheap_config(), sol)
    assert payload["region_margin"] > 0.0


def test_memory_error_is_computation_error(tmp_path, capsys, monkeypatch):
    # a problem too large for memory (say "l": 1e11) ends in the one-line
    # JSON error with exit 3, not in numpy's traceback
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr("aoisched.cli.solve_rp", out_of_memory)
    assert main(["solve-rp", "--config", write_config(tmp_path, CHEAP)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "MemoryError",
        "message": "Unable to allocate 1.46 TiB for an array",
    }


ORACLE_BENCH = {
    # the analysis bench's oracle-check configs
    "reference": {"n": 100, "alpha": 0.5, "l": 25,
                  "classes": [{"p": 0.5, "gamma": 0.5}, {"p": 0.8, "gamma": 0.5}]},
    "shrinking_gap": {"n": 100, "alpha": 0.5, "l": 25,
                      "classes": [{"p": 0.8, "gamma": 0.5}, {"p": 0.2, "gamma": 0.5}]},
}


def oracle_check_output(tmp_path, capsys, doc):
    """oracle-check's stdout on doc, and the per-subsidy reference's."""
    cfg_path = write_config(tmp_path, doc)
    assert main(["oracle-check", "--config", cfg_path]) == 0
    expected = ref.oracle_check_payload(aoisched.load_config(cfg_path))
    return (capsys.readouterr().out,
            json.dumps(expected, indent=2, sort_keys=True) + "\n")


def test_oracle_check_command(tmp_path, capsys):
    out, expected = oracle_check_output(tmp_path, capsys, CHEAP)
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["max_cost_error"] < 1e-6
    assert payload["grid_points"] > 0
    # the stacked grid solve prints what the per-subsidy loop gives, byte
    # for byte, so a change in any max_cost_error shows
    assert out == expected


@pytest.mark.parametrize("name", sorted(ORACLE_BENCH))
def test_oracle_check_bench_configs_match_per_subsidy_loop(tmp_path, capsys, name):
    out, expected = oracle_check_output(tmp_path, capsys, ORACLE_BENCH[name])
    assert json.loads(out)["grid_points"] == 98
    assert out == expected


def test_missing_config_is_validation_error(capsys):
    assert main(["solve-rp", "--config", "/no/such/file.json"]) == 2
    assert stderr_error(capsys)["error"] == "ParseError"


def test_bad_gamma_sum_is_validation_error(tmp_path, capsys):
    doc = dict(CHEAP, classes=[{"p": 0.8, "gamma": 0.5},
                               {"p": 0.5, "gamma": 0.4}])
    assert main(["solve-rp", "--config", write_config(tmp_path, doc)]) == 2
    assert stderr_error(capsys)["error"] == "FractionError"


def test_unknown_policy_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    rc = main(["simulate", "--config", cfg_path, "--policies", "nope"])
    assert rc == 2
    assert "nope" in stderr_error(capsys)["message"]


def test_simulate_drops_empty_policy_entries(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["simulate", "--config", cfg_path, "--policies", "whittle,",
                 "--horizon", "20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["whittle"]


def test_experiment_drops_empty_policy_entries(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["experiment", "--config", cfg_path, "--n-sweep", "12",
                 "--policies", "whittle,", "--horizon", "20",
                 "--replications", "1", "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()
    swept = (tmp_path / "e" / "rows.csv").read_text().strip().splitlines()
    assert [line.split(",")[2] for line in swept[1:]] == ["whittle"]


def test_simulate_repeated_policy_fails_before_simulating(tmp_path, capsys,
                                                         monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the policy check")

    monkeypatch.setattr("aoisched.cli.simulate", no_simulation)
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["simulate", "--config", cfg_path,
                 "--policies", "whittle,whittle"]) == 2
    assert_one_line_range_error(capsys)


def test_experiment_drops_empty_n_sweep_entries(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["experiment", "--config", cfg_path, "--n-sweep", "12,",
                 "--policies", "whittle", "--horizon", "20",
                 "--replications", "1", "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()
    swept = (tmp_path / "e" / "rows.csv").read_text().strip().splitlines()
    assert [line.split(",")[1] for line in swept[1:]] == ["12"]


def test_experiment_empty_n_sweep_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["experiment", "--config", cfg_path, "--n-sweep", " , ",
                 "--out", str(tmp_path / "e")]) == 2
    assert_one_line_range_error(capsys)
    assert not (tmp_path / "e").exists()


def test_unwritable_out_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    missing = tmp_path / "missing_dir" / "x.json"
    assert main(["solve-rp", "--config", cfg_path, "--out", str(missing)]) == 2
    assert_one_line_range_error(capsys)
    assert not missing.parent.exists()


def test_experiment_out_file_fails_before_simulating(tmp_path, capsys,
                                                     monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the output check")

    monkeypatch.setattr("aoisched.cli.simulate", no_simulation)
    cfg_path = write_config(tmp_path, CHEAP)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["experiment", "--config", cfg_path, "--n-sweep", "12",
                 "--out", str(taken)]) == 2
    assert_one_line_range_error(capsys)
    assert taken.read_text() == "not a directory"


def test_degenerate_spectrum_is_computation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, DEGENERATE)
    assert main(["spectral", "--config", cfg_path]) == 3
    assert stderr_error(capsys)["error"] == "DegenerateThresholdError"


def test_spectral_route_disagreement_is_convergence_error(tmp_path, capsys,
                                                         monkeypatch):
    # stable: true is printed only when the two spectral routes agree
    closed_form = aoisched.fluid._closed_form_radius
    monkeypatch.setattr("aoisched.fluid._closed_form_radius",
                        lambda sysm: closed_form(sysm) + 1e-6)
    assert main(["spectral", "--config", write_config(tmp_path, CHEAP)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    error = json.loads(captured.err)
    assert error["error"] == "ConvergenceError"
    assert error["message"].startswith("spectral routes disagree")


def test_cross_class_tie_spectrum_is_certified(tmp_path, capsys):
    # the tie group at w_star spans both classes; fluid_step serves it
    # class by class, so z_star is its fixed point and the map certifies
    doc = {"n": 4, "alpha": 0.75, "l": 34,
           "classes": [{"p": 0.58, "gamma": 0.5}, {"p": 0.88, "gamma": 0.5}]}
    assert main(["spectral", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["rho"] == pytest.approx(0.88, abs=1e-12)
    assert payload["rho_closed_form"] == pytest.approx(0.88, abs=1e-12)
    assert payload["stable"] is True


def test_experiment_negative_cap_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["experiment", "--config", cfg_path, "--n-sweep", "12",
                 "--out", str(tmp_path / "x"), "--epsilon", "0.5",
                 "--cap", "-1"]) == 2
    assert_one_line_range_error(capsys)
    assert not (tmp_path / "x").exists()


def test_experiment_hitting_column_matches_hitting_time(tmp_path, capsys):
    # same seed, point and replication count: the experiment's whittle
    # hitting column and hitting-time's rows come from the same stream
    cfg_path = write_config(tmp_path, CHEAP)
    common = ["--config", cfg_path, "--epsilon", "0.3", "--seed", "4",
              "--replications", "3", "--cap", "40"]
    assert main(["hitting-time"] + common) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert main(["experiment", "--n-sweep", "12", "--horizon", "20",
                 "--out", str(tmp_path / "e")] + common) == 0
    capsys.readouterr()
    swept = (tmp_path / "e" / "rows.csv").read_text().strip().splitlines()[1:]
    hits = [line.split(",")[7] for line in rows]
    assert hits == [line.split(",")[7] for line in swept]
    assert all(hit == "" or 0 <= int(hit) <= 40 for hit in hits)
    summary = json.loads((tmp_path / "e" / "summary.json").read_text())
    assert summary["cap"] == 40


def parser_error(capsys, argv):
    # argparse rejections exit 2 with exactly one JSON line on stderr
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"} and err["error"] == "ParseError"
    return err["message"]


def test_negative_seed_rejected_by_parser(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CHEAP)
    message = parser_error(capsys, ["simulate", "--config", cfg_path, "--seed", "-1"])
    assert "--seed" in message and "-1" in message


@pytest.mark.parametrize("argv", [
    ["simulate", "--horizon", "ten"],
    ["experiment", "--n-sweep", "12", "--replications", "1.5"],
    ["simulate", "--initial", "nowhere"],
    ["simulate"],
    ["no-such-command"],
    [],
])
def test_parser_rejections_are_one_json_line(tmp_path, capsys, argv):
    if argv[1:]:
        argv = argv[:1] + ["--config", write_config(tmp_path, CHEAP)] + argv[1:]
    parser_error(capsys, argv)


def test_parser_reused_across_calls(tmp_path, capsys):
    # One parser per process: a rejected flag leaves it usable and the
    # same arguments give the same output.
    cfg_path = write_config(tmp_path, CHEAP)
    assert main(["solve-rp", "--config", cfg_path]) == 0
    first = capsys.readouterr().out
    assert "--bogus" in parser_error(
        capsys, ["solve-rp", "--config", cfg_path, "--bogus"])
    assert main(["solve-rp", "--config", cfg_path]) == 0
    assert capsys.readouterr().out == first


def test_python_dash_m_runs_the_cli(tmp_path):
    # python -m aoisched runs from a checkout without the RuntimeWarning
    # that python -m aoisched.cli prints
    src = str(Path(aoisched.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "aoisched", "solve-rp",
         "--config", write_config(tmp_path, CHEAP)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["c_rp"] == solve_rp(cheap_config()).c_rp


def experiment_spec(out, **kw):
    defaults = dict(
        base=cheap_config(), n_sweep=(12, 24),
        policies=("whittle", "greedy_max_age"), replications=2,
        horizon=300, seed=7, out=out,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_experiment_outputs_and_determinism(tmp_path):
    paths_a = run_experiment(experiment_spec(tmp_path / "a"))
    paths_b = run_experiment(experiment_spec(tmp_path / "b"))
    rows_a = (tmp_path / "a" / "rows.csv").read_bytes()
    rows_b = (tmp_path / "b" / "rows.csv").read_bytes()
    assert rows_a == rows_b
    assert (tmp_path / "a" / "plot.csv").read_text().splitlines()[0] == PLOT_HEADER
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert {str(p) for p in paths_a} == {str(p) for p in paths_b}

    lines = rows_a.decode().strip().splitlines()
    assert lines[0] == CSV_HEADER
    # 2 n values x 2 policies x 2 replications
    assert len(lines) == 1 + 8
    for n in (12, 24):
        c_rp = solve_rp(cheap_config(n)).c_rp
        for line in lines[1:]:
            fields = line.split(",")
            if fields[1] == str(n):
                assert float(fields[5]) == pytest.approx(c_rp, abs=1e-15)
    assert summary["points"]


def test_experiment_hitting_column_gated(tmp_path):
    run_experiment(experiment_spec(tmp_path / "h", n_sweep=(12,),
                                   epsilon=0.5, horizon=200))
    lines = (tmp_path / "h" / "rows.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        if fields[2] == "whittle":
            assert fields[7] != ""
            assert int(fields[7]) >= 0
        else:
            assert fields[7] == ""


@pytest.mark.parametrize("kw", [
    dict(policies=()),
    dict(replications=0),
    dict(epsilon=-0.1),
    dict(initial="weird"),
    dict(out=None),
    dict(epsilon=float("nan")),
    dict(cap=-1),
    dict(n_sweep=(12, 12)),
    dict(policies=("whittle", "whittle")),
    dict(out=""),
])
def test_experiment_validation(tmp_path, monkeypatch, kw):
    # Path("") is the working directory: an empty out must not reach it.
    monkeypatch.chdir(tmp_path)
    kw = dict(kw)
    out = kw.pop("out", tmp_path / "x")
    with pytest.raises(RangeError):
        run_experiment(experiment_spec(out, **kw))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [[], ["--out", ""]])
def test_experiment_cli_without_out_is_validation_error(tmp_path, capsys,
                                                        monkeypatch, out):
    cfg_path = write_config(tmp_path, CHEAP)
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", cfg_path, "--n-sweep", "12",
                 "--replications", "1", "--horizon", "10"] + out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "RangeError" and "--out" in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_mean_stderr():
    # sample stderr of {2, 4} is 1
    mean, se = _mean_stderr([2.0, 4.0])
    assert mean == 3.0 and se == pytest.approx(1.0, abs=1e-12)
    assert _mean_stderr([7]) == (7.0, 0.0)
    assert _mean_stderr([None, 2.0, None, 4.0]) == _mean_stderr([2.0, 4.0])
    assert _mean_stderr([None, None]) == (None, None)
    assert _mean_stderr([]) == (None, None)


def test_plot_rows_are_the_summary_points(tmp_path):
    # plot.csv is summary.json's points, sorted by (n, policy), with
    # numbers written by repr and None as an empty field.
    run_experiment(experiment_spec(tmp_path, n_sweep=(24, 12), epsilon=0.5,
                                   horizon=100))
    summary = json.loads((tmp_path / "summary.json").read_text())
    lines = (tmp_path / "plot.csv").read_text().splitlines()
    assert lines[0] == PLOT_HEADER
    keys = PLOT_HEADER.split(",")
    points = sorted(summary["points"], key=lambda p: (p["n"], p["policy"]))
    assert [(p["n"], p["policy"]) for p in points] == [
        (12, "greedy_max_age"), (12, "whittle"),
        (24, "greedy_max_age"), (24, "whittle")]
    assert len(lines) == 1 + len(points)
    for line, point in zip(lines[1:], points):
        want = ["" if point[k] is None else
                repr(point[k]) if isinstance(point[k], float) else str(point[k])
                for k in keys]
        assert line.split(",") == want
    # whittle rows carry a hitting time under epsilon, greedy rows do not
    assert all(p["hitting_time_mean"] is not None
               for p in points if p["policy"] == "whittle")
    assert all(p["hitting_time_mean"] is None
               for p in points if p["policy"] == "greedy_max_age")


def huge(n):
    return {"n": n, "alpha": 0.5, "l": 5, "classes": [{"p": 0.5, "gamma": 1.0}]}


def test_simulate_past_int64_age_sums_is_validation_error(tmp_path, capsys):
    # 3 slots * 2**62 users * ages up to 5 wrapped the int64 age sums
    # to an average age of 0.083, below the least possible age 1
    cfg_path = write_config(tmp_path, huge(2 ** 62))
    assert main(["simulate", "--config", cfg_path, "--horizon", "3",
                 "--initial", "maxed"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "RangeError" and "2**63" in err["message"]


def test_experiment_past_int64_counts_writes_nothing(tmp_path, capsys):
    # n = 1e19 does not fit an int64 count: rejected before --out exists
    cfg_path = write_config(tmp_path, huge(10 ** 19))
    out = tmp_path / "res"
    assert main(["experiment", "--config", cfg_path, "--n-sweep", str(10 ** 19),
                 "--horizon", "3", "--replications", "1",
                 "--out", str(out)]) == 2
    assert stderr_error(capsys)["error"] == "RangeError"
    assert not out.exists()


def test_hitting_time_past_int64_counts_is_validation_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, huge(10 ** 19))
    assert main(["hitting-time", "--config", cfg_path, "--epsilon", "0.1",
                 "--cap", "5"]) == 2
    err = stderr_error(capsys)
    assert err["error"] == "RangeError" and "2**63" in err["message"]
