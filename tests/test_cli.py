import argparse
import json

import numpy as np
import pytest

from mogge import dataio, em, selection
from mogge.cli import (
    EVALUATE_DEFAULTS,
    FIT_DEFAULTS,
    PATH_DEFAULTS,
    SELECT_DEFAULTS,
    SIMULATE_DEFAULTS,
    _build_parser,
    main,
)
from mogge.em import FitOptions
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
from mogge.metrics import match_components
from mogge.model import DataSet, ExpertComponent, GatingComponent, MoggeParams
from mogge.simulate import Scenario, default_scenario, sample_dataset


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def small_data(tmp_path):
    """An 80-observation replicate of the benchmark scenario."""
    out = tmp_path / "sim"
    assert run(
        "simulate", "--default-scenario", "--replicates", "1",
        "--n", "80", "--seed", "7", "--out-dir", str(out),
    ) == 0
    return out / "data_0001.csv"


def assert_same_files(a, b):
    """Both directories hold the same file names with the same bytes."""
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def separated_scenario_json(tmp_path):
    """Two components so far apart that the Bayes rule recovers every label."""
    g1 = GatingComponent(alpha=0.5, mu=np.array([-50.0, 0.0]), R=np.ones(2))
    g2 = GatingComponent(alpha=0.5, mu=np.array([50.0, 0.0]), R=np.ones(2))
    e1 = ExpertComponent(intercept=[0.0], coeffs=[[1.0], [0.0]], cov=[[1.0]])
    e2 = ExpertComponent(intercept=[5.0], coeffs=[[-1.0], [0.0]], cov=[[1.0]])
    params = MoggeParams(gating=(g1, g2), experts=(e1, e2))
    scenario = Scenario(true_params=params, n=60, seed=1)
    path = tmp_path / "separated_scenario.json"
    dataio.write_json(path, dataio.scenario_to_dict(scenario))
    return path, params


class TestSimulate:
    def test_writes_expected_shape(self, tmp_path):
        out = tmp_path / "o"
        assert run(
            "simulate", "--default-scenario", "--replicates", "1",
            "--seed", "7", "--out-dir", str(out),
        ) == 0
        lines = (out / "data_0001.csv").read_text().splitlines()
        assert len(lines) == 301  # header + n=300 rows
        assert all(len(ln.split(",")) == 10 for ln in lines)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["files"] == ["data_0001.csv"]
        assert (out / "scenario.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--default-scenario", "--replicates", "2",
                "--n", "40", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out-dir", str(a)) == 0
        assert run(*args, "--out-dir", str(b)) == 0
        for name in ("data_0001.csv", "data_0002.csv", "manifest.json",
                     "scenario.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_replicates_rejected(self, tmp_path):
        assert run(
            "simulate", "--default-scenario", "--replicates", "0",
            "--out-dir", str(tmp_path),
        ) == 1

    def test_requires_a_scenario(self, tmp_path):
        assert run("simulate", "--out-dir", str(tmp_path)) == 1

    def test_scenario_file_input(self, tmp_path):
        path, _ = separated_scenario_json(tmp_path)
        out = tmp_path / "o"
        assert run(
            "simulate", "--scenario", str(path), "--replicates", "1",
            "--seed", "2", "--out-dir", str(out),
        ) == 0
        data, labels = dataio.read_dataset_csv(out / "data_0001.csv")
        assert data.p == 2 and labels is not None

    def test_fractional_scenario_file_n_rejected(self, tmp_path, capsys):
        # "n": 25.7 was truncated by int(), silently: 25-row datasets
        path, _ = separated_scenario_json(tmp_path)
        scenario = dataio.read_json(path)
        dataio.write_json(path, {**scenario, "n": 25.7})
        out = tmp_path / "o"
        assert run("simulate", "--scenario", str(path), "--replicates", "1",
                   "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: n must be an integer, got 25.7"]
        assert not out.exists()

    def test_jobs_do_not_change_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["simulate", "--default-scenario", "--replicates", "3",
                "--n", "30", "--seed", "5"]
        assert run(*base, "--jobs", "1", "--out-dir", str(a)) == 0
        assert run(*base, "--jobs", "3", "--out-dir", str(b)) == 0
        assert_same_files(a, b)
        assert len(list(a.glob("data_*.csv"))) == 3

        params_path = tmp_path / "est.json"
        scenario = dataio.read_json(a / "scenario.json")
        dataio.write_json(params_path, scenario["true_params"])
        pairs = []
        for i in (1, 2, 3):
            pairs += ["--params", str(params_path),
                      "--data", str(a / f"data_{i:04d}.csv")]
        base = ["evaluate", *pairs, "--true-params", str(a / "scenario.json")]
        ea, eb = tmp_path / "eval_a", tmp_path / "eval_b"
        assert run(*base, "--jobs", "1", "--out-dir", str(ea)) == 0
        assert run(*base, "--jobs", "3", "--out-dir", str(eb)) == 0
        assert_same_files(ea, eb)
        assert {f.name for f in ea.iterdir()} == {"metrics.json", "metrics.csv"}


class TestFit:
    def test_unpenalized_em_lasso_is_dense(self, small_data, tmp_path):
        out = tmp_path / "fit0"
        assert run(
            "fit", "--data", str(small_data), "--k", "2",
            "--lambda", "0", "--gamma", "0",
            "--n-starts", "3", "--seed", "1", "--out-dir", str(out),
        ) == 0
        params = dataio.params_from_dict(
            dataio.read_json(out / "params.json")
        )
        values = np.concatenate(
            [e.beta for e in params.experts] + [g.mu for g in params.gating]
        )
        assert np.all(values != 0.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["engine"] == "em-lasso"
        assert summary["converged"] is True

    def test_penalized_fit_has_exact_zeros(self, small_data, tmp_path):
        out = tmp_path / "fit1"
        assert run(
            "fit", "--data", str(small_data), "--k", "2",
            "--lambda", "12", "--gamma", "12",
            "--n-starts", "3", "--seed", "1", "--out-dir", str(out),
        ) == 0
        raw = json.loads((out / "params.json").read_text())
        flat = [v for e in raw["experts"] for row in e["coeffs"] for v in row]
        flat += [v for g in raw["gating"] for v in g["mu"]]
        assert any(v == 0.0 for v in flat)

    def test_trace_monotone_and_plain_em_engine(self, small_data, tmp_path):
        out = tmp_path / "fit2"
        assert run(
            "fit", "--data", str(small_data), "--k", "2",
            "--n-starts", "3", "--seed", "2", "--out-dir", str(out),
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["engine"] == "em"
        lines = (out / "trace.csv").read_text().splitlines()[1:]
        objective = [float(ln.split(",")[1]) for ln in lines]
        assert np.all(np.diff(objective) >= -1e-8)

    def test_rerun_byte_identical_payloads(self, small_data, tmp_path):
        args = ["fit", "--data", str(small_data), "--k", "2",
                "--lambda", "5", "--gamma", "5", "--n-starts", "2",
                "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out-dir", str(a)) == 0
        assert run(*args, "--out-dir", str(b)) == 0
        for name in ("params.json", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_data_flag(self, tmp_path):
        assert run("fit", "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_penalty_is_an_error_not_failed_starts(self, small_data, tmp_path, capsys,
                                                       value):
        assert run(
            "fit", "--data", str(small_data), "--k", "2", "--lambda", value,
            "--n-starts", "2", "--out-dir", str(tmp_path / "out"),
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: penalty weights must be finite and nonnegative"]
        assert not (tmp_path / "out").exists()


class TestFailureReport:
    @pytest.mark.parametrize("command", [
        ["fit"],
        ["select", "--ks", "2", "--lambdas", "0,5", "--gammas", "0,5"],
    ])
    def test_every_start_diagnosis_printed(self, tmp_path, capsys, command):
        data, labels = sample_dataset(default_scenario(n=300, seed=42))
        path = tmp_path / "huge.csv"
        dataio.write_dataset_csv(
            path, DataSet(X=data.X * 1e160, Y=data.Y * 1e160), labels
        )
        assert run(
            *command, "--data", str(path), "--n-starts", "3",
            "--out-dir", str(tmp_path / "out"),
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ")
        diagnoses = [ln for ln in err[1:] if ln.startswith("  start ")]
        assert len(diagnoses) == 3 == len(err) - 1
        assert all("FloatingPointError" in ln for ln in diagnoses)


class TestSelect:
    def test_small_grid(self, small_data, tmp_path):
        out = tmp_path / "sel"
        assert run(
            "select", "--data", str(small_data), "--ks", "2",
            "--lambdas", "0,8", "--gammas", "0,8",
            "--n-starts", "2", "--seed", "0", "--out-dir", str(out),
        ) == 0
        lines = (out / "selection.csv").read_text().splitlines()
        assert lines[0] == "K,lambda,gamma,loglik,df,bic,converged,selected"
        assert len(lines) == 5
        assert sum(1 for ln in lines[1:] if ln.endswith("true")) == 1
        best = dataio.params_from_dict(dataio.read_json(out / "best_params.json"))
        assert best.K == 2
        summary = json.loads((out / "summary.json").read_text())
        assert {"K", "lambda", "gamma", "loglik", "df", "bic"} <= set(
            summary["selected"]
        )

    def test_unconverged_rows_are_not_failed_rows(self, small_data, tmp_path):
        # with --max-iter 10 the cold row stops before it converges, while
        # the warm rows after it converge; no fit raises
        out = tmp_path / "sel"
        grid = "0,5,10,15,20,25"
        assert run(
            "select", "--data", str(small_data), "--ks", "2", "--lambdas", grid,
            "--gammas", grid, "--n-starts", "2", "--seed", "0", "--max-iter", "10",
            "--out-dir", str(out),
        ) == 0
        converged = [ln.split(",")[6] for ln in
                     (out / "selection.csv").read_text().splitlines()[1:]]
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["n_rows"], summary["n_failed"]) == (36, 0)
        assert summary["n_unconverged"] == converged.count("false") >= 1
        assert "true" in converged


class TestLassoPath:
    def test_endpoints_of_the_path(self, small_data, tmp_path):
        out = tmp_path / "path"
        assert run(
            "lasso-path", "--data", str(small_data), "--k", "2",
            "--penalties", "0,5,200", "--n-starts", "3", "--seed", "1",
            "--out-dir", str(out),
        ) == 0
        rows = dataio.read_path_csv(out / "path.csv")
        penalized = [r for r in rows if r["block"] in ("gate_mean", "expert_coeff")]
        at_top = [r for r in penalized if r["lambda"] == 200.0]
        assert at_top and all(r["estimate"] == 0.0 for r in at_top)
        at_zero = [r for r in penalized if r["lambda"] == 0.0]
        assert at_zero and all(r["estimate"] != 0.0 for r in at_zero)
        points = json.loads((out / "path_params.json").read_text())
        assert [pt["lambda"] for pt in points] == [200.0, 5.0, 0.0]

    def test_gamma_only_path(self, small_data, tmp_path):
        out = tmp_path / "gpath"
        assert run(
            "lasso-path", "--data", str(small_data), "--k", "2",
            "--gammas", "0,100", "--lambda", "0",
            "--n-starts", "2", "--seed", "1", "--out-dir", str(out),
        ) == 0
        rows = dataio.read_path_csv(out / "path.csv")
        gate_top = [
            r for r in rows if r["block"] == "gate_mean" and r["gamma"] == 100.0
        ]
        assert gate_top and all(r["estimate"] == 0.0 for r in gate_top)
        # lambda stays 0: expert coefficients never thresholded
        coeffs = [r for r in rows if r["block"] == "expert_coeff"]
        assert all(r["lambda"] == 0.0 for r in coeffs)

    def test_ratio_grid(self, small_data, tmp_path):
        out = tmp_path / "rpath"
        assert run(
            "lasso-path", "--data", str(small_data), "--k", "2",
            "--ratios", "0,0.5,1", "--max-penalty", "10",
            "--n-starts", "2", "--seed", "1", "--out-dir", str(out),
        ) == 0
        points = json.loads((out / "path_params.json").read_text())
        assert [pt["lambda"] for pt in points] == [10.0, 5.0, 0.0]

    PATH = ("--k", "2", "--penalties", "0,5,10", "--n-starts", "3", "--seed", "1")

    def test_warm_start_wins_an_exact_tie(self, small_data, tmp_path, monkeypatch):
        # every run reports the same objective; a point's warm start, the
        # previous point's run, is start 0 of its batch, its cold starts follow
        real_run_em, real_fit, starts = em._run_em, selection._fit_lasso, []

        def tied(*args):
            return [run._replace(objective=0.0) if isinstance(run, em._Run) else run
                    for run in real_run_em(*args)]

        def recorded(*args, **kwargs):
            start, run = real_fit(*args, **kwargs)
            starts.append((isinstance(args[4][0], em._Run), len(args[4]), start))
            return start, run

        monkeypatch.setattr(em, "_run_em", tied)
        monkeypatch.setattr(selection, "_fit_lasso", recorded)
        out = tmp_path / "tie"
        assert run("lasso-path", "--data", str(small_data), *self.PATH,
                   "--out-dir", str(out)) == 0
        assert starts == [(False, 3, 0), (True, 4, 0), (True, 4, 0)]

    def test_a_failing_warm_start_leaves_the_cold_starts(self, small_data, tmp_path,
                                                        monkeypatch):
        # the warm start of each point after the first cannot be factored in
        # its first E-step; the point is then the best of its cold starts
        real_fit = selection._fit_lasso

        def broken(sample, K, penalty, opts, starts, **kwargs):
            starts = [s._replace(s=s.s._replace(Sigma=-s.s.Sigma))
                      if isinstance(s, em._Run) else s for s in starts]
            return real_fit(sample, K, penalty, opts, starts, **kwargs)

        monkeypatch.setattr(selection, "_fit_lasso", broken)
        out = tmp_path / "broken"
        assert run("lasso-path", "--data", str(small_data), *self.PATH,
                   "--out-dir", str(out)) == 0
        points = json.loads((out / "path_params.json").read_text())
        assert [pt["lambda"] for pt in points] == [10.0, 5.0, 0.0]
        data, _ = dataio.read_dataset_csv(small_data)
        prev = None
        for pt in points:  # relabeled toward the previous point
            cold = fit_em_lasso(data, 2, PenaltyConfig(lam=pt["lambda"], gamma=pt["gamma"]),
                                FitOptions(n_starts=3, seed=1))
            if prev is not None:
                cold = cold.permuted(match_components(prev, cold.params))
            assert pt["objective"] == cold.objective
            assert pt["params"] == dataio.params_to_dict(cold.params)
            prev = cold.params

    def test_requires_exactly_one_grid(self, small_data, tmp_path):
        assert run(
            "lasso-path", "--data", str(small_data),
            "--penalties", "1", "--ratios", "0.5",
            "--out-dir", str(tmp_path),
        ) == 1

    def test_lambda_only_path_at_a_fixed_gamma(self, small_data, tmp_path):
        out = tmp_path / "lpath"
        assert run(
            "lasso-path", "--data", str(small_data), "--k", "2",
            "--lambdas", "0,100", "--gamma", "3",
            "--n-starts", "2", "--seed", "1", "--out-dir", str(out),
        ) == 0
        points = json.loads((out / "path_params.json").read_text())
        assert [(pt["lambda"], pt["gamma"]) for pt in points] == [(100.0, 3.0), (0.0, 3.0)]
        rows = dataio.read_path_csv(out / "path.csv")
        coeff_top = [r for r in rows if r["block"] == "expert_coeff" and r["lambda"] == 100.0]
        assert coeff_top and all(r["estimate"] == 0.0 for r in coeff_top)
        assert {r["gamma"] for r in rows} == {3.0}

    @pytest.mark.parametrize("grid, message", [
        (("--ratios", "0,0.5"), "--ratios requires --max-penalty"),
        (("--penalties", "5,0,5"), "penalty grid contains duplicates"),
        (("--lambdas", "2,2", "--gamma", "1"), "penalty grid contains duplicates"),
    ], ids=["ratios-without-max", "duplicate-penalties", "duplicate-lambdas"])
    def test_grid_errors(self, small_data, tmp_path, capsys, grid, message):
        assert run("lasso-path", "--data", str(small_data), *grid,
                   "--out-dir", str(tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestEvaluate:
    def test_true_params_on_separated_data_score_perfectly(self, tmp_path):
        scenario_path, params = separated_scenario_json(tmp_path)
        sim = tmp_path / "sim"
        assert run(
            "simulate", "--scenario", str(scenario_path), "--replicates", "2",
            "--seed", "3", "--out-dir", str(sim),
        ) == 0
        params_path = tmp_path / "est.json"
        dataio.write_json(params_path, dataio.params_to_dict(params))
        out = tmp_path / "eval"
        assert run(
            "evaluate",
            "--params", str(params_path), "--data", str(sim / "data_0001.csv"),
            "--params", str(params_path), "--data", str(sim / "data_0002.csv"),
            "--true-params", str(scenario_path),
            "--out-dir", str(out),
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        agg = metrics["aggregate"]
        assert agg["classification_rate"]["mean"] == 1.0
        assert agg["ari"]["mean"] == 1.0
        assert agg["classification_rate"]["n"] == 2
        assert agg["sparsity"]["s2_expert_1"]["mean"] == 1.0
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    def test_missing_labels_warns_and_skips(self, tmp_path):
        scenario_path, params = separated_scenario_json(tmp_path)
        from mogge.simulate import sample_dataset
        from mogge.dataio import scenario_from_dict

        scenario = scenario_from_dict(dataio.read_json(scenario_path))
        data, _ = sample_dataset(scenario)
        data_path = tmp_path / "nolabel.csv"
        dataio.write_dataset_csv(data_path, data)
        params_path = tmp_path / "est.json"
        dataio.write_json(params_path, dataio.params_to_dict(params))
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--params", str(params_path), "--data", str(data_path),
            "--out-dir", str(out),
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["warnings"]
        assert metrics["replicates"][0]["classification_rate"] is None

    def test_mismatched_pairs_rejected(self, tmp_path):
        assert run(
            "evaluate", "--params", "a.json", "--out-dir", str(tmp_path),
        ) == 1


class TestConfigPrecedence:
    def test_file_then_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replicates": 2, "n": 25, "default_scenario": True}))
        out1 = tmp_path / "o1"
        assert run(
            "simulate", "--config", str(cfg), "--seed", "1", "--out-dir", str(out1),
        ) == 0
        assert len(list(out1.glob("data_*.csv"))) == 2
        out2 = tmp_path / "o2"
        assert run(
            "simulate", "--config", str(cfg), "--replicates", "3",
            "--seed", "1", "--out-dir", str(out2),
        ) == 0
        assert len(list(out2.glob("data_*.csv"))) == 3

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(
            "simulate", "--config", str(cfg), "--default-scenario",
            "--out-dir", str(tmp_path),
        ) == 1

    @pytest.mark.parametrize("command, key", [
        ("fit", "jobs"), ("select", "jobs"), ("lasso-path", "jobs"),
        ("evaluate", "seed"), ("fit", "ca_max_iter"), ("select", "ca_tol"),
        ("lasso-path", "ca_max_iter"),
    ])
    def test_removed_config_key_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert run(command, "--config", str(cfg), "--out-dir", str(tmp_path)) == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, field", [
        ("select", {"ks": [2, 2.5]}, "Ks"), ("select", {"n_starts": 2.5}, "n_starts"),
        ("fit", {"max_iter": 2.5}, "max_iter"), ("fit", {"seed": 2.5}, "seed"),
        ("fit", {"k": 2.5}, "k"), ("lasso-path", {"k": 2.5}, "k"),
    ])
    def test_non_integer_config_value_rejected(self, small_data, tmp_path, capsys, command,
                                               config, field):
        # each was truncated by int(), silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        grid = ["--penalties", "5,0"] if command == "lasso-path" else []
        assert run(command, "--config", str(cfg), "--data", str(small_data), *grid,
                   "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field} must be an integer, got 2.5"]

    @pytest.mark.parametrize("command, key", [
        ("simulate", "replicates"), ("simulate", "seed"), ("simulate", "n"),
        ("simulate", "jobs"), ("evaluate", "jobs"),
    ])
    def test_non_integer_simulate_and_evaluate_values_rejected(self, tmp_path, capsys,
                                                              command, key):
        # each was truncated by int(), silently: "replicates": 2.5 wrote two
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 2.5}))
        args = (["--default-scenario"] if command == "simulate"
                else ["--params", "est.json", "--data", "data.csv"])
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), *args, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key} must be an integer, got 2.5"]
        assert not out.exists()

    def test_no_command_prints_help(self):
        assert run() == 2


class TestParserSurface:
    """Each command accepts exactly the options its defaults name."""

    DEFAULTS = {
        "simulate": SIMULATE_DEFAULTS, "fit": FIT_DEFAULTS,
        "select": SELECT_DEFAULTS, "lasso-path": PATH_DEFAULTS,
        "evaluate": EVALUATE_DEFAULTS,
    }

    def test_options_match_the_defaults(self):
        sub = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == set(self.DEFAULTS)
        for command, parser in sub.choices.items():
            dests = {a.dest for a in parser._actions} - {"help", "config"}
            assert dests == set(self.DEFAULTS[command]), command

    @pytest.mark.parametrize("argv", [
        ["fit", "--jobs", "2"], ["select", "--jobs", "2"],
        ["lasso-path", "--jobs", "2"], ["evaluate", "--seed", "2"],
        ["fit", "--ca-max-iter", "5"], ["select", "--ca-tol", "1e-3"],
        ["lasso-path", "--ca-max-iter", "5"],
    ])
    def test_unread_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
