"""Command-line interface tests: config resolution, error reporting, and
artifact reproducibility."""

import json

import numpy as np
import pytest

from emlab import ConfigError
from emlab.cli import config_hash, main, resolve_config


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestResolveConfig:
    def test_kernels_defaults(self):
        resolved, model, spec, init, stop = resolve_config({}, "kernels")
        assert resolved["model"] == {"d": 2, "theta_star": [1.0, 0.0], "sigma": None}
        assert resolved["seed"] == 0
        assert resolved["quadrature"] == {"nodes_per_lobe": 512, "abs_tol": 1e-10}
        for axis in resolved["grid"].values():
            assert axis == {"lo": 0.0, "hi": 3.0, "count": 20}
        assert init is None and stop is None
        assert spec.nodes_per_lobe == 512

    def test_model_from_mean_pair(self):
        resolved, model, *_ = resolve_config(
            {"model": {"mu1": [-1.0, -0.5], "mu2": [1.0, 0.5]}}, "kernels"
        )
        assert resolved["model"]["theta_star"] == [1.0, 0.5]
        assert model.dim == 2

    def test_sigma_is_consumed_by_whitening(self):
        resolved, model, *_ = resolve_config(
            {"model": {"theta_star": [2.0, 0.0], "sigma": [[4.0, 0.0], [0.0, 4.0]]}},
            "kernels",
        )
        np.testing.assert_allclose(resolved["model"]["theta_star"], [1.0, 0.0], atol=1e-12)
        assert resolved["model"]["sigma"] is None

    def test_seed_override(self):
        base, *_ = resolve_config({}, "kernels")
        bumped, *_ = resolve_config({}, "kernels", seed_override=7)
        assert bumped["seed"] == 7
        assert config_hash(base) != config_hash(bumped)

    def test_hash_is_deterministic(self):
        one, *_ = resolve_config({"seed": 3}, "kernels")
        two, *_ = resolve_config({"seed": 3}, "kernels")
        assert config_hash(one) == config_hash(two)

    def test_free_init_defaults_to_half_separation(self):
        resolved, model, spec, init, stop = resolve_config(
            {"model": {"theta_star": [0.8, 0.6]}}, "run-population"
        )
        np.testing.assert_allclose(init.a, [0.0, 0.0])
        np.testing.assert_allclose(init.b, [0.4, 0.3])
        assert resolved["family"] == "free"
        assert stop.max_iters == 10_000


class TestConfigErrors:
    def field(self, payload, command="kernels"):
        with pytest.raises(ConfigError) as err:
            resolve_config(payload, command)
        return err.value.field

    def test_unknown_top_level_key(self):
        assert self.field({"bogus": 1}) == "bogus"

    def test_unknown_section_key(self):
        assert self.field({"model": {"theta": [1.0]}}) == "model.theta"

    def test_wrong_command(self):
        assert self.field({"command": "kernels"}, command="landscape") == "command"

    def test_theta_and_means_conflict(self):
        payload = {"model": {"theta_star": [1.0], "mu1": [-1.0], "mu2": [1.0]}}
        assert self.field(payload) == "model.theta_star"

    def test_half_specified_means(self):
        assert self.field({"model": {"mu1": [-1.0]}}) == "model.mu1"

    def test_uncentered_means(self):
        assert self.field({"model": {"mu1": [-1.0], "mu2": [1.1]}}) == "model.mu1"

    def test_theta_length_mismatch(self):
        assert self.field({"model": {"d": 3, "theta_star": [1.0]}}) == "model.theta_star"

    def test_bool_is_not_an_int(self):
        payload = {"stop": {"max_iters": True}}
        assert self.field(payload, command="run-population") == "stop.max_iters"

    def test_negative_step_tol(self):
        """0.0 runs the whole budget; a negative or NaN tolerance is an error."""
        for tol in (-1e-12, float("nan")):
            payload = {"stop": {"step_tol": tol}}
            assert self.field(payload, command="run-population") == "stop.step_tol"

    @pytest.mark.parametrize(
        "section, value", [("model", {"d": 3}), ("quadrature", {"abs_tol": 1e-9}), ("seed", 3)]
    )
    def test_verify_rejects_sections_it_would_ignore(self, section, value):
        """Each criterion pins its own model, rule and seeds."""
        assert self.field({"criteria": [11], section: value}, command="verify") == section

    def test_verify_rejects_seed_flag(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"criteria": [11]}, "verify", seed_override=3)
        assert err.value.field == "seed"

    def test_verify_config_hash_unchanged(self):
        resolved, *_ = resolve_config({"command": "verify", "criteria": [11]}, "verify")
        assert config_hash(resolved) == (
            "e87853a8cec790a571d1d2fe84aae4abb883b7b5e13287b385208e7ecf79000b"
        )

    def test_reversed_axis(self):
        payload = {"grid": {"x_a": {"lo": 2.0, "hi": 1.0}}}
        assert self.field(payload) == "grid.x_a.hi"

    def test_bad_criterion_number(self):
        assert self.field({"criteria": [1, 14]}, command="verify") == "criteria[1]"

    def test_decreasing_ladder(self):
        payload = {"n_ladder": [1000, 100]}
        assert self.field(payload, command="consistency") == "n_ladder"


class TestMainKernels:
    config = {
        "command": "kernels",
        "grid": {
            "x_a": {"lo": 0.0, "hi": 1.0, "count": 2},
            "x_b": {"lo": 0.5, "hi": 0.5, "count": 1},
            "x_theta": {"lo": 0.0, "hi": 2.0, "count": 2},
        },
    }

    def test_writes_stamped_csv(self, tmp_path):
        cfg = _write_config(tmp_path, self.config)
        out = tmp_path / "out"
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "kernels.csv").read_text().splitlines()
        assert lines[0].startswith("# artifact_version: ")
        assert lines[1].startswith("# config_hash: ")
        assert lines[2].startswith("# quadrature: nodes_per_lobe=512")
        assert lines[3].startswith("# config: {")
        assert lines[4] == "x_a,x_b,x_theta,P,Gamma,S,F,K"
        assert len(lines) == 4 + 1 + 4  # preamble, header, 2*1*2 grid rows

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, self.config)
        main(["kernels", "--config", cfg, "--out", str(tmp_path / "one")])
        main(["kernels", "--config", cfg, "--out", str(tmp_path / "two")])
        first = (tmp_path / "one" / "kernels.csv").read_bytes()
        second = (tmp_path / "two" / "kernels.csv").read_bytes()
        assert first == second

    def test_seed_flag_does_not_carry_over_to_the_next_call(self, tmp_path):
        """The parser is built once per process; a --seed given to one call
        must not reach the next call's config."""
        cfg = _write_config(tmp_path, self.config)
        argv = ["kernels", "--config", cfg, "--out"]
        assert main(argv + [str(tmp_path / "one"), "--seed", "5"]) == 0
        assert main(argv + [str(tmp_path / "two")]) == 0
        seeds = []
        for name in ("one", "two"):
            config_line = (tmp_path / name / "kernels.csv").read_text().splitlines()[3]
            seeds.append(json.loads(config_line.removeprefix("# config: "))["seed"])
        assert seeds == [5, 0]


class TestMainRunners:
    def test_symmetric_population_run(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "command": "run-population",
                "family": "symmetric",
                "model": {"d": 1, "theta_star": [1.0]},
                "init": {"theta": [0.4]},
            },
        )
        out = tmp_path / "out"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert abs(summary["final"][0] - 1.0) < 1e-6
        header = (out / "trajectory.csv").read_text().splitlines()[4]
        assert header == "t,theta_0,dist"

    def test_symmetric_run_out_of_budget(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "family": "symmetric",
            "model": {"d": 1, "theta_star": [1.0]},
            "init": {"theta": [0.4]},
            "stop": {"max_iters": 3, "step_tol": 1e-10},
        })
        out = tmp_path / "out"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["steps"] == 3

    def test_symmetric_run_with_zero_step_tol_takes_the_whole_budget(self, tmp_path):
        """On the orthogonal slice the norm decays like (2t)^-1/2, so a step_tol
        of 0 must run all 50 steps: 51 rows, not converged."""
        cfg = _write_config(tmp_path, {
            "family": "symmetric",
            "model": {"d": 2, "theta_star": [1.0, 0.0]},
            "init": {"theta": [0.0, 0.5]},
            "stop": {"max_iters": 50, "step_tol": 0},
        })
        out = tmp_path / "out"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()[5:]) == 51
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["steps"] == 50

    def test_free_population_run(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "command": "run-population",
                "model": {"d": 2, "theta_star": [1.0, 0.3]},
                "init": {"a": [0.1, 0.0], "b": [0.4, 0.1]},
                "stop": {"max_iters": 2000, "step_tol": 1e-10},
            },
        )
        out = tmp_path / "out"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_dist_b"] < 1e-6
        assert summary["config"]["model"]["theta_star"] == [1.0, 0.3]

    def test_sample_run_with_data_dump(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "command": "run-sample",
                "model": {"d": 2, "theta_star": [1.0, 0.0]},
                "n": 50,
                "seed": 4,
                "write_data": True,
                "stop": {"max_iters": 20, "step_tol": 1e-8},
            },
        )
        out = tmp_path / "out"
        assert main(["run-sample", "--config", cfg, "--out", str(out)]) == 0
        data = np.loadtxt(out / "data.csv", delimiter=",", skiprows=5)
        assert data.shape == (50, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 50
        assert summary["form"] == "ab"

    def test_landscape_row_count(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "command": "landscape",
                "model": {"d": 1, "theta_star": [1.0]},
                "slice": {"a_steps": 3, "b_steps": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "landscape.csv").read_text().splitlines()[5:]
        assert len(rows) == 15

    def test_consistency_artifact(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "command": "consistency",
                "model": {"d": 2, "theta_star": [1.0, 0.0]},
                "n_ladder": [100, 200],
                "T": 3,
                "trials": 2,
            },
        )
        out = tmp_path / "out"
        assert main(["consistency", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "consistency.json").read_text())
        assert doc["n_ladder"] == [100, 200]
        assert len(doc["sup_discrepancy"]) == 2
        assert doc["trials"] == 2

    def test_short_ladder_writes_strict_json(self, tmp_path):
        """A ladder of fewer than 4 rungs has no rate fit; its slope is
        written as null, so the file parses with NaN rejected."""
        cfg = _write_config(
            tmp_path,
            {
                "command": "consistency",
                "model": {"d": 2, "theta_star": [1.0, 0.0]},
                "n_ladder": [100, 1000],
                "T": 3,
                "trials": 2,
            },
        )
        out = tmp_path / "out"
        assert main(["consistency", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "consistency.json").read_text(), parse_constant=_reject_constant)
        assert doc["slope"] is None

    def test_verify_single_criterion(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--config", _write_config(tmp_path, {
            "command": "verify", "criteria": [11],
        }), "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["all_passed"] is True
        (entry,) = doc["criteria"]
        assert entry["number"] == 11
        assert entry["passed"] is True
        assert "seconds" not in entry  # timings stay out of the artifact
        table = capsys.readouterr().out
        assert "PASS" in table


class TestMainErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["kernels", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["kernels", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"grid": {"x_a": {"count": 0}}})
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "grid.x_a.count" in capsys.readouterr().err

    def test_too_few_quadrature_nodes_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"quadrature": {"nodes_per_lobe": 12}})
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: quadrature.nodes_per_lobe" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        """A start far out at b = 3 theta* makes the quadrature fail its
        self-check; the CLI reports it on one line instead of a traceback."""
        cfg = _write_config(tmp_path, {
            "model": {"theta_star": [2.0, 0.0]},
            "init": {"a": [0.0, 0.0], "b": [6.0, 0.0]},
        })
        out = tmp_path / "o"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: NonConvergence: ")
        assert err.count("\n") == 1
        assert not any(out.iterdir())

    def test_collapsed_weights_exit_3(self, tmp_path, capsys):
        """A midpoint 20 units out puts p at ~1e-38; the step reports
        DegenerateWeights on one line instead of a traceback."""
        cfg = _write_config(tmp_path, {
            "model": {"theta_star": [1.0, 0.0]},
            "init": {"a": [20.0, 0.0], "b": [2.0, 0.0]},
        })
        out = tmp_path / "o"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: DegenerateWeights: ")
        assert err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("form", ["ab", "mu"])
    def test_collapsed_sample_weights_exit_3(self, tmp_path, capsys, form):
        """A midpoint 12 units out puts p_hat at ~6e-18 while both weight
        sums stay far above 1e-300; both forms report DegenerateWeights."""
        cfg = _write_config(tmp_path, {
            "command": "run-sample",
            "model": {"d": 2, "theta_star": [1.0, 0.0]},
            "init": {"a": [12.0, 0.0], "b": [2.0, 0.0]},
            "n": 20,
            "seed": 0,
            "form": form,
        })
        out = tmp_path / "o"
        assert main(["run-sample", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: DegenerateWeights: ")
        assert err.count("\n") == 1
        assert not any(out.iterdir())

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("emlab ")
