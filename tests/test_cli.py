"""Command-line interface tests: config resolution, error reporting, and
artifact reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emlab
from emlab import ConfigError
from emlab.cli import _KEYS, config_hash, main, resolve_config
from emlab.sampling import _BLAS_PINNED


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestResolveConfig:
    def test_kernels_defaults(self):
        """kernels resolves only the sections it reads: no model, no seed."""
        resolved, model, spec, init, stop = resolve_config({}, "kernels")
        assert set(resolved) == {"command", "quadrature", "grid"}
        assert resolved["quadrature"] == {"nodes_per_lobe": 512, "abs_tol": 1e-10}
        for axis in resolved["grid"].values():
            assert axis == {"lo": 0.0, "hi": 3.0, "count": 20}
        assert model is None and init is None and stop is None
        assert spec.nodes_per_lobe == 512

    def test_model_and_seed_defaults(self):
        resolved, model, *_ = resolve_config({}, "coupled")
        assert resolved["model"] == {"d": 2, "theta_star": [1.0, 0.0]}
        assert resolved["seed"] == 0
        assert model.dim == 2

    def test_sigma_is_consumed_by_whitening(self):
        resolved, model, *_ = resolve_config(
            {"model": {"theta_star": [2.0, 0.0], "sigma": [[4.0, 0.0], [0.0, 4.0]]}},
            "landscape",
        )
        np.testing.assert_allclose(resolved["model"]["theta_star"], [1.0, 0.0], atol=1e-12)
        assert set(resolved["model"]) == {"d", "theta_star"}

    def test_seed_override(self):
        base, *_ = resolve_config({}, "run-sample")
        bumped, *_ = resolve_config({}, "run-sample", seed_override=7)
        assert bumped["seed"] == 7
        assert config_hash(base) != config_hash(bumped)

    def test_hash_is_deterministic(self):
        one, *_ = resolve_config({"seed": 3}, "run-sample")
        two, *_ = resolve_config({"seed": 3}, "run-sample")
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
    def field(self, payload, command="landscape"):
        with pytest.raises(ConfigError) as err:
            resolve_config(payload, command)
        return err.value.field

    def test_unknown_top_level_key(self):
        assert self.field({"bogus": 1}) == "bogus"

    def test_unknown_section_key(self):
        assert self.field({"model": {"theta": [1.0]}}) == "model.theta"

    def test_wrong_command(self):
        assert self.field({"command": "kernels"}, command="landscape") == "command"

    @pytest.mark.parametrize("model", [
        {"mu1": [-1.0]},
        {"mu1": [-1.0], "mu2": [1.1]},
        {"mu1": [-1.0, -0.5], "mu2": [1.0, 0.5]},
        {"theta_star": [1.0, 0.5], "mu1": [-1.0, -0.5]},
    ])
    def test_mean_pair_is_an_unknown_field(self, model):
        """The model is theta* alone; a mean pair is no second spelling of it."""
        with pytest.raises(ConfigError, match="^model.mu1: unknown field$"):
            resolve_config({"model": model}, "landscape")

    def test_theta_length_mismatch(self):
        assert self.field({"model": {"d": 3, "theta_star": [1.0]}}) == "model.theta_star"

    @pytest.mark.parametrize("model", [
        {"theta_star": [1e200, 1e200]},
        # finite before whitening, overflowing after
        {"theta_star": [1e200, 0.0], "sigma": [[1e-300, 0.0], [0.0, 1.0]]},
    ])
    def test_theta_whose_norm_overflows(self, model):
        assert self.field({"model": model}) == "model.theta_star"

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
            "a876717e78dec822fd15052a894a2533d9c23197b49c752315eceaa5e8caf77f"
        )

    def test_reversed_axis(self):
        payload = {"grid": {"x_a": {"lo": 2.0, "hi": 1.0}}}
        assert self.field(payload, command="kernels") == "grid.x_a.hi"

    def test_bad_criterion_number(self):
        assert self.field({"criteria": [1, 14]}, command="verify") == "criteria[1]"

    def test_decreasing_ladder(self):
        payload = {"n_ladder": [1000, 100]}
        assert self.field(payload, command="consistency") == "n_ladder"

    @pytest.mark.parametrize("command, payload, path", [
        ("landscape", {"model": {"sigma": [[1.0, 0.0], [1.0]]}}, "model.sigma[1]"),
        ("landscape", {"model": {"sigma": [[1.0, "x"], [0.0, 1.0]]}}, "model.sigma[0][1]"),
        ("consistency", {"n_ladder": [None, 100]}, "n_ladder[0]"),
    ])
    def test_list_items_name_their_index(self, command, payload, path):
        assert self.field(payload, command=command) == path

    @pytest.mark.parametrize("command, payload, path", [
        ("run-population", {"model": {"d": "2"}}, "model.d"),
        ("run-population", {"model": {"theta_star": 1.0}}, "model.theta_star"),
        ("run-population", {"model": {"sigma": {}}}, "model.sigma"),
        ("run-population", {"quadrature": {"nodes_per_lobe": 512.0}}, "quadrature.nodes_per_lobe"),
        ("run-population", {"quadrature": {"abs_tol": "1e-10"}}, "quadrature.abs_tol"),
        ("run-population", {"family": 1}, "family"),
        ("run-population", {"init": {"a": [0.0, None]}}, "init.a[1]"),
        ("run-population", {"init": {"b": {}}}, "init.b"),
        ("run-population", {"family": "symmetric", "init": {"theta": True}}, "init.theta"),
        ("run-population", {"stop": {"max_iters": 1.5}}, "stop.max_iters"),
        ("run-population", {"stop": {"step_tol": [0.0]}}, "stop.step_tol"),
        ("run-sample", {"seed": "0"}, "seed"),
        ("run-sample", {"n": 100.0}, "n"),
        ("run-sample", {"form": None}, "form"),
        ("run-sample", {"write_data": 1}, "write_data"),
        ("coupled", {"T": "50"}, "T"),
        ("consistency", {"trials": None}, "trials"),
        ("consistency", {"n_ladder": 1000}, "n_ladder"),
        ("landscape", {"slice": {"a_lo": "0"}}, "slice.a_lo"),
        ("landscape", {"slice": {"a_hi": None}}, "slice.a_hi"),
        ("landscape", {"slice": {"a_steps": 2.0}}, "slice.a_steps"),
        ("landscape", {"slice": {"b_lo": False}}, "slice.b_lo"),
        ("landscape", {"slice": {"b_hi": []}}, "slice.b_hi"),
        ("landscape", {"slice": {"b_steps": "21"}}, "slice.b_steps"),
        ("kernels", {"grid": {"x_a": {"lo": "0"}}}, "grid.x_a.lo"),
        ("kernels", {"grid": {"x_b": {"hi": None}}}, "grid.x_b.hi"),
        ("kernels", {"grid": {"x_theta": {"count": 2.0}}}, "grid.x_theta.count"),
        ("kernels", {"grid": {"x_theta": []}}, "grid.x_theta"),
        ("verify", {"criteria": [1.0]}, "criteria[0]"),
        ("verify", {"command": 7}, "command"),
    ])
    def test_wrong_type_names_its_field(self, command, payload, path):
        assert self.field(payload, command=command) == path


# which of seed, model and quadrature each command reads; the rest are errors
_READS = {
    "run-population": ("model", "quadrature"),
    "run-sample": ("model", "seed"),
    "coupled": ("model", "quadrature", "seed"),
    "landscape": ("model", "quadrature"),
    "kernels": ("quadrature",),
    "consistency": ("model", "quadrature", "seed"),
    "verify": (),
}
_START = {"a": [0.1, 0.0], "b": [0.4, 0.1]}
_ONE = {"lo": 1.0, "hi": 1.0, "count": 1}
# a small config per command, and a valid non-default value per key; the
# abs_tol of 1e-300 fails the self-check wherever x_b > 0
_SMALL = {
    "run-population": {"init": _START, "stop": {"max_iters": 3}},
    "run-sample": {"init": _START, "n": 200, "stop": {"max_iters": 3}},
    "coupled": {"init": _START, "n": 200, "T": 2},
    "landscape": {"slice": {"a_lo": 0.2, "a_hi": 0.2, "a_steps": 1,
                            "b_lo": 0.8, "b_hi": 0.8, "b_steps": 1}},
    "kernels": {"grid": {"x_a": dict(_ONE, lo=0.5, hi=0.5), "x_b": _ONE, "x_theta": _ONE}},
    "consistency": {"init": _START, "n_ladder": [100, 200], "T": 2, "trials": 1},
    "verify": {"criteria": [11]},
}
_CHANGED = {"seed": 1, "model": {"theta_star": [1.5, 0.0]}, "quadrature": {"abs_tol": 1e-300}}
# the config hash of each command on {} and on its _SMALL config; a change to
# any resolved dict (a default, a float's form, a key) changes one of these
_HASHES = {
    "run-population": ("835c5df708ccc338a0f976864832e55bd6f8473aff32ff49c14a4ca54e777dff",
                       "9e1f793a7b33c64a44fbe7a68c420f1403b5c58dd86712fe4e6afeeab345a596"),
    "run-sample": ("5a7cbaba89ee0e34cb2e617b56fb9e82054471539d49998da7fe1a25425429c2",
                   "129e1307503e77ba36ad62a338576f73c7ecc3dd9ae233d1c4639fd62c895e89"),
    "coupled": ("657ba4ddc6d35e4c88844df963b584059c3d60dfe2e35222c5b1c2a23bc37980",
                "74a5323ff82858e51cd26040153f7fc8586b8a70da46b8fdc06b039106f2ff17"),
    "landscape": ("b93a1470f5611748c852ae9a6e77894addb391429d9e1b8776d43ce2c5067d4b",
                  "fb3ea3f418159188bb88bb178b7f4271a70b6a8bab25218154464b01c32e8032"),
    "kernels": ("5f9d242731dbdb52efd6553e5fee37911e12addaf80445ffe8a973cfa26e546a",
                "6cf8a02edc1b5795103838db21e9d1f62ada40ff3da15c9f572b739072e0c22e"),
    "consistency": ("e738efe481e6c23c163c4a26bddd222c22cb94deefe46c96172bbf0f57656c72",
                    "7b77b037911a6d6410cea93a04f3ce6768b2471793ec9078a264f9939f72d0e8"),
    "verify": ("6c866672dee990de6d7465f59e0b4f2d191ca7998dd95ade6b403c06a6340043",
               "a876717e78dec822fd15052a894a2533d9c23197b49c752315eceaa5e8caf77f"),
}


def _data(out):
    """What a run wrote, without its provenance: the non-# lines of each CSV
    and every JSON field but config and config_hash."""
    data = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            del doc["config"], doc["config_hash"]
            data[path.name] = doc
        else:
            data[path.name] = [ln for ln in path.read_text().splitlines() if ln[:1] != "#"]
    return data


class TestSchema:
    """Each command takes exactly the seed, model and quadrature it reads,
    and each one it takes changes what it writes."""

    @pytest.mark.parametrize("command", list(_HASHES))
    def test_config_hashes_unchanged(self, command):
        hashes = tuple(config_hash(resolve_config(config, command)[0])
                       for config in ({}, _SMALL[command]))
        assert hashes == _HASHES[command]

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, reads in _READS.items()
        for key in ("seed", "model", "quadrature") if key not in reads
    ])
    def test_unread_key_is_a_config_error(self, command, key):
        with pytest.raises(ConfigError) as err:
            resolve_config(dict(_SMALL[command], **{key: _CHANGED[key]}), command)
        assert err.value.field == key

    @pytest.mark.parametrize("command", [c for c, reads in _READS.items() if "seed" not in reads])
    def test_seed_flag_exits_2(self, tmp_path, command, capsys):
        """A command that reads no seed has no --seed flag to pass."""
        cfg = _write_config(tmp_path, _SMALL[command])
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_READS))
    def test_help_offers_seed_where_a_seed_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--seed N" in capsys.readouterr().out) == ("seed" in _KEYS[command])

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, reads in _READS.items() for key in reads
    ])
    def test_read_key_has_an_effect(self, tmp_path, command, key):
        runs = []
        for name, config in (("base", _SMALL[command]),
                             ("changed", dict(_SMALL[command], **{key: _CHANGED[key]}))):
            out = tmp_path / name
            status = main([command, "--config", _write_config(tmp_path, config, f"{name}.json"),
                           "--out", str(out)])
            runs.append((status, _data(out)))
        assert runs[0][0] == 0
        assert runs[0] != runs[1]

    @pytest.mark.parametrize("command", list(_SMALL))
    def test_csv_artifacts_have_no_empty_cell(self, tmp_path, command):
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, _SMALL[command]),
                     "--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            rows = [ln.split(",") for ln in path.read_text().splitlines() if ln[:1] != "#"]
            assert len(rows) > 1
            assert all(cell for row in rows for cell in row), path.name

    @pytest.mark.parametrize("command, config", [
        *_SMALL.items(), ("run-sample", dict(_SMALL["run-sample"], write_data=True)),
    ])
    def test_every_csv_is_stamped(self, tmp_path, command, config):
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        stamps = {json.loads(path.read_text())["config_hash"] for path in out.glob("*.json")}
        for path in out.glob("*.csv"):
            lines = path.read_text().splitlines()
            assert lines[0] == f"# artifact_version: {emlab.__version__}", path.name
            assert lines[1].startswith("# config_hash: "), path.name
            assert lines[2].startswith("# config: {"), path.name
            stamps.add(lines[1].removeprefix("# config_hash: "))
        assert stamps == {config_hash(resolve_config(config, command)[0])}


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
        assert lines[2].startswith("# config: {")
        config = json.loads(lines[2].removeprefix("# config: "))
        assert config["quadrature"] == {"abs_tol": 1e-10, "nodes_per_lobe": 512}
        assert lines[3] == "x_a,x_b,x_theta,P,Gamma,S,F,K"
        assert len(lines) == 3 + 1 + 4  # preamble, header, 2*1*2 grid rows

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, self.config)
        main(["kernels", "--config", cfg, "--out", str(tmp_path / "one")])
        main(["kernels", "--config", cfg, "--out", str(tmp_path / "two")])
        first = (tmp_path / "one" / "kernels.csv").read_bytes()
        second = (tmp_path / "two" / "kernels.csv").read_bytes()
        assert first == second

    def test_seed_flag_does_not_carry_over_to_the_next_call(self, tmp_path):
        """The parser is built once per process; a --seed given to one call
        must not reach the next call's config.  kernels takes no seed, so it
        would exit 2 if the flag carried over."""
        cfg = _write_config(tmp_path, {"n": 50, "stop": {"max_iters": 3}})
        argv = ["run-sample", "--config", cfg, "--out"]
        assert main(argv + [str(tmp_path / "one"), "--seed", "5"]) == 0
        kernels_cfg = _write_config(tmp_path, self.config, "kernels.json")
        assert main(["kernels", "--config", kernels_cfg, "--out", str(tmp_path / "k")]) == 0
        assert main(argv + [str(tmp_path / "two")]) == 0
        seeds = []
        for name in ("one", "two"):
            config_line = (tmp_path / name / "trajectory.csv").read_text().splitlines()[2]
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
        header = (out / "trajectory.csv").read_text().splitlines()[3]
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

    def test_symmetric_summary_takes_converged_from_the_run(self, tmp_path):
        """The run stops on the distance between plane states, below step_tol
        at step 7.  The lifted d-vectors of that step lie exactly step_tol
        apart, so a verdict re-derived from them would read false; the
        summary reports the run's own."""
        cfg = _write_config(tmp_path, {
            "family": "symmetric",
            "model": {"d": 3, "theta_star": [
                -0.8019314252534474, -1.324358995628145, -0.24836162209524854]},
            "init": {"theta": [
                -0.2748321412070672, -0.32136553806717966, -0.09126889125108181]},
            "stop": {"max_iters": 100, "step_tol": 9.766995391865964e-06},
        })
        out = tmp_path / "out"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["steps"] == 7

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
        assert len((out / "trajectory.csv").read_text().splitlines()[4:]) == 51
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

    def test_free_run_cell_format(self, tmp_path):
        """From b = 0 (absorbing, no angle) a free run has 2 rows: the angle
        cells read nan, and the summary's last record index is a JSON int."""
        cfg = _write_config(tmp_path, {
            "model": {"d": 2, "theta_star": [1.0, 0.3]},
            "init": {"a": [0.4, 0.1], "b": [0.0, 0.0]},
        })
        out = tmp_path / "out"
        assert main(["run-population", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()[3:]
        assert lines[0] == "t,a_0,a_1,b_0,b_1,p,beta,sin_beta,norm_a,dist_b"
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        assert all(row["beta"] == row["sin_beta"] == "nan" for row in rows)
        assert rows[0]["t"] == "0" and rows[0]["a_0"] == "0.4" and rows[0]["p"] == "0.5"
        assert lines[2] == "1,0.0,0.0,0.0,0.0,0.5,nan,nan,0.0,0.0"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 2 and summary["converged"] is True
        last = summary["last_record"]
        assert type(last["t"]) is int and last["t"] == 1
        assert last["norm_a"] == 0.0 and last["dist_b"] == 0.0

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
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[3] == "t,a_0,a_1,b_0,b_1,p,beta,sin_beta,norm_a,dist_b"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 50
        assert summary["form"] == "ab"
        lines = (out / "data.csv").read_text().splitlines()
        assert lines[0] == f"# artifact_version: {emlab.__version__}"
        assert lines[1] == f"# config_hash: {summary['config_hash']}"
        assert json.loads(lines[2].removeprefix("# config: ")) == summary["config"]
        assert lines[3] == "y_0,y_1"
        data = np.loadtxt(out / "data.csv", delimiter=",", skiprows=4)
        model = emlab.MixtureModel(2, [1.0, 0.0])
        assert data.tobytes() == emlab.sample_mixture(model, 50, 4).data.tobytes()

    def test_data_csv_round_trips_the_draw(self, tmp_path):
        cfg = _write_config(tmp_path, {"model": {"theta_star": [1.0, -0.5]}, "n": 7,
                                       "seed": 42, "write_data": True})
        out = tmp_path / "out"
        assert main(["run-sample", "--config", cfg, "--out", str(out)]) == 0
        parsed = np.loadtxt(out / "data.csv", delimiter=",", skiprows=4)
        model = emlab.MixtureModel(2, [1.0, -0.5])
        np.testing.assert_array_equal(parsed, emlab.sample_mixture(model, 7, 42).data)

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
        rows = (out / "landscape.csv").read_text().splitlines()[4:]
        assert len(rows) == 15

    @pytest.mark.parametrize("theta", [[1.3], [0.8, -0.4, 1.1, 0.2], [0.0, 0.0]])
    def test_landscape_cells_are_expected_loglik_of_their_means(self, tmp_path, theta):
        """Each cell's G is the repr of expected_loglik on its validated
        means a - b, a + b, with a and b its offsets along theta*/|theta*|
        (e1 at theta* = 0); the slice holds the b = 0 column."""
        cfg = _write_config(tmp_path, {
            "model": {"theta_star": theta},
            "slice": {"a_lo": -0.9, "a_hi": 1.2, "a_steps": 4,
                      "b_lo": -1.0, "b_hi": 1.0, "b_steps": 5},
        })
        out = tmp_path / "out"
        assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "landscape.csv").read_text().splitlines()[4:]]
        model = emlab.MixtureModel(len(theta), theta)
        norm = np.linalg.norm(model.theta_star)
        axis = model.theta_star / norm if norm > 0.0 else np.eye(len(theta))[0]
        assert len(rows) == 20 and sum(float(b) == 0.0 for _, b, _ in rows) == 4
        for a_offset, b_offset, value in rows:
            a, b = float(a_offset) * axis, float(b_offset) * axis
            assert value == repr(emlab.expected_loglik(emlab.MeanPair(a - b, a + b), model))

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

    def test_null_init_vector_exits_2(self, tmp_path, capsys):
        """Only an absent key takes its default; a present null is a config error."""
        cfg = _write_config(tmp_path, {"init": {"a": None}})
        assert main(["run-population", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: init.a" in capsys.readouterr().err

    def test_too_few_quadrature_nodes_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"quadrature": {"nodes_per_lobe": 12}})
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: quadrature.nodes_per_lobe" in capsys.readouterr().err

    def test_kernel_failure_names_a_plain_float(self, tmp_path, capsys):
        """At x_b = 40 the rule fails its self-check; the message shows the
        grid value as a Python float, not as np.float64(...)."""
        cfg = _write_config(tmp_path, dict(
            TestMainKernels.config, grid=dict(TestMainKernels.config["grid"], x_b={
                "lo": 40.0, "hi": 40.0, "count": 1})))
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: NonConvergence: ")
        assert "np.float64" not in err

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sl", [
        {"a_lo": -1e308, "a_hi": 1e308, "b_lo": -1e308, "b_hi": 1e308},
        *({"a_lo": a, "a_hi": a, "a_steps": 1, "b_lo": b, "b_hi": b, "b_steps": 1}
          for a, b in ((1e200, 1.0), (0.0, 1e200), (1.2e154, 1.2e154))),
    ])
    def test_overflowing_slice_exits_2(self, tmp_path, capsys, sl):
        """G squares a and b: a slice with a cell whose a.a + b.b overflows,
        even with each square finite, is one config error naming the slice,
        not a traceback, a table of -inf or a NaN NonConvergence."""
        cfg = _write_config(tmp_path, {"slice": sl})
        out = tmp_path / "o"
        assert main(["landscape", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: slice: ")
        assert err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, config, path", [
        ("landscape", {"model": {"theta_star": [1e200, 1e200]}}, "model.theta_star"),
        ("run-sample", {"init": {"b": [1e200, 0.0]}, "n": 100}, "init.b"),
        ("run-sample", {"init": {"a": [0.0, 1e200]}, "n": 100}, "init.a"),
        ("run-population", {"init": {"b": [1e200, 0.0]}}, "init.b"),
        ("run-population", {"family": "symmetric", "init": {"theta": [1e200, 0.0]}}, "init.theta"),
    ])
    def test_vector_whose_norm_overflows_exits_2(self, tmp_path, capsys, command, config, path):
        """A theta* or a start whose norm overflows is one config error naming
        it, not a table of -inf, a row of beta = pi/2 or a NaN NonConvergence."""
        out = tmp_path / "o"
        assert main([command, "--config", _write_config(tmp_path, config),
                     "--out", str(out)]) == 2
        name = path.split(".")[1]
        assert capsys.readouterr().err == f"config error: {path}: {name}'s norm must be finite\n"
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("emlab ")


@pytest.mark.skipif(
    not _BLAS_PINNED,
    reason="numpy bundles no OpenBLAS with scipy_openblas_set_num_threads64_ to pin",
)
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A threaded BLAS splits a full-length X^T t over its threads, which once
    made this d = 2, n = 1e6 run write different bytes under 1 and 2 threads;
    fixed-order row blocks and the one-thread pin keep the bytes equal.  The
    kernel table sums each point's lobes with its own dot per row; a matrix
    product over a block of points could change a row's bits with the thread
    count or the block size, so the table is compared too."""
    configs = {
        "run-sample": _write_config(tmp_path, {
            "command": "run-sample",
            "model": {"d": 2, "theta_star": [1.0, 0.2]},
            "n": 1_000_000,
            "seed": 3,
            "stop": {"max_iters": 50, "step_tol": 0},
        }),
        "kernels": _write_config(tmp_path, {
            "command": "kernels",
            "grid": {ax: {"lo": 0.0, "hi": 2.5, "count": 6} for ax in ("x_a", "x_b", "x_theta")},
        }, name="kernels.json"),
    }
    src = str(Path(emlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    artifacts = []
    for threads in ("1", "2"):
        written = {}
        for command, cfg in configs.items():
            out = tmp_path / f"{command}-threads-{threads}"
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from emlab.cli import main; sys.exit(main(sys.argv[1:]))",
                 command, "--config", cfg, "--out", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                check=True, capture_output=True, timeout=300,
            )
            written.update({(command, f.name): f.read_bytes() for f in sorted(out.iterdir())})
        artifacts.append(written)
    assert ("kernels", "kernels.csv") in artifacts[0]
    assert artifacts[0] == artifacts[1]
