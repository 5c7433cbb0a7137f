"""Each benchmark check accepts real artifacts and rejects a wrong one.

The artifacts come from small ``emlab`` CLI runs; the wrong ones change a
single value in them.  Run with ``PYTHONPATH=src pytest perfbench``.
"""

import json
import os
import time
from contextlib import redirect_stdout

import pytest

import checks
import spans
from emlab.cli import main
from workloads import NEVER_TOL, Op


def _run(tmp_path, name, command, kind, config, **op_args):
    op = Op(name, command, kind, config, **op_args)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    return tmp_path / name, op


def _edit_cell(path, row, column, edit):
    """Rewrite one cell of a CLI CSV (row counts data rows, from 0)."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    header = lines[data[0] - 1].split(",")
    j = header.index(column)
    cells[j] = edit(cells[j])
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _change_digit(cell, position=4):
    """The cell with its digit at ``position`` changed (position counts characters)."""
    digit = cell[position]
    return cell[:position] + str((int(digit) + 1) % 10) + cell[position + 1:]


def test_free_run_accepts_and_rejects_a_wrong_limit(tmp_path):
    out, op = _run(tmp_path, "free", "run-population", "free", {
        "model": {"d": 2, "theta_star": [1.2, 0.5]},
        "init": {"a": [0.1, 0.0], "b": [0.4, 0.3]},
    })
    checks.check_free(out, op)
    summary = json.loads((out / "summary.json").read_text())
    summary["final_state"]["b"][0] += 1e-5
    (out / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(checks.CheckFailed, match="target"):
        checks.check_free(out, op)


def test_locked_run_rejects_a_wrong_limit(tmp_path):
    out, op = _run(tmp_path, "locked", "run-population", "locked", {
        "model": {"d": 2, "theta_star": [1.0, 1.0]},
        "family": "symmetric",
        "init": {"theta": [-0.5, 0.1]},
        "stop": {"max_iters": 100, "step_tol": NEVER_TOL},
    })
    checks.check_locked(out, op)
    _edit_cell(out / "trajectory.csv", -1, "theta_1", lambda c: repr(float(c) + 1e-5))
    with pytest.raises(checks.CheckFailed, match="target"):
        checks.check_locked(out, op)


@pytest.fixture
def orthogonal(tmp_path):
    return _run(tmp_path, "orth", "run-population", "orthogonal", {
        "model": {"d": 3, "theta_star": [0.0, 1.5, 0.0]},
        "family": "symmetric",
        "init": {"theta": [0.6, 0.0, -0.4]},
        "stop": {"max_iters": 40, "step_tol": NEVER_TOL},
    })


def test_orthogonal_run_is_accepted(orthogonal):
    checks.check_orthogonal(*orthogonal)


def test_orthogonal_run_rejects_an_iterate_off_the_slice(orthogonal):
    out, op = orthogonal
    _edit_cell(out / "trajectory.csv", 7, "theta_1", lambda c: "1e-300")
    with pytest.raises(checks.CheckFailed, match="not exactly 0.0"):
        checks.check_orthogonal(out, op)


@pytest.mark.parametrize("factor", [0.999, 1.0 - 1e-4, 1.001])
def test_orthogonal_run_rejects_a_step_off_the_decay_law(orthogonal, factor):
    """One iterate scaled by a constant moves the increment of |theta|^-2 out of its band."""
    out, op = orthogonal
    for column in ("theta_0", "theta_2"):
        _edit_cell(out / "trajectory.csv", 20, column, lambda c: repr(float(c) * factor))
    with pytest.raises(checks.CheckFailed, match="decay law"):
        checks.check_orthogonal(out, op)


def _pair(tmp_path):
    config = {
        "model": {"d": 2, "theta_star": [1.2, -0.4]},
        "init": {"a": [0.05, 0.0], "b": [0.8, 0.1]},
        "stop": {"max_iters": 10, "step_tol": NEVER_TOL},
        "n": 2000,
        "seed": 3,
    }
    ref, _ = _run(tmp_path, "ab", "run-sample", "sample", dict(config, form="ab"))
    out, op = _run(tmp_path, "mu", "run-sample", "pair", dict(config, form="mu"), ref="ab")
    return out, op, ref


def test_pair_accepts_the_two_forms_and_rejects_a_gap_of_1e_8(tmp_path):
    out, op, ref = _pair(tmp_path)
    checks.check_pair(out, op, ref)
    _edit_cell(out / "trajectory.csv", 5, "b_1", lambda c: repr(float(c) + 1e-8))
    with pytest.raises(checks.CheckFailed, match="differ by"):
        checks.check_pair(out, op, ref)


def _ladder(tmp_path, finals, sups):
    ns = [1000, 10000, 100000, 1000000]
    slope = checks._slope(ns, finals)
    out = tmp_path / "ladder"
    out.mkdir()
    (out / "consistency.json").write_text(json.dumps({
        "n_ladder": ns, "final_error": finals, "sup_discrepancy": sups,
        "slope": slope, "trials": 3, "config": {"T": 15},
    }))
    return out, Op("ladder", "consistency", "ladder", {"n_ladder": ns})


def test_ladder_accepts_the_root_n_rate(tmp_path):
    checks.check_ladder(*_ladder(tmp_path, [0.1, 0.03, 0.01, 0.003], [0.2, 0.07, 0.02, 0.007]))


def test_ladder_rejects_a_slope_outside_its_band(tmp_path):
    out, op = _ladder(tmp_path, [0.1, 0.02, 0.003, 0.0005], [0.2, 0.07, 0.02, 0.007])
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_ladder(out, op)


def test_ladder_rejects_a_discrepancy_that_does_not_fall(tmp_path):
    out, op = _ladder(tmp_path, [0.1, 0.03, 0.01, 0.003], [0.2, 0.07, 0.08, 0.007])
    with pytest.raises(checks.CheckFailed, match="strictly decreasing"):
        checks.check_ladder(out, op)


@pytest.fixture
def table(tmp_path):
    axis = {"lo": 0.0, "hi": 1.5, "count": 2}
    return _run(tmp_path, "table", "kernels", "kernels",
                {"grid": {"x_a": axis, "x_b": dict(axis, hi=2.5), "x_theta": axis}})


def test_kernel_table_is_accepted(table):
    checks.check_kernels(*table)


@pytest.mark.parametrize("column", ["P", "Gamma", "S", "F", "K"])
def test_kernel_table_rejects_one_changed_digit(table, column):
    out, op = table
    _edit_cell(out / "kernels.csv", 7, column, _change_digit)
    with pytest.raises(checks.CheckFailed, match="quad gives"):
        checks.check_kernels(out, op)


def test_kernel_table_rejects_a_broken_identity(table):
    out, op = table
    _edit_cell(out / "kernels.csv", 0, "P", lambda c: "0.5000001")  # x_b == 0 row
    with pytest.raises(checks.CheckFailed, match="1/2"):
        checks.check_kernels(out, op)


@pytest.fixture
def slice_1d(tmp_path):
    return _run(tmp_path, "slice", "landscape", "landscape", {
        "model": {"d": 1, "theta_star": [-1.3]},
        "slice": {"a_lo": -0.5, "a_hi": 0.5, "a_steps": 3, "b_lo": -1.5, "b_hi": 1.5, "b_steps": 5},
    })


def test_landscape_is_accepted(slice_1d):
    checks.check_landscape(*slice_1d)


def test_landscape_rejects_a_broken_label_swap(slice_1d):
    out, op = slice_1d
    _edit_cell(out / "landscape.csv", 6, "G", _change_digit)
    with pytest.raises(checks.CheckFailed, match="G\\(a, b\\) != G\\(a, -b\\)"):
        checks.check_landscape(out, op)


def test_landscape_rejects_a_symmetric_error_by_quad(slice_1d):
    out, op = slice_1d
    _edit_cell(out / "landscape.csv", 7, "G", _change_digit)  # b = 0: its own mirror
    with pytest.raises(checks.CheckFailed, match="quad gives"):
        checks.check_landscape(out, op)


def test_digest_sees_one_changed_byte(orthogonal):
    out, _ = orthogonal
    before = checks.artifact_digest(out)
    path = out / "summary.json"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    assert checks.artifact_digest(out) != before


def test_tracer_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))
    outer = tracer.wrap("outer", lambda: inner() or time.sleep(0.01))
    outer()
    total, own, calls = tracer.layer("outer")
    assert calls == 1 and tracer.layer("inner")[2] == 1
    assert own == pytest.approx(total - tracer.layer("inner")[0], abs=1e-12)
    assert 0.009 < own < total
