"""Acceptance gate: one test per numbered criterion.

Each test runs the corresponding check from emlab.acceptance at its stated
tolerance and prints a single PASS/FAIL line (the same table `emlab verify`
prints).  These are intentionally end-to-end and slower than the unit tests;
the whole gate takes about half a minute.
"""

import numpy as np
import pytest

from emlab import acceptance


def _check(number):
    result = acceptance.run_one(number)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"criterion {result.number:2d} {status} "
        f"({result.seconds:5.1f}s): {result.title} -- {result.detail}"
    )
    assert result.passed, f"criterion {result.number}: {result.detail}"


class TestAcceptance:
    def test_criterion_01_kernel_identities_and_inequalities(self):
        _check(1)

    def test_criterion_02_truth_is_a_fixed_point(self):
        _check(2)

    def test_criterion_03_symmetric_model_global_convergence(self):
        _check(3)

    def test_criterion_04_orthogonal_start_collapses_to_zero(self):
        _check(4)

    def test_criterion_05_angle_decreases_and_contracts(self):
        _check(5)

    def test_criterion_06_separation_error_contracts(self):
        _check(6)

    def test_criterion_07_iterates_respect_a_priori_envelopes(self):
        _check(7)

    def test_criterion_08_sample_step_matches_population_step(self):
        _check(8)

    def test_criterion_09_discrepancy_shrinks_with_sample_size(self):
        _check(9)

    def test_criterion_10_stationary_points_classified(self):
        _check(10)

    def test_criterion_11_parameterizations_agree(self):
        _check(11)

    def test_criterion_12_empirical_mean_concentration(self):
        _check(12)

    def test_criterion_13_rotation_equivariance(self):
        _check(13)


def test_run_one_rejects_numbers_outside_the_table(monkeypatch):
    """A number outside 1..len(CRITERIA) raises before any check runs."""
    ran = []
    spies = tuple((title, lambda title=title: ran.append(title) or (True, ""))
                  for title, _ in acceptance.CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", spies)
    for number in (0, len(spies) + 1):
        with pytest.raises(ValueError, match="criterion number"):
            acceptance.run_one(number)
    assert ran == []
    assert acceptance.run_one(len(spies)).title == ran[0] == spies[-1][0]


def test_criterion_1_names_a_failing_point(monkeypatch):
    """With S raised to P at one grid point, P>S>=0 fails there: the verdict
    is False and the note names the point as plain floats."""
    kernel_pgs = acceptance.kernel_pgs

    def broken(x_a, x_b, x_theta, *spec):
        p, g, s = kernel_pgs(x_a, x_b, x_theta, *spec)
        hit = (x_a == 0.0) & (x_b == acceptance._GRID[1]) & (x_theta == 0.0)
        return p, g, np.where(hit, p, s)

    monkeypatch.setattr(acceptance, "kernel_pgs", broken)
    passed, detail = acceptance.criterion_1()
    assert passed is False
    assert detail.endswith("; P>S>=0 fails at (0.0, 0.15789473684210525, 0.0)")


def test_criterion_1_lists_failures_in_grid_then_check_order(monkeypatch):
    """With Gamma = 10 and S = P everywhere, the notes come point by point in
    row-major grid order and, at a point, in the order of the checks."""
    kernel_pgs = acceptance.kernel_pgs

    def broken(*args):
        p, g, s = kernel_pgs(*args)
        return p, np.full_like(g, 10.0), p

    monkeypatch.setattr(acceptance, "kernel_pgs", broken)
    passed, detail = acceptance.criterion_1()
    assert passed is False
    assert detail.split("; ")[1:] == [
        "Gamma/(2P) bound fails at (0.0, 0.0, 0.0)",
        "P>S>=0 fails at (0.0, 0.15789473684210525, 0.0)",
        "Gamma/(2P) bound fails at (0.0, 0.15789473684210525, 0.0)",
    ]
