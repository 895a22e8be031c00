"""Power planning: coefficient scaling, grid layout, analytic
cross-checks against the count-distribution and dependence modules, and
frozen regression values for a published-style design grid.
"""
import math
from types import SimpleNamespace

import pytest

from conftest import THETA_BC3, THETA_HUANG
from fdrdist import (
    ConstraintError,
    InputError,
    TestingSetup,
    ThetaParams,
    bh_pmf,
    latent_pvalue_correlation,
    power_table,
    scale_theta,
)


# ----------------------------------------------------------------- scaling

def test_scale_at_pilot_size_is_identity():
    assert scale_theta(THETA_HUANG, 78, 78) == THETA_HUANG


def test_scale_quadruple_subjects_doubles_coefficients():
    scaled = scale_theta(THETA_HUANG, 312, 78)
    for s, c in zip(scaled.coeffs, THETA_HUANG.coeffs):
        assert s == 2.0 * c  # sqrt(312/78) = 2 exactly


def test_scale_general_factor():
    scaled = scale_theta(THETA_HUANG, 450, 78)
    factor = math.sqrt(450 / 78)
    assert factor == pytest.approx(2.4019223070763070, rel=1e-15)
    for s, c in zip(scaled.coeffs, THETA_HUANG.coeffs):
        assert s == pytest.approx(factor * c, rel=1e-15)


def test_scale_rejects_exit_from_valid_region():
    with pytest.raises(ConstraintError, match="N=210000"):
        scale_theta(THETA_HUANG, 210000, 78)
    # shrinking is always safe: every bound loosens toward uniform
    down = scale_theta(THETA_BC3, 100, 3226)
    assert all(s < c for s, c in zip(down.coeffs, THETA_BC3.coeffs))


def test_scale_input_errors():
    with pytest.raises(InputError):
        scale_theta(THETA_HUANG, 0, 78)
    with pytest.raises(InputError):
        scale_theta(THETA_HUANG, 78, -1)


# -------------------------------------------------------------- grid layout

def test_rows_are_n_major_z_minor():
    grid = power_table(THETA_HUANG, 78, 200, 0.05, [78, 150, 300], [0.0, 0.4])
    layout = [(r.n_subjects, r.z) for r in grid.rows]
    assert layout == [(78, 0.0), (78, 0.4), (150, 0.0), (150, 0.4),
                      (300, 0.0), (300, 0.4)]
    assert grid.n_values == (78, 150, 300)
    assert grid.z_values == (0.0, 0.4)
    assert grid.pilot_theta == THETA_HUANG
    assert grid.pilot_n == 78 and grid.n_tests == 200 and grid.alpha == 0.05


def test_pilot_may_be_a_fit_result_like_object():
    wrapped = SimpleNamespace(theta_hat=THETA_HUANG)
    a = power_table(wrapped, 78, 100, 0.05, [78], [0.0])
    b = power_table(THETA_HUANG, 78, 100, 0.05, [78], [0.0])
    assert a.rows == b.rows
    with pytest.raises(InputError, match="pilot"):
        power_table((0.0524, 0.00983, 0.00327), 78, 100, 0.05, [78], [0.0])


def test_grid_input_errors():
    with pytest.raises(InputError):
        power_table(THETA_HUANG, 78, 100, 0.05, [], [0.0])
    with pytest.raises(InputError):
        power_table(THETA_HUANG, 78, 100, 0.05, [78], [])
    with pytest.raises(InputError, match="nonnegative"):
        power_table(THETA_HUANG, 78, 100, 0.05, [78], [-0.1])
    with pytest.raises(InputError, match="integers, got .*78.9"):
        power_table(THETA_HUANG, 78, 100, 0.05, [78.9], [0.0])
    with pytest.raises(InputError, match="integers, got .*nan"):
        power_table(THETA_HUANG, 78, 100, 0.05, [math.nan], [0.0])
    with pytest.raises(InputError, match="finite, got .*nan"):
        power_table(THETA_HUANG, 78, 100, 0.05, [78], [0.0, math.nan])


@pytest.mark.parametrize("n_values, pilot_n, shown", [
    ([10**400], 78, r"n_values=\(1000"),  # was OverflowError in scale_theta
    ([78], 78.5, "pilot_n=78.5"),          # ran at 78.5, recorded pilot_n = 78
    ([78], math.nan, "pilot_n=nan"),       # was a ThetaParams finiteness error
    ([78], 2**53 + 1, "pilot_n=9007199254740993"),
])
def test_grid_rejects_sizes_outside_one_to_two_to_the_53(n_values, pilot_n, shown):
    with pytest.raises(InputError, match=shown):
        power_table(THETA_HUANG, pilot_n, 100, 0.05, n_values, [0.0])
    with pytest.raises(InputError, match="sample sizes"):
        scale_theta(THETA_HUANG, n_values[0], pilot_n)


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, 1.5, -1e-9, math.nan])
def test_grid_rejects_tail_tol_outside_unit_interval(tail_tol):
    with pytest.raises(InputError, match="tail_tol"):
        power_table(THETA_HUANG, 78, 100, 0.05, [78], [0.0], tail_tol=tail_tol)


def test_infeasible_cell_names_its_coordinates():
    pilot = ThetaParams(1, (0.3,))
    with pytest.raises(ConstraintError, match=r"N=100, z=4"):
        power_table(pilot, 100, 50, 0.05, [100], [0.0, 4.0])


# ------------------------------------------------------- analytic agreement

def test_independent_cells_match_exact_bh_distribution():
    grid = power_table(THETA_HUANG, 78, 500, 0.05, [78, 312], [0.0])
    for row in grid.rows:
        scaled = scale_theta(THETA_HUANG, row.n_subjects, 78)
        dist = bh_pmf(TestingSetup(500, 0.05, scaled))
        assert row.correlation == 0.0
        assert row.expected_bh == pytest.approx(dist.mean(), rel=1e-12)
        assert row.prob_bh_positive == pytest.approx(1.0 - dist.prob(0),
                                                     rel=1e-12)


def test_correlation_column_matches_dependence_module():
    grid = power_table(THETA_HUANG, 78, 200, 0.05, [150], [0.0, 0.25, 0.5])
    for row in grid.rows:
        scaled = scale_theta(THETA_HUANG, 150, 78)
        eps = tuple(row.z * c for c in scaled.coeffs)
        assert row.correlation == pytest.approx(
            latent_pvalue_correlation(scaled, eps), rel=1e-12)


def test_monotone_in_sample_size_and_dependence():
    grid = power_table(THETA_HUANG, 78, 300, 0.05, [78, 150], [0.0, 0.4])
    by_cell = {(r.n_subjects, r.z): r for r in grid.rows}
    for z in (0.0, 0.4):
        assert (by_cell[150, z].prob_bh_positive
                > by_cell[78, z].prob_bh_positive)
        assert by_cell[150, z].expected_bh > by_cell[78, z].expected_bh
    for n in (78, 150):
        # dependence lifts the mean but drags the hit probability
        assert by_cell[n, 0.4].expected_bh > by_cell[n, 0.0].expected_bh
        assert (by_cell[n, 0.4].prob_bh_positive
                < by_cell[n, 0.0].prob_bh_positive)


# ---------------------------------------------------------- frozen regression

def test_pilot_extrapolation_regression_values():
    grid = power_table(THETA_HUANG, 78, 48803, 0.05, [78], [0.0, 0.4])
    base, dep = grid.rows
    assert base.expected_bh == pytest.approx(1.4602, abs=5e-4)
    assert base.prob_bh_positive == pytest.approx(0.5175, abs=5e-4)
    assert base.correlation == 0.0
    assert dep.correlation == pytest.approx(0.001539, abs=5e-6)
    assert dep.expected_bh == pytest.approx(1.7346, abs=5e-4)
    assert dep.prob_bh_positive == pytest.approx(0.4997, abs=5e-4)
    for row in grid.rows:
        # tail mass below the 1e-9 default tail_tol, at counts up to n
        assert row.expected_bh_error <= 1e-9 * 48803
