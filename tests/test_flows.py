"""Numeric cross-checks of the symbolic layer via trajectory conservation."""

from __future__ import annotations

import math

import pytest

from nambu.flows import (
    DivergentFlowError,
    FlowConfig,
    conservation_check,
    conservation_report,
    integrate_hamiltonian,
)
from support import R3, coords, singular_r3

x1, x2, x3 = coords(R3)


def test_axis_flow_conserves_transverse_coordinates():
    structure = singular_r3()
    config = FlowConfig(start=(1.0, 0.0, 0.0), step=0.01, steps=100)
    trajectory = integrate_hamiltonian(structure, (x1, x2), config)
    assert len(trajectory) == 101
    # field is along the third axis only: first two coordinates frozen bitwise
    assert all(p[0] == 1.0 and p[1] == 0.0 for p in trajectory)
    assert trajectory[-1][2] > trajectory[0][2]


def test_circular_flow_conserves_radius_and_height():
    structure = singular_r3()
    config = FlowConfig(start=(1.0, 0.0, 0.0), step=1e-3, steps=1000)
    trajectory = integrate_hamiltonian(structure, (x1 * x1 + x2 * x2, x3), config)
    report = conservation_report(trajectory, structure, (x1 * x1 + x2 * x2, x3),
                                 tolerance=1e-8)
    assert report.passed
    assert report.hamiltonian_drifts[0] <= 1e-8
    assert report.hamiltonian_drifts[1] <= 1e-8


def test_stationary_trajectory_for_constant_hamiltonians():
    structure = singular_r3()
    one = R3.scalar(1)
    config = FlowConfig(start=(0.3, -0.7, 2.0), step=0.1, steps=10)
    trajectory = integrate_hamiltonian(structure, (one, one), config)
    assert all(p == trajectory[0] for p in trajectory)
    report = conservation_report(trajectory, structure, (one, one))
    assert max(report.hamiltonian_drifts + report.probe_drifts) == 0.0


def test_fourth_order_step_halving():
    # Ratio measured where truncation error dominates; at h = 1e-3 the drift
    # sits on the double-precision noise floor (~4e-15) and shows no order.
    structure = singular_r3()
    hams = (x1 * x1 + x2 * x2, x3)

    def drift(step, steps):
        config = FlowConfig(start=(1.0, 0.0, 0.0), step=step, steps=steps)
        trajectory = integrate_hamiltonian(structure, hams, config)
        return conservation_report(trajectory, structure, hams).hamiltonian_drifts[0]

    coarse = drift(0.1, 10)
    fine = drift(0.05, 20)
    assert 8 <= coarse / fine <= 32


def test_huge_step_reports_failure_not_silence():
    structure = singular_r3()
    hams = (x1 * x1 + x2 * x2, x3)
    config = FlowConfig(start=(1.0, 0.0, 0.0), step=10.0, steps=5)
    try:
        trajectory = integrate_hamiltonian(structure, hams, config)
    except DivergentFlowError:
        return  # non-finite blow-up is an acceptable loud failure
    report = conservation_report(trajectory, structure, hams, tolerance=1e-6)
    assert not report.passed


def test_probe_brackets_evaluated_along_trajectory():
    structure = singular_r3()
    config = FlowConfig(start=(1.0, 0.0, 0.0), step=1e-3, steps=200)
    hams = (x1 * x1 + x2 * x2, x3)
    trajectory = integrate_hamiltonian(structure, hams, config)
    report = conservation_report(trajectory, structure, hams,
                                 probes=[(x1, x2, x3)], tolerance=1e-2)
    assert len(report.probe_drifts) == 1
    # {x1,x2,x3} = x1^2+x2^2+x3^2 is conserved along this circular flow
    assert report.probe_drifts[0] <= 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(start=(0.0,), step=-1.0, steps=10)
    with pytest.raises(ValueError):
        FlowConfig(start=(0.0,), step=1.0, steps=0)
    for start in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            FlowConfig(start=start, step=1.0, steps=1)
    structure = singular_r3()
    for tolerance in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            conservation_report([(1.0, 0.0, 0.0)], structure, (x1, x3), tolerance=tolerance)


def test_wrong_start_dimension():
    structure = singular_r3()
    config = FlowConfig(start=(1.0, 0.0), step=0.1, steps=5)
    with pytest.raises(ValueError):
        integrate_hamiltonian(structure, (x1, x2), config)


def test_overflowing_hamiltonian_is_divergence():
    structure = singular_r3()
    with pytest.raises(DivergentFlowError):
        conservation_report([(1e200, 0.0, 0.0)], structure, (x1 * x1, x3))


def test_coefficient_beyond_float_range_is_divergence():
    structure = singular_r3()
    huge = 10 ** 400 * x1
    config = FlowConfig(start=(1.0, 0.0, 0.0), step=0.01, steps=3)
    with pytest.raises(DivergentFlowError, match="field values overflow"):
        integrate_hamiltonian(structure, (huge, x3), config)
    with pytest.raises(DivergentFlowError, match="Hamiltonian or probe values overflow"):
        conservation_report([(1.0, 0.0, 0.0)], structure, (huge, x3))


def test_probe_arity_is_checked_before_any_trajectory():
    structure = singular_r3()
    with pytest.raises(ValueError, match="bracket arity is 3, got 2"):
        conservation_check(structure, (x1, x3), probes=[(x1, x2)])
