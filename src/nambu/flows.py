"""Floating-point integration of Hamiltonian fields, as a cross-check.

This module is deliberately plain: a fixed-step classical fourth-order
integrator with deterministic Horner lowering of the symbolic components.
It exists to confirm the symbolic layer numerically (Hamiltonians must be
conserved along their own flow), not to be a production integrator.

Lowering happens once per run: each component of the Hamiltonian field,
each Hamiltonian and each probe bracket is compiled into a float Horner
function (``Polynomial.compile_float``) before the first point is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exterior import GradedTensor
from .structures import NambuStructure, hamiltonian_vf, nambu_bracket


class DivergentFlowError(ArithmeticError):
    """The trajectory, or a value along it, left the floating-point range.

    This is a mathematical outcome of the flow, not a usage error.
    """


@dataclass(frozen=True)
class FlowConfig:
    start: tuple[float, ...]
    step: float
    steps: int

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step size must be positive")
        if self.steps < 1:
            raise ValueError("step count must be at least 1")
        if not all(math.isfinite(v) for v in self.start):
            raise ValueError("start point must be finite")
        if not math.isfinite(self.step * self.steps):
            raise ValueError("total integration time must be finite")


def _lower(field_tensor: GradedTensor):
    """Compile a symbolic vector field into a float right-hand side."""
    components = [field_tensor.component((i,)).compile_float()
                  for i in range(field_tensor.chart.dimension)]

    def rhs(point: list[float]) -> list[float]:
        return [c(point) for c in components]

    return rhs


def integrate_hamiltonian(structure: NambuStructure, scalars, config: FlowConfig,
                          ) -> list[tuple[float, ...]]:
    """Classical fourth-order trajectory of the Hamiltonian field.

    Returns steps+1 points, the start included.  Raises DivergentFlowError
    on values that overflow or turn non-finite, which is the honest outcome
    for a diverging trajectory.
    """
    field_tensor = hamiltonian_vf(structure, *scalars)
    m = structure.chart.dimension
    if len(config.start) != m:
        raise ValueError("start point has the wrong dimension")
    h = config.step
    point = [float(v) for v in config.start]
    trajectory = [tuple(point)]
    try:
        rhs = _lower(field_tensor)  # a coefficient beyond the float range overflows here
        for _ in range(config.steps):
            k1 = rhs(point)
            k2 = rhs([p + 0.5 * h * v for p, v in zip(point, k1)])
            k3 = rhs([p + 0.5 * h * v for p, v in zip(point, k2)])
            k4 = rhs([p + h * v for p, v in zip(point, k3)])
            point = [p + h / 6.0 * (a + 2 * b + 2 * c + d)
                     for p, a, b, c, d in zip(point, k1, k2, k3, k4)]
            if not all(math.isfinite(v) for v in point):
                raise DivergentFlowError("non-finite values encountered during integration")
            trajectory.append(tuple(point))
    except OverflowError as exc:
        raise DivergentFlowError("field values overflow during integration") from exc
    return trajectory


@dataclass(frozen=True)
class ConservationReport:
    """Maximum drift of each Hamiltonian and probe bracket along a trajectory."""

    tolerance: float
    hamiltonian_drifts: tuple[float, ...]
    probe_drifts: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(d <= self.tolerance
                   for d in self.hamiltonian_drifts + self.probe_drifts)


def conservation_check(structure: NambuStructure, scalars, probes=(),
                       tolerance: float = 1e-8):
    """Prepare the drift measurement of ``conservation_report`` for a trajectory
    that is yet to be computed.

    A bad tolerance or a probe of the wrong arity fails here, before any
    integration.  Returns a function of the trajectory that lowers each
    Hamiltonian and each bracket once and reports their drifts.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    scalars = list(scalars)
    brackets = [nambu_bracket(structure, *probe) for probe in probes]
    m = structure.chart.dimension

    def max_drift(function, points) -> float:
        evaluate = function.compile_float()
        values = [evaluate(p) for p in points]
        first = values[0]
        return max(abs(v - first) for v in values)

    def report(trajectory) -> ConservationReport:
        points = list(trajectory)
        if not points:
            raise ValueError("trajectory must be non-empty")
        if any(len(p) != m for p in points):
            raise ValueError("wrong number of coordinates")
        try:
            hamiltonian_drifts = tuple(max_drift(f, points) for f in scalars)
            probe_drifts = tuple(max_drift(b, points) for b in brackets)
        except OverflowError as exc:
            raise DivergentFlowError("Hamiltonian or probe values overflow "
                                     "along the trajectory") from exc
        return ConservationReport(tolerance, hamiltonian_drifts, probe_drifts)

    return report


def conservation_report(trajectory, structure: NambuStructure, scalars,
                        probes=(), tolerance: float = 1e-8) -> ConservationReport:
    """Drift of the Hamiltonians and of probe bracket values along a trajectory.

    Hamiltonians are conserved by construction, so their drift measures the
    integrator error.  Probe tuples are re-evaluated through the bracket at
    every point; they drift whenever they are not invariants of the flow, so
    the caller chooses them accordingly.
    """
    return conservation_check(structure, scalars, probes, tolerance)(trajectory)
