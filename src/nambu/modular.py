"""Volume forms, divergence, the homology boundary and the modular tensor.

Volumes may carry an exponential weight: nu = exp(-w) u dx^1 ^ ... ^ dx^m with
polynomial u and w.  The weight never evaluates; only dw enters any formula,
so the whole calculus stays inside exact rational arithmetic.  Nonvanishing
of u is asserted by the caller, never decided here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .algebra import InvariantError, Polynomial, RationalFunction
from .exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    Scalar,
    apply_vector,
    contract_form,
    differential,
    ext_d,
    interior_form,
    lie_form,
    pair,
    wedge,
)
from .structures import NambuStructure, hamiltonian_vf, sharp
from .truncation import (
    Certificate,
    Solution,
    TruncatedBasis,
    ker_sharp_basis,
    solve_in_image,
)


@dataclass(frozen=True)
class VolumeSpec:
    """nu = exp(-weight) * coefficient * dx^1 ^ ... ^ dx^m.

    ``coefficient`` is asserted nonvanishing by the caller; positivity of
    polynomials is out of scope here.  coefficient 1 with weight 0 is the
    standard volume.
    """

    chart: Chart
    coefficient: Polynomial
    weight: Polynomial

    def __post_init__(self):
        if self.coefficient.is_zero():
            raise ValueError("volume coefficient must be a non-zero polynomial")
        if (self.coefficient.variables != self.chart.coordinates
                or self.weight.variables != self.chart.coordinates):
            raise ValueError("volume data must use the chart coordinates")

    @classmethod
    def standard(cls, chart: Chart) -> "VolumeSpec":
        return cls(chart, Polynomial.constant(chart.coordinates, 1),
                   Polynomial.zero(chart.coordinates))

    @classmethod
    def weighted(cls, chart: Chart, weight: Polynomial) -> "VolumeSpec":
        return cls(chart, Polynomial.constant(chart.coordinates, 1), weight)

    def reweighted(self, extra_weight: Polynomial) -> "VolumeSpec":
        return VolumeSpec(self.chart, self.coefficient, self.weight + extra_weight)

    def body_form(self) -> GradedTensor:
        """The unweighted top form coefficient * dx^1 ^ ... ^ dx^m."""
        m = self.chart.dimension
        return GradedTensor(self.chart, FORM, m, {tuple(range(m)): self.coefficient})

    def __str__(self) -> str:
        text = "std"
        if not self.coefficient.is_one():
            text = f"({self.coefficient}) * std"
        if not self.weight.is_zero():
            text = f"exp(-({self.weight})) * {text}"
        return text


@dataclass(frozen=True)
class WeightedForm:
    """exp(-weight) * body, carried symbolically."""

    weight: Polynomial
    body: GradedTensor

    @property
    def degree(self) -> int:
        return self.body.degree

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __str__(self) -> str:
        if self.weight.is_zero():
            return str(self.body)
        return f"exp(-({self.weight})) * ({self.body})"


def flat(volume: VolumeSpec, field: GradedTensor) -> WeightedForm:
    """Contract a k-multivector into the volume: an (m-k)-form with weight."""
    if field.variance != MULTIVECTOR:
        raise ValueError("flat expects a multivector")
    if field.chart != volume.chart:
        raise ValueError("chart mismatch")
    return WeightedForm(volume.weight, interior_form(field, volume.body_form()))


def flat_inverse(volume: VolumeSpec, theta: WeightedForm) -> GradedTensor:
    """The unique multivector P with flat(volume, P) = theta.

    Components divide by the volume coefficient, so the result may have
    rational-function components when the coefficient is not constant.
    """
    if theta.weight != volume.weight:
        raise ValueError("weight mismatch between the form and the volume")
    chart = volume.chart
    m = chart.dimension
    body = theta.body
    if body.variance != FORM:
        raise ValueError("flat_inverse expects a form body")
    # with R the k-form's index and I its complement, flat(e_I) = u s(I, R) dx^R
    # and contract_form(dx^R, e_1 ^ ... ^ e_m) = s(R, I) e_I, where s(I, R) is
    # the shuffle sign of I then R and s(R, I) = (-1)^(k (m - k)) s(I, R)
    k = body.degree
    field = contract_form(body, GradedTensor.basis(chart, MULTIVECTOR, tuple(range(m))))
    sign = (-1) ** (k * (m - k))
    return GradedTensor(chart, MULTIVECTOR, m - k, {
        index: sign * value / volume.coefficient for index, value in field.components.items()})


def weighted_d(theta: WeightedForm) -> WeightedForm:
    """Exterior derivative of exp(-w) * body: same weight, d(body) - dw ^ body."""
    chart = theta.body.chart
    dw = differential(chart, theta.weight)
    return WeightedForm(theta.weight, ext_d(theta.body) - wedge(dw, theta.body))


def lie_weighted(field: GradedTensor, theta: WeightedForm) -> WeightedForm:
    """Lie derivative of a weighted form: exp(-w)(L_X body - X(w) body)."""
    scale = apply_vector(field, theta.weight)
    return WeightedForm(theta.weight,
                        lie_form(field, theta.body) - theta.body.scale(scale))


def delta(volume: VolumeSpec, field: GradedTensor) -> GradedTensor:
    """Homology boundary: conjugate the exterior derivative by flat."""
    if field.degree < 1:
        raise ValueError("the boundary applies to degree >= 1 multivectors")
    return flat_inverse(volume, weighted_d(flat(volume, field)))


def divergence(volume: VolumeSpec, field: GradedTensor) -> Scalar:
    """div X with L_X nu = (div X) nu: sum_j d_j X^j + X(u)/u - X(w)."""
    if field.variance != MULTIVECTOR or field.degree != 1:
        raise ValueError("divergence expects a vector field")
    chart = volume.chart
    total = chart.scalar(0)
    for (j,), comp in field.components.items():
        total = total + comp.diff(j)
    u = volume.coefficient
    total = total + apply_vector(field, u) / u
    total = total - apply_vector(field, volume.weight)
    return total


def modular_tensor(structure: NambuStructure, volume: VolumeSpec) -> GradedTensor:
    """The (n-1)-vector representing f-tuples |-> divergence of their field.

    Computed as the boundary of the structure tensor, then self-checked
    against the divergence definition on the coordinate family; a mismatch
    would signal an internal sign-convention bug, not bad input.
    """
    result = delta(volume, structure.tensor)
    chart = structure.chart
    n = structure.order
    for combo in itertools.combinations(range(chart.dimension), n - 1):
        coords = [chart.coordinate_polynomial(i) for i in combo]
        form = GradedTensor.basis(chart, FORM, combo)
        lhs = pair(form, result)
        rhs = divergence(volume, hamiltonian_vf(structure, *coords))
        if lhs != rhs:
            raise InvariantError(
                "modular tensor self-check failed on coordinates "
                f"{combo}: {lhs} vs {rhs}")
    return result


@dataclass(frozen=True)
class PotentialResult:
    """Either a polynomial potential or an infeasibility certificate.

    The certificate pairs codomain labels (component index tuple, monomial)
    with rational weights: the corresponding linear functional annihilates
    every candidate right-hand side but not the modular tensor.
    """

    potential: Polynomial | None
    certificate: Certificate | None
    degree_bound: int

    @property
    def feasible(self) -> bool:
        return self.potential is not None


def sharp_preimage(structure: NambuStructure, volume: VolumeSpec, domain: TruncatedBasis,
                   form_of: Callable[[GradedTensor], GradedTensor]) -> Solution:
    """Solve M = sum c_j sharp(form_of(domain_j)) for the modular tensor M,
    exactly, where ``form_of`` is a linear first-order map into 1-forms.

    The columns come from the stencil of ``solve_in_image``, never from one
    image per domain element.  A component of M with a denominator has its
    equation multiplied through by it: the target keeps the numerator and the
    mapping multiplies that component by the denominator, which keeps its
    order at most one.
    """
    tensor = modular_tensor(structure, volume)
    denominators = {idx: value.denominator for idx, value in tensor.components.items()
                    if isinstance(value, RationalFunction)}
    target = GradedTensor(structure.chart, MULTIVECTOR, tensor.degree, {
        idx: value.numerator if idx in denominators else value
        for idx, value in tensor.components.items()})

    def mapping(element: GradedTensor) -> GradedTensor:
        image = sharp(structure, 1, form_of(element))
        return GradedTensor(image.chart, MULTIVECTOR, image.degree, {
            idx: value * denominators[idx] if idx in denominators else value
            for idx, value in image.components.items()})

    return solve_in_image(domain, mapping, target)


def modular_potential(structure: NambuStructure, volume: VolumeSpec,
                      degree_bound: int) -> PotentialResult:
    """Search polynomials f of bounded degree with M = (-1)^{n-1} sharp(df)."""
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    chart = structure.chart
    sign = 1 if (structure.order - 1) % 2 == 0 else -1
    domain = TruncatedBasis.build(chart, FORM, 0, degree_bound)
    solution, certificate = sharp_preimage(
        structure, volume, domain, lambda g: differential(chart, g.scalar_value() * sign))
    if solution is not None:
        potential = domain.from_coordinates({j: c for j, c in enumerate(solution) if c})
        return PotentialResult(potential.scalar_value(), None, degree_bound)
    return PotentialResult(None, certificate, degree_bound)


def basic_volume(structure: NambuStructure, volume: VolumeSpec,
                 potential: Polynomial) -> WeightedForm:
    """Contract the structure into the potential-weighted volume.

    Requires the modular tensor of the reweighted volume to vanish; the
    resulting (m-n)-form is then annihilated and preserved by every
    Hamiltonian field, and is non-zero wherever the structure is.
    """
    reweighted = volume.reweighted(potential)
    obstruction = modular_tensor(structure, reweighted)
    if not obstruction.is_zero():
        raise ValueError(
            "no basic volume: the modular tensor of the reweighted volume "
            f"is {obstruction}, not zero")
    return flat(reweighted, structure.tensor)


@dataclass(frozen=True)
class BasicVolumeViolation:
    scalars: tuple[str, ...]
    condition: str
    residual: str


@dataclass(frozen=True)
class BasicVolumeReport:
    family: tuple[str, ...]
    violations: tuple[BasicVolumeViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_basic(structure: NambuStructure, form: WeightedForm,
                family: list[Polynomial]) -> BasicVolumeReport:
    """Verify i(X)mu = 0 and L_X mu = 0 for every Hamiltonian field over a family."""
    chart = structure.chart
    if form.degree != chart.dimension - structure.order:
        raise ValueError("a basic volume candidate must have degree m - n")
    names = tuple(str(f) for f in family)
    violations: list[BasicVolumeViolation] = []
    for combo in itertools.combinations(range(len(family)), structure.order - 1):
        scalars = [family[i] for i in combo]
        x = hamiltonian_vf(structure, *scalars)
        labels = tuple(names[i] for i in combo)
        contracted = interior_form(x, form.body)
        if not contracted.is_zero():
            violations.append(BasicVolumeViolation(labels, "contraction", str(contracted)))
        derived = lie_weighted(x, form)
        if not derived.is_zero():
            violations.append(BasicVolumeViolation(labels, "lie-derivative", str(derived.body)))
    return BasicVolumeReport(names, tuple(violations))


def is_tangent(structure: NambuStructure, field: GradedTensor, degree_bound: int) -> bool:
    """Whether every bounded-degree annihilator 1-form of the structure kills P.

    The annihilator module is infinite-dimensional; this tests against its
    degree <= ``degree_bound`` slice, which is the computable shadow.
    """
    if field.variance != MULTIVECTOR or not 1 <= field.degree <= structure.order:
        raise ValueError("is_tangent expects a multivector of degree 1..n")
    for annihilator in ker_sharp_basis(structure, 1, degree_bound):
        if not contract_form(annihilator, field).is_zero():
            return False
    return True
