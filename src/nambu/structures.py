"""Nambu-Poisson structures of order n >= 3 on a coordinate chart.

A structure is an n-multivector with polynomial components.  Two checks
gather evidence of validity.  The fundamental identity says that every
Hamiltonian field X_I of n-1 functions f_I is an infinitesimal automorphism,
L_{X_I} Lambda = 0; it is evaluated symbolically over a finite generating
family as <df_J, L_{X_I} Lambda> for every (n-1)-subset I and n-subset J, so
a pass certifies the named family only (a necessary condition, not a
decision procedure for all smooth functions).  Pointwise decomposability is
checked through Plucker-type contraction identities, which is a complete
algebraic test.  Reports always name the family that was used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Polynomial
from .exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    contract_form,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
    wedge,
    wedge_all,
)


def default_function_family(chart: Chart, include_quadratics: bool = True) -> list[Polynomial]:
    """Coordinates plus, optionally, all monomials of total degree two."""
    family = [chart.coordinate_polynomial(i) for i in range(chart.dimension)]
    if include_quadratics:
        for i in range(chart.dimension):
            for j in range(i, chart.dimension):
                family.append(chart.coordinate_polynomial(i) * chart.coordinate_polynomial(j))
    return family


@dataclass(frozen=True)
class IdentityViolation:
    outer: tuple[str, ...]
    inner: tuple[str, ...]
    residual: Polynomial


@dataclass(frozen=True)
class FundamentalIdentityReport:
    """Outcome of the fundamental-identity check over a named family.

    Passing certifies the identity on the recorded generating family only;
    the identity is differential, so no finite family decides it for every
    smooth function.
    """

    family: tuple[str, ...]
    violations: tuple[IdentityViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DecomposabilityReport:
    passed: bool
    witness_indices: tuple[int, ...] | None = None
    residual: GradedTensor | None = None


class NambuStructure:
    """An n-vector with polynomial components, candidate Nambu-Poisson tensor."""

    __slots__ = ("chart", "order", "tensor")

    def __init__(self, tensor: GradedTensor, order: int | None = None):
        if tensor.variance != MULTIVECTOR:
            raise ValueError("a Nambu structure is a multivector field")
        n = tensor.degree if order is None else order
        if n != tensor.degree:
            raise ValueError(f"declared order {n} does not match tensor degree {tensor.degree}")
        if n < 3:
            raise ValueError("only orders n >= 3 are supported (n = 2 is ordinary Poisson)")
        if n > tensor.chart.dimension:
            raise ValueError("order exceeds the chart dimension")
        if not tensor.is_polynomial():
            raise ValueError("structure components must be polynomial")
        self.chart = tensor.chart
        self.order = n
        self.tensor = tensor

    @property
    def is_top_order(self) -> bool:
        return self.order == self.chart.dimension

    def top_coefficient(self) -> Polynomial:
        """The single component of a top-order structure."""
        if not self.is_top_order:
            raise ValueError("structure is not top-order")
        full = tuple(range(self.chart.dimension))
        value = self.tensor.components.get(full)
        if value is None:
            return self.chart.zero_polynomial()
        return value

    def __repr__(self) -> str:
        return f"NambuStructure(order={self.order}, {self.tensor})"


def _differentials(chart: Chart, scalars) -> GradedTensor:
    """The form df_1 ^ ... ^ df_k."""
    return wedge_all([differential(chart, f) for f in scalars])


def nambu_bracket(structure: NambuStructure, *scalars) -> Polynomial:
    """The n-ary bracket <df_1 ^ ... ^ df_n, Lambda>."""
    if len(scalars) != structure.order:
        raise ValueError(f"bracket arity is {structure.order}, got {len(scalars)}")
    return pair(_differentials(structure.chart, scalars), structure.tensor)


def sharp(structure: NambuStructure, degree: int, form: GradedTensor) -> GradedTensor:
    """Bundle map: contract a k-form into the structure tensor."""
    if not 0 <= degree <= structure.order:
        raise ValueError(f"sharp degree {degree} out of range 0..{structure.order}")
    if form.variance != FORM or form.degree != degree:
        raise ValueError(f"expected a {degree}-form")
    return contract_form(form, structure.tensor)


def hamiltonian_vf(structure: NambuStructure, *scalars) -> GradedTensor:
    """Hamiltonian vector field of n-1 scalar functions."""
    n = structure.order
    if len(scalars) != n - 1:
        raise ValueError(f"expected {n - 1} Hamiltonian functions, got {len(scalars)}")
    return sharp(structure, n - 1, _differentials(structure.chart, scalars))


# check_fundamental_identity stops after this many failures
MAX_VIOLATIONS = 5


def check_fundamental_identity(structure: NambuStructure,
                               family: list[Polynomial] | None = None,
                               ) -> FundamentalIdentityReport:
    """Evaluate the fundamental identity symbolically over a finite family.

    For each (n-1)-subset I of the family (the outer functions) the defect
    L_{X_I} Lambda comes from ``check_automorphism``; for each n-subset J (the
    inner functions) the residual is <df_J, L_{X_I} Lambda>, which is
    {f_I, {f_J}} - sum_k {f_J1, ..., {f_I, f_Jk}, ..., f_Jn} because
    L_X df = d(X f).  The identity is multilinear and skew, so subsets (rather
    than tuples) cover all cases up to sign.  A pass certifies the named
    family only.  Stops after ``MAX_VIOLATIONS`` failures.
    """
    n = structure.order
    if family is None:
        family = default_function_family(structure.chart)
    if not family:
        raise ValueError("the checking family must be non-empty")
    names = tuple(str(f) for f in family)
    violations: list[IdentityViolation] = []
    # each inner form df_J is built at most once, and only if some defect needs it
    forms: dict[tuple[int, ...], GradedTensor] = {}
    for outer in itertools.combinations(range(len(family)), n - 1):
        defect = check_automorphism(structure, *(family[i] for i in outer))
        if defect.is_zero():
            continue
        for inner in itertools.combinations(range(len(family)), n):
            form = forms.get(inner)
            if form is None:
                form = forms[inner] = _differentials(structure.chart,
                                                     [family[i] for i in inner])
            residual = pair(form, defect)
            if not residual.is_zero():
                violations.append(IdentityViolation(
                    outer=tuple(names[i] for i in outer),
                    inner=tuple(names[i] for i in inner),
                    residual=residual))
                if len(violations) >= MAX_VIOLATIONS:
                    return FundamentalIdentityReport(names, tuple(violations))
    return FundamentalIdentityReport(names, tuple(violations))


def check_decomposability(structure: NambuStructure) -> DecomposabilityReport:
    """Plucker-type test: i(beta)Lambda ^ Lambda = 0 for every basis (n-1)-form.

    This is a pointwise-complete algebraic criterion for decomposability of
    the tensor, which the local normal form makes necessary for validity.
    """
    chart = structure.chart
    n = structure.order
    for combo in itertools.combinations(range(chart.dimension), n - 1):
        beta = GradedTensor.basis(chart, FORM, combo)
        contracted = contract_form(beta, structure.tensor)
        residual = wedge(contracted, structure.tensor)
        if not residual.is_zero():
            return DecomposabilityReport(passed=False, witness_indices=combo,
                                         residual=residual)
    return DecomposabilityReport(passed=True)


def leibniz_bracket(structure: NambuStructure, left: GradedTensor,
                    right: GradedTensor) -> GradedTensor:
    """The algebroid bracket on (n-1)-forms.

    [[a, b]] = L_{sharp(a)} b + (-1)^n (i(da)Lambda) b, where the contraction
    of the n-form da into the structure tensor is a scalar factor.
    """
    n = structure.order
    for form in (left, right):
        if form.variance != FORM or form.degree != n - 1:
            raise ValueError(f"leibniz_bracket expects ({n - 1})-forms")
    anchor = sharp(structure, n - 1, left)
    main = lie_form(anchor, right)
    factor = contract_form(ext_d(left), structure.tensor).scalar_value()
    if n % 2:
        factor = -factor
    return main + right.scale(factor)


def check_automorphism(structure: NambuStructure, *scalars) -> GradedTensor:
    """Residual of L_X Lambda for the Hamiltonian field X of the scalars.

    The zero tensor certifies that the field is an infinitesimal automorphism.
    """
    x = hamiltonian_vf(structure, *scalars)
    return lie_mv(x, structure.tensor)
