"""Finite-dimensional slices of form and multivector spaces.

A truncated basis enumerates, in a fixed deterministic order, all pairs of a
strictly increasing index tuple and a monomial of bounded total degree.  This
turns every coefficient-polynomial operator into an exact rational matrix.
Coordinate vectors are ``SparseVector``s of ``algebra``: a map from basis
position to non-zero coefficient, with no stored zeros.  Converting a tensor
to coordinates is strict: it raises when any component falls outside the
basis, so a tensor is never silently clipped to a truncated space.

An operator needs no codomain basis.  Its matrix has one column per domain
element and one row per (component, monomial) label that some image holds,
in component-then-graded-lex order, so every image fits by construction.
Rank, pivot columns and the nullspace basis do not depend on the row order,
nor on the all-zero rows a wider codomain would add.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .algebra import ExactMatrix, Polynomial, RationalFunction, SparseVector, grlex_key
from .exterior import FORM, Chart, GradedTensor, Scalar
from .structures import NambuStructure, sharp

Exponent = tuple[int, ...]
Index = tuple[int, ...]
Label = tuple[Index, Exponent]
Certificate = tuple[tuple[Label, Fraction], ...]


def monomials_up_to(num_vars: int, degree_bound: int) -> list[Exponent]:
    """All exponent tuples of total degree <= bound, in graded-lex order."""
    out: list[Exponent] = []

    def extend(prefix: list[int], budget: int, slots: int):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            prefix.append(d)
            extend(prefix, budget - d, slots - 1)
            prefix.pop()

    extend([], degree_bound, num_vars)
    out.sort(key=grlex_key)
    return out


def _tensor_entries(components: dict[Index, Scalar]) -> Iterable[tuple[Label, Fraction]]:
    """The (component, monomial) label and coefficient of every term."""
    for idx, value in components.items():
        if not isinstance(value, Polynomial):
            raise ValueError(f"component {idx} is not a polynomial: {value}")
        for exponent, coeff in value.terms.items():
            yield (idx, exponent), coeff


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered basis of degree-k tensors with coefficient degree <= bound."""

    chart: Chart
    variance: str
    degree: int
    coefficient_bound: int
    elements: tuple[tuple[Index, Exponent], ...]

    @classmethod
    def build(cls, chart: Chart, variance: str, degree: int,
              coefficient_bound: int) -> "TruncatedBasis":
        if not 0 <= degree <= chart.dimension:
            raise ValueError("tensor degree out of range for the chart")
        if coefficient_bound < 0:
            raise ValueError("coefficient bound must be non-negative")
        indices = list(itertools.combinations(range(chart.dimension), degree))
        monomials = monomials_up_to(chart.dimension, coefficient_bound)
        elements = tuple((idx, mono) for idx in indices for mono in monomials)
        return cls(chart, variance, degree, coefficient_bound, elements)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def positions(self) -> dict[tuple[Index, Exponent], int]:
        return {element: i for i, element in enumerate(self.elements)}

    def tensor_of(self, position: int) -> GradedTensor:
        idx, mono = self.elements[position]
        coeff = Polynomial.monomial(self.chart.coordinates, mono)
        return GradedTensor(self.chart, self.variance, self.degree, {idx: coeff})

    def to_coordinates(self, tensor: GradedTensor) -> SparseVector:
        """Coordinate vector of a tensor; raises if it lies outside the basis."""
        if tensor.chart != self.chart or tensor.variance != self.variance:
            raise ValueError("tensor does not match the basis chart/variance")
        if tensor.degree != self.degree and not tensor.is_zero():
            raise ValueError("tensor degree does not match the basis")
        vec: SparseVector = {}
        pos = self.positions
        for label, coeff in _tensor_entries(tensor.components):
            at = pos.get(label)
            if at is None:
                raise ValueError(
                    f"component {label[0]} monomial {label[1]} exceeds the "
                    f"coefficient bound {self.coefficient_bound}")
            vec[at] = coeff
        return vec

    def from_coordinates(self, vector: SparseVector) -> GradedTensor:
        size = len(self.elements)
        components: dict[Index, dict[Exponent, Fraction]] = {}
        for at, coeff in vector.items():
            if not 0 <= at < size:
                raise ValueError(f"coordinate position {at} outside 0..{size - 1}")
            idx, mono = self.elements[at]
            components.setdefault(idx, {})[mono] = coeff
        return GradedTensor(self.chart, self.variance, self.degree, {
            idx: Polynomial(self.chart.coordinates, terms)
            for idx, terms in components.items()})


def _labelled_rows(columns: Iterable[Iterable[tuple[Label, Fraction]]],
                   rows: dict[Label, dict[int, Fraction]]) -> int:
    """Add each column's (label, coefficient) entries to the row of its label,
    opening rows in first-seen order; returns the number of columns.  Columns
    are read once, so a generator keeps only the rows alive."""
    width = 0
    for column in columns:
        for label, coeff in column:
            row = rows.get(label)
            if row is None:
                row = rows[label] = {}
            row[width] = coeff
        width += 1
    return width


def image_matrix(images: Iterable[GradedTensor]) -> ExactMatrix:
    """Matrix whose column j holds the coefficients of the j-th image.

    Rows are the (component, monomial) labels that some image holds, in
    component-then-graded-lex order; no row is all zero.
    """
    rows: dict[Label, dict[int, Fraction]] = {}
    width = _labelled_rows((_tensor_entries(image.components) for image in images), rows)
    order = sorted(rows, key=lambda label: (label[0], grlex_key(label[1])))
    return ExactMatrix(len(order), width, [rows[label] for label in order])


@dataclass(frozen=True)
class TruncatedOperator:
    """Exact matrix of a linear map on a truncated basis: column j is the
    image of basis element j, rows as in ``image_matrix``."""

    domain: TruncatedBasis
    matrix: ExactMatrix

    @classmethod
    def build(cls, domain: TruncatedBasis,
              mapping: Callable[[GradedTensor], GradedTensor]) -> "TruncatedOperator":
        return cls(domain, image_matrix(mapping(domain.tensor_of(j))
                                        for j in range(len(domain))))


def solve_labelled(columns: Iterable[dict[Label, Fraction]], target: dict[Label, Fraction],
                   ) -> tuple[tuple[Fraction, ...] | None, Certificate | None]:
    """Solve target = sum c_j columns_j exactly, one equation per label.

    Rows are numbered in first-seen order: the target's labels, then each
    column's in turn; certificates list their labels in that order.
    Returns (coefficients, None) when solvable, else (None, certificate)
    with a labelled left-kernel functional separating the target from the span.
    """
    rows: dict[Label, dict[int, Fraction]] = {label: {} for label in target}
    width = _labelled_rows((column.items() for column in columns), rows)
    rhs = [target.get(label, Fraction(0)) for label in rows]
    outcome = ExactMatrix(len(rows), width, list(rows.values())).solve(rhs)
    if outcome.feasible:
        return outcome.solution, None
    assert outcome.certificate is not None
    return None, tuple((label, weight) for label, weight
                       in zip(rows, outcome.certificate) if weight != 0)


def solve_in_span(images: Sequence[GradedTensor],
                  target: GradedTensor) -> tuple[tuple[Fraction, ...] | None,
                                                 Certificate | None]:
    """Solve target = sum c_i images_i exactly.

    Images must be polynomial; the target may have rational-function
    components, in which case each component equation is multiplied through
    by its denominator.  Returns (coefficients, None) when solvable, else
    (None, certificate) with a labelled left-kernel functional separating
    the target from the span.
    """
    denominators = {idx: value.denominator for idx, value in target.components.items()
                    if isinstance(value, RationalFunction)}
    labelled_target = dict(_tensor_entries({
        idx: value.numerator if idx in denominators else value
        for idx, value in target.components.items()}))

    def column(image: GradedTensor) -> dict[Label, Fraction]:
        return dict(_tensor_entries({
            idx: value * denominators[idx] if idx in denominators else value
            for idx, value in image.components.items()}))

    return solve_labelled(map(column, images), labelled_target)


def ker_sharp_basis(structure: NambuStructure, degree: int,
                    degree_bound: int) -> list[GradedTensor]:
    """Exact basis of the bounded-degree kernel of the degree-k bundle map."""
    if not 0 <= degree <= structure.order:
        raise ValueError("form degree out of range 0..n")
    domain = TruncatedBasis.build(structure.chart, FORM, degree, degree_bound)
    operator = TruncatedOperator.build(domain, lambda form: sharp(structure, degree, form))
    return [domain.from_coordinates(vec) for vec in operator.matrix.nullspace()]
