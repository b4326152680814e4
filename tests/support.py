"""Shared builders and random generators for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from nambu.algebra import Polynomial
from nambu.exterior import FORM, MULTIVECTOR, Chart, GradedTensor, sort_index
from nambu.structures import NambuStructure

R3 = Chart.of("x1 x2 x3")
R4 = Chart.of("x1 x2 x3 x4")
R5 = Chart.of("x1 x2 x3 x4 x5")


def coords(chart: Chart) -> tuple[Polynomial, ...]:
    return tuple(chart.coordinate_polynomial(i) for i in range(chart.dimension))


def radius_squared(chart: Chart) -> Polynomial:
    total = chart.zero_polynomial()
    for x in coords(chart):
        total = total + x * x
    return total


def singular_r3() -> NambuStructure:
    """The bundled singular example: (x1^2+x2^2+x3^2) e1^e2^e3 on R^3."""
    return NambuStructure.from_top_coefficient(R3, radius_squared(R3))


def regular_r3() -> NambuStructure:
    return NambuStructure.from_top_coefficient(R3, Polynomial.constant(R3.coordinates, 1))


def regular_r4() -> NambuStructure:
    """e1^e2^e3 on R^4: order 3 normal form with a transverse direction."""
    return NambuStructure(GradedTensor.basis(R4, MULTIVECTOR, (0, 1, 2)))


def nondecomposable_r5() -> NambuStructure:
    tensor = GradedTensor(R5, MULTIVECTOR, 3, {(0, 1, 2): 1, (0, 3, 4): 1})
    return NambuStructure(tensor)


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))


def rand_poly(rng: random.Random, chart: Chart, max_degree: int = 3,
              max_terms: int = 3, allow_zero: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exponent = [0] * chart.dimension
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(chart.dimension)] += 1
        terms[tuple(exponent)] = rand_fraction(rng)
    poly = Polynomial(chart.coordinates, terms)
    if not allow_zero and poly.is_zero():
        return Polynomial.constant(chart.coordinates, 1)
    return poly


def rand_tensor(rng: random.Random, chart: Chart, variance: str, degree: int,
                max_degree: int = 3, sparsity: float = 0.7) -> GradedTensor:
    components = {}
    for index in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < sparsity:
            components[index] = rand_poly(rng, chart, max_degree)
    return GradedTensor(chart, variance, degree, components)


def rand_form(rng: random.Random, chart: Chart, degree: int,
              max_degree: int = 3) -> GradedTensor:
    return rand_tensor(rng, chart, FORM, degree, max_degree)


def rand_mv(rng: random.Random, chart: Chart, degree: int,
            max_degree: int = 3) -> GradedTensor:
    return rand_tensor(rng, chart, MULTIVECTOR, degree, max_degree)


def rand_vector_field(rng: random.Random, chart: Chart,
                      max_degree: int = 3) -> GradedTensor:
    return rand_mv(rng, chart, 1, max_degree)


# -- coordinate formulas of the derived exterior operators, as test oracles -------

def oracle_pair(form: GradedTensor, field: GradedTensor):
    """<form, field> = sum_I form_I field^I over sorted multi-indices."""
    total = form.chart.scalar(0)
    for index, value in form.components.items():
        mate = field.components.get(index)
        if mate is not None:
            total = total + value * mate
    return total


def oracle_apply_vector(field: GradedTensor, scalar):
    """X(f) = sum_j X^j d_j f."""
    value = field.chart.scalar(scalar)
    total = field.chart.scalar(0)
    for (j,), comp in field.components.items():
        total = total + comp * value.diff(j)
    return total


def oracle_lie_mv(field: GradedTensor, tensor: GradedTensor) -> GradedTensor:
    """(L_X P)^I = X^j d_j P^I - sum_a (d_j X^{i_a}) P^{I|a->j}.

    The slot-replacement term is spread from each stored component of P
    outward: P^J with entry j at a slot feeds the result index sort(J|slot->t)
    through d_j X^t.
    """
    chart = tensor.chart
    transported = {index: oracle_apply_vector(field, value)
                   for index, value in tensor.components.items()}
    correction: dict = {}
    for p_index, p_value in tensor.components.items():
        for slot, j in enumerate(p_index):
            for target in range(chart.dimension):
                replaced = list(p_index)
                replaced[slot] = target
                sorted_ = sort_index(replaced)
                comp = field.components.get((target,))
                if sorted_ is None or comp is None:
                    continue
                sign, key = sorted_
                term = p_value * comp.diff(j)
                correction[key] = correction.get(key, chart.scalar(0)) + sign * term
    return (GradedTensor(chart, MULTIVECTOR, tensor.degree, transported)
            - GradedTensor(chart, MULTIVECTOR, tensor.degree, correction))


def _sympy_matrix(matrix):
    """The same matrix as a sparse sympy DomainMatrix over QQ."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix({i: {j: QQ(v.numerator, v.denominator) for j, v in row.items()}
                         for i, row in enumerate(matrix.row_dicts()) if row},
                        (matrix.rows, matrix.cols), QQ)


def assert_elimination_matches_sympy(matrix):
    """Rank, pivot columns and kernel basis agree with sympy's own elimination."""
    reference = _sympy_matrix(matrix)
    _, pivots = reference.rref()
    kernel = matrix.nullspace()
    assert matrix.rank() == reference.rank() == len(pivots)
    assert matrix.pivot_columns() == list(pivots)
    assert len(kernel) == matrix.cols - reference.rank()
    basis = reference.nullspace().to_sdm() if kernel else {}
    expected = [{j: Fraction(int(v.numerator), int(v.denominator)) for j, v in basis[k].items()}
                for k in range(len(basis))]
    assert kernel == expected
