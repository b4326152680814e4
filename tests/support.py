"""Shared builders and random generators for the test suite."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from nambu.algebra import Polynomial, grlex_key, matrix_from_columns
from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    Scalar,
    apply_vector,
    pair,
    sort_index,
    wedge_all,
)
from nambu.structures import NambuStructure, leibniz_bracket, sharp

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


# -- term-by-term long division, as the oracle of the constant-divisor path -------

def oracle_long_division(divisor: Polynomial, numerator: Polynomial) -> Polynomial | None:
    """numerator / divisor by repeatedly cancelling the grlex-leading term."""
    def leading(poly):
        return max(poly.terms.items(), key=lambda item: grlex_key(item[0]))

    lead_e, lead_c = leading(divisor)
    quotient = {}
    rest = numerator
    while not rest.is_zero():
        top_e, top_c = leading(rest)
        shift = tuple(a - b for a, b in zip(top_e, lead_e))
        if any(d < 0 for d in shift):
            return None
        quotient[shift] = top_c / lead_c
        rest = rest - Polynomial.monomial(divisor.variables, shift, top_c / lead_c) * divisor
    return Polynomial(divisor.variables, quotient)


# -- per-call Horner recursion, as the oracle of the compiled float evaluator ------

def oracle_horner(terms, values, axis=0) -> float:
    """Evaluate grlex-sorted terms by nested Horner steps along one axis.

    The per-call recursion that ``compile_float`` must match bit for bit: it
    regroups the terms on every call and also multiplies by ``x ** 0`` and
    takes ``x ** 1``, which the compiled plan skips as exact.
    """
    if not terms:
        return 0.0
    if axis == len(values):
        return float(sum(c for _, c in terms))
    groups: dict = {}
    for exponent, coeff in terms:
        groups.setdefault(exponent[axis], []).append((exponent, coeff))
    x = values[axis]
    powers = sorted(groups, reverse=True)
    acc = oracle_horner(groups[powers[0]], values, axis + 1)
    prev = powers[0]
    for power in powers[1:]:
        acc = acc * x ** (prev - power) + oracle_horner(groups[power], values, axis + 1)
        prev = power
    return acc * x ** prev


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


# -- the quotient by the full cocycle nullspace, as the oracle of the complement ---

def _span_rank_extension(base, candidates, length):
    """Rank of the base span and the indices of candidates that extend it greedily.

    One elimination of [base | candidates] answers both: a column is a pivot
    exactly when it is independent of every column before it.
    """
    pivots = matrix_from_columns(base + candidates, length).pivot_columns()
    base_rank = bisect_left(pivots, len(base))
    return base_rank, [pos - len(base) for pos in pivots[base_rank:]]


def oracle_quotient(cocycle, boundaries, length):
    """ker C modulo span B by the full nullspace of C, then [B | cocycles].

    Returns (dimension, cocycle dimension, coboundary dimension,
    representatives): the cocycles that extend span B greedily.
    """
    cocycles = cocycle.nullspace()
    boundary_rank, chosen = _span_rank_extension(boundaries, cocycles, length)
    return (len(cocycles) - boundary_rank, len(cocycles), boundary_rank,
            [cocycles[pos] for pos in chosen])


# -- form-represented cochains of the algebroid complex, as test oracles ----------

def form_cochain_value(structure: NambuStructure, form: GradedTensor,
                       arguments: list[GradedTensor]) -> Scalar:
    """Value of the cochain represented by a k-form on k bracket arguments."""
    if form.degree != len(arguments):
        raise ValueError("argument count must match the form degree")
    if not arguments:
        return form.scalar_value()
    n = structure.order
    fields = [sharp(structure, n - 1, argument) for argument in arguments]
    return pair(form, wedge_all(fields))


def form_cochain_coboundary(structure: NambuStructure, form: GradedTensor,
                            arguments: list[GradedTensor]) -> Scalar:
    """The algebroid coboundary of a form-represented cochain, evaluated.

    Anchor terms act through the bundle map; bracket terms replace the later
    argument in place, with the sign convention of the non-skew complex.
    """
    k = form.degree
    if len(arguments) != k + 1:
        raise ValueError("coboundary evaluation needs k+1 arguments")
    n = structure.order
    total = structure.chart.scalar(0)
    for i, argument in enumerate(arguments):
        rest = arguments[:i] + arguments[i + 1:]
        value = form_cochain_value(structure, form, rest)
        term = apply_vector(sharp(structure, n - 1, argument), value)
        if i % 2:
            term = -term
        total = total + term
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            bracket = leibniz_bracket(structure, arguments[i], arguments[j])
            reduced = arguments[:i] + arguments[i + 1:]
            reduced[j - 1] = bracket
            value = form_cochain_value(structure, form, reduced)
            if (i - 1) % 2:
                value = -value
            total = total + value
    return total
