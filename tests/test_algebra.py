"""Exact polynomial, rational-function and linear-algebra behaviour."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nambu.algebra import (
    ExactMatrix,
    Polynomial,
    RationalFunction,
    matrix_from_columns,
    variables,
)

x1, x2, x3 = variables("x1 x2 x3")
VARS = ("x1", "x2", "x3")


# -- polynomial basics -------------------------------------------------------

def test_product_of_sum_and_difference():
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

def test_additive_identity():
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    assert r2 + Polynomial.zero(VARS) == r2

def test_square_evaluates_exactly():
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    assert (r2 * r2).evaluate((1, 1, 1)) == 9

def test_variable_list_mismatch_rejected():
    y = Polynomial.variable(("y1", "y2"), 0)
    with pytest.raises(ValueError):
        _ = x1 + y

def test_partial_derivatives():
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    assert r2.diff(2) == 2 * x3
    assert x2.diff(0).is_zero()
    assert (x1 * x2 ** 2).diff(1) == 2 * x1 * x2

def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        x1.diff(3)

def test_no_zero_terms_stored():
    assert (x1 - x1).terms == {}
    assert ((x1 + 1) * (x1 - 1) - x1 ** 2 + 1).terms == {}

def test_str_round_trips_signs():
    p = 2 * x1 ** 2 - Fraction(1, 2) * x2 + 3
    assert str(p) == "2*x1**2 - 1/2*x2 + 3"


# -- hypothesis: ring axioms and the derivation rule -------------------------

exponents = st.tuples(*(st.integers(0, 2) for _ in range(3)))
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Polynomial(VARS, terms))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_derivative_leibniz_rule(a, b, i):
    assert (a * b).diff(i) == a * b.diff(i) + b * a.diff(i)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_float_eval_matches_exact(a, b):
    point = (Fraction(1, 2), Fraction(-2), Fraction(3, 4))
    exact = float((a * b).evaluate(point))
    approx = (a * b).evaluate_float(tuple(float(v) for v in point))
    assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)


# -- rational functions ------------------------------------------------------

def test_exact_division_reduces_to_polynomial():
    ratio = RationalFunction(x1 ** 2 - x2 ** 2, x1 - x2)
    assert ratio.is_polynomial()
    assert ratio.as_polynomial() == x1 + x2

def test_normalization_idempotent():
    ratio = RationalFunction(2 * x1 * x2, 4 * x2 * x3)
    again = RationalFunction(ratio.numerator, ratio.denominator)
    assert ratio.numerator == again.numerator
    assert ratio.denominator == again.denominator

def test_denominator_leading_coefficient_positive():
    ratio = RationalFunction(x1, -x2 + 1)
    lead = max(ratio.denominator.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))[1]
    assert lead > 0

def test_equality_by_cross_multiplication():
    a = RationalFunction(x1, x2)
    b = RationalFunction(x1 * x3, x2 * x3)
    assert a == b
    assert RationalFunction(x1, x2) != RationalFunction(x2, x1)

def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x1, Polynomial.zero(VARS))

def test_field_arithmetic():
    a = RationalFunction(x1, x2)
    b = RationalFunction(x2, x1)
    assert a * b == RationalFunction.from_scalar(VARS, 1)
    assert a + b == RationalFunction(x1 ** 2 + x2 ** 2, x1 * x2)
    assert (a / b) == RationalFunction(x1 ** 2, x2 ** 2)


@given(polys, polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_rational_normalization_idempotent_random(num, den):
    first = RationalFunction(num, den)
    second = RationalFunction(first.numerator, first.denominator)
    assert first == second
    assert first.numerator == second.numerator
    assert first.denominator == second.denominator


# -- exact matrices ----------------------------------------------------------

def _times(matrix, vector):
    """matrix * vector for a dense vector, as a sparse matrix product."""
    column = {j: v for j, v in enumerate(vector) if v != 0}
    return [row[0] for row in (matrix @ matrix_from_columns([column], matrix.cols)).to_dense()]

def _kills(matrix, basis):
    return not any((matrix @ matrix_from_columns(basis, matrix.cols)).row_dicts())

def test_nullspace_of_identity_is_empty():
    assert ExactMatrix.from_dense([[1, 0], [0, 1]]).nullspace() == []

def test_nullspace_of_single_row():
    basis = ExactMatrix.from_dense([[1, 1]]).nullspace()
    assert basis == [{0: Fraction(-1), 1: Fraction(1)}]

def test_nullspace_dimension_rank_nullity():
    matrix = ExactMatrix.from_dense([[1, 2, 3], [2, 4, 6]])
    basis = matrix.nullspace()
    assert basis == [{1: Fraction(1), 0: Fraction(-2)}, {2: Fraction(1), 0: Fraction(-3)}]
    assert matrix.rank() + len(basis) == matrix.cols
    assert _kills(matrix, basis)

def test_solve_identity():
    outcome = ExactMatrix.from_dense([[1, 0], [0, 1]]).solve([3, 5])
    assert outcome.feasible
    assert outcome.solution == (Fraction(3), Fraction(5))

def test_solve_underdetermined_particular_solution():
    matrix = ExactMatrix.from_dense([[1, 1]])
    outcome = matrix.solve([2])
    assert outcome.feasible
    assert _times(matrix, outcome.solution) == [Fraction(2)]

def test_solve_infeasible_has_certificate():
    matrix = ExactMatrix.from_dense([[1], [1]])
    outcome = matrix.solve([1, 2])
    assert not outcome.feasible
    y = outcome.certificate
    assert y is not None
    # y annihilates the matrix but not the right-hand side
    assert all(sum(y[i] * matrix.get(i, j) for i in range(2)) == 0 for j in range(1))
    assert y[0] * 1 + y[1] * 2 != 0

def test_matmul_matches_dense():
    a = ExactMatrix.from_dense([[1, 2], [3, 4]])
    b = ExactMatrix.from_dense([[0, 1], [1, 0]])
    assert (a @ b).to_dense() == [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]

def test_matrix_from_columns():
    matrix = matrix_from_columns([{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(5)}], 2)
    assert matrix.to_dense() == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(5)]]
    for outside in (2, -1):
        with pytest.raises(ValueError):
            matrix_from_columns([{outside: Fraction(1)}], 2)


frac_rows = st.lists(st.lists(coeffs, min_size=3, max_size=3), min_size=1, max_size=4)


@given(frac_rows)
@settings(max_examples=40, deadline=None)
def test_nullspace_vectors_annihilated(rows):
    matrix = ExactMatrix.from_dense(rows)
    basis = matrix.nullspace()
    assert matrix.rank() + len(basis) == matrix.cols
    assert all(v != 0 for vec in basis for v in vec.values())
    assert _kills(matrix, basis)


@given(frac_rows, st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_either_solves_or_certifies(rows, seed_solution):
    matrix = ExactMatrix.from_dense(rows)
    rhs = _times(matrix, seed_solution[:matrix.cols])
    outcome = matrix.solve(rhs)
    assert outcome.feasible
    assert _times(matrix, outcome.solution) == rhs
