"""Exact polynomial, rational-function and linear-algebra behaviour."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nambu import algebra
from nambu.algebra import (
    ExactMatrix,
    InvariantError,
    Polynomial,
    RationalFunction,
    clear_denominators,
    transpose,
    variables,
    weighted_sums,
)
from nambu.cohomology import _annihilates
from support import (
    assert_elimination_matches_sympy,
    assert_solve_matches_sympy,
    dense,
    echelon_with_a_bad_certificate,
    evaluate,
    fraction_terms,
    matmul,
    matrix_from_columns,
    oracle_apply,
    oracle_derivative,
    oracle_echelon,
    oracle_horner,
    oracle_long_division,
    oracle_product,
    oracle_sum,
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
    assert evaluate(r2 * r2, (1, 1, 1)) == 9

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

def test_is_one():
    assert not Polynomial.zero(VARS).is_one()
    assert Polynomial.constant(VARS, 1).is_one()
    assert not Polynomial.constant(VARS, 2).is_one()
    assert not x1.is_one()
    assert not (1 + x1).is_one()
    assert Polynomial.constant((), 1).is_one()
    assert not Polynomial.constant((), 2).is_one()

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
    exact = float(evaluate(a * b, point))
    approx = (a * b).compile_float()(tuple(float(v) for v in point))
    assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)


# -- the compiled float evaluator against the per-call Horner recursion ------

def _polynomials(m: int):
    """Polynomials on m variables of degree <= 6, the zero one included."""
    exponents = st.lists(st.integers(0, m - 1), max_size=6).map(
        lambda slots: tuple(slots.count(i) for i in range(m)))
    wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 3)
    names = tuple(f"y{i}" for i in range(m))
    return st.dictionaries(exponents, wide, max_size=8).map(
        lambda terms: Polynomial(names, terms))


def _points(m: int):
    return st.lists(st.floats(-1e200, 1e200), min_size=m, max_size=m)


float_cases = st.integers(1, 5).flatmap(lambda m: st.tuples(_polynomials(m), _points(m)))


def _outcome(evaluate):
    try:
        return evaluate()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def _assert_same_float(expected, got):
    if isinstance(expected, float) and math.isnan(expected):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == expected


@given(float_cases)
@example((Polynomial.zero(("y0", "y1")), [2.5, -1.0]))
@example((Polynomial.constant(("y0",), Fraction(-7, 3)), [1e200]))
@example((Polynomial(("y0", "y1"), {(6, 0): 1, (0, 1): 2}), [1e60, 3.0]))
@settings(max_examples=300, deadline=None)
def test_compiled_float_evaluation_matches_horner_oracle_bitwise(case):
    poly, point = case
    expected = _outcome(lambda: oracle_horner(poly.sorted_terms(), point))
    _assert_same_float(expected, _outcome(lambda: poly.compile_float()(point)))


def test_hundreds_of_powers_of_one_variable_compile_as_statements():
    # one nested expression of these Horner steps is too deep for the parser
    for exponents in (range(400), range(0, 1500, 5)):
        poly = Polynomial(("y0",), {(k,): Fraction(k % 7 - 3, 1 + k % 4) for k in exponents})
        evaluate = poly.compile_float()
        for value in (0.999, -1.0005, 0.5, 3.0, -250.0):
            _assert_same_float(_outcome(lambda: oracle_horner(poly.sorted_terms(), [value])),
                               _outcome(lambda: evaluate([value])))


def test_zero_polynomial_evaluates_to_positive_zero():
    value = Polynomial.zero(("y0", "y1")).compile_float()([-1.0, 2.0])
    assert type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0


def test_kernels_name_their_temporaries_from_one_long_lived_table():
    # a dropped kernel leaves its names in the table, so the next kernel finds
    # them interned instead of interning them again
    poly = x1 ** 3 * x2 - Fraction(1, 3) * x2 ** 2 + 5 * x3
    code = poly.compile_float().__code__
    temporaries = [name for name in code.co_varnames if name != "point"]
    assert temporaries and code.co_names
    assert all(name is algebra._name("t", int(name[1:])) for name in temporaries)
    assert all(name is algebra._name("c", int(name[1:])) for name in code.co_names)


# -- rational functions ------------------------------------------------------

def test_exact_division_reduces_to_polynomial():
    ratio = RationalFunction(x1 ** 2 - x2 ** 2, x1 - x2)
    assert ratio.denominator.is_one()
    assert ratio.numerator == x1 + x2

def test_division_is_a_polynomial_exactly_when_it_is_exact():
    quotient = (x1 ** 2 - x2 ** 2) / (x1 - x2)
    assert type(quotient) is Polynomial and quotient == x1 + x2
    assert type((3 * x1 * x2) / 3) is Polynomial
    ratio = (x1 + 1) / (x2 + 1)
    assert type(ratio) is RationalFunction and not ratio.denominator.is_one()
    assert ratio * (x2 + 1) == x1 + 1 and type(ratio * (x2 + 1)) is Polynomial
    assert type(ratio - ratio) is Polynomial and type(ratio / ratio) is Polynomial
    assert (x1 + 1) / ratio == x2 + 1 and type((x1 + 1) / ratio) is Polynomial
    assert type(RationalFunction(x1 ** 2, x2).diff(1)) is RationalFunction
    assert type(RationalFunction(x1 * x2, x2).diff(0)) is Polynomial
    for numerator in (x1, Polynomial.zero(VARS)):
        with pytest.raises(ZeroDivisionError):
            numerator / Polynomial.zero(VARS)
        with pytest.raises(ZeroDivisionError):
            ratio / numerator if numerator.is_zero() else numerator / 0

def test_number_divided_by_polynomial():
    ratio = 1 / (1 + x1 ** 2)
    assert type(ratio) is RationalFunction and ratio == RationalFunction(x1 ** 0, 1 + x1 ** 2)
    assert ratio * (1 + x1 ** 2) == 1
    half = Fraction(1, 2) / (x2 + 1)
    assert type(half) is RationalFunction and half * (2 * x2 + 2) == 1
    exact = 2 / Polynomial.constant(VARS, 2)
    assert type(exact) is Polynomial and exact == 1
    with pytest.raises(ZeroDivisionError):
        1 / Polynomial.zero(VARS)

def test_rational_hash_agrees_with_equality():
    unreduced = RationalFunction((x1 + 1) * (x1 + 2), (x1 + 1) * (x1 + 3))
    reduced = RationalFunction(x1 + 2, x1 + 3)
    assert unreduced == reduced and hash(unreduced) == hash(reduced)
    assert len({unreduced, reduced}) == 1
    poly = x1 * x2 + 3
    assert RationalFunction(poly) == poly and hash(RationalFunction(poly)) == hash(poly)
    assert len({poly, RationalFunction(poly)}) == 1

def test_constant_polynomial_hashes_as_its_number():
    for value in (3, Fraction(1, 2), 0):
        poly = Polynomial.constant(VARS, value)
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1

@given(st.dictionaries(exponents, coeffs, max_size=10).map(lambda terms: Polynomial(VARS, terms)),
       coeffs.filter(bool))
@example(x1 * x2 + x3 ** 2 - 3 * x1 + Fraction(1, 2), Fraction(-2, 3))
@settings(max_examples=200, deadline=None)
def test_constant_divisor_matches_long_division(numerator, constant):
    divisor = Polynomial.constant(VARS, constant)
    quotient = divisor.divides_exactly(numerator)
    expected = oracle_long_division(divisor, numerator)
    assert quotient == expected
    # the term order is the one long division finds, descending grlex
    assert list(quotient.terms) == list(expected.terms)

@pytest.mark.parametrize("numerator, denominator, reduced", [
    (x1 + 1, x2 + 1, (x1 + 1, x2 + 1)),
    (2 * x1 * x2 + 4 * x2, 6 * x2 * x2 + 2 * x2,
     (x1 * Fraction(1, 3) + Fraction(2, 3), x2 + Fraction(1, 3))),
    (x1, 3 * x1 * x1 + 1, (x1 * Fraction(1, 3), x1 * x1 + Fraction(1, 3))),
    (x1 * x1 - x2, 2 * x1 * x2, ((x1 * x1 - x2) * Fraction(1, 2), x1 * x2)),
])
def test_inexact_division_tests_exactness_once(monkeypatch, numerator, denominator, reduced):
    calls = []
    divides_exactly = Polynomial.divides_exactly

    def counting(self, other):
        calls.append(other)
        return divides_exactly(self, other)

    monkeypatch.setattr(Polynomial, "divides_exactly", counting)
    ratio = numerator / denominator
    assert len(calls) == 1
    assert (ratio.numerator, ratio.denominator) == reduced

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
    assert a * b == Polynomial.constant(VARS, 1)
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


# -- the coefficient representation ------------------------------------------

int_polys = st.dictionaries(exponents, st.integers(-5, 5), max_size=4).map(
    lambda terms: Polynomial(VARS, terms))
any_polys = st.one_of(int_polys, polys)
constants = st.one_of(st.integers(-4, 4), coeffs).filter(bool)


def _integral(*polys) -> bool:
    return all(type(c) is int for p in polys for c in p.terms.values())


def _assert_exact(poly, integral):
    """No coefficient is a float or a bool; with integral inputs each is an int."""
    for c in poly.terms.values():
        assert type(c) in ((int,) if integral else (int, Fraction))


def _assert_normal(poly):
    """The normal form that construction and division give: a coefficient is
    an int exactly when it is integral."""
    for c in poly.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def test_exact_rejects_floats_and_turns_bools_into_ints():
    for bad in (0.5, 1.0, float("nan")):
        with pytest.raises(TypeError):
            Polynomial.constant(VARS, bad)
        with pytest.raises(TypeError):
            Polynomial(VARS, {(1, 0, 0): bad})
        with pytest.raises(TypeError):
            x1 * bad
    assert Polynomial.constant(VARS, True).terms == {(0, 0, 0): 1}
    assert str(x1 * True + True) == "x1 + 1"
    _assert_normal(Polynomial(VARS, {(0, 0, 0): Fraction(4, 2), (1, 0, 0): True,
                                     (0, 1, 0): Fraction(1, 2)}))


@given(any_polys, any_polys, st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_ring_operations_keep_coefficients_exact(a, b, power, index):
    integral = _integral(a, b)
    fa, fb = fraction_terms(a), fraction_terms(b)
    powered = {(0, 0, 0): Fraction(1)}
    for _ in range(power):
        powered = oracle_product(powered, fa)
    for result, expected in ((a + b, oracle_sum(fa, fb)), (a - b, oracle_sum(fa, fb, -1)),
                             (-a, oracle_sum({}, fa, -1)), (a * b, oracle_product(fa, fb)),
                             (a ** power, powered), (a.diff(index), oracle_derivative(fa, index))):
        assert result.terms == expected
        _assert_exact(result, integral)


@given(any_polys, any_polys.filter(lambda p: not p.is_zero()), constants)
@settings(max_examples=150, deadline=None)
def test_division_keeps_coefficients_exact(numerator, divisor, constant):
    integral = _integral(numerator, divisor)
    by_constant = numerator / constant
    assert type(by_constant) is Polynomial
    assert by_constant.terms == {e: c / constant for e, c in fraction_terms(numerator).items()}
    _assert_normal(by_constant)
    product = numerator * divisor
    exact = divisor.divides_exactly(product)
    assert exact == numerator and exact == oracle_long_division(divisor, product)
    _assert_normal(exact)
    _assert_exact(exact, integral and divisor.sorted_terms()[-1][1] in (1, -1))
    quotient = numerator / divisor
    if type(quotient) is Polynomial:
        _assert_normal(quotient)
        assert oracle_product(fraction_terms(quotient), fraction_terms(divisor)) == \
            fraction_terms(numerator)
        return
    top, bottom = quotient.numerator, quotient.denominator
    for part in (top, bottom):
        _assert_exact(part, False)
    assert bottom.sorted_terms()[-1][1] == 1
    assert oracle_product(fraction_terms(top), fraction_terms(divisor)) == \
        oracle_product(fraction_terms(numerator), fraction_terms(bottom))
    doubled = RationalFunction(numerator * 2, divisor * 2)
    assert doubled == quotient and hash(doubled) == hash(quotient)


def test_exact_answers_of_an_integer_matrix_are_ints_when_integral():
    matrix = ExactMatrix(2, 3, [{0: 1, 1: 2}, {1: 2, 2: 1}])
    kernel, = matrix.nullspace()
    assert kernel == {0: 1, 1: Fraction(-1, 2), 2: 1}
    assert {j: type(v) for j, v in kernel.items()} == {0: int, 1: Fraction, 2: int}
    solution, _ = matrix.solve([5, 4])
    assert solution == (1, 2, 0) and all(type(v) is int for v in solution)
    assert matrix.solve([4, 3])[0] == (1, Fraction(3, 2), 0)
    _, certificate = ExactMatrix(2, 1, [{0: 2}, {0: 4}]).solve([1, 1])
    assert certificate == (-2, 1) and all(type(v) is int for v in certificate)
    images = _product(matrix, [{0: 1, 2: Fraction(1, 2)}, {1: 1}])
    assert images == [{0: 1, 1: Fraction(1, 2)}, {0: 2, 1: 2}]
    assert [[type(v) for v in image.values()] for image in images] == \
        [[int, Fraction], [int, int]]


# -- exact matrices ----------------------------------------------------------

def _product(matrix, vectors):
    """The image of each vector: the weighted sums of the matrix rows over the
    vectors' transpose, transposed back."""
    return transpose(enumerate(weighted_sums(
        matrix.row_dicts(), transpose(enumerate(vectors), matrix.cols))), len(vectors))

def _times(matrix, vector):
    """matrix * vector for a dense vector, by the Fraction product oracle."""
    image, = oracle_apply(matrix, [{j: v for j, v in enumerate(vector) if v != 0}])
    return [image.get(i, 0) for i in range(matrix.rows)]

def _kills(matrix, basis):
    return not any(oracle_apply(matrix, basis))

def test_nullspace_of_identity_is_empty():
    assert dense([[1, 0], [0, 1]]).nullspace() == []

def test_nullspace_of_single_row():
    basis = dense([[1, 1]]).nullspace()
    assert basis == [{0: Fraction(-1), 1: Fraction(1)}]

def test_nullspace_dimension_rank_nullity():
    matrix = dense([[1, 2, 3], [2, 4, 6]])
    basis = matrix.nullspace()
    assert basis == [{1: Fraction(1), 0: Fraction(-2)}, {2: Fraction(1), 0: Fraction(-3)}]
    assert matrix.rank() + len(basis) == matrix.cols
    assert _kills(matrix, basis)

def test_solve_identity():
    solution, certificate = dense([[1, 0], [0, 1]]).solve([3, 5])
    assert certificate is None
    assert solution == (Fraction(3), Fraction(5))

def test_solve_underdetermined_particular_solution():
    matrix = dense([[1, 1]])
    solution, certificate = matrix.solve([2])
    assert certificate is None
    assert _times(matrix, solution) == [Fraction(2)]

def test_solve_infeasible_has_certificate():
    matrix = dense([[1], [1]])
    solution, y = matrix.solve([1, 2])
    assert solution is None
    assert y is not None
    # y annihilates the matrix but not the right-hand side
    rows = matrix.row_dicts()
    assert all(sum(y[i] * rows[i].get(j, 0) for i in range(2)) == 0 for j in range(1))
    assert y[0] * 1 + y[1] * 2 != 0

def test_matmul_matches_dense():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert matmul(a, b) == dense([[2, 1], [4, 3]])
    # the columns of b, and the columns of a*b as their images
    assert _product(a, [{1: Fraction(1)}, {0: Fraction(1)}]) == \
        [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(3)}]

def test_column_keys_outside_the_matrix_are_rejected():
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, [{3: Fraction(1)}])
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, [{-1: Fraction(1)}])
    with pytest.raises(ValueError):
        transpose([(0, {-1: Fraction(1)})], 2)

def test_matrix_from_columns():
    matrix = matrix_from_columns([{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(5)}], 2)
    assert matrix == dense([[1, 2], [0, 5]])
    for outside in (2, -1):
        with pytest.raises(ValueError):
            matrix_from_columns([{outside: Fraction(1)}], 2)
        with pytest.raises(ValueError, match="row index"):
            _product(matrix, [{0: Fraction(1)}, {outside: Fraction(1)}])


# few distinct values, so that products cancel often
product_entries = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)])


@st.composite
def products(draw):
    """A matrix and a list of sparse vectors with fractional entries; matrix
    rows and vectors may be empty, and so may the matrix and the list."""
    cols = draw(st.integers(0, 4))
    sparse = st.dictionaries(st.integers(0, cols - 1), product_entries) if cols \
        else st.just({})
    rows = draw(st.lists(sparse, max_size=4))
    return ExactMatrix(len(rows), cols, rows), draw(st.lists(sparse, max_size=4))


@given(products())
@example((dense([[Fraction(1, 2), Fraction(1, 3)], [1, 0]]),
          [{0: Fraction(2, 3), 1: Fraction(-1)}, {}, {1: Fraction(3, 4)}]))
@example((dense([[1, 1, -2]]), [{0: Fraction(1, 2), 1: Fraction(3, 2), 2: Fraction(1)}]))
@settings(max_examples=150, deadline=None)
def test_weighted_sums_over_the_transpose_match_the_fraction_product(case):
    matrix, vectors = case
    assert _product(matrix, vectors) == oracle_apply(matrix, vectors)


@given(products(), st.data())
@settings(max_examples=60, deadline=None)
def test_transpose_rejects_a_vector_index_outside_the_matrix(case, data):
    matrix, vectors = case
    outside = data.draw(st.one_of(st.integers(-3, -1),
                                  st.integers(matrix.cols, matrix.cols + 3)))
    vectors.insert(data.draw(st.integers(0, len(vectors))), {outside: Fraction(1, 2)})
    with pytest.raises(ValueError, match="row index"):
        transpose(enumerate(vectors), matrix.cols)
    with pytest.raises(ValueError, match="row index"):
        oracle_apply(matrix, vectors)


@given(st.dictionaries(st.integers(0, 5), st.one_of(
    st.integers(-9, 9), st.fractions(max_denominator=12)).filter(bool)))
@example({0: 2, 3: -1})
@example({1: Fraction(4), 2: Fraction(-3, 4)})
@settings(max_examples=150, deadline=None)
def test_clear_denominators_scales_a_vector_to_ints(vector):
    cleared = clear_denominators(vector)
    assert all(type(v) is int for v in cleared.values())
    assert cleared.keys() == vector.keys()
    if vector:
        j = next(iter(vector))
        scale = Fraction(cleared[j]) / vector[j]
        assert scale > 0 and all(cleared[i] == scale * v for i, v in vector.items())
    if all(type(v) is int for v in vector.values()):
        assert cleared is vector


frac_rows = st.lists(st.lists(coeffs, min_size=3, max_size=3), min_size=1, max_size=4)


@given(frac_rows)
@settings(max_examples=40, deadline=None)
def test_nullspace_vectors_annihilated(rows):
    matrix = dense(rows)
    basis = matrix.nullspace()
    assert matrix.rank() + len(basis) == matrix.cols
    assert all(v != 0 for vec in basis for v in vec.values())
    assert _kills(matrix, basis)


@given(frac_rows, st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_either_solves_or_certifies(rows, seed_solution):
    matrix = dense(rows)
    rhs = _times(matrix, seed_solution[:matrix.cols])
    solution, certificate = matrix.solve(rhs)
    assert certificate is None
    assert _times(matrix, solution) == rhs


# -- the elimination against a Gauss-Jordan oracle ---------------------------

def _gauss_jordan(matrix, rhs):
    """Reference: dense-scan Gauss-Jordan on Fractions with a full transform.

    Returns (pivot columns, kernel basis, solution, certificate) as the
    engine defines them: the kernel basis has a 1 in its free slot and 0 in
    the other free slots, the solution sets the free variables to zero, and
    the certificate is the transform row of the first leftover row whose
    entry of T*b is non-zero.
    """
    nrows, ncols = matrix.rows, matrix.cols
    work = [dict(row) for row in matrix.row_dicts()]
    transform = [{i: Fraction(1)} for i in range(nrows)]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        sel = next((r for r in range(k, nrows) if work[r].get(col)), None)
        if sel is None:
            continue
        work[k], work[sel] = work[sel], work[k]
        transform[k], transform[sel] = transform[sel], transform[k]
        inv = 1 / work[k][col]
        work[k] = {j: v * inv for j, v in work[k].items()}
        transform[k] = {j: v * inv for j, v in transform[k].items()}
        for r in range(nrows):
            factor = work[r].get(col) if r != k else None
            if not factor:
                continue
            for target, source in ((work[r], work[k]), (transform[r], transform[k])):
                for j, v in source.items():
                    s = target.get(j, 0) - factor * v
                    if s:
                        target[j] = s
                    else:
                        target.pop(j, None)
        pivots.append(col)
        if len(pivots) == nrows:
            break
    basis = {free: {free: Fraction(1)} for free in range(ncols) if free not in pivots}
    for row, pivot_col in zip(work, pivots):
        for free, coeff in row.items():
            if free != pivot_col:
                basis[free][pivot_col] = -coeff
    tb = [sum((c * rhs[j] for j, c in trow.items()), Fraction(0)) for trow in transform]
    for r in range(len(pivots), nrows):
        if tb[r]:
            certificate = tuple(transform[r].get(j, Fraction(0)) for j in range(nrows))
            return pivots, list(basis.values()), None, certificate
    solution = [Fraction(0)] * ncols
    for k, pivot_col in enumerate(pivots):
        solution[pivot_col] = tb[k]
    return pivots, list(basis.values()), tuple(solution), None


def _assert_matches_gauss_jordan(matrix, rhs):
    pivots, basis, solution, certificate = _gauss_jordan(matrix, rhs)
    assert matrix.pivot_columns() == pivots
    assert matrix.rank() == len(pivots)
    kernel = matrix.nullspace()
    assert kernel == basis
    assert [list(vec) for vec in kernel] == [list(vec) for vec in basis]
    assert matrix.solve(rhs) == (solution, certificate)


@st.composite
def linear_systems(draw):
    """A matrix of any shape up to 6x6 with duplicated and zero rows, and b."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.one_of(st.just(Fraction(0)), coeffs),
                                  min_size=ncols, max_size=ncols), max_size=6))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))] \
        if rows else []
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    rhs = draw(st.lists(coeffs, min_size=len(rows), max_size=len(rows)))
    matrix = ExactMatrix(len(rows), ncols,
                         [{j: v for j, v in enumerate(row) if v} for row in rows])
    return matrix, rhs


@given(linear_systems())
@settings(max_examples=200, deadline=None)
@example((ExactMatrix(0, 0), []))
@example((ExactMatrix(0, 3), []))
@example((ExactMatrix(3, 0), [Fraction(0), Fraction(1), Fraction(0)]))
@example((dense([[1, 2], [0, 0], [2, 4]]),
          [Fraction(1), Fraction(3), Fraction(2)]))
@example((dense([[1, 2, 3, 4]]), [Fraction(5)]))
@example((dense([[1], [2], [3], [4]]), [Fraction(1), Fraction(2), Fraction(4), Fraction(8)]))
def test_elimination_matches_gauss_jordan(system):
    matrix, rhs = system
    _assert_matches_gauss_jordan(matrix, rhs)


@pytest.mark.parametrize("seed", range(6))
def test_elimination_matches_gauss_jordan_sparse(seed):
    # about 60x40 at 8% density, so many rows are dependent or left over;
    # even seeds get a consistent b, odd seeds a random sparse one
    rng = random.Random(seed)
    nrows, ncols = rng.randint(55, 65), rng.randint(35, 45)
    rows = [{j: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
             for j in range(ncols) if rng.random() < 0.08} for _ in range(nrows)]
    matrix = ExactMatrix(nrows, ncols, [{j: v for j, v in row.items() if v} for row in rows])
    if seed % 2 == 0:
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = _times(matrix, x)
    else:
        rhs = [Fraction(rng.randint(-3, 3)) if rng.random() < 0.1 else Fraction(0)
               for _ in range(nrows)]
    _assert_matches_gauss_jordan(matrix, rhs)


def _counting_echelon(monkeypatch):
    calls = []
    echelon = ExactMatrix._echelon

    def counted(self, *args, **kwargs):
        calls.append((self.rows, self.cols))
        return echelon(self, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "_echelon", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_certificate_of_a_late_leftover_row_matches_gauss_jordan(monkeypatch, seed):
    # 150x100 at 3% density: the leftover rows come before row 149, which is
    # a combination of 30 earlier rows and so stays in the last position.  b
    # is consistent except on row 149, so every earlier leftover row's b
    # cancels and the certificate belongs to row 149, whose weights reach
    # more than 20 pivot rows.  They come from a second elimination, of the
    # transposed system.
    rng = random.Random(2000 + seed)
    nrows, ncols = 150, 100
    rows = [{j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))
             for j in range(ncols) if rng.random() < 0.03} for _ in range(nrows - 1)]
    last: dict[int, Fraction] = {}
    for i in rng.sample(range(nrows - 1), 30):
        weight = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        for j, v in rows[i].items():
            last[j] = last.get(j, 0) + weight * v
    rows.append({j: v for j, v in last.items() if v})
    matrix = ExactMatrix(nrows, ncols, rows)
    rhs = _times(matrix, [Fraction(rng.randint(-3, 3)) for _ in range(ncols)])
    rhs[-1] += 1
    _assert_matches_gauss_jordan(matrix, rhs)
    calls = _counting_echelon(monkeypatch)
    _, certificate = matrix.solve(rhs)
    assert len(calls) == 2 and calls[0] == (nrows, ncols + 1)
    assert matrix.rank() < nrows - 1 and certificate[-1] == 1
    assert sum(1 for weight in certificate if weight) > 21


def test_pivot_rows_that_do_not_span_the_certificate_row_are_an_invariant_error(monkeypatch):
    # b's pivot row trades places with the first pivot row, whose row of A
    # the other pivot rows do not span: the transposed system has no solution
    echelon = ExactMatrix._echelon

    def swapped(self):
        pivots, order, rows = echelon(self)
        if pivots and pivots[-1] == self.cols - 1:
            k = len(pivots) - 1
            order[0], order[k] = order[k], order[0]
        return pivots, order, rows

    monkeypatch.setattr(ExactMatrix, "_echelon", swapped)
    with pytest.raises(InvariantError, match="pivot rows do not span"):
        dense([[1, 0], [0, 1], [0, 0]]).solve([0, 0, 1])


def test_certificate_of_a_deep_pivot_chain_is_replayed_without_recursion():
    # r0 = e0, r_k = e_(k-1) + e_k: the leftover row e_2999 is the
    # alternating sum of all 3000 pivot rows, so its weights come from a
    # 3000-deep triangular transposed system; they alternate in sign
    n = 3000
    rows = [{0: Fraction(1)}] + [{k - 1: Fraction(1), k: Fraction(1)} for k in range(1, n)]
    rows.append({n - 1: Fraction(1)})
    rhs = [Fraction(0)] * n + [Fraction(1)]
    solution, certificate = ExactMatrix(n + 1, n, rows).solve(rhs)
    assert solution is None
    assert certificate == tuple(Fraction((-1) ** (n - k)) for k in range(n + 1))


def test_feasible_solve_back_substitutes_only_pivot_columns_and_b(monkeypatch):
    # 3x6 of rank 3 with free columns 1, 4 and 5: they are dropped from the
    # pivot rows before the one back-substitution, so x is zero there
    matrix = dense([[1, 2, 0, 1, 3, 0],
                    [0, 0, 1, 2, 1, 1],
                    [2, 4, 1, 0, 0, 5]])
    calls = []
    back_substitute = algebra._back_substitute

    def spy(pivots, echelon):
        calls.append((list(pivots), [dict(row) for row in echelon]))
        return back_substitute(pivots, echelon)

    monkeypatch.setattr(algebra, "_back_substitute", spy)
    solution, certificate = matrix.solve([1, 2, 3])
    assert certificate is None
    assert _times(matrix, solution) == [1, 2, 3]
    assert len(calls) == 1
    pivots, echelon = calls[0]
    assert pivots == [0, 2, 3]
    assert all(set(row) <= {0, 2, 3, 6} for row in echelon)
    assert all(solution[j] == 0 for j in (1, 4, 5))


@pytest.mark.parametrize("corrupt_b, message", [(False, "annihilate"), (True, "separate")])
def test_a_corrupted_certificate_is_an_invariant_error(monkeypatch, corrupt_b, message):
    monkeypatch.setattr(ExactMatrix, "_echelon", echelon_with_a_bad_certificate(corrupt_b))
    with pytest.raises(InvariantError, match=message):
        dense([[1], [1], [1]]).solve([1, 1, 2])


# -- the elimination's fast paths against the elimination without them -------

# ints and Fractions with negative and unit pivots and integral Fractions
echelon_entries = st.one_of(
    st.sampled_from([1, -1, 2, -2, 3, -3, 6]),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(4), Fraction(1, 2),
                     Fraction(-3, 2), Fraction(2, 3), Fraction(-5, 6)]))


@st.composite
def echelon_inputs(draw):
    """A sparse matrix of any shape up to 9x8: all ints or with Fractions,
    with single-entry, repeated and empty rows in any order."""
    ncols = draw(st.integers(0, 8))
    entries = echelon_entries if draw(st.booleans()) else echelon_entries.filter(
        lambda v: type(v) is int)
    if ncols:
        columns = st.integers(0, ncols - 1)
        sparse = st.one_of(st.dictionaries(columns, entries, max_size=1),
                           st.dictionaries(columns, entries, max_size=ncols))
        rows = draw(st.lists(sparse, max_size=6))
    else:
        rows = [{}] * draw(st.integers(0, 3))
    rows += [dict(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))] \
        if rows else []
    rows += [{} for _ in range(draw(st.integers(0, 1)))]
    order = draw(st.permutations(range(len(rows))))
    return ExactMatrix(len(rows), ncols, [rows[i] for i in order])


@given(echelon_inputs())
@example(ExactMatrix(0, 0))
@example(ExactMatrix(0, 4))
@example(ExactMatrix(3, 0))
@example(ExactMatrix(4, 3, [{0: -2, 1: 4}, {0: 3, 2: -1}, {0: -1, 1: 5}, {1: 2, 2: 7}]))
@example(ExactMatrix(4, 3, [{0: 1, 2: -3}, {0: -1, 1: 2}, {1: 1}, {0: 4, 1: -8, 2: 12}]))
@example(ExactMatrix(3, 3, [{1: Fraction(-3)}, {1: Fraction(6), 2: Fraction(4)},
                            {0: Fraction(2, 3), 1: Fraction(-1)}]))
@example(ExactMatrix(4, 2, [{0: -1, 1: 1}, {0: -1, 1: 1}, {}, {0: 2, 1: Fraction(1, 2)}]))
@settings(max_examples=300, deadline=None)
def test_echelon_matches_the_elimination_without_fast_paths(matrix):
    expected_pivots, expected_order, expected_rows = oracle_echelon(matrix)
    pivots, order, rows = matrix._echelon()
    assert pivots == expected_pivots
    assert order == expected_order
    assert len(rows) == len(expected_rows)
    for row, expected in zip(rows, expected_rows):
        assert all(type(v) is int for v in row.values())
        assert row.keys() == expected.keys()
        if row:
            ratio = Fraction(row[next(iter(row))], expected[next(iter(row))])
            assert all(Fraction(v, expected[j]) == ratio for j, v in row.items())


# column 0 is held by a three-entry row 0 and by two-entry rows 2 and 3, and
# column 1 then by row 0 and the one-entry row 4: the first-holder rule
# pivots on rows 0, 2 and 4, the sparsest-holder rule on rows 2, 4 and 0
ROW_RULES_DIFFER = ExactMatrix(5, 4, [{0: Fraction(2, 3), 1: 1, 3: -1}, {}, {0: -4, 2: 6},
                                      {0: -4, 2: 6}, {1: 3}])


def _first_holder_kernel(matrix):
    """The kernel basis that ``nullspace`` reads off, read off the
    first-holder elimination instead."""
    pivots, order, rows = matrix._echelon()
    reduced = algebra._back_substitute(pivots, [rows[r] for r in order[:len(pivots)]])
    basis = {free: {free: 1} for free in range(matrix.cols) if free not in pivots}
    for row, pivot_col in zip(reduced, pivots):
        for free, coeff in row.items():
            if free != pivot_col:
                basis[free][pivot_col] = Fraction(-coeff, row[pivot_col])
    return list(basis.values())


def test_sparsest_holder_rule_takes_the_earliest_of_the_shortest_holders():
    assert ROW_RULES_DIFFER._echelon()[:2] == ([0, 1, 2], [0, 2, 4, 3, 1])
    assert ROW_RULES_DIFFER._echelon(sparsest=True)[:2] == ([0, 1, 2], [2, 4, 0, 3, 1])


@given(echelon_inputs())
@example(ROW_RULES_DIFFER)
@settings(max_examples=300, deadline=None)
def test_sparsest_holder_rule_keeps_the_pivots_and_the_kernel(matrix):
    kernel = matrix.nullspace()
    assert matrix.pivot_columns() == oracle_echelon(matrix)[0]
    # the same vectors, with their entries in the same order
    assert [list(vector.items()) for vector in kernel] == \
        [list(vector.items()) for vector in _first_holder_kernel(matrix)]
    assert matrix.rank() + len(kernel) == matrix.cols


def _snapshot(vectors):
    """Each vector's entries with their types, in order: an int that became
    an equal Fraction, or a reordered row, counts as a change."""
    return [[(j, type(v), v) for j, v in vector.items()] for vector in vectors]


@pytest.mark.parametrize("rows", [
    # negative pivots, a unit pivot and a single-entry row, all ints
    [{0: -2, 1: 4, 3: -1}, {0: -1, 2: 3}, {1: -1, 2: 5, 3: 2}, {0: 3, 1: -6}, {2: -4}, {}],
    # the same pattern with Fraction rows, one of them integral
    [{0: Fraction(-2, 3), 1: Fraction(4), 3: -1}, {0: Fraction(-1), 2: Fraction(3)},
     {1: -1, 2: Fraction(5, 2), 3: 2}, {0: 3, 1: -6}, {2: Fraction(-4, 7)}, {}],
], ids=["ints", "fractions"])
def test_elimination_and_containment_leave_their_inputs_unchanged(rows):
    matrix = ExactMatrix(len(rows), 4, rows)
    before = copy.deepcopy(_snapshot(rows))
    rhs = [1, Fraction(-1, 2), 0, 3, -1, 0]
    given_rhs = copy.deepcopy(rhs)
    matrix._echelon()
    kernel = matrix.nullspace()
    matrix.solve(rhs)
    kernel_before = copy.deepcopy(_snapshot(kernel))
    assert _annihilates(matrix, kernel)
    assert matrix.row_dicts() is rows
    assert _snapshot(rows) == before
    assert _snapshot(kernel) == kernel_before
    assert rhs == given_rhs and [type(v) for v in rhs] == [type(v) for v in given_rhs]


# -- the elimination against sympy (test-only dependency) --------------------

@pytest.mark.parametrize("seed", range(12))
def test_elimination_matches_sympy_on_random_sparse(seed):
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(0, 40), rng.randint(0, 40)
    density = rng.choice((0.05, 0.15, 0.4))
    rows = [{j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
             for j in range(ncols) if rng.random() < density} for _ in range(nrows)]
    matrix = ExactMatrix(nrows, ncols, rows)
    assert_elimination_matches_sympy(matrix)
    # even seeds get a consistent b, odd seeds a random sparse one
    if seed % 2 == 0:
        rhs = _times(matrix, [Fraction(rng.randint(-3, 3)) for _ in range(ncols)])
    else:
        rhs = [Fraction(rng.randint(-3, 3)) if rng.random() < 0.1 else Fraction(0)
               for _ in range(nrows)]
    assert_solve_matches_sympy(matrix, rhs)
